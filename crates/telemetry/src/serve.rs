//! Live HTTP introspection endpoint.
//!
//! [`Telemetry::serve`] binds a `std::net::TcpListener` and answers
//! three read-only routes from a background thread, with the same
//! no-new-deps discipline as the rest of the workspace (the HTTP/1.1
//! subset is hand-rolled, like the JSON writer):
//!
//! - `GET /metrics` — Prometheus text exposition (format 0.0.4),
//! - `GET /snapshot.json` — the full snapshot as JSON,
//! - `GET /trace.json` — the raw span log as Chrome trace-event JSON.
//!
//! Every response is a fresh snapshot, so a scraper watches the run
//! live. Serving only *reads* collector state; the solver never reads
//! anything back, so a concurrently scraped run stays bit-identical
//! to an unobserved one. Each request bumps the
//! `telemetry.http.requests` counter. Dropping the returned
//! [`MetricsServer`] shuts the endpoint down gracefully: the accept
//! loop is woken with a throwaway connection and joined.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{names, to_prometheus, Telemetry};

/// Longest request head (request line + headers) the server reads.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout; a stalled scraper cannot wedge the
/// serving thread for longer than this.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics endpoint. Dropping it stops the server.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The address actually bound (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag; the connection
        // itself is discarded without being counted or answered.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Telemetry {
    /// Starts the live HTTP endpoint on `addr` (use port 0 for an
    /// ephemeral port; the bound address is available via
    /// [`MetricsServer::addr`]).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::Unsupported`] when this handle is
    /// disabled — there is nothing to serve — and propagates socket
    /// errors from bind/spawn.
    pub fn serve<A: ToSocketAddrs>(&self, addr: A) -> io::Result<MetricsServer> {
        if !self.is_enabled() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "telemetry is disabled; there is no collector to serve",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let tele = self.clone();
        let handle = std::thread::Builder::new()
            .name("metis-metrics-http".to_string())
            // metis-lint: allow(CONC-01): the endpoint is a blocking I/O side channel, not solver fan-out; it must not occupy a worker slot
            .spawn(move || accept_loop(&listener, &tele, &flag))?;
        Ok(MetricsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }
}

/// Accepts connections until the shutdown flag is raised.
fn accept_loop(listener: &TcpListener, tele: &Telemetry, shutdown: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        tele.incr(names::TELEMETRY_HTTP_REQUESTS);
        // Per-connection errors (disconnects, timeouts) only affect
        // that scraper; the endpoint keeps serving.
        let _ = handle_connection(stream, tele);
    }
}

/// Serves exactly one request on `stream` (`Connection: close`).
fn handle_connection(mut stream: TcpStream, tele: &Telemetry) -> io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    // A head that cannot be read is as bad as a malformed one.
    let head = read_head(&mut stream).unwrap_or_default();
    let Ok((method, path)) = parse_request_line(&head) else {
        return respond(&mut stream, "400 Bad Request", TEXT, "bad request\n");
    };
    if method != "GET" {
        return respond(&mut stream, "405 Method Not Allowed", TEXT, "GET only\n");
    }
    match path {
        "/metrics" => match tele.snapshot() {
            Some(snapshot) => respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &to_prometheus(&snapshot),
            ),
            None => respond(&mut stream, "503 Service Unavailable", TEXT, "disabled\n"),
        },
        "/snapshot.json" => match tele.snapshot() {
            Some(snapshot) => respond(&mut stream, "200 OK", JSON, &snapshot.to_json()),
            None => respond(&mut stream, "503 Service Unavailable", TEXT, "disabled\n"),
        },
        "/trace.json" => match tele.chrome_trace() {
            Some(trace) => respond(&mut stream, "200 OK", JSON, &trace),
            None => respond(&mut stream, "503 Service Unavailable", TEXT, "disabled\n"),
        },
        _ => respond(
            &mut stream,
            "404 Not Found",
            TEXT,
            "routes: /metrics /snapshot.json /trace.json\n",
        ),
    }
}

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json; charset=utf-8";

/// Reads the request head: up to the blank line that ends it, the end
/// of the stream, or [`MAX_REQUEST_BYTES`] (an error).
fn read_head(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut head = Vec::new();
    let mut chunk = [0_u8; 512];
    // Read until the blank line ending the head, so the client is not
    // hit with a response (and possibly a reset) mid-send.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() >= MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    Ok(head)
}

/// Parses the request line, the first line of `head`, as `METHOD PATH
/// HTTP/…` and returns `(method, path)`. Fields are split on whitespace
/// and anything after the version is ignored. The request line must be
/// UTF-8; the header lines after it are never read.
fn parse_request_line(head: &[u8]) -> io::Result<(&str, &str)> {
    let bad = |why: &'static str| io::Error::new(io::ErrorKind::InvalidData, why);
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let line = std::str::from_utf8(line).map_err(|_| bad("request line is not UTF-8"))?;
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version)) if version.starts_with("HTTP/") => {
            Ok((method, path))
        }
        _ => Err(bad("malformed request line")),
    }
}

/// Writes a full HTTP/1.1 response.
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n",
        len = body.len(),
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_prometheus;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_and_counts_requests() {
        let t = Telemetry::enabled();
        t.incr(names::LP_SIMPLEX_ITERATIONS);
        {
            let _span = t.span(names::SPAN_METIS);
        }
        let server = t.serve("127.0.0.1:0").expect("bind ephemeral");

        let (head, body) = http_get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        validate_prometheus(&body).expect("exposition is valid");
        assert!(body.contains("metis_lp_simplex_iterations"));

        let (head, body) = http_get(server.addr(), "/snapshot.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("application/json"));
        assert!(body.contains("\"counters\""));

        let (head, body) = http_get(server.addr(), "/trace.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("\"traceEvents\""));

        let (head, _) = http_get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        // 4 requests served; the counter itself is sampled afterwards.
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.counter(names::TELEMETRY_HTTP_REQUESTS), 4);
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        let t = Telemetry::enabled();
        let server = t.serve("127.0.0.1:0").expect("bind ephemeral");

        let mut s = TcpStream::connect(server.addr()).expect("connect");
        write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"));

        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.write_all(b"\r\n\r\n").expect("send");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn drop_shuts_down_and_frees_the_port() {
        let t = Telemetry::enabled();
        let server = t.serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.addr();
        drop(server);
        // The port is released: a fresh bind to the same address works.
        let rebound = TcpListener::bind(addr).expect("port released after drop");
        drop(rebound);
    }

    #[test]
    fn request_lines_parse_to_method_and_path() {
        let ok = [
            (
                &b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"[..],
                ("GET", "/metrics"),
            ),
            (b"POST / HTTP/1.0", ("POST", "/")),
            (b"GET  /a\tHTTP/2 trailing words\n", ("GET", "/a")),
            // Only the request line must be UTF-8.
            (b"GET /x HTTP/1.1\r\nX: \xff\xfe\r\n\r\n", ("GET", "/x")),
        ];
        for (head, want) in ok {
            assert_eq!(parse_request_line(head).unwrap(), want, "{head:?}");
        }
    }

    #[test]
    fn malformed_request_lines_are_errors() {
        for head in [
            &b""[..],
            b"\r\n\r\n",
            b"   \r\n",
            b"GET",
            b"GET /metrics",
            b"GET /metrics\r\nHTTP/1.1\r\n",
            b"GET /metrics HTP/1.1",
            b"GET /m\xff HTTP/1.1\r\n",
            b"\xc3\x28 / HTTP/1.1",
        ] {
            let err = parse_request_line(head).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{head:?}");
        }
    }

    /// Request-line fragments: methods, paths, versions (some truncated),
    /// separators and bytes that are not UTF-8.
    const TOKENS: &[&[u8]] = &[
        b"GET",
        b"POST",
        b"get",
        b"/",
        b"/metrics",
        b"/trace.json",
        b"HTTP/1.1",
        b"HTTP/",
        b"HTTP",
        b"HTP/1.1",
        b" ",
        b"  ",
        b"\t",
        b"\r",
        b"\n",
        b"\r\n",
        b"\r\n\r\n",
        b"\xff",
        b"\xc3",
        b"\xe2\x82",
        b"\xf0\x9f\x98\x80",
        b"\0",
        b"%20",
        b"?q=1",
    ];

    /// What an accepted head must satisfy: two nonblank fields taken
    /// from the first line.
    fn check(head: &[u8]) {
        if let Ok((method, path)) = parse_request_line(head) {
            for field in [method, path] {
                assert!(!field.is_empty() && !field.contains(char::is_whitespace));
            }
            assert!(!method.contains('\n') && !path.contains('\n'));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn request_line_parse_never_panics_on_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            check(&bytes);
        }

        #[test]
        fn request_line_parse_never_panics_on_token_soup(
            picks in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..48),
        ) {
            let head: Vec<u8> = picks.iter().flat_map(|&i| TOKENS[i % TOKENS.len()]).copied().collect();
            check(&head);
        }
    }

    #[test]
    fn disabled_handle_refuses_to_serve() {
        let t = Telemetry::disabled();
        let err = t.serve("127.0.0.1:0").expect_err("nothing to serve");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }
}
