//! Plain-text and CSV table output for experiment results.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use metis_telemetry::Snapshot;

/// A rectangular results table: one row per x-axis point, one column per
/// series — mirroring how the paper's figures are plotted.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table caption (e.g. `"Fig. 3a — service profit (SUB-B4)"`).
    pub title: String,
    /// Column headers; the first column is the x-axis.
    pub columns: Vec<String>,
    /// Row-major cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    out.push_str("  ");
                }
                first = false;
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&mut out, &self.columns);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders RFC-4180-ish CSV (no quoting needed for numeric cells).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV next to the other results.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: impl AsRef<Path>, name: &str) -> io::Result<()> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        fs::write(dir.join(name), self.to_csv())
    }
}

/// Builds the per-phase wall-clock table from a telemetry snapshot's
/// span aggregates — the drivers' replacement for ad-hoc
/// `Instant::now()` bookkeeping: whatever ran under a span shows up
/// here with call counts and total/mean/min/max durations.
pub fn phase_timing_table(snapshot: &Snapshot) -> Table {
    let mut t = Table::new(
        "Per-phase wall clock (telemetry spans)",
        &["span", "calls", "total ms", "mean us", "min us", "max us"],
    );
    for span in &snapshot.spans {
        let mean_us = if span.count == 0 {
            0.0
        } else {
            span.total_us as f64 / span.count as f64
        };
        t.push_row(vec![
            span.name.clone(),
            span.count.to_string(),
            f2(span.total_us as f64 / 1_000.0),
            f2(mean_us),
            span.min_us.to_string(),
            span.max_us.to_string(),
        ]);
    }
    t
}

/// Builds the LP-engine work table from a telemetry snapshot: pivot
/// counts and basis-factorization activity (refactorizations, eta
/// updates, factor nonzeros), as recorded by the `lp.*` counters and
/// gauges.
pub fn lp_stats_table(snapshot: &Snapshot) -> Table {
    use metis_telemetry::names;
    let mut t = Table::new("LP engine (telemetry counters)", &["metric", "value"]);
    let counters: [(&str, &str); 7] = [
        ("simplex pivots", names::LP_SIMPLEX_ITERATIONS),
        ("phase-1 pivots", names::LP_SIMPLEX_PHASE1),
        ("dual pivots", names::LP_SIMPLEX_DUAL),
        ("bound flips", names::LP_SIMPLEX_BOUND_FLIPS),
        ("replayed pivots", names::LP_SIMPLEX_REPLAYED),
        ("refactorizations", names::LP_SIMPLEX_REFRESHES),
        ("eta updates", names::LP_LU_ETA_UPDATES),
    ];
    for (label, name) in counters {
        t.push_row(vec![label.to_string(), snapshot.counter(name).to_string()]);
    }
    for (label, name) in [
        ("last L nnz", names::LP_LU_L_NNZ),
        ("last U nnz", names::LP_LU_U_NNZ),
    ] {
        if let Some(v) = snapshot.gauge(name) {
            t.push_row(vec![label.to_string(), format!("{v:.0}")]);
        }
    }
    t
}

/// Builds the solver convergence table from a run's round trace: one
/// row per attempted solver invocation, showing how the profit record
/// evolved, how hard each LP worked, and which attempts degraded.
pub fn convergence_table(trace: &[metis_core::RoundTrace]) -> Table {
    let mut t = Table::new(
        "Solver convergence (round trace)",
        &[
            "round",
            "phase",
            "status",
            "profit",
            "best",
            "accepted",
            "mu",
            "lp iters",
            "basis",
            "incidents",
        ],
    );
    for e in trace {
        t.push_row(vec![
            e.round.to_string(),
            e.phase.to_string(),
            if e.completed { "ok" } else { "failed" }.to_string(),
            f2(e.profit),
            f2(e.best_profit),
            e.accepted.to_string(),
            e.mu.map_or_else(|| "-".to_string(), f3),
            e.lp_iterations.to_string(),
            if e.warm_started { "warm" } else { "cold" }.to_string(),
            e.incidents.to_string(),
        ]);
    }
    t
}

/// Formats a float with two decimals (the tables' default precision).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with three decimals (for ratios).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Mean of a slice (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Maximum of a slice (NaN-free input assumed; 0 for empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().fold(0.0_f64, |a, &b| a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("demo", &["K", "metis", "opt"]);
        t.push_row(vec!["100".into(), f2(7.25), f2(8.5)]);
        t.push_row(vec!["200".into(), f2(43.8), f2(50.0)]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("7.25"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("K,metis,opt"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn phase_table_reads_span_aggregates() {
        let tele = metis_telemetry::Telemetry::enabled();
        {
            let _outer = tele.span("experiment");
            let _inner = tele.span("experiment.solve");
        }
        let snap = tele.snapshot().expect("enabled handle snapshots");
        let t = phase_timing_table(&snap);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().any(|r| r[0] == "experiment.solve"));
        assert!(t.rows.iter().all(|r| r[1] == "1"));
        assert!(t.render().contains("total ms"));
    }

    #[test]
    fn convergence_table_renders_trace() {
        use metis_core::{Phase, RoundTrace};
        let trace = vec![
            RoundTrace {
                round: 0,
                phase: Phase::Maa,
                completed: true,
                profit: 10.0,
                best_profit: 10.0,
                accepted: 5,
                mu: None,
                lp_iterations: 42,
                warm_started: false,
                incidents: 0,
            },
            RoundTrace {
                round: 1,
                phase: Phase::Taa,
                completed: false,
                profit: 0.0,
                best_profit: 10.0,
                accepted: 0,
                mu: Some(0.5),
                lp_iterations: 0,
                warm_started: true,
                incidents: 1,
            },
        ];
        let t = convergence_table(&trace);
        assert_eq!(t.rows.len(), 2);
        let r = t.render();
        assert!(r.contains("MAA") && r.contains("TAA"));
        assert!(r.contains("failed"));
        assert!(r.contains("0.500"));
        assert!(t.rows[0].contains(&"-".to_string()), "MAA row has no mu");
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(f3(1.0 / 3.0), "0.333");
    }
}
