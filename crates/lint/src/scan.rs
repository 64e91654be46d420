//! A comment- and literal-aware view of one Rust source file: just
//! enough lexing for the doc-drift checks ([`crate::artifacts`]) and the
//! two line checks ([`crate::checks`]), so neither matches prose or the
//! contents of a string.

/// One source file, split into what the checks read.
#[derive(Clone, Debug, Default)]
pub struct Scan {
    /// The source with every comment and every string, char and byte
    /// literal blanked to spaces. Newlines are kept, so a line of `code`
    /// is the same line of the source.
    pub code: String,
    /// String-literal contents (escapes left as written) with the
    /// 1-based line each literal opens on, in source order.
    pub strings: Vec<(u32, String)>,
    /// Rustdoc comment text (`///`, `//!`, `/** */`, `/*! */`).
    pub docs: Vec<String>,
    /// Plain comment text with the 1-based line the comment ends on.
    pub comments: Vec<(u32, String)>,
}

/// Whether `c` can continue an identifier or a number.
pub(crate) fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src`. Never fails: an unterminated comment or literal runs to
/// the end of the file.
pub fn scan(src: &str) -> Scan {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Scan::default();
    let mut line = 1u32;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        let after_word = i > 0 && is_word_char(chars[i - 1]);
        // (end of the blanked span, what it was)
        let (end, piece) = if c == '/' && next == Some('/') {
            let end = (i..chars.len())
                .find(|&j| chars[j] == '\n')
                .unwrap_or(chars.len());
            let text: String = chars[i + 2..end].iter().collect();
            let doc = (text.starts_with('/') && !text.starts_with("//")) || text.starts_with('!');
            (end, Some((doc, text)))
        } else if c == '/' && next == Some('*') {
            let (mut j, mut depth) = (i + 2, 1usize);
            while j < chars.len() && depth > 0 {
                match (chars[j], chars.get(j + 1)) {
                    ('/', Some('*')) => (depth, j) = (depth + 1, j + 2),
                    ('*', Some('/')) => (depth, j) = (depth - 1, j + 2),
                    _ => j += 1,
                }
            }
            let body_end = if depth == 0 { j - 2 } else { j };
            let text: String = chars[i + 2..body_end.max(i + 2)].iter().collect();
            let doc = (text.starts_with('*') && !text.starts_with("**") && !text.is_empty())
                || text.starts_with('!');
            (j, Some((doc, text)))
        } else if let Some((open, hashes)) = raw_string_start(&chars, i).filter(|_| !after_word) {
            let close = (open + 1..chars.len())
                .find(|&j| chars[j] == '"' && (1..=hashes).all(|h| chars.get(j + h) == Some(&'#')));
            let end = close.map_or(chars.len(), |j| j + 1 + hashes);
            let body_end = close.unwrap_or(chars.len());
            out.strings
                .push((line, chars[open + 1..body_end].iter().collect()));
            (end, None)
        } else if c == '"' || (c == 'b' && next == Some('"') && !after_word) {
            let open = if c == 'b' { i + 1 } else { i };
            let mut j = open + 1;
            while j < chars.len() && chars[j] != '"' {
                j += if chars[j] == '\\' { 2 } else { 1 };
            }
            let body_end = j.min(chars.len());
            out.strings
                .push((line, chars[open + 1..body_end].iter().collect()));
            ((j + 1).min(chars.len()), None)
        } else if c == '\'' && next == Some('\\') {
            // An escaped char literal: `'\n'`, `'\''`, `'\u{1F600}'`.
            let end = (i + 3..chars.len())
                .find(|&j| chars[j] == '\'')
                .map_or(chars.len(), |j| j + 1);
            (end, None)
        } else if c == '\'' && chars.get(i + 2) == Some(&'\'') {
            (i + 3, None)
        } else {
            // Code, including a lifetime's `'`.
            out.code.push(c);
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        };
        for &b in &chars[i..end] {
            if b == '\n' {
                out.code.push('\n');
                line += 1;
            } else {
                out.code.push(' ');
            }
        }
        match piece {
            // Drop the doc marker (`/`, `!` or `*`).
            Some((true, text)) => out.docs.push(text[1..].to_string()),
            Some((false, text)) => out.comments.push((line, text)),
            None => {}
        }
        i = end;
    }
    out
}

/// At a raw string (`r"…"`, `r#"…"#`, `br"…"`), the index of its opening
/// quote and its number of `#`s. `r#ident` is a raw identifier, not a
/// string.
fn raw_string_start(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let r = match (chars[i], chars.get(i + 1)) {
        ('r', _) => i,
        ('b', Some('r')) => i + 1,
        _ => return None,
    };
    let hashes = chars[r + 1..].iter().take_while(|&&c| c == '#').count();
    (chars.get(r + 1 + hashes) == Some(&'"')).then_some((r + 1 + hashes, hashes))
}

/// Line ranges (1-based, inclusive) of items under a `#[cfg(…)]` that
/// mentions `test`: the attribute's line through the item's closing
/// brace, or its `;` for a brace-less item.
pub(crate) fn test_regions(code: &str) -> Vec<(u32, u32)> {
    let chars: Vec<char> = code.chars().collect();
    let line_at = |pos: usize| 1 + chars[..pos].iter().filter(|&&c| c == '\n').count() as u32;
    let cfg: Vec<char> = "#[cfg(".chars().collect();
    let mut regions = Vec::new();
    for at in 0..chars.len() {
        if !chars[at..].starts_with(&cfg) {
            continue;
        }
        let Some(attr_end) = matching(&chars, at + 1) else {
            break;
        };
        let attr: String = chars[at..attr_end].iter().collect();
        if !attr.split(|c: char| !is_word_char(c)).any(|w| w == "test") {
            continue;
        }
        let mut depth = 0usize;
        let mut end = chars.len().saturating_sub(1);
        for (j, &c) in chars.iter().enumerate().skip(attr_end + 1) {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' => depth = depth.saturating_sub(1),
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                ';' if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
        }
        regions.push((line_at(at), line_at(end)));
    }
    regions
}

/// The index of the bracket closing the one at `open`, counting every
/// bracket kind as one depth (balanced code nests them properly).
pub(crate) fn matching(chars: &[char], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &c) in chars.iter().enumerate().skip(open) {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_literals_are_blanked_line_for_line() {
        let src = "let a = \"x[i + 1]\"; // a[i * 2]\n\
                   /* outer /* nested */ still */ let b = r#\"raw \"q\" [j - 1]\"#;\n\
                   let c = '['; let d = b\"[\"; fn f<'a>(x: &'a [u8]) {}\n\
                   /// Doc `y_i`.\n\
                   //! Inner doc.\n";
        let s = scan(src);
        assert_eq!(s.code.lines().count(), src.lines().count());
        assert!(
            !s.code.contains("x[") && !s.code.contains("raw"),
            "{}",
            s.code
        );
        assert!(!s.code.contains("'['") && !s.code.contains("nested"));
        assert!(s.code.contains("fn f<'a>(x: &'a [u8])"), "{}", s.code);
        let strings: Vec<&str> = s.strings.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(strings, ["x[i + 1]", "raw \"q\" [j - 1]", "["]);
        assert_eq!(s.strings[1].0, 2);
        assert_eq!(s.docs, [" Doc `y_i`.", " Inner doc."]);
        assert_eq!(s.comments[0], (1, " a[i * 2]".to_string()));
        assert!(s.comments[1].1.contains("nested"));
    }

    #[test]
    fn raw_identifiers_and_escapes_are_code() {
        let s = scan("let r#type = 1; let q = \"a\\\"b\"; let n = '\\n'; x[r#type]\n");
        assert!(s.code.contains("r#type"), "{}", s.code);
        assert!(s.code.contains("x[r#type]"), "{}", s.code);
        assert_eq!(s.strings, [(1, "a\\\"b".to_string())]);
    }

    #[test]
    fn cfg_test_items_are_regions() {
        let code = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x[i + 1]; }\n}\n\
                    #[cfg(test)]\n#[allow(dead_code)]\nuse std::rc::Rc;\nfn c() {}\n\
                    #[cfg(feature = \"x\")]\nfn d() {}\n";
        assert_eq!(test_regions(code), [(2, 5), (6, 8)]);
    }
}
