//! A comment/string-blanking scanner over Rust source.
//!
//! dlint does not parse Rust; it lexes just enough to (a) blank out comments,
//! string literals and char literals so token rules never fire on prose, (b)
//! locate the file's trailing `#[cfg(test)]` region, and (c) collect inline
//! `// dlint::allow(Dxx): reason` suppression directives. Newlines are
//! preserved, so findings carry exact 1-based line numbers.

/// One parsed `dlint::allow` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule code the directive names, e.g. `"D03"`.
    pub code: String,
    /// The mandatory justification after the colon (may be empty — that is
    /// itself a finding, rule D11).
    pub reason: String,
    /// 1-based line the directive is written on.
    pub directive_line: usize,
}

/// A scanned source file: blanked lines, test-region boundary, suppressions.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Source lines with comments, strings and char literals blanked to
    /// spaces. Same line count and (per line) same byte layout as the input.
    pub lines: Vec<String>,
    /// Original source lines (directives live in comments, so raw text is
    /// kept for reporting).
    pub raw_lines: Vec<String>,
    /// 0-based index of the first line of the `#[cfg(test)]` region, if any.
    /// Everything at or after this line is test code. `Some(0)` marks a file
    /// that is test code in its entirety (anything under a `tests/` dir).
    pub test_from: Option<usize>,
    /// Per-line active suppressions (0-based line index → directives that
    /// apply to that line).
    suppressions: Vec<Vec<Suppression>>,
    /// Every directive in the file, whether or not it shields a finding.
    pub directives: Vec<Suppression>,
}

impl ScannedFile {
    /// Scans `source`, blanking non-code text and collecting directives.
    pub fn scan(path: &str, source: &str) -> ScannedFile {
        let blanked = blank_non_code(source);
        let lines: Vec<String> = split_lines(&blanked);
        let raw_lines: Vec<String> = split_lines(source);
        let whole_file_is_test = path_is_test(path);

        let mut test_from = whole_file_is_test.then_some(0);
        if test_from.is_none() {
            for (i, line) in lines.iter().enumerate() {
                if line.starts_with('#') && line.trim_end() == "#[cfg(test)]" {
                    test_from = Some(i);
                    break;
                }
            }
        }

        let mut suppressions: Vec<Vec<Suppression>> = vec![Vec::new(); raw_lines.len()];
        let mut directives = Vec::new();
        for (i, raw) in raw_lines.iter().enumerate() {
            let Some((code, reason, comment_only)) = parse_directive(raw) else {
                continue;
            };
            let sup = Suppression {
                code,
                reason,
                directive_line: i + 1,
            };
            directives.push(sup.clone());
            // A directive on a code line shields that line; a directive on a
            // comment-only line shields the next line.
            let target = if comment_only { i + 1 } else { i };
            if target < suppressions.len() {
                suppressions[target].push(sup);
            }
        }

        ScannedFile {
            path: path.to_string(),
            lines,
            raw_lines,
            test_from,
            suppressions,
            directives,
        }
    }

    /// Whether 0-based line `idx` lies in the test region.
    pub fn is_test_line(&self, idx: usize) -> bool {
        self.test_from.is_some_and(|t| idx >= t)
    }

    /// The suppression shielding rule `code` on 0-based line `idx`, if any.
    pub fn suppression(&self, idx: usize, code: &str) -> Option<&Suppression> {
        self.suppressions
            .get(idx)
            .and_then(|v| v.iter().find(|s| s.code == code))
    }
}

/// True for paths whose every line counts as test code.
fn path_is_test(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

fn split_lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

/// Parses a `// dlint::allow(Dxx): reason` directive out of a raw line.
///
/// Returns `(code, reason, comment_only)`; `comment_only` is true when the
/// line holds nothing but the comment (so the directive targets the next
/// line).
fn parse_directive(raw: &str) -> Option<(String, String, bool)> {
    let comment = raw.find("//")?;
    let pos = raw.find("dlint::allow(")?;
    if pos < comment {
        return None; // `dlint::allow(` in actual code, not a directive
    }
    let rest = &raw[pos + "dlint::allow(".len()..];
    let close = rest.find(')')?;
    let code = rest[..close].trim().to_string();
    // Only well-formed `Dnn` codes register as directives; anything else
    // (e.g. `Dxx` in prose describing the syntax) is not a directive at all.
    // Misspelled-but-well-formed codes still reach the D11 catalog check.
    let mut chars = code.chars();
    if chars.next() != Some('D') || code.len() != 3 || !chars.all(|c| c.is_ascii_digit()) {
        return None;
    }
    let after = rest[close + 1..].trim_start();
    let reason = after
        .strip_prefix(':')
        .map_or(String::new(), |r| r.trim().to_string());
    let comment_only = raw[..comment].trim().is_empty();
    Some((code, reason, comment_only))
}

/// Replaces comments, string literals and char literals with spaces,
/// preserving newlines and line lengths.
// One state machine, one state per lexical mode: splitting it would
// scatter the mode transitions the correctness argument hangs on.
#[allow(clippy::too_many_lines)]
fn blank_non_code(source: &str) -> String {
    enum Mode {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        CharLit,
    }
    let b: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            if matches!(mode, Mode::LineComment) {
                mode = Mode::Code;
            }
            out.push('\n');
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = b.get(i + 1).copied();
                let prev_is_ident = i > 0 && is_ident(b[i - 1]);
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                } else if !prev_is_ident && (c == 'r' || (c == 'b' && next == Some('r'))) {
                    // Possible raw string: r"…", r#"…"#, br"…", br#"…"#.
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    let mut hashes = 0usize;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else if c == '"' {
                    mode = Mode::Str;
                    out.push(' ');
                    i += 1;
                } else if c == '\'' {
                    // Lifetime (`'a`, `'static`) vs char literal (`'a'`,
                    // `'\n'`): a lifetime is `'` + ident char not followed by
                    // a closing quote.
                    let is_lifetime = next.is_some_and(|n| is_ident(n) && n != '\\')
                        && b.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        out.push('\'');
                    } else {
                        mode = Mode::CharLit;
                        out.push(' ');
                    }
                    i += 1;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                out.push(' ');
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = b.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    out.push_str("  ");
                    i += 2;
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                } else if c == '/' && next == Some('*') {
                    out.push_str("  ");
                    i += 2;
                    mode = Mode::BlockComment(depth + 1);
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::Str | Mode::CharLit => {
                let closing = if matches!(mode, Mode::Str) { '"' } else { '\'' };
                if c == '\\' {
                    out.push(' ');
                    if b.get(i + 1).is_some_and(|&n| n != '\n') {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == closing {
                    out.push(' ');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && (1..=hashes).all(|k| b.get(i + k) == Some(&'#')) {
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    mode = Mode::Code;
                    i += 1 + hashes;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out
}

/// True for characters that may appear in a Rust identifier.
pub fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets at which `token` occurs in `line` with non-identifier
/// characters (or boundaries) on both sides. `token` itself may contain
/// punctuation (`Instant::now`); only its first and last characters are
/// boundary-checked.
pub fn token_positions(line: &str, token: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(token) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(line[..at].chars().next_back().unwrap_or(' '));
        let after = line[at + token.len()..].chars().next().unwrap_or(' ');
        let first = token.chars().next().unwrap_or(' ');
        let before_applies = !is_ident(first) || before_ok;
        let last = token.chars().next_back().unwrap_or(' ');
        let after_applies = !is_ident(last) || !is_ident(after);
        if before_applies && after_applies {
            found.push(at);
        }
        from = at + token.len();
    }
    found
}

/// True when `token` occurs in `line` at an identifier boundary.
pub fn has_token(line: &str, token: &str) -> bool {
    !token_positions(line, token).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_and_block_comments() {
        let s = ScannedFile::scan(
            "x.rs",
            "let a = 1; // HashMap here\n/* HashMap */ let b = 2;\n",
        );
        assert!(!s.lines[0].contains("HashMap"));
        assert!(!s.lines[1].contains("HashMap"));
        assert!(s.lines[0].contains("let a = 1;"));
        assert!(s.lines[1].contains("let b = 2;"));
    }

    #[test]
    fn blanks_nested_block_comments() {
        let s = ScannedFile::scan("x.rs", "/* outer /* HashMap */ still */ let x = 3;\n");
        assert!(!s.lines[0].contains("HashMap"));
        assert!(!s.lines[0].contains("still"));
        assert!(s.lines[0].contains("let x = 3;"));
    }

    #[test]
    fn blanks_strings_and_chars_but_not_lifetimes() {
        let s = ScannedFile::scan(
            "x.rs",
            "fn f<'a>(x: &'a str) -> char { let c = 'x'; let s = \"HashMap 'y'\"; c }\n",
        );
        assert!(s.lines[0].contains("fn f<'a>(x: &'a str)"));
        assert!(!s.lines[0].contains("HashMap"));
        assert!(!s.lines[0].contains('x') || !s.lines[0].contains("'x'"));
    }

    #[test]
    fn blanks_raw_strings() {
        let s = ScannedFile::scan("x.rs", "let r = r#\"HashMap \"inner\" \"#; let y = r;\n");
        assert!(!s.lines[0].contains("HashMap"));
        assert!(s.lines[0].contains("let y = r;"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let s = ScannedFile::scan("x.rs", "let s = \"a\\\"HashMap\"; let t = 1;\n");
        assert!(!s.lines[0].contains("HashMap"));
        assert!(s.lines[0].contains("let t = 1;"));
    }

    #[test]
    fn finds_test_region_at_column_zero() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn b() {} }\n";
        let s = ScannedFile::scan("crates/x/src/l.rs", src);
        assert_eq!(s.test_from, Some(1));
        assert!(!s.is_test_line(0));
        assert!(s.is_test_line(2));
    }

    #[test]
    fn tests_dir_is_all_test_region() {
        let s = ScannedFile::scan("crates/x/tests/t.rs", "fn a() {}\n");
        assert_eq!(s.test_from, Some(0));
    }

    #[test]
    fn directive_on_code_line_targets_that_line() {
        let src = "let x = now(); // dlint::allow(D03): sanctioned timer\n";
        let s = ScannedFile::scan("x.rs", src);
        let sup = s.suppression(0, "D03").expect("directive applies");
        assert_eq!(sup.reason, "sanctioned timer");
    }

    #[test]
    fn directive_on_comment_line_targets_next_line() {
        let src = "// dlint::allow(D03): sanctioned timer\nlet x = now();\n";
        let s = ScannedFile::scan("x.rs", src);
        assert!(s.suppression(0, "D03").is_none());
        assert!(s.suppression(1, "D03").is_some());
    }

    #[test]
    fn directive_with_empty_reason_is_recorded() {
        let src = "// dlint::allow(D05)\nlet x = 1;\n";
        let s = ScannedFile::scan("x.rs", src);
        assert_eq!(s.directives.len(), 1);
        assert!(s.directives[0].reason.is_empty());
    }

    #[test]
    fn token_positions_respect_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("let par_map_reduce = 1;", "par_map"));
        assert!(has_token("par_map(xs, f)", "par_map"));
        assert!(has_token("t = Instant::now();", "Instant::now"));
        assert!(!has_token("t = MyInstant::nowish();", "Instant::now"));
    }

    #[test]
    fn token_positions_lists_every_bounded_offset() {
        let line = "par_map(a); xpar_map(b); par_map(c)";
        assert_eq!(token_positions(line, "par_map"), vec![0, 25]);
        // Punctuation at a token's edge needs no boundary on that side.
        assert_eq!(
            token_positions("a.unwrap().unwrap()", ".unwrap()"),
            vec![1, 10]
        );
        assert!(token_positions("", "x").is_empty());
        assert!(is_ident('_') && is_ident('7') && !is_ident(':') && !is_ident('é'));
    }

    #[test]
    fn only_a_bare_column_zero_cfg_test_opens_the_test_region() {
        for src in [
            "mod m {\n    #[cfg(test)]\n    fn t() {}\n}\n",
            "#[cfg(test)] fn t() {}\n",
            "const S: &str = \"\n#[cfg(test)]\n\";\n",
        ] {
            assert_eq!(
                ScannedFile::scan("crates/x/src/l.rs", src).test_from,
                None,
                "{src}"
            );
        }
        let s = ScannedFile::scan("crates/x/src/tests.rs", "fn a() {}\n");
        assert_eq!(
            s.test_from, None,
            "a file named tests.rs is not a tests/ dir"
        );
        assert!(!s.is_test_line(0));
    }

    #[test]
    fn only_well_formed_codes_in_comments_are_directives() {
        let src = "let x = dlint::allow(D03); // no\n\
                   // dlint::allow(Dxx): prose\n\
                   // dlint::allow(D3): short\n\
                   // dlint::allow( D07 ) : spaced\n\
                   let y = 2;\n\
                   // dlint::allow(D09): last line\n";
        let s = ScannedFile::scan("x.rs", src);
        let codes: Vec<&str> = s.directives.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["D07", "D09"]);
        assert_eq!(s.directives[0].reason, "spaced");
        assert_eq!(s.directives[1].directive_line, 6);
        assert!(s.suppression(4, "D07").is_some());
        assert!(s.suppression(4, "D03").is_none());
        assert!(
            s.suppression(6, "D09").is_none(),
            "nothing follows the last line"
        );
    }
}
