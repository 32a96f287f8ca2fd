//! Light-weight Rust source masking and `audit:allow` directive extraction.
//!
//! The auditor is a *token-level* scanner, not a parser: rules match
//! identifiers and short token sequences in source text. For that to be
//! sound the text must first be stripped of the places where a matching
//! token is *not* code — comments, string literals and char literals. The
//! masking below replaces those regions with spaces **in place**, so byte
//! offsets and line numbers of the surviving code are unchanged.
//!
//! Handled syntax: `//` line comments, nested `/* */` block comments,
//! `"..."` strings with escapes, raw strings (`r"..."`, `r#"..."#`, any
//! hash depth), byte/raw-byte strings, char literals (including escaped
//! ones) and lifetimes (`'a` is *not* a char literal). This covers the
//! subset of Rust the workspace actually uses; exotic forms degrade to
//! over-masking at worst, which only makes the scanner more conservative.

/// One `// audit:allow(rule): reason` suppression directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The rule the directive suppresses.
    pub rule: String,
    /// The justification after the colon (trimmed; may be empty, which the
    /// caller reports as a malformed directive).
    pub reason: String,
    /// 1-based source line the directive appears on.
    pub line: usize,
}

/// Returns `source` with comments and string/char literal contents
/// replaced by spaces, so `"HashMap"` in a message never trips a rule.
/// Newlines inside erased regions are preserved so the result has
/// identical line structure.
pub fn mask(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = bytes.to_vec();
    let mut i = 0usize;

    // Blanks `out[from..to]`, preserving newlines.
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                blank(&mut out, start, i);
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let start = i;
                i = skip_raw_string(bytes, i);
                blank(&mut out, start, i);
            }
            b'b' if i + 1 < bytes.len() && bytes[i + 1] == b'"' => {
                let start = i;
                i = skip_quoted(bytes, i + 1);
                blank(&mut out, start, i);
            }
            b'"' => {
                let start = i;
                i = skip_quoted(bytes, i);
                blank(&mut out, start, i);
            }
            b'\'' => {
                // Distinguish a char literal from a lifetime: a lifetime is
                // `'ident` NOT followed by a closing quote.
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1; // lifetime: skip just the quote
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("masking preserves UTF-8 (erased bytes are ASCII)")
}

/// Whether position `i` starts a raw (possibly byte) string: `r"`, `r#`,
/// `br"`, `br#`.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let j = if bytes[i] == b'b' { i + 1 } else { i };
    if j >= bytes.len() || bytes[j] != b'r' {
        return false;
    }
    let mut k = j + 1;
    while k < bytes.len() && bytes[k] == b'#' {
        k += 1;
    }
    k < bytes.len() && bytes[k] == b'"'
}

/// Skips a raw string starting at `i`; returns the index just past it.
fn skip_raw_string(bytes: &[u8], i: usize) -> usize {
    let mut j = if bytes[i] == b'b' { i + 1 } else { i };
    j += 1; // past 'r'
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // past the opening quote
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    bytes.len()
}

/// Skips a `"..."` literal starting at the opening quote index; returns the
/// index just past the closing quote.
fn skip_quoted(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// If a char literal starts at `i` (an apostrophe), returns the index just
/// past its closing quote; `None` for lifetimes.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= bytes.len() {
        return None;
    }
    if bytes[j] == b'\\' {
        // Escaped char: skip the escape, then scan to the closing quote
        // (covers '\n', '\'', '\u{1F600}').
        j += 2;
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return (j < bytes.len()).then_some(j + 1);
    }
    // Unescaped: a char literal is exactly one character then a quote. A
    // lifetime ('a, 'static) has an identifier char NOT followed by a quote.
    let ch_len = utf8_len(bytes[j]);
    let close = j + ch_len;
    if close < bytes.len() && bytes[close] == b'\'' {
        Some(close + 1)
    } else {
        None
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Extracts every `audit:allow(rule): reason` directive from the raw
/// source. Directives must live in a `//` line comment; the reason is
/// whatever follows the first colon after the closing parenthesis. A
/// directive that opens a standalone comment continues onto the non-empty
/// plain `//` comment lines right below it, which are appended to the
/// reason.
pub fn allow_directives(source: &str) -> Vec<AllowDirective> {
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let Some(comment_at) = raw.find("//") else {
            continue;
        };
        let comment = &raw[comment_at..];
        let Some(marker) = comment.find("audit:allow(") else {
            continue;
        };
        let rest = &comment[marker + "audit:allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.push(AllowDirective {
                rule: String::new(),
                reason: String::new(),
                line: idx + 1,
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = &rest[close + 1..];
        let mut reason = after
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        if !reason.is_empty() && raw[..comment_at].trim().is_empty() {
            for next in &lines[idx + 1..] {
                let Some(text) = next.trim_start().strip_prefix("//") else {
                    break;
                };
                let text = text.trim();
                if text.is_empty() || text.starts_with(['/', '!']) || text.contains("audit:allow(")
                {
                    break;
                }
                reason.push(' ');
                reason.push_str(text);
            }
        }
        out.push(AllowDirective {
            rule,
            reason,
            line: idx + 1,
        });
    }
    out
}

/// Whether `haystack` contains `needle` as a standalone identifier (no
/// identifier character on either side).
pub fn contains_identifier(haystack: &str, needle: &str) -> bool {
    let mut from = 0usize;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = at + needle.len();
        let after_ok = end >= haystack.len()
            || !haystack[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let a = 1; // HashMap here\nlet b = \"HashMap\"; /* SystemTime */ let c = 2;";
        let masked = mask(src);
        assert!(!masked.contains("HashMap"));
        assert!(!masked.contains("SystemTime"));
        assert!(masked.contains("let a = 1;"));
        assert!(masked.contains("let c = 2;"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let src = "/* a /* b */ HashMap */ let r = r#\"HashSet\"#;";
        let masked = mask(src);
        assert!(!masked.contains("HashMap"));
        assert!(!masked.contains("HashSet"));
        assert!(masked.contains("let r ="));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let masked = mask(src);
        assert!(masked.contains("&'a str"));
        assert!(!masked.contains("'x'"));
    }

    #[test]
    fn directives_parse_rule_and_reason() {
        let src = "let m = HashMap::new(); // audit:allow(unordered_collection): keyed lookups only\n// audit:allow(wall_clock):\n";
        let ds = allow_directives(src);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].rule, "unordered_collection");
        assert_eq!(ds[0].reason, "keyed lookups only");
        assert_eq!(ds[0].line, 1);
        assert_eq!(ds[1].rule, "wall_clock");
        assert_eq!(ds[1].reason, "");
    }

    #[test]
    fn standalone_directives_continue_onto_following_comment_lines() {
        let src = "    // audit:allow(unordered_collection): drained via sort_by with an\n    \
                   // explicit tie-break below\n    let m = HashMap::new();\n\
                   let s = HashSet::new(); // audit:allow(unordered_collection): cardinality\n\
                   // unrelated note\n";
        let ds = allow_directives(src);
        assert_eq!(ds.len(), 2);
        assert_eq!(
            ds[0].reason,
            "drained via sort_by with an explicit tie-break below"
        );
        assert_eq!(ds[0].line, 1);
        // A trailing directive ends on its own line.
        assert_eq!(ds[1].reason, "cardinality");
    }

    #[test]
    fn identifier_matching_respects_boundaries() {
        assert!(contains_identifier("let m: HashMap<u32, u32>;", "HashMap"));
        assert!(!contains_identifier("let m: MyHashMapLike;", "HashMap"));
        assert!(!contains_identifier("let hashmap = 1;", "HashMap"));
    }
}
