//! A minimal Rust tokenizer: just enough structure for flowcheck's two
//! rule engines.
//!
//! The analyzer deliberately avoids a full parser (and any external
//! parsing crate): both rules are expressible over a token stream plus a
//! brace-matched outline of `fn` items, and a hand-rolled lexer keeps the
//! tool dependency-free so it builds in hermetic CI environments.
//!
//! Comments and string/char literals are stripped (tokens never come from
//! inside them), but `// flowcheck: exempt(<reason>)` markers are captured
//! with their line numbers so the mediation engine can match exemptions
//! to the handler they annotate.

/// One lexical token with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub line: u32,
}

/// An `// flowcheck: exempt(<reason>)` marker found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExemptMarker {
    pub line: u32,
    pub reason: String,
}

/// The lexed form of one source file.
#[derive(Debug, Clone)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub markers: Vec<ExemptMarker>,
}

/// Tokenizes Rust source. Identifiers (including keywords) and integer
/// literals become single tokens; every punctuation character is its own
/// token (`::` is two `:` tokens). Lifetimes lex as `'` followed by the
/// identifier, which no rule pattern matches, so they are inert.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut markers = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let comment = &src[start..i];
                if let Some(m) = parse_marker(comment, line) {
                    markers.push(m);
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                // r"..." or r#"..."# (any number of #).
                let mut j = i + 1;
                let mut hashes = 0;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                loop {
                    if j >= bytes.len() {
                        break;
                    }
                    if bytes[j] == b'\n' {
                        line += 1;
                        j += 1;
                        continue;
                    }
                    if bytes[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime is `'` + ident not
                // followed by a closing quote; a char literal always closes.
                if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    // Escaped char literal: skip to closing quote.
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    i += 3; // simple char literal 'x'
                } else {
                    // Lifetime: emit the quote, let the ident lex normally.
                    push(&mut tokens, "'", line);
                    i += 1;
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                push(&mut tokens, &src[start..i], line);
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    // Stop a float's trailing `.` from eating a method call
                    // like `1.max(2)`.
                    if bytes[i] == b'.' && i + 1 < bytes.len() && !bytes[i + 1].is_ascii_digit() {
                        break;
                    }
                    i += 1;
                }
                push(&mut tokens, &src[start..i], line);
            }
            _ => {
                push(&mut tokens, &src[i..i + 1], line);
                i += 1;
            }
        }
    }

    Lexed { tokens, markers }
}

fn push(tokens: &mut Vec<Token>, text: &str, line: u32) {
    tokens.push(Token {
        text: text.to_string(),
        line,
    });
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"` or `r#...#"`, but not an identifier like `rng` or `r#keyword`.
    let mut j = i + 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    // `r#ident` (raw identifier) has an alphabetic after exactly one `#`;
    // a raw string always has a quote after the hashes.
    j < bytes.len() && bytes[j] == b'"'
}

/// Parses `// flowcheck: exempt(<reason>)` out of a line comment.
fn parse_marker(comment: &str, line: u32) -> Option<ExemptMarker> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("flowcheck:")?.trim();
    let rest = rest.strip_prefix("exempt(")?;
    let reason = rest.strip_suffix(')')?.trim();
    if reason.is_empty() {
        return None;
    }
    Some(ExemptMarker {
        line,
        reason: reason.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_and_punct() {
        let l = lex("self.objects.get(&id)");
        let texts: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["self", ".", "objects", ".", "get", "(", "&", "id", ")"]
        );
    }

    #[test]
    fn strips_comments_and_strings() {
        let l = lex("let x = \"HashMap.iter()\"; // HashMap\n/* iter */ y");
        let texts: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", ";", "y"]);
        assert!(l.markers.is_empty());
    }

    #[test]
    fn captures_exempt_markers() {
        let l = lex("a\n// flowcheck: exempt(self-only metadata)\nb");
        assert_eq!(l.markers.len(), 1);
        assert_eq!(l.markers[0].line, 2);
        assert_eq!(l.markers[0].reason, "self-only metadata");
    }

    #[test]
    fn tracks_lines() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let l = lex("r#\"HashMap\"# fn f<'a>(x: &'a str) {}");
        let texts: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(!texts.contains(&"HashMap"));
        assert!(texts.contains(&"fn"));
    }
}
