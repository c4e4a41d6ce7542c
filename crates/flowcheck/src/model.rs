//! A lexed source file with its `#[cfg(test)] mod … { … }` blocks masked.
//!
//! Test modules are the *observers* of the system, not part of it — a
//! test may read any thread's label off the kernel — so the rule engines
//! analyze only non-test code.

use crate::lex::Token;

/// A lexed file, as consumed by the rule engines.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path as reported in diagnostics (repo-relative in repo mode).
    pub path: String,
    pub tokens: Vec<Token>,
    /// Token ranges belonging to `#[cfg(test)]` modules; indices inside
    /// any of these ranges are skipped by the engines.
    pub test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let tokens = crate::lex::lex(src);
        let test_ranges = find_test_ranges(&tokens);
        SourceFile {
            path: path.to_string(),
            tokens,
            test_ranges,
        }
    }

    pub fn in_test_range(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx < b)
    }
}

/// Finds the matching `}` for the `{` at `open`.
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    debug_assert_eq!(tokens[open].text, "{");
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len() - 1
}

fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // `# [ cfg ( test ) ] mod NAME {`
        if tokens[i].text == "#"
            && matches_seq(tokens, i + 1, &["[", "cfg", "(", "test", ")", "]", "mod"])
        {
            // Skip to the module's opening brace.
            let mut j = i + 8; // past `mod`, at NAME
            while j < tokens.len() && tokens[j].text != "{" {
                j += 1;
            }
            if j < tokens.len() {
                let close = match_brace(tokens, j);
                out.push((i, close + 1));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// True if `tokens[start..]` begins with exactly `texts`.
pub fn matches_seq(tokens: &[Token], start: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| tokens.get(start + k).map(|t| t.text.as_str()) == Some(*want))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn helper() { } }";
        let f = SourceFile::parse("x.rs", src);
        let live: Vec<&str> = (0..f.tokens.len())
            .filter(|&i| !f.in_test_range(i))
            .map(|i| f.tokens[i].text.as_str())
            .collect();
        assert_eq!(live, ["fn", "live", "(", ")", "{", "}"]);
    }
}
