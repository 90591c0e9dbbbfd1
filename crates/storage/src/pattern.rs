//! SQL `LIKE` pattern matching, usable as a streaming storage-side kernel.
//!
//! §3.3 cites Amazon AQUA pushing down the LIKE predicate because pattern
//! matching "has been proven to be more efficient on accelerators than on a
//! CPU". This module implements the matcher both sides use, so offloaded and
//! host execution agree bit-for-bit.
//!
//! Supported metacharacters: `%` (any run, including empty), `_` (exactly
//! one character), and `\` as the escape character.
//!
//! Matching runs on UTF-8 bytes, never on decoded `char`s: a literal
//! character becomes its byte sequence, and `_` consumes one code point (a
//! lead byte plus its continuation bytes). On valid UTF-8 this is exactly
//! character matching — a literal starts with a lead byte, which never
//! equals a continuation byte, so a literal can only match at a character
//! boundary. Columns guarantee valid UTF-8 at every row boundary (the
//! constructors take `&str`, and every decoder checks both the payload and
//! that each offset falls on a character boundary).

/// A compiled LIKE pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikePattern {
    tokens: Vec<Token>,
    /// The source pattern, for display.
    source: String,
}

/// One compiled pattern element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    /// A literal byte (literal characters expand to their UTF-8 bytes).
    Byte(u8),
    /// `_`: exactly one character.
    AnyOne,
    /// `%`: zero or more characters.
    AnyRun,
}

impl LikePattern {
    /// Compile a pattern. Trailing bare escapes are treated as a literal
    /// backslash (matching permissive engine behaviour).
    pub fn compile(pattern: &str) -> LikePattern {
        let mut tokens = Vec::with_capacity(pattern.len());
        let mut chars = pattern.chars();
        let mut utf8 = [0u8; 4];
        while let Some(c) = chars.next() {
            let literal = match c {
                '%' => {
                    // Collapse runs of % (equivalent and cheaper to match).
                    if tokens.last() != Some(&Token::AnyRun) {
                        tokens.push(Token::AnyRun);
                    }
                    continue;
                }
                '_' => {
                    tokens.push(Token::AnyOne);
                    continue;
                }
                '\\' => chars.next().unwrap_or('\\'),
                other => other,
            };
            tokens.extend(literal.encode_utf8(&mut utf8).bytes().map(Token::Byte));
        }
        LikePattern {
            tokens,
            source: pattern.to_string(),
        }
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Whether `input` matches the pattern (anchored at both ends, as SQL
    /// LIKE requires).
    pub fn matches(&self, input: &str) -> bool {
        self.matches_bytes(input.as_bytes())
    }

    /// [`LikePattern::matches`] on the UTF-8 bytes of one value: an
    /// iterative two-pointer algorithm with backtracking over the last `%`,
    /// O(n*m) worst case, O(n) typical, no recursion.
    pub(crate) fn matches_bytes(&self, input: &[u8]) -> bool {
        let (mut ti, mut bi) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None; // (token after %, byte idx)
        while bi < input.len() {
            match self.tokens.get(ti) {
                Some(Token::Byte(p)) if *p == input[bi] => {
                    ti += 1;
                    bi += 1;
                }
                Some(Token::AnyOne) => {
                    ti += 1;
                    bi = next_char(input, bi);
                }
                Some(Token::AnyRun) => {
                    star = Some((ti + 1, bi));
                    ti += 1;
                }
                _ => match star {
                    Some((st, sb)) => {
                        // Let the last % absorb one more character.
                        ti = st;
                        bi = next_char(input, sb);
                        star = Some((st, bi));
                    }
                    None => return false,
                },
            }
        }
        // Remaining tokens must all be %.
        self.tokens[ti..].iter().all(|t| *t == Token::AnyRun)
    }

    /// Whether this pattern is a pure prefix match (`abc%`), which storage
    /// can additionally prune with string zone maps.
    pub fn literal_prefix(&self) -> Option<String> {
        let mut prefix = Vec::new();
        for (i, t) in self.tokens.iter().enumerate() {
            match t {
                Token::Byte(b) => prefix.push(*b),
                Token::AnyRun if i + 1 == self.tokens.len() => {
                    // Whole characters went in, so the bytes are UTF-8.
                    return Some(String::from_utf8_lossy(&prefix).into_owned());
                }
                _ => return None,
            }
        }
        None
    }

    /// The literal bytes of a `%lit%` pattern, which a substring search
    /// answers without the backtracking matcher.
    pub(crate) fn contained_literal(&self) -> Option<Vec<u8>> {
        match self.tokens.as_slice() {
            [Token::AnyRun, inner @ .., Token::AnyRun] if !inner.is_empty() => inner
                .iter()
                .map(|t| match t {
                    Token::Byte(b) => Some(*b),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
}

/// The byte index after the character starting at `i`, read from its lead
/// byte (clamped to the input, so malformed bytes cannot overrun).
#[inline]
fn next_char(input: &[u8], i: usize) -> usize {
    let width = match input[i] {
        0x00..=0x7F => 1,
        0x80..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    };
    (i + width).min(input.len())
}

/// Convenience: compile-and-match in one call (host-side expression path).
pub fn like(input: &str, pattern: &str) -> bool {
    LikePattern::compile(pattern).matches(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_without_metachars() {
        assert!(like("hello", "hello"));
        assert!(!like("hello", "hell"));
        assert!(!like("hell", "hello"));
        assert!(like("", ""));
    }

    #[test]
    fn percent_matches_runs() {
        assert!(like("hello world", "hello%"));
        assert!(like("hello world", "%world"));
        assert!(like("hello world", "%o w%"));
        assert!(like("hello world", "%"));
        assert!(like("", "%"));
        assert!(!like("hello", "%z%"));
    }

    #[test]
    fn underscore_matches_one() {
        assert!(like("cat", "c_t"));
        assert!(!like("caat", "c_t"));
        assert!(like("cat", "___"));
        assert!(!like("cat", "____"));
        assert!(!like("", "_"));
    }

    #[test]
    fn mixed_patterns() {
        assert!(like("databases", "d%b_s%"));
        assert!(like("green shipment", "%green%"));
        assert!(!like("greem shipment", "%green%"));
        assert!(like("abc", "%%%abc%%%"));
    }

    #[test]
    fn backtracking_pathological_case() {
        // aaaa...b against %a%a%a%b must terminate and answer correctly.
        let input = "a".repeat(200) + "b";
        assert!(like(&input, "%a%a%a%b"));
        assert!(!like(&input, "%a%a%a%c"));
    }

    #[test]
    fn escapes() {
        assert!(like("100%", "100\\%"));
        assert!(!like("1000", "100\\%"));
        assert!(like("a_b", "a\\_b"));
        assert!(!like("axb", "a\\_b"));
        assert!(like("back\\slash", "back\\\\slash"));
    }

    #[test]
    fn unicode_counts_characters() {
        assert!(like("héllo", "h_llo"));
        assert!(like("日本語", "日__"));
        assert!(!like("日本語", "日_"));
        assert!(like("日本語", "%_語"));
        assert!(like("aé", "%é"));
        assert!(!like("é", "__"));
    }

    #[test]
    fn literal_prefix_detection() {
        assert_eq!(
            LikePattern::compile("abc%").literal_prefix(),
            Some("abc".to_string())
        );
        assert_eq!(LikePattern::compile("abc").literal_prefix(), None);
        assert_eq!(LikePattern::compile("%abc").literal_prefix(), None);
        assert_eq!(LikePattern::compile("a_c%").literal_prefix(), None);
        assert_eq!(
            LikePattern::compile("\\%x%").literal_prefix(),
            Some("%x".to_string())
        );
        assert_eq!(
            LikePattern::compile("日%").literal_prefix(),
            Some("日".to_string())
        );
    }

    #[test]
    fn contained_literal_detection() {
        let lit = |p| LikePattern::compile(p).contained_literal();
        assert_eq!(lit("%urgent%"), Some(b"urgent".to_vec()));
        assert_eq!(lit("%%\\_é%%"), Some("_é".as_bytes().to_vec()));
        for p in ["%", "%%", "abc%", "%abc", "abc", "%a_c%", "%a%c%"] {
            assert_eq!(lit(p), None, "{p}");
        }
    }

    #[test]
    fn percent_runs_collapse() {
        let a = LikePattern::compile("a%%%%b");
        let b = LikePattern::compile("a%b");
        assert_eq!(a.tokens, b.tokens);
    }
}
