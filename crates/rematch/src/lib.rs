//! `rematch` — a small, dependency-free regular expression engine.
//!
//! perfbase input descriptions locate data in ASCII output files by matching
//! strings or regular expressions (*named locations*, *tabular locations*).
//! This crate provides the matching substrate: a classic Thompson-NFA
//! construction executed by a Pike VM, which guarantees **linear-time**
//! matching in the size of the input — there is no backtracking and therefore
//! no pathological blow-up, which matters when batch-importing thousands of
//! benchmark output files.
//!
//! Supported syntax:
//!
//! * literals, `.` (any char except `\n`)
//! * character classes `[a-z0-9_]`, negated classes `[^...]`
//! * escapes `\d \D \w \W \s \S \n \t \r \. \\ \+ ...`
//! * repetition `* + ? {m} {m,} {m,n}` (greedy and lazy `*?` variants)
//! * alternation `a|b`, grouping `(...)` with capture, `(?:...)` non-capture
//! * anchors `^`, `$`, word boundary `\b` / `\B`
//! * case-insensitive matching via [`RegexBuilder::case_insensitive`]
//!
//! # Example
//!
//! ```
//! use rematch::Regex;
//! let re = Regex::new(r"(\d+) PEs\s+(\d+)\s+(\d+)").unwrap();
//! let caps = re.captures("  4 PEs 2    1024 write").unwrap();
//! assert_eq!(caps.get(1), Some("4"));
//! assert_eq!(caps.get(3), Some("1024"));
//! ```

mod ast;
mod compile;
mod parser;
mod pike;

pub use ast::{Ast, ClassItem};
pub use compile::{Inst, Program};
pub use parser::ParseError;

use std::fmt;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

/// Error produced when compiling a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the pattern where the problem was detected.
    pub position: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error {
            message: e.message,
            position: e.position,
        }
    }
}

/// A successful match: the overall span plus capture groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match<'t> {
    text: &'t str,
    /// Capture slots: `slots[2i]`/`slots[2i+1]` are the start/end byte offsets
    /// of group `i`; group 0 is the whole match.
    slots: Vec<Option<usize>>,
}

impl<'t> Match<'t> {
    /// Byte offset where the whole match starts.
    pub fn start(&self) -> usize {
        self.slots[0].expect("match always has a start")
    }

    /// Byte offset one past the end of the whole match.
    pub fn end(&self) -> usize {
        self.slots[1].expect("match always has an end")
    }

    /// The matched text of the whole pattern.
    pub fn as_str(&self) -> &'t str {
        &self.text[self.start()..self.end()]
    }

    /// The text captured by group `i` (0 = whole match), if it participated.
    pub fn get(&self, i: usize) -> Option<&'t str> {
        let (s, e) = (*self.slots.get(2 * i)?, *self.slots.get(2 * i + 1)?);
        match (s, e) {
            (Some(s), Some(e)) => Some(&self.text[s..e]),
            _ => None,
        }
    }

    /// Number of capture groups (including group 0).
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// True when there are no capture slots at all (never happens for a
    /// match produced by this crate, but required for API completeness).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Builder allowing flags to be set before compilation.
#[derive(Debug, Clone)]
pub struct RegexBuilder {
    pattern: String,
    case_insensitive: bool,
}

impl RegexBuilder {
    /// Start building a regex from `pattern`.
    pub fn new(pattern: &str) -> Self {
        RegexBuilder {
            pattern: pattern.to_string(),
            case_insensitive: false,
        }
    }

    /// Match ASCII letters case-insensitively.
    pub fn case_insensitive(mut self, yes: bool) -> Self {
        self.case_insensitive = yes;
        self
    }

    /// Compile the pattern.
    pub fn build(self) -> Result<Regex, Error> {
        let ast = parser::parse(&self.pattern)?;
        let program = compile::compile(&ast, self.case_insensitive);
        Ok(Regex {
            pattern: self.pattern,
            program,
        })
    }
}

impl Regex {
    /// Compile `pattern` with default flags.
    pub fn new(pattern: &str) -> Result<Regex, Error> {
        RegexBuilder::new(pattern).build()
    }

    /// The source pattern.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Number of capture groups including the implicit group 0.
    pub fn capture_count(&self) -> usize {
        self.program.num_slots / 2
    }

    /// Does the pattern match anywhere in `text`?
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Find the leftmost match in `text`.
    pub fn find<'t>(&self, text: &'t str) -> Option<Match<'t>> {
        self.find_at(text, 0)
    }

    /// Find the leftmost match starting at or after byte offset `start`.
    pub fn find_at<'t>(&self, text: &'t str, start: usize) -> Option<Match<'t>> {
        let slots = pike::search(&self.program, text, start)?;
        Some(Match { text, slots })
    }

    /// Alias of [`Regex::find`] emphasising capture-group access.
    pub fn captures<'t>(&self, text: &'t str) -> Option<Match<'t>> {
        self.find(text)
    }

    /// Iterate over all non-overlapping matches in `text`.
    pub fn find_iter<'r, 't>(&'r self, text: &'t str) -> FindIter<'r, 't> {
        FindIter {
            re: self,
            text,
            pos: 0,
            done: false,
        }
    }

    /// Replace the first match with `replacement` (no group expansion).
    pub fn replace(&self, text: &str, replacement: &str) -> String {
        match self.find(text) {
            None => text.to_string(),
            Some(m) => {
                let mut out = String::with_capacity(text.len());
                out.push_str(&text[..m.start()]);
                out.push_str(replacement);
                out.push_str(&text[m.end()..]);
                out
            }
        }
    }

    /// Split `text` around matches of the pattern.
    pub fn split<'t>(&self, text: &'t str) -> Vec<&'t str> {
        let mut parts = Vec::new();
        let mut last = 0;
        for m in self.find_iter(text) {
            parts.push(&text[last..m.start()]);
            last = m.end();
        }
        parts.push(&text[last..]);
        parts
    }
}

/// Iterator over non-overlapping matches; see [`Regex::find_iter`].
pub struct FindIter<'r, 't> {
    re: &'r Regex,
    text: &'t str,
    pos: usize,
    done: bool,
}

impl<'r, 't> Iterator for FindIter<'r, 't> {
    type Item = Match<'t>;

    fn next(&mut self) -> Option<Match<'t>> {
        if self.done {
            return None;
        }
        let m = self.re.find_at(self.text, self.pos)?;
        if m.end() == m.start() {
            // Empty match: advance one char to guarantee progress.
            match self.text[m.end()..].chars().next() {
                Some(c) => self.pos = m.end() + c.len_utf8(),
                None => self.done = true,
            }
        } else {
            self.pos = m.end();
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        let re = Regex::new("abc").unwrap();
        assert!(re.is_match("xxabcxx"));
        assert!(!re.is_match("ab"));
        let m = re.find("xxabcxx").unwrap();
        assert_eq!((m.start(), m.end()), (2, 5));
        assert_eq!(m.as_str(), "abc");
    }

    #[test]
    fn leftmost_match_wins() {
        let re = Regex::new("a+").unwrap();
        let m = re.find("bb aaa aa").unwrap();
        assert_eq!(m.as_str(), "aaa");
        assert_eq!(m.start(), 3);
    }

    #[test]
    fn alternation() {
        let re = Regex::new("cat|dog|bird").unwrap();
        assert_eq!(re.find("hotdog").unwrap().as_str(), "dog");
        assert_eq!(re.find("a bird!").unwrap().as_str(), "bird");
        assert!(!re.is_match("catfishless".replace("cat", "c-t").as_str()));
    }

    #[test]
    fn star_and_plus() {
        let re = Regex::new("ab*c").unwrap();
        assert!(re.is_match("ac"));
        assert!(re.is_match("abbbbc"));
        let re = Regex::new("ab+c").unwrap();
        assert!(!re.is_match("ac"));
        assert!(re.is_match("abc"));
    }

    #[test]
    fn optional() {
        let re = Regex::new("colou?r").unwrap();
        assert!(re.is_match("color"));
        assert!(re.is_match("colour"));
    }

    #[test]
    fn counted_repetition() {
        let re = Regex::new(r"a{2,3}").unwrap();
        assert!(!re.is_match("a"));
        assert_eq!(re.find("aaaa").unwrap().as_str(), "aaa");
        let re = Regex::new(r"\d{4}").unwrap();
        assert!(re.is_match("year 2005"));
        assert!(!re.is_match("x123x"));
        let re = Regex::new(r"a{3}").unwrap();
        assert!(re.is_match("aaa"));
        assert!(!re.is_match("aa"));
        let re = Regex::new(r"a{2,}").unwrap();
        assert_eq!(re.find("aaaaa").unwrap().as_str(), "aaaaa");
    }

    #[test]
    fn classes() {
        let re = Regex::new("[a-f0-9]+").unwrap();
        assert_eq!(re.find("zz deadbeef zz").unwrap().as_str(), "deadbeef");
        let re = Regex::new("[^ ]+").unwrap();
        assert_eq!(re.find("  hello world").unwrap().as_str(), "hello");
    }

    #[test]
    fn class_with_escape_and_literal_dash() {
        let re = Regex::new(r"[\d.-]+").unwrap();
        assert_eq!(re.find("v = -12.5e").unwrap().as_str(), "-12.5");
    }

    #[test]
    fn perl_classes() {
        assert!(Regex::new(r"\d+").unwrap().is_match("abc9"));
        assert!(Regex::new(r"\s").unwrap().is_match("a b"));
        assert!(Regex::new(r"\w+").unwrap().is_match("_id7"));
        assert!(!Regex::new(r"\D").unwrap().is_match("123"));
        assert!(!Regex::new(r"\S").unwrap().is_match(" \t\n"));
        assert!(!Regex::new(r"\W").unwrap().is_match("abc_123"));
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^abc").unwrap();
        assert!(re.is_match("abcdef"));
        assert!(!re.is_match("xabc"));
        let re = Regex::new("abc$").unwrap();
        assert!(re.is_match("xyzabc"));
        assert!(!re.is_match("abcx"));
        let re = Regex::new("^$").unwrap();
        assert!(re.is_match(""));
        assert!(!re.is_match("a"));
    }

    #[test]
    fn word_boundaries() {
        let re = Regex::new(r"\bread\b").unwrap();
        assert!(re.is_match("total read bytes"));
        assert!(!re.is_match("rereading"));
        let re = Regex::new(r"\Bead\B").unwrap();
        assert!(re.is_match("treading"));
        assert!(!re.is_match("ead"));
    }

    #[test]
    fn captures_basic() {
        let re = Regex::new(r"(\w+)=(\d+)").unwrap();
        let m = re.captures("  nproc=16;").unwrap();
        assert_eq!(m.get(0), Some("nproc=16"));
        assert_eq!(m.get(1), Some("nproc"));
        assert_eq!(m.get(2), Some("16"));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn non_capturing_group() {
        let re = Regex::new(r"(?:ab)+(c)").unwrap();
        let m = re.captures("ababc").unwrap();
        assert_eq!(m.get(1), Some("c"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn nested_captures() {
        let re = Regex::new(r"((a+)(b+))c").unwrap();
        let m = re.captures("aabbbc").unwrap();
        assert_eq!(m.get(1), Some("aabbb"));
        assert_eq!(m.get(2), Some("aa"));
        assert_eq!(m.get(3), Some("bbb"));
    }

    #[test]
    fn unmatched_group_is_none() {
        let re = Regex::new(r"(a)|(b)").unwrap();
        let m = re.captures("b").unwrap();
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(2), Some("b"));
    }

    #[test]
    fn greedy_vs_lazy() {
        let re = Regex::new(r"<(.+)>").unwrap();
        assert_eq!(re.captures("<a><b>").unwrap().get(1), Some("a><b"));
        let re = Regex::new(r"<(.+?)>").unwrap();
        assert_eq!(re.captures("<a><b>").unwrap().get(1), Some("a"));
    }

    #[test]
    fn dot_excludes_newline() {
        let re = Regex::new("a.c").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("a\nc"));
    }

    #[test]
    fn case_insensitive() {
        let re = RegexBuilder::new("MB/s")
            .case_insensitive(true)
            .build()
            .unwrap();
        assert!(re.is_match("12 mb/S"));
        let re = RegexBuilder::new("[a-d]+")
            .case_insensitive(true)
            .build()
            .unwrap();
        assert_eq!(re.find("xxABCDxx").unwrap().as_str(), "ABCD");
    }

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        let all: Vec<&str> = re.find_iter("a1b22c333").map(|m| m.as_str()).collect();
        assert_eq!(all, vec!["1", "22", "333"]);
    }

    #[test]
    fn find_iter_empty_match_progresses() {
        let re = Regex::new("a*").unwrap();
        let n = re.find_iter("bbb").count();
        assert_eq!(n, 4); // empty match before each char + at end
    }

    #[test]
    fn split_and_replace() {
        let re = Regex::new(r"\s*,\s*").unwrap();
        assert_eq!(re.split("a , b,c"), vec!["a", "b", "c"]);
        assert_eq!(re.replace("a , b,c", ";"), "a;b,c");
    }

    #[test]
    fn unicode_text_is_handled() {
        let re = Regex::new("é+").unwrap();
        let m = re.find("caféé au lait").unwrap();
        assert_eq!(m.as_str(), "éé");
        let re = Regex::new(".").unwrap();
        assert_eq!(re.find("ü").unwrap().as_str(), "ü");
    }

    #[test]
    fn escapes_in_pattern() {
        let re = Regex::new(r"1\.5\+x\*\(y\)").unwrap();
        assert!(re.is_match("=1.5+x*(y)="));
        let re = Regex::new(r"a\tb").unwrap();
        assert!(re.is_match("a\tb"));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("a(b").is_err());
        assert!(Regex::new("a)b").is_err());
        assert!(Regex::new("[a-").is_err());
        assert!(Regex::new("a{3,2}").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"a\").is_err());
    }

    #[test]
    fn paper_style_patterns() {
        // Patterns similar to those used in the Fig. 6 input description.
        let re = Regex::new(r"b_eff_io of these measurements\s*=\s*([\d.]+)\s*MB/s").unwrap();
        let line = "b_eff_io of these measurements = 214.516 MB/s on 4 processes";
        assert_eq!(re.captures(line).unwrap().get(1), Some("214.516"));

        let re = Regex::new(r"^\s*(\d+) PEs\s+(\d+)\s+(\d+)\s+(\w+)").unwrap();
        let line = "  4 PEs 5   32776 rewrite 66.642 32.040";
        let m = re.captures(line).unwrap();
        assert_eq!(m.get(1), Some("4"));
        assert_eq!(m.get(2), Some("5"));
        assert_eq!(m.get(3), Some("32776"));
        assert_eq!(m.get(4), Some("rewrite"));
    }

    #[test]
    fn no_catastrophic_backtracking() {
        // (a+)+b against a^n — classic exponential case for backtrackers;
        // the Pike VM must finish instantly.
        let re = Regex::new("(a+)+b").unwrap();
        let text = "a".repeat(2000);
        assert!(!re.is_match(&text));
    }

    #[test]
    fn nesting_limit_covers_compile_and_match() {
        let deep = |n: usize| format!("{}a{}", "(?:(".repeat(n / 2), "))*".repeat(n / 2));
        let re = Regex::new(&deep(parser::MAX_NESTING)).unwrap();
        assert_eq!(re.find("xaaa").map(|m| m.as_str()), Some(""));
        assert_eq!(re.capture_count(), parser::MAX_NESTING / 2 + 1);
        let err = Regex::new(&deep(parser::MAX_NESTING + 2)).unwrap_err();
        assert!(err.to_string().starts_with("regex error at 500: "), "{err}");
        assert!(Regex::new(&deep(100_000)).is_err());
    }

    #[test]
    fn capture_count_reported() {
        let re = Regex::new(r"(a)(?:b)(c(d))").unwrap();
        assert_eq!(re.capture_count(), 4); // groups 0,1,2,3
    }
}
