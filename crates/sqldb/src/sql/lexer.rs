//! SQL lexer: borrowed tokens over the bytes of the source text.
//!
//! ASCII is classified bytewise; any other character is decoded and
//! classified with `char::is_alphabetic` / `is_alphanumeric` /
//! `is_whitespace`, so Unicode identifiers and blanks lex too. Quotes,
//! backslashes and every delimiter are ASCII, so scanning bytes never
//! splits a character. The token grammar is stated in DESIGN.md §4i.

use crate::error::DbError;
use std::borrow::Cow;

/// One SQL token, borrowing from the source where it can.
#[derive(Debug, PartialEq)]
pub(super) enum Token<'a> {
    /// Keyword or identifier (identifiers may be dot-qualified).
    Word(&'a str),
    /// Integer literal: its magnitude. A sign is the parser's unary minus,
    /// which is what lets `-9223372036854775808` be read.
    Int(u64),
    /// Float literal.
    Float(f64),
    /// String literal, quotes removed; owned only when `''` or an `E'…'`
    /// backslash escape had to be rewritten.
    Str(Cow<'a, str>),
    /// Operator or punctuation.
    Sym(&'static str),
}

impl Token<'_> {
    /// Case-insensitive keyword test.
    pub(super) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

/// `msg`, located: the 1-based line and column (in characters) of byte
/// `offset` of `src`.
pub(super) fn error_at(src: &str, offset: usize, msg: &str) -> DbError {
    let before = &src[..offset];
    let line = before.matches('\n').count() + 1;
    let column = before[before.rfind('\n').map_or(0, |i| i + 1)..]
        .chars()
        .count()
        + 1;
    DbError::Parse(format!("{msg} (line {line}, column {column})"))
}

/// Tokens of `src`, one per [`Lexer::next_token`] call.
pub(super) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(super) fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    /// Byte offset of the next unread byte.
    pub(super) fn offset(&self) -> usize {
        self.pos
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.src.as_bytes().get(at).copied()
    }

    /// The character starting at byte `at` (which must be a boundary).
    fn char_at(&self, at: usize) -> Option<char> {
        self.src[at..].chars().next()
    }

    /// The next token and the byte offset it starts at; `None` at the end
    /// of the text. Whitespace and `--` line comments are skipped.
    pub(super) fn next_token(&mut self) -> Result<Option<(usize, Token<'a>)>, DbError> {
        let first = loop {
            let Some(c) = self.byte(self.pos) else {
                return Ok(None);
            };
            if matches!(c, b'\t'..=b'\r' | b' ') {
                self.pos += 1;
            } else if c == b'-' && self.byte(self.pos + 1) == Some(b'-') {
                let rest = &self.src.as_bytes()[self.pos..];
                self.pos += rest.iter().position(|b| *b == b'\n').unwrap_or(rest.len());
            } else if c < 0x80 {
                break c as char;
            } else {
                let ch = self.char_at(self.pos).expect("inside the text");
                if !ch.is_whitespace() {
                    break ch;
                }
                self.pos += ch.len_utf8();
            }
        };
        let start = self.pos;
        let next = self.byte(start + 1);
        let tok = if first.is_ascii_digit()
            || (first == '.' && next.is_some_and(|d| d.is_ascii_digit()))
        {
            self.number(start)?
        } else if first == '\'' {
            self.pos += 1;
            self.string(start, false)?
        } else if (first == 'E' || first == 'e') && next == Some(b'\'') {
            // Escaped string literal (PostgreSQL style): E'line1\nline2'.
            // The dump emits these for text containing control characters so
            // that every dumped statement stays on a single line.
            self.pos += 2;
            self.string(start, true)?
        } else if first.is_alphabetic() || first == '_' {
            self.pos += first.len_utf8();
            while let Some(c) = self.byte(self.pos) {
                if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                    self.pos += 1;
                } else if c >= 0x80 {
                    match self.char_at(self.pos) {
                        Some(ch) if ch.is_alphanumeric() => self.pos += ch.len_utf8(),
                        _ => break,
                    }
                } else {
                    break;
                }
            }
            Token::Word(&self.src[start..self.pos])
        } else {
            let sym = match (first, next) {
                ('<', Some(b'=')) => "<=",
                ('>', Some(b'=')) => ">=",
                ('<', Some(b'>')) => "<>",
                ('!', Some(b'=')) => "!=",
                ('(', _) => "(",
                (')', _) => ")",
                (',', _) => ",",
                (';', _) => ";",
                ('=', _) => "=",
                ('<', _) => "<",
                ('>', _) => ">",
                ('+', _) => "+",
                ('-', _) => "-",
                ('*', _) => "*",
                ('/', _) => "/",
                ('%', _) => "%",
                _ => {
                    let msg = format!("unexpected character '{first}'");
                    return Err(error_at(self.src, start, &msg));
                }
            };
            self.pos += sym.len();
            Token::Sym(sym)
        };
        Ok(Some((start, tok)))
    }

    /// Digits, at most one `.`, and an exponent only when a digit or sign
    /// follows the `e` — so `1e` is the integer `1` and then the word `e`.
    fn number(&mut self, start: usize) -> Result<Token<'a>, DbError> {
        let mut is_float = false;
        while let Some(d) = self.byte(self.pos) {
            if d.is_ascii_digit() {
                self.pos += 1;
            } else if d == b'.' && !is_float {
                is_float = true;
                self.pos += 1;
            } else if (d == b'e' || d == b'E')
                && self
                    .byte(self.pos + 1)
                    .is_some_and(|n| n.is_ascii_digit() || n == b'+' || n == b'-')
            {
                is_float = true;
                self.pos += 2;
                while self.byte(self.pos).is_some_and(|n| n.is_ascii_digit()) {
                    self.pos += 1;
                }
                break;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        let tok = if is_float {
            text.parse().ok().map(Token::Float)
        } else {
            text.parse().ok().map(Token::Int)
        };
        tok.ok_or_else(|| error_at(self.src, start, &format!("bad numeric literal '{text}'")))
    }

    /// The body of a string literal whose opening quote (at `start`) has
    /// been consumed. `''` is a quote; in an `E'…'` literal (`escaped`) a
    /// backslash introduces `\n \r \t \\ \' \0`.
    fn string(&mut self, start: usize, escaped: bool) -> Result<Token<'a>, DbError> {
        let body = self.pos;
        let mut owned = String::new();
        // Start of the text not yet copied to `owned`.
        let mut run = body;
        loop {
            let at = self.pos;
            let replacement = match self.byte(at) {
                None => return Err(error_at(self.src, start, "unterminated string literal")),
                Some(b'\'') if self.byte(at + 1) == Some(b'\'') => '\'',
                Some(b'\'') => break,
                Some(b'\\') if escaped => match self.byte(at + 1) {
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'\\') => '\\',
                    Some(b'\'') => '\'',
                    Some(b'0') => '\0',
                    _ => {
                        let msg = format!(
                            "unknown escape '\\{}' in E'...' literal",
                            self.char_at(at + 1).map(String::from).unwrap_or_default()
                        );
                        return Err(error_at(self.src, at, &msg));
                    }
                },
                Some(_) => {
                    self.pos += 1;
                    continue;
                }
            };
            owned.push_str(&self.src[run..at]);
            owned.push(replacement);
            self.pos += 2;
            run = self.pos;
        }
        let tail = &self.src[run..self.pos];
        self.pos += 1;
        Ok(Token::Str(if run == body {
            Cow::Borrowed(tail)
        } else {
            owned.push_str(tail);
            Cow::Owned(owned)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::corpus;
    use crate::test_common::Rng;

    fn lex(src: &str) -> Result<Vec<Token<'_>>, DbError> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        while let Some((at, tok)) = lexer.next_token()? {
            assert!(at < lexer.offset() && lexer.offset() <= src.len());
            toks.push(tok);
        }
        Ok(toks)
    }

    fn text(s: &str) -> Token<'_> {
        Token::Str(Cow::Borrowed(s))
    }

    #[test]
    fn words_numbers_strings() {
        let t = lex("SELECT a.b, 'it''s', 3, 4.5, 1e3 FROM t").unwrap();
        assert_eq!(t[0], Token::Word("SELECT"));
        assert_eq!(t[1], Token::Word("a.b"));
        assert_eq!(t[3], text("it's"));
        assert_eq!(t[5], Token::Int(3));
        assert_eq!(t[7], Token::Float(4.5));
        assert_eq!(t[9], Token::Float(1000.0));
    }

    #[test]
    fn symbols() {
        let t = lex("a <= b <> c != d >= e = f").unwrap();
        let syms: Vec<&Token> = t.iter().filter(|x| matches!(x, Token::Sym(_))).collect();
        assert_eq!(
            syms,
            vec![
                &Token::Sym("<="),
                &Token::Sym("<>"),
                &Token::Sym("!="),
                &Token::Sym(">="),
                &Token::Sym("=")
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let t = lex("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn keyword_case_insensitive() {
        let t = lex("select").unwrap();
        assert!(t[0].is_kw("SELECT"));
        assert!(t[0].is_kw("select"));
        assert!(!t[0].is_kw("FROM"));
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ? b").is_err());
    }

    #[test]
    fn escaped_string_literals() {
        let t = lex(r"E'a\nb\tc\\d''e'").unwrap();
        assert_eq!(t, vec![text("a\nb\tc\\d'e")]);
        // Lowercase prefix and backslash-quote escape both work.
        let t = lex(r"e'x\'y'").unwrap();
        assert_eq!(t, vec![text("x'y")]);
        // A word starting with E that is not followed by a quote stays a word.
        let t = lex("Elapsed").unwrap();
        assert_eq!(t, vec![Token::Word("Elapsed")]);
        assert!(lex(r"E'bad \q escape'").is_err());
        assert!(lex("E'unterminated").is_err());
    }

    #[test]
    fn strings_borrow_unless_an_escape_was_rewritten() {
        let t = lex(r"'plain' E'also plain' 'it''s' E'a\nb' ''").unwrap();
        let owned: Vec<bool> = t
            .iter()
            .map(|t| matches!(t, Token::Str(Cow::Owned(_))))
            .collect();
        assert_eq!(owned, [false, false, true, true, false]);
        assert_eq!(t[1], text("also plain"));
        assert_eq!(t[4], text(""));
    }

    #[test]
    fn integers_are_magnitudes_and_unicode_lexes() {
        let t = lex("9223372036854775808 1e größe\u{a0}x").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Int(1 << 63),
                Token::Int(1),
                Token::Word("e"),
                Token::Word("größe"),
                Token::Word("x"),
            ]
        );
        assert!(lex("18446744073709551616").is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let at = |src: &str| lex(src).unwrap_err().to_string();
        assert!(
            at("SELECT 1,\n  größe ? 2").ends_with("unexpected character '?' (line 2, column 9)")
        );
        assert!(at("a\n\n 'open").ends_with("unterminated string literal (line 3, column 2)"));
        assert!(at(r"E'ab\q'").ends_with("(line 1, column 5)"));
    }

    /// The lexer this one replaced — `Vec<char>` and a `String` per token —
    /// kept as the oracle, changed only to read integers as magnitudes.
    #[derive(Debug)]
    #[allow(dead_code)] // fields are compared through `Debug`
    enum Old {
        Word(String),
        Int(u64),
        Float(f64),
        Str(String),
        Sym(&'static str),
    }

    fn tokenize_chars(src: &str) -> Result<Vec<Old>, ()> {
        let chars: Vec<char> = src.chars().collect();
        let mut toks = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c == '-' && chars.get(i + 1) == Some(&'-') {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            } else if c.is_ascii_digit()
                || (c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
            {
                let start = i;
                let mut is_float = false;
                while i < chars.len() {
                    let d = chars[i];
                    if d.is_ascii_digit() {
                        i += 1;
                    } else if d == '.' && !is_float {
                        is_float = true;
                        i += 1;
                    } else if (d == 'e' || d == 'E')
                        && chars
                            .get(i + 1)
                            .is_some_and(|n| n.is_ascii_digit() || *n == '+' || *n == '-')
                    {
                        is_float = true;
                        i += 2;
                        while i < chars.len() && chars[i].is_ascii_digit() {
                            i += 1;
                        }
                        break;
                    } else {
                        break;
                    }
                }
                let s: String = chars[start..i].iter().collect();
                if is_float {
                    toks.push(Old::Float(s.parse().map_err(|_| ())?));
                } else {
                    toks.push(Old::Int(s.parse().map_err(|_| ())?));
                }
            } else if c == '\'' || ((c == 'E' || c == 'e') && chars.get(i + 1) == Some(&'\'')) {
                let escaped = c != '\'';
                i += 1 + usize::from(escaped);
                let mut s = String::new();
                loop {
                    match chars.get(i) {
                        None => return Err(()),
                        Some('\\') if escaped => {
                            s.push(match chars.get(i + 1) {
                                Some('n') => '\n',
                                Some('r') => '\r',
                                Some('t') => '\t',
                                Some('\\') => '\\',
                                Some('\'') => '\'',
                                Some('0') => '\0',
                                _ => return Err(()),
                            });
                            i += 2;
                        }
                        Some('\'') if chars.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(&x) => {
                            s.push(x);
                            i += 1;
                        }
                    }
                }
                toks.push(Old::Str(s));
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                toks.push(Old::Word(chars[start..i].iter().collect()));
            } else {
                let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
                let sym2 = ["<=", ">=", "<>", "!="].iter().find(|s| **s == two);
                if let Some(s) = sym2 {
                    toks.push(Old::Sym(s));
                    i += 2;
                } else {
                    let s = match c {
                        '(' => "(",
                        ')' => ")",
                        ',' => ",",
                        ';' => ";",
                        '=' => "=",
                        '<' => "<",
                        '>' => ">",
                        '+' => "+",
                        '-' => "-",
                        '*' => "*",
                        '/' => "/",
                        '%' => "%",
                        _ => return Err(()),
                    };
                    toks.push(Old::Sym(s));
                    i += 1;
                }
            }
        }
        Ok(toks)
    }

    /// Same token stream, or both reject.
    fn agree(src: &str) {
        match (lex(src), tokenize_chars(src)) {
            (Ok(new), Ok(old)) => assert_eq!(format!("{new:?}"), format!("{old:?}"), "{src:?}"),
            (Err(_), Err(())) => {}
            (new, old) => panic!("{src:?}: {new:?} against {old:?}"),
        }
    }

    #[test]
    fn agrees_with_the_char_lexer_on_the_corpus() {
        let scripts = corpus::scripts();
        assert!(scripts.iter().map(String::len).sum::<usize>() > 50_000);
        for s in &scripts {
            agree(s);
        }
    }

    #[test]
    fn agrees_with_the_char_lexer_on_random_text() {
        const FRAGMENTS: &[&str] = &[
            "SELECT",
            "e",
            "E",
            "'",
            "''",
            "\\",
            "\\'",
            "\\n",
            "\\q",
            "--",
            "-",
            "\n",
            " ",
            "\t",
            "\u{b}",
            "\u{a0}",
            "\u{2003}",
            "\u{85}",
            ";",
            ",",
            "(",
            ")",
            "<",
            ">",
            "=",
            "!",
            "<=",
            "<>",
            "!=",
            "*",
            "/",
            "%",
            "+",
            ".",
            "..",
            "0",
            "7",
            "12",
            ".5",
            "1e",
            "e9",
            "E+",
            "e-3",
            "9223372036854775808",
            "1.5",
            "_",
            "a.b",
            "größe",
            "ß",
            "日本",
            "\u{301}",
            "\u{1F600}",
            "?",
            "\"",
            "`",
            "#",
            "\0",
            "\u{7f}",
            "x",
            "NULL",
            "it's",
            "E'a\\tb'",
            "'a;b'",
        ];
        let mut rng = Rng::new(0x5eed);
        for _ in 0..2000 {
            let src: String = (0..rng.below(12) + 1)
                .map(|_| FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize])
                .collect();
            agree(&src);
        }
    }

    #[test]
    fn every_prefix_of_a_statement_lexes_or_errs() {
        for stmt in corpus::statements_to_truncate() {
            for (cut, _) in stmt.char_indices() {
                agree(&stmt[..cut]);
            }
        }
    }
}
