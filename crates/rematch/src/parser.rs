//! Recursive-descent parser from pattern text to [`Ast`].

use crate::ast::{Ast, ClassItem};

/// Parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the pattern.
    pub position: usize,
}

/// Deepest nesting of groups a pattern may have (the `regex` crate's
/// default). The parser, [`crate::compile::compile`], [`Ast::capture_groups`]
/// and the `Ast`'s drop all recurse once per level, so the limit bounds
/// their stack instead of letting a deep pattern overflow it.
pub(crate) const MAX_NESTING: usize = 250;

struct Parser<'p> {
    chars: Vec<char>,
    pos: usize,
    next_group: u32,
    /// Groups open at `pos`.
    depth: usize,
    pattern: &'p str,
}

/// Parse `pattern` into an AST.
pub fn parse(pattern: &str) -> Result<Ast, ParseError> {
    let mut p = Parser {
        chars: pattern.chars().collect(),
        pos: 0,
        next_group: 1,
        depth: 0,
        pattern,
    };
    let ast = p.alternate()?;
    if p.pos < p.chars.len() {
        return Err(p.err("unexpected character (unbalanced ')'?)"));
    }
    Ok(ast)
}

impl<'p> Parser<'p> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            message: msg.to_string(),
            position: self.pos.min(self.pattern.len()),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// alternate := concat ('|' concat)*
    fn alternate(&mut self) -> Result<Ast, ParseError> {
        let mut branches = vec![self.concat()?];
        while self.eat('|') {
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Ast::Alternate(branches)
        })
    }

    /// concat := repeat*
    fn concat(&mut self) -> Result<Ast, ParseError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().unwrap(),
            _ => Ast::Concat(parts),
        })
    }

    /// repeat := atom ('*'|'+'|'?'|'{m,n}')? '?'?
    fn repeat(&mut self) -> Result<Ast, ParseError> {
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => {
                let save = self.pos;
                match self.counted() {
                    Some(mm) => mm,
                    None => {
                        // `{` not followed by a valid counted form — literal.
                        self.pos = save;
                        return Ok(atom);
                    }
                }
            }
            _ => return Ok(atom),
        };
        if let (_, Some(mx)) = (min, max) {
            if min > mx {
                return Err(self.err("invalid repetition: min > max"));
            }
        }
        if matches!(
            atom,
            Ast::AnchorStart | Ast::AnchorEnd | Ast::WordBoundary(_) | Ast::Empty
        ) {
            return Err(self.err("repetition operator applied to an anchor"));
        }
        let greedy = !self.eat('?');
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
            greedy,
        })
    }

    /// Try to parse `{m}`, `{m,}` or `{m,n}`; restore caller on failure.
    fn counted(&mut self) -> Option<(u32, Option<u32>)> {
        debug_assert_eq!(self.peek(), Some('{'));
        self.bump();
        let min = self.number()?;
        if self.eat('}') {
            return Some((min, Some(min)));
        }
        if !self.eat(',') {
            return None;
        }
        if self.eat('}') {
            return Some((min, None));
        }
        let max = self.number()?;
        if !self.eat('}') {
            return None;
        }
        Some((min, Some(max)))
    }

    fn number(&mut self) -> Option<u32> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return None;
        }
        self.chars[start..self.pos]
            .iter()
            .collect::<String>()
            .parse()
            .ok()
    }

    /// atom := group | class | escape | anchor | literal
    fn atom(&mut self) -> Result<Ast, ParseError> {
        match self.peek() {
            None => Ok(Ast::Empty),
            Some('(') => self.group(),
            Some('[') => self.class(),
            Some('\\') => self.escape(),
            Some('^') => {
                self.bump();
                Ok(Ast::AnchorStart)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::AnchorEnd)
            }
            Some('.') => {
                self.bump();
                Ok(Ast::AnyChar)
            }
            Some(c @ ('*' | '+' | '?')) => {
                Err(self.err(&format!("repetition operator '{c}' with nothing to repeat")))
            }
            Some(')') => Err(self.err("unbalanced ')'")),
            Some(c) => {
                self.bump();
                Ok(Ast::Literal(c))
            }
        }
    }

    fn group(&mut self) -> Result<Ast, ParseError> {
        debug_assert_eq!(self.peek(), Some('('));
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("groups nest deeper than {MAX_NESTING}")));
        }
        self.bump();
        let index = if self.peek() == Some('?') {
            // Only (?:...) is supported of the (?...) family.
            self.bump();
            if !self.eat(':') {
                return Err(self.err("unsupported group flag; only (?:...) is recognised"));
            }
            None
        } else {
            let i = self.next_group;
            self.next_group += 1;
            Some(i)
        };
        self.depth += 1;
        let inner = self.alternate()?;
        self.depth -= 1;
        if !self.eat(')') {
            return Err(self.err("missing ')'"));
        }
        Ok(Ast::Group {
            index,
            node: Box::new(inner),
        })
    }

    fn class(&mut self) -> Result<Ast, ParseError> {
        debug_assert_eq!(self.peek(), Some('['));
        self.bump();
        let negated = self.eat('^');
        let mut items = Vec::new();
        // A leading `]` is a literal member, as in POSIX.
        if self.peek() == Some(']') {
            self.bump();
            items.push(ClassItem::Char(']'));
        }
        loop {
            let c = match self.bump() {
                None => return Err(self.err("unterminated character class")),
                Some(']') => break,
                Some('\\') => match self.class_escape()? {
                    ClassEscape::Single(c) => c,
                    ClassEscape::Set(set) => {
                        items.extend(set);
                        continue;
                    }
                },
                Some(c) => c,
            };
            // Possible range c-d.
            if self.peek() == Some('-') && self.chars.get(self.pos + 1).copied() != Some(']') {
                self.bump(); // the '-'
                let hi = match self.bump() {
                    None => return Err(self.err("unterminated character class")),
                    Some('\\') => match self.class_escape()? {
                        ClassEscape::Single(c) => c,
                        ClassEscape::Set(_) => {
                            return Err(self.err("class shorthand cannot end a range"))
                        }
                    },
                    Some(hi) => hi,
                };
                if hi < c {
                    return Err(self.err("invalid range in character class"));
                }
                items.push(ClassItem::Range(c, hi));
            } else {
                items.push(ClassItem::Char(c));
            }
        }
        if items.is_empty() {
            return Err(self.err("empty character class"));
        }
        Ok(Ast::Class { negated, items })
    }

    fn class_escape(&mut self) -> Result<ClassEscape, ParseError> {
        let c = self.bump().ok_or_else(|| self.err("dangling backslash"))?;
        Ok(match c {
            'n' => ClassEscape::Single('\n'),
            't' => ClassEscape::Single('\t'),
            'r' => ClassEscape::Single('\r'),
            '0' => ClassEscape::Single('\0'),
            'd' => ClassEscape::Set(digit_items()),
            'w' => ClassEscape::Set(word_items()),
            's' => ClassEscape::Set(space_items()),
            other => ClassEscape::Single(other),
        })
    }

    fn escape(&mut self) -> Result<Ast, ParseError> {
        debug_assert_eq!(self.peek(), Some('\\'));
        self.bump();
        let c = self.bump().ok_or_else(|| self.err("dangling backslash"))?;
        Ok(match c {
            'n' => Ast::Literal('\n'),
            't' => Ast::Literal('\t'),
            'r' => Ast::Literal('\r'),
            '0' => Ast::Literal('\0'),
            'd' => Ast::Class {
                negated: false,
                items: digit_items(),
            },
            'D' => Ast::Class {
                negated: true,
                items: digit_items(),
            },
            'w' => Ast::Class {
                negated: false,
                items: word_items(),
            },
            'W' => Ast::Class {
                negated: true,
                items: word_items(),
            },
            's' => Ast::Class {
                negated: false,
                items: space_items(),
            },
            'S' => Ast::Class {
                negated: true,
                items: space_items(),
            },
            'b' => Ast::WordBoundary(true),
            'B' => Ast::WordBoundary(false),
            other => Ast::Literal(other),
        })
    }
}

enum ClassEscape {
    Single(char),
    Set(Vec<ClassItem>),
}

fn digit_items() -> Vec<ClassItem> {
    vec![ClassItem::Range('0', '9')]
}

fn word_items() -> Vec<ClassItem> {
    vec![
        ClassItem::Range('a', 'z'),
        ClassItem::Range('A', 'Z'),
        ClassItem::Range('0', '9'),
        ClassItem::Char('_'),
    ]
}

fn space_items() -> Vec<ClassItem> {
    vec![
        ClassItem::Char(' '),
        ClassItem::Char('\t'),
        ClassItem::Char('\n'),
        ClassItem::Char('\r'),
        ClassItem::Char('\x0b'),
        ClassItem::Char('\x0c'),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literal_sequence() {
        assert_eq!(
            parse("ab").unwrap(),
            Ast::Concat(vec![Ast::Literal('a'), Ast::Literal('b')])
        );
    }

    #[test]
    fn parses_alternation_tree() {
        match parse("a|b|c").unwrap() {
            Ast::Alternate(v) => assert_eq!(v.len(), 3),
            other => panic!("expected alternation, got {other:?}"),
        }
    }

    #[test]
    fn group_indices_assigned_in_order() {
        let ast = parse("(a)(?:b)((c))").unwrap();
        assert_eq!(ast.capture_groups(), 3);
    }

    #[test]
    fn counted_forms() {
        match parse("a{3}").unwrap() {
            Ast::Repeat {
                min: 3,
                max: Some(3),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
        match parse("a{2,}").unwrap() {
            Ast::Repeat {
                min: 2, max: None, ..
            } => {}
            other => panic!("{other:?}"),
        }
        match parse("a{2,5}?").unwrap() {
            Ast::Repeat {
                min: 2,
                max: Some(5),
                greedy: false,
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn brace_without_count_is_literal() {
        // `a{x}` has no valid counted form; `{` is a literal.
        let ast = parse("a{x}").unwrap();
        match ast {
            Ast::Concat(v) => assert_eq!(v.len(), 4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn class_leading_bracket_literal() {
        match parse("[]a]").unwrap() {
            Ast::Class {
                negated: false,
                items,
            } => {
                assert!(items.contains(&ClassItem::Char(']')));
                assert!(items.contains(&ClassItem::Char('a')));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn class_trailing_dash_literal() {
        match parse("[a-]").unwrap() {
            Ast::Class { items, .. } => {
                assert!(items.contains(&ClassItem::Char('-')));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_ranges() {
        assert!(parse("[z-a]").is_err());
        assert!(parse("a{5,2}").is_err());
        assert!(parse("(?<name>a)").is_err());
    }

    fn nested(depth: usize) -> String {
        format!("{}a{}", "(".repeat(depth), ")*".repeat(depth))
    }

    #[test]
    fn nesting_is_refused_past_the_limit() {
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        let err = parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.position, MAX_NESTING);
        assert!(err.message.contains("nest"), "{}", err.message);
        // Deep enough to overflow the stack of a recursive descent.
        let err = parse(&nested(100_000)).unwrap_err();
        assert_eq!(err.position, MAX_NESTING);
    }

    #[test]
    fn anchors_not_repeatable() {
        assert!(parse("^*").is_err());
        assert!(parse(r"\b+").is_err());
    }
}
