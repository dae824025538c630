//! Compilation of the [`Ast`] into a flat instruction program for the
//! Pike VM. The construction is the classic Thompson one: each AST node
//! becomes a small fragment of instructions with `Split`/`Jmp` wiring.

use crate::ast::{Ast, ClassItem};

/// A single VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Match one specific character.
    Char(char),
    /// Match any character except `\n`.
    Any,
    /// Match a character class.
    Class {
        /// True for negated classes.
        negated: bool,
        /// Member items.
        items: Vec<ClassItem>,
    },
    /// Unconditional jump.
    Jmp(usize),
    /// Fork execution; `a` is the preferred branch.
    Split(usize, usize),
    /// Record the current input position into capture slot `slot`.
    Save(usize),
    /// Assert beginning of input.
    AssertStart,
    /// Assert end of input.
    AssertEnd,
    /// Assert a word boundary (`true`) or non-boundary (`false`).
    AssertWord(bool),
    /// Accept.
    MatchEnd,
}

/// A compiled program plus metadata.
#[derive(Debug, Clone)]
pub struct Program {
    /// Flat instruction list.
    pub insts: Vec<Inst>,
    /// Number of capture slots (2 × number of groups incl. group 0).
    pub num_slots: usize,
    /// Case-insensitive matching flag.
    pub case_insensitive: bool,
    /// Text every match starts with: the straight run of `Char`
    /// instructions from pc 0, `Save`s skipped. Empty when the program
    /// branches or tests a class first, and when matching is
    /// case-insensitive.
    pub(crate) prefix: String,
}

/// Compile `ast` into a [`Program`].
pub fn compile(ast: &Ast, case_insensitive: bool) -> Program {
    let groups = ast.capture_groups() as usize;
    let mut c = Compiler { insts: Vec::new() };
    // Group 0 wraps the whole pattern.
    c.push(Inst::Save(0));
    c.node(ast);
    c.push(Inst::Save(1));
    c.push(Inst::MatchEnd);
    let prefix = start_of_match(&c.insts, case_insensitive);
    Program {
        insts: c.insts,
        num_slots: 2 * (groups + 1),
        case_insensitive,
        prefix,
    }
}

/// What every match must start with. A thread started at pc 0 runs the
/// leading `Save`, `AssertStart` and `Char` instructions one after another,
/// since each of them only ever goes on to `pc + 1`; the walk stops at the
/// first instruction that does anything else.
fn start_of_match(insts: &[Inst], case_insensitive: bool) -> String {
    let mut prefix = String::new();
    for inst in insts {
        match inst {
            Inst::Save(_) | Inst::AssertStart => {}
            Inst::Char(c) if !case_insensitive => prefix.push(*c),
            _ => break,
        }
    }
    prefix
}

struct Compiler {
    insts: Vec<Inst>,
}

impl Compiler {
    fn push(&mut self, i: Inst) -> usize {
        self.insts.push(i);
        self.insts.len() - 1
    }

    fn here(&self) -> usize {
        self.insts.len()
    }

    fn node(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(c) => {
                self.push(Inst::Char(*c));
            }
            Ast::AnyChar => {
                self.push(Inst::Any);
            }
            Ast::Class { negated, items } => {
                self.push(Inst::Class {
                    negated: *negated,
                    items: items.clone(),
                });
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.node(p);
                }
            }
            Ast::Alternate(branches) => self.alternate(branches),
            Ast::Repeat {
                node,
                min,
                max,
                greedy,
            } => self.repeat(node, *min, *max, *greedy),
            Ast::Group { index, node } => {
                if let Some(i) = index {
                    let i = *i as usize;
                    self.push(Inst::Save(2 * i));
                    self.node(node);
                    self.push(Inst::Save(2 * i + 1));
                } else {
                    self.node(node);
                }
            }
            Ast::AnchorStart => {
                self.push(Inst::AssertStart);
            }
            Ast::AnchorEnd => {
                self.push(Inst::AssertEnd);
            }
            Ast::WordBoundary(b) => {
                self.push(Inst::AssertWord(*b));
            }
        }
    }

    fn alternate(&mut self, branches: &[Ast]) {
        // split b1, (split b2, (... bn))  with jumps to a common end.
        let mut jmp_fixups = Vec::new();
        for (k, b) in branches.iter().enumerate() {
            if k + 1 < branches.len() {
                let split = self.push(Inst::Split(0, 0));
                let start = self.here();
                self.node(b);
                jmp_fixups.push(self.push(Inst::Jmp(0)));
                let next = self.here();
                self.insts[split] = Inst::Split(start, next);
            } else {
                self.node(b);
            }
        }
        let end = self.here();
        for j in jmp_fixups {
            self.insts[j] = Inst::Jmp(end);
        }
    }

    fn repeat(&mut self, node: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        match (min, max) {
            (0, None) => self.star(node, greedy),
            (1, None) => {
                self.node(node);
                self.star(node, greedy);
            }
            (0, Some(1)) => self.question(node, greedy),
            (m, None) => {
                for _ in 0..m {
                    self.node(node);
                }
                self.star(node, greedy);
            }
            (m, Some(x)) => {
                for _ in 0..m {
                    self.node(node);
                }
                for _ in m..x {
                    self.question(node, greedy);
                }
            }
        }
    }

    /// `e*` — split over a loop body.
    fn star(&mut self, node: &Ast, greedy: bool) {
        let split = self.push(Inst::Split(0, 0));
        let body = self.here();
        self.node(node);
        self.push(Inst::Jmp(split));
        let after = self.here();
        self.insts[split] = if greedy {
            Inst::Split(body, after)
        } else {
            Inst::Split(after, body)
        };
    }

    /// `e?` — optional fragment.
    fn question(&mut self, node: &Ast, greedy: bool) {
        let split = self.push(Inst::Split(0, 0));
        let body = self.here();
        self.node(node);
        let after = self.here();
        self.insts[split] = if greedy {
            Inst::Split(body, after)
        } else {
            Inst::Split(after, body)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog(p: &str) -> Program {
        compile(&parse(p).unwrap(), false)
    }

    #[test]
    fn literal_program_shape() {
        let p = prog("ab");
        // Save(0) Char(a) Char(b) Save(1) Match
        assert_eq!(p.insts.len(), 5);
        assert_eq!(p.num_slots, 2);
        assert!(matches!(p.insts[0], Inst::Save(0)));
        assert!(matches!(p.insts.last(), Some(Inst::MatchEnd)));
    }

    #[test]
    fn star_has_split_loop() {
        let p = prog("a*");
        let splits = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Split(..)))
            .count();
        let jmps = p.insts.iter().filter(|i| matches!(i, Inst::Jmp(_))).count();
        assert_eq!(splits, 1);
        assert_eq!(jmps, 1);
    }

    #[test]
    fn counted_expansion() {
        // a{2,4} = a a a? a?
        let p = prog("a{2,4}");
        let chars = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Char('a')))
            .count();
        assert_eq!(chars, 4);
        let splits = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Split(..)))
            .count();
        assert_eq!(splits, 2);
    }

    #[test]
    fn capture_slots_counted() {
        let p = prog("(a)(b(c))");
        assert_eq!(p.num_slots, 8); // groups 0..=3
        let saves = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Save(_)))
            .count();
        assert_eq!(saves, 8);
    }

    #[test]
    fn prefix_is_the_leading_literal_run() {
        let p = prog("(Date) of: (.+)");
        assert_eq!(p.prefix, "Date of: ");
        assert_eq!(prog("ab*c").prefix, "a");
        assert_eq!(prog("^ab").prefix, "ab");
        assert_eq!(prog("a^b").prefix, "ab");
        // A branch or a class first: every start position stays open.
        assert_eq!(prog("ab|cd").prefix, "");
        assert_eq!(prog("a?b").prefix, "");
        assert_eq!(prog(r"\d+x").prefix, "");
        let ci = compile(&parse("abc").unwrap(), true);
        assert_eq!(ci.prefix, "");
    }

    #[test]
    fn lazy_star_prefers_exit() {
        let p = prog("a*?");
        let split = p
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Split(a, b) => Some((*a, *b)),
                _ => None,
            })
            .unwrap();
        // preferred branch (first) must be the exit, which is after the loop
        assert!(split.0 > split.1 || split.0 > 2);
    }
}
