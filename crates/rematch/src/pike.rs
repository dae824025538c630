//! The Pike VM: executes a compiled [`Program`] over input text in
//! `O(len(text) · len(program))` time while tracking capture slots.
//!
//! Thread priority encodes leftmost-first (Perl-like) match semantics:
//! threads earlier in the list are preferred; a `Split` adds its preferred
//! branch first, and new start-of-match threads are appended last so earlier
//! starting positions always win.
//!
//! One search allocates a fixed number of blocks, whatever the length of the
//! text: two thread lists, the ε-closure stack, one scratch capture row and
//! the returned slots. A thread list reserves its capture rows up front and
//! writes a row only for a live thread. Nothing is allocated per character
//! or per thread.

use crate::ast::{is_word_char, ClassItem};
use crate::compile::{Inst, Program};

type Slots = Vec<Option<usize>>;

/// The threads of one step. A sparse set over program counters keeps the
/// ε-closure from visiting a pc twice; the threads proper are the consuming
/// instructions and `MatchEnd` it reached, in priority order, each with a
/// capture row.
struct Threads {
    /// Program counters visited this step; `dense[..len]`.
    dense: Vec<usize>,
    /// `sparse[pc]` is the index of `pc` in `dense`, when `pc` is a member.
    sparse: Vec<usize>,
    len: usize,
    /// Threads in priority order.
    pcs: Vec<usize>,
    /// `caps[i * slots..][..slots]` are the capture slots of `pcs[i]`.
    caps: Slots,
    slots: usize,
}

impl Threads {
    fn new(n: usize, slots: usize) -> Self {
        Threads {
            dense: vec![0; n],
            sparse: vec![0; n],
            len: 0,
            pcs: Vec::with_capacity(n),
            // Reserved, not filled: a row is written only for a live thread,
            // so a step costs what its threads hold, not |program|·slots.
            caps: Vec::with_capacity(n * slots),
            slots,
        }
    }

    /// Add `pc`; false when it was already a member of this step.
    fn insert(&mut self, pc: usize) -> bool {
        let i = self.sparse[pc];
        if i < self.len && self.dense[i] == pc {
            return false;
        }
        self.sparse[pc] = self.len;
        self.dense[self.len] = pc;
        self.len += 1;
        true
    }

    fn clear(&mut self) {
        self.len = 0;
        self.pcs.clear();
        self.caps.clear();
    }

    fn row(&self, i: usize) -> &[Option<usize>] {
        &self.caps[i * self.slots..][..self.slots]
    }
}

/// One entry of the ε-closure's explicit stack.
enum Frame {
    /// Follow the instruction at this program counter.
    Explore(usize),
    /// Put a capture slot back as it was before a `Save` below it.
    Restore(usize, Option<usize>),
}

/// Context needed to evaluate position assertions.
#[derive(Clone, Copy)]
struct Pos {
    /// Byte offset in the haystack.
    at: usize,
    /// Total haystack length in bytes.
    len: usize,
    /// Character immediately before `at`, if any.
    prev: Option<char>,
    /// Character at `at`, if any.
    next: Option<char>,
}

impl Pos {
    fn word_boundary(&self) -> bool {
        let before = self.prev.map(is_word_char).unwrap_or(false);
        let after = self.next.map(is_word_char).unwrap_or(false);
        before != after
    }
}

/// Follow ε-transitions from `pc` with the capture row `caps`, queueing
/// every consuming instruction (and `MatchEnd`) reached into `list`. A
/// `Save` writes `caps` in place and leaves a `Restore` frame beneath the
/// branch it leads into, so `caps` is as it came once the closure is done.
fn add_thread(
    prog: &Program,
    list: &mut Threads,
    stack: &mut Vec<Frame>,
    pc: usize,
    caps: &mut [Option<usize>],
    pos: Pos,
) {
    stack.push(Frame::Explore(pc));
    while let Some(frame) = stack.pop() {
        let pc = match frame {
            Frame::Explore(pc) => pc,
            Frame::Restore(slot, old) => {
                caps[slot] = old;
                continue;
            }
        };
        if !list.insert(pc) {
            continue;
        }
        match &prog.insts[pc] {
            Inst::Jmp(x) => stack.push(Frame::Explore(*x)),
            Inst::Split(a, b) => {
                // Preferred branch `a` must be explored first ⇒ push `b` first.
                stack.push(Frame::Explore(*b));
                stack.push(Frame::Explore(*a));
            }
            Inst::Save(slot) => {
                if *slot < caps.len() {
                    stack.push(Frame::Restore(*slot, caps[*slot]));
                    caps[*slot] = Some(pos.at);
                }
                stack.push(Frame::Explore(pc + 1));
            }
            Inst::AssertStart => {
                if pos.at == 0 {
                    stack.push(Frame::Explore(pc + 1));
                }
            }
            Inst::AssertEnd => {
                if pos.at == pos.len {
                    stack.push(Frame::Explore(pc + 1));
                }
            }
            Inst::AssertWord(want) => {
                if pos.word_boundary() == *want {
                    stack.push(Frame::Explore(pc + 1));
                }
            }
            Inst::Char(_) | Inst::Any | Inst::Class { .. } | Inst::MatchEnd => {
                list.pcs.push(pc);
                list.caps.extend_from_slice(caps);
            }
        }
    }
}

fn fold(c: char) -> char {
    if c.is_ascii() {
        c.to_ascii_lowercase()
    } else {
        c.to_lowercase().next().unwrap_or(c)
    }
}

fn char_eq(a: char, b: char, ci: bool) -> bool {
    a == b || (ci && fold(a) == fold(b))
}

fn class_contains(items: &[ClassItem], negated: bool, c: char, ci: bool) -> bool {
    let mut hit = items.iter().any(|i| i.contains(c));
    if !hit && ci {
        let lo = fold(c);
        let up = c.to_uppercase().next().unwrap_or(c);
        hit = items.iter().any(|i| i.contains(lo) || i.contains(up));
    }
    hit != negated
}

/// Search `text` for the leftmost match at or after byte offset `start`.
/// Returns the capture slots on success.
///
/// While no thread is alive, start-of-match threads are only begun at the
/// next occurrence of the program's prefix.
pub fn search(prog: &Program, text: &str, start: usize) -> Option<Slots> {
    if start > text.len() {
        return None;
    }
    let prefix = prog.prefix.as_str();
    // No match starts before the prefix's first occurrence, or at all
    // without one.
    let mut at = start + text[start..].find(prefix)?;
    let n = prog.insts.len();
    let mut clist = Threads::new(n, prog.num_slots);
    let mut nlist = Threads::new(n, prog.num_slots);
    // Each instruction is explored once per closure and pushes at most two
    // frames, so the stack never grows past its first capacity.
    let mut stack: Vec<Frame> = Vec::with_capacity(2 * n + 1);
    let mut scratch: Slots = vec![None; prog.num_slots];
    let mut matched: Option<Slots> = None;

    let bytes_len = text.len();
    let mut prev: Option<char> = text[..at].chars().next_back();

    loop {
        if matched.is_none() {
            if clist.pcs.is_empty() && !prefix.is_empty() {
                // No thread alive: skip to where the prefix occurs next.
                match text[at..].find(prefix) {
                    None => break,
                    Some(0) => {}
                    Some(skip) => {
                        // Only dead ε-members of the old position are left.
                        clist.clear();
                        at += skip;
                        prev = text[..at].chars().next_back();
                    }
                }
            }
            // New potential match start — lowest priority.
            scratch.fill(None);
            let pos = Pos {
                at,
                len: bytes_len,
                prev,
                next: text[at..].chars().next(),
            };
            add_thread(prog, &mut clist, &mut stack, 0, &mut scratch, pos);
        }

        let next_char = text[at..].chars().next();
        // Where a thread lands after consuming `next_char`.
        let npos = next_char.map(|c| Pos {
            at: at + c.len_utf8(),
            len: bytes_len,
            prev: Some(c),
            next: text[at + c.len_utf8()..].chars().next(),
        });

        for i in 0..clist.pcs.len() {
            let pc = clist.pcs[i];
            let step = match (&prog.insts[pc], next_char) {
                (Inst::MatchEnd, _) => {
                    // Leftmost-first: this thread beats every lower-priority
                    // thread, so drop them; higher-priority threads continue.
                    let row = clist.row(i);
                    match &mut matched {
                        Some(best) => best.copy_from_slice(row),
                        None => matched = Some(row.to_vec()),
                    }
                    break;
                }
                (Inst::Char(x), Some(c)) => char_eq(c, *x, prog.case_insensitive),
                (Inst::Any, Some(c)) => c != '\n',
                (Inst::Class { negated, items }, Some(c)) => {
                    class_contains(items, *negated, c, prog.case_insensitive)
                }
                // No character left to consume.
                _ => false,
            };
            if let (true, Some(npos)) = (step, npos) {
                scratch.copy_from_slice(clist.row(i));
                add_thread(prog, &mut nlist, &mut stack, pc + 1, &mut scratch, npos);
            }
        }

        std::mem::swap(&mut clist, &mut nlist);
        nlist.clear();

        match next_char {
            None => break,
            Some(c) => {
                // Nothing alive and no thread left to start.
                if clist.pcs.is_empty() && matched.is_some() {
                    break;
                }
                prev = Some(c);
                at += c.len_utf8();
            }
        }
    }

    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;

    /// The VM as it was when every thread carried its own slot `Vec`, kept
    /// verbatim as the oracle the differential test compares against.
    mod oracle {
        use super::super::{char_eq, class_contains, Pos};
        use crate::compile::{Inst, Program};

        type Slots = Vec<Option<usize>>;

        struct ThreadList {
            /// Threads in priority order.
            dense: Vec<(usize, Slots)>,
            /// `seen[pc]` marks program counters already queued this step.
            seen: Vec<bool>,
        }

        impl ThreadList {
            fn new(n: usize) -> Self {
                ThreadList {
                    dense: Vec::with_capacity(16),
                    seen: vec![false; n],
                }
            }

            fn clear(&mut self) {
                self.dense.clear();
                self.seen.iter_mut().for_each(|s| *s = false);
            }
        }

        /// Follow epsilon transitions from `pc`, queueing consuming instructions.
        fn add_thread(prog: &Program, list: &mut ThreadList, pc: usize, slots: &Slots, pos: Pos) {
            // Explicit stack to avoid recursion depth issues on large programs.
            let mut stack: Vec<(usize, Option<Slots>)> = vec![(pc, None)];
            while let Some((pc, owned)) = stack.pop() {
                if list.seen[pc] {
                    continue;
                }
                list.seen[pc] = true;
                let cur: &Slots = owned.as_ref().unwrap_or(slots);
                match &prog.insts[pc] {
                    Inst::Jmp(x) => stack.push((*x, owned.clone())),
                    Inst::Split(a, b) => {
                        // Preferred branch `a` must be explored first ⇒ push `b` first.
                        stack.push((*b, owned.clone()));
                        stack.push((*a, owned));
                    }
                    Inst::Save(slot) => {
                        let mut s = cur.clone();
                        if *slot < s.len() {
                            s[*slot] = Some(pos.at);
                        }
                        stack.push((pc + 1, Some(s)));
                    }
                    Inst::AssertStart => {
                        if pos.at == 0 {
                            stack.push((pc + 1, owned));
                        }
                    }
                    Inst::AssertEnd => {
                        if pos.at == pos.len {
                            stack.push((pc + 1, owned));
                        }
                    }
                    Inst::AssertWord(want) => {
                        if pos.word_boundary() == *want {
                            stack.push((pc + 1, owned));
                        }
                    }
                    Inst::Char(_) | Inst::Any | Inst::Class { .. } | Inst::MatchEnd => {
                        list.dense.push((pc, cur.clone()));
                    }
                }
            }
        }

        /// Search `text` for the leftmost match at or after byte offset `start`.
        /// Returns the capture slots on success.
        pub fn search(prog: &Program, text: &str, start: usize) -> Option<Slots> {
            if start > text.len() {
                return None;
            }
            let n = prog.insts.len();
            let mut clist = ThreadList::new(n);
            let mut nlist = ThreadList::new(n);
            let mut matched: Option<Slots> = None;
            let empty_slots: Slots = vec![None; prog.num_slots];

            let bytes_len = text.len();
            let mut at = start;
            let mut prev: Option<char> = if start == 0 {
                None
            } else {
                text[..start].chars().next_back()
            };

            loop {
                let next_char = text[at..].chars().next();
                let pos = Pos {
                    at,
                    len: bytes_len,
                    prev,
                    next: next_char,
                };

                if matched.is_none() {
                    // New potential match start — lowest priority.
                    add_thread(prog, &mut clist, 0, &empty_slots, pos);
                }

                let mut i = 0;
                while i < clist.dense.len() {
                    let (pc, slots) = {
                        let t = &clist.dense[i];
                        (t.0, t.1.clone())
                    };
                    match &prog.insts[pc] {
                        Inst::MatchEnd => {
                            // Leftmost-first: this thread beats every lower-priority
                            // thread, so drop them; higher-priority threads continue.
                            matched = Some(slots);
                            clist.dense.truncate(i + 1);
                            break;
                        }
                        Inst::Char(x) => {
                            if let Some(c) = next_char {
                                if char_eq(c, *x, prog.case_insensitive) {
                                    let npos = Pos {
                                        at: at + c.len_utf8(),
                                        len: bytes_len,
                                        prev: Some(c),
                                        next: text[at + c.len_utf8()..].chars().next(),
                                    };
                                    add_thread(prog, &mut nlist, pc + 1, &slots, npos);
                                }
                            }
                        }
                        Inst::Any => {
                            if let Some(c) = next_char {
                                if c != '\n' {
                                    let npos = Pos {
                                        at: at + c.len_utf8(),
                                        len: bytes_len,
                                        prev: Some(c),
                                        next: text[at + c.len_utf8()..].chars().next(),
                                    };
                                    add_thread(prog, &mut nlist, pc + 1, &slots, npos);
                                }
                            }
                        }
                        Inst::Class { negated, items } => {
                            if let Some(c) = next_char {
                                if class_contains(items, *negated, c, prog.case_insensitive) {
                                    let npos = Pos {
                                        at: at + c.len_utf8(),
                                        len: bytes_len,
                                        prev: Some(c),
                                        next: text[at + c.len_utf8()..].chars().next(),
                                    };
                                    add_thread(prog, &mut nlist, pc + 1, &slots, npos);
                                }
                            }
                        }
                        // Epsilon instructions never appear in the dense list.
                        _ => unreachable!("epsilon instruction queued as thread"),
                    }
                    i += 1;
                }

                std::mem::swap(&mut clist, &mut nlist);
                nlist.clear();

                match next_char {
                    None => break,
                    Some(c) => {
                        if clist.dense.is_empty() && matched.is_some() {
                            break;
                        }
                        prev = Some(c);
                        at += c.len_utf8();
                    }
                }
            }

            matched
        }
    }

    fn run(pat: &str, text: &str) -> Option<(usize, usize)> {
        let p = compile(&parse(pat).unwrap(), false);
        search(&p, text, 0).map(|s| (s[0].unwrap(), s[1].unwrap()))
    }

    #[test]
    fn earliest_start_beats_longer_later() {
        assert_eq!(run("a+|b+", "bb aaa"), Some((0, 2)));
    }

    #[test]
    fn greedy_takes_longest_at_same_start() {
        assert_eq!(run("a*", "aaab"), Some((0, 3)));
    }

    #[test]
    fn anchored_end_only() {
        assert_eq!(run("b$", "abab"), Some((3, 4)));
    }

    #[test]
    fn search_with_offset() {
        let p = compile(&parse("a").unwrap(), false);
        let s = search(&p, "abca", 1).unwrap();
        assert_eq!(s[0], Some(3));
    }

    #[test]
    fn offset_past_end_is_none() {
        let p = compile(&parse("a").unwrap(), false);
        assert!(search(&p, "abc", 10).is_none());
    }

    #[test]
    fn word_boundary_with_offset_context() {
        // Starting mid-word: \b must see the previous character.
        let p = compile(&parse(r"\bcat").unwrap(), false);
        assert!(search(&p, "concat", 3).is_none());
        assert!(search(&p, "con cat", 4).is_some());
    }

    #[test]
    fn empty_pattern_matches_empty_at_start() {
        assert_eq!(run("", "xyz"), Some((0, 0)));
    }

    #[test]
    fn prefix_skip_keeps_word_boundary_context() {
        // The jump to the prefix must still see the character before it.
        assert_eq!(run(r"cat\b", "concat cat"), Some((3, 6)));
        assert_eq!(run(r"c\Bat", "c at"), None);
        assert_eq!(run(r"ca\Bt", "c at cat"), Some((5, 8)));
    }

    #[test]
    fn anchored_program_starts_at_zero_only() {
        let p = compile(&parse("^ab").unwrap(), false);
        assert!(search(&p, "xab", 0).is_none());
        assert!(search(&p, "abab", 1).is_none());
        assert_eq!(search(&p, "abab", 0).unwrap()[1], Some(2));
    }

    #[test]
    fn saves_are_undone_between_branches() {
        // The first branch records group 1 and dies; the second must not
        // see that capture.
        let p = compile(&parse("(a)x|ab").unwrap(), false);
        assert_eq!(
            search(&p, "ab", 0),
            Some(vec![Some(0), Some(2), None, None])
        );
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    const LITERALS: [&str; 10] = ["a", "b", "c", "A", "é", "ß", "-", " ", "1", r"\."];
    const CLASSES: [&str; 10] = [
        ".",
        r"\d",
        r"\w",
        r"\s",
        r"\W",
        "[a-c]",
        "[^ab]",
        "[é1-2]",
        "[^a-cé ]",
        "[_.A]",
    ];
    const ASSERTIONS: [&str; 4] = ["^", "$", r"\b", r"\B"];
    const REPEATS: [&str; 7] = ["*", "+", "?", "{0,2}", "{1,3}", "{2}", "{1,}"];

    fn atom(rng: &mut Rng, depth: u32, out: &mut String) {
        match rng.below(if depth > 0 { 10 } else { 8 }) {
            0..=3 => out.push_str(rng.pick(&LITERALS)),
            4 | 5 => out.push_str(rng.pick(&CLASSES)),
            6 | 7 => {
                // An assertion takes no repeat.
                out.push_str(rng.pick(&ASSERTIONS));
                return;
            }
            _ => {
                out.push_str(if rng.below(2) == 0 { "(" } else { "(?:" });
                alternation(rng, depth - 1, out);
                out.push(')');
            }
        }
        if rng.below(3) == 0 {
            out.push_str(rng.pick(&REPEATS));
            if rng.below(3) == 0 {
                out.push('?');
            }
        }
    }

    fn alternation(rng: &mut Rng, depth: u32, out: &mut String) {
        for branch in 0..1 + rng.below(3) / 2 + rng.below(2) {
            if branch > 0 {
                out.push('|');
            }
            for _ in 0..rng.below(4) {
                atom(rng, depth, out);
            }
        }
    }

    /// A pattern; half of them open with literals, so that they have a
    /// prefix, and some with `^`.
    fn pattern(rng: &mut Rng) -> String {
        let mut p = String::new();
        match rng.below(10) {
            0 => p.push('^'),
            1..=5 => (0..1 + rng.below(3)).for_each(|_| p.push_str(rng.pick(&LITERALS))),
            _ => {}
        }
        alternation(rng, 2, &mut p);
        p
    }

    fn text(rng: &mut Rng) -> String {
        const CHARS: [&str; 14] = [
            "a", "b", "c", "A", "B", "é", "É", "ß", " ", "1", "-", "\n", "_", ".",
        ];
        (0..rng.below(11)).map(|_| rng.pick(&CHARS)).collect()
    }

    fn same_as_oracle(pat: &str, texts: &[String]) {
        let Ok(ast) = parse(pat) else { return };
        for ci in [false, true] {
            let prog = compile(&ast, ci);
            for text in texts {
                for (start, _) in text.char_indices().chain([(text.len(), ' ')]) {
                    assert_eq!(
                        search(&prog, text, start),
                        oracle::search(&prog, text, start),
                        "pattern {pat:?} on {text:?} from {start}, case-insensitive {ci}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_patterns_agree_with_the_oracle() {
        let mut rng = Rng(7);
        let texts: Vec<String> = (0..300).map(|_| text(&mut rng)).collect();
        for pat in [
            "",
            "a",
            "ab|cd",
            "(a|ab)(c|bcd)",
            "a*",
            "a*?",
            "(a+)+b",
            "<(.+)>",
            "<(.+?)>",
            "^ab",
            "^$",
            "b$",
            r"\ba",
            r"\Ba\B",
            r"a\b",
            "(a)|(b)",
            "((a)|b)*",
            "(a*)*",
            "é+",
            "ß|ss",
            "[^a]b{1,2}?",
            r"(\w+) (\d)",
        ] {
            same_as_oracle(pat, &texts);
        }
    }

    #[test]
    fn generated_patterns_agree_with_the_oracle() {
        let mut rng = Rng(0x5eed);
        for _ in 0..400 {
            let pat = pattern(&mut rng);
            let texts: Vec<String> = (0..12).map(|_| text(&mut rng)).collect();
            same_as_oracle(&pat, &texts);
        }
    }
}
