//! Shared deterministic generator for the randomized test suites.
//!
//! Replaces the former proptest dependency: each test draws a few hundred
//! random cases from a seeded splitmix64 stream, so failures reproduce
//! exactly and the suite runs offline.

// Shared by several test binaries; not every binary uses every helper.
#![allow(dead_code)]

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Random string of `len` chars drawn from `alphabet`.
    pub fn string_from(&mut self, alphabet: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize] as char)
            .collect()
    }

    /// Printable-ASCII string with length in `[0, max_len]`.
    pub fn printable(&mut self, max_len: usize) -> String {
        let len = self.below(max_len as u64 + 1) as usize;
        (0..len)
            .map(|_| (b' ' + self.below(95) as u8) as char)
            .collect()
    }
}

/// The SELECT `text` parses to, for the doors that take a statement value.
pub fn select(text: &str) -> sqldb::sql::SelectStmt {
    match sqldb::sql::parse_statement(text).unwrap() {
        sqldb::sql::Stmt::Select(sel) => sel,
        other => panic!("not a SELECT: {other:?}"),
    }
}
