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

/// A dump shaped like an experiment's: an indexed run table and one
/// 24-row data table per run.
pub fn campaign_dump(runs: i64) -> String {
    use sqldb::{Engine, Value};
    let mut rng = Rng::new(14);
    let e = Engine::new();
    e.execute("CREATE TABLE pb_runs (run_id INTEGER NOT NULL, fs TEXT, at TIMESTAMP, ok BOOLEAN)")
        .unwrap();
    e.execute("CREATE INDEX ix_run ON pb_runs (run_id)")
        .unwrap();
    for run in 1..=runs {
        let fs = ["ufs", "nfs", "pvfs", "it's"][rng.below(4) as usize];
        e.insert_rows(
            "pb_runs",
            vec![vec![
                Value::Int(run),
                Value::Text(fs.into()),
                Value::Timestamp(1_101_234_630 + run),
                Value::Bool(rng.bool()),
            ]],
        )
        .unwrap();
        e.execute(&format!(
            "CREATE TABLE pb_rundata_{run} (pos INTEGER, mode TEXT, bw FLOAT, note TEXT)"
        ))
        .unwrap();
        let rows = (0..24).map(|pos| {
            vec![
                Value::Int(pos),
                Value::Text(["read", "write", "rewrite"][rng.below(3) as usize].into()),
                Value::Float(rng.float(-1.0, 900.0)),
                if rng.below(8) == 0 {
                    Value::Text(format!("line {pos}\nof run {run}"))
                } else {
                    Value::Null
                },
            ]
        });
        e.insert_rows(&format!("pb_rundata_{run}"), rows.collect())
            .unwrap();
    }
    e.dump_sql()
}

/// The SELECT `text` parses to, for the doors that take a statement value.
pub fn select(text: &str) -> sqldb::sql::SelectStmt {
    match sqldb::sql::parse_statement(text).unwrap() {
        sqldb::sql::Stmt::Select(sel) => sel,
        other => panic!("not a SELECT: {other:?}"),
    }
}

pub mod log;
pub mod oracle;
