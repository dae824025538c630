//! Inputs: the §5 b_eff_io campaign generated from `--seed`, the benchmark's
//! own control files, the digest that identifies both, and the reference the
//! Fig. 7 output is checked against.

use perfbase::workloads::beffio::{simulate, BeffIoConfig, BeffIoRun, FsType, Technique};
use std::collections::BTreeMap;

pub const EXPERIMENT_XML: &str = include_str!("../data/experiment.xml");
pub const INPUT_XML: &str = include_str!("../data/input.xml");
pub const FIG7_XML: &str = include_str!("../data/fig7.xml");
pub const SOLIDITY_XML: &str = include_str!("../data/solidity.xml");
pub const SWEEP_XML: &str = include_str!("../data/sweep.xml");
pub const FORMATS_XML: &str = include_str!("../data/formats.xml");

/// The fixed query set, in the order a cycle evaluates it.
pub const QUERY_SET: [(&str, &str); 4] = [
    ("fig7", FIG7_XML),
    ("solidity", SOLIDITY_XML),
    ("sweep", SWEEP_XML),
    ("formats", FORMATS_XML),
];

/// Data rows (mode × chunk size) in every generated file.
pub const ROWS_PER_FILE: usize = 24;

/// Files per repetition of the campaign: 3 file systems × 2 techniques.
pub const FILES_PER_REP: u32 = 6;

/// The user all CLI calls run as; the experiment definition grants it admin.
pub const USER: &str = "demo";

/// One generated output file of the simulated benchmark.
pub struct InputFile {
    pub name: String,
    pub content: String,
    pub run: BeffIoRun,
}

/// Repetitions `first_rep .. first_rep + reps` of the campaign, 6 files each,
/// ordered repetition-major so that every prefix is balanced over file
/// systems and techniques. The same `(seed, repetition)` always gives the same
/// file, whatever range it is generated in.
pub fn campaign(seed: u64, first_rep: u32, reps: u32) -> Vec<InputFile> {
    let mut files = Vec::with_capacity((reps * FILES_PER_REP) as usize);
    for rep in first_rep..first_rep + reps {
        let mut slot = 0;
        for fs in [FsType::Ufs, FsType::Nfs, FsType::Pvfs] {
            for technique in [Technique::ListBased, Technique::ListLess] {
                let run = simulate(BeffIoConfig {
                    fs,
                    technique,
                    run_index: rep,
                    seed: splitmix(seed ^ (u64::from(rep) * u64::from(FILES_PER_REP) + slot)),
                    ..BeffIoConfig::default()
                });
                slot += 1;
                files.push(InputFile {
                    name: run.filename(),
                    content: run.render(),
                    run,
                });
            }
        }
    }
    files
}

/// Spread nearby inputs over the whole 64-bit range (SplitMix64 finaliser),
/// so seed 1 and seed 2 share no file.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over everything a workload feeds the program.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Digest of the control files and of every file of `sets`: what a
    /// stage's set-up generates or reads.
    pub fn of_inputs(sets: &[&[InputFile]]) -> Digest {
        let mut d = Digest::default();
        d.add_control_files();
        for files in sets {
            d.add_files(files);
        }
        d
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add_files(&mut self, files: &[InputFile]) {
        for f in files {
            self.add(f.name.as_bytes());
            self.add(f.content.as_bytes());
        }
    }

    /// Every control file under `data/`, which all workloads share.
    fn add_control_files(&mut self) {
        self.add(EXPERIMENT_XML.as_bytes());
        self.add(INPUT_XML.as_bytes());
        for (_, xml) in QUERY_SET {
            self.add(xml.as_bytes());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What the Fig. 7 query must print for a given set of imported files,
/// computed from the generator's own numbers and not by the program under
/// test: per (chunk size, mode), the maximum `b_separate` over all ufs runs of
/// each technique, and list-less relative to list-based in percent.
#[derive(Default, Clone)]
pub struct Fig7Reference {
    /// (chunk, mode) → max bandwidth of [list-based, list-less].
    max: BTreeMap<(u64, &'static str), [f64; 2]>,
}

impl Fig7Reference {
    pub fn of(files: &[InputFile]) -> Fig7Reference {
        let mut r = Fig7Reference::default();
        for f in files {
            r.add(&f.run);
        }
        r
    }

    pub fn add(&mut self, run: &BeffIoRun) {
        if run.config.fs != FsType::Ufs {
            return;
        }
        let side = match run.config.technique {
            Technique::ListBased => 0,
            Technique::ListLess => 1,
        };
        for row in &run.rows {
            // The program sees the value as the file prints it: 3 decimals.
            let printed: f64 = format!("{:.3}", row.bandwidth[2])
                .parse()
                .expect("a formatted float parses");
            let slot = &mut self.max.entry((row.chunk, row.mode)).or_insert([0.0; 2])[side];
            *slot = slot.max(printed);
        }
    }

    /// Check the ascii table of the `fig7` spec: one row per (chunk, mode)
    /// with the expected percentage, and the planted list-less regression
    /// visible as the worst read-mode row, below −40 %.
    pub fn check(&self, ascii: &str) -> Result<(), String> {
        let mut seen = 0;
        let mut worst_read = f64::INFINITY;
        for line in ascii.lines() {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let [chunk, mode, value] = cells[..] else {
                continue;
            };
            let (Ok(chunk), Ok(value)) = (chunk.parse::<u64>(), value.parse::<f64>()) else {
                continue;
            };
            let Some(max) = self.max.get(&(chunk, mode_name(mode))) else {
                return Err(format!("unexpected row {chunk} | {mode}"));
            };
            let expected = (max[1] / max[0] - 1.0) * 100.0;
            if (value - expected).abs() > 1e-4 * expected.abs().max(1.0) {
                return Err(format!(
                    "row {chunk} | {mode}: got {value}, expected {expected:.6}"
                ));
            }
            if mode == "read" {
                worst_read = worst_read.min(value);
            }
            seen += 1;
        }
        if seen != self.max.len() {
            return Err(format!("{seen} table rows, expected {}", self.max.len()));
        }
        if worst_read >= -40.0 {
            return Err(format!(
                "planted list-less regression not visible: worst read-mode row is {worst_read:.1} %"
            ));
        }
        Ok(())
    }
}

/// Map a printed mode onto the generator's static names, so the lookup key
/// borrows nothing from the checked text.
fn mode_name(mode: &str) -> &'static str {
    match mode {
        "write" => "write",
        "rewrite" => "rewrite",
        "read" => "read",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_a_function_of_seed_and_repetition() {
        let a = campaign(1, 1, 3);
        let b = campaign(1, 3, 1);
        assert_eq!(a.len(), 18);
        assert_eq!(a[12].name, b[0].name);
        assert_eq!(a[12].content, b[0].content);
        let other = campaign(2, 1, 3);
        assert!(a.iter().zip(&other).all(|(x, y)| x.content != y.content));
        // No two files of a campaign share their content (the importer would
        // skip the second as a duplicate).
        let mut contents: Vec<&str> = a.iter().map(|f| f.content.as_str()).collect();
        contents.sort_unstable();
        contents.dedup();
        assert_eq!(contents.len(), 18);
        assert!(a.iter().all(|f| f.run.rows.len() == ROWS_PER_FILE));
    }

    #[test]
    fn digest_tells_seeds_apart_and_repeats() {
        let digest = |seed| Digest::of_inputs(&[&campaign(seed, 1, 2)]).hex();
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
        assert_eq!(digest(1).len(), 16);
    }

    #[test]
    fn reference_accepts_its_own_table_and_rejects_a_wrong_one() {
        let files = campaign(1, 1, 4);
        let reference = Fig7Reference::of(&files);
        let mut table = String::from("# title\nchunk | mode | rel\n------+------+-----\n");
        for (&(chunk, mode), max) in &reference.max {
            let rel = (max[1] / max[0] - 1.0) * 100.0;
            table.push_str(&format!("{chunk:<9} | {mode:<8} | {rel:.6}\n"));
        }
        reference.check(&table).unwrap();
        let missing_row: String = table.lines().take(20).map(|l| format!("{l}\n")).collect();
        assert!(reference.check(&missing_row).unwrap_err().contains("rows"));
        let wrong = table.replace("-6", "-5");
        assert!(reference.check(&wrong).is_err());
    }
}
