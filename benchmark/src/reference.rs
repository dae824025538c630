//! The reference kernel: a fixed piece of work of the benchmark's own, timed
//! between the program's operations, by which their latencies are brought to
//! one host speed.
//!
//! The 2-vCPU guests this benchmark runs on share their cores with
//! neighbours. For seconds to minutes at a time everything the program does
//! in user mode — no system time, no page faults, no steal time visible in
//! the guest — runs 1.3 to 2.5 times slower, and the median latency of one run
//! differs from the next run's by 15 to 35 %. A dependent chain of integer
//! operations barely notices those periods; code that hashes, allocates,
//! formats and sorts, as the program does, is slowed about as much as the
//! program is. The kernel below is such code. It runs once between any two
//! units of measured work, and a latency is reported as
//!
//! ```text
//! measured ms × NOMINAL_MS ÷ (mean of the kernel's ms just before and just after)
//! ```
//!
//! that is, in milliseconds of a host on which the kernel takes `NOMINAL_MS`.
//! A change to the program moves the numerator alone; the kernel is the
//! benchmark's and does not call the program.

use std::collections::HashMap;
use std::fmt::Write;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// What [`kernel`] takes on the host this benchmark was written on while
/// that host is quiet, so that a normalised latency is about the latency a
/// quiet run shows.
pub const NOMINAL_MS: f64 = 0.35;

/// Group 4000 numbers under 97 string keys, then print each group's mean in
/// key order: hashing, small allocations, float formatting and a sort, about
/// 0.4 ms. Nothing here may change once results have been recorded.
pub fn kernel() -> usize {
    let mut groups: HashMap<String, Vec<f64>> = HashMap::new();
    let mut key = String::new();
    for i in 0..4000u32 {
        key.clear();
        write!(key, "k{}", i % 97).expect("writing to a String");
        groups
            .entry(key.clone())
            .or_default()
            .push(f64::from(i) * 0.5);
    }
    let mut keys: Vec<&String> = groups.keys().collect();
    keys.sort();
    let mut out = String::new();
    for k in keys {
        let values = &groups[k];
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        writeln!(out, "{k}\t{mean:.3}").expect("writing to a String");
    }
    out.len()
}

/// A durable tick appends this much to its probe file before syncing it:
/// about the WAL frames of one imported file.
const PROBE_BYTES: usize = 2048;

/// Kernel runs per sync in a durable tick: a durable import is about three
/// parts computing to one part waiting for the disk.
const KERNELS_PER_SYNC: usize = 3;

/// What a durable tick takes on the same quiet host: three kernel runs and
/// 0.3 ms for the sync.
const DURABLE_NOMINAL_MS: f64 = KERNELS_PER_SYNC as f64 * NOMINAL_MS + 0.3;

/// One timed run of the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Seconds since the origin at which the kernel was half done.
    pub at: f64,
    pub ms: f64,
}

/// The kernel's times over a run, in time order.
#[derive(Debug)]
pub struct Reference {
    origin: Instant,
    ticks: Vec<Tick>,
    /// What one tick takes on the nominal host.
    nominal_ms: f64,
}

/// A reference for operations that end in a sync of the write-ahead log: the
/// disk's speed varies by itself, whatever the processor's does, so a tick of
/// this reference is three kernel runs and then 2 KiB appended to a file of
/// its own and synced, as the log is.
#[derive(Debug)]
pub struct DurableReference {
    reference: Reference,
    probe: File,
}

impl DurableReference {
    /// `probe` is the file to create and append to.
    pub fn create(probe: &Path) -> std::io::Result<DurableReference> {
        Ok(DurableReference {
            reference: Reference {
                nominal_ms: DURABLE_NOMINAL_MS,
                ..Reference::new()
            },
            probe: File::create(probe)?,
        })
    }

    pub fn tick(&mut self) -> std::io::Result<()> {
        let started = self.reference.now();
        for _ in 0..KERNELS_PER_SYNC {
            std::hint::black_box(kernel());
        }
        self.probe.write_all(&[0x5a; PROBE_BYTES])?;
        self.probe.sync_data()?;
        self.reference.record(started);
        Ok(())
    }

    /// The ticks so far, to scale latencies by.
    pub fn reference(&self) -> &Reference {
        &self.reference
    }

    pub fn into_reference(self) -> Reference {
        self.reference
    }
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            origin: Instant::now(),
            ticks: Vec::new(),
            nominal_ms: NOMINAL_MS,
        }
    }

    /// Seconds since the origin: the clock samples and ticks share.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Where the clock started, for a thread that times its own samples and
    /// cannot hold the reference itself.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Run the kernel once and record what it took.
    pub fn tick(&mut self) {
        let started = self.now();
        std::hint::black_box(kernel());
        self.record(started);
    }

    /// A tick that began at `started` ends now.
    fn record(&mut self, started: f64) {
        let ended = self.now();
        self.ticks.push(Tick {
            at: (started + ended) / 2.0,
            ms: (ended - started) * 1e3,
        });
    }

    /// Run the kernel `n` times and record their median as one tick, for
    /// where few latencies hang on each tick.
    pub fn tick_median_of(&mut self, n: usize) {
        let first = self.ticks.len();
        for _ in 0..n {
            self.tick();
        }
        let taken: Vec<Tick> = self.ticks.drain(first..).collect();
        let ms: Vec<f64> = taken.iter().map(|t| t.ms).collect();
        if let (Some(a), Some(b)) = (taken.first(), taken.last()) {
            self.ticks.push(Tick {
                at: (a.at + b.at) / 2.0,
                ms: crate::stats::median(&ms),
            });
        }
    }

    #[cfg(test)]
    pub fn with_ticks(ticks: &[(f64, f64)]) -> Reference {
        Reference {
            ticks: ticks.iter().map(|&(at, ms)| Tick { at, ms }).collect(),
            ..Reference::new()
        }
    }

    /// What a tick of this reference takes on the nominal host.
    pub fn nominal_ms(&self) -> f64 {
        self.nominal_ms
    }

    pub fn ticks(&self) -> &[Tick] {
        &self.ticks
    }

    /// The factor that brings a latency measured at `at` to the nominal host
    /// speed: the nominal time of a tick over the mean of the last tick before
    /// `at` and the first one after it (the one there is, at either end; 1
    /// without ticks).
    pub fn scale_at(&self, at: f64) -> f64 {
        let after = self.ticks.partition_point(|t| t.at <= at);
        let kernel_ms = match (after.checked_sub(1), self.ticks.get(after)) {
            (Some(before), Some(next)) => (self.ticks[before].ms + next.ms) / 2.0,
            (Some(before), None) => self.ticks[before].ms,
            (None, Some(next)) => next.ms,
            (None, None) => return 1.0,
        };
        self.nominal_ms / kernel_ms
    }

    /// Median of the kernel's times: how fast the host was during the run.
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.ticks.iter().map(|t| t.ms).collect();
        crate::stats::median(&ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
        // 97 lines of "k<n>\t<mean>\n".
        assert!(kernel() > 97 * 8);
    }

    #[test]
    fn a_latency_is_scaled_by_the_ticks_around_it() {
        let r = Reference::with_ticks(&[
            (1.0, NOMINAL_MS),
            (2.0, 2.0 * NOMINAL_MS),
            (3.0, 2.0 * NOMINAL_MS),
        ]);
        // Before the first and after the last tick: the nearest one.
        assert_eq!(r.scale_at(0.5), 1.0);
        assert_eq!(r.scale_at(3.5), 0.5);
        // Between two ticks: their mean, here 1.5 and 2 times the nominal.
        assert!((r.scale_at(1.5) - 1.0 / 1.5).abs() < 1e-12);
        assert_eq!(r.scale_at(2.5), 0.5);
        assert_eq!(r.median_ms(), 2.0 * NOMINAL_MS);
        // No ticks, no scaling.
        assert_eq!(Reference::with_ticks(&[]).scale_at(1.0), 1.0);
    }

    #[test]
    fn ticks_are_recorded_in_time_order_with_plausible_times() {
        let mut r = Reference::new();
        r.tick();
        r.tick();
        let [a, b] = r.ticks() else {
            panic!("two ticks")
        };
        assert!(a.at < b.at && a.ms > 0.0 && b.ms > 0.0);
        assert!(r.scale_at(r.now()) > 0.0);
    }
}
