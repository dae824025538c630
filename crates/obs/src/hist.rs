//! Fixed-bucket histograms: 32 power-of-two buckets of relaxed atomics.
//!
//! Bucket `i` holds values in `[2^i, 2^(i+1))` (bucket 0 additionally
//! holds zero; bucket 31 holds everything from `2^31` up). Recording is
//! a leading-zeros computation plus two relaxed RMWs (sum + bucket; the
//! count is derived from the buckets at snapshot time) — no allocation,
//! no locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets per histogram.
pub const BUCKETS: usize = 32;

macro_rules! hists {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// One engine histogram; values are nanoseconds unless the name
        /// says otherwise.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Hist {
            $($(#[$doc])* $variant,)+
        }

        impl Hist {
            /// Every histogram, in declaration order.
            pub const ALL: &'static [Hist] = &[$(Hist::$variant,)+];

            /// Report name, `area.metric`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Hist::$variant => $name,)+
                }
            }
        }
    };
}

hists! {
    /// SQL parse latency per statement.
    ParseNs => "sql.parse_ns",
    /// Statement execution latency (post-parse).
    ExecNs => "sql.exec_ns",
    /// Access-path planning latency per single-table selection that had a
    /// WHERE clause and an index to weigh.
    PlanNs => "plan.plan_ns",
    /// WAL append latency (encode + write + any inline sync).
    WalAppendNs => "wal.append_ns",
    /// WAL fsync latency.
    WalFsyncNs => "wal.fsync_ns",
    /// Frames made durable per fsync (group-commit batch size).
    WalBatchFrames => "wal.batch_frames",
    /// Query-DAG element wall time.
    ElementNs => "dag.element_ns",
    /// Rows per cluster shipment.
    ShipmentRows => "cluster.shipment_rows",
    /// `/query` endpoint latency (admission wait + execution + render).
    HttpQueryNs => "http.query_ns",
    /// `/ingest` endpoint latency (admission wait + execution).
    HttpIngestNs => "http.ingest_ns",
    /// `/stats` endpoint latency.
    HttpStatsNs => "http.stats_ns",
    /// Latency of every other endpoint (health, epoch, sessions, shutdown).
    HttpOtherNs => "http.other_ns",
    /// Latency of shipping one batch of WAL frames to every live replica.
    ReplShipNs => "repl.ship_ns",
    /// Failover latency: promoting the most-caught-up replica, including
    /// the replay of its shipped-but-unapplied tail.
    ReplFailoverNs => "repl.failover_ns",
}

const N: usize = Hist::ALL.len();

struct Cell {
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Cell {
    const fn new() -> Cell {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Cell {
            sum: ZERO,
            buckets: [ZERO; BUCKETS],
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Cell = Cell::new();
static HISTS: [Cell; N] = [EMPTY; N];

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Record one value (no-op when stats are disabled).
#[inline]
pub fn record(h: Hist, v: u64) {
    if crate::stats_enabled() {
        let cell = &HISTS[h as usize];
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Record a [`Duration`] as nanoseconds.
#[inline]
pub fn record_duration(h: Hist, d: Duration) {
    record(h, d.as_nanos() as u64);
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Report name.
    pub name: &'static str,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: [u64; BUCKETS],
}

impl HistSnapshot {
    /// Arithmetic mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`); 0 when empty. Approximate by construction: the
    /// answer is exact only up to bucket granularity (a factor of two).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// Snapshot every histogram (zero-count ones included).
pub fn hist_snapshot() -> Vec<HistSnapshot> {
    Hist::ALL
        .iter()
        .map(|&h| {
            let cell = &HISTS[h as usize];
            let mut buckets = [0u64; BUCKETS];
            for (dst, src) in buckets.iter_mut().zip(cell.buckets.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            HistSnapshot {
                name: h.name(),
                count: buckets.iter().sum(),
                sum: cell.sum.load(Ordering::Relaxed),
                buckets,
            }
        })
        .collect()
}

pub(crate) fn reset_hists() {
    for cell in &HISTS {
        cell.sum.store(0, Ordering::Relaxed);
        for b in &cell.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn mean_and_quantile() {
        let _g = crate::test_guard();
        crate::set_stats_enabled(true);
        // ShipmentRows is otherwise unused by obs's own tests.
        let base = hist_snapshot()
            .into_iter()
            .find(|s| s.name == "cluster.shipment_rows")
            .unwrap();
        for v in [1u64, 2, 4, 8, 1000] {
            record(Hist::ShipmentRows, v);
        }
        let snap = hist_snapshot()
            .into_iter()
            .find(|s| s.name == "cluster.shipment_rows")
            .unwrap();
        assert_eq!(snap.count, base.count + 5);
        assert_eq!(snap.sum, base.sum + 1015);
        assert!(snap.mean() > 0.0);
        // The p99 bucket bound must cover the largest recorded value.
        assert!(snap.quantile(0.99) >= 1000);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let s = HistSnapshot {
            name: "x",
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        };
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
    }
}
