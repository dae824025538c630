//! Per-statement-class accounting: a fixed matrix of relaxed atomics
//! keyed by (statement class × metric), plus a thread-local "current
//! class" that lets lower layers (the WAL) attribute their costs to the
//! statement that caused them.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! classes {
    ($($variant:ident => $name:literal,)+) => {
        /// Coarse statement classification for per-class metrics.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum StmtClass {
            $(
                #[doc = $name]
                $variant,
            )+
        }

        impl StmtClass {
            /// Every class, in declaration order.
            pub const ALL: &'static [StmtClass] = &[$(StmtClass::$variant,)+];

            /// Report name (lower-case).
            pub fn name(self) -> &'static str {
                match self {
                    $(StmtClass::$variant => $name,)+
                }
            }
        }
    };
}

classes! {
    Select => "select",
    Explain => "explain",
    Insert => "insert",
    Update => "update",
    Delete => "delete",
    Ddl => "ddl",
    Other => "other",
}

const NCLASS: usize = StmtClass::ALL.len();
const NMETRIC: usize = 5; // statements, exec_ns, wal_appends, wal_fsyncs, wal_fsync_ns

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static MATRIX: [AtomicU64; NCLASS * NMETRIC] = [ZERO; NCLASS * NMETRIC];

thread_local! {
    static CURRENT: Cell<StmtClass> = const { Cell::new(StmtClass::Other) };
}

#[inline]
fn cell(class: StmtClass, metric: usize) -> &'static AtomicU64 {
    &MATRIX[class as usize * NMETRIC + metric]
}

/// The calling thread's current statement class (defaults to `other`).
pub fn current_class() -> StmtClass {
    CURRENT.with(Cell::get)
}

/// RAII guard restoring the previous statement class on drop.
pub struct ClassScope {
    prev: StmtClass,
}

/// Set the calling thread's statement class for the lifetime of the
/// returned guard. Costs attributed via [`crate::wal_append`] /
/// [`crate::wal_fsync`] inside the scope land on this class.
pub fn class_scope(class: StmtClass) -> ClassScope {
    let prev = CURRENT.with(|c| c.replace(class));
    ClassScope { prev }
}

impl Drop for ClassScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Record one executed statement of `class` with its execution latency.
pub fn record_statement(class: StmtClass, exec_ns: u64) {
    record_statements(class, 1, exec_ns);
}

/// Record `n` executed statements of `class` that took `exec_ns` together —
/// for work timed as a whole because a clock read around each piece would
/// cost a good part of the piece.
pub fn record_statements(class: StmtClass, n: u64, exec_ns: u64) {
    if n != 0 && crate::stats_enabled() {
        cell(class, 0).fetch_add(n, Ordering::Relaxed);
        cell(class, 1).fetch_add(exec_ns, Ordering::Relaxed);
    }
}

pub(crate) fn class_wal_append() {
    if crate::stats_enabled() {
        cell(current_class(), 2).fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) fn class_wal_fsync(ns: u64) {
    if crate::stats_enabled() {
        let c = current_class();
        cell(c, 3).fetch_add(1, Ordering::Relaxed);
        cell(c, 4).fetch_add(ns, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one statement class's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// Class name (`select`, `insert`, …).
    pub class: &'static str,
    /// Statements executed.
    pub statements: u64,
    /// Total execution time, nanoseconds.
    pub exec_ns: u64,
    /// WAL appends attributed to this class.
    pub wal_appends: u64,
    /// WAL fsyncs attributed to this class.
    pub wal_fsyncs: u64,
    /// Total WAL fsync time attributed to this class, nanoseconds.
    pub wal_fsync_ns: u64,
}

impl ClassStats {
    /// Mean execution latency per statement, nanoseconds.
    pub fn exec_avg_ns(&self) -> f64 {
        if self.statements == 0 {
            0.0
        } else {
            self.exec_ns as f64 / self.statements as f64
        }
    }

    /// Mean fsync latency per attributed fsync, nanoseconds.
    pub fn fsync_avg_ns(&self) -> f64 {
        if self.wal_fsyncs == 0 {
            0.0
        } else {
            self.wal_fsync_ns as f64 / self.wal_fsyncs as f64
        }
    }
}

/// Snapshot every statement class, in declaration order.
pub fn class_snapshot() -> Vec<ClassStats> {
    StmtClass::ALL
        .iter()
        .map(|&c| ClassStats {
            class: c.name(),
            statements: cell(c, 0).load(Ordering::Relaxed),
            exec_ns: cell(c, 1).load(Ordering::Relaxed),
            wal_appends: cell(c, 2).load(Ordering::Relaxed),
            wal_fsyncs: cell(c, 3).load(Ordering::Relaxed),
            wal_fsync_ns: cell(c, 4).load(Ordering::Relaxed),
        })
        .collect()
}

pub(crate) fn reset_classes() {
    for cell in &MATRIX {
        cell.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current_class(), StmtClass::Other);
        {
            let _a = class_scope(StmtClass::Insert);
            assert_eq!(current_class(), StmtClass::Insert);
            {
                let _b = class_scope(StmtClass::Select);
                assert_eq!(current_class(), StmtClass::Select);
            }
            assert_eq!(current_class(), StmtClass::Insert);
        }
        assert_eq!(current_class(), StmtClass::Other);
    }

    #[test]
    fn statement_accounting_and_averages() {
        let _g = crate::test_guard();
        crate::set_stats_enabled(true);
        let before = class_snapshot()
            .into_iter()
            .find(|c| c.class == "update")
            .unwrap();
        record_statement(StmtClass::Update, 2_000);
        record_statements(StmtClass::Update, 0, 9_000);
        record_statements(StmtClass::Update, 3, 4_000);
        let after = class_snapshot()
            .into_iter()
            .find(|c| c.class == "update")
            .unwrap();
        assert_eq!(after.statements, before.statements + 4);
        assert_eq!(after.exec_ns, before.exec_ns + 6_000);
        assert!(after.exec_avg_ns() > 0.0);
        let empty = ClassStats {
            class: "x",
            statements: 0,
            exec_ns: 0,
            wal_appends: 0,
            wal_fsyncs: 0,
            wal_fsync_ns: 0,
        };
        assert_eq!(empty.exec_avg_ns(), 0.0);
        assert_eq!(empty.fsync_avg_ns(), 0.0);
    }
}
