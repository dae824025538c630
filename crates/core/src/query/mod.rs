//! The query subsystem (paper §3.3, Figs. 2 and 7).
//!
//! A query is a dataflow graph of four element kinds:
//!
//! * **source** — retrieves data tuples from the experiment database,
//!   filtered by input parameters and run properties;
//! * **operator** — applies statistical functions, reductions and
//!   arithmetic to vectors;
//! * **combiner** — merges two vectors into one;
//! * **output** — renders vectors as Gnuplot input, ASCII tables, CSV,
//!   LaTeX or XML tables.
//!
//! Elements hand each other **data vectors**: a table of typed columns
//! ([`DataVector::table`], shared by `Arc`) plus column metadata. The paper's
//! elements pass the names of PostgreSQL temporary tables (§4.2) because
//! they are processes talking to a database server; here elements and engine
//! share an address space, so the edge is the table itself and a query writes
//! nothing to any catalog — aggregation still runs in the database's executor
//! (`sqldb::Table::select`). [`exec`] holds the one runner: sequential by
//! default, optionally with the ready elements of each wave on threads
//! and/or placed across the nodes of a simulated database cluster (Fig. 3);
//! [`parallel`] predicts the scaling curve from its timings.
#![warn(missing_docs)]

pub mod dag;
pub mod exec;
pub mod parallel;
pub mod spec;

pub use dag::QueryDag;
pub use exec::{ElementTiming, QueryOutcome, QueryRunner};
pub use spec::{
    CombinerSpec, ElementKind, ElementSpec, Filter, FilterOp, OpKind, OperatorSpec, OutputFormat,
    OutputSpec, PlotStyle, QuerySpec, RunFilter, SourceSpec,
};

use sqldb::{Table, Value, ValueKey};
use std::collections::HashMap;
use std::sync::Arc;

/// A data vector flowing between query elements: its rows as a table of
/// typed columns plus column metadata.
#[derive(Debug, Clone)]
pub struct DataVector {
    /// The rows; shared between the producer's outcome and every consumer.
    pub table: Arc<sqldb::Table>,
    /// Parameter columns (the dimensions the data varies over).
    pub params: Vec<String>,
    /// Value columns (the measured results).
    pub values: Vec<String>,
    /// Human-readable column labels (with units) for output elements.
    pub labels: HashMap<String, String>,
}

impl DataVector {
    /// Label for a column (falls back to the bare name).
    pub fn label(&self, column: &str) -> String {
        self.labels
            .get(column)
            .cloned()
            .unwrap_or_else(|| column.to_string())
    }
}

/// The one key identity of `core` (DESIGN.md §4l): a key is a tuple of cells
/// under the engine's grouping identity ([`ValueKey`]: `1` is `1.0`, `-0.0`
/// is `0.0`, text is its string), with NULL equal to NULL, and each distinct
/// key gets the next id the first time it is seen. Element-wise alignment,
/// the combiner, the anomaly screen and status retrieval's distinct contents
/// and sweep holes key their rows through it (aggregates group in the
/// engine, by the same identity).
#[derive(Debug, Default)]
pub(crate) struct KeyIds(HashMap<Vec<ValueKey>, usize>);

impl KeyIds {
    /// The id of `key`.
    fn intern(&mut self, key: Vec<ValueKey>) -> usize {
        let next = self.0.len();
        *self.0.entry(key).or_insert(next)
    }

    /// The id of the key `cells`.
    pub(crate) fn id(&mut self, cells: &[Value]) -> usize {
        self.intern(cells.iter().map(ValueKey::of).collect())
    }

    /// The id of each row of `table`, keyed by its columns `cols`.
    pub(crate) fn rows(&mut self, table: &Table, cols: &[usize]) -> Vec<usize> {
        (0..table.len())
            .map(|p| {
                self.intern(
                    cols.iter()
                        .map(|&c| ValueKey::of(&table.value(p, c)))
                        .collect(),
                )
            })
            .collect()
    }

    /// Number of distinct keys seen: every id is below it.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}
