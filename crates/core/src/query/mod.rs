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
