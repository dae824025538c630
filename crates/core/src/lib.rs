//! `perfbase-core` — experiment management and analysis.
//!
//! This crate implements the perfbase system of Worringen (CLUSTER 2005):
//! experiments are defined in XML, runs are imported from arbitrary ASCII
//! output files driven by XML *input descriptions*, everything is stored in
//! an SQL database, and XML *query specifications* wire
//! `source → operator → combiner → output` elements into a dataflow graph
//! whose elements hand each other data vectors — tables held by value, where
//! the paper's elements pass temporary database tables.
//!
//! Module map (paper section in parentheses):
//!
//! * [`experiment`] — experiment definition, runs, access control (§3.1)
//! * [`units`] — variable units with correct conversion (Fig. 5)
//! * [`xmldef`] — XML form of the definition (Fig. 5)

pub mod anomaly;
pub mod error;
pub mod experiment;
pub mod import;
pub mod input;
pub mod output;
pub mod query;
pub mod status;
pub mod units;
pub mod xmldef;

pub use error::{Error, Result};
