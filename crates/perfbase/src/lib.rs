//! `perfbase` — experiment management and analysis.
//!
//! A from-scratch Rust implementation of *perfbase* (J. Worringen,
//! "Experiment Management and Analysis with perfbase", IEEE CLUSTER 2005):
//! a system that manages the ASCII output files of experiments in an SQL
//! database and analyses them through declarative XML queries.
//!
//! This crate is the facade: it re-exports the public API of every layer
//! and hosts the `perfbase` command-line frontend.
//!
//! # The workflow (paper §3)
//!
//! 1. **Define** the experiment: variables (input parameters and result
//!    values) with types, units and valid content — [`core::xmldef`].
//! 2. **Import** runs: XML input descriptions locate variable content in
//!    arbitrary ASCII output files — [`core::input`], [`core::import`].
//! 3. **Query**: `source → operator → combiner → output` dataflow graphs
//!    whose elements hand each other typed data vectors and aggregate in
//!    the database's executor — [`core::query`].
//!
//! ```
//! use perfbase::core::experiment::{ExperimentDb, ExperimentDef, Meta, Variable, VarKind};
//! use perfbase::core::import::Importer;
//! use perfbase::core::input::input_description_from_str;
//! use perfbase::core::query::{spec::query_from_str, QueryRunner};
//! use perfbase::sqldb::{DataType, Engine};
//! use std::sync::Arc;
//!
//! // 1. define
//! let mut def = ExperimentDef::new(Meta { name: "demo".into(), ..Meta::default() }, "me");
//! def.add_variable(Variable::new("n", VarKind::Parameter, DataType::Int).once()).unwrap();
//! def.add_variable(Variable::new("elapsed", VarKind::ResultValue, DataType::Float).once()).unwrap();
//! let db = ExperimentDb::create(Arc::new(Engine::new()), def).unwrap();
//!
//! // 2. import
//! let desc = input_description_from_str(r#"<input>
//!   <named><variable>n</variable><match>n =</match></named>
//!   <named><variable>elapsed</variable><match>elapsed =</match></named>
//! </input>"#).unwrap();
//! Importer::new(&db).import_file(&desc, "run1.out", "n = 4\nelapsed = 1.25\n").unwrap();
//!
//! // 3. query
//! let q = query_from_str(r#"<query name="q">
//!   <source id="s"><parameter name="n" carry="true"/><value name="elapsed"/></source>
//!   <output id="o" input="s" format="csv"/>
//! </query>"#).unwrap();
//! let out = QueryRunner::new(&db).run(q).unwrap();
//! assert_eq!(out.artifacts["o"].trim(), "n,elapsed\n4,1.25");
//! ```

pub use exprcalc;
pub use obs;
pub use perfbase_core as core;
pub use rematch;
pub use sqldb;
pub use workloads;
pub use xmlite;

pub mod cli;
