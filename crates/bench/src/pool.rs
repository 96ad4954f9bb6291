//! Re-export of the work-stealing pool.
//!
//! The pool started life here, owned by the sweep harness. When the
//! SCC-parallel dataflow solver (`polyflow_dataflow::parallel`) needed to
//! schedule over the same deques, the implementation moved to the
//! bottom-layer [`polyflow_pool`] crate (bench depends on core depends on
//! dataflow, so dataflow cannot reach back up to bench). This module
//! keeps every historical `polyflow_bench::pool::*` path working.

pub use polyflow_pool::{default_jobs, parallel_map, resolve_jobs, StealDeque};
