//! Re-export of the work-stealing pool.
//!
//! The pool started life here, owned by the sweep harness, and now lives
//! in the bottom-layer [`polyflow_pool`] crate. This module keeps every
//! `polyflow_bench::pool::*` path working; serve reaches the pool
//! through it.

pub use polyflow_pool::{default_jobs, parallel_map, StealDeque};
