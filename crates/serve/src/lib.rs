//! `polyflow-serve`: a long-running, deterministic simulation service.
//!
//! The figure binaries answer one question per process; this crate turns
//! the same engine into a server: newline-delimited JSON over TCP
//! ([`protocol`]), a sharded LRU result cache keyed by
//! `(workload, config fingerprint, policy)` ([`cache`]), bounded
//! admission with typed overload shedding, and persistent simulation
//! workers that each answer a cell the moment it finishes, with
//! duplicate requests joining the cell already in flight ([`service`])
//! — all with **zero** external dependencies (`std::net`, the
//! workspace's hand-rolled JSON reader and writer, re-exported as
//! [`json`], and a direct `signal(2)` declaration in [`signal`]).
//!
//! The invariant that makes caching and deduplication safe to layer on
//! a correctness-critical simulator: a served response is
//! **byte-identical** to an offline run of the same cell — same config,
//! same [`run_cell_with_config_opts`] entry point, same rendering —
//! regardless of worker count, which cells ran side by side, or whether
//! the cache answered. See DESIGN.md §11 for the full argument.
//!
//! The fault-survival layer hardens the service against the failure
//! modes a long-running deployment actually sees: a crash-safe on-disk
//! cache journal for warm restarts ([`journal`]), per-request deadlines
//! propagated into the workers ([`service`]), a retrying client with
//! decorrelated-jitter backoff ([`client`]), and a seeded
//! fault-injection TCP proxy that proves the whole stack never serves a
//! wrong answer under network chaos ([`chaos`]).
//!
//! Binaries: `serve` (the server), `loadgen` (closed-loop load
//! generator reporting throughput, latency percentiles, and cache
//! counters), and `chaos` (the fault-injection proxy).
//!
//! [`run_cell_with_config_opts`]: polyflow_bench::sweep::run_cell_with_config_opts

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod journal;
pub mod json;
pub mod protocol;
pub mod reactor;
pub mod router;
pub mod server;
pub mod service;
pub mod signal;
pub mod verify;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use chaos::{ChaosConfig, ChaosProxy, FaultCounts};
pub use client::{Client as RetryClient, ClientConfig, ClientStats, Outcome};
pub use journal::{Journal, RecoveryReport};
pub use protocol::{ErrorKind, Request, ServeError, SimRequest, SimSource};
pub use server::Server;
pub use service::{Service, ServiceConfig, ServiceStats, Ticket};
