//! The workload half of the solver oracle suite: on every one of the 12
//! SPEC stand-ins, the worklist `solve` must be bit-identical to the
//! round-robin reference iteration on every problem the shipped analyses
//! pose — per-function liveness (backward) and reaching definitions
//! (forward, both entry policies), and the whole-program supergraph in
//! both directions.
//!
//! Synthetic shapes and the fuzzed CFG distribution live in
//! `crates/dataflow/tests/parallel_oracle.rs`; this file covers the
//! programs the repo actually analyzes.

use polyflow_cfg::Cfg;
use polyflow_dataflow::oracle::{
    check_against_oracle, function_liveness_problem, function_reaching_problem,
};
use polyflow_dataflow::{EntryDefs, SuperGraph};

#[test]
fn every_workload_function_matches_oracle() {
    for w in polyflow_workloads::all() {
        let cfgs = Cfg::build_all(&w.program);
        assert!(!cfgs.is_empty(), "{} has functions", w.name);
        for cfg in &cfgs {
            let fname = &cfg.function().name;
            let live = function_liveness_problem(&w.program, cfg);
            check_against_oracle(&live.as_problem())
                .unwrap_or_else(|e| panic!("{}::{fname} liveness: {e}", w.name));
            for entry in [EntryDefs::All, EntryDefs::Strict] {
                let reach = function_reaching_problem(&w.program, cfg, entry);
                check_against_oracle(&reach.as_problem())
                    .unwrap_or_else(|e| panic!("{}::{fname} reaching {entry:?}: {e}", w.name));
            }
        }
    }
}

#[test]
fn every_workload_supergraph_matches_oracle() {
    for w in polyflow_workloads::all() {
        let cfgs = Cfg::build_all(&w.program);
        let sg = SuperGraph::build(&w.program, &cfgs);
        assert!(!sg.is_empty(), "{} supergraph has nodes", w.name);
        check_against_oracle(&sg.liveness_problem())
            .unwrap_or_else(|e| panic!("{} supergraph liveness: {e}", w.name));
        check_against_oracle(&sg.forward_problem())
            .unwrap_or_else(|e| panic!("{} supergraph forward: {e}", w.name));
    }
}
