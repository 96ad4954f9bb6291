//! Per-workload simulator throughput benchmark.
//!
//! Runs the superscalar baseline and the combined-postdominator policy
//! over each bundled workload on one thread, repeats the pair
//! `--repeat` times, and reports the best wall-clock per workload as
//! cells/sec together with the cycle-skip telemetry (how much of the
//! simulated time the event-driven core fast-forwarded). `--json` emits
//! a machine-readable report for trend tracking (`bench_compare` diffs
//! two such files only loosely — this report carries per-workload rows,
//! `BENCH_sweep.json` carries per-cell rows).
//!
//! Usage: `simbench [--repeat N] [--max-cycles N] [--asm PATH] [--json] [workload ...]`

use polyflow_bench::sweep::{run_cell_with_config_opts, Cell};
use polyflow_bench::{cli, prepare_selection};
use polyflow_core::Policy;
use polyflow_sim::{SimOptions, SimScratch};
use std::time::Instant;

const REPEAT: cli::Flag = cli::Flag {
    name: "--repeat",
    value: Some("N"),
    help: "timing repetitions per workload, best kept (default: 3)",
};

const JSON: cli::Flag = cli::Flag {
    name: "--json",
    value: None,
    help: "emit a machine-readable JSON report instead of the table",
};

const SPEC: cli::Spec = cli::Spec {
    name: "simbench",
    about: "Per-workload simulator throughput (cells/sec) with cycle-skip \
            telemetry",
    flags: &[REPEAT, cli::MAX_CYCLES, cli::ASM, JSON],
    takes_workloads: true,
};

struct Row {
    workload: String,
    cells: usize,
    best_seconds: f64,
    executed_cycles: u64,
    skipped_cycles: u64,
}

impl Row {
    fn cells_per_second(&self) -> f64 {
        self.cells as f64 / self.best_seconds.max(1e-9)
    }

    fn skip_fraction(&self) -> f64 {
        let total = self.executed_cycles + self.skipped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }
}

fn main() {
    let args = cli::parse(&SPEC);
    let repeat = args.number(&REPEAT).unwrap_or(3).max(1);
    let json = args.switch(&JSON);
    let workloads = prepare_selection(&args);

    let cells = [Cell::Baseline, Cell::Static(Policy::Postdoms)].map(|c| (c, args.machine(c)));

    let mut scratch = SimScratch::default();
    let mut rows = Vec::with_capacity(workloads.len());
    let mut failed = false;
    for w in &workloads {
        // Warm the lazy prepared-trace caches so the timed reps measure
        // simulation, not trace preparation.
        for (_, cfg) in &cells {
            let _ = w.prepared(cfg);
        }
        let mut best = f64::INFINITY;
        let mut executed = 0u64;
        let mut skipped = 0u64;
        for _ in 0..repeat {
            let t0 = Instant::now();
            executed = 0;
            skipped = 0;
            for (cell, cfg) in &cells {
                match run_cell_with_config_opts(w, *cell, cfg, &mut scratch, SimOptions::default())
                {
                    Ok((_, telemetry)) => {
                        executed += telemetry.executed_cycles;
                        skipped += telemetry.skipped_cycles;
                    }
                    Err(e) => {
                        eprintln!("[simbench] FAILED {}/{}: {e}", w.name, cell.label());
                        failed = true;
                    }
                }
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        rows.push(Row {
            workload: w.name.clone(),
            cells: cells.len(),
            best_seconds: best,
            executed_cycles: executed,
            skipped_cycles: skipped,
        });
    }

    let total_cells: usize = rows.iter().map(|r| r.cells).sum();
    let total_seconds: f64 = rows.iter().map(|r| r.best_seconds).sum();
    let total_cps = total_cells as f64 / total_seconds.max(1e-9);
    if json {
        println!("{}", to_json(&rows, repeat, total_cps));
    } else {
        println!("== simbench: best of {repeat} rep(s), 1 worker ==");
        println!(
            "{:<12} {:>10} {:>12} {:>16} {:>16} {:>8}",
            "workload", "seconds", "cells/sec", "executed_cycles", "skipped_cycles", "skip%"
        );
        for r in &rows {
            println!(
                "{:<12} {:>10.3} {:>12.1} {:>16} {:>16} {:>7.1}%",
                r.workload,
                r.best_seconds,
                r.cells_per_second(),
                r.executed_cycles,
                r.skipped_cycles,
                r.skip_fraction() * 100.0
            );
        }
        println!("total: {total_cells} cells, {total_seconds:.3} s ({total_cps:.1} cells/sec)");
    }
    if failed {
        std::process::exit(1);
    }
}

/// Hand-rolled JSON (the workspace takes no serde dependency).
fn to_json(rows: &[Row], repeat: u64, total_cps: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"name\": \"simbench\",\n");
    out.push_str(&format!("  \"repeat\": {repeat},\n"));
    out.push_str(&format!("  \"total_cells_per_second\": {total_cps:.3},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"cells\": {}, \"best_seconds\": {:.6}, \
             \"cells_per_second\": {:.3}, \"executed_cycles\": {}, \
             \"skipped_cycles\": {}, \"skip_fraction\": {:.4}}}{comma}\n",
            r.workload,
            r.cells,
            r.best_seconds,
            r.cells_per_second(),
            r.executed_cycles,
            r.skipped_cycles,
            r.skip_fraction()
        ));
    }
    out.push_str("  ]\n}");
    out
}
