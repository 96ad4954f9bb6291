//! Shared harness for regenerating the paper's figures.
//!
//! Each `fig*` binary in this crate reproduces one figure of the
//! evaluation (see DESIGN.md §4 for the experiment index). This library
//! holds the common machinery: preparing workloads, running policy
//! sweeps, and printing aligned tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use polyflow_core::{Policy, ProgramAnalysis};
use polyflow_isa::{execute_window, PcIndex, Program, Trace};
use polyflow_sim::{MachineConfig, PreparedTrace, TraceOracles};
use polyflow_workloads::Workload;
use std::sync::{Arc, Mutex};

pub mod cli;
pub mod fuzz;
pub mod pool;
pub mod stopwatch;
pub mod sweep;

/// A predictor configuration fingerprint ([`MachineConfig::predictor_key`]).
type PredictorKey = (usize, usize, usize);

/// A workload with its trace and spawn analysis, ready for policy sweeps.
///
/// The trace and its config-independent oracles ([`TraceOracles`]:
/// dataflow, PC index, consumer index) are computed once at preparation
/// and shared read-only (`Arc`) by every policy cell; the
/// per-predictor-configuration [`PreparedTrace`]s add only the
/// branch-prediction replay, built lazily and cached, so no run ever
/// re-derives them. Runs go through
/// [`sweep::run_cell_with_config_opts`].
#[derive(Debug)]
pub struct PreparedWorkload {
    /// Workload name (a bundled benchmark's paper x-axis label, or a
    /// runtime-loaded program's name).
    pub name: String,
    /// The program.
    pub program: Program,
    /// The static spawn-point analysis.
    pub analysis: ProgramAnalysis,
    oracles: Arc<TraceOracles>,
    preps: Mutex<Vec<(PredictorKey, PreparedTrace)>>,
}

impl PreparedWorkload {
    /// Executes and analyzes one workload and builds its trace oracles.
    /// Interpreter faults and non-termination come back as an error
    /// message, so untrusted runtime workloads (uploads, `--asm` files)
    /// degrade to a diagnostic.
    pub fn try_prepare(w: Workload) -> Result<PreparedWorkload, String> {
        let result = execute_window(&w.program, w.window)
            .map_err(|e| format!("{} failed to execute: {e}", w.name))?;
        if !result.halted {
            return Err(format!("{} did not halt in its window", w.name));
        }
        let analysis = ProgramAnalysis::analyze(&w.program);
        let oracles = Arc::new(TraceOracles::new(Arc::new(result.trace)));
        Ok(PreparedWorkload {
            name: w.name,
            program: w.program,
            analysis,
            oracles,
            preps: Mutex::new(Vec::new()),
        })
    }

    /// The retired-instruction trace.
    pub fn trace(&self) -> &Trace {
        self.oracles.trace()
    }

    /// The dynamic occurrences of each static PC (shared oracle).
    pub fn pc_index(&self) -> &PcIndex {
        self.oracles.pc_index()
    }

    /// The prepared trace for `cfg`: built once per predictor
    /// configuration ([`MachineConfig::predictor_key`]) on first use, by
    /// replaying the branch predictors over the shared oracles, and
    /// shared (cheap `Arc` clones) by every subsequent run, across
    /// threads. The superscalar baseline and the PolyFlow machine share a
    /// key, so a full figure grid prepares each workload exactly once.
    pub fn prepared(&self, cfg: &MachineConfig) -> PreparedTrace {
        let key = cfg.predictor_key();
        let mut cache = self.preps.lock().unwrap();
        if let Some((_, p)) = cache.iter().find(|(k, _)| *k == key) {
            return p.clone();
        }
        let p = self.oracles.prepare(cfg);
        cache.push((key, p.clone()));
        p
    }
}

/// Prepares every bundled workload (or a named subset), fanning the
/// interpret + analyze + oracle work out across `jobs` pool workers.
///
/// # Panics
///
/// Panics if a bundled workload fails to prepare; every one is tested
/// to halt within its window.
pub fn prepare_all_jobs(filter: &[String], jobs: usize) -> Vec<PreparedWorkload> {
    let selected: Vec<Workload> = polyflow_workloads::all()
        .into_iter()
        .filter(|w| filter.is_empty() || filter.contains(&w.name))
        .collect();
    pool::parallel_map(selected, jobs, |_, w| {
        PreparedWorkload::try_prepare(w).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// The workloads a command line selects: the bundled workloads matching
/// the positional names, then every `--asm <path>` runtime workload, in
/// command-line order. When `--asm` files are given and no bundled names
/// are listed, only the files run (bring-your-own-workload mode);
/// listing names alongside `--asm` runs both. `lint` and the figure
/// binaries all select through here.
///
/// Exits with status 2 (like other CLI errors) when a file cannot be
/// read or fails to assemble.
pub fn select_workloads(args: &cli::Args) -> Vec<Workload> {
    let asm = args.texts(&cli::ASM);
    let mut selected: Vec<Workload> = if asm.is_empty() || !args.filter.is_empty() {
        polyflow_workloads::all()
            .into_iter()
            .filter(|w| args.filter.is_empty() || args.filter.contains(&w.name))
            .collect()
    } else {
        Vec::new()
    };
    for path in asm {
        selected.push(polyflow_workloads::from_asm_file(path).unwrap_or_else(|e| {
            eprintln!("cannot load workload `{path}`: {e}");
            std::process::exit(2);
        }));
    }
    selected
}

/// Prepares a figure bin's workload selection ([`select_workloads`]) on
/// the pool's workers. Exits with status 2 when a workload does not
/// halt within its window.
pub fn prepare_selection(args: &cli::Args) -> Vec<PreparedWorkload> {
    pool::parallel_map(select_workloads(args), args.jobs(), |_, w| {
        PreparedWorkload::try_prepare(w)
    })
    .into_iter()
    .map(|prepared| {
        prepared.unwrap_or_else(|e| {
            eprintln!("cannot prepare workload: {e}");
            std::process::exit(2);
        })
    })
    .collect()
}

/// Parses a policy by its display name ([`Policy::name`]), as used on the
/// `explain` command line. `"superscalar"` / `"baseline"` / `"none"` name
/// the no-spawn baseline.
pub fn parse_policy(s: &str) -> Option<Policy> {
    match s {
        "superscalar" | "baseline" | "none" => Some(Policy::None),
        "loop" => Some(Policy::Loop),
        "loopFT" => Some(Policy::LoopFt),
        "procFT" => Some(Policy::ProcFt),
        "hammock" => Some(Policy::Hammock),
        "other" => Some(Policy::Other),
        "postdoms" => Some(Policy::Postdoms),
        _ => None,
    }
}

/// The policy names [`parse_policy`] accepts (for usage messages).
pub const POLICY_NAMES: &[&str] = &[
    "superscalar",
    "loop",
    "loopFT",
    "procFT",
    "hammock",
    "other",
    "postdoms",
];

/// Renders a speedup table as CSV (`benchmark,ss_ipc,<columns...>`).
/// NaN entries — cells the sweep engine marked failed — render as the
/// literal `FAILED` so a degraded figure is machine-detectable.
pub fn speedup_csv(rows: &[(String, f64, Vec<f64>)], columns: &[String]) -> String {
    let mut out = format!("benchmark,ss_ipc,{}\n", columns.join(","));
    for (name, ipc, speedups) in rows {
        let vals: Vec<String> = speedups
            .iter()
            .map(|s| {
                if s.is_nan() {
                    "FAILED".to_string()
                } else {
                    format!("{s:.2}")
                }
            })
            .collect();
        let ipc = if ipc.is_nan() {
            "FAILED".to_string()
        } else {
            format!("{ipc:.3}")
        };
        out.push_str(&format!("{name},{ipc},{}\n", vals.join(",")));
    }
    out
}

/// Emits a speedup table as CSV (`benchmark,ss_ipc,<columns...>`).
pub fn print_speedup_csv(rows: &[(String, f64, Vec<f64>)], columns: &[String]) {
    print!("{}", speedup_csv(rows, columns));
}

/// Prints a speedup table: one row per workload, one column per policy,
/// with a geometric-mean-free arithmetic average row (the paper averages
/// arithmetically). NaN entries — failed sweep cells — render as
/// `FAILED` and are excluded from the column average (an all-failed
/// column averages to `FAILED` too).
pub fn print_speedup_table(
    title: &str,
    rows: &[(String, f64, Vec<f64>)], // (name, baseline IPC, speedups %)
    columns: &[String],
) {
    println!("== {title} ==");
    print!("{:<12} {:>8}", "benchmark", "ss IPC");
    for c in columns {
        print!(" {c:>24}");
    }
    println!();
    let mut sums = vec![0.0; columns.len()];
    let mut counts = vec![0usize; columns.len()];
    for (name, ipc, speedups) in rows {
        if ipc.is_nan() {
            print!("{name:<12} {:>8}", "FAILED");
        } else {
            print!("{name:<12} {ipc:>8.2}");
        }
        for (i, s) in speedups.iter().enumerate() {
            if s.is_nan() {
                print!(" {:>24}", "FAILED");
            } else {
                print!(" {s:>23.1}%");
                sums[i] += s;
                counts[i] += 1;
            }
        }
        println!();
    }
    print!("{:<12} {:>8}", "Average", "");
    for (s, n) in sums.iter().zip(&counts) {
        if *n == 0 {
            print!(" {:>24}", "FAILED");
        } else {
            print!(" {:>23.1}%", s / *n as f64);
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_cell_with_config_opts, Cell};
    use polyflow_sim::SimScratch;

    #[test]
    fn prepare_one_workload() {
        let w = polyflow_workloads::by_name("bzip2").unwrap();
        let pw = PreparedWorkload::try_prepare(w).unwrap();
        assert_eq!(pw.name, "bzip2");
        assert!(!pw.trace().is_empty());
        assert!(!pw.analysis.candidates().is_empty());
    }

    #[test]
    fn failed_cells_render_in_csv() {
        let rows = vec![
            ("gzip".to_string(), 1.234, vec![10.0, f64::NAN]),
            ("mcf".to_string(), f64::NAN, vec![f64::NAN, f64::NAN]),
        ];
        let cols = vec!["a".to_string(), "b".to_string()];
        let csv = speedup_csv(&rows, &cols);
        assert!(csv.contains("gzip,1.234,10.00,FAILED"));
        assert!(csv.contains("mcf,FAILED,FAILED,FAILED"));
    }

    #[test]
    fn baseline_and_policy_share_work() {
        let w = polyflow_workloads::by_name("gzip").unwrap();
        let pw = PreparedWorkload::try_prepare(w).unwrap();
        let mut scratch = SimScratch::default();
        let mut run = |cell: Cell| {
            run_cell_with_config_opts(&pw, cell, &cell.machine(), &mut scratch, Default::default())
                .unwrap()
                .0
        };
        let base = run(Cell::Baseline);
        let pd = run(Cell::Static(Policy::Postdoms));
        assert_eq!(base.instructions, pd.instructions);
    }
}
