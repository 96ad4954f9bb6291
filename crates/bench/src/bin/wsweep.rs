//! Workload-space sweep: runs hundreds of *generated* programs through
//! both policies and reports, per distribution bucket, how much
//! speculative parallelization helps and how well the dynamic
//! reconvergence predictor tracks the compiler's immediate
//! postdominators. Where the figure binaries answer "what happens on
//! these 12 benchmarks", `wsweep` answers "what happens across a
//! *distribution* of program shapes" — branch-dense, loop-nested,
//! call-heavy, irreducible, memory-bound, and mixed
//! ([`GenDist::BUCKETS`]).
//!
//! Usage: `wsweep [--programs N] [--seed S] [--jobs N] [--csv]`
//! (`wsweep --help` says what each flag does).
//!
//! Output is **byte-deterministic**: it depends only on `--programs`,
//! `--seed`, and `--csv` — never on `--jobs`, wall-clock, or host. CI
//! diffs `--jobs 1` against `--jobs 2` to hold that line.
//!
//! [`GenDist::BUCKETS`]: polyflow_bench::fuzz::GenDist::BUCKETS

use polyflow_bench::cli::{self, Flag, Operands, Spec, Value};
use polyflow_bench::fuzz::{random_program_with, GenDist, FUZZ_MAX_CYCLES, WINDOW};
use polyflow_bench::sweep::{run_cell_with_config_opts, Cell};
use polyflow_bench::{pool, PreparedWorkload};
use polyflow_core::{Policy, SpawnKind};
use polyflow_reconv::{train_on_trace, ReconvConfig};
use polyflow_sim::{SimOptions, SimScratch};
use polyflow_workloads::Workload;
use std::collections::HashMap;

/// Everything one generated program contributes to its bucket.
struct ProgramRow {
    bucket: &'static str,
    seed: u64,
    /// `None` if the program failed to prepare or either cell failed —
    /// recorded (deterministically) rather than aborting the sweep.
    outcome: Option<Outcome>,
    error: String,
}

struct Outcome {
    speedup: f64,
    /// Spawn points whose reconvergence the predictor got exactly right,
    /// got wrong, or never predicted.
    exact: usize,
    wrong: usize,
    none: usize,
    dyn_exact: u64,
    dyn_total: u64,
}

impl Outcome {
    fn static_pct(&self) -> f64 {
        let total = (self.exact + self.wrong + self.none).max(1);
        100.0 * self.exact as f64 / total as f64
    }

    fn dyn_pct(&self) -> f64 {
        100.0 * self.dyn_exact as f64 / self.dyn_total.max(1) as f64
    }
}

fn run_one(bucket: &'static str, seed: u64, dist: &GenDist) -> ProgramRow {
    let fail = |error: String| ProgramRow {
        bucket,
        seed,
        outcome: None,
        error,
    };
    let program = random_program_with(seed, dist);
    let w = match PreparedWorkload::try_prepare(Workload {
        name: format!("{bucket}-{seed:#x}"),
        program,
        window: WINDOW,
    }) {
        Ok(w) => w,
        Err(e) => return fail(e),
    };

    let mut scratch = SimScratch::default();
    let mut run = |cell: Cell| {
        let mut cfg = cell.machine();
        cfg.max_cycles = FUZZ_MAX_CYCLES;
        run_cell_with_config_opts(&w, cell, &cfg, &mut scratch, SimOptions::default())
            .map(|(r, _)| r)
            .map_err(|e| format!("{} failed: {e}", cell.label()))
    };
    let baseline = match run(Cell::Baseline) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let postdoms = match run(Cell::Static(Policy::Postdoms)) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };

    // Same ground truth and training as `reconv_accuracy`: compiler
    // postdominator targets for branch/jr spawn points vs. what a
    // predictor trained on this program's own trace reconstructs.
    let truth: HashMap<_, _> = w
        .analysis
        .candidates()
        .iter()
        .filter(|sp| {
            matches!(
                sp.kind,
                SpawnKind::Hammock | SpawnKind::LoopFallThrough | SpawnKind::Other
            )
        })
        .map(|sp| (sp.trigger, sp.target))
        .collect();
    let predictor = train_on_trace(w.trace(), ReconvConfig::default());
    let pc_index = w.pc_index();
    let mut out = Outcome {
        speedup: baseline.cycles as f64 / postdoms.cycles.max(1) as f64,
        exact: 0,
        wrong: 0,
        none: 0,
        dyn_exact: 0,
        dyn_total: 0,
    };
    for (&trigger, &target) in &truth {
        let weight = pc_index.count(trigger) as u64;
        out.dyn_total += weight;
        match predictor.predict(trigger) {
            Some(p) if p == target => {
                out.exact += 1;
                out.dyn_exact += weight;
            }
            Some(_) => out.wrong += 1,
            None => out.none += 1,
        }
    }
    ProgramRow {
        bucket,
        seed,
        outcome: Some(out),
        error: String::new(),
    }
}

/// Histogram bins for per-program static-exact percentage.
const BINS: [(&str, f64, f64); 4] = [
    ("0-50%", 0.0, 50.0),
    ("50-75%", 50.0, 75.0),
    ("75-90%", 75.0, 90.0),
    ("90-100%", 90.0, 100.0),
];

fn bucket_summary(bucket: &str, rows: &[&ProgramRow]) -> String {
    let ok: Vec<&Outcome> = rows.iter().filter_map(|r| r.outcome.as_ref()).collect();
    if ok.is_empty() {
        return format!("{bucket:<12} {:>5}  (no program completed)", rows.len());
    }
    let mut speedups: Vec<f64> = ok.iter().map(|o| o.speedup).collect();
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let mut hist = [0usize; BINS.len()];
    for o in &ok {
        let p = o.static_pct();
        // Upper-inclusive last bin so 100% lands in 90-100%.
        let idx = BINS
            .iter()
            .position(|&(_, lo, hi)| p >= lo && p < hi)
            .unwrap_or(BINS.len() - 1);
        hist[idx] += 1;
    }
    let dyn_mean = ok.iter().map(|o| o.dyn_pct()).sum::<f64>() / ok.len() as f64;
    format!(
        "{bucket:<12} {:>5} {:>7.3} {:>7.3} {:>7.3}   {:>5} {:>6} {:>6} {:>7}   {:>8.1}%",
        ok.len(),
        mean,
        speedups[0],
        speedups[speedups.len() - 1],
        hist[0],
        hist[1],
        hist[2],
        hist[3],
        dyn_mean
    )
}

const PROGRAMS: Flag = Flag {
    name: "--programs",
    value: Value::Number("N"),
    help: "programs per bucket (default 50)",
};
const SEED: Flag = Flag {
    name: "--seed",
    value: Value::Number("S"),
    help: "base seed, decimal or 0x hex (default 1)",
};

const SPEC: Spec = Spec {
    name: "wsweep",
    about: "distribution-bucketed generated-workload sweep",
    flags: &[PROGRAMS, SEED, cli::JOBS, cli::CSV],
    operands: Operands::None,
    notes: "",
};

fn main() {
    let args = cli::parse(&SPEC);
    let programs: u64 = args.number(&PROGRAMS).unwrap_or(50);
    if programs == 0 {
        args.fail("--programs needs a positive count");
    }
    let seed0: u64 = args.number(&SEED).unwrap_or(1);
    let csv = args.switch(&cli::CSV);
    let jobs = args.jobs();

    // Every (bucket, seed) pair is an independent task; `parallel_map`
    // preserves input order, so the report is identical at any `--jobs`.
    let mut tasks: Vec<(&'static str, u64, &'static GenDist)> = Vec::new();
    for (name, dist) in &GenDist::BUCKETS {
        for i in 0..programs {
            tasks.push((name, seed0.wrapping_add(i), dist));
        }
    }
    let rows = pool::parallel_map(tasks, jobs, |_, (bucket, seed, dist)| {
        run_one(bucket, seed, dist)
    });

    if csv {
        println!("bucket,seed,speedup,static_exact_pct,dyn_weighted_pct,error");
        for r in &rows {
            match &r.outcome {
                Some(o) => println!(
                    "{},{:#x},{:.6},{:.2},{:.2},",
                    r.bucket,
                    r.seed,
                    o.speedup,
                    o.static_pct(),
                    o.dyn_pct()
                ),
                None => println!("{},{:#x},,,,{}", r.bucket, r.seed, r.error),
            }
        }
        return;
    }

    println!("== Generated-workload sweep: postdoms vs baseline by distribution bucket ==");
    println!(
        "({programs} programs/bucket, base seed {seed0:#x}; speedup = baseline cycles / postdoms cycles;\n\
         accuracy histogram bins programs by exact static reconvergence-prediction rate)"
    );
    println!();
    println!(
        "{:<12} {:>5} {:>7} {:>7} {:>7}   {:>5} {:>6} {:>6} {:>7}   {:>9}",
        "bucket", "n", "mean", "min", "max", "0-50", "50-75", "75-90", "90-100", "dyn-mean"
    );
    let mut failures = 0usize;
    for (name, _) in &GenDist::BUCKETS {
        let bucket_rows: Vec<&ProgramRow> = rows.iter().filter(|r| r.bucket == *name).collect();
        failures += bucket_rows.iter().filter(|r| r.outcome.is_none()).count();
        println!("{}", bucket_summary(name, &bucket_rows));
    }
    if failures > 0 {
        println!();
        println!("{failures} program(s) failed; rerun with --csv for per-seed detail");
    }
}
