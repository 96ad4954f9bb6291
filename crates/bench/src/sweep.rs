//! The parallel (workload × policy) sweep engine.
//!
//! Every figure binary is a grid of independent simulator runs. This
//! module executes such grids on the work-stealing pool ([`crate::pool`])
//! with per-worker [`SimScratch`] reuse, collects results into
//! deterministic `[workload][cell]` order (byte-identical output at any
//! `--jobs`), and times every cell into a [`SweepReport`]. A figure
//! binary prints the report's one cells/sec line on stderr and writes
//! nothing else but its stdout; `perfbench/` reads the per-cell times.
//!
//! # Fault isolation
//!
//! Each cell runs inside [`std::panic::catch_unwind`] with one bounded
//! retry, so a panicking or erroring cell degrades to
//! [`CellOutcome::Failed`] instead of killing the whole sweep: the
//! surviving cells complete, the figure renders the dead cell as
//! `FAILED`, and the binary exits nonzero ([`report_failures`]). Grid
//! order — and therefore output — stays deterministic at any worker
//! count. Setting `POLYFLOW_FAULT_CELL=<workload>/<label>` makes exactly
//! that cell panic deliberately (the CI degradation check). The same
//! runner, [`run_isolated`], runs every `polyflow-serve` request, and
//! [`run_cell_with_config_opts`] is the one way to run a [`Cell`].

use crate::{pool, PreparedWorkload};
use polyflow_core::Policy;
use polyflow_reconv::ReconvConfig;
use polyflow_sim::{
    simulate, MachineConfig, NoSpawn, NullSink, ReconvSpawnSource, SimError, SimOptions, SimResult,
    SimScratch, SimTelemetry, StaticSpawnSource,
};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One cell of a figure's (workload × policy) grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// The equivalent-resource superscalar baseline.
    Baseline,
    /// One static spawn policy on the PolyFlow machine.
    Static(Policy),
    /// The dynamic reconvergence-predictor source (§4.4).
    Reconv,
}

impl Cell {
    /// Short label used in the timing report.
    pub fn label(&self) -> String {
        match self {
            Cell::Baseline => "baseline".to_string(),
            Cell::Static(p) => p.name(),
            Cell::Reconv => "rec_pred".to_string(),
        }
    }

    /// The machine this cell runs on: the superscalar baseline on
    /// [`MachineConfig::superscalar`], every spawning cell on the
    /// paper's Figure 8 machine ([`MachineConfig::hpca07`]).
    pub fn machine(self) -> MachineConfig {
        match self {
            Cell::Baseline => MachineConfig::superscalar(),
            Cell::Static(_) | Cell::Reconv => MachineConfig::hpca07(),
        }
    }
}

/// What one grid cell produced: a simulation result, or a structured
/// record of why the cell died (typed simulator error, or a caught
/// panic). A failed cell never aborts the sweep.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell simulated to completion (boxed: a [`SimResult`] is much
    /// larger than the failure record).
    Ok(Box<SimResult>),
    /// The cell failed on every attempt; the rest of the grid completed.
    Failed {
        /// Workload name (the grid row).
        workload: String,
        /// Cell label (the grid column).
        cell: String,
        /// The rendered [`SimError`] or the panic payload.
        payload: String,
        /// Attempts made (1 for a typed error, which is deterministic;
        /// up to 2 for a panic, which gets one retry).
        attempts: u32,
    },
}

impl CellOutcome {
    /// The simulation result, if the cell succeeded.
    pub fn result(&self) -> Option<&SimResult> {
        match self {
            CellOutcome::Ok(r) => Some(r.as_ref()),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// True if the cell died.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }

    /// Instructions per cycle, or NaN for a failed cell (rendered as
    /// `FAILED` by the table/CSV printers).
    pub fn ipc(&self) -> f64 {
        self.result().map_or(f64::NAN, SimResult::ipc)
    }

    /// Speedup in percent over `base`, or NaN if either cell failed.
    pub fn speedup_percent_over(&self, base: &CellOutcome) -> f64 {
        match (self.result(), base.result()) {
            (Some(r), Some(b)) => r.speedup_percent_over(b),
            _ => f64::NAN,
        }
    }
}

/// Prints every failed cell of a finished grid to stderr and returns
/// whether any failed — the figure binary should then exit nonzero.
pub fn report_failures(grid: &[Vec<CellOutcome>]) -> bool {
    let mut any = false;
    for outcome in grid.iter().flatten() {
        if let CellOutcome::Failed {
            workload,
            cell,
            payload,
            attempts,
        } = outcome
        {
            any = true;
            eprintln!(
                "[sweep] FAILED cell {workload}/{cell} after {attempts} attempt(s): {payload}"
            );
        }
    }
    any
}

/// Timing record of one executed sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The sweep's name (conventionally the figure binary's).
    pub name: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock of the whole grid.
    pub wall: Duration,
    /// Per-cell label and wall-clock, in deterministic grid order.
    pub cells: Vec<(String, Duration)>,
}

impl SweepReport {
    /// Grid throughput in cells per second of wall-clock.
    pub fn cells_per_second(&self) -> f64 {
        self.cells.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Prints the throughput line to stderr.
    pub fn emit(&self) {
        eprintln!(
            "[sweep] {}: {} cells in {} on {} worker{} ({:.1} cells/sec)",
            self.name,
            self.cells.len(),
            crate::stopwatch::fmt_duration(self.wall),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.cells_per_second(),
        );
    }
}

thread_local! {
    /// One reusable simulation arena per worker thread (the main thread
    /// counts as a worker when `jobs == 1`; a `polyflow-serve` worker
    /// keeps its arena for its whole life).
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
}

/// True if the environment asks this exact cell (`workload/label`) to
/// panic deliberately — the CI hook proving a dead cell degrades the
/// sweep instead of aborting it.
fn deliberate_fault(full_label: &str) -> bool {
    std::env::var("POLYFLOW_FAULT_CELL").is_ok_and(|v| v == full_label)
}

/// Renders a caught panic payload (`&str` and `String` payloads carry the
/// panic message; anything else is opaque).
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic budget per cell: one retry after a caught panic (a transient
/// failure gets a second chance; a deterministic one fails both times
/// and the outcome records both attempts).
const MAX_ATTEMPTS: u32 = 2;

/// Runs one cell of `w` under panic isolation on this thread's reusable
/// [`SimScratch`], the one way every sweep and every served request runs
/// a simulation. Typed errors are deterministic properties of the
/// (workload, cell) pair, so they fail immediately; panics get one
/// retry. `cell_label` names the cell in a failure record and in the
/// `POLYFLOW_FAULT_CELL` hook.
pub fn run_isolated<F>(w: &PreparedWorkload, cell_label: &str, run: F) -> CellOutcome
where
    F: Fn(&mut SimScratch) -> Result<SimResult, SimError>,
{
    let full_label = format!("{}/{}", w.name, cell_label);
    let mut attempts = 0;
    loop {
        attempts += 1;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            assert!(
                !deliberate_fault(&full_label),
                "deliberate fault injected via POLYFLOW_FAULT_CELL={full_label}"
            );
            SCRATCH.with(|s| run(&mut s.borrow_mut()))
        }));
        let payload = match caught {
            Ok(Ok(r)) => return CellOutcome::Ok(Box::new(r)),
            Ok(Err(e)) => e.to_string(),
            Err(p) if attempts < MAX_ATTEMPTS => {
                drop(p); // the default hook already printed it; retry once
                continue;
            }
            Err(p) => payload_string(p),
        };
        return CellOutcome::Failed {
            workload: w.name.to_string(),
            cell: cell_label.to_string(),
            payload,
            attempts,
        };
    }
}

/// Runs an arbitrary `(workload × cell)` grid on the pool and returns
/// per-cell outcomes grouped as `[workload][cell]`, plus the timing
/// report.
///
/// `run` executes one cell; it receives the worker's reusable
/// [`SimScratch`]. `label` names a cell for the report. Cells are
/// independent, so any interleaving is allowed — results are reassembled
/// in grid order, making the caller's output identical for every `jobs`.
/// A cell that panics or returns a [`SimError`] becomes
/// [`CellOutcome::Failed`] without disturbing its neighbours.
pub fn run_grid_with<C, F, L>(
    name: &str,
    workloads: &[PreparedWorkload],
    cells: &[C],
    jobs: usize,
    run: F,
    label: L,
) -> (Vec<Vec<CellOutcome>>, SweepReport)
where
    C: Sync,
    F: Fn(&PreparedWorkload, &C, &mut SimScratch) -> Result<SimResult, SimError> + Sync,
    L: Fn(&C) -> String,
{
    let labels: Vec<String> = cells.iter().map(&label).collect();
    let grid: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|wi| (0..cells.len()).map(move |ci| (wi, ci)))
        .collect();
    let started = Instant::now();
    let timed = pool::parallel_map(grid, jobs, |_, (wi, ci)| {
        let t0 = Instant::now();
        let w = &workloads[wi];
        let r = run_isolated(w, &labels[ci], |s| run(w, &cells[ci], s));
        (r, t0.elapsed())
    });
    let wall = started.elapsed();
    let mut cell_times = Vec::with_capacity(timed.len());
    let mut results: Vec<Vec<CellOutcome>> = Vec::with_capacity(workloads.len());
    let mut it = timed.into_iter();
    for w in workloads {
        let mut row = Vec::with_capacity(cells.len());
        for l in &labels {
            let (r, d) = it.next().expect("one result per grid cell");
            cell_times.push((format!("{}/{}", w.name, l), d));
            row.push(r);
        }
        results.push(row);
    }
    let report = SweepReport {
        name: name.to_string(),
        jobs,
        wall,
        cells: cell_times,
    };
    (results, report)
}

/// Runs one cell of `w` on the machine `cfg`: the one way bench code
/// runs a [`Cell`]. The figure sweeps, every `polyflow-serve` worker and
/// the offline verifier all call it, so "served result ≡ offline
/// result" reduces to the simulator's own determinism. Prepared traces
/// are shared through [`PreparedWorkload::prepared`], keyed by the
/// config's predictor key. `opts` never changes the result; the
/// returned [`SimTelemetry`] says how the run executed.
pub fn run_cell_with_config_opts(
    w: &PreparedWorkload,
    cell: Cell,
    cfg: &MachineConfig,
    scratch: &mut SimScratch,
    opts: SimOptions,
) -> Result<(SimResult, SimTelemetry), SimError> {
    let prepared = w.prepared(cfg);
    // Pre-size the per-instruction arenas so the dominant allocations
    // happen once per worker, not during the run.
    scratch.reserve(w.trace().len());
    match cell {
        Cell::Baseline => simulate(&prepared, cfg, &mut NoSpawn, scratch, &mut NullSink, opts),
        Cell::Static(p) => {
            let mut src = StaticSpawnSource::new(w.analysis.spawn_table(p));
            simulate(&prepared, cfg, &mut src, scratch, &mut NullSink, opts)
        }
        Cell::Reconv => {
            let mut src = ReconvSpawnSource::new(ReconvConfig::default());
            simulate(&prepared, cfg, &mut src, scratch, &mut NullSink, opts)
        }
    }
}

/// Runs the figure grid `cells` × `workloads` on `jobs` pool workers,
/// each cell on the machine `machine` returns for it ([`Cell::machine`],
/// or the command line's [`Args::machine`](crate::cli::Args::machine)).
pub fn sweep(
    name: &str,
    workloads: &[PreparedWorkload],
    cells: &[Cell],
    jobs: usize,
    machine: impl Fn(Cell) -> MachineConfig,
) -> (Vec<Vec<CellOutcome>>, SweepReport) {
    let grid: Vec<(Cell, MachineConfig)> = cells.iter().map(|&c| (c, machine(c))).collect();
    run_grid_with(
        name,
        workloads,
        &grid,
        jobs,
        |w, (cell, cfg), scratch| {
            run_cell_with_config_opts(w, *cell, cfg, scratch, SimOptions::default()).map(|(r, _)| r)
        },
        |(cell, _)| cell.label(),
    )
}

/// The Figure 9 grid: baseline plus every individual-heuristic policy.
/// Shared by the figure binary and the determinism test.
pub fn figure9_cells() -> Vec<Cell> {
    std::iter::once(Cell::Baseline)
        .chain(Policy::figure9().iter().map(|&p| Cell::Static(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_grid_has_baseline_plus_policies() {
        let cells = figure9_cells();
        assert_eq!(cells[0], Cell::Baseline);
        assert_eq!(cells.len(), 1 + Policy::figure9().len());
    }

    #[test]
    fn only_the_baseline_runs_on_the_superscalar() {
        assert_eq!(Cell::Baseline.machine(), MachineConfig::superscalar());
        for cell in figure9_cells().into_iter().skip(1).chain([Cell::Reconv]) {
            assert_eq!(cell.machine(), MachineConfig::hpca07(), "{}", cell.label());
        }
    }

    #[test]
    fn failed_outcomes_render_as_nan_and_report() {
        let failed = CellOutcome::Failed {
            workload: "gzip".to_string(),
            cell: "postdoms".to_string(),
            payload: "deliberate".to_string(),
            attempts: 2,
        };
        assert!(failed.is_failed());
        assert!(failed.result().is_none());
        assert!(failed.ipc().is_nan());
        let ok = CellOutcome::Ok(Box::default());
        assert!(!ok.is_failed());
        assert!(failed.speedup_percent_over(&ok).is_nan());
        assert!(ok.speedup_percent_over(&failed).is_nan());

        assert!(report_failures(&[vec![ok, failed]]));
        assert!(!report_failures(&[vec![CellOutcome::Ok(Box::default())]]));
    }

    #[test]
    fn panic_payloads_render() {
        let p = catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(payload_string(p), "boom 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(payload_string(p), "non-string panic payload");
    }
}
