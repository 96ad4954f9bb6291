//! Golden identity suite: every bundled workload, simulated under the
//! superscalar baseline, the combined-postdominator policy and the
//! dynamic reconvergence predictor with explicit (environment-independent)
//! configurations, must reproduce the checked-in snapshots exactly. This
//! is the regression net for the data-oriented core: any change to the
//! simulator or the predictor that moves a single cycle, bucket, or spawn
//! count on any workload shows up as a hash mismatch here.
//!
//! `golden_identity.snap` pins the baseline and postdoms cells, and
//! `golden_identity_rec_pred.snap` the predictor cells; each test owns
//! one file. Every cell must also finish no earlier than its trace's
//! dataflow-height bound ([`polyflow_sim::limits`]), which no snapshot
//! can vouch for. Regenerate the snapshots after an *intentional*
//! semantic change with:
//!
//! ```text
//! POLYFLOW_BLESS=1 cargo test -p polyflow-bench --test golden_identity
//! ```

use polyflow_bench::sweep::{figure9_cells, run_cell_with_config_opts, Cell};
use polyflow_bench::{pool, prepare_all_jobs, PreparedWorkload};
use polyflow_core::Policy;
use polyflow_isa::fnv1a;
use polyflow_isa::json::{compact, Style, Writer};
use polyflow_sim::{limits, MachineConfig, SimOptions, SimScratch};
use std::sync::OnceLock;
use support::check_or_bless;

mod support;

/// The bundled workloads, prepared once for every test in this file.
fn workloads() -> &'static [PreparedWorkload] {
    static W: OnceLock<Vec<PreparedWorkload>> = OnceLock::new();
    W.get_or_init(|| {
        let w = prepare_all_jobs(&[], pool::default_jobs().expect("a valid POLYFLOW_JOBS"));
        assert_eq!(w.len(), 12, "the bundled workload set changed");
        w
    })
}

/// Simulates `cells` on every workload and compares one line per
/// (workload, cell), hashed over the full `SimResult::to_json` rendering
/// so the per-task cycle ledger is pinned too, with the snapshot `file`
/// (or rewrites it under `POLYFLOW_BLESS`). Asserts each cell's cycles
/// against the dataflow-height bound first.
fn check_cells(file: &str, cells: &[(Cell, &MachineConfig, &str)]) {
    let mut scratch = SimScratch::default();
    let mut actual = String::new();
    for w in workloads() {
        for (cell, cfg, label) in cells {
            let (r, _) =
                run_cell_with_config_opts(w, *cell, cfg, &mut scratch, SimOptions::default())
                    .unwrap_or_else(|e| panic!("{}/{label} failed: {e}", w.name));
            let bound = limits::cycle_bound(&w.prepared(cfg), cfg);
            assert!(
                r.cycles >= bound,
                "{}/{label}: {} cycles, under the dataflow-height bound {bound}",
                w.name,
                r.cycles
            );
            let json = r.to_json();
            actual.push_str(&format!(
                "{}/{label} fnv64:{:016x} cycles={} instructions={} spawns={} squashes={}\n",
                w.name,
                fnv1a(json.as_bytes()),
                r.cycles,
                r.instructions,
                r.total_spawns(),
                r.squashes
            ));
        }
    }

    check_or_bless(file, &actual);
}

#[test]
fn all_workloads_match_golden_snapshot() {
    let ss = MachineConfig::superscalar();
    let pf = MachineConfig::hpca07();
    check_cells(
        "golden_identity.snap",
        &[
            (Cell::Baseline, &ss, "baseline"),
            (Cell::Static(Policy::Postdoms), &pf, "postdoms"),
        ],
    );
}

/// The dynamic scheme of §4.4: a cold reconvergence predictor trained on
/// the retirement stream. Pins every prediction the predictor makes, as
/// far as it moves a spawn, a cycle or a bucket.
#[test]
fn reconvergence_predictor_cells_match_golden_snapshot() {
    let pf = MachineConfig::hpca07();
    check_cells(
        "golden_identity_rec_pred.snap",
        &[(Cell::Reconv, &pf, "rec_pred")],
    );
}

/// The compact rendering the service writes in one pass is the pretty
/// `to_json` with its whitespace stripped, on every cell of the
/// benchmark's sweep (each workload under every Figure 9 cell and the
/// reconvergence predictor).
#[test]
fn compact_rendering_is_the_compacted_pretty_one_on_every_sweep_cell() {
    let mut scratch = SimScratch::default();
    let mut cells = figure9_cells();
    cells.push(Cell::Reconv);
    for w in workloads() {
        for &cell in &cells {
            let (r, _) = run_cell_with_config_opts(
                w,
                cell,
                &cell.machine(),
                &mut scratch,
                SimOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, cell.label()));
            let mut compact_once = Writer::new(Style::Compact);
            r.write_json(&mut compact_once);
            assert!(
                compact_once.finish() == compact(&r.to_json()),
                "{}/{}: the compact rendering differs",
                w.name,
                cell.label()
            );
        }
    }
}
