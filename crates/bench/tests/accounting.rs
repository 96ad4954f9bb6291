//! The acceptance gate for the cycle-accounting layer: the sum invariant
//! `sum(buckets) == cycles × contexts` must hold for **all 12 bundled
//! workloads**, under both the superscalar baseline and the `postdoms`
//! PolyFlow configuration, and the stall counters must equal their
//! account buckets exactly.

use polyflow_bench::sweep::{run_cell_with_config_opts, Cell};
use polyflow_bench::{prepare_all_jobs, PreparedWorkload};
use polyflow_core::Policy;
use polyflow_sim::{Bucket, MachineConfig, SimOptions, SimResult, SimScratch};

/// Runs `cell` of `w` on `cfg`, panicking with the rendered error.
fn run(
    w: &PreparedWorkload,
    cell: Cell,
    cfg: &MachineConfig,
    scratch: &mut SimScratch,
) -> SimResult {
    run_cell_with_config_opts(w, cell, cfg, scratch, SimOptions::default())
        .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, cell.label()))
        .0
}

fn assert_balanced(w: &PreparedWorkload, label: &str, r: &SimResult, contexts: u64) {
    r.account
        .check()
        .unwrap_or_else(|e| panic!("{} [{label}]: {e}", w.name));
    assert_eq!(r.account.cycles, r.cycles, "{} [{label}]", w.name);
    assert_eq!(r.account.contexts, contexts, "{} [{label}]", w.name);
    assert_eq!(
        r.account.total_slots(),
        r.cycles * contexts,
        "{} [{label}]: sum(buckets) != cycles × contexts",
        w.name
    );
    for (counter, bucket) in [
        (r.fetch_stall_branch_cycles, Bucket::BranchStall),
        (r.fetch_stall_icache_cycles, Bucket::IcacheStall),
        (r.squash_recovery_cycles, Bucket::SquashRecovery),
        (r.spawn_setup_cycles, Bucket::SpawnSetup),
    ] {
        assert_eq!(
            counter,
            r.account.bucket(bucket),
            "{} [{label}]: counter vs {bucket} bucket",
            w.name
        );
    }
    assert_eq!(
        r.account.tasks.len() as u64,
        1 + r.total_spawns(),
        "{} [{label}]: one task account per dynamic task",
        w.name
    );
}

#[test]
fn invariant_holds_for_all_workloads_baseline_and_postdoms() {
    let workloads = prepare_all_jobs(&[], 4);
    assert_eq!(
        workloads.len(),
        polyflow_workloads::NAMES.len(),
        "every bundled workload must participate"
    );
    let mut scratch = SimScratch::default();
    for w in &workloads {
        let base = run(w, Cell::Baseline, &Cell::Baseline.machine(), &mut scratch);
        assert_balanced(
            w,
            "baseline",
            &base,
            MachineConfig::superscalar().contexts(),
        );
        assert_eq!(base.account.bucket(Bucket::IdleContext), 0);

        let postdoms = Cell::Static(Policy::Postdoms);
        let pd = run(w, postdoms, &postdoms.machine(), &mut scratch);
        assert_balanced(w, "postdoms", &pd, MachineConfig::hpca07().contexts());
        assert_eq!(base.instructions, pd.instructions);

        // The spawn log stays ordered by cycle on every real workload.
        assert!(
            pd.spawn_log.windows(2).all(|s| s[0].cycle <= s[1].cycle),
            "{}: spawn log out of order",
            w.name
        );
    }
}

#[test]
fn predicted_dependence_config_is_stable_on_all_workloads() {
    // Regression net for the event-driven scheduler's residue sweep: the
    // fig09_predicted_dependences configuration (hint-entry registers +
    // store-set memory prediction) left issued entries parked in the
    // ready set after the sweep evicted them from the scheduler, and a
    // later batch then swap-removed through a stale slot (out-of-bounds
    // on crafty/loop). Every workload must complete with a balanced
    // ledger under both policies of that figure's hot path.
    use polyflow_sim::DependenceMode;
    let mut cfg = MachineConfig::hpca07();
    cfg.register_dependence = DependenceMode::StoreSet;
    cfg.memory_dependence = DependenceMode::StoreSet;
    let workloads = prepare_all_jobs(&[], 4);
    let mut scratch = SimScratch::default();
    for w in &workloads {
        for policy in [Policy::Loop, Policy::Postdoms] {
            let r = run(w, Cell::Static(policy), &cfg, &mut scratch);
            assert_balanced(w, &format!("{policy:?}"), &r, cfg.contexts());
        }
    }
}
