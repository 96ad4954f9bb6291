//! Shape tests: the qualitative results of the paper's evaluation must
//! hold on the stand-in workloads. These are the repository's regression
//! guard for the figure-generating experiments (they run a subset at
//! reduced windows, so `--release` is recommended but not required).

use polyflow::core::{Policy, ProgramAnalysis};
use polyflow::isa::execute_window;
use polyflow::reconv::ReconvConfig;
use polyflow::sim::{
    simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, ReconvSpawnSource, SimOptions,
    SimResult, SimScratch, SpawnSource, StaticSpawnSource,
};

/// One [`simulate`] run on a fresh scratch, with no event sink and the
/// default options.
fn sim<S: SpawnSource + ?Sized>(
    prepared: &PreparedTrace,
    cfg: &MachineConfig,
    source: &mut S,
) -> SimResult {
    let mut scratch = SimScratch::default();
    simulate(
        prepared,
        cfg,
        source,
        &mut scratch,
        &mut NullSink,
        SimOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
    .0
}

fn run(name: &str, policy: Policy, window: u64) -> (SimResult, SimResult) {
    let w = polyflow::workloads::by_name(name).unwrap();
    let trace = execute_window(&w.program, window).unwrap().trace;
    let ss = MachineConfig::superscalar();
    let prep = PreparedTrace::new(&trace, &ss);
    let base = sim(&prep, &ss, &mut NoSpawn);
    let pf = MachineConfig::hpca07();
    let prep = PreparedTrace::new(&trace, &pf);
    let analysis = ProgramAnalysis::analyze(&w.program);
    let mut src = StaticSpawnSource::new(analysis.spawn_table(policy));
    let r = sim(&prep, &pf, &mut src);
    (base, r)
}

fn speedup(name: &str, policy: Policy, window: u64) -> f64 {
    let (base, r) = run(name, policy, window);
    r.speedup_percent_over(&base)
}

const W: u64 = 150_000;

/// Figure 9, mcf: hammock spawns jump over hard-to-predict branches whose
/// resolution waits on cache misses.
#[test]
fn mcf_responds_to_hammocks() {
    let hammock = speedup("mcf", Policy::Hammock, W);
    let loop_ft = speedup("mcf", Policy::LoopFt, W);
    assert!(hammock > 10.0, "hammock speedup {hammock:.1}%");
    assert!(
        hammock > loop_ft + 5.0,
        "hammock {hammock:.1} vs loopFT {loop_ft:.1}"
    );
}

/// Figure 9, vortex: procedure fall-throughs dominate.
#[test]
fn vortex_responds_to_proc_fallthrough() {
    let proc_ft = speedup("vortex", Policy::ProcFt, W);
    let hammock = speedup("vortex", Policy::Hammock, W);
    assert!(proc_ft > 10.0, "procFT speedup {proc_ft:.1}%");
    assert!(proc_ft > hammock + 5.0);
}

/// Figure 9, vpr.route: loop fall-throughs expose the independent outer
/// routes.
#[test]
fn vpr_route_responds_to_loop_fallthrough() {
    let loop_ft = speedup("vpr.route", Policy::LoopFt, W);
    let hammock = speedup("vpr.route", Policy::Hammock, W);
    assert!(loop_ft > 10.0, "loopFT speedup {loop_ft:.1}%");
    assert!(loop_ft > hammock + 5.0);
}

/// Figure 9, twolf: loop fall-throughs (outer-loop parallelism) dominate.
#[test]
fn twolf_responds_to_loop_fallthrough() {
    let loop_ft = speedup("twolf", Policy::LoopFt, W);
    assert!(loop_ft > 20.0, "loopFT speedup {loop_ft:.1}%");
}

/// Figure 9 headline on a subset: postdoms is at least as good as (close
/// to) the best individual heuristic per benchmark.
#[test]
fn postdoms_covers_heuristics_on_subset() {
    for name in ["mcf", "vortex", "twolf", "gcc"] {
        let postdoms = speedup(name, Policy::Postdoms, W);
        let best = Policy::figure9()[..5]
            .iter()
            .map(|&p| speedup(name, p, W))
            .fold(f64::MIN, f64::max);
        assert!(
            postdoms >= best - 6.0,
            "{name}: postdoms {postdoms:.1}% vs best heuristic {best:.1}%"
        );
    }
}

/// Figure 11, vortex: removing procFT erases vortex's speedup.
#[test]
fn excluding_proc_ft_hurts_vortex() {
    use polyflow::core::SpawnKind;
    let full = speedup("vortex", Policy::Postdoms, W);
    let without = speedup(
        "vortex",
        Policy::PostdomsWithout(SpawnKind::ProcFallThrough),
        W,
    );
    assert!(full - without > 10.0, "loss {:.1}", full - without);
}

/// Figure 12: the reconvergence predictor approximates the compiler on a
/// benchmark with learnable joins (gcc), and its speedup is positive.
#[test]
fn reconvergence_predictor_is_close_on_gcc() {
    let w = polyflow::workloads::by_name("gcc").unwrap();
    let trace = execute_window(&w.program, W).unwrap().trace;
    let ss = MachineConfig::superscalar();
    let prep = PreparedTrace::new(&trace, &ss);
    let base = sim(&prep, &ss, &mut NoSpawn);
    let pf = MachineConfig::hpca07();
    let prep = PreparedTrace::new(&trace, &pf);

    let analysis = ProgramAnalysis::analyze(&w.program);
    let mut static_src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
    let pd = sim(&prep, &pf, &mut static_src);

    let mut dyn_src = ReconvSpawnSource::new(ReconvConfig::default());
    let rec = sim(&prep, &pf, &mut dyn_src);

    let pd_s = pd.speedup_percent_over(&base);
    let rec_s = rec.speedup_percent_over(&base);
    assert!(rec_s > 0.0, "rec_pred should speed gcc up, got {rec_s:.1}%");
    assert!(
        rec_s > 0.5 * pd_s,
        "rec_pred {rec_s:.1}% should be within 2x of postdoms {pd_s:.1}%"
    );
}
