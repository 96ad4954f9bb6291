//! Simulator differential beyond the bundled workloads: every program of
//! the fuzz regression corpus and a few generated programs from every
//! `GenDist` bucket, under four machine/source configurations, must give
//! the same `SimResult` and the same event stream whether cycle skipping
//! is on or off, whether the run starts from a fresh or a reused
//! `SimScratch`, and whether the phase profile is on or off.
//!
//! The golden snapshots pin the bundled workloads, which never squash.
//! The store-set plus hint-entry configuration here does squash, and
//! reclaims ROB entries, so the violation and reclamation paths (fetch
//! queue reset, ready-set rebuild) are compared too, and
//! `sim_differential.snap` pins every run's result and event stream.
//! Re-bless after an intentional change with:
//!
//! ```text
//! POLYFLOW_BLESS=1 cargo test -p polyflow-bench --test sim_differential
//! ```

use polyflow_bench::fuzz::{parse_seed, random_program, random_program_with, GenDist, WINDOW};
use polyflow_core::{Policy, ProgramAnalysis};
use polyflow_isa::fnv1a;
use polyflow_isa::{execute_window, Program};
use polyflow_reconv::ReconvConfig;
use polyflow_sim::{
    simulate, DependenceMode, JsonlSink, MachineConfig, NoSpawn, PreparedTrace, ReconvSpawnSource,
    SimOptions, SimScratch, SpawnSource, StaticSpawnSource,
};
use support::check_or_bless;

mod support;

/// Generated programs per `GenDist` bucket.
const PER_BUCKET: u64 = 8;

#[derive(Clone, Copy, Debug)]
enum Source {
    None,
    Postdoms,
    Reconv,
}

/// The superscalar baseline, postdoms and the reconvergence predictor on
/// the paper's machine, and a speculative configuration that squashes:
/// store-set memory dependences, hint-entry register dependences, no
/// profitability throttle, and a ROB small enough for the reclamation
/// extension to fire.
fn configs() -> Vec<(&'static str, MachineConfig, Source)> {
    let squashing = MachineConfig {
        memory_dependence: DependenceMode::StoreSet,
        register_dependence: DependenceMode::StoreSet,
        rob_entries: 48,
        rob_reclamation: true,
        rob_reclaim_after: 8,
        profitability_feedback: false,
        ..MachineConfig::hpca07()
    };
    vec![
        ("baseline", MachineConfig::superscalar(), Source::None),
        ("postdoms", MachineConfig::hpca07(), Source::Postdoms),
        ("rec_pred", MachineConfig::hpca07(), Source::Reconv),
        ("squashing", squashing, Source::Postdoms),
    ]
}

/// One run's result JSON, its event stream, its squash and ROB
/// reclamation counts, and whether it returned a phase profile.
fn run(
    prepared: &PreparedTrace,
    cfg: &MachineConfig,
    source: &mut dyn SpawnSource,
    scratch: &mut SimScratch,
    opts: SimOptions,
) -> (String, Vec<u8>, [u64; 2], bool) {
    let mut sink = JsonlSink::new(Vec::new());
    let (r, telemetry) =
        simulate(prepared, cfg, source, scratch, &mut sink, opts).unwrap_or_else(|e| panic!("{e}"));
    let profiled = telemetry.phases.is_some();
    (
        r.to_json(),
        sink.into_inner(),
        [r.squashes, r.rob_reclaims],
        profiled,
    )
}

/// Runs `program` under every configuration and every (cycle skip,
/// scratch) combination, plus once more with the phase profile on;
/// `reused` is a scratch shared across programs and configurations.
/// Appends one snapshot line per configuration to `lines` and returns
/// the squashes and reclamations seen.
fn check(name: &str, program: &Program, reused: &mut SimScratch, lines: &mut String) -> [u64; 2] {
    let trace = execute_window(program, WINDOW).unwrap().trace;
    let analysis = ProgramAnalysis::analyze(program);
    let mut seen = [0, 0];
    for (label, cfg, source) in configs() {
        let prepared = PreparedTrace::new(&trace, &cfg);
        // (cycle skip, fresh scratch, profile): every skip × scratch
        // combination unprofiled, then a profiled run.
        let variants = [
            (true, true, false),
            (true, false, false),
            (false, true, false),
            (false, false, false),
            (true, true, true),
        ];
        let mut outputs = Vec::new();
        for (cycle_skip, fresh, profile) in variants {
            let mut own = SimScratch::default();
            let scratch = if fresh { &mut own } else { &mut *reused };
            let opts = SimOptions {
                cycle_skip,
                profile,
            };
            let out = match source {
                Source::None => run(&prepared, &cfg, &mut NoSpawn, scratch, opts),
                Source::Postdoms => {
                    let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
                    run(&prepared, &cfg, &mut src, scratch, opts)
                }
                Source::Reconv => {
                    let mut src = ReconvSpawnSource::new(ReconvConfig::default());
                    run(&prepared, &cfg, &mut src, scratch, opts)
                }
            };
            outputs.push(((cycle_skip, fresh, profile), out));
        }
        let ((_, (json, events, n, profiled)), rest) = outputs.split_first().unwrap();
        assert!(
            !profiled,
            "{name}/{label}: an unprofiled run returned phases"
        );
        for ((skip, fresh, profile), (j, e, _, profiled)) in rest {
            let ctx =
                format!("{name}/{label} cycle_skip={skip} fresh_scratch={fresh} profile={profile}");
            assert_eq!(j, json, "{ctx}: SimResult differs");
            assert!(e == events, "{ctx}: event stream differs");
            assert_eq!(profiled, profile, "{ctx}: phases come back iff asked for");
        }
        assert!(!events.is_empty(), "{name}/{label}: no events recorded");
        lines.push_str(&format!(
            "{name}/{label} result:{:016x} events:{:016x} squashes={} reclaims={}\n",
            fnv1a(json.as_bytes()),
            fnv1a(events),
            n[0],
            n[1]
        ));
        seen = [seen[0] + n[0], seen[1] + n[1]];
    }
    seen
}

/// Every program of the fuzz regression corpus (the CFG-shape cases
/// carry no program) and `PER_BUCKET` generated programs per bucket. The
/// snapshot pins each run's result and event stream, so the squash and
/// reclamation paths, which no bundled cell reaches, are pinned too.
#[test]
fn generated_programs_agree_across_skip_and_scratch() {
    let corpus = include_str!("../corpus/fuzz_corpus.txt");
    let mut seeds: Vec<u64> = corpus
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter(|l| !l.split_whitespace().any(|t| t.starts_with("shape:")))
        .map(|l| parse_seed(l.split_whitespace().next().unwrap()).unwrap())
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert!(seeds.len() >= 10, "the corpus lost its program seeds");
    let corpus = seeds
        .into_iter()
        .map(|seed| (format!("corpus/{seed:#x}"), random_program(seed)));
    let generated = GenDist::BUCKETS.iter().flat_map(|(bucket, dist)| {
        (0..PER_BUCKET).map(move |seed| {
            (
                format!("{bucket}/{seed}"),
                random_program_with(0xd1ff_0000 + seed, dist),
            )
        })
    });

    let mut reused = SimScratch::default();
    let mut lines = String::new();
    let mut seen = [0, 0];
    for (name, program) in corpus.chain(generated) {
        let n = check(&name, &program, &mut reused, &mut lines);
        seen = [seen[0] + n[0], seen[1] + n[1]];
    }
    assert!(seen[0] > 0, "no program squashed");
    assert!(seen[1] > 0, "no program reclaimed ROB entries");
    check_or_bless("sim_differential.snap", &lines);
}
