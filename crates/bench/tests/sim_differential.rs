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
//!
//! A second test drives the same programs through stress machines that
//! push the divert queue, the scheduler, the wakeup horizon and the
//! squash paths to their limits (see [`stress_configs`]), each under
//! postdoms and the reconvergence predictor, with cycle skipping on and
//! off, pinned in `sim_differential_stress.snap`.
//!
//! Every run also finishes no earlier than the trace's dataflow-height
//! bound ([`polyflow_sim::limits`]). A third, `#[ignore]`d test widens
//! that check alone to every Figure 9–11 policy on every machine (CI
//! runs it with `--ignored`). Re-bless after an intentional change
//! with:
//!
//! ```text
//! POLYFLOW_BLESS=1 cargo test -p polyflow-bench --test sim_differential
//! ```

use polyflow_bench::fuzz::{parse_seed, random_program, random_program_with, GenDist, WINDOW};
use polyflow_core::{Policy, ProgramAnalysis};
use polyflow_isa::fnv1a;
use polyflow_isa::json::{compact, Style, Writer};
use polyflow_isa::{execute_window, Program};
use polyflow_reconv::ReconvConfig;
use polyflow_sim::{
    limits, simulate, DependenceMode, JsonlSink, MachineConfig, NoSpawn, PreparedTrace,
    ReconvSpawnSource, SimOptions, SimScratch, SpawnSource, StaticSpawnSource,
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
fn configs() -> Vec<(String, MachineConfig, Source)> {
    let squashing = MachineConfig {
        memory_dependence: DependenceMode::StoreSet,
        register_dependence: DependenceMode::StoreSet,
        rob_entries: 48,
        rob_reclamation: true,
        rob_reclaim_after: 8,
        profitability_feedback: false,
        ..MachineConfig::hpca07()
    };
    [
        ("baseline", MachineConfig::superscalar(), Source::None),
        ("postdoms", MachineConfig::hpca07(), Source::Postdoms),
        ("rec_pred", MachineConfig::hpca07(), Source::Reconv),
        ("squashing", squashing, Source::Postdoms),
    ]
    .map(|(label, cfg, source)| (label.to_string(), cfg, source))
    .into()
}

/// Machines at the edges of the model, all `hpca07()` with changes:
///
/// * `tight`: width 2 and 8 scheduler, 8 divert, 4 fetch-queue and 64
///   ROB entries, so releases stop at the width cap and at a full
///   scheduler, and dispatch blocks on a full divert queue;
/// * `delay0_any16`: no divert release delay and no spawn overhead, any
///   task spawns, 16 tasks and 4 fetching per cycle, so one release makes
///   other entries due in the same cycle and tasks are inserted behind
///   non-tail tasks;
/// * `slowmem`: slow caches and multiplies, a 40-cycle release delay, a
///   20-cycle mispredict penalty and no decode latency, so wakeups land
///   far in the future;
/// * `squash_tight`: store-set and hint-entry dependences, a 32-entry ROB
///   reclaimed after 4 blocked cycles, no profitability throttle, and 12
///   scheduler entries, 8 divert entries and width 4.
fn stress_configs() -> Vec<(&'static str, MachineConfig)> {
    let base = MachineConfig::hpca07();
    vec![
        (
            "tight",
            MachineConfig {
                width: 2,
                scheduler_entries: 8,
                divert_entries: 8,
                fetch_queue_entries: 4,
                rob_entries: 64,
                ..base.clone()
            },
        ),
        (
            "delay0_any16",
            MachineConfig {
                divert_release_delay: 0,
                spawn_overhead_cycles: 0,
                spawn_from_any_task: true,
                max_tasks: 16,
                fetch_tasks_per_cycle: 4,
                ..base.clone()
            },
        ),
        (
            "slowmem",
            MachineConfig {
                l1_miss_latency: 40,
                l2_miss_latency: 300,
                mul_latency: 7,
                divert_release_delay: 40,
                misprediction_penalty: 20,
                decode_latency: 0,
                ..base.clone()
            },
        ),
        (
            "squash_tight",
            MachineConfig {
                memory_dependence: DependenceMode::StoreSet,
                register_dependence: DependenceMode::StoreSet,
                rob_entries: 32,
                rob_reclamation: true,
                rob_reclaim_after: 4,
                profitability_feedback: false,
                scheduler_entries: 12,
                divert_entries: 8,
                width: 4,
                ..base
            },
        ),
    ]
}

/// Squashes, ROB reclamations and diverted instructions of one run.
type Counts = [u64; 3];

/// One run's result JSON, its event stream, its counts, and whether it
/// returned a phase profile. Asserts the run finished no earlier than
/// the trace's dataflow-height bound.
fn run(
    prepared: &PreparedTrace,
    cfg: &MachineConfig,
    source: &mut dyn SpawnSource,
    scratch: &mut SimScratch,
    opts: SimOptions,
) -> (String, Vec<u8>, Counts, bool) {
    let mut sink = JsonlSink::new(Vec::new());
    let (r, telemetry) =
        simulate(prepared, cfg, source, scratch, &mut sink, opts).unwrap_or_else(|e| panic!("{e}"));
    let bound = limits::cycle_bound(prepared, cfg);
    assert!(
        r.cycles >= bound,
        "finished in {} cycles, under the dataflow-height bound {bound}",
        r.cycles
    );
    let profiled = telemetry.phases.is_some();
    let json = r.to_json();
    let mut compact_once = Writer::new(Style::Compact);
    r.write_json(&mut compact_once);
    assert!(
        compact_once.finish() == compact(&json),
        "the compact rendering is not the compacted pretty one"
    );
    (
        json,
        sink.into_inner(),
        [r.squashes, r.rob_reclaims, r.diverted],
        profiled,
    )
}

/// (cycle skip, fresh scratch, profile): every skip × scratch
/// combination unprofiled, then a profiled run.
const ALL_VARIANTS: [(bool, bool, bool); 5] = [
    (true, true, false),
    (true, false, false),
    (false, true, false),
    (false, false, false),
    (true, true, true),
];

/// Cycle skipping on from a fresh scratch, then off on the shared one.
const SKIP_VARIANTS: [(bool, bool, bool); 2] = [(true, true, false), (false, false, false)];

/// Runs `program` under every configuration and every variant of
/// `variants`; `reused` is a scratch shared across programs and
/// configurations. Appends one snapshot line per configuration to
/// `lines` and returns the counts summed per configuration.
fn check(
    name: &str,
    program: &Program,
    configs: &[(String, MachineConfig, Source)],
    variants: &[(bool, bool, bool)],
    reused: &mut SimScratch,
    lines: &mut String,
) -> Vec<Counts> {
    let trace = execute_window(program, WINDOW).unwrap().trace;
    let analysis = ProgramAnalysis::analyze(program);
    let mut seen = Vec::new();
    for (label, cfg, source) in configs {
        let source = *source;
        let prepared = PreparedTrace::new(&trace, cfg);
        let mut outputs = Vec::new();
        for &(cycle_skip, fresh, profile) in variants {
            let mut own = SimScratch::default();
            let scratch = if fresh { &mut own } else { &mut *reused };
            let opts = SimOptions {
                cycle_skip,
                profile,
            };
            let out = match source {
                Source::None => run(&prepared, cfg, &mut NoSpawn, scratch, opts),
                Source::Postdoms => {
                    let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
                    run(&prepared, cfg, &mut src, scratch, opts)
                }
                Source::Reconv => {
                    let mut src = ReconvSpawnSource::new(ReconvConfig::default());
                    run(&prepared, cfg, &mut src, scratch, opts)
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
        seen.push(*n);
    }
    seen
}

/// Every program of the fuzz regression corpus (the CFG-shape cases
/// carry no program) and `PER_BUCKET` generated programs per bucket.
fn programs() -> Vec<(String, Program)> {
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
    corpus.chain(generated).collect()
}

/// Runs every program under `configs` and sums the counts per
/// configuration, appending the snapshot lines to `lines`.
fn check_all(
    configs: &[(String, MachineConfig, Source)],
    variants: &[(bool, bool, bool)],
    lines: &mut String,
) -> Vec<Counts> {
    let mut reused = SimScratch::default();
    let mut seen = vec![[0; 3]; configs.len()];
    for (name, program) in programs() {
        let n = check(&name, &program, configs, variants, &mut reused, lines);
        for (total, one) in seen.iter_mut().zip(n) {
            for k in 0..3 {
                total[k] += one[k];
            }
        }
    }
    seen
}

/// The snapshot pins each run's result and event stream, so the squash
/// and reclamation paths, which no bundled cell reaches, are pinned too.
#[test]
fn generated_programs_agree_across_skip_and_scratch() {
    let mut lines = String::new();
    let seen = check_all(&configs(), &ALL_VARIANTS, &mut lines);
    assert!(seen.iter().any(|n| n[0] > 0), "no program squashed");
    assert!(
        seen.iter().any(|n| n[1] > 0),
        "no program reclaimed ROB entries"
    );
    check_or_bless("sim_differential.snap", &lines);
}

/// Every stress machine under postdoms and the reconvergence predictor,
/// with cycle skipping on and off. Each machine must reach the path it
/// is there for: both release-heavy machines divert, and the squashing
/// machine squashes and reclaims.
#[test]
fn stress_machines_agree_across_skip() {
    let machines = stress_configs();
    let configs: Vec<(String, MachineConfig, Source)> = machines
        .iter()
        .flat_map(|(machine, cfg)| {
            [("postdoms", Source::Postdoms), ("rec_pred", Source::Reconv)]
                .map(|(source, s)| (format!("{machine}/{source}"), cfg.clone(), s))
        })
        .collect();
    let mut lines = String::new();
    let seen = check_all(&configs, &SKIP_VARIANTS, &mut lines);
    let per_machine = |machine: &str| {
        let mut sum = [0; 3];
        for ((label, _, _), n) in configs.iter().zip(&seen) {
            if label.split('/').next() == Some(machine) {
                for k in 0..3 {
                    sum[k] += n[k];
                }
            }
        }
        sum
    };
    for (machine, _) in &machines {
        assert!(per_machine(machine)[2] > 0, "{machine}: nothing diverted");
    }
    let [squashes, reclaims, _] = per_machine("squash_tight");
    assert!(squashes > 0, "squash_tight: no program squashed");
    assert!(
        reclaims > 0,
        "squash_tight: no program reclaimed ROB entries"
    );
    check_or_bless("sim_differential_stress.snap", &lines);
}

/// The limit study's wider sweep (ROADMAP item 3): four generated
/// programs per `GenDist` bucket, each under the superscalar baseline,
/// and under `hpca07` and every stress machine with postdoms, the
/// reconvergence predictor and every Figure 9–11 policy. Every run that
/// completes must take at least the trace's dataflow-height bound.
/// Ignored in the tier-1 suite for its length; CI runs it as a step of
/// its own with `--ignored`.
#[test]
#[ignore = "the limit study's wider sweep, a CI step of its own"]
fn generated_programs_respect_the_cycle_bound_on_every_machine() {
    use polyflow_sim::{NullSink, TraceOracles};
    use std::sync::Arc;

    let mut policies: Vec<Policy> = Vec::new();
    for p in Policy::figure9()
        .into_iter()
        .chain(Policy::figure10())
        .chain(Policy::figure11())
    {
        if !policies.contains(&p) {
            policies.push(p);
        }
    }
    assert_eq!(policies.len(), 13);
    let mut machines = vec![("hpca07", MachineConfig::hpca07())];
    machines.extend(stress_configs());
    let superscalar = MachineConfig::superscalar();
    let mut scratch = SimScratch::default();
    let (mut completed, mut failed) = (0u64, 0u64);
    let mut tally = |name: &str,
                     prepared: &PreparedTrace,
                     cfg: &MachineConfig,
                     source: &mut dyn SpawnSource| {
        let opts = SimOptions::default();
        match simulate(prepared, cfg, source, &mut scratch, &mut NullSink, opts) {
            Ok((r, _)) => {
                let bound = limits::cycle_bound(prepared, cfg);
                assert!(
                    r.cycles >= bound,
                    "{name}: finished in {} cycles, under the dataflow-height bound {bound}",
                    r.cycles
                );
                completed += 1;
            }
            Err(_) => failed += 1,
        }
    };
    for (bucket, dist) in GenDist::BUCKETS {
        for seed in 0..4 {
            let program = random_program_with(seed, &dist);
            let trace = execute_window(&program, WINDOW).unwrap().trace;
            let oracles = Arc::new(TraceOracles::new(Arc::new(trace)));
            let analysis = ProgramAnalysis::analyze(&program);
            let name = format!("{bucket}/{seed}");
            tally(
                &format!("{name}/superscalar"),
                &oracles.prepare(&superscalar),
                &superscalar,
                &mut NoSpawn,
            );
            for (machine, cfg) in &machines {
                let prepared = oracles.prepare(cfg);
                for &policy in &policies {
                    let mut src = StaticSpawnSource::new(analysis.spawn_table(policy));
                    tally(
                        &format!("{name}/{machine}/{}", policy.name()),
                        &prepared,
                        cfg,
                        &mut src,
                    );
                }
                let mut src = ReconvSpawnSource::new(ReconvConfig::default());
                tally(
                    &format!("{name}/{machine}/rec_pred"),
                    &prepared,
                    cfg,
                    &mut src,
                );
            }
        }
    }
    let runs = GenDist::BUCKETS.len() as u64
        * 4
        * (1 + machines.len() as u64 * (policies.len() as u64 + 1));
    assert_eq!(completed + failed, runs);
    assert!(completed > 0, "no run completed");
    eprintln!("{completed} runs within the bound, {failed} stopped early, of {runs}");
}
