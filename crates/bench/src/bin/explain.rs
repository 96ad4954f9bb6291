//! Explains one run: where every cycle-slot went, per bucket and per
//! task, and where the speedup over the superscalar baseline came from.
//!
//! Usage: `explain [flags] <workload> [policy]`, or
//! `explain --asm <path> [policy]` to explain a runtime-loaded `.asm`
//! workload instead of a bundled name (`explain --help` lists the
//! flags). The policy is any of `superscalar`, `loop`, `loopFT`,
//! `procFT`, `hammock`, `other`, `postdoms` (default `postdoms`). A run
//! that exceeds `--max-cycles` is reported as a typed error, exit
//! status 1.
//!
//! The text output ends with the host time of each simulator phase, net
//! of the profile's own clock reads, which a `timer` row shows, and the
//! simulator's work counts ([`SimTelemetry::phases`]). `--json` leaves
//! both out.
//!
//! The speedup decomposition is exact: the baseline accounts one slot per
//! cycle and the PolyFlow machine `contexts` slots per cycle, so
//! comparing the baseline's bucket cycles against the run's per-context
//! average makes the per-bucket deltas sum to exactly the cycles saved.

use polyflow_bench::cli::{self, Flag, Operands, Spec, Value};
use polyflow_bench::sweep::{run_cell_with_config_opts, Cell};
use polyflow_bench::{parse_policy, PreparedWorkload, POLICY_NAMES};
use polyflow_core::Policy;
use polyflow_isa::json::{Style, Writer};
use polyflow_sim::{
    simulate, timeline, Bucket, JsonlSink, MachineConfig, NoSpawn, PhaseProfile, SimError,
    SimOptions, SimResult, SimScratch, SimTelemetry, StaticSpawnSource,
};

struct Options {
    workload: String,
    policy: Policy,
    json: bool,
    events: Option<String>,
    top: usize,
    width: usize,
    max_cycles: u64,
}

const ASM: Flag = Flag {
    name: "--asm",
    value: Value::Text("PATH"),
    help: "explain the program at PATH instead of a bundled workload \
           (the first positional is then the policy)",
};
const JSON: Flag = Flag {
    name: "--json",
    value: Value::Switch,
    help: "emit the baseline and policy results, with their full cycle \
           accounts, as JSON instead of tables",
};
const EVENTS: Flag = Flag {
    name: "--events",
    value: Value::Text("PATH"),
    help: "also stream the run's structured event trace to PATH as JSON Lines",
};
const TOP: Flag = Flag {
    name: "--top",
    value: Value::Number("N"),
    help: "rows in the per-task table (default 10)",
};
const WIDTH: Flag = Flag {
    name: "--width",
    value: Value::Number("N"),
    help: "timeline chart width (default 100)",
};

const SPEC: Spec = Spec {
    name: "explain",
    about: "per-bucket cycle accounting for one run",
    flags: &[ASM, JSON, EVENTS, TOP, WIDTH, cli::MAX_CYCLES],
    operands: Operands::Words(&["<workload>", "[policy]"]),
    notes: "Policies: superscalar loop loopFT procFT hammock other postdoms \
            (default postdoms)\n",
};

fn main() {
    let args = cli::parse(&SPEC);
    let asm = args.text(&ASM);
    // A bundled workload is named first; under `--asm` the policy is.
    if let (Some(_), Some(extra)) = (asm, args.filter.get(1)) {
        args.fail(&format!("unexpected argument `{extra}`"));
    }
    let policy = args.filter.get(usize::from(asm.is_none()));
    let policy = policy.map_or(Policy::Postdoms, |p| {
        parse_policy(p)
            .unwrap_or_else(|| args.fail(&format!("unknown policy `{p}`; one of {POLICY_NAMES:?}")))
    });
    let mut opts = Options {
        workload: String::new(),
        policy,
        json: args.switch(&JSON),
        events: args.text(&EVENTS).map(String::from),
        top: args.number(&TOP).unwrap_or(10),
        width: args.number(&WIDTH).unwrap_or(100),
        max_cycles: args.number(&cli::MAX_CYCLES).unwrap_or(u64::MAX),
    };
    let w = match asm {
        Some(path) => polyflow_workloads::from_asm_file(path).unwrap_or_else(|e| {
            eprintln!("explain: cannot load workload `{path}`: {e}");
            std::process::exit(1);
        }),
        None => {
            let name = args.filter.first();
            args.workload(name.unwrap_or_else(|| args.fail("missing <workload>")))
        }
    };
    let pw = match PreparedWorkload::try_prepare(w) {
        Ok(pw) => pw,
        Err(e) => {
            eprintln!("explain: {e}");
            std::process::exit(1);
        }
    };
    opts.workload = pw.name.clone();
    if let Err(e) = explain(&opts, &pw) {
        eprintln!("explain: {e}");
        std::process::exit(1);
    }
}

/// Runs the baseline and the policy cell, then prints them. A failed run
/// (a tripped watchdog, say) comes back as its typed error.
fn explain(opts: &Options, pw: &PreparedWorkload) -> Result<(), SimError> {
    let sim = SimOptions {
        profile: !opts.json,
        ..SimOptions::default()
    };
    let mut scratch = SimScratch::default();
    let cell = match opts.policy {
        Policy::None => Cell::Baseline,
        p => Cell::Static(p),
    };
    let [base_cfg, cfg] = [Cell::Baseline, cell].map(|c| MachineConfig {
        max_cycles: opts.max_cycles,
        ..c.machine()
    });
    let baseline = run_cell_with_config_opts(pw, Cell::Baseline, &base_cfg, &mut scratch, sim)?;
    let run = match &opts.events {
        None => run_cell_with_config_opts(pw, cell, &cfg, &mut scratch, sim)?,
        // Not a `Cell` run: the events go to a file sink.
        Some(path) => {
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("explain: cannot create {path}: {e}");
                std::process::exit(1);
            });
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            let prepared = pw.prepared(&cfg);
            let run = match cell {
                Cell::Static(p) => {
                    let mut src = StaticSpawnSource::new(pw.analysis.spawn_table(p));
                    simulate(&prepared, &cfg, &mut src, &mut scratch, &mut sink, sim)?
                }
                _ => simulate(&prepared, &cfg, &mut NoSpawn, &mut scratch, &mut sink, sim)?,
            };
            eprintln!("wrote {} events to {path}", sink.written());
            run
        }
    };
    if opts.json {
        print_json(opts, &baseline.0, &run.0);
    } else {
        print_tables(opts, &baseline.0, &run.0);
        print_phases(opts, &baseline.1, &run.1);
    }
    Ok(())
}

/// Prints both runs as one pretty JSON document; each result is laid
/// out as [`SimResult::to_json`] lays it out, one level deeper.
fn print_json(opts: &Options, baseline: &SimResult, run: &SimResult) {
    let mut w = Writer::new(Style::Pretty);
    w.block_object(|w| {
        w.key("workload").str(&opts.workload);
        w.key("policy").str(&opts.policy.name());
        w.key("speedup_percent")
            .fixed(run.speedup_percent_over(baseline), 2);
        w.key("baseline");
        baseline.write_json(w);
        w.key("run");
        run.write_json(w);
    });
    println!("{}", w.finish());
}

fn print_tables(opts: &Options, baseline: &SimResult, run: &SimResult) {
    let policy = opts.policy.name();
    println!(
        "== {} under {policy}: {} instrs ==",
        opts.workload, run.instructions
    );
    println!(
        "baseline (superscalar): {:>9} cycles  IPC {:.2}",
        baseline.cycles,
        baseline.ipc()
    );
    println!(
        "{policy:<22}: {:>9} cycles  IPC {:.2}  speedup {:+.1}%",
        run.cycles,
        run.ipc(),
        run.speedup_percent_over(baseline)
    );
    println!(
        "{} spawns, {} squashes, {} diverted, max {} live tasks",
        run.total_spawns(),
        run.squashes,
        run.diverted,
        run.max_live_tasks
    );

    // Bucket table: baseline cycles vs the run's per-context average.
    // Both columns sum to their run's cycle count, so the deltas sum to
    // exactly the cycles saved.
    let contexts = run.account.contexts.max(1);
    println!("\n-- cycle account (per context; deltas sum to cycles saved) --");
    println!(
        "{:<16} {:>12} {:>7} {:>12} {:>7} {:>12}",
        "bucket", "baseline", "%", policy, "%", "delta"
    );
    let mut rows: Vec<(Bucket, f64)> = Bucket::ALL
        .iter()
        .map(|&b| {
            let base = baseline.account.bucket(b) as f64 / baseline.account.contexts.max(1) as f64;
            let here = run.account.bucket(b) as f64 / contexts as f64;
            (b, base - here)
        })
        .collect();
    for &(b, delta) in &rows {
        println!(
            "{:<16} {:>12.0} {:>6.1}% {:>12.0} {:>6.1}% {:>+12.0}",
            b.label(),
            baseline.account.bucket(b) as f64 / baseline.account.contexts.max(1) as f64,
            baseline.account.percent(b),
            run.account.bucket(b) as f64 / contexts as f64,
            run.account.percent(b),
            delta
        );
    }
    let saved: f64 = rows.iter().map(|(_, d)| d).sum();
    println!(
        "{:<16} {:>12} {:>7} {:>12} {:>7} {:>+12.0}  (= {} - {})",
        "total", baseline.cycles, "", run.cycles, "", saved, baseline.cycles, run.cycles
    );

    // Top-N speedup sources.
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\n-- where did the speedup come from (top {}) --", opts.top);
    for (b, delta) in rows.iter().take(opts.top) {
        if *delta <= 0.0 {
            continue;
        }
        println!(
            "{:>+10.0} cycles  {}  ({:.1}% of baseline time)",
            delta,
            b.label(),
            100.0 * delta / baseline.cycles.max(1) as f64
        );
    }

    // Per-task accounts, largest first.
    let mut tasks: Vec<(usize, &polyflow_sim::TaskAccount)> =
        run.account.tasks.iter().enumerate().collect();
    tasks.sort_by_key(|(_, t)| std::cmp::Reverse(t.total()));
    println!(
        "\n-- per-task cycle accounts (top {} of {}) --",
        opts.top,
        tasks.len()
    );
    println!(
        "{:<5} {:<9} {:>9} {:>10} {:>10} {:>9}  dominant stall",
        "task", "kind", "spawn@", "slots", "retire", "stalled"
    );
    for (uid, t) in tasks.iter().take(opts.top) {
        let kind = t
            .kind
            .map(|k| k.to_string())
            .unwrap_or_else(|| "initial".into());
        let dominant = Bucket::ALL
            .iter()
            .filter(|b| b.is_stall())
            .max_by_key(|b| t.buckets[b.index()])
            .filter(|b| t.buckets[b.index()] > 0)
            .map(|b| format!("{} ({})", b.label(), t.buckets[b.index()]))
            .unwrap_or_else(|| "-".into());
        println!(
            "{uid:<5} {kind:<9} {:>9} {:>10} {:>10} {:>9}  {dominant}",
            t.spawn_cycle,
            t.total(),
            t.buckets[Bucket::Retire.index()],
            t.stalled()
        );
    }

    // The Figure-4 chart.
    println!("\n-- task timeline (Figure 4) --");
    print!("{}", timeline::render(run, opts.width));
    print!("{}", timeline::summary(run));
}

/// Host time per simulator phase for both runs: where the simulator, not
/// the simulated machine, spent its time. Each phase row is net of the
/// profile's clock reads ([`PhaseProfile::net`]); the `timer` row is what
/// the reads took, the total less every phase row, so the rows sum to
/// the total exactly as printed.
fn print_phases(opts: &Options, baseline: &SimTelemetry, run: &SimTelemetry) {
    let (Some(base), Some(here)) = (baseline.phases, run.phases) else {
        return;
    };
    let rows = |p: &PhaseProfile| {
        let mut us: Vec<u128> = (0..PhaseProfile::LABELS.len())
            .map(|i| p.net(i).as_micros())
            .collect();
        let total = p.total().as_micros();
        us.push(total - us.iter().sum::<u128>());
        us.push(total);
        us
    };
    let ms = |us: u128| format!("{}.{:03}", us / 1000, us % 1000);
    println!("\n-- host time per simulator phase (ms) --");
    println!(
        "{:<10} {:>12} {:>12}",
        "phase",
        "baseline",
        opts.policy.name()
    );
    let labels = PhaseProfile::LABELS.iter().chain(&["timer", "total"]);
    for ((label, b), h) in labels.zip(rows(&base)).zip(rows(&here)) {
        println!("{label:<10} {:>12} {:>12}", ms(b), ms(h));
    }
    println!("\n-- simulator work counts --");
    println!(
        "{:<16} {:>12} {:>12}",
        "count",
        "baseline",
        opts.policy.name()
    );
    let counts = |p: &PhaseProfile| {
        [
            ("issued", p.issued),
            ("wakes_pushed", p.wakes_pushed),
            ("wakes_popped", p.wakes_popped),
            ("divert_examined", p.divert_examined),
            ("divert_released", p.divert_released),
            ("fetch_visits", p.fetch_visits),
            ("ledger_charges", p.ledger_charges),
        ]
    };
    for ((label, b), (_, h)) in counts(&base).into_iter().zip(counts(&here)) {
        println!("{label:<16} {b:>12} {h:>12}");
    }
}
