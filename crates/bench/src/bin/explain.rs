//! Explains one run: where every cycle-slot went, per bucket and per
//! task, and where the speedup over the superscalar baseline came from.
//!
//! Usage: `explain <workload> [policy] [--json] [--events <path>]
//! [--top N] [--width N] [--max-cycles N]`, or
//! `explain --asm <path> [policy] ...` to explain a runtime-loaded
//! `.asm` workload instead of a bundled name.
//!
//! * `policy` — any of `superscalar`, `loop`, `loopFT`, `procFT`,
//!   `hammock`, `other`, `postdoms` (default `postdoms`).
//! * `--json` — emit the baseline and policy [`SimResult`]s (including
//!   the full cycle account) as JSON instead of tables.
//! * `--events <path>` — additionally stream the run's structured event
//!   trace as JSON Lines to `path`.
//! * `--top N` — rows in the per-task table (default 10).
//! * `--width N` — timeline chart width (default 100).
//! * `--max-cycles N` — cycle budget of each run (default unlimited); a
//!   run that exceeds it is reported as a typed error, exit status 1.
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
    asm: Option<String>,
    policy: Policy,
    json: bool,
    events: Option<String>,
    top: usize,
    width: usize,
    max_cycles: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        asm: None,
        policy: Policy::Postdoms,
        json: false,
        events: None,
        top: 10,
        width: 100,
        max_cycles: u64::MAX,
    };
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--" => {} // cargo-run argument separator
            "--help" | "-h" => {
                println!(
                    "explain — per-bucket cycle accounting for one run\n\n\
                     Usage: explain <workload|--asm path> [policy] [--json] \
                     [--events <path>] [--top N] [--width N] [--max-cycles N]\n\n\
                     Policies: {POLICY_NAMES:?} (default postdoms)"
                );
                std::process::exit(0);
            }
            "--json" => opts.json = true,
            "--asm" => {
                opts.asm = Some(args.next().ok_or("--asm requires a path")?);
            }
            "--events" => {
                opts.events = Some(args.next().ok_or("--events requires a path")?);
            }
            "--top" => opts.top = number(&a, args.next())?,
            "--width" => opts.width = number(&a, args.next())?,
            "--max-cycles" => opts.max_cycles = number(&a, args.next())?,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => positional.push(other.to_string()),
        }
    }
    let mut positional = positional.into_iter();
    if opts.asm.is_none() {
        opts.workload = positional.next().ok_or("missing <workload>")?;
    }
    if let Some(p) = positional.next() {
        opts.policy = parse_policy(&p)
            .ok_or_else(|| format!("unknown policy `{p}`; one of {POLICY_NAMES:?}"))?;
    }
    Ok(opts)
}

/// The value of the numeric `flag`.
fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} requires a number"))?;
    v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
}

fn main() {
    let mut opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("explain: {e}");
            eprintln!(
                "usage: explain <workload> [policy] [--json] [--events <path>] \
                 [--top N] [--width N] [--max-cycles N]"
            );
            std::process::exit(2);
        }
    };
    let w = match &opts.asm {
        Some(path) => match polyflow_workloads::from_asm_file(path) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("explain: cannot load workload `{path}`: {e}");
                std::process::exit(1);
            }
        },
        None => match polyflow_workloads::by_name(&opts.workload) {
            Some(w) => w,
            None => {
                eprintln!(
                    "unknown workload `{}`; one of {:?}",
                    opts.workload,
                    polyflow_workloads::NAMES
                );
                std::process::exit(1);
            }
        },
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
