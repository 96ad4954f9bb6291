//! Compile-time guard for the parallel sweep harness: the types shared
//! across worker threads (or handed to per-thread simulator runs) must
//! stay `Send + Sync` / `Send`. If a future change smuggles an `Rc`, a
//! raw pointer, or interior mutability into one of these, this test stops
//! compiling instead of the sweep engine silently losing parallelism.

use polyflow::core::ProgramAnalysis;
use polyflow::isa::{Dataflow, Memory, PcIndex, Program, Trace};
use polyflow::reconv::ReconvergencePredictor;
use polyflow::sim::{
    HintCacheSource, MachineConfig, NoSpawn, PredictionTrace, PreparedTrace, ReconvSpawnSource,
    SimResult, SimScratch, StaticSpawnSource, TraceOracles,
};

const fn assert_send_sync<T: Send + Sync>() {}
const fn assert_send<T: Send>() {}

// Shared read-only across every worker (must be Send + Sync).
const _: () = {
    assert_send_sync::<Trace>();
    assert_send_sync::<Program>();
    assert_send_sync::<ProgramAnalysis>();
    assert_send_sync::<MachineConfig>();
    assert_send_sync::<Dataflow>();
    assert_send_sync::<PcIndex>();
    assert_send_sync::<TraceOracles>();
    assert_send_sync::<PredictionTrace>();
    assert_send_sync::<PreparedTrace>();
    assert_send_sync::<SimResult>();
    // The interpreter's last-page memo moves only under `&mut`, so a
    // memory stays shareable.
    assert_send_sync::<Memory>();
};

// Owned per worker / per cell (must at least be Send).
const _: () = {
    assert_send::<SimScratch>();
    assert_send::<NoSpawn>();
    assert_send::<StaticSpawnSource>();
    assert_send::<ReconvSpawnSource>();
    assert_send::<HintCacheSource<StaticSpawnSource>>();
    assert_send::<ReconvergencePredictor>();
};

/// And the runtime counterpart: a `PreparedTrace` really is shareable —
/// concurrent simulations over one shared prep agree with a serial run.
#[test]
fn prepared_trace_is_shared_across_threads() {
    use polyflow::isa::{execute_window, AluOp, Cond, ProgramBuilder, Reg};
    use polyflow::sim::{simulate, NullSink, SimOptions};

    let mut b = ProgramBuilder::new();
    b.begin_function("main");
    let top = b.fresh_label("top");
    b.li(Reg::R1, 0);
    b.bind_label(top);
    b.alui(AluOp::Add, Reg::R2, Reg::R2, 3);
    b.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
    b.br_imm(Cond::Lt, Reg::R1, 500, top);
    b.halt();
    b.end_function();
    let program = b.build().unwrap();
    let trace = execute_window(&program, 100_000).unwrap().trace;
    let cfg = MachineConfig::superscalar();
    let prep = PreparedTrace::new(&trace, &cfg);
    let run = |prep: &PreparedTrace, cfg: &MachineConfig| {
        let mut scratch = SimScratch::default();
        let opts = SimOptions::default();
        simulate(prep, cfg, &mut NoSpawn, &mut scratch, &mut NullSink, opts)
            .unwrap()
            .0
    };

    let expected = run(&prep, &cfg);
    let results: Vec<SimResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let prep = prep.clone();
                let cfg = cfg.clone();
                scope.spawn(move || run(&prep, &cfg))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        assert_eq!(r, expected);
    }
}
