//! Write a kernel in the textual assembly format, run the whole PolyFlow
//! pipeline on it, and disassemble it back.
//!
//! Run with: `cargo run --release --example assembler`

use polyflow::core::{Policy, ProgramAnalysis};
use polyflow::isa::{execute_window, parse_program, to_asm};
use polyflow::sim::{
    simulate, MachineConfig, NoSpawn, NullSink, PreparedTrace, SimOptions, SimScratch,
    StaticSpawnSource,
};

/// A pointer-chase kernel with a data-dependent hammock — written as
/// text, the way a downstream user would prototype a workload.
const KERNEL: &str = r#"
; weights drive the hammock; the chain is walked 400 times
.data weights = [17, 903, 250, 999, 42, 731, 8, 505, 611, 44, 872, 13, 509, 498, 77, 941, 230, 864, 391, 702, 155, 628, 983, 46, 519, 330, 761, 94, 457, 808, 273, 666]

fn main {
    la   r16, weights
    li   r1, 0
loop:
    andi r12, r1, 31         ; index into the weights
    slli r12, r12, 3
    add  r13, r16, r12
    ld   r2, 0(r13)          ; data-dependent value
    li   r28, 500
    blt  r2, r28, small      ; the hammock branch
    muli r3, r2, 3           ; expensive arm
    srai r3, r3, 1
    addi r4, r4, 1
    j    join
small:
    addi r5, r5, 1
join:
    add  r6, r4, r5          ; reconvergent work
    addi r1, r1, 1
    li   r28, 400
    blt  r1, r28, loop
    halt
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(KERNEL)?;
    println!(
        "parsed {} instructions across {} function(s)",
        program.len(),
        program.functions().len()
    );

    // Static analysis: where are the spawn points?
    let analysis = ProgramAnalysis::analyze(&program);
    println!("\nspawn candidates:");
    for sp in analysis.candidates() {
        println!("  {sp}");
    }

    // Run it.
    let trace = execute_window(&program, 100_000)?.trace;
    let ss = MachineConfig::superscalar();
    let prep = PreparedTrace::new(&trace, &ss);
    let mut scratch = SimScratch::default();
    let base = simulate(
        &prep,
        &ss,
        &mut NoSpawn,
        &mut scratch,
        &mut NullSink,
        SimOptions::default(),
    )?
    .0;
    let pf = MachineConfig::hpca07();
    let prep = PreparedTrace::new(&trace, &pf);
    let mut src = StaticSpawnSource::new(analysis.spawn_table(Policy::Postdoms));
    let r = simulate(
        &prep,
        &pf,
        &mut src,
        &mut scratch,
        &mut NullSink,
        SimOptions::default(),
    )?
    .0;
    println!(
        "\nsuperscalar IPC {:.2}; postdoms IPC {:.2} => {:.1}% speedup ({} spawns)",
        base.ipc(),
        r.ipc(),
        r.speedup_percent_over(&base),
        r.total_spawns()
    );

    // And back to text.
    println!("\n--- disassembly (round-trips through parse_program) ---");
    print!("{}", to_asm(&program));
    Ok(())
}
