//! Functional (architectural) interpreter.

use crate::error::ExecError;
use crate::inst::{Inst, Reg};
use crate::memory::Memory;
use crate::program::{Pc, Program};
use crate::trace::{Trace, TraceEntry};

/// The outcome of a [`Interpreter::run`] call.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// The retired-instruction trace.
    pub trace: Trace,
    /// True if the program executed a `halt`.
    pub halted: bool,
    /// Instructions retired.
    pub steps: u64,
}

/// Executes a [`Program`] architecturally, producing a retirement [`Trace`].
///
/// This is the paper's "architectural simulator" used to check the timing
/// model (§3.2); in our trace-driven design it additionally *produces* the
/// trace the timing model replays.
///
/// # Example
///
/// ```
/// use polyflow_isa::{ProgramBuilder, Interpreter, Reg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// b.begin_function("main");
/// b.li(Reg::R1, 7);
/// b.halt();
/// b.end_function();
/// let p = b.build()?;
/// let mut interp = Interpreter::new(&p);
/// let r = interp.run(10)?;
/// assert!(r.halted);
/// assert_eq!(interp.reg(Reg::R1), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter<'p> {
    cpu: Cpu<'p>,
    memory: Memory,
}

/// The interpreter's architectural state apart from data memory, so one
/// step function serves [`Memory`] and, in tests, the reference memory
/// it replaced.
#[derive(Debug, Clone)]
struct Cpu<'p> {
    program: &'p Program,
    regs: [u64; Reg::COUNT],
    pc: Pc,
    halted: bool,
    /// Exclusive upper bound on data addresses, if enforced.
    address_limit: Option<u64>,
}

/// The data memory a [`Cpu`] steps over.
trait DataMemory {
    fn load(&mut self, addr: u64) -> u64;
    fn write(&mut self, addr: u64, value: u64);
}

impl DataMemory for Memory {
    #[inline]
    fn load(&mut self, addr: u64) -> u64 {
        Memory::load(self, addr)
    }

    #[inline]
    fn write(&mut self, addr: u64, value: u64) {
        Memory::write(self, addr, value)
    }
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter at the program entry with initial data loaded.
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        let mut memory = Memory::new();
        for &(addr, value) in program.initial_data() {
            memory.write(addr, value);
        }
        Interpreter {
            cpu: Cpu::new(program),
            memory,
        }
    }

    /// Enforces an (exclusive) upper bound on load/store effective
    /// addresses: any access at or beyond `limit` raises
    /// [`ExecError::MemoryFault`]. The default is an unbounded sparse
    /// address space (the seed behavior). The limit must leave room for
    /// the conventional stack at `0x8000_0000` on programs that use it.
    pub fn set_address_limit(&mut self, limit: Option<u64>) {
        self.cpu.address_limit = limit;
    }

    /// Current value of a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.cpu.reg(r)
    }

    /// Sets a register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.cpu.set_reg(r, v);
    }

    /// The data memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the data memory (e.g. to poke inputs before a run).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// The current program counter.
    pub fn pc(&self) -> Pc {
        self.cpu.pc
    }

    /// True once a `halt` has retired.
    pub fn is_halted(&self) -> bool {
        self.cpu.halted
    }

    /// Executes one instruction and returns its trace entry.
    ///
    /// # Errors
    ///
    /// Fails if the `pc` leaves the program or an indirect jump decodes to
    /// an invalid address. Returns `Ok(None)` if already halted.
    #[inline]
    pub fn step(&mut self) -> Result<Option<TraceEntry>, ExecError> {
        self.cpu.step(&mut self.memory)
    }

    /// Runs until `halt` or until `max_steps` instructions retire.
    ///
    /// # Errors
    ///
    /// Fails on invalid control flow or if the step budget is exhausted
    /// before the program halts.
    pub fn run(&mut self, max_steps: u64) -> Result<ExecResult, ExecError> {
        let mut trace = Trace::new();
        let mut steps = 0;
        while steps < max_steps {
            match self.step()? {
                Some(e) => {
                    trace.push(e);
                    steps += 1;
                    if self.cpu.halted {
                        return Ok(ExecResult {
                            trace,
                            halted: true,
                            steps,
                        });
                    }
                }
                None => {
                    return Ok(ExecResult {
                        trace,
                        halted: true,
                        steps,
                    })
                }
            }
        }
        Err(ExecError::StepLimitExceeded { limit: max_steps })
    }
}

impl<'p> Cpu<'p> {
    fn new(program: &'p Program) -> Cpu<'p> {
        let mut regs = [0u64; Reg::COUNT];
        // Conventional stack pointer: top of a region far above the data
        // segment, growing down.
        regs[Reg::SP.index()] = 0x8000_0000;
        Cpu {
            program,
            regs,
            pc: program.entry(),
            halted: false,
            address_limit: None,
        }
    }

    /// Checks `addr` against the configured address-space limit.
    fn check_addr(&self, at: Pc, addr: u64) -> Result<(), ExecError> {
        match self.address_limit {
            Some(limit) if addr >= limit => Err(ExecError::MemoryFault { at, addr, limit }),
            _ => Ok(()),
        }
    }

    fn reg(&self, r: Reg) -> u64 {
        if r == Reg::R0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        if r != Reg::R0 {
            self.regs[r.index()] = v;
        }
    }

    /// [`Interpreter::step`] over `memory`. Always inlined: left to
    /// itself, the compiler keeps it out of `execute_window`'s loop once
    /// that loop also fills the trace lanes, and the call and the entry
    /// returned through memory then cost about a third of the loop.
    #[inline(always)]
    fn step<M: DataMemory>(&mut self, memory: &mut M) -> Result<Option<TraceEntry>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = self.program.get(pc).ok_or(ExecError::PcOutOfRange { pc })?;

        let mut taken = false;
        let mut mem_addr = None;
        let fallthrough = pc.next();
        let next_pc = match inst {
            Inst::Li { rd, imm } => {
                self.set_reg(rd, imm as u64);
                fallthrough
            }
            Inst::Alu { op, rd, rs, rt } => {
                let v = op.apply(self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
                fallthrough
            }
            Inst::AluI { op, rd, rs, imm } => {
                let v = op.apply(self.reg(rs), imm as u64);
                self.set_reg(rd, v);
                fallthrough
            }
            Inst::Load { rd, base, off } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                self.check_addr(pc, addr)?;
                mem_addr = Some(addr);
                let v = memory.load(addr);
                self.set_reg(rd, v);
                fallthrough
            }
            Inst::Store { rs, base, off } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                self.check_addr(pc, addr)?;
                mem_addr = Some(addr);
                memory.write(addr, self.reg(rs));
                fallthrough
            }
            Inst::Br {
                cond,
                rs,
                rt,
                target,
            } => {
                taken = cond.eval(self.reg(rs), self.reg(rt));
                if taken {
                    target
                } else {
                    fallthrough
                }
            }
            Inst::Jmp { target } => {
                taken = true;
                target
            }
            Inst::Jr { rs } => {
                taken = true;
                let v = self.reg(rs);
                Pc::from_value(v).ok_or(ExecError::BadIndirectTarget { at: pc, value: v })?
            }
            Inst::Call { target } => {
                taken = true;
                self.set_reg(Reg::RA, fallthrough.to_value());
                target
            }
            Inst::CallR { rs } => {
                taken = true;
                let v = self.reg(rs);
                let t =
                    Pc::from_value(v).ok_or(ExecError::BadIndirectTarget { at: pc, value: v })?;
                self.set_reg(Reg::RA, fallthrough.to_value());
                t
            }
            Inst::Ret => {
                taken = true;
                let v = self.reg(Reg::RA);
                Pc::from_value(v).ok_or(ExecError::BadIndirectTarget { at: pc, value: v })?
            }
            Inst::Halt => {
                self.halted = true;
                pc
            }
            Inst::Nop => fallthrough,
        };

        if !self.halted {
            if next_pc.index() >= self.program.len() {
                return Err(ExecError::PcOutOfRange { pc: next_pc });
            }
            self.pc = next_pc;
        }

        Ok(Some(TraceEntry {
            pc,
            inst,
            taken,
            next_pc,
            mem_addr,
        }))
    }
}

/// Executes `program` for at most `window` instructions, returning the trace
/// whether or not the program halted.
///
/// This is the main entry point used by the workloads and the simulator: it
/// mirrors the paper's fixed 100M-instruction simulation windows (§3.2).
///
/// # Errors
///
/// Fails only on invalid control flow (never on budget exhaustion).
pub fn execute_window(program: &Program, window: u64) -> Result<ExecResult, ExecError> {
    run_window(Interpreter::new(program), window)
}

/// [`execute_window`]'s loop, from any interpreter state.
fn run_window(mut interp: Interpreter<'_>, window: u64) -> Result<ExecResult, ExecError> {
    let mut trace = Trace::new();
    let mut steps = 0;
    while steps < window {
        match interp.step()? {
            Some(e) => {
                trace.push(e);
                steps += 1;
                if interp.is_halted() {
                    break;
                }
            }
            None => break,
        }
    }
    Ok(ExecResult {
        trace,
        halted: interp.is_halted(),
        steps,
    })
}

/// The interpreter over the hashed memory it used before the page
/// memo, and `execute_window`'s loop as it was: the differential
/// reference of both.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::memory::reference::Memory as HashedMemory;

    impl DataMemory for HashedMemory {
        fn load(&mut self, addr: u64) -> u64 {
            self.read(addr)
        }

        fn write(&mut self, addr: u64, value: u64) {
            HashedMemory::write(self, addr, value)
        }
    }

    pub(crate) struct Reference<'p> {
        cpu: Cpu<'p>,
        pub(crate) memory: HashedMemory,
    }

    impl<'p> Reference<'p> {
        pub(crate) fn new(program: &'p Program, limit: Option<u64>) -> Reference<'p> {
            let mut memory = HashedMemory::default();
            for &(addr, value) in program.initial_data() {
                memory.write(addr, value);
            }
            let mut cpu = Cpu::new(program);
            cpu.address_limit = limit;
            Reference { cpu, memory }
        }

        pub(crate) fn step(&mut self) -> Result<Option<TraceEntry>, ExecError> {
            self.cpu.step(&mut self.memory)
        }

        pub(crate) fn reg(&self, r: Reg) -> u64 {
            self.cpu.reg(r)
        }

        pub(crate) fn is_halted(&self) -> bool {
            self.cpu.halted
        }
    }

    pub(crate) fn execute_window(
        program: &Program,
        window: u64,
        limit: Option<u64>,
    ) -> Result<ExecResult, ExecError> {
        let mut interp = Reference::new(program, limit);
        let mut trace = Trace::new();
        let mut steps = 0;
        while steps < window {
            match interp.step()? {
                Some(e) => {
                    trace.push(e);
                    steps += 1;
                    if interp.is_halted() {
                        break;
                    }
                }
                None => break,
            }
        }
        Ok(ExecResult {
            trace,
            halted: interp.is_halted(),
            steps,
        })
    }

    /// [`execute_window`](super::execute_window) under an address limit.
    pub(crate) fn execute_window_limited(
        program: &Program,
        window: u64,
        limit: Option<u64>,
    ) -> Result<ExecResult, ExecError> {
        let mut interp = Interpreter::new(program);
        interp.set_address_limit(limit);
        run_window(interp, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{AluOp, Cond};

    fn simple_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 0);
        b.bind_label(top);
        b.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R2);
        b.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.br_imm(Cond::Lt, Reg::R2, 10, top);
        b.halt();
        b.end_function();
        b.build().unwrap()
    }

    #[test]
    fn loop_sums_correctly() {
        let p = simple_loop();
        let mut i = Interpreter::new(&p);
        let r = i.run(1000).unwrap();
        assert!(r.halted);
        assert_eq!(i.reg(Reg::R1), 45);
        assert_eq!(r.steps as usize, r.trace.len());
    }

    #[test]
    fn address_limit_raises_memory_fault() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.li(Reg::R1, 0x4000);
        b.store(Reg::R2, Reg::R1, 0);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        // Unlimited (default): the store succeeds.
        let mut i = Interpreter::new(&p);
        assert!(i.run(10).unwrap().halted);
        // Limited below the effective address: a typed memory fault.
        let mut i = Interpreter::new(&p);
        i.set_address_limit(Some(0x1000));
        let err = i.run(10).unwrap_err();
        assert_eq!(
            err,
            ExecError::MemoryFault {
                at: Pc::new(1),
                addr: 0x4000,
                limit: 0x1000,
            }
        );
        // A limit above the address does not fire.
        let mut i = Interpreter::new(&p);
        i.set_address_limit(Some(0x10000));
        assert!(i.run(10).unwrap().halted);
    }

    #[test]
    fn step_limit_errors() {
        let p = simple_loop();
        let mut i = Interpreter::new(&p);
        assert!(matches!(
            i.run(3),
            Err(ExecError::StepLimitExceeded { limit: 3 })
        ));
    }

    #[test]
    fn execute_window_truncates_gracefully() {
        let p = simple_loop();
        let r = execute_window(&p, 5).unwrap();
        assert!(!r.halted);
        assert_eq!(r.trace.len(), 5);
        let r = execute_window(&p, 100_000).unwrap();
        assert!(r.halted);
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.li(Reg::R1, 5);
        b.call("double");
        b.halt();
        b.end_function();
        b.begin_function("double");
        b.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R1);
        b.ret();
        b.end_function();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p);
        let r = i.run(100).unwrap();
        assert!(r.halted);
        assert_eq!(i.reg(Reg::R1), 10);
        // Trace visits: li, call, add, ret, halt.
        assert_eq!(r.trace.len(), 5);
        assert_eq!(
            r.trace.entry(1).next_pc,
            p.function("double").unwrap().entry()
        );
    }

    #[test]
    fn nested_calls_with_stack() {
        // main calls f, f saves RA on stack and calls g, then returns.
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.call("f");
        b.halt();
        b.end_function();
        b.begin_function("f");
        b.alui(AluOp::Add, Reg::SP, Reg::SP, -8);
        b.store(Reg::RA, Reg::SP, 0);
        b.call("g");
        b.load(Reg::RA, Reg::SP, 0);
        b.alui(AluOp::Add, Reg::SP, Reg::SP, 8);
        b.ret();
        b.end_function();
        b.begin_function("g");
        b.li(Reg::R9, 99);
        b.ret();
        b.end_function();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p);
        let r = i.run(100).unwrap();
        assert!(r.halted);
        assert_eq!(i.reg(Reg::R9), 99);
    }

    #[test]
    fn memory_and_data_segment() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let base = b.alloc_data(&[11, 22]);
        b.li(Reg::R1, base as i64);
        b.load(Reg::R2, Reg::R1, 0);
        b.load(Reg::R3, Reg::R1, 8);
        b.alu(AluOp::Add, Reg::R4, Reg::R2, Reg::R3);
        b.store(Reg::R4, Reg::R1, 16);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.reg(Reg::R4), 33);
        assert_eq!(i.memory().read(base + 16), 33);
    }

    #[test]
    fn branch_trace_records_direction() {
        let p = simple_loop();
        let r = execute_window(&p, 10_000).unwrap();
        let branches: Vec<_> = r.trace.iter().filter(|e| e.inst.is_cond_branch()).collect();
        assert_eq!(branches.len(), 10);
        assert!(branches[..9].iter().all(|e| e.taken));
        assert!(!branches[9].taken);
    }

    #[test]
    fn indirect_jump_dispatch() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let case0 = b.fresh_label("case0");
        let case1 = b.fresh_label("case1");
        let out = b.fresh_label("out");
        let tbl = b.alloc_label_table(&[case0, case1]);
        b.li(Reg::R1, 1); // select case 1
        b.alui(AluOp::Sll, Reg::R2, Reg::R1, 3);
        b.li(Reg::R3, tbl as i64);
        b.alu(AluOp::Add, Reg::R3, Reg::R3, Reg::R2);
        b.load(Reg::R4, Reg::R3, 0);
        b.jr(Reg::R4, &[case0, case1]);
        b.bind_label(case0);
        b.li(Reg::R5, 100);
        b.jmp(out);
        b.bind_label(case1);
        b.li(Reg::R5, 200);
        b.jmp(out);
        b.bind_label(out);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.reg(Reg::R5), 200);
    }

    #[test]
    fn bad_indirect_target_errors() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        let l = b.fresh_label("l");
        b.li(Reg::R1, 3); // not 4-aligned
        b.jr(Reg::R1, &[l]);
        b.bind_label(l);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p);
        assert!(matches!(
            i.run(10),
            Err(ExecError::BadIndirectTarget { .. })
        ));
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut b = ProgramBuilder::new();
        b.begin_function("main");
        b.li(Reg::R0, 77);
        b.alu(AluOp::Add, Reg::R1, Reg::R0, Reg::R0);
        b.halt();
        b.end_function();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p);
        i.run(10).unwrap();
        assert_eq!(i.reg(Reg::R0), 0);
        assert_eq!(i.reg(Reg::R1), 0);
    }

    #[test]
    fn trace_halt_entry_is_last() {
        let p = simple_loop();
        let r = execute_window(&p, 10_000).unwrap();
        let last = r.trace.entry(r.trace.len() - 1);
        assert_eq!(last.inst, Inst::Halt);
    }
}
