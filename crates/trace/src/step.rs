//! Dynamic traces: the correct-path execution record a timing simulator
//! consumes.

use ms_ir::{BlockRef, Opcode, Program, Reg, Terminator};

/// The outcome of one block's terminator in a dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtOutcome {
    /// A conditional branch resolved taken (`true`) or not (`false`).
    Branch(bool),
    /// A switch selected target index `i`.
    Switch(u16),
    /// An unconditional jump.
    Jump,
    /// A call was performed.
    Call,
    /// A call was *skipped* by the recursion guard (control went straight
    /// to the return block).
    SkippedCall,
    /// A return to the caller.
    Return,
    /// Program end.
    Halt,
}

/// One dynamic basic-block execution: the block and its control
/// transfer outcome. The concrete addresses its memory instructions
/// touched live in the owning [`Trace`] ([`Trace::mem_addrs`]), so a
/// step is a plain 16-byte record with no heap data of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// The executed block.
    pub block: BlockRef,
    /// How the block's terminator resolved.
    pub outcome: CtOutcome,
    /// Call nesting depth at which the block ran (0 = program entry
    /// function).
    pub depth: u32,
}

impl TraceStep {
    /// Number of dynamic instructions this step contributes (straight-line
    /// instructions plus the control transfer, if it emits one).
    pub fn num_insts(&self, program: &Program) -> usize {
        let blk = program.function(self.block.func).block(self.block.block);
        blk.insts().len() + usize::from(blk.terminator().emits_ct_inst())
    }
}

/// What a dynamic instruction is, from the simulator's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynInstKind {
    /// A straight-line operation.
    Op(Opcode),
    /// The block's control transfer.
    Ct,
}

/// A materialised dynamic instruction (operands resolved against the
/// program and copied out).
#[derive(Debug, Clone, PartialEq)]
pub struct DynInst {
    /// Instruction address.
    pub pc: u64,
    /// Operation kind.
    pub kind: DynInstKind,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers.
    pub srcs: Vec<Reg>,
    /// Concrete memory address for loads/stores.
    pub addr: Option<u64>,
}

impl DynInst {
    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        matches!(self.kind, DynInstKind::Op(op) if op.is_load())
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        matches!(self.kind, DynInstKind::Op(op) if op.is_store())
    }

    /// Whether this is a control transfer.
    pub fn is_ct(&self) -> bool {
        matches!(self.kind, DynInstKind::Ct)
    }
}

/// A borrowed view of one dynamic instruction — [`DynInst`] without the
/// copied-out operand list. [`Trace::inst_refs`] yields these so the
/// simulator's per-instruction loop allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct DynInstRef<'p> {
    /// Instruction address.
    pub pc: u64,
    /// Operation kind.
    pub kind: DynInstKind,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers, borrowed from the program.
    pub srcs: &'p [Reg],
    /// Concrete memory address for loads/stores.
    pub addr: Option<u64>,
}

impl DynInstRef<'_> {
    /// Whether this is a control transfer.
    pub fn is_ct(&self) -> bool {
        matches!(self.kind, DynInstKind::Ct)
    }
}

/// A correct-path dynamic instruction stream, stored as a sequence of
/// block executions.
///
/// Everything that grows with the trace is a flat column: the steps
/// themselves, and one shared buffer holding every memory address in
/// step order, with a `u32` offset per step marking where each step's
/// addresses begin. Building a trace therefore allocates per column
/// (amortised growth), never per step.
///
/// Produced by [`TraceGenerator`](crate::TraceGenerator); consumed by the
/// dynamic-task splitter and the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    steps: Vec<TraceStep>,
    /// Step `i`'s addresses are `addrs[addr_off[i]..addr_off[i + 1]]`;
    /// one entry more than there are steps, starting at 0.
    addr_off: Vec<u32>,
    addrs: Vec<u64>,
    num_insts: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace, to be filled with [`Trace::push`].
    pub fn new() -> Self {
        Trace { steps: Vec::new(), addr_off: vec![0], addrs: Vec::new(), num_insts: 0 }
    }

    /// An empty trace with room for `steps` steps and `addrs` memory
    /// addresses before any column reallocates.
    pub(crate) fn with_capacity(steps: usize, addrs: usize) -> Self {
        let mut addr_off = Vec::with_capacity(steps + 1);
        addr_off.push(0);
        Trace {
            steps: Vec::with_capacity(steps),
            addr_off,
            addrs: Vec::with_capacity(addrs),
            num_insts: 0,
        }
    }

    /// Appends one step whose memory instructions touched `mem_addrs`
    /// (one byte address per memory instruction of the block, in
    /// program order), counting its instructions against `program`.
    pub fn push(&mut self, step: TraceStep, mem_addrs: &[u64], program: &Program) {
        self.addrs.extend_from_slice(mem_addrs);
        self.close_step(step, step.num_insts(program));
    }

    /// The shared address buffer: the trace walker appends a step's
    /// addresses here, then seals them with [`Trace::close_step`].
    pub(crate) fn addr_buf(&mut self) -> &mut Vec<u64> {
        &mut self.addrs
    }

    /// Appends `step`, which owns every address pushed to the buffer
    /// since the previous step, and contributes `insts` instructions.
    pub(crate) fn close_step(&mut self, step: TraceStep, insts: usize) {
        let end = u32::try_from(self.addrs.len()).expect("trace holds more than 2^32 addresses");
        self.addr_off.push(end);
        self.steps.push(step);
        self.num_insts += insts;
    }

    /// The block-execution steps.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// The byte addresses step `idx`'s memory instructions touched, one
    /// per memory instruction of its block, in program order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn mem_addrs(&self, idx: usize) -> &[u64] {
        &self.addrs[self.addr_off[idx] as usize..self.addr_off[idx + 1] as usize]
    }

    /// Total dynamic instructions (control transfers included).
    pub fn num_insts(&self) -> usize {
        self.num_insts
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Bytes of the trace's columns (steps, address offsets, addresses),
    /// from their lengths — deterministic, unlike allocator statistics.
    pub(crate) fn bytes(&self) -> usize {
        self.steps.len() * std::mem::size_of::<TraceStep>()
            + self.addr_off.len() * std::mem::size_of::<u32>()
            + self.addrs.len() * std::mem::size_of::<u64>()
    }

    /// Materialises the dynamic instructions of step `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn insts_of_step(&self, idx: usize, program: &Program) -> Vec<DynInst> {
        self.inst_refs(idx, program)
            .map(|r| DynInst {
                pc: r.pc,
                kind: r.kind,
                dst: r.dst,
                srcs: r.srcs.to_vec(),
                addr: r.addr,
            })
            .collect()
    }

    /// The dynamic instructions of step `idx` as borrowed views —
    /// [`Trace::insts_of_step`] without the materialisation. The
    /// simulator's hot loop runs on this; a step's control transfer, if
    /// it emits one, is always the final instruction yielded.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn inst_refs<'p>(
        &'p self,
        idx: usize,
        program: &'p Program,
    ) -> impl Iterator<Item = DynInstRef<'p>> {
        let step = &self.steps[idx];
        let mem_addrs = self.mem_addrs(idx);
        let blk = program.function(step.block.func).block(step.block.block);
        let pc0 = program.block_pc(step.block);
        let mut mem_i = 0usize;
        let ops = blk.insts().iter().enumerate().map(move |(i, inst)| {
            let addr = if inst.opcode().is_mem() {
                let a = mem_addrs.get(mem_i).copied();
                mem_i += 1;
                a
            } else {
                None
            };
            DynInstRef {
                pc: pc0 + 4 * i as u64,
                kind: DynInstKind::Op(inst.opcode()),
                dst: inst.dst_reg(),
                srcs: inst.srcs(),
                addr,
            }
        });
        let ct = blk.terminator().emits_ct_inst().then(|| DynInstRef {
            pc: pc0 + 4 * blk.insts().len() as u64,
            kind: DynInstKind::Ct,
            dst: None,
            srcs: blk.terminator().cond_regs(),
            addr: None,
        });
        ops.chain(ct)
    }
}

/// Whether a step's terminator ends the enclosing function.
pub fn step_is_return(program: &Program, step: &TraceStep) -> bool {
    matches!(
        program.function(step.block.func).block(step.block.block).terminator(),
        Terminator::Return
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_ir::{AddrSpec, BlockId, FuncId, FunctionBuilder, Opcode, ProgramBuilder, Reg};

    fn program_with_mem() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_addr_gen(AddrSpec::Global { addr: 0x100 });
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b = fb.add_block();
        fb.push_inst(b, Opcode::IMov.inst().dst(Reg::int(1)));
        fb.push_inst(b, Opcode::Load.inst().dst(Reg::int(2)).src(Reg::int(1)).mem(g));
        fb.push_inst(b, Opcode::Store.inst().src(Reg::int(2)).mem(g));
        fb.set_terminator(b, Terminator::Return);
        pb.define_function(m, fb.finish(b).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn insts_of_step_assigns_addresses_in_order() {
        let p = program_with_mem();
        let step = TraceStep {
            block: BlockRef::new(FuncId::new(0), BlockId::new(0)),
            outcome: CtOutcome::Return,
            depth: 0,
        };
        let mut trace = Trace::new();
        trace.push(step, &[0x100, 0x108], &p);
        trace.push(step, &[0x200, 0x208], &p);
        assert_eq!(trace.num_insts(), 8); // 2 x (3 ops + return)
        assert_eq!(trace.mem_addrs(0), &[0x100, 0x108]);
        assert_eq!(trace.mem_addrs(1), &[0x200, 0x208]);
        let insts = trace.insts_of_step(0, &p);
        assert_eq!(insts.len(), 4);
        assert_eq!(insts[0].addr, None);
        assert_eq!(insts[1].addr, Some(0x100));
        assert!(insts[1].is_load());
        assert_eq!(insts[2].addr, Some(0x108));
        assert!(insts[2].is_store());
        assert!(insts[3].is_ct());
        // PCs advance by 4.
        assert_eq!(insts[3].pc, insts[0].pc + 12);
        // The second step reads its own slice of the shared buffer.
        let second = trace.insts_of_step(1, &p);
        assert_eq!(second[1].addr, Some(0x200));
        assert_eq!(second[2].addr, Some(0x208));
    }

    #[test]
    fn steps_are_plain_records() {
        assert_eq!(std::mem::size_of::<TraceStep>(), 16);
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.bytes(), std::mem::size_of::<u32>());
    }

    #[test]
    fn step_is_return_matches_terminator() {
        let p = program_with_mem();
        let step = TraceStep {
            block: BlockRef::new(FuncId::new(0), BlockId::new(0)),
            outcome: CtOutcome::Return,
            depth: 0,
        };
        assert!(step_is_return(&p, &step));
    }
}
