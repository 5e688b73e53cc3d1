//! Splitting a dynamic trace into dynamic tasks.
//!
//! A dynamic task (§2.2) is a contiguous fragment of the dynamic
//! instruction stream entered only at its first instruction. Given a
//! static [`TaskPartition`], this module chops a [`Trace`] into the exact
//! dynamic task sequence the Multiscalar sequencer would dispatch:
//!
//! * a dynamic task starts at a static task's entry block and continues
//!   while execution stays inside that static task,
//! * reaching the task's own entry again starts a *new* invocation,
//! * an **included** call keeps executing inside the same dynamic task
//!   through the whole callee (nested calls too),
//! * a non-included call ends the task; the callee's entry task follows;
//!   the matching return ends *its* task and the caller's return-block
//!   task follows.

use std::ops::Range;

use ms_ir::{BlockRef, FuncId, Program, Terminator};
use ms_tasksel::{TaskId, TaskPartition, TaskTarget};

use crate::step::{CtOutcome, Trace};

/// How a dynamic task ended — what the sequencer must have predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynExit {
    /// Control moved to another task of the same function (its entry
    /// block identifies it).
    Target(TaskTarget),
    /// The trace ended (program halt or instruction budget).
    End,
}

/// One dynamic task: a contiguous run of trace steps.
///
/// A packed 24-byte record — one exists per dynamic task, so its size
/// scales every long run's memory. Step bounds are `u32` (a trace holds
/// fewer than 2^32 steps); [`DynTask::steps`] widens them for indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynTask {
    /// Function owning the static task.
    pub func: FuncId,
    /// The static task this invocation instantiates.
    pub task: TaskId,
    /// Step range `[start, end)` into the trace.
    pub start: u32,
    /// End of the step range (exclusive).
    pub end: u32,
    /// How the task exited.
    pub exit: DynExit,
}

impl DynTask {
    /// The task's step range into the trace.
    pub fn steps(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Number of trace steps in the task.
    pub fn num_steps(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Number of dynamic instructions in the task.
    pub fn num_insts(&self, trace: &Trace, program: &Program) -> usize {
        trace.steps()[self.steps()].iter().map(|s| s.num_insts(program)).sum()
    }
}

/// Splits `trace` into the dynamic task sequence induced by `partition`.
///
/// # Panics
///
/// Panics (in debug builds) if the trace visits a block the partition
/// does not cover — which [`TaskPartition::validate`] rules out.
pub fn split_tasks(trace: &Trace, program: &Program, partition: &TaskPartition) -> Vec<DynTask> {
    let prof = ms_prof::span("trace.split");
    let steps = trace.steps();
    prof.add_items(steps.len() as u64);
    // A task spans at least one step: reserving the step count never
    // reallocates, and capacity a coarse partition leaves untouched
    // costs no resident memory.
    let mut out: Vec<DynTask> = Vec::with_capacity(steps.len());
    if steps.is_empty() {
        return out;
    }
    assert!(u32::try_from(steps.len()).is_ok(), "trace holds more than 2^32 steps");

    // State: the static task of the current dynamic task, and the call
    // depth below which we are "inlined" (included call). While
    // inline_floor is Some(d), every step at depth > d belongs to the
    // current dynamic task.
    let mut cur_start = 0usize;
    let mut cur_ref: BlockRef = steps[0].block;
    let mut cur_task = expect_task(partition, cur_ref);
    let mut inline_floor: Option<u32> = None;

    let flush = |out: &mut Vec<DynTask>,
                 start: usize,
                 end: usize,
                 at: BlockRef,
                 task: TaskId,
                 exit: DynExit| {
        out.push(DynTask { func: at.func, task, start: start as u32, end: end as u32, exit });
    };

    for i in 0..steps.len() {
        let step = &steps[i];
        // Decide whether the NEXT step begins a new dynamic task.
        let next = steps.get(i + 1);
        let func = program.function(step.block.func);
        let term = func.block(step.block.block).terminator();

        // Track included-call inlining.
        if let Terminator::Call { .. } = term {
            let included = partition.is_included_call(step.block.func, step.block.block)
                || inline_floor.is_some();
            if matches!(step.outcome, CtOutcome::Call) && included && inline_floor.is_none() {
                inline_floor = Some(step.depth);
            }
        }
        if matches!(step.outcome, CtOutcome::Return) {
            if let Some(floor) = inline_floor {
                if step.depth == floor + 1 {
                    // Returned to the inlining depth: inlining over.
                    inline_floor = None;
                    // Continue same dynamic task at the caller's ret_to.
                    if let Some(n) = next {
                        let fp = partition.func(n.block.func);
                        let same = n.block.func == cur_ref.func
                            && fp.task_of(n.block.block) == Some(cur_task)
                            && fp.task(cur_task).entry() != n.block.block;
                        if !same {
                            let exit = DynExit::Target(TaskTarget::Block(n.block.block));
                            flush(&mut out, cur_start, i + 1, cur_ref, cur_task, exit);
                            cur_start = i + 1;
                            cur_ref = n.block;
                            cur_task = expect_task(partition, n.block);
                        }
                    } else {
                        flush(&mut out, cur_start, i + 1, cur_ref, cur_task, DynExit::End);
                        cur_start = i + 1;
                    }
                    continue;
                }
            }
        }
        if inline_floor.is_some() {
            // Inside an included call: everything stays in this task.
            if next.is_none() {
                flush(&mut out, cur_start, i + 1, cur_ref, cur_task, DynExit::End);
                cur_start = i + 1;
            }
            continue;
        }

        let Some(n) = next else {
            flush(&mut out, cur_start, i + 1, cur_ref, cur_task, DynExit::End);
            cur_start = i + 1;
            continue;
        };

        // Non-inline boundaries.
        let boundary_exit: Option<DynExit> = match (term, step.outcome) {
            (Terminator::Call { callee, .. }, CtOutcome::Call) => {
                Some(DynExit::Target(TaskTarget::Call(*callee)))
            }
            (_, CtOutcome::Return) => Some(DynExit::Target(TaskTarget::Return)),
            (_, CtOutcome::Halt) => {
                // Program restarted inside the trace.
                Some(DynExit::End)
            }
            _ => {
                // Intra-function edge: same static task and not the entry
                // ⇒ same dynamic task.
                let fp = partition.func(n.block.func);
                let same = n.block.func == cur_ref.func
                    && fp.task_of(n.block.block) == Some(cur_task)
                    && fp.task(cur_task).entry() != n.block.block;
                if same {
                    None
                } else {
                    Some(DynExit::Target(TaskTarget::Block(n.block.block)))
                }
            }
        };
        if let Some(exit) = boundary_exit {
            flush(&mut out, cur_start, i + 1, cur_ref, cur_task, exit);
            cur_start = i + 1;
            cur_ref = n.block;
            cur_task = expect_task(partition, n.block);
        }
    }
    out
}

fn expect_task(partition: &TaskPartition, at: BlockRef) -> TaskId {
    partition
        .func(at.func)
        .task_of(at.block)
        .expect("trace visits a block the partition does not cover")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use ms_analysis::ProgramContext;
    use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, Program, ProgramBuilder, Reg};
    use ms_tasksel::{SelectorBuilder, Strategy};

    fn loop_program(trips: u32) -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let head = fb.add_block();
        let latch = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(head, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.push_inst(latch, Opcode::IMul.inst().dst(Reg::int(2)).src(Reg::int(1)));
        fb.set_terminator(entry, Terminator::Jump { target: head });
        fb.set_terminator(head, Terminator::Jump { target: latch });
        fb.set_terminator(
            latch,
            Terminator::Branch {
                taken: head,
                fall: exit,
                cond: vec![Reg::int(2)],
                behavior: BranchBehavior::exact_loop(trips),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn loop_iterations_become_separate_dynamic_tasks() {
        let p = loop_program(5);
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let trace = TraceGenerator::new(&sel.program, 1).generate_once(100);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        // entry task + 5 loop-body invocations + exit task.
        let fp = &sel.partition.funcs()[0];
        let head_task = fp.task_of(ms_ir::BlockId::new(1)).unwrap();
        let body_invocations = tasks.iter().filter(|t| t.task == head_task).count();
        assert_eq!(body_invocations, 5);
        // Each loop-body invocation exits to the header (itself) except
        // the last, which exits to the exit block's task.
        let body: Vec<&DynTask> = tasks.iter().filter(|t| t.task == head_task).collect();
        for t in &body[..4] {
            assert_eq!(t.exit, DynExit::Target(TaskTarget::Block(ms_ir::BlockId::new(1))));
        }
    }

    #[test]
    fn dyn_task_is_packed() {
        assert!(std::mem::size_of::<DynTask>() <= 24);
    }

    #[test]
    fn dynamic_tasks_tile_the_trace_exactly() {
        let p = loop_program(8);
        for sel in [
            SelectorBuilder::new(Strategy::BasicBlock)
                .build()
                .select(&ProgramContext::new(p.clone())),
            SelectorBuilder::new(Strategy::ControlFlow)
                .max_targets(4)
                .build()
                .select(&ProgramContext::new(p.clone())),
            SelectorBuilder::new(Strategy::DataDependence)
                .max_targets(4)
                .build()
                .select(&ProgramContext::new(p.clone())),
        ] {
            let trace = TraceGenerator::new(&sel.program, 3).generate(300);
            let tasks = split_tasks(&trace, &sel.program, &sel.partition);
            let mut pos = 0usize;
            for t in &tasks {
                assert_eq!(t.start as usize, pos, "tasks must tile contiguously");
                assert!(t.end > t.start);
                pos = t.end as usize;
            }
            assert_eq!(pos, trace.steps().len());
        }
    }

    #[test]
    fn every_dynamic_task_starts_at_its_static_entry() {
        let p = loop_program(6);
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let trace = TraceGenerator::new(&sel.program, 5).generate(400);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        for t in &tasks {
            let entry = sel.partition.func(t.func).task(t.task).entry();
            assert_eq!(trace.steps()[t.start as usize].block.block, entry);
        }
    }

    #[test]
    fn call_boundaries_produce_call_and_return_exits() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let leaf = pb.declare_function("leaf");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        fb.push_inst(b0, Opcode::IMov.inst().dst(Reg::int(1)));
        fb.set_terminator(b0, Terminator::Call { callee: leaf, ret_to: b1 });
        fb.set_terminator(b1, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let mut fb = FunctionBuilder::new("leaf");
        let l0 = fb.add_block();
        for _ in 0..40 {
            fb.push_inst(l0, Opcode::IAdd.inst().dst(Reg::int(2)).src(Reg::int(1)));
        }
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();

        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let trace = TraceGenerator::new(&sel.program, 1).generate_once(100);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[0].exit, DynExit::Target(TaskTarget::Call(leaf)));
        assert_eq!(tasks[1].func, leaf);
        assert_eq!(tasks[1].exit, DynExit::Target(TaskTarget::Return));
        assert_eq!(tasks[2].exit, DynExit::End);
    }

    #[test]
    fn included_calls_stay_in_one_dynamic_task() {
        use ms_tasksel::TaskSizeParams;
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let tiny = pb.declare_function("tiny");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        fb.push_inst(b0, Opcode::IMov.inst().dst(Reg::int(1)));
        fb.set_terminator(b0, Terminator::Call { callee: tiny, ret_to: b1 });
        fb.push_inst(b1, Opcode::IAdd.inst().dst(Reg::int(3)).src(Reg::int(1)));
        fb.set_terminator(b1, Terminator::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let mut fb = FunctionBuilder::new("tiny");
        let l0 = fb.add_block();
        fb.push_inst(l0, Opcode::IAdd.inst().dst(Reg::int(2)).src(Reg::int(1)));
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(tiny, fb.finish(l0).unwrap());
        let p = pb.finish(m).unwrap();

        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .task_size(TaskSizeParams::default())
            .build()
            .select(&ProgramContext::new(p.clone()));
        assert!(sel.partition.is_included_call(m, ms_ir::BlockId::new(0)));
        let trace = TraceGenerator::new(&sel.program, 1).generate_once(50);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        // main's b0 + the whole callee + b1 are one dynamic task.
        assert_eq!(tasks.len(), 1, "tasks: {tasks:?}");
        assert_eq!(tasks[0].num_steps(), 3);
    }
}
