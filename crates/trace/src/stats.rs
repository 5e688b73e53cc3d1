//! Measured statistics over traces and dynamic task sequences.

use ms_analysis::Profile;
use ms_ir::Program;

use crate::split::DynTask;
use crate::step::{CtOutcome, Trace};

/// Measures an execution [`Profile`] from a trace — the dynamic analogue
/// of [`Profile::estimate`], used to validate the static estimator and to
/// drive profile-guided selection from real runs.
pub fn measure_profile(trace: &Trace, program: &Program) -> Profile {
    let mut block_counts: Vec<Vec<f64>> =
        program.func_ids().map(|f| vec![0.0; program.function(f).num_blocks()]).collect();
    let mut invocations: Vec<f64> = vec![0.0; program.num_functions()];
    // Dynamic size per invocation including callees: every instruction
    // counts toward all active frames.
    let mut size_totals: Vec<f64> = vec![0.0; program.num_functions()];
    let mut active: Vec<usize> = Vec::new(); // stack of func indices

    invocations[program.entry().index()] += 1.0;
    active.push(program.entry().index());
    let mut prev_depth = 0u32;
    for (i, step) in trace.steps().iter().enumerate() {
        // Maintain the frame stack from depth changes.
        if step.depth > prev_depth {
            // Entered a callee (depth grows by exactly 1 per call).
            invocations[step.block.func.index()] += 1.0;
            active.push(step.block.func.index());
        } else if step.depth < prev_depth {
            for _ in 0..(prev_depth - step.depth) {
                active.pop();
            }
        }
        prev_depth = step.depth;
        if matches!(step.outcome, CtOutcome::Halt) && i + 1 < trace.steps().len() {
            // Restart: a fresh activation of the entry function.
            invocations[program.entry().index()] += 1.0;
            active.clear();
            active.push(program.entry().index());
            prev_depth = 0;
        }

        block_counts[step.block.func.index()][step.block.block.index()] += 1.0;
        let insts = step.num_insts(program) as f64;
        for &f in &active {
            size_totals[f] += insts;
        }
    }

    let nf = program.num_functions();
    let mut block_freq = Vec::with_capacity(nf);
    let mut dyn_size = Vec::with_capacity(nf);
    for f in 0..nf {
        let inv = invocations[f].max(1.0);
        block_freq.push(block_counts[f].iter().map(|c| c / inv).collect());
        dyn_size.push(size_totals[f] / inv);
    }
    Profile::from_raw(block_freq, invocations, dyn_size)
}

/// Summary statistics of a dynamic task sequence — the quantities Table 1
/// of the paper reports per benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct DynTaskStats {
    /// Number of dynamic tasks.
    pub num_tasks: usize,
    /// Mean dynamic instructions per task ("#dyn inst").
    pub avg_insts: f64,
    /// Mean dynamic control-transfer instructions per task ("#ct inst").
    pub avg_ct_insts: f64,
    /// Total dynamic instructions.
    pub total_insts: usize,
}

impl DynTaskStats {
    /// Computes statistics for a task split of `trace`.
    pub fn compute(tasks: &[DynTask], trace: &Trace, program: &Program) -> Self {
        let mut total_insts = 0usize;
        let mut total_ct = 0usize;
        for t in tasks {
            for s in &trace.steps()[t.steps()] {
                total_insts += s.num_insts(program);
                let blk = program.function(s.block.func).block(s.block.block);
                total_ct += usize::from(blk.terminator().emits_ct_inst());
            }
        }
        let n = tasks.len().max(1) as f64;
        DynTaskStats {
            num_tasks: tasks.len(),
            avg_insts: total_insts as f64 / n,
            avg_ct_insts: total_ct as f64 / n,
            total_insts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use crate::split::split_tasks;
    use ms_analysis::ProgramContext;
    use ms_ir::{
        BlockRef, BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator,
    };
    use ms_tasksel::{SelectorBuilder, Strategy};

    fn looped_call_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let leaf = pb.declare_function("leaf");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let callb = fb.add_block();
        let latch = fb.add_block();
        let exit = fb.add_block();
        fb.set_terminator(entry, Terminator::Jump { target: callb });
        fb.set_terminator(callb, Terminator::Call { callee: leaf, ret_to: latch });
        fb.set_terminator(
            latch,
            Terminator::Branch {
                taken: callb,
                fall: exit,
                cond: vec![],
                behavior: BranchBehavior::exact_loop(10),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        let mut fb = FunctionBuilder::new("leaf");
        let l0 = fb.add_block();
        for _ in 0..5 {
            fb.push_inst(l0, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        }
        fb.set_terminator(l0, Terminator::Return);
        pb.define_function(leaf, fb.finish(l0).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn measured_profile_matches_static_estimate() {
        let p = looped_call_program();
        let trace = TraceGenerator::new(&p, 1).generate(2_000);
        let measured = measure_profile(&trace, &p);
        let estimated = ms_analysis::Profile::estimate(&p);
        let leaf = ms_ir::FuncId::new(1);
        // Leaf invocations per main invocation: 10.
        let ratio = measured.func_invocations(leaf) / measured.func_invocations(p.entry());
        assert!((ratio - 10.0).abs() < 0.5, "ratio {ratio}");
        // Dynamic size of leaf: 5 + return = 6 in both.
        assert!((measured.func_dynamic_size(leaf) - 6.0).abs() < 1e-9);
        assert!((estimated.func_dynamic_size(leaf) - 6.0).abs() < 1e-6);
        // Per-invocation block frequency of the call block ≈ 10.
        let callb = BlockRef::new(p.entry(), ms_ir::BlockId::new(1));
        assert!((measured.block_freq(callb) - estimated.block_freq(callb)).abs() < 0.5);
    }

    #[test]
    fn dyn_task_stats_count_instructions_and_cts() {
        let p = looped_call_program();
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let trace = TraceGenerator::new(&sel.program, 2).generate(500);
        let tasks = split_tasks(&trace, &sel.program, &sel.partition);
        let stats = DynTaskStats::compute(&tasks, &trace, &sel.program);
        assert_eq!(stats.num_tasks, tasks.len());
        assert_eq!(stats.total_insts, trace.num_insts());
        assert!(stats.avg_insts >= stats.avg_ct_insts);
        // Every step carries one control transfer except halts (one per
        // program restart), so the average stays close to one per step.
        assert!(stats.avg_ct_insts > 0.8, "avg ct {}", stats.avg_ct_insts);
    }
}
