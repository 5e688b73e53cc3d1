//! Behavioural tests of the Multiscalar timing engine.

use ms_analysis::ProgramContext;
use ms_ir::{
    AddrSpec, BranchBehavior, FunctionBuilder, Opcode, Program, ProgramBuilder, Reg, Terminator,
};
use ms_sim::{BatchEngine, ProgramImage, SimConfig, SimStats, Simulator};
use ms_tasksel::{SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

/// A loop whose iterations are data-independent (vector-add-like):
/// each iteration streams a load, computes, and stores to a disjoint
/// stream.
fn parallel_loop_program(body_work: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let src = pb.add_addr_gen(AddrSpec::Stride { base: 0x10_0000, stride: 8, len: 1 << 6 });
    let dst = pb.add_addr_gen(AddrSpec::Stride { base: 0x40_0000, stride: 8, len: 1 << 6 });
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let body = fb.add_block();
    let exit = fb.add_block();
    fb.push_inst(body, Opcode::Load.inst().dst(Reg::int(2)).src(Reg::int(1)).mem(src));
    for i in 0..body_work {
        let r = 3 + (i % 8) as u8;
        fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(r)).src(Reg::int(2)));
    }
    fb.push_inst(body, Opcode::Store.inst().src(Reg::int(3)).mem(dst));
    fb.set_terminator(entry, Terminator::Jump { target: body });
    fb.set_terminator(
        body,
        Terminator::Branch {
            taken: body,
            fall: exit,
            cond: vec![Reg::int(3)],
            behavior: BranchBehavior::exact_loop(64),
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    pb.finish(m).unwrap()
}

/// A loop with a tight loop-carried register dependence through a long
/// operation: iterations serialise on r1.
fn serial_loop_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let body = fb.add_block();
    let exit = fb.add_block();
    // r1 = r1 * r1 (3-cycle multiply, carried around the loop).
    fb.push_inst(body, Opcode::IMul.inst().dst(Reg::int(1)).src(Reg::int(1)).src(Reg::int(1)));
    fb.set_terminator(entry, Terminator::Jump { target: body });
    fb.set_terminator(
        body,
        Terminator::Branch {
            taken: body,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::exact_loop(64),
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    pb.finish(m).unwrap()
}

/// A loop where every iteration stores to one global *late* and loads it
/// *early*: speculative loads in successor tasks are premature →
/// memory dependence violations until synchronisation kicks in.
fn conflicting_loop_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.add_addr_gen(AddrSpec::Global { addr: 0x9000 });
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let body = fb.add_block();
    let exit = fb.add_block();
    fb.push_inst(body, Opcode::Load.inst().dst(Reg::int(2)).mem(g));
    for _ in 0..12 {
        fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(3)).src(Reg::int(2)));
    }
    fb.push_inst(body, Opcode::Store.inst().src(Reg::int(3)).mem(g));
    fb.set_terminator(entry, Terminator::Jump { target: body });
    fb.set_terminator(
        body,
        Terminator::Branch {
            taken: body,
            fall: exit,
            cond: vec![Reg::int(3)],
            behavior: BranchBehavior::exact_loop(64),
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    pb.finish(m).unwrap()
}

fn run(program: &Program, config: SimConfig, insts: usize) -> SimStats {
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program.clone()));
    let trace = TraceGenerator::new(&sel.program, 99).generate(insts);
    Simulator::new(config, &sel.program, &sel.partition).run(&trace)
}

#[test]
fn ipc_is_positive_and_bounded() {
    let p = parallel_loop_program(6);
    let s = run(&p, SimConfig::four_pu(), 10_000);
    assert!(s.ipc() > 0.0);
    assert!(s.ipc() <= 8.0, "IPC cannot exceed issue width × PUs");
    assert_eq!(s.num_pus, 4);
    assert!(s.total_cycles > 0);
}

#[test]
fn simulation_is_deterministic() {
    let p = parallel_loop_program(4);
    let a = run(&p, SimConfig::four_pu(), 5_000);
    let b = run(&p, SimConfig::four_pu(), 5_000);
    assert_eq!(a, b);
}

#[test]
fn retired_instructions_match_the_trace() {
    let p = parallel_loop_program(4);
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(p.clone()));
    let trace = TraceGenerator::new(&sel.program, 7).generate(8_000);
    let s = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(&trace);
    assert_eq!(s.total_insts, trace.num_insts() as u64);
}

#[test]
fn more_pus_help_parallel_loops() {
    let p = parallel_loop_program(10);
    let s1 = run(&p, SimConfig::single_pu(), 20_000);
    let s4 = run(&p, SimConfig::four_pu(), 20_000);
    let s8 = run(&p, SimConfig::eight_pu(), 20_000);
    assert!(
        s4.ipc() > 1.15 * s1.ipc(),
        "4 PUs ({:.2}) should beat 1 PU ({:.2}) on independent iterations",
        s4.ipc(),
        s1.ipc()
    );
    assert!(
        s8.ipc() >= 0.95 * s4.ipc(),
        "8 PUs ({:.2}) should not fall far behind 4 ({:.2})",
        s8.ipc(),
        s4.ipc()
    );
}

#[test]
fn serial_dependences_limit_speedup() {
    let serial = serial_loop_program();
    let s1 = run(&serial, SimConfig::single_pu(), 10_000);
    let s4 = run(&serial, SimConfig::four_pu(), 10_000);
    // A tight loop-carried chain cannot scale like the parallel loop.
    let serial_speedup = s4.ipc() / s1.ipc();
    let par = parallel_loop_program(10);
    let p1 = run(&par, SimConfig::single_pu(), 10_000);
    let p4 = run(&par, SimConfig::four_pu(), 10_000);
    let par_speedup = p4.ipc() / p1.ipc();
    assert!(
        par_speedup > serial_speedup,
        "parallel speedup {par_speedup:.2} vs serial {serial_speedup:.2}"
    );
    // The serial run spends cycles on inter-task communication.
    assert!(s4.breakdown.inter_comm > 0);
}

#[test]
fn out_of_order_beats_in_order() {
    let p = parallel_loop_program(8);
    let ooo = run(&p, SimConfig::four_pu(), 10_000);
    let ino = run(&p, SimConfig::four_pu().in_order(), 10_000);
    assert!(
        ooo.ipc() >= ino.ipc(),
        "OoO ({:.3}) must not lose to in-order ({:.3})",
        ooo.ipc(),
        ino.ipc()
    );
}

#[test]
fn memory_conflicts_cause_violations_then_synchronise() {
    let p = conflicting_loop_program();
    let s = run(&p, SimConfig::four_pu(), 20_000);
    assert!(s.violations > 0, "conflicting tasks must squash at least once");
    // The sync table must stop the pattern from squashing every task.
    assert!(
        (s.violations as usize) < s.num_dyn_tasks / 2,
        "sync table should cap violations: {} of {} tasks",
        s.violations,
        s.num_dyn_tasks
    );
    assert!(s.breakdown.mem_misspec > 0);
    assert!(s.squashed_insts > 0);
}

#[test]
fn single_pu_has_no_inter_task_communication() {
    let p = serial_loop_program();
    let s = run(&p, SimConfig::single_pu(), 5_000);
    // With one PU the producer always retires before the consumer
    // dispatches: register values are architectural.
    assert_eq!(s.breakdown.inter_comm, 0);
    assert_eq!(s.violations, 0);
}

#[test]
fn task_prediction_is_high_for_biased_loops() {
    let p = parallel_loop_program(4);
    let s = run(&p, SimConfig::four_pu(), 20_000);
    // A fixed-trip loop is almost perfectly predictable.
    assert!(
        s.task_mispred_pct() < 10.0,
        "loop task misprediction too high: {:.1}%",
        s.task_mispred_pct()
    );
    assert!(s.task_preds > 0);
}

#[test]
fn window_span_grows_with_pus() {
    let p = parallel_loop_program(10);
    let s4 = run(&p, SimConfig::four_pu(), 20_000);
    let s8 = run(&p, SimConfig::eight_pu(), 20_000);
    assert!(s8.window_span_measured > s4.window_span_measured);
    assert!(s8.window_span_formula() > s4.window_span_formula());
}

#[test]
fn breakdown_is_consistent_with_busy_time() {
    let p = parallel_loop_program(6);
    let s = run(&p, SimConfig::four_pu(), 10_000);
    let busy = s.breakdown.total();
    // Busy cycles can never exceed PU-cycles available.
    assert!(busy <= s.num_pus as u64 * s.total_cycles + s.breakdown.ctrl_misspec);
    assert!(s.breakdown.useful > 0);
}

/// A loop whose body spans several blocks (a predictable diamond): the
/// control flow heuristic merges the body into one task, the basic block
/// baseline cannot.
fn branchy_loop_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let src = pb.add_addr_gen(AddrSpec::Stride { base: 0x10_0000, stride: 8, len: 1 << 6 });
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let head = fb.add_block();
    let then_b = fb.add_block();
    let else_b = fb.add_block();
    let latch = fb.add_block();
    let exit = fb.add_block();
    fb.push_inst(head, Opcode::Load.inst().dst(Reg::int(2)).mem(src));
    for i in 0..4 {
        fb.push_inst(then_b, Opcode::IAdd.inst().dst(Reg::int(3 + i)).src(Reg::int(2)));
        fb.push_inst(else_b, Opcode::IMul.inst().dst(Reg::int(3 + i)).src(Reg::int(2)));
    }
    fb.push_inst(latch, Opcode::IAdd.inst().dst(Reg::int(8)).src(Reg::int(3)));
    fb.set_terminator(entry, Terminator::Jump { target: head });
    fb.set_terminator(
        head,
        Terminator::Branch {
            taken: then_b,
            fall: else_b,
            cond: vec![Reg::int(2)],
            behavior: BranchBehavior::Taken(0.9),
        },
    );
    fb.set_terminator(then_b, Terminator::Jump { target: latch });
    fb.set_terminator(else_b, Terminator::Jump { target: latch });
    fb.set_terminator(
        latch,
        Terminator::Branch {
            taken: head,
            fall: exit,
            cond: vec![Reg::int(8)],
            behavior: BranchBehavior::exact_loop(64),
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    pb.finish(m).unwrap()
}

#[test]
fn basic_block_tasks_underperform_control_flow_tasks() {
    let p = branchy_loop_program();
    let trace_insts = 20_000;
    let bb =
        SelectorBuilder::new(Strategy::BasicBlock).build().select(&ProgramContext::new(p.clone()));
    let cf = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(p.clone()));
    let t_bb = TraceGenerator::new(&bb.program, 99).generate(trace_insts);
    let t_cf = TraceGenerator::new(&cf.program, 99).generate(trace_insts);
    let s_bb = Simulator::new(SimConfig::four_pu(), &bb.program, &bb.partition).run(&t_bb);
    let s_cf = Simulator::new(SimConfig::four_pu(), &cf.program, &cf.partition).run(&t_cf);
    assert!(
        s_cf.ipc() > s_bb.ipc(),
        "control flow tasks ({:.3}) must beat basic block tasks ({:.3})",
        s_cf.ipc(),
        s_bb.ipc()
    );
    // And their tasks are bigger.
    assert!(s_cf.avg_task_size() > s_bb.avg_task_size());
}

/// Cells run over one shared image must not leak state into each
/// other: a group of two gives exactly what each cell gives alone, in
/// either order.
#[test]
fn grouped_cells_match_cells_run_alone() {
    for workload in ["compress", "go"] {
        let program = ms_workloads::by_name(workload).unwrap().build();
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(program));
        let trace = TraceGenerator::new(&sel.program, 0x5eed).generate(20_000);
        let image = ProgramImage::new(&sel.program, &sel.partition, &trace);
        let engine = BatchEngine::new(&image);
        let (a, b) = (SimConfig::four_pu(), SimConfig::eight_pu().in_order());
        let alone_a = engine.run(std::slice::from_ref(&a)).pop().unwrap();
        let alone_b = engine.run(std::slice::from_ref(&b)).pop().unwrap();
        assert_ne!(alone_a, alone_b, "{workload}: the two machines must differ");
        assert_eq!(engine.run(&[a.clone(), b.clone()]), [alone_a.clone(), alone_b.clone()]);
        assert_eq!(engine.run(&[b, a]), [alone_b, alone_a]);
    }
}
