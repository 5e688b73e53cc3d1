//! Pins the statistics of long 8-PU cells with a one-value-per-cycle
//! ring, whose machine-sized engine state turns over many times. The
//! expected statistics were captured from the engine that kept a
//! cycle-indexed ring, every retire cycle and every store ever made;
//! an edge error in the windows (a ring slot dropped while still
//! bookable, a retire cycle or store forgotten while its task is in
//! flight) changes them. The two synthetic cells reach window edges
//! that no suite workload reaches: ring sends still queued when the
//! PU's next task dispatches, and loads of the oldest in-flight
//! task's stores.

use ms_analysis::ProgramContext;
use ms_ir::{
    AddrSpec, BranchBehavior, FunctionBuilder, Opcode, Program, ProgramBuilder, Reg, Terminator,
};
use ms_sim::{SimConfig, SimStats, Simulator};
use ms_tasksel::{Selection, SelectorBuilder, Strategy};
use ms_trace::TraceGenerator;

fn run(sel: &Selection, seed: u64, insts: usize) -> SimStats {
    let trace = TraceGenerator::new(&sel.program, seed).generate(insts);
    let mut cfg = SimConfig::eight_pu();
    cfg.ring_bandwidth = 1;
    Simulator::new(cfg, &sel.program, &sel.partition).run(&trace)
}

/// go under control-flow tasks: ~20k dispatches, each draining its
/// PU's ring window, hundreds of store-map prunes, and memory squashes.
#[test]
fn long_workload_cell_matches_the_unbounded_engine() {
    let program = ms_workloads::by_name("go").unwrap().build();
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program));
    let stats = run(&sel, 5, 200_000);
    assert!(stats.violations > 0, "the cell exercises memory squashes");
    assert_eq!(stats.to_json(), GO_CF);
}

/// A loop whose every iteration rewrites 24 registers: one value per
/// cycle cannot drain them before the PU's next task dispatches, so
/// queued sends of task k are still in the window when task k+P books
/// its own — the window's carry-over is what times them.
#[test]
fn ring_backlog_cell_matches_the_unbounded_engine() {
    let mut pb = ProgramBuilder::new();
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let body = fb.add_block();
    let exit = fb.add_block();
    for r in 1..=24 {
        fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(r)).src(Reg::int(r)));
    }
    fb.set_terminator(entry, Terminator::Jump { target: body });
    fb.set_terminator(
        body,
        Terminator::Branch {
            taken: body,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::exact_loop(1000),
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    let program: Program = pb.finish(m).unwrap();
    let sel =
        SelectorBuilder::new(Strategy::BasicBlock).build().select(&ProgramContext::new(program));
    let stats = run(&sel, 1, 200_000);
    assert_eq!(stats.to_json(), RING_BACKLOG);
}

/// A loop whose every iteration loads what the iteration P−1 = 7
/// earlier stored, through a 64K-element stride: each task's load
/// reads the store map entry of the oldest task that may still be in
/// flight, at the very edge of the pruned window, and new addresses
/// keep the prune running every 64 or so tasks.
#[test]
fn store_edge_cell_matches_the_unbounded_engine() {
    let mut pb = ProgramBuilder::new();
    let stores = pb.add_addr_gen(AddrSpec::Stride { base: 0x10_0000, stride: 8, len: 1 << 16 });
    let loads =
        pb.add_addr_gen(AddrSpec::Stride { base: 0x10_0000 - 7 * 8, stride: 8, len: 1 << 16 });
    let m = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let body = fb.add_block();
    let exit = fb.add_block();
    fb.push_inst(body, Opcode::Load.inst().dst(Reg::int(2)).src(Reg::int(1)).mem(loads));
    fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(3)).src(Reg::int(2)));
    fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
    fb.push_inst(body, Opcode::Store.inst().src(Reg::int(3)).src(Reg::int(1)).mem(stores));
    fb.set_terminator(entry, Terminator::Jump { target: body });
    fb.set_terminator(
        body,
        Terminator::Branch {
            taken: body,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::exact_loop(5000),
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(m, fb.finish(entry).unwrap());
    let program: Program = pb.finish(m).unwrap();
    let sel =
        SelectorBuilder::new(Strategy::BasicBlock).build().select(&ProgramContext::new(program));
    let stats = run(&sel, 1, 200_000);
    assert_eq!(stats.to_json(), STORE_EDGE);
}

const GO_CF: &str = concat!(
    "{\"num_pus\":8,\"total_cycles\":120493,\"total_insts\":200001,",
    "\"ipc\":1.6598557592557244,\"num_dyn_tasks\":19889,",
    "\"avg_task_size\":10.055860023128362,\"task_mispred_pct\":15.765652501885844,",
    "\"br_mispred_pct_normalized\":8.71751522698878,",
    "\"window_span_measured\":58.34957217431718,",
    "\"window_span_formula\":47.616656003117086,\"ctrl_squashes\":3135,\"mem_squashes\":12,",
    "\"squashed_insts\":209,\"fwd_stall_cycles\":310332,\"pu_idle_cycles\":437414,",
    "\"arb_overflows\":0,\"reg_forwards\":44862,\"l1d_hits\":39212,\"l1d_misses\":129,",
    "\"l1i_hits\":46101,\"l1i_misses\":30,\"task_size_hist\":[3270,0,9877,2634,2780,1328,0,",
    "0,0,0,0,0],\"breakdown\":{\"start_overhead\":39778,\"useful\":126336,",
    "\"intra_dep\":154635,\"inter_comm\":46922,\"memory\":1876,\"frontend\":12067,",
    "\"resource\":4515,\"load_imbalance\":100623,\"end_overhead\":39778,",
    "\"ctrl_misspec\":77894,\"mem_misspec\":690}}",
);
const STORE_EDGE: &str = concat!(
    "{\"num_pus\":8,\"total_cycles\":390043,\"total_insts\":200003,",
    "\"ipc\":0.5127716687647259,\"num_dyn_tasks\":40014,",
    "\"avg_task_size\":4.998325586044884,\"task_mispred_pct\":0.017497375393690947,",
    "\"br_mispred_pct_normalized\":0.01749737539369356,",
    "\"window_span_measured\":39.97919203780096,",
    "\"window_span_formula\":39.962125133889046,\"ctrl_squashes\":7,\"mem_squashes\":1,",
    "\"squashed_insts\":5,\"fwd_stall_cycles\":34984,\"pu_idle_cycles\":693,",
    "\"arb_overflows\":0,\"reg_forwards\":39999,\"l1d_hits\":25008,\"l1d_misses\":10000,",
    "\"l1i_hits\":40007,\"l1i_misses\":1,\"task_size_hist\":[15,0,39999,0,0,0,0,0,0,0,0,0],",
    "\"breakdown\":{\"start_overhead\":80028,\"useful\":159996,\"intra_dep\":534602,",
    "\"inter_comm\":0,\"memory\":244802,\"frontend\":71,\"resource\":0,",
    "\"load_imbalance\":2020124,\"end_overhead\":80028,\"ctrl_misspec\":63,",
    "\"mem_misspec\":71}}",
);
const RING_BACKLOG: &str = concat!(
    "{\"num_pus\":8,\"total_cycles\":26928,\"total_insts\":200008,\"ipc\":7.427510398098633,",
    "\"num_dyn_tasks\":8015,\"avg_task_size\":24.954210854647535,",
    "\"task_mispred_pct\":0.08742350443362058,",
    "\"br_mispred_pct_normalized\":0.08742350443362579,",
    "\"window_span_measured\":198.72782976827094,",
    "\"window_span_formula\":199.0239100350251,\"ctrl_squashes\":7,\"mem_squashes\":0,",
    "\"squashed_insts\":0,\"fwd_stall_cycles\":801783,\"pu_idle_cycles\":1223,",
    "\"arb_overflows\":0,\"reg_forwards\":192000,\"l1d_hits\":0,\"l1d_misses\":0,",
    "\"l1i_hits\":32004,\"l1i_misses\":4,\"task_size_hist\":[15,0,0,0,8000,0,0,0,0,0,0,0],",
    "\"breakdown\":{\"start_overhead\":16030,\"useful\":104023,\"intra_dep\":0,",
    "\"inter_comm\":77949,\"memory\":0,\"frontend\":163,\"resource\":0,\"load_imbalance\":6,",
    "\"end_overhead\":16030,\"ctrl_misspec\":137,\"mem_misspec\":0}}",
);
