//! Randomised property tests: trace generation and dynamic-task
//! splitting uphold their invariants on arbitrary workload-like
//! programs.
//!
//! Case parameters are drawn from a seeded [`SplitMix64`] stream so the
//! suite is deterministic and offline; `--features heavy-tests` runs a
//! deeper sweep.

use ms_analysis::ProgramContext;
use ms_tasksel::{SelectorBuilder, Strategy};
use ms_trace::{split_tasks, CtOutcome, TraceGenerator};
use ms_workloads::{fill_block, OpMix, RegPool};

use ms_ir::{
    BranchBehavior, FunctionBuilder, Program, ProgramBuilder, Reg, SplitMix64, Terminator,
};

const CASES: u64 = if cfg!(feature = "heavy-tests") { 192 } else { 48 };

/// A small random-but-structured program: a driver loop around a few
/// diamonds / inner loops.
fn build_program(seed: u64, diamonds: usize, trips: u32, body: usize) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let g = pb.add_addr_gen(ms_ir::AddrSpec::Stride { base: 0x1000, stride: 8, len: 128 });
    let main = pb.declare_function("main");
    let mut fb = FunctionBuilder::new("main");
    let entry = fb.add_block();
    let head = fb.add_block();
    fb.set_terminator(entry, Terminator::Jump { target: head });
    fill_block(&mut fb, head, &mut rng, body, OpMix::int(), &[g], RegPool::default_window());
    let mut cur = head;
    for _ in 0..diamonds {
        cur = ms_workloads::diamond(
            &mut fb,
            &mut rng,
            cur,
            0.7,
            (body, body / 2 + 1),
            OpMix::int(),
            &[g],
            RegPool::default_window(),
        );
    }
    let exit = fb.add_block();
    fb.set_terminator(
        cur,
        Terminator::Branch {
            taken: head,
            fall: exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::Loop { avg_trips: trips, jitter: trips / 4 },
        },
    );
    fb.set_terminator(exit, Terminator::Halt);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).unwrap()
}

/// Traces honour the instruction budget (within one block) and are
/// reproducible per seed.
#[test]
fn traces_are_deterministic_and_bounded() {
    for case in 0..CASES {
        let mut draw = SplitMix64::seed_from_u64(case ^ 0x7ace_0001);
        let seed = draw.gen_range(0u64..1000);
        let diamonds = draw.gen_range(1usize..4);
        let trips = draw.gen_range(2u32..20);
        let body = draw.gen_range(1usize..8);
        let budget = draw.gen_range(50usize..2000);

        let p = build_program(seed, diamonds, trips, body);
        let a = TraceGenerator::new(&p, seed).generate(budget);
        let b = TraceGenerator::new(&p, seed).generate(budget);
        assert_eq!(&a, &b, "case {case}");
        assert!(a.num_insts() >= budget.min(1), "case {case}");
        // Never overshoots by more than the largest block.
        let max_block: usize = (0..p.function(p.entry()).num_blocks())
            .map(|i| p.function(p.entry()).block(ms_ir::BlockId::new(i as u32)).len_with_ct())
            .max()
            .unwrap_or(1);
        assert!(a.num_insts() < budget + max_block + 1, "case {case}");
    }
}

/// Dynamic tasks tile the trace exactly and each starts at its static
/// task's entry block, for every strategy.
#[test]
fn dynamic_tasks_tile_and_start_at_entries() {
    for case in 0..CASES {
        let mut draw = SplitMix64::seed_from_u64(case ^ 0x7ace_0002);
        let seed = draw.gen_range(0u64..500);
        let diamonds = draw.gen_range(1usize..4);
        let trips = draw.gen_range(2u32..16);
        let body = draw.gen_range(1usize..6);

        let p = build_program(seed, diamonds, trips, body);
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
            let trace = TraceGenerator::new(&sel.program, seed).generate(1_500);
            let tasks = split_tasks(&trace, &sel.program, &sel.partition);
            let mut pos = 0usize;
            for t in &tasks {
                assert_eq!(t.start as usize, pos, "case {case}");
                assert!(t.end > t.start, "case {case}");
                pos = t.end as usize;
                let entry = sel.partition.func(t.func).task(t.task).entry();
                assert_eq!(trace.steps()[t.start as usize].block.block, entry, "case {case}");
            }
            assert_eq!(pos, trace.steps().len(), "case {case}");
        }
    }
}

/// Loop behaviours deliver the configured mean trip count within
/// tolerance (the predictors rely on these statistics).
#[test]
fn loop_trip_statistics_hold() {
    for case in 0..CASES {
        let mut draw = SplitMix64::seed_from_u64(case ^ 0x7ace_0003);
        let seed = draw.gen_range(0u64..300);
        let trips = draw.gen_range(3u32..24);

        let p = build_program(seed, 1, trips, 2);
        let trace = TraceGenerator::new(&p, seed ^ 0xabc).generate(30_000);
        // Count driver-loop header executions and loop exits.
        let head = ms_ir::BlockId::new(1);
        let heads = trace.steps().iter().filter(|s| s.block.block == head).count();
        // Each program run executes the driver loop ~`trips` times and
        // then halts (the generator restarts it).
        let halts = trace.steps().iter().filter(|s| matches!(s.outcome, CtOutcome::Halt)).count();
        if halts < 3 {
            continue;
        }
        let measured = heads as f64 / halts as f64;
        // The final (possibly truncated) run inflates the ratio by at
        // most trips/halts; jitter is trips/4.
        assert!(
            (measured - trips as f64).abs() <= 1.0 + trips as f64 * 0.5,
            "case {case}: measured {measured:.2} vs configured {trips} over {halts} runs"
        );
    }
}
