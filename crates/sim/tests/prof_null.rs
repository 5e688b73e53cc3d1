//! Pins the zero-cost-when-off profiling guarantee on the simulator's
//! hot path: with no `ms_prof` collector enabled, the instrumented
//! `sim.run` wrapper (and the per-instruction loop under it) performs
//! exactly the allocations the uninstrumented simulation performs —
//! byte-for-byte the same count, run to run — mirroring the `NullSink`
//! guarantee the event-tracing tests pin.

use ms_analysis::ProgramContext;
use ms_sim::{SimConfig, SimStats, Simulator};
use ms_tasksel::{SelectorBuilder, Strategy};
use ms_testalloc::{gate, measure, CountingAlloc};
use ms_trace::TraceGenerator;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One full simulation of the compress workload (trace pre-generated so
/// only selection + simulation run inside the measured window).
fn simulate(sel: &ms_tasksel::Selection, trace: &ms_trace::Trace) -> SimStats {
    Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(trace)
}

#[test]
fn disabled_profiling_leaves_simulation_allocations_unchanged() {
    let _gate = gate();
    let program = ms_workloads::by_name("compress").unwrap().build();
    let sel = SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program.clone()));
    let trace = TraceGenerator::new(&sel.program, 7).generate(20_000);

    // Warm-up run: TLS slots, lazy statics, anything one-time.
    assert!(!ms_prof::is_enabled());
    let warm = simulate(&sel, &trace);

    // The simulation is deterministic, so two disabled runs must cost
    // exactly the same number of allocations: if the disabled `sim.run`
    // span (or any instrumentation under it) ever started allocating,
    // the engine's hot loop would no longer be free of profiling cost
    // and this equality is where it shows up first.
    let (cost_a, run_a) = measure(|| simulate(&sel, &trace));
    let (cost_b, run_b) = measure(|| simulate(&sel, &trace));
    assert_eq!(run_a, warm);
    assert_eq!(run_a, run_b);
    assert_eq!(
        cost_a.calls, cost_b.calls,
        "disabled profiling must have a fixed (zero) allocation cost"
    );

    // And the disabled entry points themselves allocate nothing at all,
    // pinned here against the binary that links the full simulator.
    let (cost, ()) = measure(|| {
        for i in 0..10_000u64 {
            let span = ms_prof::span("sim.run");
            span.add_items(i);
            ms_prof::counter_add("sim.cycles", i);
        }
    });
    assert_eq!(cost.calls, 0, "disabled span/counter calls allocated");
}

#[test]
fn enabled_profiling_is_visible_to_the_allocation_counter() {
    let _gate = gate();
    // Sanity check for the test above: with a collector enabled the
    // same wrapper does allocate, so the counter is measuring the real
    // code path and a silent always-on regression cannot hide.
    let program = ms_workloads::by_name("li").unwrap().build();
    let sel = SelectorBuilder::new(Strategy::BasicBlock)
        .build()
        .select(&ProgramContext::new(program.clone()));
    let trace = TraceGenerator::new(&sel.program, 7).generate(2_000);
    simulate(&sel, &trace); // warm up

    let (cost_off, _) = measure(|| simulate(&sel, &trace));
    ms_prof::enable();
    let (cost_on, _) = measure(|| simulate(&sel, &trace));
    let report = ms_prof::disable().expect("collector was enabled");

    assert!(report.spans.iter().any(|s| s.path == "sim.run"));
    assert!(
        cost_on.calls > cost_off.calls,
        "enabled profiling should allocate (off: {}, on: {})",
        cost_off.calls,
        cost_on.calls
    );
}
