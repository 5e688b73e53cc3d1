//! Pins the engine's hot loop allocation-free in steady state.
//!
//! This test binary installs a counting `#[global_allocator]` and
//! measures the allocations made *inside* [`BatchEngine::run`] for the
//! same program at two trace lengths. Everything the engine allocates
//! is front-loaded into cell construction (scratch sized from the
//! [`ProgramImage`] and [`SimConfig`]), so the count may depend on the
//! image's task count — but it must not scale with the instructions
//! simulated: doubling the trace may add at most a handful of
//! allocations (amortised `Vec` growth of per-task scratch), never a
//! per-instruction or per-cycle term.

use ms_analysis::ProgramContext;
use ms_sim::{BatchEngine, ProgramImage, SimConfig};
use ms_tasksel::{Selection, SelectorBuilder, Strategy};
use ms_testalloc::{gate, measure, CountingAlloc};
use ms_trace::TraceGenerator;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn selection() -> Selection {
    let program = ms_workloads::by_name("compress").unwrap().build();
    SelectorBuilder::new(Strategy::ControlFlow)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program))
}

/// Allocations inside `BatchEngine::run` for `cells` copies of the
/// four-PU config over an `insts`-long trace of `sel`.
fn run_allocs(sel: &Selection, insts: usize, cells: usize) -> (u64, u64, u64) {
    let trace = TraceGenerator::new(&sel.program, 7).generate(insts);
    let image = ProgramImage::new(&sel.program, &sel.partition, &trace);
    let configs: Vec<SimConfig> = (0..cells).map(|_| SimConfig::four_pu()).collect();
    let (allocs, stats) = measure(|| BatchEngine::new(&image).run(&configs));
    let total_insts: u64 = stats.iter().map(|s| s.total_insts).sum();
    assert!(total_insts > 0, "simulation actually ran");
    (allocs.calls, allocs.bytes, total_insts)
}

#[test]
fn batch_hot_loop_is_allocation_free_in_steady_state() {
    let _gate = gate();
    let sel = selection();
    // Warm-up run so one-time lazy state (prof registry, etc.) is paid
    // before anything is counted.
    let _ = run_allocs(&sel, 2_000, 1);

    let (small_allocs, small_bytes, small_insts) = run_allocs(&sel, 10_000, 2);
    let (large_allocs, large_bytes, large_insts) = run_allocs(&sel, 40_000, 2);
    assert!(
        large_insts > small_insts * 2,
        "trace lengths diverged: {small_insts} vs {large_insts}"
    );

    // 4x the instructions must not mean 4x the allocations: the only
    // growth allowed is amortised doubling of per-task scratch vectors,
    // a handful of reallocs — not a per-instruction term (which would
    // show up as tens of thousands here). Measured today: 97 -> 101.
    let delta = large_allocs.saturating_sub(small_allocs);
    assert!(
        delta <= 16,
        "batch hot loop allocates per instruction: \
         {small_allocs} allocs at {small_insts} insts -> \
         {large_allocs} allocs at {large_insts} insts (delta {delta})"
    );
    // Scratch *bytes* may scale with the image's task count (per-task
    // columns), but nothing may churn per simulated instruction or
    // cycle — a leaky hot loop shows up as kilobytes per instruction.
    let extra_insts = large_insts - small_insts;
    let delta_bytes = large_bytes.saturating_sub(small_bytes);
    assert!(
        delta_bytes <= extra_insts * 64,
        "batch run allocated {delta_bytes} extra bytes for {extra_insts} extra insts"
    );
}

#[test]
fn engine_memory_does_not_scale_with_trace_length() {
    // Engine state is sized by the machine, not the trace: the ring
    // ports keep a window of in-flight cycles, retire cycles the last P
    // tasks, the store map the stores of the last P tasks. So 4x the
    // instructions may add only what the lazily filled L2 model's newly
    // touched sets (bounded by the L2's size) and a few scratch high
    // water marks cost — a few kilobytes (about 6 KB here), never bytes
    // per instruction or per task (a cycle-indexed ring alone costs 2
    // bytes per instruction per PU, 240 KB here).
    let _gate = gate();
    let sel = selection();
    let _ = run_allocs(&sel, 2_000, 1);
    let (_, small_bytes, small_insts) = run_allocs(&sel, 10_000, 1);
    let (_, large_bytes, large_insts) = run_allocs(&sel, 40_000, 1);
    assert!(large_insts > small_insts * 3, "trace lengths diverged");
    let delta_bytes = large_bytes.saturating_sub(small_bytes);
    assert!(
        delta_bytes <= 16 * 1024,
        "engine state grows with the trace: {small_bytes} bytes at {small_insts} insts -> \
         {large_bytes} bytes at {large_insts} insts"
    );
}

#[test]
fn batch_run_allocations_are_deterministic() {
    // Two identical runs must allocate identically — the hot loop has
    // no load-dependent allocation path (hash-map growth, overflow
    // spill) that only some inputs trigger.
    let _gate = gate();
    let sel = selection();
    let _ = run_allocs(&sel, 2_000, 1);
    let (a1, b1, _) = run_allocs(&sel, 20_000, 3);
    let (a2, b2, _) = run_allocs(&sel, 20_000, 3);
    assert_eq!((a1, b1), (a2, b2), "allocation profile is run-to-run stable");
}
