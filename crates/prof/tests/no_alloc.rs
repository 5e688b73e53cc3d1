//! Pins the NullProfiler guarantee: with no collector enabled, the
//! span and registry entry points perform **zero heap allocations** —
//! instrumented library hot paths (the simulation loop included) pay
//! only a thread-local check. Mirrors the `NullSink` guarantee from the
//! sim crate's event tracing.

use ms_testalloc::{gate, measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_profiling_allocates_nothing() {
    let _gate = gate();
    // Touch the thread-local slots once so lazy TLS initialisation is
    // not charged to the measured loop.
    assert!(!ms_prof::is_enabled());
    drop(ms_prof::span("warmup"));
    ms_prof::counter_add("warmup", 1);
    ms_prof::hist_record("warmup", 1);
    ms_prof::gauge_set("warmup", 1.0);

    let (counted, ()) = measure(|| {
        for i in 0..10_000u64 {
            let s = ms_prof::span("hot");
            s.add_items(i);
            ms_prof::counter_add("hot.counter", i);
            ms_prof::hist_record("hot.hist", i);
            ms_prof::gauge_set("hot.gauge", i as f64);
            drop(s);
            drop(ms_prof::NullProfiler.span("hot"));
        }
    });
    assert_eq!(
        counted.calls, 0,
        "disabled span/registry calls must not allocate (NullProfiler guarantee)"
    );
}

#[test]
fn disabled_progress_sink_allocates_nothing() {
    let _gate = gate();
    // The run-ledger ProgressSink mirrors the NullProfiler contract:
    // the disabled sink (what plain `run_parallel` callers get) must
    // cost one branch per call — no atomics touched, no allocation.
    let sink = ms_prof::ledger::ProgressSink::disabled();
    assert!(!sink.is_enabled());
    sink.add_queued(1); // touch once before measuring

    let (counted, ()) = measure(|| {
        for i in 0..10_000u64 {
            sink.add_queued(1);
            sink.cell_started();
            sink.warm_hit();
            sink.worker_busy(0, i, 1);
            sink.cell_finished();
        }
    });
    assert_eq!(
        counted.calls, 0,
        "disabled ProgressSink calls must not allocate (ledger zero-overhead guarantee)"
    );
}

#[test]
fn enabled_profiling_does_allocate_so_the_counter_works() {
    let _gate = gate();
    // Sanity-check the measurement itself: the enabled path must be
    // visible to the counting allocator, otherwise the tests above
    // prove nothing.
    ms_prof::enable();
    let (counted, ()) = measure(|| drop(ms_prof::span("live")));
    assert!(counted.calls > 0, "enabled spans allocate; counter saw {}", counted.calls);
    ms_prof::disable();
}
