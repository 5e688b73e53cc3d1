//! Cycle-level Multiscalar processor timing simulator.
//!
//! Models the machine of *Task Selection for a Multiscalar Processor*
//! (MICRO-31, 1998), §4.2: a ring of narrow processing units (2-way
//! issue, 16-entry ROB, 8-entry issue list, 2 int / 1 fp / 1 branch /
//! 1 mem units), a sequencer with a path-based inter-task target
//! predictor (16-bit history, 64K entries) and per-PU gshare intra-task
//! predictors, a register communication ring (2 values/cycle, same-cycle
//! adjacent bypass), an Address Resolution Buffer with a 256-entry memory
//! dependence synchronisation table, and an L1/L2/memory hierarchy.
//!
//! The simulator is trace-driven: it consumes the correct-path dynamic
//! task sequence (from [`ms_trace`]) and models control misspeculation as
//! wrong-path occupancy + restart, and memory dependence misspeculation
//! as squash-and-re-execute of correct-path work — the two scenarios of
//! the paper's §2.3 time line. Cycle accounting follows the same
//! categories (task start/end overhead, useful, intra-task dependence,
//! inter-task communication, load imbalance, misspeculation penalties).
//!
//! # Role in the data flow
//!
//! This crate is the *measurement* stage of the pipeline: `ms_workloads`
//! builds a program, `ms_tasksel` partitions it, `ms_trace` turns it
//! into a dynamic instruction trace, and this crate charges cycles to
//! that trace. Results leave in two forms:
//!
//! * **aggregates** — [`SimStats`] counters and the §2.3
//!   [`CycleBreakdown`], consumed by the tables, JSON artifacts and
//!   golden tests in `ms_bench` (field glossary: `docs/METRICS.md`),
//! * **events** — an optional [`SimEvent`] stream with squash/stall
//!   *attribution* (which task boundary, which def-use arc), emitted
//!   through a [`TraceSink`] passed to [`Simulator::run_with_sink`].
//!   Sinks: [`JsonlSink`] (schema-versioned JSONL), [`TraceAggregator`]
//!   (attribution tables), [`TimelineSink`] (per-task timeline),
//!   [`CheckSink`] (streaming invariant checker + stats reconciliation
//!   — the engine half of the `ms-conform` differential harness, see
//!   `docs/CONFORMANCE.md`), [`NullSink`] (off — the default, zero
//!   cost), [`Tee`] (fan-out).
//!   Event semantics and the reconciliation invariants against
//!   [`SimStats`] are documented in `docs/TRACING.md`.
//!
//! # Execution
//!
//! The hot loop is data-oriented: instructions are decoded once per
//! (program, trace) into a struct-of-arrays table held by a
//! [`ProgramImage`], register write sets travel as single-`u64` SWAR
//! masks ([`swar`]), and ARB line membership is a lane-packed byte-tag
//! probe. One per-cell function runs that loop:
//!
//! * [`Simulator`] — one configuration: decode, then run one cell.
//! * [`BatchEngine`] — many configurations over one decoded image, run
//!   one after another (how `ms-bench` sweeps decode each trace once).
//!
//! Entry points: [`SimConfig`] (presets [`SimConfig::four_pu`],
//! [`SimConfig::eight_pu`], [`SimConfig::single_pu`]), [`Simulator`],
//! [`BatchEngine`], [`SimStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod check;
mod config;
mod engine;
mod event;
mod predictor;
mod sink;
mod stats;
pub mod swar;
mod table;

pub use batch::BatchEngine;
pub use cache::{Cache, Hierarchy};
pub use check::{CheckSink, CommitRec, DispatchRec, MemSquashRec};
pub use config::{CacheParams, FuCounts, SimConfig};
pub use engine::{ProgramImage, Simulator, TaskTiming};

/// Version of the timing model itself. Bump whenever a change alters
/// the statistics a given (program, config, trace) produces — content
/// caches keyed on program and configuration also key on this, so a
/// model change can never serve stale cached results. Version 2: the
/// data-oriented engine rewrite (struct-of-arrays decode, SWAR masks,
/// batch mode) — statistics are bit-identical to version 1, but the
/// bump conservatively invalidates cached cells across the rewrite.
pub const ENGINE_VERSION: u32 = 2;
pub use event::{NullSink, SimEvent, SquashCause, Tee, TraceSink, TRACE_SCHEMA_VERSION};
pub use predictor::{Gshare, ReturnStack, TaskPredictor};
pub use sink::{CauseCounts, JsonlSink, SquashRecord, TaskSpan, TimelineSink, TraceAggregator};
pub use stats::{CycleBreakdown, SimStats, TaskSizeHist};
