//! The cycle-level Multiscalar execution engine.
//!
//! Trace-driven timing simulation: dynamic tasks (from
//! [`ms_trace::split_tasks`]) are dispatched in program order to PUs
//! arranged on a ring, one task per PU, with
//!
//! * inter-task control speculation by a path-based target predictor
//!   (misprediction detected when the mispredicted task's exit resolves,
//!   charging wrong-path occupancy + restart),
//! * register values forwarded on a bandwidth-limited ring after the
//!   producing task's dynamically-last write of each register,
//! * memory dependence speculation through an ARB model: a load that
//!   executes before an earlier in-flight task's store to the same
//!   address squashes the loading task (and, implicitly, its successors,
//!   which have not been dispatched past it yet), re-executing it after
//!   the store; the synchronisation table then serialises later instances
//!   of that load,
//! * per-PU pipelines: fetch through a shared L1I, 2-wide issue (in-order
//!   or out-of-order within an issue list), ROB occupancy, per-class
//!   functional units, gshare prediction of intra-task branches, and
//!   loads through ARB forwarding or the L1D hierarchy,
//! * in-order task retirement with task start/end overheads — completed
//!   tasks wait for their predecessor (load imbalance).
//!
//! The engine is data-oriented: instructions are decoded once per
//! (program, trace) into a struct-of-arrays [`crate::table::DynInstTable`]
//! held by a [`crate::ProgramImage`], register write sets travel as
//! single-`u64` SWAR masks ([`crate::swar`]), ARB line membership is a
//! lane-packed byte-tag probe, and per-PU mutable state is cache-line
//! aligned. One engine runs one cell over a shared decoded image, so a
//! sweep decodes each trace once and runs its machine configurations
//! over the image one after another ([`crate::BatchEngine`]).

use ms_analysis::Liveness;
use ms_ir::{BlockRef, Program, NUM_REGS};
use ms_tasksel::{TaskPartition, TaskTarget};
use ms_trace::{split_tasks, CtOutcome, DynExit, DynTask, FxMap, Trace};

use crate::cache::{Cache, Hierarchy};
use crate::config::SimConfig;
use crate::event::{NullSink, SimEvent, SquashCause, TraceSink};
use crate::predictor::{Gshare, TaskPredictor};
use crate::sink::TimelineSink;
use crate::stats::{CycleBreakdown, SimStats};
use crate::swar::{self, TagSet};
use crate::table::{DynInstTable, CLASS_MASK, F_CT, F_LOAD, F_STORE, F_UNPIPELINED, NO_DST};

/// Maximum squash-and-re-execute attempts per task before the engine
/// forces full memory synchronisation (livelock guard).
const MAX_ATTEMPTS: u32 = 8;

/// The life of one dynamic task on the machine — the raw material of the
/// paper's Figure 2 execution time line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTiming {
    /// Processing unit the task ran on.
    pub pu: usize,
    /// Cycle the sequencer dispatched the task (final attempt).
    pub dispatch: u64,
    /// Cycle the task's last instruction completed.
    pub complete: u64,
    /// Cycle the task retired (committed architecturally).
    pub retire: u64,
    /// Dynamic instructions retired by the task.
    pub insts: u64,
    /// Squash-and-re-execute attempts the task needed (1 = clean).
    pub attempts: u32,
}

/// A configured Multiscalar timing simulator.
///
/// # Example
///
/// ```
/// use ms_analysis::ProgramContext;
/// use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
/// use ms_sim::{SimConfig, Simulator};
/// use ms_tasksel::{SelectorBuilder, Strategy};
/// use ms_trace::TraceGenerator;
///
/// let mut fb = FunctionBuilder::new("main");
/// let entry = fb.add_block();
/// let body = fb.add_block();
/// let exit = fb.add_block();
/// fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
/// fb.set_terminator(entry, Terminator::Jump { target: body });
/// fb.set_terminator(body, Terminator::Branch {
///     taken: body, fall: exit, cond: vec![Reg::int(1)],
///     behavior: BranchBehavior::exact_loop(32),
/// });
/// fb.set_terminator(exit, Terminator::Halt);
/// let mut pb = ProgramBuilder::new();
/// let m = pb.declare_function("main");
/// pb.define_function(m, fb.finish(entry)?);
/// let program = pb.finish(m)?;
///
/// let ctx = ProgramContext::new(program);
/// let sel = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build().select(&ctx);
/// let trace = TraceGenerator::new(&sel.program, 1).generate(5_000);
/// let stats = Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition).run(&trace);
/// assert!(stats.ipc() > 0.0);
/// # Ok::<(), ms_ir::BuildError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    config: SimConfig,
    program: &'a Program,
    partition: &'a TaskPartition,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for a partitioned program.
    pub fn new(config: SimConfig, program: &'a Program, partition: &'a TaskPartition) -> Self {
        Simulator { config, program, partition }
    }

    /// Runs the trace to completion and returns the statistics.
    pub fn run(&self, trace: &Trace) -> SimStats {
        self.run_with_sink(trace, &mut NullSink)
    }

    /// Runs the trace, streaming [`SimEvent`]s into `sink` — the
    /// observability entry point. With [`NullSink`] this is exactly
    /// [`Simulator::run`]: no events are constructed and no attribution
    /// bookkeeping is allocated.
    pub fn run_with_sink<S: TraceSink>(&self, trace: &Trace, sink: &mut S) -> SimStats {
        let image = ProgramImage::new(self.program, self.partition, trace);
        run_cell(&self.config, &image, sink)
    }

    /// Runs the trace and additionally returns the per-task time line
    /// (dispatch / complete / retire per dynamic task) — the data behind
    /// the paper's Figure 2 narrative. Implemented as a [`TimelineSink`]
    /// over [`Simulator::run_with_sink`]; callers that discard the
    /// timeline should call [`Simulator::run`], which allocates nothing.
    pub fn run_with_timeline(&self, trace: &Trace) -> (SimStats, Vec<TaskTiming>) {
        let mut sink = TimelineSink::new();
        let stats = self.run_with_sink(trace, &mut sink);
        (stats, sink.into_timeline())
    }
}

/// Runs one cell — one machine configuration over a decoded image —
/// to completion. The single simulation path behind [`Simulator`] and
/// [`crate::BatchEngine`]; it owns the `sim.run` span and the
/// `sim.cycles` / `sim.dyn_tasks` counters.
pub(crate) fn run_cell<S: TraceSink>(
    cfg: &SimConfig,
    img: &ProgramImage<'_>,
    sink: &mut S,
) -> SimStats {
    // The span wraps the whole engine run; the per-instruction loop
    // inside stays untouched (the `prof_null` test pins that the
    // disabled profiler adds no allocations here).
    let prof = ms_prof::span("sim.run");
    let stats = Engine::new(cfg, img).run_all(sink);
    prof.add_items(stats.total_insts);
    ms_prof::counter_add("sim.cycles", stats.total_cycles);
    ms_prof::counter_add("sim.dyn_tasks", stats.num_dyn_tasks as u64);
    stats
}

/// A decoded program image: the trace's dynamic task split plus the
/// struct-of-arrays instruction table, built once and shared by every
/// engine that executes the trace — every squash re-attempt of a cell,
/// and every cell of a [`crate::BatchEngine`] group.
#[derive(Debug)]
pub struct ProgramImage<'a> {
    pub(crate) program: &'a Program,
    pub(crate) partition: &'a TaskPartition,
    pub(crate) trace: &'a Trace,
    pub(crate) tasks: Vec<DynTask>,
    pub(crate) table: DynInstTable,
    /// Per dynamic task: entry PC of its static task (the task
    /// predictor's index and the descriptor cache's address).
    pub(crate) task_entry_pc: Vec<u64>,
    /// Per dynamic task: `(actual target index, target count)` for the
    /// task predictor. Index `u32::MAX` means the actual exit is not
    /// among the static targets (always a mispredict); count 0 means
    /// the exit is not predicted at all (trace end).
    pub(crate) task_pred_arm: Vec<(u32, u32)>,
    /// Per dynamic task: live-out SWAR register mask of its exit block.
    pub(crate) task_live_mask: Vec<u64>,
    /// Per dynamic task: whether dead register filtering may apply at
    /// its exit (liveness is intra-procedural, so call/return exits
    /// conservatively forward everything).
    pub(crate) task_live_filter: Vec<bool>,
}

impl<'a> ProgramImage<'a> {
    /// Splits `trace` into dynamic tasks and decodes the instruction
    /// table.
    pub fn new(program: &'a Program, partition: &'a TaskPartition, trace: &'a Trace) -> Self {
        let tasks = split_tasks(trace, program, partition);
        Self::with_tasks(program, partition, trace, tasks)
    }

    /// [`ProgramImage::new`] over a pre-split task sequence.
    pub fn with_tasks(
        program: &'a Program,
        partition: &'a TaskPartition,
        trace: &'a Trace,
        tasks: Vec<DynTask>,
    ) -> Self {
        let prof = ms_prof::span("sim.decode");
        let table = DynInstTable::build(program, trace);

        // Per-task data that depends only on (program, partition,
        // trace) — never on the machine configuration — computed once
        // here instead of per cell, per task, per attempt.
        let mut task_entry_pc = Vec::with_capacity(tasks.len());
        let mut task_pred_arm = Vec::with_capacity(tasks.len());
        let mut task_live_mask = Vec::with_capacity(tasks.len());
        let mut task_live_filter = Vec::with_capacity(tasks.len());
        let mut liveness: FxMap<usize, Liveness> = FxMap::default();
        let mut per_static: FxMap<(usize, usize), (Vec<TaskTarget>, u64)> = FxMap::default();
        let mut per_block: FxMap<(usize, usize), (u64, bool)> = FxMap::default();
        for dt in &tasks {
            let key = (dt.func.index(), dt.task.index());
            let (targets, entry_pc) = per_static.entry(key).or_insert_with(|| {
                let targets = partition.targets(program, dt.func, dt.task);
                let entry = partition.func(dt.func).task(dt.task).entry();
                (targets, program.block_pc(BlockRef::new(dt.func, entry)))
            });
            task_entry_pc.push(*entry_pc);
            task_pred_arm.push(match dt.exit {
                DynExit::Target(actual) => match targets.iter().position(|t| *t == actual) {
                    Some(idx) => (idx as u32, targets.len() as u32),
                    None => (u32::MAX, targets.len().max(2) as u32),
                },
                DynExit::End => (0, 0),
            });
            let exit = trace.steps()[dt.end - 1].block;
            let bkey = (exit.func.index(), exit.block.index());
            let (mask, filterable) = *per_block.entry(bkey).or_insert_with(|| {
                let term = program.function(exit.func).block(exit.block).terminator();
                let live = liveness
                    .entry(exit.func.index())
                    .or_insert_with(|| Liveness::compute(program.function(exit.func)));
                let mask = live.live_out(exit.block).iter().fold(0u64, |m, r| m | (1 << r));
                (mask, !term.is_call() && !term.is_return())
            });
            task_live_mask.push(mask);
            task_live_filter.push(filterable);
        }

        prof.add_items(trace.num_insts() as u64);
        ProgramImage {
            program,
            partition,
            trace,
            tasks,
            table,
            task_entry_pc,
            task_pred_arm,
            task_live_mask,
            task_live_filter,
        }
    }

    /// The program the image was decoded from.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The task partition the trace was split with.
    pub fn partition(&self) -> &'a TaskPartition {
        self.partition
    }
}

/// The most recent writer of an architectural register.
#[derive(Debug, Clone, Copy)]
struct RegSrc {
    task: usize,
    /// Cycle the value enters the ring (post bandwidth scheduling).
    send: u64,
}

/// The most recent store to an address.
#[derive(Debug, Clone, Copy)]
struct StoreSrc {
    task: usize,
    complete: u64,
    pc: u64,
}

/// A detected memory dependence violation, with attribution.
#[derive(Debug, Clone, Copy)]
struct Violation {
    /// Cycle the violated store completed (squash detection point).
    cycle: u64,
    /// PC of the premature load.
    load_pc: u64,
    /// Dynamic task of the violated store.
    store_task: usize,
    /// PC of the violated store.
    store_pc: u64,
}

/// Result of executing one task attempt. Its buffers live in
/// [`Scratch`] and are reused attempt to attempt, so the steady-state
/// loop performs no heap allocation.
#[derive(Debug, Default)]
struct Attempt {
    complete: u64,
    resolve: u64,
    insts: u64,
    ct_insts: u64,
    br_preds: u64,
    br_hits: u64,
    arb_overflow: bool,
    /// First overflowing access cycle and total head-wait stall (event
    /// detail; only meaningful when `arb_overflow`).
    arb_cycle: u64,
    arb_stall: u64,
    /// Earliest violation.
    violation: Option<Violation>,
    /// SWAR mask of dense registers the attempt wrote.
    write_mask: u64,
    /// Completion of the dynamically-last write per written register,
    /// in dense register order.
    reg_writes: Vec<(usize, u64)>,
    /// (addr, complete, pc) per store, program order.
    stores: Vec<(u64, u64, u64)>,
    /// Per-arc ring-wait attribution `(producer task, reg, cycles)`,
    /// collected only when a trace sink is enabled (stays unallocated
    /// otherwise).
    fwd_stalls: Vec<(usize, usize, u64)>,
    /// Stall blame weights.
    w_intra: u64,
    w_inter: u64,
    w_mem: u64,
    w_front: u64,
    w_res: u64,
}

impl Attempt {
    /// Resets for a new attempt, keeping buffer capacity.
    fn reset(&mut self, fetch_base: u64) {
        let Attempt { reg_writes, stores, fwd_stalls, .. } = std::mem::take(self);
        *self = Attempt {
            complete: fetch_base,
            resolve: fetch_base,
            reg_writes,
            stores,
            fwd_stalls,
            ..Attempt::default()
        };
        self.reg_writes.clear();
        self.stores.clear();
        self.fwd_stalls.clear();
    }
}

/// Per-PU mutable state, cache-line aligned so the round-robin walk of
/// a batch pass never false-shares neighbouring PUs.
#[repr(align(64))]
#[derive(Debug)]
struct PuState {
    gshare: Gshare,
    /// Last-target indirect jump predictor (internal switches).
    indirect: FxMap<u64, u16>,
    /// Outgoing ring slot usage, indexed by cycle — link bandwidth is a
    /// property of the PU's ring port, shared by consecutive tasks it
    /// runs, not per task. `u16` counts: the effective per-cycle
    /// bandwidth is clamped to 65535, unreachable for any real ring.
    ring_slots: Vec<u16>,
    /// Cycle the PU's current occupant retires.
    free: u64,
}

/// Reusable buffers for [`Engine::exec_task`], allocated once per engine
/// so the per-instruction hot loop performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// Completion of the task's last write per dense register; only
    /// entries whose bit is set in the attempt's write mask are live.
    local_reg: Vec<u64>,
    /// Store address → completion cycle within the current attempt.
    local_store: FxMap<u64, u64>,
    /// Issue-slot usage, indexed by cycle − fetch base.
    issue_slots: Vec<u32>,
    /// Per instruction in program order: (issue cycle, running maximum
    /// of completion cycles). One vector, one capacity check per
    /// instruction; the ROB and issue-list window constraints read the
    /// two halves at different lags.
    window: Vec<(u64, u64)>,
    /// Distinct cache lines the attempt's memory accesses touched (ARB
    /// capacity tracking; SWAR byte-tag membership).
    mem_lines: TagSet,
    /// Per-class functional unit free cycles, reset per attempt.
    fu_free: [Vec<u64>; 4],
    /// The attempt result buffers, reused across attempts and tasks.
    attempt: Attempt,
    /// Ring-forward staging buffer for `commit_regs`.
    outs: Vec<(usize, u64)>,
}

pub(crate) struct Engine<'e> {
    cfg: &'e SimConfig,
    img: &'e ProgramImage<'e>,
    icache: Hierarchy,
    dcache: Hierarchy,
    /// Sequencer-side task descriptor cache (paper §4.2).
    task_cache: Cache,
    task_pred: TaskPredictor,
    pus: Vec<PuState>,
    reg_src: Vec<Option<RegSrc>>,
    last_store: FxMap<u64, StoreSrc>,
    /// LRU list of synchronised load PCs.
    sync_table: Vec<u64>,
    retire: Vec<u64>,
    reg_forwards: u64,
    scratch: Scratch,
    // ---- run state, carried task to task by `step` ----
    stats: SimStats,
    prev_dispatch: u64,
    prev_resolve: u64,
    prev_mispredicted: bool,
    /// Σ insts × residency.
    inflight_span: u64,
    /// Σ (retire − dispatch), for PU idle.
    residency: u64,
}

impl<'e> Engine<'e> {
    pub(crate) fn new(cfg: &'e SimConfig, img: &'e ProgramImage<'e>) -> Self {
        Engine {
            cfg,
            img,
            icache: Hierarchy::new(cfg.l1i, cfg.l2, cfg.mem_latency),
            dcache: Hierarchy::new(cfg.l1d, cfg.l2, cfg.mem_latency),
            task_cache: Cache::new(cfg.task_cache),
            task_pred: TaskPredictor::new(cfg.task_pred_history_bits, cfg.task_pred_table_bits),
            pus: (0..cfg.num_pus)
                .map(|_| PuState {
                    gshare: Gshare::new(cfg.gshare_history_bits, cfg.gshare_table_bits),
                    indirect: FxMap::default(),
                    // Sized to a cycle horizon up front, so steady state
                    // never pays the realloc-and-copy of growing it
                    // cycle by cycle. `commit_regs` still grows it if a
                    // run overshoots the estimate.
                    ring_slots: vec![0; img.trace.num_insts() + 4096],
                    free: 0,
                })
                .collect(),
            reg_src: vec![None; NUM_REGS],
            last_store: FxMap::default(),
            sync_table: Vec::with_capacity(cfg.sync_table_entries as usize),
            retire: Vec::with_capacity(img.tasks.len()),
            reg_forwards: 0,
            scratch: Scratch { local_reg: vec![0; NUM_REGS], ..Scratch::default() },
            stats: SimStats {
                num_pus: cfg.num_pus,
                num_dyn_tasks: img.tasks.len(),
                ..SimStats::default()
            },
            prev_dispatch: 0,
            prev_resolve: 0,
            prev_mispredicted: false,
            inflight_span: 0,
            residency: 0,
        }
    }

    /// Runs every dynamic task of the image, then does the final
    /// accounting.
    pub(crate) fn run_all<S: TraceSink>(mut self, sink: &mut S) -> SimStats {
        for k in 0..self.img.tasks.len() {
            self.step(k, sink);
        }
        let p = self.cfg.num_pus;
        self.stats.total_cycles = self.retire.last().copied().unwrap_or(0);
        if sink.enabled() {
            // Drain: PUs whose last task retired before the run ended
            // (and PUs that never ran a task) idle to the final cycle.
            for (pu, state) in self.pus.iter().enumerate() {
                if state.free < self.stats.total_cycles {
                    sink.event(&SimEvent::PuIdle {
                        pu,
                        from: state.free,
                        to: self.stats.total_cycles,
                    });
                }
            }
        }
        self.stats.pu_idle_cycles =
            (self.stats.total_cycles * p as u64).saturating_sub(self.residency);
        self.stats.reg_forwards = self.reg_forwards;
        self.stats.l1d = self.dcache.l1_counters();
        self.stats.l1i = self.icache.l1_counters();
        self.stats.window_span_measured = if self.stats.total_cycles == 0 {
            0.0
        } else {
            self.inflight_span as f64 / self.stats.total_cycles as f64
        };
        self.stats
    }

    /// Advances the cell by one dynamic task: dispatch, execute (with
    /// squash re-attempts), retire, commit architectural effects,
    /// predict the exit.
    fn step<S: TraceSink>(&mut self, k: usize, sink: &mut S) {
        let dt = self.img.tasks[k].clone();
        let p = self.cfg.num_pus;
        let pu = k % p;
        let natural = self.pus[pu].free.max(self.prev_dispatch + 1);
        let mut dispatch = natural;
        if self.prev_mispredicted {
            // The task speculatively occupying this PU was on the
            // wrong path: squash it and restart from the resolved
            // target.
            self.stats.ctrl_squashes += 1;
            let restart = self.prev_resolve + self.cfg.task_mispredict_restart as u64;
            let lost = restart.saturating_sub(dispatch);
            if sink.enabled() {
                sink.event(&SimEvent::TaskSquash {
                    task: k,
                    pu,
                    cycle: self.prev_resolve,
                    attempt: 0,
                    cause: SquashCause::Control { predecessor: k - 1, lost_cycles: lost },
                });
            }
            if restart > dispatch {
                self.stats.breakdown.ctrl_misspec += restart - dispatch;
                dispatch = restart;
            }
        }

        // The sequencer reads the task descriptor; a task cache
        // miss delays dispatch by an L2 access.
        let entry_pc = self.img.task_entry_pc[k];
        let desc_miss = !self.task_cache.access(entry_pc);
        if desc_miss {
            dispatch += self.cfg.l2.hit_latency as u64;
        }
        if sink.enabled() {
            sink.event(&SimEvent::TaskDispatch {
                task: k,
                pu,
                cycle: dispatch,
                func: dt.func.index(),
                static_task: dt.task.index(),
                entry_pc,
                desc_miss,
            });
        }

        // Execute, re-executing on memory dependence violations.
        let head_free = if k == 0 { 0 } else { self.retire[k - 1] + 1 };
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let force_sync = attempts > MAX_ATTEMPTS;
            self.exec_task(k, &dt, dispatch, pu, head_free, force_sync, sink.enabled());
            match self.scratch.attempt.violation {
                Some(v) if !force_sync => {
                    let insts = self.scratch.attempt.insts;
                    self.stats.violations += 1;
                    self.stats.squashed_insts += insts;
                    let restart = v.cycle + self.cfg.squash_restart as u64;
                    let lost = restart.saturating_sub(dispatch);
                    self.stats.breakdown.mem_misspec += lost;
                    if sink.enabled() {
                        let detail = (v.store_task, v.store_pc, v.load_pc, insts, lost);
                        let cause = if attempts == 1 {
                            SquashCause::Memory {
                                store_task: detail.0,
                                store_pc: detail.1,
                                load_pc: detail.2,
                                lost_insts: detail.3,
                                lost_cycles: detail.4,
                            }
                        } else {
                            SquashCause::Cascade {
                                store_task: detail.0,
                                store_pc: detail.1,
                                load_pc: detail.2,
                                lost_insts: detail.3,
                                lost_cycles: detail.4,
                            }
                        };
                        sink.event(&SimEvent::TaskSquash {
                            task: k,
                            pu,
                            cycle: v.cycle,
                            attempt: attempts,
                            cause,
                        });
                    }
                    self.sync_insert(v.load_pc);
                    dispatch = restart.max(dispatch + 1);
                }
                _ => break,
            }
        }
        let mut attempt = std::mem::take(&mut self.scratch.attempt);
        if self.cfg.inject_commit_undercount && k % 3 == 2 {
            // Test-only fault (see `SimConfig::inject_commit_undercount`):
            // a self-consistent miscount — commit event and counters
            // agree with each other but not with the trace — that only
            // the differential reference model can detect.
            attempt.insts = attempt.insts.saturating_sub(1);
        }

        // Retirement: commit work (end overhead) happens on the
        // task's own PU and overlaps across PUs; the retire token
        // passes in order at one task per cycle. Waiting for the
        // predecessor is the paper's load imbalance.
        let commit_done = attempt.complete + self.cfg.task_end_overhead as u64;
        let retire = commit_done.max(head_free);
        let imbalance = retire - commit_done;
        if sink.enabled() {
            // The PU-cycles between the previous occupant's retire
            // and this task's final dispatch are not residency —
            // dispatch gaps and squashed-attempt occupancy both land
            // here, mirroring `pu_idle_cycles`.
            if dispatch > self.pus[pu].free {
                sink.event(&SimEvent::PuIdle { pu, from: self.pus[pu].free, to: dispatch });
            }
            for &(producer, reg, cycles) in &attempt.fwd_stalls {
                sink.event(&SimEvent::FwdStall { task: k, producer, reg, cycles });
            }
            if attempt.arb_overflow {
                sink.event(&SimEvent::ArbConflict {
                    task: k,
                    pu,
                    cycle: attempt.arb_cycle,
                    stall: attempt.arb_stall,
                });
            }
            sink.event(&SimEvent::TaskCommit {
                task: k,
                pu,
                dispatch,
                complete: attempt.complete,
                retire,
                insts: attempt.insts,
                attempts,
            });
        }
        self.retire.push(retire);
        self.pus[pu].free = retire;
        #[cfg(feature = "trace-debug")]
        if k < 64 {
            eprintln!(
                "task {k:4} pu {pu} dispatch {dispatch:6} complete {:6} retire {retire:6} insts {:3}",
                attempt.complete, attempt.insts
            );
        }

        // Commit architectural effects: register forwards (ring send
        // scheduling, filtered by dead register analysis) and the
        // store map. The liveness filter is one SWAR mask intersection
        // against the attempt's write mask.
        let filter = self.cfg.dead_reg_analysis && self.img.task_live_filter[k];
        let mask = if filter {
            attempt.write_mask & self.img.task_live_mask[k]
        } else {
            attempt.write_mask
        };
        self.commit_regs(k, pu, &attempt, mask, sink);
        for &(addr, complete, pc) in &attempt.stores {
            self.last_store.insert(addr, StoreSrc { task: k, complete, pc });
        }

        // Inter-task prediction for this task's exit (consulted when
        // the successor was speculatively dispatched).
        self.prev_mispredicted = false;
        let (actual_idx, n_targets) = self.img.task_pred_arm[k];
        if n_targets != 0 {
            let correct = if actual_idx != u32::MAX {
                self.task_pred.predict_and_update(entry_pc, actual_idx as usize, n_targets as usize)
            } else {
                self.task_pred.predict_and_update(entry_pc, 0, n_targets as usize);
                false
            };
            self.stats.task_preds += 1;
            if correct {
                self.stats.task_pred_hits += 1;
            } else {
                self.prev_mispredicted = true;
            }
        }
        self.prev_resolve = attempt.resolve;
        self.prev_dispatch = dispatch;

        // Accounting.
        self.stats.total_insts += attempt.insts;
        self.stats.ct_insts += attempt.ct_insts;
        self.stats.br_preds += attempt.br_preds;
        self.stats.br_pred_hits += attempt.br_hits;
        self.stats.fwd_stall_cycles += attempt.w_inter;
        self.stats.task_size_hist.record(attempt.insts);
        if attempt.arb_overflow {
            self.stats.arb_overflows += 1;
        }
        self.inflight_span += attempt.insts * (retire - dispatch);
        self.residency += retire - dispatch;
        account(self.cfg, &mut self.stats.breakdown, &attempt, dispatch, imbalance);
        // Return the attempt's buffers for the next task.
        self.scratch.attempt = attempt;
    }

    fn sync_insert(&mut self, pc: u64) {
        if self.cfg.sync_table_entries == 0 {
            // Synchronisation disabled (the ablation machine): the same
            // load keeps misspeculating, bounded only by MAX_ATTEMPTS.
            return;
        }
        if let Some(pos) = self.sync_table.iter().position(|&x| x == pc) {
            self.sync_table.remove(pos);
        } else if self.sync_table.len() >= self.cfg.sync_table_entries as usize {
            self.sync_table.remove(0);
        }
        self.sync_table.push(pc);
    }

    /// Schedules the task's register forwards onto the ring (bandwidth
    /// limited) and publishes them. With dead register analysis enabled
    /// (the compiler of \[3\]/\[18\]), only registers live out of the task's
    /// exit block travel; dead values stay put, saving ring bandwidth
    /// (`mask` is the attempt's write mask, already intersected with
    /// the exit's live-out mask when the filter applies).
    fn commit_regs<S: TraceSink>(
        &mut self,
        k: usize,
        pu: usize,
        a: &Attempt,
        mask: u64,
        sink: &mut S,
    ) {
        let mut outs = std::mem::take(&mut self.scratch.outs);
        outs.clear();
        outs.extend(a.reg_writes.iter().copied().filter(|&(r, _)| mask >> r & 1 != 0));
        self.reg_forwards += outs.len() as u64;
        outs.sort_by_key(|&(r, c)| (c, r));
        let bw = self.cfg.ring_bandwidth.max(1).min(u32::from(u16::MAX)) as u16;
        let slots = &mut self.pus[pu].ring_slots;
        for &(r, ready) in &outs {
            let mut cycle = ready as usize;
            loop {
                if cycle >= slots.len() {
                    // Grow geometrically so steady state stops
                    // reallocating once the run's horizon is covered.
                    let len = (cycle + 64).max(slots.len() * 2);
                    slots.resize(len, 0);
                }
                if slots[cycle] < bw {
                    slots[cycle] += 1;
                    break;
                }
                cycle += 1;
            }
            let cycle = cycle as u64;
            if sink.enabled() {
                sink.event(&SimEvent::FwdSend { task: k, pu, reg: r, ready, sent: cycle });
            }
            self.reg_src[r] = Some(RegSrc { task: k, send: cycle });
        }
        self.scratch.outs = outs;
    }

    /// Executes one attempt of task `k` starting at `dispatch`, into
    /// `self.scratch.attempt`. `collect` enables per-arc stall
    /// attribution (trace sink active).
    #[allow(clippy::too_many_lines)]
    fn exec_task(
        &mut self,
        k: usize,
        dt: &DynTask,
        dispatch: u64,
        pu: usize,
        head_free: u64,
        force_sync: bool,
        collect: bool,
    ) {
        // Disjoint field borrows: the loop below holds the scratch
        // buffers mutably while driving the caches and predictors.
        let Engine {
            cfg,
            img,
            icache,
            dcache,
            pus,
            reg_src,
            last_store,
            sync_table,
            retire,
            scratch,
            ..
        } = self;
        let (cfg, img) = (*cfg, &**img);
        let t = &img.table;
        let steps = img.trace.steps();
        let p = cfg.num_pus;
        let pu_state = &mut pus[pu];
        let fetch_base = dispatch + cfg.task_start_overhead as u64;
        let mut fetch_cycle = fetch_base;
        let mut fetched = 0u32;
        let mut cur_line = u64::MAX;

        let local_reg = &mut scratch.local_reg; // dense reg → complete
        let mut write_mask = 0u64; // SWAR mask of written dense regs
        let local_store = &mut scratch.local_store; // addr → complete
        local_store.clear();
        let issue_slots = &mut scratch.issue_slots; // cycle − fetch_base → issued
        issue_slots.clear();
        let fu_free = &mut scratch.fu_free;
        let fu_counts = [cfg.fus.int, cfg.fus.fp, cfg.fus.branch, cfg.fus.mem];
        for (units, &n) in fu_free.iter_mut().zip(&fu_counts) {
            units.clear();
            units.resize(n as usize, 0);
        }
        let window = &mut scratch.window;
        window.clear();
        let mut last_issue = 0u64;
        // Cache line sizes are asserted powers of two (`Cache::new`), so
        // line mapping is a shift — not a 64-bit divide per instruction.
        let l1i_shift = cfg.l1i.line.trailing_zeros();
        let l1d_shift = cfg.l1d.line.trailing_zeros();
        let mem_lines = &mut scratch.mem_lines;
        mem_lines.clear();
        let mut arb_overflow = false;
        let mut violation: Option<Violation> = None;
        let mut exit_ct_complete: Option<u64> = None;

        let a = &mut scratch.attempt;
        a.reset(fetch_base);

        // Accumulators live in registers for the duration of the loop;
        // they flush into the attempt record once at the end.
        let mut w_intra_acc = 0u64;
        let mut w_inter_acc = 0u64;
        let mut w_mem_acc = 0u64;
        let mut w_front_acc = 0u64;
        let mut w_res_acc = 0u64;
        let mut insts_acc = 0u64;
        let mut ct_insts_acc = 0u64;
        let mut br_preds_acc = 0u64;
        let mut br_hits_acc = 0u64;
        let mut complete_max = fetch_base;
        let mut pmax_last = 0u64;
        let mut i_row = 0usize;

        for step_idx in dt.start..dt.end {
            let step = &steps[step_idx];
            let is_last_step = step_idx + 1 == dt.end;
            let b = t.step_block[step_idx] as usize;
            let row0 = t.block_off[b] as usize;
            let rows = t.block_len[b] as usize;
            let pc0 = t.block_pc0[b];
            // One bounds check per column per block; the per-row indexes
            // below are all provably in range.
            let flags_col = &t.flags[row0..][..rows];
            let lat_col = &t.lat[row0..][..rows];
            let dst_col = &t.dst[row0..][..rows];
            let mem_col = &t.mem[row0..][..rows];
            for i in 0..rows {
                let r = row0 + i;
                let flags = flags_col[i];
                let pc = pc0 + 4 * i as u64;
                // ---- Fetch ----
                let line = pc >> l1i_shift;
                if line != cur_line {
                    cur_line = line;
                    let lat = icache.access(pc);
                    if lat > cfg.l1i.hit_latency {
                        let stall = (lat - cfg.l1i.hit_latency) as u64;
                        fetch_cycle += stall;
                        fetched = 0;
                        w_front_acc += stall;
                    }
                }
                if fetched >= cfg.issue_width {
                    fetch_cycle += 1;
                    fetched = 0;
                }
                let my_fetch = fetch_cycle;
                fetched += 1;
                let decode_ready = my_fetch + 1;

                // ---- Operands ----
                let mut intra_ready = 0u64;
                let mut inter_ready = 0u64;
                // The producing (task, reg) of the latest-arriving ring
                // value — the arc the stall is blamed on. Operand order
                // is the original program order (the table preserves
                // it), which the `arrival > inter_ready` tie-break
                // depends on.
                let mut inter_src: Option<(usize, usize)> = None;
                for &src in t.srcs_of(r) {
                    let d = src as usize;
                    if write_mask & (1 << d) != 0 {
                        intra_ready = intra_ready.max(local_reg[d]);
                    } else if let Some(rs) = reg_src[d] {
                        let retired = retire.get(rs.task).map(|&r| r <= dispatch).unwrap_or(true);
                        if !retired {
                            let m = (k - rs.task) as u64; // 1..P-1 in flight
                            let hops = m.min(p as u64);
                            let arrival = rs.send + (hops - 1) * cfg.ring_hop_latency as u64;
                            if arrival > inter_ready {
                                inter_ready = arrival;
                                inter_src = Some((rs.task, d));
                            }
                        }
                    }
                }

                let mut ready = decode_ready.max(intra_ready).max(inter_ready);
                w_intra_acc += intra_ready.saturating_sub(decode_ready);
                let inter_stall = inter_ready.saturating_sub(decode_ready);
                w_inter_acc += inter_stall;
                if collect && inter_stall > 0 {
                    if let Some((producer, reg)) = inter_src {
                        a.fwd_stalls.push((producer, reg, inter_stall));
                    }
                }

                // ---- Window constraints ----
                if i_row >= cfg.rob_size as usize {
                    ready = ready.max(window[i_row - cfg.rob_size as usize].1);
                }
                if cfg.in_order {
                    ready = ready.max(last_issue);
                } else if i_row >= cfg.issue_list as usize {
                    ready = ready.max(window[i_row - cfg.issue_list as usize].0);
                }

                // ---- Issue slot + FU ----
                let class_idx = (flags & CLASS_MASK) as usize;
                let units = &mut fu_free[class_idx];
                // All classes but Int have one unit; avoid the scan.
                let unit = if units.len() == 1 {
                    0
                } else {
                    (0..units.len()).min_by_key(|&u| units[u]).expect("fu count >= 1")
                };
                let mut c = ready.max(units[unit]);
                {
                    // Issue cycles never precede the fetch base, so the
                    // slot table is a dense per-attempt offset vector.
                    let mut off = (c - fetch_base) as usize;
                    loop {
                        if off >= issue_slots.len() {
                            issue_slots.resize(off + 8, 0);
                        }
                        if issue_slots[off] < cfg.issue_width {
                            issue_slots[off] += 1;
                            break;
                        }
                        off += 1;
                    }
                    c = fetch_base + off as u64;
                }
                w_res_acc += c - ready;
                // Reserve the unit: divides are unpipelined, everything
                // else accepts a new operation every cycle.
                let base_lat = lat_col[i] as u64;
                let occupancy = if flags & F_UNPIPELINED != 0 { base_lat } else { 1 };
                units[unit] = c + occupancy;

                // ---- Execute / memory ----
                let complete;
                if flags & (F_CT | F_LOAD | F_STORE) == 0 {
                    // Plain ALU op — the common case, kept branch-free.
                    complete = c + base_lat;
                    // Blame long latencies on intra-task deps
                    // only when someone waits; handled via
                    // operand waits of consumers.
                } else if flags & F_CT == 0 {
                    if flags & F_LOAD != 0 {
                        let addr = step.mem_addrs[mem_col[i] as usize];
                        // ARB capacity.
                        let line = addr >> l1d_shift;
                        mem_lines.insert(line);
                        if mem_lines.len() > cfg.arb_entries_per_pu as usize && c < head_free {
                            let stall = head_free - c;
                            w_mem_acc += stall;
                            if !arb_overflow {
                                a.arb_cycle = c;
                            }
                            a.arb_stall += stall;
                            c = head_free;
                            arb_overflow = true;
                        }
                        let mut lat;
                        if let Some(&sc) = local_store.get(&addr) {
                            // Intra-task store → load forward.
                            let wait = sc.saturating_sub(c);
                            w_intra_acc += wait;
                            c += wait;
                            lat = 1;
                        } else if let Some(ss) = last_store.get(&addr).copied() {
                            let retired = retire.get(ss.task).map(|&r| r <= c).unwrap_or(true);
                            if retired {
                                lat = dcache.access(addr) as u64;
                            } else if sync_table.contains(&pc) || force_sync {
                                // Synchronised: wait for the store.
                                let wait = (ss.complete + 1).saturating_sub(c);
                                w_mem_acc += wait;
                                c += wait;
                                lat = cfg.arb_hit_latency as u64;
                            } else if ss.complete > c {
                                // Premature load: violation when the
                                // store completes.
                                if violation.map(|v| ss.complete < v.cycle).unwrap_or(true) {
                                    violation = Some(Violation {
                                        cycle: ss.complete,
                                        load_pc: pc,
                                        store_task: ss.task,
                                        store_pc: ss.pc,
                                    });
                                }
                                lat = cfg.arb_hit_latency as u64;
                            } else {
                                // ARB forwards the speculative value.
                                lat = cfg.arb_hit_latency as u64;
                            }
                        } else {
                            lat = dcache.access(addr) as u64;
                        }
                        lat = lat.max(base_lat);
                        w_mem_acc += lat - 1;
                        complete = c + lat;
                    } else {
                        let addr = step.mem_addrs[mem_col[i] as usize];
                        let line = addr >> l1d_shift;
                        mem_lines.insert(line);
                        if mem_lines.len() > cfg.arb_entries_per_pu as usize && c < head_free {
                            let stall = head_free - c;
                            w_mem_acc += stall;
                            if !arb_overflow {
                                a.arb_cycle = c;
                            }
                            a.arb_stall += stall;
                            c = head_free;
                            arb_overflow = true;
                        }
                        complete = c + base_lat;
                        local_store.insert(addr, complete);
                        a.stores.push((addr, complete, pc));
                    }
                } else {
                    complete = c + 1;
                    ct_insts_acc += 1;
                    // Intra-task control transfers run through the
                    // PU's predictors (gshare for conditionals, a
                    // last-target table for switches; jumps, inlined
                    // calls and returns are statically/RAS
                    // predictable). The exit CT is the task
                    // predictor's job.
                    if !is_last_step {
                        let correct = match step.outcome {
                            CtOutcome::Branch(taken) => {
                                pu_state.gshare.predict_and_update(pc, taken)
                            }
                            CtOutcome::Switch(arm) => {
                                let slot = pu_state.indirect.entry(pc).or_insert(arm);
                                let ok = *slot == arm;
                                *slot = arm;
                                ok
                            }
                            _ => true,
                        };
                        br_preds_acc += 1;
                        if correct {
                            br_hits_acc += 1;
                        } else {
                            let redirect = complete + cfg.branch_mispredict_penalty as u64;
                            if redirect > fetch_cycle {
                                w_front_acc += redirect - fetch_cycle;
                                fetch_cycle = redirect;
                                fetched = 0;
                            }
                        }
                    }
                }

                #[cfg(feature = "trace-debug")]
                if std::env::var("MS_DBG_TASK").ok().and_then(|v| v.parse::<usize>().ok())
                    == Some(k)
                {
                    eprintln!(
                        "  inst {i_row:3} flags {flags:#04x} fetch {} intra {} inter {} ready {} issue {} complete {}",
                        my_fetch, intra_ready, inter_ready, ready, c, complete
                    );
                }
                let dst = dst_col[i];
                if dst != NO_DST {
                    local_reg[dst as usize] = complete;
                    write_mask |= 1 << dst;
                }
                pmax_last = pmax_last.max(complete);
                window.push((c, pmax_last));
                last_issue = c;
                i_row += 1;
                insts_acc += 1;
                complete_max = complete_max.max(complete);
                // A step's CT, when emitted, is its final instruction.
                if flags & F_CT != 0 && is_last_step {
                    exit_ct_complete = Some(complete);
                }
            }
        }
        // The exit resolves when the final control transfer completes;
        // a task ending without one (halt) resolves at completion.
        a.w_intra = w_intra_acc;
        a.w_inter = w_inter_acc;
        a.w_mem = w_mem_acc;
        a.w_front = w_front_acc;
        a.w_res = w_res_acc;
        a.insts = insts_acc;
        a.ct_insts = ct_insts_acc;
        a.br_preds = br_preds_acc;
        a.br_hits = br_hits_acc;
        a.complete = complete_max;
        a.resolve = exit_ct_complete.unwrap_or(a.complete);
        a.write_mask = write_mask;
        a.reg_writes.extend(swar::set_bits(write_mask).map(|r| (r, local_reg[r])));
        a.arb_overflow = arb_overflow;
        a.violation = violation;
    }
}

/// Splits a task's busy span into the §2.3 categories.
fn account(cfg: &SimConfig, b: &mut CycleBreakdown, a: &Attempt, dispatch: u64, imbalance: u64) {
    b.start_overhead += cfg.task_start_overhead as u64;
    b.load_imbalance += imbalance;
    b.end_overhead += cfg.task_end_overhead as u64;
    let exec_span = a.complete.saturating_sub(dispatch + cfg.task_start_overhead as u64);
    let ideal = a.insts.div_ceil(cfg.issue_width as u64).max(1);
    let stall = exec_span.saturating_sub(ideal);
    b.useful += exec_span.min(ideal);
    let weights =
        [a.w_intra, a.w_inter, a.w_mem, a.w_front, a.w_res, /* residual → useful */ 0];
    let wsum: u64 = weights.iter().sum();
    if wsum == 0 {
        b.useful += stall;
    } else {
        let share = |w: u64| stall * w / wsum;
        b.intra_dep += share(a.w_intra);
        b.inter_comm += share(a.w_inter);
        b.memory += share(a.w_mem);
        b.frontend += share(a.w_front);
        b.resource += share(a.w_res);
        // Rounding residue → useful, keeping the per-task identity.
        let assigned = share(a.w_intra)
            + share(a.w_inter)
            + share(a.w_mem)
            + share(a.w_front)
            + share(a.w_res);
        b.useful += stall - assigned;
    }
}
