//! The experiment sweeps behind the paper's figures and tables, as data.
//!
//! Every sweep is a grid of independent **cells** — one (workload,
//! heuristic, machine configuration) simulation each, fully described by
//! a [`CellJob`]. The single `run` driver binary turns a sweep name into
//! its grid, fans the cells out with [`crate::harness::run_parallel`],
//! renders the same tables the former dedicated binaries printed, and
//! writes one schema-versioned JSON metrics artifact per cell to
//! `target/experiments/<sweep>/<cell>.json` (schema documented in
//! `EXPERIMENTS.md`).
//!
//! Determinism: a cell's result depends only on the cell description
//! (the per-cell seed included), tables and artifacts are rendered from
//! the grid-ordered result vector, and artifacts are written serially
//! after the parallel phase — so `--jobs 1` and `--jobs N` produce
//! byte-identical output. Cells sharing a pre-selection program also
//! share one [`ProgramContext`], so each CFG analysis is computed once
//! per program per sweep instead of once per cell; cached analyses are
//! values a fresh computation would also produce, keeping artifacts
//! byte-identical to a from-scratch run.

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use ms_analysis::ProgramContext;
use ms_ir::Program;
use ms_sim::{BatchEngine, ProgramImage, SimConfig, SimStats};
use ms_tasksel::{if_convert, PartitionStats, SelectorBuilder, Strategy, TaskSizeParams};
use ms_trace::TraceGenerator;
use ms_workloads::{by_name, fp_suite, integer_suite};

use crate::error::{closest, BenchError};
use crate::harness::run_parallel_observed;
use crate::json::JsonObj;
use crate::progress::SweepObserver;
use crate::{pct_change, Heuristic, DEFAULT_SEED, DEFAULT_TRACE_INSTS};

/// Version of the per-cell metrics JSON schema (bump on any field
/// change; documented field-by-field in `EXPERIMENTS.md`).
pub const SCHEMA_VERSION: u32 = 1;

/// Dynamic instruction budget the ablation sweeps use (the figure/table
/// grids use [`DEFAULT_TRACE_INSTS`]).
pub const SWEEP_TRACE_INSTS: usize = 60_000;

/// All sweep names the driver accepts, in `all` execution order
/// (always `SweepSpec::ALL`'s names, in the same order).
pub const SWEEP_NAMES: [&str; 8] =
    ["figure5", "table1", "targets", "thresholds", "pus", "forwarding", "predication", "hardware"];

/// Typed identity of one experiment sweep — the registry behind the
/// driver's sweep subcommands, replacing stringly-typed dispatch.
/// Convert a user-supplied name with [`SweepSpec::parse`]; enumerate
/// with [`SweepSpec::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepSpec {
    /// Figure 5: heuristic impact across the suite (4/8 PUs, ooo/io).
    Figure5,
    /// Table 1: task size, misspeculation and window span (8 PUs).
    Table1,
    /// Ablation: control-flow target limit `N`.
    Targets,
    /// Ablation: task-size `CALL_THRESH`/`LOOP_THRESH` sweep.
    Thresholds,
    /// Ablation: PU count scaling.
    Pus,
    /// Ablation: dead register analysis for ring forwards.
    Forwarding,
    /// Ablation: if-conversion before selection.
    Predication,
    /// Ablation: ring bandwidth, ARB capacity, sync table size.
    Hardware,
}

impl SweepSpec {
    /// Every sweep, in `run -- sweeps` execution order.
    pub const ALL: [SweepSpec; 8] = [
        SweepSpec::Figure5,
        SweepSpec::Table1,
        SweepSpec::Targets,
        SweepSpec::Thresholds,
        SweepSpec::Pus,
        SweepSpec::Forwarding,
        SweepSpec::Predication,
        SweepSpec::Hardware,
    ];

    /// The sweep's name: its subcommand, its artifact directory under
    /// `--out`, and the `sweep` field of its cell JSON.
    pub fn name(self) -> &'static str {
        match self {
            SweepSpec::Figure5 => "figure5",
            SweepSpec::Table1 => "table1",
            SweepSpec::Targets => "targets",
            SweepSpec::Thresholds => "thresholds",
            SweepSpec::Pus => "pus",
            SweepSpec::Forwarding => "forwarding",
            SweepSpec::Predication => "predication",
            SweepSpec::Hardware => "hardware",
        }
    }

    /// One-line description for `run -- list`.
    pub fn describe(self) -> &'static str {
        match self {
            SweepSpec::Figure5 => "heuristic impact across the suite (Figure 5)",
            SweepSpec::Table1 => "task size, misspeculation, window span (Table 1)",
            SweepSpec::Targets => "control-flow target limit N ablation",
            SweepSpec::Thresholds => "task-size CALL_THRESH/LOOP_THRESH ablation",
            SweepSpec::Pus => "PU count scaling ablation",
            SweepSpec::Forwarding => "dead register analysis ablation",
            SweepSpec::Predication => "if-conversion ablation",
            SweepSpec::Hardware => "ring/ARB/sync-table hardware ablation",
        }
    }

    /// The schema version of the per-cell artifacts this sweep writes.
    pub fn schema_version(self) -> u32 {
        SCHEMA_VERSION
    }

    /// Resolves a user-supplied sweep name; unknown names report the
    /// nearest registered sweep.
    pub fn parse(name: &str) -> Result<SweepSpec, BenchError> {
        SweepSpec::ALL.into_iter().find(|s| s.name() == name).ok_or_else(|| {
            BenchError::UnknownSweep {
                name: name.to_string(),
                suggestion: closest(name, &SWEEP_NAMES),
            }
        })
    }
}

/// A complete description of one experiment cell. Running the same
/// `CellJob` twice produces identical statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CellJob {
    /// Workload name (see `ms_workloads::suite`).
    pub bench: &'static str,
    /// Task selection strategy.
    pub heuristic: Heuristic,
    /// Heuristic target limit `N`.
    pub targets: usize,
    /// Override for the task-size heuristic's thresholds (`CALL_THRESH`
    /// = value, `LOOP_THRESH` = value as usize); `None` uses defaults.
    pub ts_thresh: Option<f64>,
    /// If-convert diamonds of up to this many instructions per arm
    /// before selection.
    pub if_convert_arms: Option<usize>,
    /// Number of processing units.
    pub pus: usize,
    /// In-order PU pipelines (default out-of-order).
    pub in_order: bool,
    /// Dead register analysis for ring forwards (default on).
    pub dead_reg: bool,
    /// Ring bandwidth override (values/cycle/link).
    pub ring_bandwidth: Option<u32>,
    /// ARB entries per PU override.
    pub arb_entries_per_pu: Option<u32>,
    /// Memory dependence synchronisation table size override (0 = off).
    pub sync_table_entries: Option<u32>,
    /// Dynamic instruction budget.
    pub insts: usize,
    /// Trace seed.
    pub seed: u64,
}

impl CellJob {
    /// A cell with the defaults the ablation sweeps share: `N` = 4,
    /// 4 PUs, out-of-order, dead register analysis on,
    /// [`SWEEP_TRACE_INSTS`] instructions, [`DEFAULT_SEED`].
    pub fn new(bench: &'static str, heuristic: Heuristic) -> Self {
        CellJob {
            bench,
            heuristic,
            targets: 4,
            ts_thresh: None,
            if_convert_arms: None,
            pus: 4,
            in_order: false,
            dead_reg: true,
            ring_bandwidth: None,
            arb_entries_per_pu: None,
            sync_table_entries: None,
            insts: SWEEP_TRACE_INSTS,
            seed: DEFAULT_SEED,
        }
    }

    /// The cell's pre-selection program: workload build plus the
    /// if-conversion pass, if the cell asks for one. Cells with equal
    /// `(bench, if_convert_arms)` build equal programs, which is what
    /// lets a sweep share one analysis context across them.
    fn build_program(&self) -> Program {
        let w = by_name(self.bench).expect("sweeps reference known benchmarks");
        let mut program = w.build();
        if let Some(arms) = self.if_convert_arms {
            program = if_convert(&program, arms);
        }
        program
    }

    /// A fresh analysis context for this cell's pre-selection program.
    pub fn context(&self) -> ProgramContext {
        ProgramContext::new(self.build_program())
    }

    /// The cell's pre-selection program in the IR text format — the
    /// canonical form the content-addressed cell cache hashes (see
    /// [`crate::cache`]). Equal programs have equal text; any workload
    /// or if-conversion change shows up here.
    pub fn program_text(&self) -> String {
        ms_ir::write_program(&self.build_program())
    }

    /// The machine configuration the cell simulates — the single point
    /// where cell parameters become a [`SimConfig`], shared by the
    /// simulation itself ([`CellJob::run`]) and the cache key.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::with_pus(self.pus);
        if self.in_order {
            cfg = cfg.in_order();
        }
        if !self.dead_reg {
            cfg = cfg.without_dead_reg_analysis();
        }
        if let Some(bw) = self.ring_bandwidth {
            cfg.ring_bandwidth = bw;
        }
        if let Some(entries) = self.arb_entries_per_pu {
            cfg.arb_entries_per_pu = entries;
        }
        if let Some(entries) = self.sync_table_entries {
            cfg.sync_table_entries = entries;
        }
        cfg
    }

    /// Runs the cell standalone: build → (if-convert) → select → trace →
    /// simulate. A sweep runs the same path over a group of cells (see
    /// [`run_sweep`]); this is a group of one.
    pub fn run(&self) -> CellOutput {
        let ctx = self.context();
        CellJob::run_group(&[self], &ctx).pop().expect("one cell in, one out")
    }

    /// The fields that determine a cell's selection, partition
    /// statistics and trace — everything but the machine configuration.
    /// Cells with equal keys share one decoded [`ProgramImage`].
    fn batch_key(
        &self,
    ) -> (&'static str, Option<usize>, Heuristic, usize, Option<u64>, usize, u64) {
        (
            self.bench,
            self.if_convert_arms,
            self.heuristic,
            self.targets,
            self.ts_thresh.map(f64::to_bits),
            self.insts,
            self.seed,
        )
    }

    /// Runs a group of cells sharing one [`CellJob::batch_key`] against
    /// the analysis context of their pre-selection program: select,
    /// partition statistics, trace and decode once, then one engine
    /// cell per machine configuration, one after another. Outputs are
    /// in input order. The context only caches values a fresh
    /// computation would also produce, so a shared context gives the
    /// same outputs as a fresh one.
    fn run_group(cells: &[&CellJob], ctx: &ProgramContext) -> Vec<CellOutput> {
        let lead = cells[0];
        debug_assert!(
            cells.iter().all(|c| c.batch_key() == lead.batch_key()),
            "groups share selection, partition and trace"
        );
        let selector = match lead.ts_thresh {
            Some(t) => SelectorBuilder::new(Strategy::DataDependence)
                .max_targets(lead.targets)
                .task_size(TaskSizeParams { call_thresh: t, loop_thresh: t as usize })
                .build(),
            None => lead.heuristic.selector(lead.targets),
        };
        let sel = selector.select(ctx);
        let partition = PartitionStats::compute(
            &sel.program,
            &sel.partition,
            sel.context().profile(),
            lead.targets,
        );
        let trace = TraceGenerator::new(&sel.program, lead.seed).generate(lead.insts);
        let image = ProgramImage::new(&sel.program, &sel.partition, &trace);
        let configs: Vec<SimConfig> = cells.iter().map(|c| c.sim_config()).collect();
        BatchEngine::new(&image)
            .run(&configs)
            .into_iter()
            .map(|sim| CellOutput { sim, partition: partition.clone() })
            .collect()
    }

    /// The cell's parameters as a JSON object (stable key order).
    fn params_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num_u64("targets", self.targets as u64)
            .num_u64("pus", self.pus as u64)
            .bool("in_order", self.in_order)
            .bool("dead_reg", self.dead_reg)
            .num_u64("insts", self.insts as u64)
            .num_u64("seed", self.seed);
        if let Some(t) = self.ts_thresh {
            o.num_f64("ts_thresh", t);
        }
        if let Some(a) = self.if_convert_arms {
            o.num_u64("if_convert_arms", a as u64);
        }
        if let Some(bw) = self.ring_bandwidth {
            o.num_u64("ring_bandwidth", bw as u64);
        }
        if let Some(e) = self.arb_entries_per_pu {
            o.num_u64("arb_entries_per_pu", e as u64);
        }
        if let Some(e) = self.sync_table_entries {
            o.num_u64("sync_table_entries", e as u64);
        }
        o.finish()
    }
}

/// The two halves of a cell's metrics: dynamic (simulator) and static
/// (partition).
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    /// Cycle-level simulation statistics.
    pub sim: SimStats,
    /// Compile-time partition statistics.
    pub partition: PartitionStats,
}

/// Serialises one cell as the schema-versioned artifact written to
/// `target/experiments/<sweep>/<cell>.json`.
pub fn cell_json(sweep: &str, cell: &str, job: &CellJob, out: &CellOutput) -> String {
    let mut o = JsonObj::new();
    o.num_u64("schema_version", SCHEMA_VERSION as u64)
        .str("sweep", sweep)
        .str("cell", cell)
        .str("bench", job.bench)
        .str("strategy", job.heuristic.label())
        .raw("params", &job.params_json())
        .raw("partition", &out.partition.to_json())
        .raw("sim", &out.sim.to_json());
    o.finish()
}

/// One finished sweep: the rendered report and the number of cells run.
#[derive(Debug)]
pub struct SweepReport {
    /// Sweep name (also the artifact sub-directory).
    pub name: &'static str,
    /// The rendered tables (what the former dedicated binary printed).
    pub text: String,
    /// Number of cells simulated.
    pub cells: usize,
    /// Cell ids in grid order — what the run ledger records one `cell`
    /// event (and one artifact path) per.
    pub cell_ids: Vec<String>,
}

/// Cell ids in grid order, for [`SweepReport::cell_ids`].
fn cell_ids(results: &[(String, CellJob, CellOutput)]) -> Vec<String> {
    results.iter().map(|(id, _, _)| id.clone()).collect()
}

/// Runs a sweep with `jobs` worker threads, writing artifacts under
/// `out_root` (one directory per sweep).
///
/// `obs` receives live scheduler telemetry (cells queued / started /
/// finished, context-cache warm hits, per-worker busy tallies) and the
/// per-result heartbeat; pass [`SweepObserver::silent`] when telemetry
/// is not wanted. Artifacts and the report are byte-identical either
/// way.
pub fn run_sweep(
    spec: SweepSpec,
    jobs: usize,
    out_root: &Path,
    obs: &SweepObserver,
) -> Result<SweepReport, BenchError> {
    match spec {
        SweepSpec::Figure5 => figure5(jobs, out_root, obs),
        SweepSpec::Table1 => table1(jobs, out_root, obs),
        SweepSpec::Targets => targets(jobs, out_root, obs),
        SweepSpec::Thresholds => thresholds(jobs, out_root, obs),
        SweepSpec::Pus => pus(jobs, out_root, obs),
        SweepSpec::Forwarding => forwarding(jobs, out_root, obs),
        SweepSpec::Predication => predication(jobs, out_root, obs),
        SweepSpec::Hardware => hardware(jobs, out_root, obs),
    }
}

/// One unit of sweep work: warming a shared analysis context, or
/// running a group of grid cells against it.
enum SweepWork {
    /// Stage 1 — build + analyse one distinct pre-selection program.
    Warm(usize),
    /// Stage 2 — simulate a group of grid cells (indices into the
    /// grid) sharing one [`CellJob::batch_key`] over one decoded image.
    Group(Vec<usize>),
}

/// Runs a grid of named cells in parallel and writes the artifacts (one
/// JSON file per cell) serially, in grid order.
///
/// When the observer carries a [`crate::cache::CellCache`], every cell
/// is first probed by content key on the coordinating thread: hits skip
/// simulation entirely (counted as started+finished so progress and
/// ledger totals stay truthful), and only the misses are scheduled —
/// then stored back, so an identical resubmission runs zero cells.
/// Cached and computed outputs are field-identical, so artifacts stay
/// byte-identical either way (pinned by `tests/service.rs`).
///
/// Cells with equal `(bench, if_convert_arms)` share one lazily-warmed
/// [`ProgramContext`], so each program's CFG analyses are computed once
/// per sweep. Scheduling is a two-stage pipeline over one work list:
/// the warm-up items (only for programs with at least one cache miss)
/// go first, then the miss cells, and workers drain the list in order —
/// contexts are still being built while cells over the first finished
/// ones already simulate. A cell never waits on stage 1: if its context
/// has not been warmed yet it computes the analyses itself through the
/// same once-only slots.
#[allow(clippy::type_complexity)]
fn run_cells(
    sweep: &'static str,
    jobs: usize,
    grid: Vec<(String, CellJob)>,
    out_root: &Path,
    obs: &SweepObserver,
) -> Result<Vec<(String, CellJob, CellOutput)>, BenchError> {
    obs.sink.add_queued(grid.len() as u64);
    // Stage 0 — probe the content-addressed cache (coordinator only;
    // keying builds each distinct program once, memoized in the cache).
    let mut cached: Vec<Option<CellOutput>> = Vec::with_capacity(grid.len());
    let mut cell_keys: Vec<Option<String>> = Vec::with_capacity(grid.len());
    for (_, job) in &grid {
        let (key, hit) = match obs.cache {
            Some(cache) => {
                let key = cache.key_for(job);
                let hit = cache.lookup(&key);
                (Some(key), hit)
            }
            None => (None, None),
        };
        match &hit {
            Some(_) => {
                obs.sink.cell_started();
                obs.sink.cache_hit();
                obs.sink.cell_finished();
                (obs.on_tick)();
            }
            None if obs.cache.is_some() => obs.sink.cache_miss(),
            None => {}
        }
        cell_keys.push(key);
        cached.push(hit);
    }
    let was_hit: Vec<bool> = cached.iter().map(Option::is_some).collect();
    let misses: Vec<usize> = (0..grid.len()).filter(|&i| cached[i].is_none()).collect();
    // One context key per distinct pre-selection program that still has
    // work, in grid order.
    let mut keys: Vec<(&'static str, Option<usize>)> = Vec::new();
    for &i in &misses {
        let job = &grid[i].1;
        let key = (job.bench, job.if_convert_arms);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    // Dependence analyses are only consulted by untransformed dd/ts
    // cells; warming them for cf/bb-only programs would be wasted work
    // (ts cells re-derive a transformed program, so they are excluded).
    let deep: Vec<bool> = keys
        .iter()
        .map(|&key| {
            misses.iter().map(|&i| &grid[i].1).any(|j| {
                (j.bench, j.if_convert_arms) == key
                    && j.ts_thresh.is_none()
                    && matches!(j.heuristic, Heuristic::DataDependence)
            })
        })
        .collect();
    let pool: Vec<OnceLock<ProgramContext>> = keys.iter().map(|_| OnceLock::new()).collect();
    let ctx_of = |i: usize| {
        pool[i].get_or_init(|| {
            let (bench, arms) = keys[i];
            let probe =
                CellJob { if_convert_arms: arms, ..CellJob::new(bench, Heuristic::BasicBlock) };
            let ctx = probe.context();
            ctx.warm(deep[i]);
            ctx
        })
    };
    // Group the misses: cells sharing one batch key (same selection,
    // partition and trace; only the machine configuration differs)
    // become one work item over one decoded image.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in &misses {
        let key = grid[i].1.batch_key();
        match groups.iter_mut().find(|g| grid[g[0]].1.batch_key() == key) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    let work: Vec<SweepWork> = (0..keys.len())
        .map(SweepWork::Warm)
        .chain(groups.iter().cloned().map(SweepWork::Group))
        .collect();
    let outputs = run_parallel_observed(
        jobs,
        work,
        |w, _| match w {
            SweepWork::Warm(i) => {
                ctx_of(*i);
                None
            }
            SweepWork::Group(cells) => {
                let jobs: Vec<&CellJob> = cells.iter().map(|&i| &grid[i].1).collect();
                let key = (jobs[0].bench, jobs[0].if_convert_arms);
                let ki = keys.iter().position(|&k| k == key).expect("cell key is in the pool");
                // The pipeline's payoff, counted: did stage 1 (or an
                // earlier group) already warm this program's context?
                let warmed = pool[ki].get().is_some();
                for _ in cells {
                    obs.sink.cell_started();
                    if warmed {
                        obs.sink.warm_hit();
                    }
                }
                let ctx = ctx_of(ki);
                let outs = CellJob::run_group(&jobs, ctx);
                for _ in cells {
                    obs.sink.cell_finished();
                }
                Some(outs)
            }
        },
        obs.sink,
        obs.on_tick,
    );
    // Merge computed outputs back into grid order and fill the cache.
    // Work items after the warm-ups are the groups, in formation
    // order — zipping each group's index list against its output
    // vector restores every cell's slot.
    for (g, out) in groups.iter().zip(outputs.into_iter().skip(keys.len())) {
        let outs = out.expect("group work items carry outputs");
        debug_assert_eq!(g.len(), outs.len());
        for (&i, out) in g.iter().zip(outs) {
            if let (Some(cache), Some(key)) = (obs.cache, &cell_keys[i]) {
                cache.store(key, &out)?;
            }
            cached[i] = Some(out);
        }
    }
    let dir = out_root.join(sweep);
    fs::create_dir_all(&dir)?;
    let mut results = Vec::with_capacity(grid.len());
    for (((id, job), out), hit) in grid.into_iter().zip(cached).zip(was_hit) {
        let out = out.expect("every grid slot is filled by probe or compute");
        let json = cell_json(sweep, &id, &job, &out);
        fs::write(dir.join(format!("{id}.json")), format!("{json}\n"))?;
        (obs.on_cell)(&crate::api::CellResult {
            sweep: sweep.to_string(),
            cell: id.clone(),
            cached: hit,
            artifact: json,
        });
        results.push((id, job, out));
    }
    Ok(results)
}

/// Writes the rendered report next to the cell artifacts.
fn write_report(out_root: &Path, report: &SweepReport) -> Result<(), BenchError> {
    let dir = out_root.join(report.name);
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("report.md"), &report.text)?;
    Ok(())
}

/// Looks a cell's output up by id (grid construction and rendering use
/// the same id scheme).
fn get<'a>(results: &'a [(String, CellJob, CellOutput)], id: &str) -> &'a CellOutput {
    &results
        .iter()
        .find(|(rid, _, _)| rid == id)
        .unwrap_or_else(|| panic!("cell `{id}` missing from grid"))
        .2
}

/// The paper applies the task-size bar only to the two responders.
fn responds_to_task_size(name: &str) -> bool {
    matches!(name, "compress" | "fpppp")
}

// ---------------------------------------------------------------- sweeps

fn figure5(jobs: usize, out_root: &Path, obs: &SweepObserver) -> Result<SweepReport, BenchError> {
    use std::fmt::Write as _;
    let mut grid = Vec::new();
    for in_order in [false, true] {
        for pus in [4usize, 8] {
            for w in integer_suite().iter().chain(fp_suite().iter()) {
                let mut heuristics =
                    vec![Heuristic::BasicBlock, Heuristic::ControlFlow, Heuristic::DataDependence];
                if responds_to_task_size(w.name) {
                    heuristics.push(Heuristic::TaskSize);
                }
                for h in heuristics {
                    let id = format!(
                        "{}-{}-{}pu-{}",
                        w.name,
                        h.label(),
                        pus,
                        if in_order { "io" } else { "ooo" }
                    );
                    let job = CellJob {
                        pus,
                        in_order,
                        insts: DEFAULT_TRACE_INSTS,
                        ..CellJob::new(w.name, h)
                    };
                    grid.push((id, job));
                }
            }
        }
    }
    let cells = grid.len();
    let results = run_cells("figure5", jobs, grid, out_root, obs)?;

    let mut text = String::new();
    writeln!(text, "Figure 5 — impact of the compiler heuristics on the SPEC95-shaped suite")
        .unwrap();
    writeln!(text, "(paper shape: heuristics beat bb tasks by 19-38% int / 21-52% fp on 4 PUs,")
        .unwrap();
    writeln!(
        text,
        " 25-39% int / 25-53% fp on 8 PUs; dd adds <1-15% over cf; in-order gains more)"
    )
    .unwrap();
    for in_order in [false, true] {
        for pus in [4usize, 8] {
            for (title, suite) in [("integer", integer_suite()), ("floating point", fp_suite())] {
                writeln!(
                    text,
                    "\n── Figure 5{}: {title}, {pus} PUs, {} PUs ──",
                    if pus == 4 { "(a)" } else { "(b)" },
                    if in_order { "in-order" } else { "out-of-order" }
                )
                .unwrap();
                writeln!(
                    text,
                    "{:<10} {:>7} {:>7} {:>7} {:>7}   {:>8} {:>8} {:>8}",
                    "bench", "bb", "cf", "dd", "ts", "cf/bb", "dd/bb", "ts/bb"
                )
                .unwrap();
                let mut improvements: Vec<f64> = Vec::new();
                for w in &suite {
                    let suffix = format!("{}pu-{}", pus, if in_order { "io" } else { "ooo" });
                    let ipc = |h: Heuristic| {
                        get(&results, &format!("{}-{}-{}", w.name, h.label(), suffix)).sim.ipc()
                    };
                    let bb = ipc(Heuristic::BasicBlock);
                    let cf = ipc(Heuristic::ControlFlow);
                    let dd = ipc(Heuristic::DataDependence);
                    let ts = responds_to_task_size(w.name).then(|| ipc(Heuristic::TaskSize));
                    let best = ts.unwrap_or(dd).max(dd).max(cf);
                    improvements.push(100.0 * (best - bb) / bb);
                    writeln!(
                        text,
                        "{:<10} {:>7.3} {:>7.3} {:>7.3} {:>7}   {:>8} {:>8} {:>8}",
                        w.name,
                        bb,
                        cf,
                        dd,
                        ts.map_or("-".into(), |v| format!("{v:.3}")),
                        pct_change(bb, cf),
                        pct_change(bb, dd),
                        ts.map_or("-".into(), |v| pct_change(bb, v)),
                    )
                    .unwrap();
                }
                let lo = improvements.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = improvements.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                writeln!(
                    text,
                    "best-heuristic improvement over basic block tasks: {lo:.0}%..{hi:.0}%"
                )
                .unwrap();
            }
        }
    }
    let report = SweepReport { name: "figure5", text, cells, cell_ids: cell_ids(&results) };
    write_report(out_root, &report)?;
    Ok(report)
}

fn table1(jobs: usize, out_root: &Path, obs: &SweepObserver) -> Result<SweepReport, BenchError> {
    use std::fmt::Write as _;
    let mut grid = Vec::new();
    for w in ms_workloads::suite() {
        for h in [Heuristic::BasicBlock, Heuristic::ControlFlow, Heuristic::DataDependence] {
            let id = format!("{}-{}", w.name, h.label());
            let job = CellJob { pus: 8, insts: DEFAULT_TRACE_INSTS, ..CellJob::new(w.name, h) };
            grid.push((id, job));
        }
    }
    let cells = grid.len();
    let results = run_cells("table1", jobs, grid, out_root, obs)?;

    let mut text = String::new();
    writeln!(
        text,
        "Table 1 — dynamic task size, control flow misspeculation and window span (8 PUs)"
    )
    .unwrap();
    writeln!(
        text,
        "{:<10} | {:>6} {:>6} {:>6} | {:>5} {:>6} {:>6} {:>6} | {:>5} {:>6} {:>6} {:>6} {:>6}",
        "", "Basic", "Block", "", "Control", "Flow", "", "", "Data", "Dep.", "", "", ""
    )
    .unwrap();
    writeln!(
        text,
        "{:<10} | {:>6} {:>6} {:>6} | {:>5} {:>6} {:>6} {:>6} | {:>5} {:>6} {:>6} {:>6} {:>6}",
        "bench",
        "#dyn",
        "task%",
        "wspan",
        "#ct",
        "#dyn",
        "task%",
        "br%",
        "#ct",
        "#dyn",
        "task%",
        "br%",
        "wspan"
    )
    .unwrap();
    for w in ms_workloads::suite() {
        let s = |h: Heuristic| &get(&results, &format!("{}-{}", w.name, h.label())).sim;
        let (bb, cf, dd) =
            (s(Heuristic::BasicBlock), s(Heuristic::ControlFlow), s(Heuristic::DataDependence));
        let ct = |s: &SimStats| s.ct_insts as f64 / s.num_dyn_tasks.max(1) as f64;
        writeln!(
            text,
            "{:<10} | {:>6.1} {:>6.2} {:>6.0} | {:>5.1} {:>6.1} {:>6.2} {:>6.2} | {:>5.1} {:>6.1} {:>6.2} {:>6.2} {:>6.0}",
            w.name,
            bb.avg_task_size(),
            bb.task_mispred_pct(),
            bb.window_span_formula(),
            ct(cf),
            cf.avg_task_size(),
            cf.task_mispred_pct(),
            cf.br_mispred_pct_normalized(),
            ct(dd),
            dd.avg_task_size(),
            dd.task_mispred_pct(),
            dd.br_mispred_pct_normalized(),
            dd.window_span_formula(),
        )
        .unwrap();
    }
    writeln!(text, "\n(paper shape: bb tasks < 10 insts for integer, > 20 for fp except hydro2d;")
        .unwrap();
    writeln!(text, " heuristic tasks several times larger; window spans 45-140 int, 250-800 fp;")
        .unwrap();
    writeln!(text, " br%-normalised misprediction well below task%)").unwrap();
    let report = SweepReport { name: "table1", text, cells, cell_ids: cell_ids(&results) };
    write_report(out_root, &report)?;
    Ok(report)
}

fn targets(jobs: usize, out_root: &Path, obs: &SweepObserver) -> Result<SweepReport, BenchError> {
    use std::fmt::Write as _;
    let benches = ["go", "m88ksim", "perl", "hydro2d", "applu"];
    let ns = [2usize, 4, 6, 8];
    let mut grid = Vec::new();
    for name in benches {
        for n in ns {
            let id = format!("{name}-n{n}");
            let job = CellJob { targets: n, ..CellJob::new(name, Heuristic::ControlFlow) };
            grid.push((id, job));
        }
    }
    let cells = grid.len();
    let results = run_cells("targets", jobs, grid, out_root, obs)?;

    let mut text = String::new();
    writeln!(text, "Ablation: control-flow heuristic target limit N (4 PUs, out-of-order)")
        .unwrap();
    writeln!(text, "{:<10} {:>8} {:>8} {:>8} {:>8}", "bench", "N=2", "N=4", "N=6", "N=8").unwrap();
    for name in benches {
        let mut row = format!("{name:<10}");
        for n in ns {
            row.push_str(&format!(" {:>8.3}", get(&results, &format!("{name}-n{n}")).sim.ipc()));
        }
        writeln!(text, "{row}").unwrap();
    }
    writeln!(text, "\n(the hardware tracks 2-bit target numbers: tasks grown with N > 4 expose")
        .unwrap();
    writeln!(text, " targets the predictor cannot represent, so accuracy — and IPC — degrade)")
        .unwrap();
    let report = SweepReport { name: "targets", text, cells, cell_ids: cell_ids(&results) };
    write_report(out_root, &report)?;
    Ok(report)
}

fn thresholds(
    jobs: usize,
    out_root: &Path,
    obs: &SweepObserver,
) -> Result<SweepReport, BenchError> {
    use std::fmt::Write as _;
    let benches = ["compress", "fpppp"];
    let threshes = [10.0f64, 30.0, 60.0, 120.0];
    let mut grid = Vec::new();
    for name in benches {
        grid.push((
            format!("{name}-off"),
            CellJob { pus: 8, ..CellJob::new(name, Heuristic::DataDependence) },
        ));
        for t in threshes {
            grid.push((
                format!("{name}-t{t:.0}"),
                CellJob { pus: 8, ts_thresh: Some(t), ..CellJob::new(name, Heuristic::TaskSize) },
            ));
        }
    }
    let cells = grid.len();
    let results = run_cells("thresholds", jobs, grid, out_root, obs)?;

    let mut text = String::new();
    writeln!(text, "Ablation: CALL_THRESH / LOOP_THRESH sweep (dd tasks + task size, 8 PUs)")
        .unwrap();
    writeln!(
        text,
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "bench", "off", "thresh=10", "thresh=30", "thresh=60", "thresh=120"
    )
    .unwrap();
    for name in benches {
        let mut row = format!("{name:<10}");
        let off = &get(&results, &format!("{name}-off")).sim;
        row.push_str(&format!(" {:>7.3}/{:>5.1}", off.ipc(), off.avg_task_size()));
        for t in threshes {
            let s = &get(&results, &format!("{name}-t{t:.0}")).sim;
            row.push_str(&format!(" {:>7.3}/{:>5.1}", s.ipc(), s.avg_task_size()));
        }
        writeln!(text, "{row}").unwrap();
    }
    writeln!(text, "\n(cells are IPC / mean dynamic task size; the paper picked 30 so that the")
        .unwrap();
    writeln!(text, " ~2-cycle task overheads stay near 6% of task execution time)").unwrap();
    let report = SweepReport { name: "thresholds", text, cells, cell_ids: cell_ids(&results) };
    write_report(out_root, &report)?;
    Ok(report)
}

fn pus(jobs: usize, out_root: &Path, obs: &SweepObserver) -> Result<SweepReport, BenchError> {
    use std::fmt::Write as _;
    let benches = ["m88ksim", "perl", "tomcatv", "applu", "wave5"];
    let counts = [1usize, 2, 4, 8, 16];
    let mut grid = Vec::new();
    for name in benches {
        for p in counts {
            grid.push((
                format!("{name}-{p}pu"),
                CellJob { pus: p, ..CellJob::new(name, Heuristic::DataDependence) },
            ));
        }
    }
    let cells = grid.len();
    let results = run_cells("pus", jobs, grid, out_root, obs)?;

    let mut text = String::new();
    writeln!(text, "Ablation: PU count sweep (data dependence tasks, out-of-order)").unwrap();
    writeln!(
        text,
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}   speedup@8",
        "bench", "1 PU", "2 PU", "4 PU", "8 PU", "16 PU"
    )
    .unwrap();
    for name in benches {
        let mut row = format!("{name:<10}");
        let ipc_at = |p: usize| get(&results, &format!("{name}-{p}pu")).sim.ipc();
        for p in counts {
            row.push_str(&format!(" {:>8.3}", ipc_at(p)));
        }
        writeln!(text, "{row}   {:.2}x", ipc_at(8) / ipc_at(1).max(1e-9)).unwrap();
    }
    let report = SweepReport { name: "pus", text, cells, cell_ids: cell_ids(&results) };
    write_report(out_root, &report)?;
    Ok(report)
}

fn forwarding(
    jobs: usize,
    out_root: &Path,
    obs: &SweepObserver,
) -> Result<SweepReport, BenchError> {
    use std::fmt::Write as _;
    let benches = ["m88ksim", "perl", "tomcatv", "applu", "wave5", "go"];
    let mut grid = Vec::new();
    for name in benches {
        grid.push((
            format!("{name}-dead"),
            CellJob { pus: 8, ..CellJob::new(name, Heuristic::DataDependence) },
        ));
        grid.push((
            format!("{name}-naive"),
            CellJob { pus: 8, dead_reg: false, ..CellJob::new(name, Heuristic::DataDependence) },
        ));
    }
    let cells = grid.len();
    let results = run_cells("forwarding", jobs, grid, out_root, obs)?;

    let mut text = String::new();
    writeln!(text, "Ablation: dead register analysis for ring forwards (dd tasks, 8 PUs)").unwrap();
    writeln!(
        text,
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>9}",
        "bench", "IPC dead", "IPC naive", "fwd/task d", "fwd/task n", "IPC gain"
    )
    .unwrap();
    for name in benches {
        let dead = &get(&results, &format!("{name}-dead")).sim;
        let naive = &get(&results, &format!("{name}-naive")).sim;
        writeln!(
            text,
            "{:<10} {:>10.3} {:>10.3} {:>12.1} {:>12.1} {:>8.1}%",
            name,
            dead.ipc(),
            naive.ipc(),
            dead.forwards_per_task(),
            naive.forwards_per_task(),
            100.0 * (dead.ipc() - naive.ipc()) / naive.ipc(),
        )
        .unwrap();
    }
    writeln!(text, "\n(dead register analysis must never forward MORE values than naive").unwrap();
    writeln!(text, " forwarding; the IPC gain comes from freed ring bandwidth)").unwrap();
    let report = SweepReport { name: "forwarding", text, cells, cell_ids: cell_ids(&results) };
    write_report(out_root, &report)?;
    Ok(report)
}

fn predication(
    jobs: usize,
    out_root: &Path,
    obs: &SweepObserver,
) -> Result<SweepReport, BenchError> {
    use std::fmt::Write as _;
    let benches = ["go", "gcc", "li", "perl", "vortex", "hydro2d"];
    let variants: [(&str, Option<usize>); 3] =
        [("plain", None), ("arms4", Some(4)), ("arms8", Some(8))];
    let mut grid = Vec::new();
    for name in benches {
        for (tag, arms) in variants {
            grid.push((
                format!("{name}-{tag}"),
                CellJob { if_convert_arms: arms, ..CellJob::new(name, Heuristic::ControlFlow) },
            ));
        }
    }
    let cells = grid.len();
    let results = run_cells("predication", jobs, grid, out_root, obs)?;

    let mut text = String::new();
    writeln!(text, "Ablation: if-conversion before task selection (cf tasks, 4 PUs)").unwrap();
    writeln!(
        text,
        "{:<10} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "bench", "plain", "arms<=4", "arms<=8", "mis plain", "mis <=4", "mis <=8"
    )
    .unwrap();
    for name in benches {
        let s = |tag: &str| &get(&results, &format!("{name}-{tag}")).sim;
        let (plain, c4, c8) = (s("plain"), s("arms4"), s("arms8"));
        writeln!(
            text,
            "{:<10} {:>9.3} {:>9.3} {:>9.3} | {:>8.2}% {:>8.2}% {:>8.2}%",
            name,
            plain.ipc(),
            c4.ipc(),
            c8.ipc(),
            plain.task_mispred_pct(),
            c4.task_mispred_pct(),
            c8.task_mispred_pct(),
        )
        .unwrap();
    }
    writeln!(text, "\n(predication executes both arms — it pays off where diamonds are small")
        .unwrap();
    writeln!(text, " and unpredictable, and costs instructions where they were predictable)")
        .unwrap();
    let report = SweepReport { name: "predication", text, cells, cell_ids: cell_ids(&results) };
    write_report(out_root, &report)?;
    Ok(report)
}

fn hardware(jobs: usize, out_root: &Path, obs: &SweepObserver) -> Result<SweepReport, BenchError> {
    use std::fmt::Write as _;
    let bw_benches = ["m88ksim", "go", "applu", "wave5"];
    let bws = [1u32, 2, 4, 8];
    let arb_benches = ["fpppp", "tomcatv", "compress"];
    let arbs = [8u32, 16, 32, 64];
    let sync_benches = ["compress", "go", "li"];
    let syncs = [0u32, 16, 256];

    let mut grid = Vec::new();
    for name in bw_benches {
        for bw in bws {
            grid.push((
                format!("{name}-bw{bw}"),
                CellJob {
                    pus: 8,
                    ring_bandwidth: Some(bw),
                    ..CellJob::new(name, Heuristic::DataDependence)
                },
            ));
        }
    }
    for name in arb_benches {
        for entries in arbs {
            grid.push((
                format!("{name}-arb{entries}"),
                CellJob {
                    pus: 8,
                    arb_entries_per_pu: Some(entries),
                    ..CellJob::new(name, Heuristic::DataDependence)
                },
            ));
        }
    }
    for name in sync_benches {
        for entries in syncs {
            grid.push((
                format!("{name}-sync{entries}"),
                CellJob {
                    pus: 8,
                    sync_table_entries: Some(entries),
                    ..CellJob::new(name, Heuristic::DataDependence)
                },
            ));
        }
    }
    let cells = grid.len();
    let results = run_cells("hardware", jobs, grid, out_root, obs)?;

    let mut text = String::new();
    writeln!(text, "Ablation: ring bandwidth (values/cycle/link, paper: 2), 8 PUs, IPC").unwrap();
    writeln!(text, "{:<10} {:>8} {:>8} {:>8} {:>8}", "bench", "bw=1", "bw=2", "bw=4", "bw=8")
        .unwrap();
    for name in bw_benches {
        let mut row = format!("{name:<10}");
        for bw in bws {
            row.push_str(&format!(" {:>8.3}", get(&results, &format!("{name}-bw{bw}")).sim.ipc()));
        }
        writeln!(text, "{row}").unwrap();
    }

    writeln!(text, "\nAblation: ARB entries per PU (paper: 32), 8 PUs, IPC / overflows").unwrap();
    writeln!(
        text,
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "bench", "arb=8", "arb=16", "arb=32", "arb=64"
    )
    .unwrap();
    for name in arb_benches {
        let mut row = format!("{name:<10}");
        for entries in arbs {
            let s = &get(&results, &format!("{name}-arb{entries}")).sim;
            row.push_str(&format!(" {:>7.3}/{:<4}", s.ipc(), s.arb_overflows));
        }
        writeln!(text, "{row}").unwrap();
    }

    writeln!(text, "\nAblation: memory dependence synchronisation table (paper: 256 entries)")
        .unwrap();
    writeln!(text, "{:<10} {:>14} {:>14} {:>14}", "bench", "off", "16 entries", "256 entries")
        .unwrap();
    for name in sync_benches {
        let mut row = format!("{name:<10}");
        for entries in syncs {
            let s = &get(&results, &format!("{name}-sync{entries}")).sim;
            row.push_str(&format!(" {:>7.3}v{:<6}", s.ipc(), s.violations));
        }
        writeln!(text, "{row}").unwrap();
    }
    writeln!(text, "\n(cells are IPC / ARB overflows or IPC v violations; without the sync")
        .unwrap();
    writeln!(text, " table conflicting loads squash repeatedly, as Moshovos et al. showed)")
        .unwrap();
    let report = SweepReport { name: "hardware", text, cells, cell_ids: cell_ids(&results) };
    write_report(out_root, &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_spec_round_trips_every_name() {
        for (spec, name) in SweepSpec::ALL.into_iter().zip(SWEEP_NAMES) {
            assert_eq!(spec.name(), name, "SWEEP_NAMES out of sync with SweepSpec::ALL");
            assert_eq!(SweepSpec::parse(name).unwrap(), spec);
            assert_eq!(spec.schema_version(), SCHEMA_VERSION);
            assert!(!spec.describe().is_empty());
        }
    }

    #[test]
    fn unknown_sweep_suggests_nearest_name() {
        match SweepSpec::parse("figur5") {
            Err(BenchError::UnknownSweep { name, suggestion }) => {
                assert_eq!(name, "figur5");
                assert_eq!(suggestion, Some("figure5"));
            }
            other => panic!("expected UnknownSweep, got {other:?}"),
        }
        match SweepSpec::parse("qqqqqqqqqqqq") {
            Err(BenchError::UnknownSweep { suggestion, .. }) => assert_eq!(suggestion, None),
            other => panic!("expected UnknownSweep, got {other:?}"),
        }
    }

    /// Every (benchmark, heuristic, threshold) shape the grids use, run
    /// against one shared warmed context per benchmark — as a sweep
    /// runs them — must give JSON byte-identical to a standalone run:
    /// the context may only serve values a fresh computation would also
    /// have produced.
    #[test]
    fn shared_context_groups_match_standalone_runs() {
        for bench in ["compress", "li", "tomcatv"] {
            let ctx = CellJob::new(bench, Heuristic::BasicBlock).context();
            ctx.warm(true);
            let jobs = [
                CellJob { insts: 4_000, ..CellJob::new(bench, Heuristic::BasicBlock) },
                CellJob { insts: 4_000, ..CellJob::new(bench, Heuristic::ControlFlow) },
                CellJob { insts: 4_000, ..CellJob::new(bench, Heuristic::DataDependence) },
                CellJob {
                    insts: 4_000,
                    ts_thresh: Some(12.0),
                    ..CellJob::new(bench, Heuristic::DataDependence)
                },
            ];
            for (i, job) in jobs.iter().enumerate() {
                let shared = CellJob::run_group(&[job], &ctx).pop().unwrap();
                assert_eq!(
                    cell_json("equiv", "cell", job, &shared),
                    cell_json("equiv", "cell", job, &job.run()),
                    "{bench} cell {i}: shared-context run diverged from standalone run"
                );
            }
            assert!(ctx.cache_stats().hits > 0, "{bench}: shared context was never hit");
        }
    }

    /// Runs `grid` through the sweep scheduler (cells grouped by batch
    /// key, two workers) and checks every cell's artifact against the
    /// same cell run alone through [`CellJob::run`]. Returns the grouped
    /// outputs in grid order.
    fn assert_grouped_cells_match_cells_run_alone(
        sweep: &'static str,
        grid: Vec<(String, CellJob)>,
    ) -> Vec<CellOutput> {
        let root = std::env::temp_dir().join(format!("ms-bench-{sweep}-{}", std::process::id()));
        let results =
            run_cells(sweep, 2, grid, &root, &SweepObserver::silent()).expect("grid runs");
        std::fs::remove_dir_all(&root).ok();
        results
            .into_iter()
            .map(|(id, job, grouped)| {
                assert_eq!(
                    cell_json(sweep, &id, &job, &grouped),
                    cell_json(sweep, &id, &job, &job.run()),
                    "{id}: grouped cell diverged from the cell run alone"
                );
                grouped
            })
            .collect()
    }

    /// The Figure 5 shape: each (benchmark, heuristic) partition on four
    /// machines (4/8 PUs, out-of-order/in-order) forms one group over one
    /// decoded image, and no cell of a group may differ from its run
    /// alone.
    #[test]
    fn grouped_figure5_cells_match_cells_run_alone() {
        use Heuristic::{BasicBlock, ControlFlow, DataDependence, TaskSize};
        let mut grid = Vec::new();
        for (bench, heuristics) in [
            ("compress", &[BasicBlock, ControlFlow, DataDependence, TaskSize][..]),
            ("tomcatv", &[BasicBlock, ControlFlow, DataDependence][..]),
        ] {
            for &h in heuristics {
                for in_order in [false, true] {
                    for pus in [4usize, 8] {
                        let io = if in_order { "io" } else { "ooo" };
                        grid.push((
                            format!("{bench}-{}-{pus}pu-{io}", h.label()),
                            CellJob { pus, in_order, insts: 4_000, ..CellJob::new(bench, h) },
                        ));
                    }
                }
            }
        }
        assert_grouped_cells_match_cells_run_alone("unit-fig5", grid);
    }

    /// An if-converted cell builds a *different* program, so inside a
    /// sweep it must not share the unconverted benchmark's context or
    /// image: the predication shape (plain, arms<=4, arms<=8) on two
    /// machines each matches the cells run alone, and if-conversion
    /// changes the simulated outcome.
    #[test]
    fn if_converted_cells_use_their_own_context() {
        let mut grid = Vec::new();
        for (tag, arms) in [("plain", None), ("arms4", Some(4)), ("arms8", Some(8))] {
            for pus in [4usize, 8] {
                grid.push((
                    format!("perl-{tag}-{pus}pu"),
                    CellJob {
                        pus,
                        insts: 4_000,
                        if_convert_arms: arms,
                        ..CellJob::new("perl", Heuristic::ControlFlow)
                    },
                ));
            }
        }
        let outs = assert_grouped_cells_match_cells_run_alone("unit-pred", grid);
        assert_ne!(outs[0].sim, outs[4].sim, "if-conversion must change the simulated outcome");
    }

    #[test]
    fn cell_json_is_schema_versioned_and_complete() {
        let job = CellJob { insts: 3_000, ..CellJob::new("compress", Heuristic::ControlFlow) };
        let out = job.run();
        let j = cell_json("unit", "compress-cf", &job, &out);
        assert!(j.starts_with("{\"schema_version\":1,"));
        for key in [
            "\"sweep\":\"unit\"",
            "\"cell\":\"compress-cf\"",
            "\"bench\":\"compress\"",
            "\"strategy\":\"cf\"",
            "\"params\":{",
            "\"partition\":{",
            "\"sim\":{",
            "\"ctrl_squashes\":",
            "\"mem_squashes\":",
            "\"fwd_stall_cycles\":",
            "\"pu_idle_cycles\":",
            "\"task_size_hist\":[",
            "\"size_hist\":[",
        ] {
            assert!(j.contains(key), "cell JSON missing {key}: {j}");
        }
    }

    #[test]
    fn cell_jobs_are_deterministic() {
        let job = CellJob { insts: 2_000, ..CellJob::new("li", Heuristic::BasicBlock) };
        let a = job.run();
        let b = job.run();
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.partition, b.partition);
    }
}
