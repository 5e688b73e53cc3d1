//! The traced run: each workload reproduced in-process through the
//! public entry points of every layer, with a span around each call.
//!
//! Passes alternate between a disabled and an enabled [`Tracer`], so the
//! traced pass time can be set against the untraced one
//! (`tracing.overhead_frac`). Layer timings are self times per traced
//! pass; counts come from the values the layers return. Every pass must
//! produce the same outputs as the first.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ms_analysis::ProgramContext;
use ms_bench::cache::CellCache;
use ms_bench::harness::run_parallel;
use ms_bench::sweeps::{cell_json, CellJob, CellOutput};
use ms_conform::{diff, reference};
use ms_ir::gen::{GenParams, ProgSpec};
use ms_ir::{Program, SplitMix64};
use ms_sim::{BatchEngine, CheckSink, ProgramImage, SimConfig, SimStats, Simulator};
use ms_tasksel::{PartitionStats, Selection};
use ms_trace::{split_tasks, TraceGenerator};

use crate::grid;
use crate::spans::{self, Span, Tracer};

/// Fuzz cases per `conform` pass, as `run fuzz --seeds 1000` runs them.
pub const CONFORM_SEEDS: u64 = 1000;
/// Passes served from the cell cache after the Figure 5 passes.
const CACHE_PASSES: usize = 20;
/// Dynamic instructions per conformance run (`run fuzz`'s default).
const CONFORM_INSTS: usize = 4_000;
/// The salt `run fuzz` mixes into each seed before generating its
/// program, so the traced run checks the same programs.
const FUZZ_SALT: u64 = 0x5eed_f0dd_5eed_f0dd;

/// The workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5,
    LongTrace,
    Conform,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig5" => Some(Workload::Fig5),
            "long-trace" => Some(Workload::LongTrace),
            "conform" => Some(Workload::Conform),
            _ => None,
        }
    }
}

/// Deterministic work counts of one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    cells: u64,
    images: u64,
    cycles: u64,
    insts: u64,
    squashed_insts: u64,
    task_preds: u64,
    task_pred_hits: u64,
    ctrl_squashes: u64,
    mem_violations: u64,
    reg_forwards: u64,
    l1d_hits: u64,
    l1d_misses: u64,
    trace_insts: u64,
    dyn_tasks: u64,
    tasks: u64,
    blocks: u64,
    conform_errors: u64,
    ctx_hits: u64,
    ctx_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.cells += o.cells;
        self.images += o.images;
        self.cycles += o.cycles;
        self.insts += o.insts;
        self.squashed_insts += o.squashed_insts;
        self.task_preds += o.task_preds;
        self.task_pred_hits += o.task_pred_hits;
        self.ctrl_squashes += o.ctrl_squashes;
        self.mem_violations += o.mem_violations;
        self.reg_forwards += o.reg_forwards;
        self.l1d_hits += o.l1d_hits;
        self.l1d_misses += o.l1d_misses;
        self.trace_insts += o.trace_insts;
        self.dyn_tasks += o.dyn_tasks;
        self.tasks += o.tasks;
        self.blocks += o.blocks;
        self.conform_errors += o.conform_errors;
        self.ctx_hits += o.ctx_hits;
        self.ctx_misses += o.ctx_misses;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }

    /// Counts one simulated cell.
    fn sim(&mut self, s: &SimStats) {
        self.cells += 1;
        self.cycles += s.total_cycles;
        self.insts += s.total_insts;
        self.squashed_insts += s.squashed_insts;
        self.task_preds += s.task_preds;
        self.task_pred_hits += s.task_pred_hits;
        self.ctrl_squashes += s.ctrl_squashes;
        self.mem_violations += s.violations;
        self.reg_forwards += s.reg_forwards;
        self.l1d_hits += s.l1d.0;
        self.l1d_misses += s.l1d.1;
    }

    /// The counts that repeat exactly from pass to pass. Analysis cache
    /// hits are left out: two workers racing for one cold slot count
    /// neither a hit nor a miss for the loser.
    fn exact(&self) -> Counts {
        Counts { ctx_hits: 0, ctx_misses: 0, ..*self }
    }

    fn context(&mut self, ctx: &ProgramContext) {
        let c = ctx.cache_stats();
        self.ctx_hits += c.hits;
        self.ctx_misses += c.misses;
    }
}

fn blocks(p: &Program) -> u64 {
    p.func_ids().map(|f| p.function(f).num_blocks() as u64).sum()
}

/// What one pass produced: one output string per cell (compared across
/// passes), the cells that failed a check, and the work counts.
struct PassOut {
    outputs: Vec<String>,
    failed: u64,
    counts: Counts,
}

/// One workload's in-process reproduction.
pub struct Replay {
    workload: Workload,
    seed: u64,
    jobs: usize,
    work: PathBuf,
    grid: Vec<(String, CellJob)>,
    groups: Vec<Vec<usize>>,
}

impl Replay {
    pub fn new(workload: Workload, seed: u64, jobs: usize, work: &Path) -> Replay {
        let grid = match workload {
            Workload::Fig5 => grid::figure5(),
            Workload::LongTrace | Workload::Conform => Vec::new(),
        };
        let groups = grid::groups(&grid);
        Replay { workload, seed, jobs, work: work.to_path_buf(), grid, groups }
    }

    /// The artifact directory, which every pass overwrites (as the
    /// end-to-end passes do).
    fn artifact_dir(&self) -> PathBuf {
        let dir = self.work.join("out").join("figure5");
        fs::create_dir_all(&dir).expect("artifact directory is writable");
        dir
    }

    fn cache_dir(&self) -> PathBuf {
        self.work.join("cellcache")
    }

    /// Select, trace, split, decode and simulate one group of cells that
    /// share a selection and trace, one engine cell per configuration.
    fn run_group(
        &self,
        t: &Tracer,
        ctx: &ProgramContext,
        cells: &[&CellJob],
        counts: &mut Counts,
    ) -> (Selection, Vec<SimStats>) {
        let lead = cells[0];
        let sel = t.span("tasksel.select", || lead.heuristic.selector(lead.targets).select(ctx));
        let stats = {
            let trace = t.span("trace.generate", || {
                TraceGenerator::new(&sel.program, lead.seed).generate(lead.insts)
            });
            let tasks = t.span("trace.split", || split_tasks(&trace, &sel.program, &sel.partition));
            counts.trace_insts += trace.num_insts() as u64;
            counts.dyn_tasks += tasks.len() as u64;
            let image = t.span("sim.decode", || {
                ProgramImage::with_tasks(&sel.program, &sel.partition, &trace, tasks)
            });
            let configs: Vec<SimConfig> = cells.iter().map(|c| c.sim_config()).collect();
            t.span("sim.run", || BatchEngine::new(&image).run(&configs))
        };
        counts.images += 1;
        counts.tasks += sel.partition.num_tasks() as u64;
        for s in &stats {
            counts.sim(s);
        }
        (sel, stats)
    }

    /// The Figure 5 sweep as `run figure5` runs it: warm one analysis
    /// context per workload, simulate the groups on `jobs` workers, then
    /// write the artifacts (and, given a cache, store every cell).
    fn figure5_pass(&self, t: &Tracer, cache: Option<&CellCache>) -> PassOut {
        enum Work {
            Warm(usize),
            Group(usize),
        }
        let benches = grid::benches(&self.grid);
        let pool: Vec<OnceLock<ProgramContext>> = benches.iter().map(|_| OnceLock::new()).collect();
        let ctx_of = |b: usize| {
            pool[b].get_or_init(|| {
                let w = ms_workloads::by_name(benches[b]).expect("the grid names known workloads");
                let program = t.span("workloads.build", || w.build());
                t.span("analysis.context", || {
                    let ctx = ProgramContext::new(program);
                    ctx.warm(true);
                    ctx
                })
            })
        };
        let work: Vec<Work> = (0..benches.len())
            .map(Work::Warm)
            .chain((0..self.groups.len()).map(Work::Group))
            .collect();
        let results = run_parallel(self.jobs, work, |w, _| match *w {
            Work::Warm(b) => {
                t.item(None, || ctx_of(b));
                None
            }
            Work::Group(g) => {
                let cells = &self.groups[g];
                Some(t.item(Some(cells[0]), || {
                    let jobs: Vec<&CellJob> = cells.iter().map(|&i| &self.grid[i].1).collect();
                    let b =
                        benches.iter().position(|&n| n == jobs[0].bench).expect("bench is pooled");
                    let mut counts = Counts::default();
                    let (sel, stats) = self.run_group(t, ctx_of(b), &jobs, &mut counts);
                    let partition = t.span("tasksel.partition_stats", || {
                        let profile = sel.context().profile();
                        PartitionStats::compute(
                            &sel.program,
                            &sel.partition,
                            profile,
                            jobs[0].targets,
                        )
                    });
                    let outs: Vec<CellOutput> = stats
                        .into_iter()
                        .map(|sim| CellOutput { sim, partition: partition.clone() })
                        .collect();
                    (outs, counts)
                }))
            }
        });
        let mut counts = Counts::default();
        let mut outs: Vec<Option<CellOutput>> = self.grid.iter().map(|_| None).collect();
        for (g, r) in self.groups.iter().zip(results.into_iter().flatten()) {
            counts.add(&r.1);
            for (&i, out) in g.iter().zip(r.0) {
                outs[i] = Some(out);
            }
        }
        for ctx in pool.iter().filter_map(OnceLock::get) {
            counts.blocks += blocks(ctx.program());
            counts.context(ctx);
        }
        let dir = self.artifact_dir();
        let mut failed = 0;
        let mut outputs = Vec::with_capacity(self.grid.len());
        for (i, ((id, job), out)) in self.grid.iter().zip(outs).enumerate() {
            let out = out.expect("every grid cell belongs to a group");
            let json = t.item(Some(i), || {
                let json = t.span("bench.artifact", || {
                    let json = cell_json("figure5", id, job, &out);
                    fs::write(dir.join(format!("{id}.json")), format!("{json}\n")).map(|_| json)
                });
                if let (Some(cache), Ok(_)) = (cache, &json) {
                    let key = t.span("bench.cache.key", || cache.key_for(job));
                    if t.span("bench.cache.store", || cache.store(&key, &out)).is_err() {
                        failed += 1;
                    }
                }
                json
            });
            outputs.push(json.unwrap_or_else(|e| {
                failed += 1;
                format!("write failed: {e}")
            }));
        }
        PassOut { outputs, failed, counts }
    }

    /// The Figure 5 grid served from a filled cell cache, as
    /// `run figure5 --cache-dir` serves it: key, look up, re-render and
    /// write every cell.
    fn resubmit_pass(&self, t: &Tracer) -> PassOut {
        let cache = CellCache::at(self.cache_dir()).expect("cell cache directory is usable");
        let dir = self.artifact_dir();
        let mut failed = 0;
        let mut outputs = Vec::with_capacity(self.grid.len());
        for (i, (id, job)) in self.grid.iter().enumerate() {
            let json = t.item(Some(i), || {
                let key = t.span("bench.cache.key", || cache.key_for(job));
                let out = t.span("bench.cache.lookup", || cache.lookup(&key))?;
                t.span("bench.artifact", || {
                    let json = cell_json("figure5", id, job, &out);
                    fs::write(dir.join(format!("{id}.json")), format!("{json}\n"))
                        .ok()
                        .map(|_| json)
                })
            });
            outputs.push(json.unwrap_or_else(|| {
                failed += 1;
                format!("{id}: not served from the cache")
            }));
        }
        let counts = Counts {
            cells: self.grid.len() as u64,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            ..Counts::default()
        };
        PassOut { outputs, failed, counts }
    }

    /// The four long-trace cells, one at a time, as `run <bench>
    /// --strategy <p> --insts 2000000 --json` runs each.
    fn long_trace_pass(&self, t: &Tracer) -> PassOut {
        let mut counts = Counts::default();
        let mut outputs = Vec::new();
        for (i, &(bench, label)) in grid::LONG_TRACE.iter().enumerate() {
            let line = t.item(Some(i), || {
                let h = grid::heuristic(label).expect("long-trace policies are paper heuristics");
                let w = ms_workloads::by_name(bench).expect("long-trace workloads exist");
                let program = t.span("workloads.build", || w.build());
                counts.blocks += blocks(&program);
                let ctx = t.span("analysis.context", || {
                    let ctx = ProgramContext::new(program);
                    ctx.warm(grid::needs_deps(h));
                    ctx
                });
                let job = CellJob {
                    insts: grid::LONG_TRACE_INSTS,
                    seed: self.seed,
                    ..CellJob::new(w.name, h)
                };
                let (_, stats) = self.run_group(t, &ctx, &[&job], &mut counts);
                counts.context(&ctx);
                t.span("bench.artifact", || {
                    format!(
                        "{{\"bench\":\"{bench}\",\"strategy\":\"{label}\",\"stats\":{}}}",
                        stats[0].to_json()
                    )
                })
            });
            outputs.push(line);
        }
        PassOut { outputs, failed: 0, counts }
    }

    /// `run fuzz --seeds 1000 --jobs 1`: each seed's random program under
    /// every policy through the full conformance check, the check split
    /// into its reference model, checked run and diff.
    fn conform_pass(&self, t: &Tracer) -> PassOut {
        let policies = ms_conform::strategies();
        let mut counts = Counts::default();
        let mut failed = 0;
        let mut outputs = Vec::new();
        for i in 0..CONFORM_SEEDS {
            let seed = self.seed.wrapping_add(i);
            t.item(Some(i as usize), || {
                let spec = t.span("ir.gen", || {
                    let mut rng = SplitMix64::seed_from_u64(seed ^ FUZZ_SALT);
                    ProgSpec::random(
                        &mut rng,
                        &GenParams { max_blocks: 16, ..GenParams::default() },
                    )
                });
                for (label, selector) in &policies {
                    let program = t.span("ir.gen", || spec.build());
                    counts.blocks += blocks(&program);
                    let ctx = t.span("analysis.context", || {
                        let ctx = ProgramContext::new(program);
                        ctx.warm(!matches!(*label, "bb" | "cf"));
                        ctx
                    });
                    let sel = t.span("tasksel.select", || selector.select(&ctx));
                    let trace = t.span("trace.generate", || {
                        TraceGenerator::new(&sel.program, seed).generate(CONFORM_INSTS)
                    });
                    let oracle = t.span("conform.reference", || {
                        reference(&sel.program, &sel.partition, &trace)
                    });
                    let (stats, sink, mut errors) = t.span("conform.checked_run", || {
                        let mut sink = CheckSink::new();
                        let stats =
                            Simulator::new(SimConfig::four_pu(), &sel.program, &sel.partition)
                                .run_with_sink(&trace, &mut sink);
                        let errors = sink.finish(&stats);
                        (stats, sink, errors)
                    });
                    errors.extend(t.span("conform.diff", || diff(&oracle, &sink, &stats)));
                    counts.context(&ctx);
                    counts.sim(&stats);
                    counts.images += 1;
                    counts.tasks += sel.partition.num_tasks() as u64;
                    counts.trace_insts += trace.num_insts() as u64;
                    counts.dyn_tasks += stats.num_dyn_tasks as u64;
                    counts.conform_errors += errors.len() as u64;
                    if !errors.is_empty() {
                        failed += 1;
                    }
                    outputs.push(format!(
                        "{seed:#x}-{label}: {} {}",
                        errors.len(),
                        stats.to_json()
                    ));
                }
            });
        }
        PassOut { outputs, failed, counts }
    }

    fn pass(&self, t: &Tracer) -> PassOut {
        t.pass(|| match self.workload {
            Workload::Fig5 => self.figure5_pass(t, None),
            Workload::LongTrace => self.long_trace_pass(t),
            Workload::Conform => self.conform_pass(t),
        })
    }
}

/// The result of a traced run, rendered as the benchmark's result line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Timing metrics of one traced pass.
fn timings(spans: &[Span], jobs: usize, c: &Counts) -> BTreeMap<&'static str, f64> {
    let selfs = spans::self_times(spans);
    let ns = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
    let ms = |name: &str| ns(name) / 1e6;
    let pass_ns = spans::total_ns(spans, "bench.pass") as f64;
    let mut m = BTreeMap::new();
    m.insert("bench.pass_ms", pass_ns / 1e6);
    for (metric, span) in [
        ("workloads.build_ms", "workloads.build"),
        ("ir.gen_ms", "ir.gen"),
        ("analysis.context_ms", "analysis.context"),
        ("tasksel.select_ms", "tasksel.select"),
        ("tasksel.partition_stats_ms", "tasksel.partition_stats"),
        ("trace.generate_ms", "trace.generate"),
        ("trace.split_ms", "trace.split"),
        ("sim.decode_ms", "sim.decode"),
        ("sim.run_ms", "sim.run"),
        ("conform.reference_ms", "conform.reference"),
        ("conform.checked_run_ms", "conform.checked_run"),
        ("conform.diff_ms", "conform.diff"),
        ("bench.cache.key_ms", "bench.cache.key"),
        ("bench.cache.lookup_ms", "bench.cache.lookup"),
        ("bench.cache.store_ms", "bench.cache.store"),
        ("bench.artifact_ms", "bench.artifact"),
    ] {
        m.insert(metric, ms(span));
    }
    m.insert("bench.driver_ms", ms("bench.pass") + ms("bench.item"));
    m.insert(
        "bench.workers.busy_frac",
        ratio(spans::total_ns(spans, "bench.item") as f64, jobs as f64 * pass_ns),
    );
    m.insert("sim.run_ns_per_inst", ratio(ns("sim.run"), c.insts as f64));
    m.insert("sim.run_ns_per_cycle", ratio(ns("sim.run"), c.cycles as f64));
    m.insert("sim.decode_ns_per_inst", ratio(ns("sim.decode"), c.trace_insts as f64));
    m.insert("trace.generate_ns_per_inst", ratio(ns("trace.generate"), c.trace_insts as f64));
    m
}

/// The unit of each reported metric, in report order.
pub const UNITS: [(&str, &str); 43] = [
    ("sim.run_ms", "ms"),
    ("sim.run_ns_per_inst", "ns/inst"),
    ("sim.run_ns_per_cycle", "ns/cycle"),
    ("sim.decode_ms", "ms"),
    ("sim.decode_ns_per_inst", "ns/inst"),
    ("trace.generate_ms", "ms"),
    ("trace.generate_ns_per_inst", "ns/inst"),
    ("trace.split_ms", "ms"),
    ("sim.images", "count"),
    ("sim.cells_per_image", "cells/image"),
    ("bench.workers.busy_frac", "frac"),
    ("bench.driver_ms", "ms"),
    ("bench.pass_ms", "ms"),
    ("conform.checked_run_ms", "ms"),
    ("conform.reference_ms", "ms"),
    ("conform.diff_ms", "ms"),
    ("analysis.context_ms", "ms"),
    ("analysis.ctx_hit_frac", "frac"),
    ("tasksel.select_ms", "ms"),
    ("tasksel.partition_stats_ms", "ms"),
    ("ir.gen_ms", "ms"),
    ("bench.cache.key_ms", "ms"),
    ("bench.cache.lookup_ms", "ms"),
    ("bench.cache.store_ms", "ms"),
    ("bench.artifact_ms", "ms"),
    ("bench.cache.hit_frac", "frac"),
    ("workloads.build_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.insts", "count"),
    ("sim.squashed_insts", "count"),
    ("sim.useful_frac", "frac"),
    ("sim.task_pred_hit_frac", "frac"),
    ("sim.ctrl_squashes", "count"),
    ("sim.mem_violations", "count"),
    ("sim.reg_forwards", "count"),
    ("sim.l1d_miss_frac", "frac"),
    ("trace.insts", "count"),
    ("trace.dyn_tasks", "count"),
    ("tasksel.tasks", "count"),
    ("workloads.blocks", "count"),
    ("conform.errors", "count"),
    ("tracing.overhead_frac", "frac"),
    ("bench.untraced_pass_ms", "ms"),
];

/// The deterministic per-pass counts, as metrics.
fn count_metrics(c: &Counts) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("sim.images", c.images as f64);
    m.insert("sim.cells_per_image", ratio(c.cells as f64, c.images as f64));
    m.insert("sim.cycles", c.cycles as f64);
    m.insert("sim.insts", c.insts as f64);
    m.insert("sim.squashed_insts", c.squashed_insts as f64);
    m.insert("sim.useful_frac", ratio(c.insts as f64, (c.insts + c.squashed_insts) as f64));
    m.insert("sim.task_pred_hit_frac", ratio(c.task_pred_hits as f64, c.task_preds as f64));
    m.insert("sim.ctrl_squashes", c.ctrl_squashes as f64);
    m.insert("sim.mem_violations", c.mem_violations as f64);
    m.insert("sim.reg_forwards", c.reg_forwards as f64);
    m.insert("sim.l1d_miss_frac", ratio(c.l1d_misses as f64, (c.l1d_hits + c.l1d_misses) as f64));
    m.insert("trace.insts", c.trace_insts as f64);
    m.insert("trace.dyn_tasks", c.dyn_tasks as f64);
    m.insert("tasksel.tasks", c.tasks as f64);
    m.insert("workloads.blocks", c.blocks as f64);
    m.insert("conform.errors", c.conform_errors as f64);
    m.insert("analysis.ctx_hit_frac", ratio(c.ctx_hits as f64, (c.ctx_hits + c.ctx_misses) as f64));
    m
}

/// Runs untraced and traced passes alternately for `seconds` (at least
/// two of each), checks that all passes agree, writes the spans to
/// `<work>/spans.jsonl`, and reports the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, jobs: usize, work: &Path) -> Report {
    let replay = Replay::new(workload, seed, jobs, work);
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut jsonl = String::new();
    let mut reference: Option<Vec<String>> = None;
    let mut attempted = 0;
    let mut failed = 0;
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut counts: Option<Counts> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pair = 0;
    while pair < 2 || Instant::now() < deadline {
        let order = if pair % 2 == 0 { [false, true] } else { [true, false] };
        for traced in order {
            let t = if traced { &on } else { &off };
            let t0 = Instant::now();
            let out = replay.pass(t);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            attempted += out.outputs.len() as u64;
            failed += out.failed;
            match &reference {
                None => reference = Some(out.outputs),
                Some(r) => {
                    failed += r.iter().zip(&out.outputs).filter(|(a, b)| a != b).count() as u64;
                    failed += r.len().abs_diff(out.outputs.len()) as u64;
                }
            }
            match counts {
                None => counts = Some(out.counts),
                Some(c) if c.exact() != out.counts.exact() => failed += 1,
                Some(_) => {}
            }
            if traced {
                let spans = on.take();
                per_pass.push(timings(&spans, jobs, &out.counts));
                spans::to_jsonl(&format!("{}", per_pass.len()), &spans, &mut jsonl);
                traced_ms.push(ms);
            } else {
                untraced_ms.push(ms);
            }
        }
        pair += 1;
    }
    let mut values = count_metrics(&counts.unwrap_or_default());
    for name in per_pass[0].keys() {
        values.insert(name, median(per_pass.iter().map(|m| m[name]).collect()));
    }
    if workload == Workload::Fig5 {
        let computed = reference.unwrap_or_default();
        let (cells, wrong) = measure_cache(&replay, &on, &computed, &mut values, &mut jsonl);
        attempted += cells;
        failed += wrong;
    }
    fs::write(work.join("spans.jsonl"), jsonl).expect("span file is writable");
    let untraced = median(untraced_ms);
    values.insert("bench.untraced_pass_ms", untraced);
    values.insert("tracing.overhead_frac", ratio(median(traced_ms) - untraced, untraced));
    let metrics = UNITS
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Report { attempted, failed, metrics }
}

/// The cell cache on the Figure 5 grid, as `run figure5 --cache-dir`
/// uses it: one traced pass that computes and stores every cell, then
/// [`CACHE_PASSES`] traced passes served from the cache. Every served
/// artifact must equal the `computed` one. Returns the cells attempted
/// and failed.
fn measure_cache(
    replay: &Replay,
    on: &Tracer,
    computed: &[String],
    values: &mut BTreeMap<&'static str, f64>,
    jsonl: &mut String,
) -> (u64, u64) {
    let _ = fs::remove_dir_all(replay.cache_dir());
    let cache = CellCache::at(replay.cache_dir()).expect("cell cache directory is usable");
    let fill = on.pass(|| replay.figure5_pass(on, Some(&cache)));
    let spans = on.take();
    let self_ms = |spans: &[Span], name: &str| {
        spans::self_times(spans).get(name).copied().unwrap_or(0) as f64 / 1e6
    };
    values.insert("bench.cache.store_ms", self_ms(&spans, "bench.cache.store"));
    spans::to_jsonl("cache-fill", &spans, jsonl);
    let wrong = |outputs: &[String]| {
        computed.iter().zip(outputs).filter(|(a, b)| a != b).count()
            + computed.len().abs_diff(outputs.len())
    };
    let mut attempted = fill.outputs.len() as u64;
    let mut failed = fill.failed + wrong(&fill.outputs) as u64;
    let (mut key_ms, mut lookup_ms) = (Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0, 0);
    for i in 0..CACHE_PASSES {
        let out = on.pass(|| replay.resubmit_pass(on));
        let spans = on.take();
        spans::to_jsonl(&format!("cache-{}", i + 1), &spans, jsonl);
        key_ms.push(self_ms(&spans, "bench.cache.key"));
        lookup_ms.push(self_ms(&spans, "bench.cache.lookup"));
        attempted += out.outputs.len() as u64;
        failed += out.failed + wrong(&out.outputs) as u64;
        hits += out.counts.cache_hits;
        misses += out.counts.cache_misses;
    }
    values.insert("bench.cache.key_ms", median(key_ms));
    values.insert("bench.cache.lookup_ms", median(lookup_ms));
    values.insert("bench.cache.hit_frac", ratio(hits as f64, (hits + misses) as f64));
    (attempted, failed)
}
