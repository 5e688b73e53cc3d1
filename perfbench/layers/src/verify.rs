//! Untimed output checks for the end-to-end passes: every cell is re-run
//! through `ms_conform::check_trace` (event-stream checker plus the
//! sequential reference model), which must report no error, and the
//! output it renders must equal, byte for byte, what `run` wrote.

use std::fs;
use std::path::Path;

use ms_analysis::ProgramContext;
use ms_bench::harness::run_parallel;
use ms_bench::sweeps::{cell_json, CellOutput};
use ms_conform::check_trace;
use ms_sim::SimConfig;
use ms_tasksel::PartitionStats;
use ms_trace::TraceGenerator;

use crate::grid;

/// The outcome of a check: cells checked, and one message per failing
/// cell.
pub struct Verdict {
    pub cells: usize,
    pub failures: Vec<String>,
}

impl Verdict {
    /// Prints each failure, then a one-line JSON summary.
    pub fn print(&self) {
        for f in &self.failures {
            println!("FAIL {f}");
        }
        println!("{{\"cells\":{},\"failed\":{}}}", self.cells, self.failures.len());
    }
}

/// Checks the Figure 5 artifacts `run figure5` wrote to `dir`: exactly
/// the grid's cells, each equal to its conformance-checked re-run.
pub fn figure5(dir: &Path, jobs: usize) -> Verdict {
    let grid = grid::figure5();
    let groups = grid::groups(&grid);
    let per_group = run_parallel(jobs, groups, |cells, _| {
        let lead = &grid[cells[0]].1;
        let sel = lead.heuristic.selector(lead.targets).select(&lead.context());
        let partition = PartitionStats::compute(
            &sel.program,
            &sel.partition,
            sel.context().profile(),
            lead.targets,
        );
        let trace = TraceGenerator::new(&sel.program, lead.seed).generate(lead.insts);
        let mut failures = Vec::new();
        for &i in cells {
            let (id, job) = &grid[i];
            let run = check_trace(&sel.program, &sel.partition, &trace, job.sim_config());
            if !run.errors.is_empty() {
                failures.push(format!(
                    "{id}: {} conformance error(s): {}",
                    run.errors.len(),
                    run.errors[0]
                ));
                continue;
            }
            let out = CellOutput { sim: run.stats, partition: partition.clone() };
            let want = cell_json("figure5", id, job, &out) + "\n";
            match fs::read_to_string(dir.join(format!("{id}.json"))) {
                Ok(got) if got == want => {}
                Ok(_) => failures.push(format!("{id}: artifact differs from the checked re-run")),
                Err(e) => failures.push(format!("{id}: artifact unreadable: {e}")),
            }
        }
        failures
    });
    let mut failures: Vec<String> = per_group.into_iter().flatten().collect();
    let known: Vec<String> = grid.iter().map(|(id, _)| format!("{id}.json")).collect();
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && !known.contains(&name) {
                failures.push(format!("{name}: artifact outside the Figure 5 grid"));
            }
        }
    }
    Verdict { cells: grid.len(), failures }
}

/// The line `run <bench> --strategy <label> --insts <insts> --seed
/// <seed> --json` prints, computed under the conformance check.
/// Returns the line or the conformance errors.
fn long_trace_line(bench: &str, label: &str, insts: usize, seed: u64) -> Result<String, String> {
    let w = ms_workloads::by_name(bench).ok_or_else(|| format!("unknown workload `{bench}`"))?;
    let h = grid::heuristic(label).ok_or_else(|| format!("unknown policy `{label}`"))?;
    let sel = h.selector(4).select(&ProgramContext::new(w.build()));
    let trace = TraceGenerator::new(&sel.program, seed).generate(insts);
    let run = check_trace(&sel.program, &sel.partition, &trace, SimConfig::with_pus(4));
    if !run.errors.is_empty() {
        return Err(format!("{} conformance error(s): {}", run.errors.len(), run.errors[0]));
    }
    Ok(format!(
        "{{\"bench\":\"{bench}\",\"strategy\":\"{label}\",\"stats\":{}}}",
        run.stats.to_json()
    ))
}

/// Checks the long-trace outputs: `cells` holds (workload, policy,
/// file with the `--json` line `run` printed).
pub fn long_trace(
    cells: &[(String, String, String)],
    insts: usize,
    seed: u64,
    jobs: usize,
) -> Verdict {
    let results = run_parallel(jobs, cells.to_vec(), |(bench, label, file), _| {
        let got = fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let want = long_trace_line(bench, label, insts, seed)?;
        if got.trim_end() == want {
            Ok(())
        } else {
            Err("output differs from the checked re-run".to_string())
        }
    });
    let failures = cells
        .iter()
        .zip(results)
        .filter_map(|((bench, label, _), r)| r.err().map(|e| format!("{bench}-{label}: {e}")))
        .collect();
    Verdict { cells: cells.len(), failures }
}
