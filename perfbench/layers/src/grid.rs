//! The cells each workload runs, defined here so the benchmark owns its
//! inputs: the paper's Figure 5 grid and the long-trace cells.

use ms_bench::sweeps::CellJob;
use ms_bench::{Heuristic, DEFAULT_TRACE_INSTS};
use ms_workloads::{fp_suite, integer_suite};

/// The Figure 5 grid as `run figure5` runs it: every SPEC95-shaped
/// workload under bb/cf/dd (plus ts for compress and fpppp) on 4 and 8
/// PUs, out-of-order and in-order, 100k instructions each. Cell ids are
/// the artifact file stems.
pub fn figure5() -> Vec<(String, CellJob)> {
    let mut grid = Vec::new();
    for in_order in [false, true] {
        for pus in [4usize, 8] {
            for w in integer_suite().iter().chain(fp_suite().iter()) {
                let mut heuristics =
                    vec![Heuristic::BasicBlock, Heuristic::ControlFlow, Heuristic::DataDependence];
                if matches!(w.name, "compress" | "fpppp") {
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
    grid
}

/// Indices of the grid cells that share one selection and trace (same
/// workload and heuristic), in first-appearance order: the groups a
/// sweep decodes once and simulates once per machine configuration.
pub fn groups(grid: &[(String, CellJob)]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, (_, job)) in grid.iter().enumerate() {
        match groups.iter_mut().find(|g| {
            let lead = &grid[g[0]].1;
            (lead.bench, lead.heuristic) == (job.bench, job.heuristic)
        }) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// The distinct workloads of a grid, in first-appearance order.
pub fn benches(grid: &[(String, CellJob)]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for (_, job) in grid {
        if !out.contains(&job.bench) {
            out.push(job.bench);
        }
    }
    out
}

/// The long-trace cells: (workload, policy) pairs run alone on the
/// default 4-PU out-of-order machine.
pub const LONG_TRACE: [(&str, &str); 4] =
    [("gcc", "cf"), ("go", "dd"), ("li", "bb"), ("swim", "cf")];

/// Dynamic instructions per long-trace cell.
pub const LONG_TRACE_INSTS: usize = 2_000_000;

/// A heuristic from its label (`bb`, `cf`, `dd`, `ts`).
pub fn heuristic(label: &str) -> Option<Heuristic> {
    Heuristic::all().into_iter().find(|h| h.label() == label)
}

/// Whether selecting with `h` consumes the dependence analyses, so its
/// analysis context should be warmed with them.
pub fn needs_deps(h: Heuristic) -> bool {
    matches!(h, Heuristic::DataDependence | Heuristic::TaskSize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_grid_has_the_papers_shape() {
        let grid = figure5();
        assert_eq!(grid.len(), 224);
        let groups = groups(&grid);
        assert_eq!(groups.len(), 56);
        assert!(groups.iter().all(|g| g.len() == 4));
        assert_eq!(benches(&grid).len(), 18);
    }
}
