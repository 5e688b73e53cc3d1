//! Running many cells over one shared program image.
//!
//! A sweep evaluates many configurations of the *same* (program,
//! partition, trace) triple — figure 5 alone runs four machines per
//! (benchmark, heuristic) partition. Splitting and decoding the trace is
//! per-trace work, so [`BatchEngine`] does it once, in the
//! [`ProgramImage`] it is given, and then runs one cell per
//! configuration over that image, one after another.
//!
//! Each cell builds its own complete engine state (caches, predictors,
//! ring, ARB, scratch) and runs through the same per-cell function as
//! [`crate::Simulator`], so every cell's statistics equal a
//! [`crate::Simulator`] run of the same configuration.

use crate::config::SimConfig;
use crate::engine::{run_cell, ProgramImage};
use crate::event::NullSink;
use crate::stats::SimStats;

/// Runs independent simulation cells over one decoded
/// [`ProgramImage`].
///
/// # Example
///
/// ```
/// use ms_analysis::ProgramContext;
/// use ms_sim::{BatchEngine, ProgramImage, SimConfig, Simulator};
/// use ms_tasksel::{SelectorBuilder, Strategy};
/// use ms_trace::TraceGenerator;
///
/// let program = ms_workloads::by_name("compress").unwrap().build();
/// let ctx = ProgramContext::new(program);
/// let sel = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build().select(&ctx);
/// let trace = TraceGenerator::new(&sel.program, 7).generate(2_000);
///
/// let mut wide = SimConfig::four_pu();
/// wide.num_pus = 8;
/// let configs = [SimConfig::four_pu(), wide];
/// let image = ProgramImage::new(&sel.program, &sel.partition, &trace);
/// let batch = BatchEngine::new(&image).run(&configs);
///
/// // Each cell equals a standalone simulation of its configuration.
/// let alone = Simulator::new(configs[0].clone(), &sel.program, &sel.partition).run(&trace);
/// assert_eq!(batch[0], alone);
/// ```
#[derive(Debug)]
pub struct BatchEngine<'i, 'a> {
    img: &'i ProgramImage<'a>,
}

impl<'i, 'a> BatchEngine<'i, 'a> {
    /// Creates a batch engine over a decoded image.
    pub fn new(img: &'i ProgramImage<'a>) -> Self {
        BatchEngine { img }
    }

    /// Runs one cell per configuration, one after another, returning
    /// statistics in input order.
    pub fn run(&self, configs: &[SimConfig]) -> Vec<SimStats> {
        configs.iter().map(|cfg| run_cell(cfg, self.img, &mut NullSink)).collect()
    }
}
