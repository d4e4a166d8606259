//! The six phases of a run. Each stresses the stack a different way and
//! owns a subset of the metrics (see `catalog.rs`); a run executes all
//! of them under one key distribution, so every workload reports every
//! metric.
//!
//! A phase is prepared once (inputs, set-up, oracle), then takes part in
//! every round of the run, then reports. Rounds interleave the phases,
//! so each metric's samples are spread over the whole run: on this
//! shared sandbox a neighbour's burst then costs every metric one round
//! instead of costing one metric all of its repetitions.

use crate::env::Scratch;
use crate::gen::KeyPicker;
use crate::profile::Counts;
use crate::report::Report;
use crate::trace::{Recorder, Tracer};

pub mod apps;
pub mod serve;
pub mod store_commit;
pub mod tree_bulk;
pub mod tree_read;

/// Everything a phase needs from the run it is part of.
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u64,
    /// Round and request counts.
    pub counts: Counts,
    /// The run's tracer (inert unless `--trace 1`).
    pub tracer: &'a Tracer,
    /// Key picker of the workload's distribution.
    pub picker: &'a KeyPicker,
    /// Metric values, notes and the correctness tally.
    pub report: &'a mut Report,
    /// The run's scratch directory.
    pub scratch: &'a Scratch,
    /// Per-phase set-up medians, summed into `setup_s` at the end.
    pub setup_s: f64,
    /// A closed store directory holding the preloaded records, left by
    /// `store-commit` for the serve phases to start `pam-serve` on.
    pub preloaded: Option<std::path::PathBuf>,
}

impl Ctx<'_> {
    /// Is this the traced pass (per-layer metrics wanted)?
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// A prepared phase.
pub trait Phase {
    /// Take part in one round: time each repeated operation once, send
    /// one slice of each request mix, check the answers.
    ///
    /// # Errors
    ///
    /// A failure of the system under test that leaves nothing to measure
    /// (a store that will not open, a dropped connection).
    fn round(&mut self, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String>;

    /// Forget the samples taken so far: called once, after the warm-up
    /// round (allocator, caches and connections settle; users do not pay
    /// that on every call). State that later rounds build on stays.
    fn reset(&mut self);

    /// Report the phase's metrics; the traced pass also makes its
    /// per-layer side measurements here.
    ///
    /// # Errors
    ///
    /// As [`Phase::round`].
    fn finish(self: Box<Self>, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String>;
}
