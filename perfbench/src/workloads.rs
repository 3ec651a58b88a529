//! The three benchmark workloads: which input file each replays and which
//! `abacus run` configuration drives it.

use abacus_core::{EstimatorSpec, RunManifest, ViewKind};
use abacus_stream::Dataset;

/// Checkpoint cadence of every durable pass: the `run --checkpoint-every`
/// default.
pub const CHECKPOINT_EVERY: u64 = 10_000;

/// PARABACUS mini-batch size of the `.par2` passes.
pub const PAR_BATCH: usize = 10_000;

/// PARABACUS worker threads of the `.par2` passes.
pub const PAR_THREADS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// The dataset analog whose generator makes the input.
    pub dataset: Dataset,
    /// Dataset scale factor (`DatasetSpec::scaled`).
    pub scale: u32,
    /// Deletion ratio α.
    pub alpha: f64,
    /// Leading edges of the generated edge list that the stream covers;
    /// `None` keeps the whole graph.
    pub edge_prefix: Option<usize>,
    /// Sample budget of every engine.
    pub budget: usize,
    /// Whether the primary pass runs the `--checkpoint-dir` path.
    pub durable: bool,
    /// Whether every engine is hosted in a five-view circuit (`--views all`).
    pub views: bool,
    /// Elements pulled per chunk; fixed for every engine of the workload.
    pub chunk: usize,
    /// Element position at which the recovery pass drops its run, between
    /// two checkpoints.
    pub kill_at: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig9-trackers",
        dataset: Dataset::TrackersLike,
        scale: 16,
        alpha: 0.2,
        edge_prefix: Some(175_000),
        budget: 30_000,
        durable: false,
        views: false,
        chunk: 200,
        kill_at: 25_000,
    },
    Workload {
        name: "durable-ingest",
        dataset: Dataset::MovielensLike,
        scale: 16,
        alpha: 0.2,
        edge_prefix: Some(300_000),
        budget: 3_000,
        durable: true,
        views: false,
        chunk: 200,
        kill_at: 25_000,
    },
    Workload {
        name: "views-panel",
        dataset: Dataset::MovielensLike,
        scale: 1,
        alpha: 0.2,
        edge_prefix: Some(20_000),
        budget: 3_000,
        durable: false,
        views: true,
        chunk: 16,
        kill_at: 15_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Which engine a pass drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    /// ABACUS with `run` defaults (`--snapshot auto`).
    Abacus,
    /// PARABACUS, threads 2, batch 10000, default pipeline depth.
    Par2,
    /// PARABACUS with one thread (the traced run's `t1_over_abacus` base).
    Par1,
}

impl Engine {
    /// Short name used in reference files and report lines.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Abacus => "abacus",
            Engine::Par2 => "par2",
            Engine::Par1 => "par1",
        }
    }
}

impl Workload {
    /// The estimator description `run` would parse for this engine.
    pub fn spec(&self, engine: Engine) -> EstimatorSpec {
        match engine {
            Engine::Abacus => EstimatorSpec::abacus(self.budget),
            Engine::Par2 | Engine::Par1 => EstimatorSpec::parabacus(self.budget)
                .with_batch_size(PAR_BATCH)
                .with_threads(if engine == Engine::Par2 {
                    PAR_THREADS
                } else {
                    1
                }),
        }
    }

    /// The circuit views of every engine (empty unless `views`).
    pub fn view_kinds(&self) -> Vec<ViewKind> {
        if self.views {
            ViewKind::parse_list("all").expect("`all` is a valid view list")
        } else {
            Vec::new()
        }
    }

    /// The manifest `run --checkpoint-dir` writes for this engine.
    pub fn manifest(&self, engine: Engine) -> RunManifest {
        RunManifest::new(self.spec(engine), CHECKPOINT_EVERY).with_views(&self.view_kinds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stream elements of a workload's input (insertions plus deletions).
    fn elements(w: &Workload) -> usize {
        let edges = w
            .edge_prefix
            .unwrap_or(w.dataset.spec().scaled(w.scale).edges);
        edges + (edges as f64 * w.alpha).round() as usize
    }

    #[test]
    fn every_pass_yields_enough_chunks_for_its_p99() {
        for w in WORKLOADS {
            let chunks = elements(&w) / w.chunk;
            assert!(
                chunks >= crate::measure::MIN_CHUNKS,
                "{}: {chunks} chunks",
                w.name
            );
        }
    }

    #[test]
    fn the_kill_point_lies_between_two_checkpoints() {
        for w in WORKLOADS {
            assert!(w.kill_at > CHECKPOINT_EVERY, "{}", w.name);
            assert_ne!(w.kill_at % CHECKPOINT_EVERY, 0, "{}", w.name);
            assert!((w.kill_at as usize) < elements(&w), "{}", w.name);
        }
    }

    #[test]
    fn par2_stalls_fill_more_than_one_percent_of_chunks() {
        // One chunk per mini-batch carries the batch's counting, so the
        // PARABACUS p99 lands on a batch-boundary stall.
        for w in WORKLOADS.iter().filter(|w| !w.views) {
            assert!(PAR_BATCH / w.chunk < 100, "{}", w.name);
        }
    }
}
