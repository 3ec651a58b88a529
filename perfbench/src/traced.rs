//! Traced passes: the same work as the untraced passes, with spans recorded
//! around the calls into each layer's public functions.
//!
//! * ABACUS is decomposed into `count_butterflies_with_edge`, `increment`
//!   and `RandomPairing::insert`/`delete` ([`TracedAbacus`]), on the
//!   snapshot backing the configuration chooses.
//! * In a circuit, every `DeltaView` is wrapped in a timing shim
//!   ([`TimedView`]) and the estimator is the decomposed ABACUS.
//! * The durable path is driven through the public pieces of
//!   `Checkpointer` (`WalWriter`, `write_snapshot`, `write_watermark`, …)
//!   in the order `Checkpointer::offer` / `checkpoint` / `resume` call them.
//!   The run holds the directory each traced durable pass leaves against
//!   the one the real `Checkpointer` leaves, file for file.
//!
//! Span names are layer names; `pass`, `setup`, `chunk` and `finish` are the
//! driver's own steps.

use crate::passes::{self, parabacus_of};
use crate::trace::span;
use crate::workloads::{Engine, Workload};
use abacus_core::engine::checkpoint::{
    list_snapshots, read_snapshot, write_snapshot, SNAPSHOTS_KEPT,
};
use abacus_core::snapshot::{entries_to_edge_equivalents, MirroredSample, SnapshotView};
use abacus_core::{
    increment, AbacusConfig, ButterflyCounter, Circuit, ParAbacus, ProcessingStats, RunManifest,
    SampleGraph,
};
use abacus_graph::csr::CsrSnapshot;
use abacus_graph::{count_butterflies_with_edge, BipartiteGraph, Edge};
use abacus_sampling::{RandomPairing, SampleStore};
use abacus_stream::persist::{
    list_segments, prune_segments, read_watermark, replay_wal, seal_tail, write_watermark,
    write_watermark_with_retry, RetryPolicy, WalWriter,
};
use abacus_stream::{open_path_source, DeltaEvent, DeltaView, EdgeDelta, StreamElement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Driver span names: everything they cover that no layer span covers is
/// the ledger's residual.
pub const DRIVER_SPANS: [&str; 4] = ["pass", "setup", "chunk", "finish"];

/// ABACUS (Algorithm 1) rebuilt from its public pieces, with a span around
/// each: `engine` (the whole element, including `increment`), `count` and
/// `sampler`.
pub struct TracedAbacus {
    config: AbacusConfig,
    sample: SampleGraph,
    snapshot: Option<CsrSnapshot>,
    policy: RandomPairing,
    rng: StdRng,
    estimate: f64,
    stats: ProcessingStats,
    /// Insertions offered to Random Pairing.
    pub inserts: u64,
    /// Insertions that changed the sample.
    pub accepted: u64,
    /// Elements that found at least one butterfly.
    pub hits: u64,
}

impl TracedAbacus {
    /// Builds the estimator `Abacus::new(config)` would.
    pub fn new(config: AbacusConfig) -> Self {
        let mut sample = SampleGraph::with_budget(config.budget);
        sample.set_kernel_tuning(config.kernel);
        TracedAbacus {
            config,
            sample,
            snapshot: config
                .snapshot_enabled()
                .then(|| CsrSnapshot::new(config.kernel)),
            policy: RandomPairing::new(config.budget),
            rng: StdRng::seed_from_u64(config.seed),
            estimate: 0.0,
            stats: ProcessingStats::default(),
            inserts: 0,
            accepted: 0,
            hits: 0,
        }
    }

    /// Work counters, as `Abacus::stats` reports them.
    pub fn stats(&self) -> ProcessingStats {
        self.stats
    }

    /// The sample.
    pub fn sample(&self) -> &SampleGraph {
        &self.sample
    }
}

/// Random Pairing's half of Algorithm 1 on `store`, counting offered and
/// accepted insertions.
fn sample_update<S: SampleStore<Edge>>(
    policy: &mut RandomPairing,
    rng: &mut StdRng,
    counts: &mut [u64; 2],
    element: StreamElement,
    store: &mut S,
) {
    match element.delta {
        EdgeDelta::Insert => {
            let mut counting = CountingStore {
                inner: store,
                changed: 0,
            };
            policy.insert(element.edge, &mut counting, rng);
            counts[0] += 1;
            counts[1] += counting.changed;
        }
        EdgeDelta::Delete => policy.delete(&element.edge, store),
    }
}

impl ButterflyCounter for TracedAbacus {
    fn process(&mut self, element: StreamElement) {
        let _engine = span("engine");
        let per_edge = {
            let _count = span("count");
            match &self.snapshot {
                Some(snapshot) => count_butterflies_with_edge(
                    &SnapshotView::new(snapshot, &self.sample),
                    element.edge,
                ),
                None => count_butterflies_with_edge(&self.sample, element.edge),
            }
        };
        let is_insert = element.delta.is_insert();
        if per_edge.butterflies > 0 {
            self.hits += 1;
            self.estimate += increment(self.config.budget, self.policy.state(), is_insert)
                * per_edge.butterflies as f64;
        }
        self.stats
            .record_element(is_insert, per_edge.butterflies, per_edge.comparisons);

        let _sampler = span("sampler");
        let mut counts = [0u64; 2];
        match &mut self.snapshot {
            Some(snapshot) => sample_update(
                &mut self.policy,
                &mut self.rng,
                &mut counts,
                element,
                &mut MirroredSample::new(&mut self.sample, snapshot),
            ),
            None => sample_update(
                &mut self.policy,
                &mut self.rng,
                &mut counts,
                element,
                &mut self.sample,
            ),
        }
        self.inserts += counts[0];
        self.accepted += counts[1];
    }

    fn estimate(&self) -> f64 {
        self.estimate
    }

    fn memory_edges(&self) -> usize {
        let aux = self.sample.sorted_cache_entries()
            + self
                .snapshot
                .as_ref()
                .map_or(0, CsrSnapshot::resident_entries);
        self.sample.len() + entries_to_edge_equivalents(aux)
    }

    fn name(&self) -> &'static str {
        "ABACUS"
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// Forwards to a sample store and counts the calls that change it.
struct CountingStore<'a, S> {
    inner: &'a mut S,
    changed: u64,
}

impl<S: SampleStore<Edge>> SampleStore<Edge> for CountingStore<'_, S> {
    fn store_len(&self) -> usize {
        self.inner.store_len()
    }

    fn store_contains(&self, item: &Edge) -> bool {
        self.inner.store_contains(item)
    }

    fn store_insert(&mut self, item: Edge) {
        self.changed += 1;
        self.inner.store_insert(item);
    }

    fn store_remove(&mut self, item: &Edge) -> bool {
        self.inner.store_remove(item)
    }

    fn store_replace_random<R: Rng + ?Sized>(&mut self, item: Edge, rng: &mut R) {
        self.changed += 1;
        self.inner.store_replace_random(item, rng);
    }

    fn store_clear(&mut self) {
        self.inner.store_clear();
    }
}

/// Butterfly partner pairs the circuit handed its views in the current pass.
static PAIRS: AtomicU64 = AtomicU64::new(0);

/// A view wrapped in a `view.<name>` span.  The first shim of a circuit
/// also counts the partner pairs the circuit enumerated.
pub struct TimedView {
    inner: Box<dyn DeltaView + Send>,
    span_name: &'static str,
    counts_pairs: bool,
}

impl TimedView {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn DeltaView + Send>, counts_pairs: bool) -> Self {
        let span_name = match inner.name() {
            "peredge" => "view.peredge",
            "vertex" => "view.vertex",
            "clustering" => "view.clustering",
            "bitruss" => "view.bitruss",
            "anomaly" => "view.anomaly",
            _ => "view.other",
        };
        TimedView {
            inner,
            span_name,
            counts_pairs,
        }
    }
}

impl DeltaView for TimedView {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_butterflies(&self) -> bool {
        self.inner.needs_butterflies()
    }

    fn needs_graph(&self) -> bool {
        self.inner.needs_graph()
    }

    fn apply_delta(&mut self, event: &DeltaEvent<'_>) {
        if self.counts_pairs {
            PAIRS.fetch_add(event.butterflies.len() as u64, Ordering::Relaxed);
        }
        let _view = span(self.span_name);
        self.inner.apply_delta(event);
    }

    fn finish(&mut self, estimate: f64) {
        self.inner.finish(estimate);
    }

    fn report(&self, graph: &BipartiteGraph) -> Vec<String> {
        self.inner.report(graph)
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// What a traced ABACUS (or ABACUS-hosting circuit) pass produced.
pub struct AbacusTrace {
    /// Elements processed.
    pub elements: u64,
    /// Final estimate.
    pub estimate: f64,
    /// Work counters.
    pub stats: ProcessingStats,
    /// Insertions offered to Random Pairing.
    pub inserts: u64,
    /// Insertions that changed the sample.
    pub accepted: u64,
    /// Elements that found at least one butterfly.
    pub hits: u64,
    /// Sample edges at the end.
    pub sample_edges: usize,
    /// Heap bytes of the sample at the end.
    pub sample_heap: usize,
    /// Partner pairs the circuit enumerated (0 without a circuit).
    pub pairs: u64,
    /// The decomposed ABACUS, bare or hosted in a circuit.
    pub host: Host,
}

/// The decomposed ABACUS as a pass drives it.
pub enum Host {
    /// `run` without `--views`.
    Bare(Box<TracedAbacus>),
    /// `run --views all`.
    Circuit(Box<Circuit<TracedAbacus>>),
}

impl AbacusTrace {
    /// View report lines (empty without a circuit).
    pub fn report(&self) -> Vec<String> {
        match &self.host {
            Host::Bare(_) => Vec::new(),
            Host::Circuit(circuit) => report_lines(circuit.view_reports()),
        }
    }
}

/// A traced pass of the workload's ABACUS engine (hosted in a circuit on
/// `views` workloads), never durable.
pub fn abacus_pass(workload: &Workload, input: &Path) -> Result<AbacusTrace, String> {
    PAIRS.store(0, Ordering::Relaxed);
    let pass = span("pass");
    let (mut source, mut host) = {
        let _setup = span("setup");
        let source = open_path_source(input).map_err(|e| format!("open: {e}"))?;
        let abacus = TracedAbacus::new(workload.spec(Engine::Abacus).abacus_config());
        let kinds = workload.view_kinds();
        let host = if kinds.is_empty() {
            Host::Bare(Box::new(abacus))
        } else {
            let mut circuit = Circuit::new(abacus);
            for (i, kind) in kinds.into_iter().enumerate() {
                circuit.add_view(Box::new(TimedView::new(kind.build(), i == 0)));
            }
            Host::Circuit(Box::new(circuit))
        };
        (source, host)
    };
    let mut buf = Vec::with_capacity(workload.chunk);
    let mut elements = 0u64;
    loop {
        let _chunk = span("chunk");
        {
            let _decode = span("decode");
            passes::pull(&mut *source, workload.chunk, &mut buf)?;
        }
        for &element in &buf {
            match &mut host {
                Host::Bare(abacus) => abacus.process(element),
                Host::Circuit(circuit) => {
                    let _circuit = span("circuit");
                    circuit.process(element);
                }
            }
        }
        elements += buf.len() as u64;
        if buf.len() < workload.chunk {
            break;
        }
    }
    let estimate = {
        let _finish = span("finish");
        match &mut host {
            Host::Bare(abacus) => abacus.finish(),
            Host::Circuit(circuit) => circuit.finish(),
        }
    };
    drop(pass);
    let abacus = match &host {
        Host::Bare(abacus) => &**abacus,
        Host::Circuit(circuit) => circuit.estimator(),
    };
    Ok(AbacusTrace {
        elements,
        estimate,
        stats: abacus.stats(),
        inserts: abacus.inserts,
        accepted: abacus.accepted,
        hits: abacus.hits,
        sample_edges: abacus.sample().len(),
        sample_heap: abacus.sample().heap_bytes(),
        pairs: PAIRS.load(Ordering::Relaxed),
        host,
    })
}

/// Report lines as `run` prints them for a circuit's views.
pub fn report_lines(reports: Vec<(&'static str, Vec<String>)>) -> Vec<String> {
    let mut out = Vec::new();
    for (name, lines) in reports {
        for line in lines {
            out.push(format!("{:<18}{line}", format!("view {name}:")));
        }
    }
    out
}

/// What a traced PARABACUS pass produced.
pub struct ParTrace {
    /// Elements processed.
    pub elements: u64,
    /// Final estimate.
    pub estimate: f64,
    /// The engine, handed back so that its teardown falls outside the
    /// traced call, as the untraced passes hand back theirs.
    pub engine: Box<dyn ButterflyCounter + Send>,
}

impl ParTrace {
    /// The PARABACUS inside the engine.
    pub fn parabacus(&self) -> Result<&ParAbacus, String> {
        parabacus_of(&*self.engine).ok_or_else(|| "the engine holds no PARABACUS".into())
    }
}

/// A traced pass of a PARABACUS engine (bare, or circuit-hosted on `views`
/// workloads), never durable: per chunk, a `decode` and an `engine` span.
pub fn par_pass(workload: &Workload, engine: Engine, input: &Path) -> Result<ParTrace, String> {
    let pass = span("pass");
    let (mut source, mut counter) = {
        let _setup = span("setup");
        let source = open_path_source(input).map_err(|e| format!("open: {e}"))?;
        let spec = workload.spec(engine);
        let kinds = workload.view_kinds();
        let counter = if kinds.is_empty() {
            spec.build()
        } else {
            spec.build_with_views(&kinds)
        };
        (source, counter)
    };
    let mut buf = Vec::with_capacity(workload.chunk);
    let mut elements = 0u64;
    loop {
        let _chunk = span("chunk");
        {
            let _decode = span("decode");
            passes::pull(&mut *source, workload.chunk, &mut buf)?;
        }
        {
            let _engine = span("engine");
            for &element in &buf {
                counter.process(element);
            }
        }
        elements += buf.len() as u64;
        if buf.len() < workload.chunk {
            break;
        }
    }
    let estimate = {
        let _finish = span("finish");
        let _engine = span("engine");
        counter.finish()
    };
    drop(pass);
    Ok(ParTrace {
        elements,
        estimate,
        engine: counter,
    })
}

/// What a traced durable pass produced.
pub struct DurableTrace {
    /// Elements offered.
    pub elements: u64,
    /// Final estimate (after `finish`, or at the stop point).
    pub estimate: f64,
    /// Bytes of every WAL segment the pass wrote, trailers included.
    pub wal_bytes: u64,
    /// `write` system calls the process made during the pass.
    pub write_syscalls: u64,
    /// Size of the last snapshot payload written, bytes.
    pub snapshot_bytes: u64,
    /// The engine, handed back so that its teardown falls outside the
    /// traced call, as the untraced passes hand back theirs.
    pub engine: Box<dyn ButterflyCounter + Send>,
}

/// The durable pieces a checkpoint touches.
struct Durable<'a> {
    dir: &'a Path,
    wal: Option<WalWriter>,
    retry: RetryPolicy,
    snapshot_bytes: u64,
    segments: BTreeMap<std::path::PathBuf, u64>,
}

impl Durable<'_> {
    /// `Checkpointer::checkpoint`: snapshot, WAL rotation, watermark,
    /// prune.
    fn checkpoint(
        &mut self,
        estimator: &mut (dyn ButterflyCounter + Send),
        elements: u64,
    ) -> Result<(), String> {
        {
            let _checkpoint = span("checkpoint");
            let state = estimator
                .save_state()
                .map_err(|e| format!("save_state: {e}"))?;
            write_snapshot(self.dir, elements, &state).map_err(|e| format!("snapshot: {e}"))?;
            self.snapshot_bytes = state.len() as u64;
            let wal = self
                .wal
                .take()
                .ok_or("the WAL writer is open between calls")?;
            self.wal = Some(wal.rotate().map_err(|e| format!("rotate: {e}"))?);
            write_watermark_with_retry(self.dir, elements, &self.retry)
                .map_err(|e| format!("watermark: {e}"))?;
            prune(self.dir)?;
        }
        self.note_segments()
    }

    /// Records the current size of every WAL segment (outside any layer
    /// span; sealed segments are seen before a later prune removes them).
    fn note_segments(&mut self) -> Result<(), String> {
        for path in list_segments(self.dir).map_err(|e| format!("segments: {e}"))? {
            let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            self.segments.insert(path, len);
        }
        Ok(())
    }
}

/// `Checkpointer::prune`: keep the newest `SNAPSHOTS_KEPT` snapshots and the
/// WAL segments they need.
fn prune(dir: &Path) -> Result<(), String> {
    let snapshots = list_snapshots(dir).map_err(|e| format!("snapshots: {e}"))?;
    if snapshots.len() <= SNAPSHOTS_KEPT {
        return Ok(());
    }
    let keep = &snapshots[snapshots.len() - SNAPSHOTS_KEPT..];
    let (oldest_kept, _) = read_snapshot(&keep[0]).map_err(|e| format!("snapshot: {e}"))?;
    for path in &snapshots[..snapshots.len() - SNAPSHOTS_KEPT] {
        std::fs::remove_file(path).map_err(|e| e.to_string())?;
    }
    prune_segments(dir, oldest_kept).map_err(|e| format!("prune: {e}"))
}

/// The `write` system calls this process has made so far (`syscw` of
/// `/proc/self/io`; 0 where that file is unavailable).
pub fn write_syscalls() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("syscw:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A traced `run --checkpoint-dir` pass of `engine` into the fresh
/// directory `dir`.  With `stop_at`, the run is dropped without `finish`
/// after that many elements, as a killed run would be.
pub fn durable_pass(
    workload: &Workload,
    engine: Engine,
    input: &Path,
    dir: &Path,
    stop_at: Option<u64>,
) -> Result<DurableTrace, String> {
    let pass = span("pass");
    // `Checkpointer::create`: manifest, element-0 snapshot, first WAL
    // segment, watermark.
    let (mut source, manifest, mut estimator, wal) = {
        let _setup = span("setup");
        let source = open_path_source(input).map_err(|e| format!("open: {e}"))?;
        let manifest = workload.manifest(engine);
        let mut estimator = manifest.build().map_err(|e| format!("build: {e}"))?;
        manifest.write(dir).map_err(|e| format!("manifest: {e}"))?;
        let state = estimator
            .save_state()
            .map_err(|e| format!("save_state: {e}"))?;
        write_snapshot(dir, 0, &state).map_err(|e| format!("snapshot: {e}"))?;
        let wal = WalWriter::create(dir, 0).map_err(|e| format!("wal: {e}"))?;
        write_watermark(dir, 0).map_err(|e| format!("watermark: {e}"))?;
        (source, manifest, estimator, wal)
    };
    let every = manifest.checkpoint_every;
    let mut durable = Durable {
        dir,
        wal: Some(wal),
        retry: RetryPolicy::default(),
        snapshot_bytes: 0,
        segments: BTreeMap::new(),
    };
    let syscalls_before = write_syscalls();
    let mut buf = Vec::with_capacity(workload.chunk);
    let mut elements = 0u64;
    let limit = stop_at.unwrap_or(u64::MAX);
    'stream: loop {
        let _chunk = span("chunk");
        {
            let _decode = span("decode");
            let want = workload.chunk.min((limit - elements) as usize);
            passes::pull(&mut *source, want, &mut buf)?;
        }
        for &element in &buf {
            {
                let _wal = span("wal");
                durable
                    .wal
                    .as_mut()
                    .ok_or("the WAL writer is open between calls")?
                    .append_with_retry(element, &durable.retry)
                    .map_err(|e| format!("append: {e}"))?;
            }
            {
                let _engine = span("engine");
                estimator.process(element);
            }
            elements += 1;
            if every > 0 && elements.is_multiple_of(every) {
                durable.checkpoint(&mut *estimator, elements)?;
            }
            if elements == limit {
                break 'stream;
            }
        }
        if buf.len() < workload.chunk {
            break;
        }
    }
    let estimate = if stop_at.is_some() {
        estimator.estimate()
    } else {
        let _finish = span("finish");
        let estimate = {
            let _engine = span("engine");
            estimator.finish()
        };
        durable.checkpoint(&mut *estimator, elements)?;
        estimate
    };
    let write_syscalls = write_syscalls().saturating_sub(syscalls_before);
    drop(pass);
    durable.note_segments()?;
    Ok(DurableTrace {
        elements,
        estimate,
        wal_bytes: durable.segments.values().sum(),
        write_syscalls,
        snapshot_bytes: durable.snapshot_bytes,
        engine: estimator,
    })
}

/// What a traced recovery produced.
pub struct RecoverTrace {
    /// Element position of the snapshot the recovery loaded.
    pub snapshot_elements: u64,
    /// Elements replayed from the WAL.
    pub replayed: u64,
    /// The engine, handed back so that its teardown falls outside the
    /// traced call, as the untraced passes hand back theirs.
    pub engine: Box<dyn ButterflyCounter + Send>,
}

/// `Checkpointer::resume` from its public pieces, with `recover.load`
/// (snapshot read and restore) and `recover.replay` (WAL replay, including
/// the checkpoints it re-performs) spans.
pub fn resume_pass(dir: &Path) -> Result<RecoverTrace, String> {
    let pass = span("pass");
    let manifest = RunManifest::read(dir).map_err(|e| format!("manifest: {e}"))?;
    let watermark = read_watermark(dir).ok().flatten();
    let (snapshot_elements, mut estimator) = {
        let _load = span("recover.load");
        let snapshots = list_snapshots(dir).map_err(|e| format!("snapshots: {e}"))?;
        let mut restored = None;
        for path in snapshots.iter().rev() {
            let mut candidate = manifest.build().map_err(|e| format!("build: {e}"))?;
            if let Ok(elements) = read_snapshot(path)
                .and_then(|(elements, state)| candidate.restore_state(&state).map(|()| elements))
            {
                restored = Some((elements, candidate));
                break;
            }
        }
        restored.ok_or("no valid snapshot")?
    };
    seal_tail(dir).map_err(|e| format!("seal_tail: {e}"))?;
    let every = manifest.checkpoint_every;
    let (elements, replayed, healed) = {
        let _replay = span("recover.replay");
        let recovery = replay_wal(dir, snapshot_elements).map_err(|e| format!("replay: {e}"))?;
        let mut elements = snapshot_elements;
        let mut healed = snapshot_elements;
        for &element in &recovery.elements {
            estimator.process(element);
            elements += 1;
            if every > 0 && elements.is_multiple_of(every) {
                let state = estimator
                    .save_state()
                    .map_err(|e| format!("save_state: {e}"))?;
                write_snapshot(dir, elements, &state).map_err(|e| format!("snapshot: {e}"))?;
                healed = elements;
            }
        }
        (elements, recovery.elements.len() as u64, healed)
    };
    if watermark.is_none() || healed > snapshot_elements {
        write_watermark(dir, healed).map_err(|e| format!("watermark: {e}"))?;
    }
    drop(WalWriter::create(dir, elements).map_err(|e| format!("wal: {e}"))?);
    drop(pass);
    Ok(RecoverTrace {
        snapshot_elements,
        replayed,
        engine: estimator,
    })
}
