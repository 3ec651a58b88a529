//! Untraced passes: the calls `abacus run` makes, in its order —
//! `open_path_source`, then `EstimatorSpec::build` / `build_with_views` or
//! `Checkpointer::create`, then the pull-and-process loop, then `finish`.
//!
//! The loop stages a fixed-size chunk and hands it to the engine element by
//! element, exactly as `ButterflyCounter::process_source_chunked` (and so
//! `run --chunk`) does, so each chunk can be timed on its own.

use crate::alloc;
use crate::workloads::{Engine, Workload};
use abacus_core::{
    Abacus, ButterflyCounter, Checkpointer, Circuit, ParAbacus, ProcessingStats, Recovery,
};
use abacus_stream::{open_path_source, ElementSource, StreamElement};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The circuit type `EstimatorSpec::build_with_views` returns.
pub type BoxedCircuit = Circuit<Box<dyn ButterflyCounter + Send>>;

/// What one pass measured and produced.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Pass start to the first chunk pull, seconds.
    pub setup_s: f64,
    /// First chunk pull to `finish` returning, seconds.
    pub stream_s: f64,
    /// Elements processed.
    pub elements: u64,
    /// Wall time of every full or partial chunk, ms.
    pub chunk_ms: Vec<f64>,
    /// Peak heap above the pass's baseline, bytes.
    pub peak_heap: usize,
    /// Final estimate.
    pub estimate: f64,
    /// Work counters of the ABACUS or PARABACUS inside the engine.
    pub stats: Option<ProcessingStats>,
}

impl PassResult {
    /// Stream elements per second.
    pub fn elements_per_s(&self) -> f64 {
        self.elements as f64 / self.stream_s
    }
}

/// The engine a pass drives: a bare or circuit-hosted estimator, or the
/// durable `Checkpointer` path.
pub enum Driver {
    /// `run` without `--checkpoint-dir`.
    Plain(Box<dyn ButterflyCounter + Send>),
    /// `run --checkpoint-dir`.
    Durable(Box<Checkpointer>),
}

impl Driver {
    /// Builds the engine as `run` does; `dir` is used by the durable path.
    pub fn build(workload: &Workload, engine: Engine, dir: &Path) -> Result<Driver, String> {
        if workload.durable {
            Checkpointer::create(dir, workload.manifest(engine))
                .map(|c| Driver::Durable(Box::new(c)))
                .map_err(|e| format!("Checkpointer::create: {e}"))
        } else {
            let spec = workload.spec(engine);
            let views = workload.view_kinds();
            Ok(Driver::Plain(if views.is_empty() {
                spec.build()
            } else {
                spec.build_with_views(&views)
            }))
        }
    }

    /// Hands one element to the engine.
    pub fn offer(&mut self, element: StreamElement) -> Result<(), String> {
        match self {
            Driver::Plain(counter) => {
                counter.process(element);
                Ok(())
            }
            Driver::Durable(checkpointer) => checkpointer
                .offer(element)
                .map_err(|e| format!("Checkpointer::offer: {e}")),
        }
    }

    /// Finishes the run and returns the final estimate.
    pub fn finish(&mut self) -> Result<f64, String> {
        match self {
            Driver::Plain(counter) => Ok(counter.finish()),
            Driver::Durable(checkpointer) => checkpointer
                .finish()
                .map_err(|e| format!("Checkpointer::finish: {e}")),
        }
    }

    /// The estimator (or circuit) inside.
    pub fn estimator(&self) -> &dyn ButterflyCounter {
        match self {
            Driver::Plain(counter) => &**counter,
            Driver::Durable(checkpointer) => checkpointer.estimator(),
        }
    }
}

/// The circuit inside `counter`, if it is one.
pub fn circuit_of(counter: &dyn ButterflyCounter) -> Option<&BoxedCircuit> {
    counter.as_any()?.downcast_ref::<BoxedCircuit>()
}

/// The PARABACUS inside `counter`, through a circuit if needed.
pub fn parabacus_of(counter: &dyn ButterflyCounter) -> Option<&ParAbacus> {
    match circuit_of(counter) {
        Some(circuit) => parabacus_of(&**circuit.estimator()),
        None => counter.as_any()?.downcast_ref::<ParAbacus>(),
    }
}

/// Work counters of the ABACUS or PARABACUS inside `counter`.
pub fn stats_of(counter: &dyn ButterflyCounter) -> Option<ProcessingStats> {
    if let Some(circuit) = circuit_of(counter) {
        return stats_of(&**circuit.estimator());
    }
    let any = counter.as_any()?;
    any.downcast_ref::<Abacus>()
        .map(Abacus::stats)
        .or_else(|| any.downcast_ref::<ParAbacus>().map(ParAbacus::stats))
}

/// Pulls up to `chunk` elements into `buf`.
pub fn pull(
    source: &mut dyn ElementSource,
    chunk: usize,
    buf: &mut Vec<StreamElement>,
) -> Result<(), String> {
    buf.clear();
    while buf.len() < chunk {
        match source.next_element() {
            Some(Ok(element)) => buf.push(element),
            Some(Err(e)) => return Err(format!("source: {e}")),
            None => break,
        }
    }
    Ok(())
}

/// One untraced pass of `engine` over `input`.  Returns the measurements
/// and the finished engine (dropped by the caller, outside the timing).
pub fn run_pass(
    workload: &Workload,
    engine: Engine,
    input: &Path,
    dir: &Path,
) -> Result<(PassResult, Driver), String> {
    let baseline = alloc::reset_peak();
    let start = Instant::now();
    let mut source = open_path_source(input).map_err(|e| format!("open: {e}"))?;
    let mut driver = Driver::build(workload, engine, dir)?;
    let setup_s = start.elapsed().as_secs_f64();

    let stream_start = Instant::now();
    let mut buf = Vec::with_capacity(workload.chunk);
    let mut chunk_ms = Vec::new();
    let mut elements = 0u64;
    loop {
        let chunk_start = Instant::now();
        pull(&mut *source, workload.chunk, &mut buf)?;
        for &element in &buf {
            driver.offer(element)?;
        }
        if buf.is_empty() {
            break;
        }
        chunk_ms.push(chunk_start.elapsed().as_secs_f64() * 1e3);
        elements += buf.len() as u64;
        if buf.len() < workload.chunk {
            break;
        }
    }
    let estimate = driver.finish()?;
    let stream_s = stream_start.elapsed().as_secs_f64();
    let peak_heap = alloc::peak().saturating_sub(baseline);
    let stats = stats_of(driver.estimator());
    Ok((
        PassResult {
            setup_s,
            stream_s,
            elements,
            chunk_ms,
            peak_heap,
            estimate,
            stats,
        },
        driver,
    ))
}

/// Set-up alone: open the input, build the engine (or create the
/// checkpoint directory) and pull nothing.  Returns seconds.
pub fn setup_only(
    workload: &Workload,
    engine: Engine,
    input: &Path,
    dir: &Path,
) -> Result<f64, String> {
    let start = Instant::now();
    let source = open_path_source(input).map_err(|e| format!("open: {e}"))?;
    let driver = Driver::build(workload, engine, dir)?;
    let elapsed = start.elapsed().as_secs_f64();
    drop((source, driver));
    Ok(elapsed)
}

/// Leaves a checkpoint directory behind as a killed `run --checkpoint-dir`
/// would: the first `workload.kill_at` elements offered, then the
/// checkpointer dropped without `finish`.
pub fn kill_pass(
    workload: &Workload,
    engine: Engine,
    input: &Path,
    dir: &Path,
) -> Result<(), String> {
    let mut checkpointer = Checkpointer::create(dir, workload.manifest(engine))
        .map_err(|e| format!("Checkpointer::create: {e}"))?;
    let mut source = open_path_source(input).map_err(|e| format!("open: {e}"))?;
    for _ in 0..workload.kill_at {
        let element = source
            .next_element()
            .ok_or("input shorter than the kill point")?
            .map_err(|e| format!("source: {e}"))?;
        checkpointer
            .offer(element)
            .map_err(|e| format!("Checkpointer::offer: {e}"))?;
    }
    drop(checkpointer);
    Ok(())
}

/// Times `Checkpointer::resume` on `dir`.  Returns seconds and the
/// recovery.
pub fn resume(dir: &Path) -> Result<(f64, Recovery), String> {
    let start = Instant::now();
    let recovery = Checkpointer::resume(dir).map_err(|e| format!("Checkpointer::resume: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    Ok((elapsed, recovery))
}

/// Continues a resumed run over the rest of `input` and finishes it.
/// Returns the final estimate.
pub fn continue_to_end(mut checkpointer: Checkpointer, input: &Path) -> Result<f64, String> {
    let mut source = open_path_source(input).map_err(|e| format!("open: {e}"))?;
    let mut position = 0u64;
    while let Some(next) = source.next_element() {
        let element = next.map_err(|e| format!("source: {e}"))?;
        if position >= checkpointer.elements() {
            checkpointer
                .offer(element)
                .map_err(|e| format!("Checkpointer::offer: {e}"))?;
        }
        position += 1;
    }
    checkpointer
        .finish()
        .map_err(|e| format!("Checkpointer::finish: {e}"))
}

/// Copies the regular files of `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target: PathBuf = to.join(entry.file_name());
        std::fs::copy(entry.path(), &target).map_err(|e| format!("copy: {e}"))?;
    }
    Ok(())
}

/// Name, size and CRC-32 of every file in a directory, sorted by name.
pub type Fingerprint = Vec<(String, u64, u32)>;

/// The [`Fingerprint`] of `dir`.
pub fn fingerprint(dir: &Path) -> Result<Fingerprint, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let bytes = std::fs::read(entry.path()).map_err(|e| format!("read: {e}"))?;
        out.push((
            entry.file_name().to_string_lossy().into_owned(),
            bytes.len() as u64,
            abacus_graph::persist::crc32(&bytes),
        ));
    }
    out.sort();
    Ok(out)
}

/// Checks that two checkpoint directories hold the same files, byte for
/// byte as far as size and CRC-32 tell.
pub fn same_files(what: &str, got: &Fingerprint, want: &Fingerprint) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let first = got.iter().zip(want).find(|(a, b)| a != b).map_or_else(
        || format!("{} files vs {}", got.len(), want.len()),
        |(a, b)| format!("{a:?} vs {b:?}"),
    );
    Err(format!("{what}: checkpoint directories differ, {first}"))
}
