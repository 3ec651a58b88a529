//! One run of one workload: the untraced passes behind the end-to-end
//! metrics, or the traced passes behind the per-layer ledger.

use crate::check::{close, same, Expect, Ledger};
use crate::inputs::InputFile;
use crate::metrics::{Samples, END_TO_END, PER_LAYER};
use crate::passes::{self, circuit_of, PassResult};
use crate::stats::{percentile, MIN_BEYOND};
use crate::trace::{self, Span};
use crate::traced::{self, DRIVER_SPANS};
use crate::workloads::{Engine, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every pass must yield this many chunks, so that at least
/// [`MIN_BEYOND`] chunk samples lie beyond its p99.
pub const MIN_CHUNKS: usize = 100 * MIN_BEYOND;

/// Cycles an untraced run makes even when `--seconds` is already spent.
const MIN_CYCLES: usize = 2;

/// Set-up-only repetitions per cycle (on top of each pass's own set-up).
const SETUP_REPS: usize = 16;

/// Resumes per cycle.
const RESUME_REPS: usize = 6;

/// Untraced/traced primary pass pairs of a traced run.
const TRACE_REPS: usize = 3;

/// Scratch directories of one run, removed when it ends.
pub struct Work {
    root: PathBuf,
    next: usize,
}

impl Work {
    /// A fresh scratch directory tree at `root`.
    pub fn new(root: PathBuf) -> std::io::Result<Self> {
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Work { root, next: 0 })
    }

    /// A path for a new, not yet existing directory.
    pub fn fresh(&mut self, what: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{what}-{}", self.next))
    }

    /// Removes a directory made under this tree (ignores absence).
    pub fn discard(&self, dir: &Path) {
        std::fs::remove_dir_all(dir).ok();
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in `BENCHMARK.json` order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Attempted and failed passes.
    pub ledger: Ledger,
    /// Human-readable detail lines.
    pub lines: Vec<String>,
    /// Recorded spans (traced runs), kept for writing out.
    pub spans: Vec<Span>,
}

fn bits(value: f64) -> u64 {
    value.to_bits()
}

/// The untraced run behind the end-to-end metrics.  Each cycle makes one
/// primary pass, one `.par2` pass, set-up-only repetitions and resumes of a
/// run killed between two checkpoints; the first cycle also continues one
/// resumed run to the end.  Cycles repeat until `seconds` have passed.
pub fn untraced(
    workload: &Workload,
    input: &InputFile,
    seconds: f64,
    expect: &mut Expect,
    work: &mut Work,
) -> Outcome {
    let mut ledger = Ledger::default();
    let mut primary: Vec<PassResult> = Vec::new();
    let mut par2: Vec<PassResult> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut resumes: Vec<f64> = Vec::new();
    let path = &input.path;

    let killed = work.fresh("killed");
    let fixture = passes::kill_pass(workload, Engine::Abacus, path, &killed);

    let start = Instant::now();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || start.elapsed().as_secs_f64() < seconds {
        for engine in [Engine::Abacus, Engine::Par2] {
            let dir = work.fresh("pass");
            let outcome =
                passes::run_pass(workload, engine, path, &dir).and_then(|(pass, driver)| {
                    let mut verdict = expect.bits(engine.label(), bits(pass.estimate));
                    if engine == Engine::Par2 {
                        if let Some(&abacus) = expect.seen().get("abacus") {
                            let abacus = f64::from_bits(abacus);
                            verdict = verdict.and(close("par2 vs abacus", pass.estimate, abacus));
                        }
                    }
                    if pass.chunk_ms.len() < MIN_CHUNKS {
                        verdict = verdict.and(Err(format!(
                            "{} chunks, fewer than {MIN_CHUNKS}",
                            pass.chunk_ms.len()
                        )));
                    }
                    if engine == Engine::Abacus && workload.views && expect.seen_report().is_none()
                    {
                        let circuit = circuit_of(driver.estimator()).ok_or("no circuit")?;
                        let lines = traced::report_lines(circuit.view_reports());
                        verdict = verdict.and(expect.report(&lines));
                    }
                    drop(driver);
                    verdict.map(|()| pass)
                });
            work.discard(&dir);
            let label = format!("{} pass {cycle}", engine.label());
            match outcome {
                Ok(pass) => {
                    ledger.record(&label, Ok(()));
                    if engine == Engine::Abacus {
                        setups.push(pass.setup_s);
                        primary.push(pass);
                    } else {
                        par2.push(pass);
                    }
                }
                Err(e) => ledger.record(&label, Err(e)),
            }
        }

        for _ in 0..SETUP_REPS {
            let dir = work.fresh("setup");
            match passes::setup_only(workload, Engine::Abacus, path, &dir) {
                Ok(seconds) => setups.push(seconds),
                Err(e) => ledger.record("set-up", Err(e)),
            }
            work.discard(&dir);
        }

        for rep in 0..RESUME_REPS {
            let dir = work.fresh("resume");
            let outcome = fixture
                .clone()
                .and_then(|()| passes::copy_dir(&killed, &dir))
                .and_then(|()| passes::resume(&dir))
                .and_then(|(seconds, recovery)| {
                    let checkpointer = recovery.checkpointer;
                    expect.bits("resume", bits(checkpointer.estimator().estimate()))?;
                    if cycle == 0 && rep == 0 {
                        let end = passes::continue_to_end(checkpointer, path)?;
                        expect.bits("durable", bits(end))?;
                        if let Some(&abacus) = expect.seen().get("abacus") {
                            same("resumed run vs uninterrupted", bits(end), abacus)?;
                        }
                    }
                    Ok(seconds)
                });
            work.discard(&dir);
            let label = format!("resume {cycle}.{rep}");
            match outcome {
                Ok(seconds) => {
                    resumes.push(seconds);
                    ledger.record(&label, Ok(()));
                }
                Err(e) => ledger.record(&label, Err(e)),
            }
        }
        cycle += 1;
    }
    work.discard(&killed);

    let median = |values: Vec<f64>| crate::stats::median(&values);
    let (abacus, par) = (TypicalPass::of(&primary), TypicalPass::of(&par2));
    let values = [
        median(setups),
        abacus.elements_per_s(),
        abacus.chunk_percentile(50),
        abacus.chunk_percentile(99),
        median(primary.iter().map(|p| p.peak_heap as f64 / 1e6).collect()),
        median(resumes),
        par.elements_per_s(),
        par.chunk_percentile(99),
        median(par2.iter().map(|p| p.peak_heap as f64 / 1e6).collect()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let chunk_count =
        |passes: &[PassResult]| -> usize { passes.iter().map(|p| p.chunk_ms.len()).sum() };
    let rates = |passes: &[PassResult]| -> String {
        let rates: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.0}", p.elements_per_s()))
            .collect();
        rates.join(" ")
    };
    let lines = vec![
        format!("elements_per_s by pass: abacus {}", rates(&primary)),
        format!("elements_per_s by pass: par2 {}", rates(&par2)),
        format!(
            "chunks: {} elements each; abacus {} samples over {} passes, par2 {} samples over {} passes",
            workload.chunk,
            chunk_count(&primary),
            primary.len(),
            chunk_count(&par2),
            par2.len()
        ),
    ];
    Outcome {
        metrics,
        ledger,
        lines,
        spans: Vec::new(),
    }
}

/// The typical pass of a run, built chunk by chunk: each chunk position's
/// median wall time over the run's passes of one engine, and the median
/// time after the last chunk (the final pull and `finish`).  Every pass
/// replays the same file, so a position holds the same work in each pass.
/// A machine disturbance that slows some passes at some moments moves a
/// position's median only when it hits most passes there, while the cost
/// of the work itself, including the chunks that are slow in every pass
/// (batch boundaries, checkpoints, hub elements), is kept.
struct TypicalPass {
    chunk_ms: Vec<f64>,
    stream_s: f64,
    elements: u64,
}

impl TypicalPass {
    fn of(passes: &[PassResult]) -> TypicalPass {
        let rows: Vec<&[f64]> = passes.iter().map(|p| p.chunk_ms.as_slice()).collect();
        let chunk_ms = crate::stats::positionwise_median(&rows);
        let after_ms = crate::stats::median(
            &passes
                .iter()
                .map(|p| p.stream_s * 1e3 - p.chunk_ms.iter().sum::<f64>())
                .collect::<Vec<_>>(),
        );
        TypicalPass {
            stream_s: (chunk_ms.iter().sum::<f64>() + after_ms) / 1e3,
            chunk_ms,
            elements: passes.first().map_or(0, |p| p.elements),
        }
    }

    fn elements_per_s(&self) -> f64 {
        self.elements as f64 / self.stream_s
    }

    fn chunk_percentile(&self, percent: usize) -> f64 {
        percentile(&self.chunk_ms, percent).unwrap_or(f64::NAN)
    }
}

/// Records spans around `f`.  Returns its result, the spans and the
/// wall time of the call on a clock of its own, ns.
fn recorded<T>(pass: u32, f: impl FnOnce() -> T) -> (T, Vec<Span>, u64) {
    trace::start();
    trace::set_pass(pass);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_nanos() as u64;
    (out, trace::stop(), wall)
}

/// Time the root span of a traced pass may leave uncovered: a share of the
/// call's own wall time, plus a fixed allowance for the work outside the
/// pass proper (returning results, dropping the engine).
const UNCOVERED_FRAC: f64 = 0.005;
const UNCOVERED_NS: u64 = 500_000;

/// One traced pass's spans: self-time totals by name and the wall time.
struct Ledgered {
    totals: std::collections::BTreeMap<&'static str, trace::Totals>,
    wall_ns: f64,
    setup_ns: f64,
}

impl Ledgered {
    /// Sums the spans of one pass.  Checks that they form one tree under a
    /// single root and that the root covers the call's wall time as the
    /// independent clock of [`recorded`] measured it.  (That self times plus
    /// the residual add up to the root's duration holds by construction.)
    fn of(spans: &[Span], call_ns: u64) -> Result<Ledgered, String> {
        let root = spans.first().ok_or("no spans recorded")?;
        if root.parent.is_some() || spans[1..].iter().any(|s| s.parent.is_none()) {
            return Err("the spans do not form a single tree".into());
        }
        let wall = root.end - root.start;
        let allowed = (call_ns as f64 * UNCOVERED_FRAC) as u64 + UNCOVERED_NS;
        if wall > call_ns || call_ns - wall > allowed {
            return Err(format!(
                "the root span covers {wall} ns of a {call_ns} ns call"
            ));
        }
        let own = trace::self_times(spans);
        Ok(Ledgered {
            totals: trace::totals(spans, &own),
            wall_ns: wall as f64,
            setup_ns: trace::durations(spans, "setup").iter().sum::<u64>() as f64,
        })
    }

    fn self_ns(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.self_ns as f64)
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.total_ns as f64)
    }

    fn count(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.count as f64)
    }

    /// Driver self time (everything no layer span covers) over wall time.
    fn residual_frac(&self) -> f64 {
        DRIVER_SPANS.iter().map(|n| self.self_ns(n)).sum::<f64>() / self.wall_ns
    }

    /// Elements per second from the first pull to the end of the pass.
    fn elements_per_s(&self, elements: u64) -> f64 {
        elements as f64 / ((self.wall_ns - self.setup_ns) / 1e9)
    }
}

const VIEW_SPANS: [(&str, &str); 5] = [
    ("view.peredge", "view.peredge.ns_per_element"),
    ("view.vertex", "view.vertex.ns_per_element"),
    ("view.clustering", "view.clustering.ns_per_element"),
    ("view.bitruss", "view.bitruss.ns_per_element"),
    ("view.anomaly", "view.anomaly.ns_per_element"),
];

/// Ledger metrics of the durable layers from a traced durable pass.
fn durable_metrics(s: &mut Samples, l: &Ledgered, spans: &[Span], t: &traced::DurableTrace) {
    let n = t.elements as f64;
    s.add(
        "wal.ns_per_append",
        l.self_ns("wal") / l.count("wal").max(1.0),
    );
    s.add("wal.busy_frac", l.self_ns("wal") / l.wall_ns);
    s.add("wal.bytes_per_element", t.wal_bytes as f64 / n);
    s.add(
        "wal.write_syscalls_per_element",
        t.write_syscalls as f64 / n,
    );
    let checkpoints: Vec<f64> = trace::durations(spans, "checkpoint")
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    s.add("checkpoint.count", checkpoints.len() as f64);
    s.add(
        "checkpoint.ms_p50",
        percentile(&checkpoints, 50).unwrap_or(0.0),
    );
    s.add(
        "checkpoint.ms_max",
        checkpoints.iter().copied().fold(0.0, f64::max),
    );
    s.add("checkpoint.busy_frac", l.self_ns("checkpoint") / l.wall_ns);
    s.add("checkpoint.snapshot_bytes", t.snapshot_bytes as f64);
}

/// Ledger metrics of the decomposed ABACUS (and circuit) layers.
fn abacus_metrics(s: &mut Samples, l: &Ledgered, t: &traced::AbacusTrace, views: bool) {
    let n = t.elements as f64;
    s.add("engine.self_ns_per_element", l.self_ns("engine") / n);
    s.add("sampler.ns_per_element", l.self_ns("sampler") / n);
    s.add("sampler.busy_frac", l.self_ns("sampler") / l.wall_ns);
    s.add(
        "sampler.accept_frac",
        t.accepted as f64 / t.inserts.max(1) as f64,
    );
    s.add(
        "sampler.heap_bytes_per_edge",
        t.sample_heap as f64 / t.sample_edges.max(1) as f64,
    );
    s.add("sampler.sample_edges", t.sample_edges as f64);
    s.add("count.ns_per_element", l.self_ns("count") / n);
    s.add("count.busy_frac", l.self_ns("count") / l.wall_ns);
    s.add(
        "count.comparisons_per_element",
        t.stats.comparisons as f64 / n,
    );
    s.add("count.hit_frac", t.hits as f64 / n);
    s.add(
        "count.butterflies_per_element",
        t.stats.discovered_butterflies as f64 / n,
    );
    if views {
        s.add("circuit.graph_ns_per_element", l.self_ns("circuit") / n);
        s.add("circuit.pairs_per_element", t.pairs as f64 / n);
        s.add("circuit.estimator_ns_per_element", l.total_ns("engine") / n);
        for (span, metric) in VIEW_SPANS {
            s.add(metric, l.self_ns(span) / n);
        }
    }
}

/// The traced run behind the per-layer ledger.
///
/// * Primary passes alternate untraced and traced, [`TRACE_REPS`] times
///   each; the traced ones must reproduce the untraced estimate and work
///   counters bit for bit (and, on `durable-ingest`, the checkpoint
///   directory file for file), and their root span must cover the call's
///   wall time.  `trace.overhead_frac` compares the two medians.
/// * The durable layers come from the primary pass on `durable-ingest`, and
///   from a traced run killed between two checkpoints elsewhere; the
///   sampler and count layers of `durable-ingest` come from one decomposed
///   pass over the same file and spec.
/// * A traced resume of the killed run gives the `recover.*` metrics, one
///   traced `.par2` pass the PARABACUS phases, and an untraced threads-1
///   pass the `t1_over_abacus` ratio.
pub fn traced(
    workload: &Workload,
    input: &InputFile,
    expect: &mut Expect,
    work: &mut Work,
) -> Outcome {
    let mut ledger = Ledger::default();
    let mut s = Samples::default();
    let mut kept_spans: Vec<Span> = Vec::new();
    let mut keep = |spans: Vec<Span>, first: bool| {
        if first {
            kept_spans.extend(spans);
        }
    };
    let path = &input.path;
    let mut untraced_eps = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_eps = Vec::new();
    let mut pass_id = 0u32;
    let mut untraced_report: Option<Vec<String>> = None;

    for rep in 0..TRACE_REPS {
        let dir = work.fresh("pass");
        let reference =
            passes::run_pass(workload, Engine::Abacus, path, &dir).and_then(|(p, d)| {
                if workload.views && untraced_report.is_none() {
                    let circuit = circuit_of(d.estimator()).ok_or("no circuit")?;
                    let lines = traced::report_lines(circuit.view_reports());
                    expect.report(&lines)?;
                    untraced_report = Some(lines);
                }
                expect.bits("abacus", bits(p.estimate)).map(|()| p)
            });
        // The checkpoint directory the real `Checkpointer` left, to hold
        // the traced durable pass's directory against.
        let reference = reference.and_then(|p| {
            let files = if workload.durable {
                passes::fingerprint(&dir)?
            } else {
                Vec::new()
            };
            Ok((p, files))
        });
        work.discard(&dir);
        let (reference, reference_files) = match reference {
            Ok((p, files)) => {
                ledger.record(&format!("untraced pass {rep}"), Ok(()));
                untraced_eps.push(p.elements_per_s());
                untraced_s.push(p.stream_s);
                (p, files)
            }
            Err(e) => {
                ledger.record(&format!("untraced pass {rep}"), Err(e));
                continue;
            }
        };

        pass_id += 1;
        let dir = work.fresh("traced");
        let outcome = if workload.durable {
            let (result, spans, call_ns) = recorded(pass_id, || {
                traced::durable_pass(workload, Engine::Abacus, path, &dir, None)
            });
            result.and_then(|t| {
                same(
                    "traced vs untraced",
                    bits(t.estimate),
                    bits(reference.estimate),
                )?;
                if passes::stats_of(&*t.engine) != reference.stats {
                    return Err("traced work counters differ from untraced".into());
                }
                passes::same_files(
                    "traced vs untraced",
                    &passes::fingerprint(&dir)?,
                    &reference_files,
                )?;
                let l = Ledgered::of(&spans, call_ns)?;
                let n = t.elements as f64;
                s.add("decode.ns_per_element", l.self_ns("decode") / n);
                s.add("decode.busy_frac", l.self_ns("decode") / l.wall_ns);
                s.add("engine.self_ns_per_element", l.self_ns("engine") / n);
                durable_metrics(&mut s, &l, &spans, &t);
                s.add("driver.residual_frac", l.residual_frac());
                traced_eps.push(l.elements_per_s(t.elements));
                keep(spans, rep == 0);
                Ok(())
            })
        } else {
            let (result, spans, call_ns) =
                recorded(pass_id, || traced::abacus_pass(workload, path));
            result.and_then(|t| {
                same(
                    "traced vs untraced",
                    bits(t.estimate),
                    bits(reference.estimate),
                )?;
                if Some(t.stats) != reference.stats {
                    return Err("traced work counters differ from untraced".into());
                }
                if workload.views && Some(&t.report()) != untraced_report.as_ref() {
                    return Err("traced view report differs from untraced".into());
                }
                let l = Ledgered::of(&spans, call_ns)?;
                let n = t.elements as f64;
                s.add("decode.ns_per_element", l.self_ns("decode") / n);
                s.add("decode.busy_frac", l.self_ns("decode") / l.wall_ns);
                abacus_metrics(&mut s, &l, &t, workload.views);
                s.add("driver.residual_frac", l.residual_frac());
                traced_eps.push(l.elements_per_s(t.elements));
                keep(spans, rep == 0);
                Ok(())
            })
        };
        work.discard(&dir);
        ledger.record(&format!("traced pass {rep}"), outcome);
    }
    s.add(
        "trace.overhead_frac",
        1.0 - crate::stats::median(&traced_eps) / crate::stats::median(&untraced_eps),
    );

    // Sampler and count layers of the durable workload: one decomposed,
    // non-durable pass over the same file and spec.
    if workload.durable {
        pass_id += 1;
        let (result, spans, call_ns) = recorded(pass_id, || traced::abacus_pass(workload, path));
        let outcome = result.and_then(|t| {
            let l = Ledgered::of(&spans, call_ns)?;
            let mut layer = Samples::default();
            abacus_metrics(&mut layer, &l, &t, false);
            for (name, _) in PER_LAYER {
                if name.starts_with("sampler.") || name.starts_with("count.") {
                    if let Some(v) = layer.median(name) {
                        s.add(name, v);
                    }
                }
            }
            expect.bits("abacus", bits(t.estimate))
        });
        ledger.record("decomposed pass", outcome);
    }

    // Recovery: a run killed between two checkpoints (traced on workloads
    // whose primary pass is not durable, and held against the directory an
    // untraced kill leaves), then one untraced and one traced resume of
    // copies of it.
    let killed = work.fresh("killed");
    let killed_untraced = work.fresh("killed");
    pass_id += 1;
    let kill = if workload.durable {
        passes::kill_pass(workload, Engine::Abacus, path, &killed)
    } else {
        let (result, spans, call_ns) = recorded(pass_id, || {
            traced::durable_pass(
                workload,
                Engine::Abacus,
                path,
                &killed,
                Some(workload.kill_at),
            )
        });
        result.and_then(|t| {
            passes::kill_pass(workload, Engine::Abacus, path, &killed_untraced)?;
            passes::same_files(
                "traced vs untraced kill",
                &passes::fingerprint(&killed)?,
                &passes::fingerprint(&killed_untraced)?,
            )?;
            let l = Ledgered::of(&spans, call_ns)?;
            durable_metrics(&mut s, &l, &spans, &t);
            keep(spans, true);
            Ok(())
        })
    };
    let untraced_dir = work.fresh("resume");
    let traced_dir = work.fresh("resume");
    pass_id += 1;
    let outcome = kill
        .and_then(|()| passes::copy_dir(&killed, &untraced_dir))
        .and_then(|()| passes::copy_dir(&killed, &traced_dir))
        .and_then(|()| passes::resume(&untraced_dir))
        .and_then(|(_, recovery)| {
            let expected = bits(recovery.checkpointer.estimator().estimate());
            expect.bits("resume", expected)?;
            let (snapshot_elements, replayed) = (recovery.snapshot_elements, recovery.replayed);
            drop(recovery);
            let (result, spans, call_ns) = recorded(pass_id, || traced::resume_pass(&traced_dir));
            let t = result?;
            same(
                "traced vs untraced resume",
                bits(t.engine.estimate()),
                expected,
            )?;
            if (t.snapshot_elements, t.replayed) != (snapshot_elements, replayed) {
                return Err(format!(
                    "traced resume loaded the snapshot at {} and replayed {}; \
                     Checkpointer::resume loaded {snapshot_elements} and replayed {replayed}",
                    t.snapshot_elements, t.replayed
                ));
            }
            passes::same_files(
                "traced vs untraced resume",
                &passes::fingerprint(&traced_dir)?,
                &passes::fingerprint(&untraced_dir)?,
            )?;
            let l = Ledgered::of(&spans, call_ns)?;
            s.add("recover.snapshot_load_ms", l.total_ns("recover.load") / 1e6);
            s.add(
                "recover.replay_ns_per_element",
                l.total_ns("recover.replay") / t.replayed.max(1) as f64,
            );
            keep(spans, true);
            Ok(())
        });
    ledger.record("resume", outcome);
    for dir in [&killed, &killed_untraced, &untraced_dir, &traced_dir] {
        work.discard(dir);
    }

    // PARABACUS: a traced threads-2 pass and an untraced threads-1 pass.
    pass_id += 1;
    let (result, spans, call_ns) =
        recorded(pass_id, || traced::par_pass(workload, Engine::Par2, path));
    let outcome = result.and_then(|t| {
        let par = t.parabacus()?;
        expect.bits("par2", bits(t.estimate))?;
        if let Some(&abacus) = expect.seen().get("abacus") {
            close("par2 vs abacus", t.estimate, f64::from_bits(abacus))?;
        }
        let l = Ledgered::of(&spans, call_ns)?;
        let wall_s = l.wall_ns / 1e9;
        s.add(
            "parabacus.phase1_busy_frac",
            par.phase_timings().sequential_seconds / wall_s,
        );
        s.add(
            "parabacus.phase2_busy_frac",
            par.phase_timings().counting_seconds / wall_s,
        );
        let loads: Vec<f64> = par.thread_workloads().iter().map(|&w| w as f64).collect();
        let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        s.add(
            "parabacus.worker_imbalance",
            loads.iter().copied().fold(0.0, f64::max) / mean,
        );
        s.add(
            "parabacus.replayed_ops_per_element",
            par.replayed_ops() as f64 / t.elements as f64,
        );
        keep(spans, true);
        Ok(())
    });
    ledger.record("traced par2 pass", outcome);

    let dir = work.fresh("pass");
    let outcome = passes::run_pass(workload, Engine::Par1, path, &dir).and_then(|(p, _)| {
        expect.bits("par1", bits(p.estimate))?;
        if let Some(&abacus) = expect.seen().get("abacus") {
            close("par1 vs abacus", p.estimate, f64::from_bits(abacus))?;
        }
        let abacus_s = crate::stats::median(&untraced_s);
        s.add("parabacus.t1_s", p.stream_s);
        s.add("parabacus.abacus_s", abacus_s);
        s.add("parabacus.t1_over_abacus", p.stream_s / abacus_s);
        Ok(())
    });
    work.discard(&dir);
    ledger.record("par1 pass", outcome);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, s.median(name).unwrap_or(0.0), unit))
        .collect();
    Outcome {
        metrics,
        ledger,
        lines: Vec::new(),
        spans: kept_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Reference;
    use abacus_stream::Dataset;

    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            dataset: Dataset::MovielensLike,
            scale: 1,
            alpha: 0.2,
            edge_prefix: Some(2_000),
            budget: 200,
            durable: false,
            views: false,
            chunk: 2,
            kill_at: 1_500,
        }
    }

    fn run(reference: Option<Reference>, tag: &str) -> (Ledger, Expect) {
        let workload = tiny();
        let root = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        let mut work = Work::new(root.join("scratch")).expect("scratch directory");
        let input = crate::inputs::write(&workload, 3, &root).expect("input");
        let mut expect = Expect::new(reference);
        let outcome = untraced(&workload, &input, 0.0, &mut expect, &mut work);
        drop(work);
        std::fs::remove_dir_all(&root).ok();
        (outcome.ledger, expect)
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn the_root_span_must_cover_the_call_as_its_own_clock_times_it() {
        let spans = [
            span("pass", 0, 1_000_000_000, None),
            span("chunk", 10, 20, Some(0)),
        ];
        assert!(Ledgered::of(&spans, 1_000_400_000).is_ok());
        // 10 ms of a 1 s call ran outside the root span.
        assert!(Ledgered::of(&spans, 1_010_000_000).is_err());
        // The root cannot outlast the call around it.
        assert!(Ledgered::of(&spans, 999_000_000).is_err());
        // A span outside the root makes a second tree.
        let forest = [span("pass", 0, 100, None), span("finish", 100, 120, None)];
        assert!(Ledgered::of(&forest, 120).is_err());
    }

    #[test]
    fn checkpoint_directories_compare_file_for_file() {
        let root = std::env::temp_dir().join(format!("perfbench-files-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for dir in [&a, &b] {
            std::fs::create_dir_all(dir).expect("directory");
            std::fs::write(dir.join("MANIFEST"), b"manifest").expect("file");
            std::fs::write(dir.join("wal-0"), b"records").expect("file");
        }
        let want = passes::fingerprint(&a).expect("fingerprint");
        assert!(passes::same_files(
            "same",
            &passes::fingerprint(&b).expect("fingerprint"),
            &want
        )
        .is_ok());
        std::fs::write(b.join("wal-0"), b"recordz").expect("file");
        assert!(passes::same_files(
            "content",
            &passes::fingerprint(&b).expect("fingerprint"),
            &want
        )
        .is_err());
        std::fs::write(b.join("wal-0"), b"records").expect("file");
        std::fs::write(b.join("wal-1"), b"").expect("file");
        assert!(passes::same_files(
            "extra",
            &passes::fingerprint(&b).expect("fingerprint"),
            &want
        )
        .is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_wrong_reference_fails_every_pass() {
        let (ledger, expect) = run(None, "self");
        assert_eq!(ledger.failed, 0, "{:?}", ledger.notes);
        assert!(ledger.attempted >= 10);

        let right = Reference {
            bits: expect.seen().clone(),
            report: None,
        };
        let (ledger, _) = run(Some(right.clone()), "right");
        assert_eq!(ledger.failed_frac(), 0.0, "{:?}", ledger.notes);

        let mut wrong = right;
        for bits in wrong.bits.values_mut() {
            *bits ^= 1;
        }
        let (ledger, _) = run(Some(wrong), "wrong");
        assert!(ledger.attempted >= 10);
        assert_eq!(ledger.failed_frac(), 1.0, "{:?}", ledger.notes);
    }
}
