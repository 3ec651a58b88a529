//! `perfbench` — the end-to-end benchmark of the path `abacus run` executes:
//! ABST1 decode, WAL append, Random Pairing, counting, views, checkpoint.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! perfbench --workload <name> --seed <n> --print-reference
//! perfbench compare <results-a> <results-b>
//! ```
//!
//! A run generates the workload's ABST1 input from the seed (outside every
//! timed region), replays it in a closed loop — one client pulls the next
//! fixed-size chunk only after the previous one is processed — and checks
//! every output.  With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it runs the traced passes and reports the per-layer ledger.
//! The last line of standard output is the JSON result; the lines before it
//! and `.bench_work/results/` hold the details (input CRC, estimate bits,
//! chunk sample counts, failures, spans).

mod alloc;
mod check;
mod inputs;
mod measure;
mod metrics;
mod passes;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where runs keep their inputs, scratch directories and results, relative
/// to the working directory.
const WORK_ROOT: &str = ".bench_work";

struct Options {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_reference = false;
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::find(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--print-reference" => {
                print_reference = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_reference,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        parse(&args).and_then(|options| run(&options))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(options: &Options) -> Result<(), String> {
    let workload = &options.workload;
    let root = PathBuf::from(WORK_ROOT);
    let tag = format!(
        "{}-seed{}-trace{}",
        workload.name,
        options.seed,
        u8::from(options.trace)
    );
    let mut work = measure::Work::new(root.join("scratch").join(&tag))
        .map_err(|e| format!("scratch directory: {e}"))?;
    let input = inputs::write(workload, options.seed, &root.join("inputs"))
        .map_err(|e| format!("writing the input: {e}"))?;

    let reference = if options.print_reference {
        None
    } else {
        check::Reference::committed(workload.name, workload.views, options.seed)
    };
    let mut expect = check::Expect::new(reference);
    let outcome = if options.trace {
        measure::traced(workload, &input, &mut expect, &mut work)
    } else {
        measure::untraced(workload, &input, options.seconds, &mut expect, &mut work)
    };
    drop(work);
    std::fs::remove_file(&input.path).ok();

    let mut lines = vec![
        format!(
            "workload {} seed {} trace {}",
            workload.name,
            options.seed,
            u8::from(options.trace)
        ),
        format!(
            "input_crc32 {:#010x} elements {} deletions {}",
            input.crc32, input.elements, input.deletions
        ),
    ];
    for (kind, bits) in expect.seen() {
        lines.push(format!("estimate {kind} {bits:#018x}"));
    }
    if let Some(report) = expect.seen_report() {
        let joined = report.join("\n");
        lines.push(format!(
            "view_report_crc32 {:#010x}",
            abacus_graph::persist::crc32(joined.as_bytes())
        ));
    }
    lines.extend(outcome.lines.iter().cloned());
    let ledger = &outcome.ledger;
    lines.push(format!(
        "failed_frac {} ({} of {} passes)",
        ledger.failed_frac(),
        ledger.failed,
        ledger.attempted
    ));
    lines.extend(ledger.notes.iter().map(|note| format!("failure {note}")));
    for (name, value, unit) in &outcome.metrics {
        lines.push(format!("metric {name} {value:?} {unit}"));
    }

    let results = root.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("results directory: {e}"))?;
    std::fs::write(results.join(format!("{tag}.txt")), lines.join("\n") + "\n")
        .map_err(|e| format!("results file: {e}"))?;
    if !outcome.spans.is_empty() {
        trace::write_tsv(&outcome.spans, &results.join(format!("{tag}.spans.tsv")))
            .map_err(|e| format!("spans file: {e}"))?;
    }

    if options.print_reference {
        for (kind, bits) in expect.seen() {
            println!("{} {kind} {bits:#018x}", workload.name);
        }
        for line in expect.seen_report().unwrap_or_default() {
            println!("{line}");
        }
        return Ok(());
    }
    for line in &lines {
        println!("{line}");
    }
    let correct = ledger.failed == 0 && ledger.attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, ledger.attempted, ledger.failed, &outcome.metrics)
    );
    Ok(())
}

/// Reads `key value…` lines of a results file.
fn read_results(path: &Path) -> Result<Vec<Vec<String>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect())
}

/// `compare A B`: per-metric change from results file A to B.  Refuses
/// when the two runs replayed different inputs.
fn compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    let (a, b) = (read_results(Path::new(a))?, read_results(Path::new(b))?);
    let field = |lines: &[Vec<String>], key: &str| {
        lines
            .iter()
            .find(|l| l.first().map(String::as_str) == Some(key))
            .and_then(|l| l.get(1).cloned())
    };
    let (crc_a, crc_b) = (field(&a, "input_crc32"), field(&b, "input_crc32"));
    if crc_a.is_none() || crc_a != crc_b {
        return Err(format!(
            "input CRCs differ ({} vs {}): the runs replayed different inputs",
            crc_a.unwrap_or_default(),
            crc_b.unwrap_or_default()
        ));
    }
    for line in a
        .iter()
        .filter(|l| l.first().map(String::as_str) == Some("metric"))
    {
        let [_, name, value, unit] = line.as_slice() else {
            continue;
        };
        let Some(other) = b
            .iter()
            .find(|l| l.get(1) == Some(name) && l[0] == "metric")
        else {
            continue;
        };
        let (x, y): (f64, f64) = (
            value.parse().map_err(|_| "bad metric value")?,
            other[2].parse().map_err(|_| "bad metric value")?,
        );
        println!(
            "{name:<40} {x:>14.6} -> {y:>14.6} {unit:<8} ({:+.1}%)",
            (y / x - 1.0) * 100.0
        );
    }
    Ok(())
}
