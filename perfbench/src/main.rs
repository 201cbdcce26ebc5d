//! The repository's benchmark: four workloads measured from outside
//! the program, end to end and layer by layer.
//!
//! ```text
//! dynaquar-perfbench --workload <name|all> [--seed N] [--seconds S]
//!                    [--trace 0|1] [--out DIR]
//! ```
//!
//! Run it from the repository root (`bash perfbench/run.sh ...` builds
//! and runs it). Each workload's inputs are JSON specs generated from
//! `--seed`; they are written with the report to
//! `DIR/<workload>-seed<N>/` (default `perfbench/out`). With `--trace 0`
//! the end-to-end metrics are measured; with `--trace 1` a separate,
//! traced run times every call into each layer and accounts the layers
//! against the traced wall. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is non-zero if any output was wrong.

mod engine;
mod gate;
mod report;
mod rss;
mod serving;
mod stats;
mod trace;
mod workload;

use dynaquar_core::spec::{emit_json, parse_json, Value};
use report::{Catalogue, Recorder};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::{Layer, Spans};
use workload::Workload;

/// Environment overrides that would replace what `Auto` picks.
const OVERRIDES: [&str; 4] = [
    dynaquar_parallel::THREADS_ENV,
    dynaquar_netsim::shard::SHARDS_ENV,
    dynaquar_netsim::strategy::STRATEGY_ENV,
    dynaquar_topology::lazy::ROUTING_ENV,
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: dynaquar-perfbench --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: gate::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = OVERRIDES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run: {} set; the benchmark measures the defaults `Auto` resolves to",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if let [w] = args.workloads[..] {
        return match Catalogue::load(Path::new("BENCHMARK.json")) {
            Ok(cat) => run_one(w, &args, &cat),
            Err(e) => {
                eprintln!("{e}; run from the repository root");
                ExitCode::FAILURE
            }
        };
    }
    run_each(&argv, &args)
}

/// `--workload all`: each workload runs in its own child process, so
/// each has its own peak memory. The last line merges their results,
/// metric names prefixed by the workload.
fn run_each(argv: &[String], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut shared: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            shared.push(a);
        }
    }
    let (mut correct, mut attempted, mut failed) = (true, 0i64, 0i64);
    let mut metrics = Vec::new();
    for w in &args.workloads {
        let output = match Command::new(&exe)
            .args(&shared)
            .args(["--workload", w.name()])
            .output()
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let parsed = parse_json(last).ok();
        let get = |k: &str| parsed.as_ref().and_then(|v| v.get(k)).cloned();
        correct &= output.status.success() && get("correct") == Some(Value::Bool(true));
        attempted += get("attempted").and_then(|v| v.as_int()).unwrap_or(0);
        failed += get("failed").and_then(|v| v.as_int()).unwrap_or(1);
        if let Some(Value::Object(ms)) = get("metrics") {
            metrics.extend(
                ms.into_iter()
                    .map(|(k, v)| (format!("{}/{k}", w.name()), v)),
            );
        }
    }
    println!(
        "{}",
        emit_json(&Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Int(attempted)),
            ("failed".into(), Value::Int(failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_specs(dir: &Path, specs: &[String]) -> std::io::Result<()> {
    let mut text = String::new();
    for s in specs {
        let v = parse_json(s)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        text.push_str(&emit_json(&v));
        text.push('\n');
    }
    std::fs::write(dir.join("specs.jsonl"), text)
}

fn run_one(w: Workload, args: &Args, cat: &Catalogue) -> ExitCode {
    let dir = args.out.join(format!("{}-seed{}", w.name(), args.seed));
    let mut inputs: Vec<String> = (0..w.spec_count() as u64)
        .map(|k| w.spec(args.seed, k))
        .collect();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut rec = Recorder::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rec.info("nproc", nproc);
    let outcome = match (args.trace, w) {
        (true, _) => traced(cat, w, args.seed, &inputs, &dir, &mut rec),
        (false, Workload::ServeWhatif) => {
            serving::measure(w, args.seed, args.seconds, &dir, &mut rec).map(|used| inputs = used)
        }
        (false, _) => {
            untraced(w, args, &inputs, &mut rec);
            Ok(())
        }
    };
    if let Err(e) = outcome {
        rec.fail(e);
    }
    if let Err(e) = write_specs(&dir, &inputs) {
        eprintln!("cannot write the specs to {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    report::print_table(cat, w.name(), args.seed, args.trace, &rec);
    let file = dir.join(format!("report-trace{}.json", u8::from(args.trace)));
    if let Err(e) = report::write_file(cat, &file, w.name(), args.seed, args.trace, &rec) {
        eprintln!("cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    let correct = rec.failed == 0;
    match report::result_line(cat, args.trace, correct, &rec) {
        Ok(line) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The untraced engine workloads, and the pinned-digest check. The
/// report records the digest as `result_digest`, the value to pin.
fn untraced(w: Workload, args: &Args, inputs: &[String], rec: &mut Recorder) {
    let digest = engine::measure(w, args.seed, inputs, args.seconds, rec);
    rec.info("result_digest", format!("0x{digest:016x}"));
    if args.seed == gate::DEFAULT_SEED {
        let pinned = gate::pinned(w.name());
        rec.op(pinned == Some(digest), || {
            format!("result digest 0x{digest:016x} does not match the pinned {pinned:x?}")
        });
    }
}

/// The traced run: every layer exercised through its public API with
/// each call a span, then the layer self-times accounted against the
/// traced wall.
fn traced(
    cat: &Catalogue,
    w: Workload,
    seed: u64,
    inputs: &[String],
    dir: &Path,
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut spans = Spans::new();
    let reference = engine::measure_traced(w, seed, inputs, dir, &mut spans, rec)?;
    if w == Workload::ServeWhatif {
        let references = inputs
            .iter()
            .map(|t| spans.untraced(|| engine::streamed(t)))
            .collect::<Result<Vec<_>, _>>()?;
        serving::measure_traced(
            inputs,
            &references,
            None,
            workload::FORK_AT_TICK,
            dir,
            &mut spans,
            rec,
        )?;
    } else {
        let half = engine::horizon(&inputs[0])? / 2;
        let references = [(reference.result_json, reference.stream)];
        serving::measure_traced(
            &inputs[..1],
            &references,
            Some(half),
            half,
            dir,
            &mut spans,
            rec,
        )?;
    }

    for m in &cat.per_layer {
        let secs = spans.secs(&m.name);
        if !secs.is_empty() {
            rec.samples(&m.name, secs);
        }
    }
    let wall = spans.wall();
    let mut attributed = 0.0;
    for layer in Layer::ALL {
        let own = spans.self_time(layer);
        attributed += own;
        rec.value(layer.self_metric(), own);
    }
    rec.value("trace.wall_s", wall);
    rec.value("trace.unattributed_s", wall - attributed);
    rec.info(
        "layers_add_up",
        format!(
            "{attributed:.4} s in layers + {:.4} s unattributed = {wall:.4} s traced wall",
            wall - attributed
        ),
    );
    Ok(())
}
