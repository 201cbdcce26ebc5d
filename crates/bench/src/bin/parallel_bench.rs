//! Serial-vs-pooled ensemble benchmark for the deterministic parallel
//! runner.
//!
//! ```text
//! parallel_bench [--seeds N] [--horizon T] [--threads a,b,c] [--out FILE]
//! parallel_bench --check FILE [--tolerance PCT]
//! ```
//!
//! Runs the same seeded ensemble (default: 32 seeds on a 399-leaf star)
//! serially and on worker pools of increasing size, verifies every pooled
//! result is **bit-identical** to the serial one, and reports wall clock,
//! speedup, and mean worker utilization per thread count. The table is
//! printed and also written as JSON (default `results/BENCH_parallel.json`)
//! so speedup regressions are diffable.
//!
//! Two speedup columns, because one number misleads: the **ensemble**
//! speedup (serial wall / pooled wall) is capped at
//! `min(threads, seeds)` — with 2 seeds on an 8-thread pool it tops out
//! at 2×, which reads as a scaling failure when it's a scheduling
//! ceiling. The **per-run** speedup (serial wall / summed worker busy
//! time) measures what each run costs inside the pool: near 1.0 means
//! pooling adds no per-run overhead regardless of how many seeds there
//! were to schedule. Each row also records the `schedulable` ceiling so
//! a flat ensemble column is attributable at a glance.
//!
//! `--check FILE` is the CI guard: re-runs the largest recorded thread
//! count, always re-verifies bit-identity against the serial baseline,
//! and — only when the machine actually has that many hardware threads —
//! fails if the ensemble speedup regressed more than `--tolerance`
//! percent (default 30) against the recorded row. On smaller machines
//! the perf clause is reported as skipped, not silently passed.
//!
//! Exit code is nonzero if any pooled run diverges from the serial
//! baseline — the determinism contract is part of the benchmark.

use dynaquar_bench::json_f64;
use dynaquar_netsim::config::{SimConfig, WormBehavior};
use dynaquar_netsim::runner::{run_averaged_parallel, AveragedResult};
use dynaquar_netsim::World;
use dynaquar_parallel::ParallelConfig;
use dynaquar_topology::generators;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    seeds: usize,
    horizon: u64,
    threads: Vec<usize>,
    out: PathBuf,
    check: Option<PathBuf>,
    tolerance_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut seeds = 32usize;
    let mut horizon = 200u64;
    let mut threads = vec![2, 4, ParallelConfig::available().threads()];
    let mut out = PathBuf::from("results/BENCH_parallel.json");
    let mut check = None;
    let mut tolerance_pct = 30.0;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires an argument"))
        };
        match arg.as_str() {
            "--seeds" => seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--horizon" => horizon = value("--horizon")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                threads = value("--threads")?
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--check" => check = Some(PathBuf::from(value("--check")?)),
            "--tolerance" => {
                tolerance_pct = value("--tolerance")?.parse().map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: parallel_bench [--seeds N] [--horizon T] [--threads a,b,c] [--out FILE] \
                     | --check FILE [--tolerance PCT]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    threads.retain(|&t| t > 1);
    threads.sort_unstable();
    threads.dedup();
    Ok(Args {
        seeds,
        horizon,
        threads,
        out,
        check,
        tolerance_pct,
    })
}

/// The ensemble under test: the paper's quarantine-scale star with a
/// random worm — heavy enough that one run is milliseconds, the shape
/// every sweep in the repo uses.
fn scenario(horizon: u64) -> (World, SimConfig) {
    let world = World::from_star(generators::star(399).expect("valid star"));
    let config = SimConfig::builder()
        .beta(0.8)
        .horizon(horizon)
        .initial_infected(2)
        .build()
        .expect("valid config");
    (world, config)
}

struct Row {
    threads: usize,
    wall_secs: f64,
    /// Serial wall over pooled wall — capped at `schedulable`, so a
    /// flat value with few seeds is a ceiling, not a regression.
    ensemble_speedup: f64,
    /// Serial wall over summed worker busy time: what one run costs
    /// inside the pool, independent of how many runs there were.
    per_run_speedup: f64,
    /// `min(threads, seeds)`: the hard ceiling on `ensemble_speedup`.
    schedulable: usize,
    mean_utilization: f64,
    bit_identical: bool,
}

fn identical(a: &AveragedResult, b: &AveragedResult) -> bool {
    a.infected_fraction == b.infected_fraction
        && a.ever_infected_fraction == b.ever_infected_fraction
        && a.immunized_fraction == b.immunized_fraction
        && a.runs == b.runs
        && a.outcomes == b.outcomes
        && a.infected_envelope() == b.infected_envelope()
}

/// The recorded row with the largest thread count in a BENCH_parallel
/// report: `(threads, ensemble_speedup)`.
fn largest_recorded_row(text: &str) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for chunk in text.split("{\"threads\":").skip(1) {
        let row = format!("{{\"threads\":{chunk}");
        let threads = json_f64(&row, "threads")? as usize;
        let speedup = json_f64(&row, "ensemble_speedup")?;
        if best.is_none_or(|(t, _)| threads > t) {
            best = Some((threads, speedup));
        }
    }
    best
}

/// The `--check` CI guard: bit-identity always, the recorded ensemble
/// speedup only when this machine has the hardware to reproduce it.
fn run_check(baseline_path: &std::path::Path, args: &Args) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some((threads, recorded)) = largest_recorded_row(&text) else {
        eprintln!(
            "no pooled rows with an ensemble_speedup in {} — regenerate the baseline",
            baseline_path.display()
        );
        return ExitCode::FAILURE;
    };
    let seeds_recorded = json_f64(&text, "seeds").map_or(args.seeds, |s| s as usize);
    let (world, config) = scenario(args.horizon);
    let seeds: Vec<u64> = (0..seeds_recorded as u64).collect();

    let t0 = Instant::now();
    let baseline = run_averaged_parallel(
        &world,
        &config,
        WormBehavior::random(),
        &seeds,
        &ParallelConfig::serial(),
    );
    let serial_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let pooled = run_averaged_parallel(
        &world,
        &config,
        WormBehavior::random(),
        &seeds,
        &ParallelConfig::new(threads),
    );
    let wall_secs = t0.elapsed().as_secs_f64();
    if !identical(&baseline, &pooled) {
        eprintln!("REGRESSION: the {threads}-thread ensemble diverged from the serial baseline");
        return ExitCode::FAILURE;
    }
    println!("{threads}-thread ensemble bit-identical to the serial baseline");

    let hw_threads = ParallelConfig::available().threads();
    if hw_threads < threads {
        println!(
            "perf clause skipped: recorded row used {threads} threads, machine has {hw_threads}"
        );
        return ExitCode::SUCCESS;
    }
    let measured = serial_secs / wall_secs.max(1e-9);
    let pct = if recorded > 0.0 {
        (1.0 - measured / recorded) * 100.0
    } else {
        0.0
    };
    println!(
        "{threads} threads: ensemble speedup {measured:.2}x vs recorded {recorded:.2}x \
         (slowdown {pct:+.1}%, tolerance {:.1}%)",
        args.tolerance_pct
    );
    if pct > args.tolerance_pct {
        eprintln!(
            "REGRESSION: ensemble speedup fell {pct:.1}% > {:.1}% tolerance",
            args.tolerance_pct
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(baseline_path) = args.check.clone() {
        return run_check(&baseline_path, &args);
    }
    let (world, config) = scenario(args.horizon);
    let seeds: Vec<u64> = (0..args.seeds as u64).collect();
    let hw_threads = ParallelConfig::available().threads();

    println!(
        "parallel runner benchmark: {} seeds, horizon {}, star-399, {} hardware thread(s)",
        args.seeds, args.horizon, hw_threads
    );

    let t0 = Instant::now();
    let baseline = run_averaged_parallel(
        &world,
        &config,
        WormBehavior::random(),
        &seeds,
        &ParallelConfig::serial(),
    );
    let serial_secs = t0.elapsed().as_secs_f64();
    println!(
        "{:>8} {:>10} {:>9} {:>9} {:>12} {:>13} {:>14}",
        "threads", "wall (s)", "ensemble", "per-run", "schedulable", "utilization", "bit-identical"
    );
    println!(
        "{:>8} {:>10.3} {:>8.2}x {:>8.2}x {:>12} {:>12.1}% {:>14}",
        1, serial_secs, 1.0, 1.0, 1, 100.0, "baseline"
    );

    let mut rows = vec![Row {
        threads: 1,
        wall_secs: serial_secs,
        ensemble_speedup: 1.0,
        per_run_speedup: 1.0,
        schedulable: 1,
        mean_utilization: 1.0,
        bit_identical: true,
    }];
    let mut all_identical = true;
    for &threads in &args.threads {
        let t0 = Instant::now();
        let pooled = run_averaged_parallel(
            &world,
            &config,
            WormBehavior::random(),
            &seeds,
            &ParallelConfig::new(threads),
        );
        let wall_secs = t0.elapsed().as_secs_f64();
        let busy: f64 = pooled
            .workers
            .iter()
            .map(|w| w.busy.as_secs_f64())
            .sum::<f64>();
        let mean_utilization = if wall_secs > 0.0 {
            (busy / (wall_secs * pooled.workers.len() as f64)).min(1.0)
        } else {
            0.0
        };
        let bit_identical = identical(&baseline, &pooled);
        all_identical &= bit_identical;
        let ensemble_speedup = serial_secs / wall_secs;
        let per_run_speedup = serial_secs / busy.max(1e-9);
        let schedulable = threads.min(args.seeds);
        println!(
            "{:>8} {:>10.3} {:>8.2}x {:>8.2}x {:>12} {:>12.1}% {:>14}",
            threads,
            wall_secs,
            ensemble_speedup,
            per_run_speedup,
            schedulable,
            mean_utilization * 100.0,
            if bit_identical { "yes" } else { "NO" }
        );
        rows.push(Row {
            threads,
            wall_secs,
            ensemble_speedup,
            per_run_speedup,
            schedulable,
            mean_utilization,
            bit_identical,
        });
    }

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"parallel_runner\",\n");
    json.push_str("  \"topology\": \"star-399\",\n");
    json.push_str(&format!("  \"seeds\": {},\n", args.seeds));
    json.push_str(&format!("  \"horizon\": {},\n", args.horizon));
    json.push_str(&format!("  \"hardware_threads\": {hw_threads},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"wall_secs\": {:.6}, \"ensemble_speedup\": {:.4}, \
             \"per_run_speedup\": {:.4}, \"schedulable\": {}, \
             \"mean_utilization\": {:.4}, \"bit_identical\": {}}}{}\n",
            r.threads,
            r.wall_secs,
            r.ensemble_speedup,
            r.per_run_speedup,
            r.schedulable,
            r.mean_utilization,
            r.bit_identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = args.out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out.display());

    if !all_identical {
        eprintln!("DETERMINISM VIOLATION: a pooled run diverged from the serial baseline");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
