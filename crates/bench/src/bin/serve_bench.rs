//! Serving-layer benchmark: job throughput through an in-process
//! [`Daemon`] and the cost of streaming fan-out to live subscribers.
//!
//! ```text
//! serve_bench [--jobs N] [--horizon T] [--repeats R] [--subscribers S]
//!             [--out FILE] [--check FILE] [--tolerance PCT]
//! ```
//!
//! Two legs, both verified for bit-identity against direct
//! [`Simulator`] runs of the same specs before any number is reported:
//!
//! * **throughput** — `--jobs` small star worlds (distinct seeds) are
//!   first run directly and serially as the engine-only reference, then
//!   submitted together to a daemon and awaited; the report records
//!   jobs/s through the daemon and the serving overhead relative to
//!   the serial direct wall (negative when the worker pool wins).
//! * **fan-out** — one fully instrumented dynamic-quarantine star
//!   (dense event stream) runs served with zero subscribers and again
//!   with `--subscribers` concurrent drained subscribers; the delta is
//!   the fan-out overhead, and every subscriber's bytes must equal the
//!   direct run's JSONL stream.
//!
//! `--check FILE` is the CI guard: it re-runs both identity checks and
//! re-measures throughput, failing if jobs/s dropped more than
//! `--tolerance` percent (default 60 — serving walls are short and
//! scheduler-noisy) below the `jobs_per_sec` recorded in FILE.

use dynaquar_bench::json_f64;
use dynaquar_core::spec::{parse_json, scenario_from_value, Value};
use dynaquar_netsim::metrics::JsonlEventWriter;
use dynaquar_netsim::sim::{SimResult, Simulator};
use dynaquar_serve::{pump_stream, Daemon, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    jobs: usize,
    horizon: u64,
    repeats: usize,
    subscribers: usize,
    out: PathBuf,
    check: Option<PathBuf>,
    tolerance_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: 24,
        horizon: 50,
        repeats: 3,
        subscribers: 4,
        out: PathBuf::from("results/BENCH_serve.json"),
        check: None,
        tolerance_pct: 60.0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires an argument"))
        };
        match arg.as_str() {
            "--jobs" => args.jobs = value("--jobs")?.parse().map_err(|e| format!("{e}"))?,
            "--horizon" => {
                args.horizon = value("--horizon")?.parse().map_err(|e| format!("{e}"))?
            }
            "--repeats" => {
                args.repeats = value("--repeats")?.parse().map_err(|e| format!("{e}"))?
            }
            "--subscribers" => {
                args.subscribers = value("--subscribers")?.parse().map_err(|e| format!("{e}"))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--check" => args.check = Some(PathBuf::from(value("--check")?)),
            "--tolerance" => {
                args.tolerance_pct = value("--tolerance")?.parse().map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: serve_bench [--jobs N] [--horizon T] [--repeats R] \
                     [--subscribers S] [--out FILE] [--check FILE] [--tolerance PCT]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.jobs == 0 || args.repeats == 0 {
        return Err("--jobs and --repeats must be at least 1".to_string());
    }
    Ok(Args { ..args })
}

/// One small throughput job: a bare star epidemic, distinct seed per
/// job so the daemon schedules genuinely different work.
fn small_spec(horizon: u64, seed: u64) -> Value {
    parse_json(&format!(
        r#"{{
            "topology": {{"kind": "star", "leaves": 99}},
            "beta": 0.8, "horizon": {horizon}, "initial_infected": 1,
            "runs": 1, "seed": {seed}
        }}"#
    ))
    .expect("throughput spec is valid")
}

/// The fan-out job: the fully instrumented dynamic-quarantine star, so
/// the subscriber stream carries the densest event mix the engine emits.
fn fanout_spec() -> Value {
    parse_json(
        r#"{
            "topology": {"kind": "star", "leaves": 199},
            "beta": 0.8, "horizon": 200, "initial_infected": 2,
            "deployment": {"hosts": 1.0},
            "params": {"host_window_ticks": 200, "host_max_new_targets": 1,
                       "host_release_period_ticks": 10},
            "quarantine": {"queue_threshold": 3},
            "runs": 1, "seed": 21
        }"#,
    )
    .expect("fan-out spec is valid")
}

/// Direct engine run of a spec: the reference result and JSONL stream.
fn direct_run(spec: &Value) -> (SimResult, Vec<u8>) {
    let scenario = scenario_from_value(spec).expect("bench spec is valid");
    let world = scenario.build_world();
    let config = scenario.sim_config_for(&world);
    let sim = Simulator::try_new(&world, &config, scenario.worm_behavior(), scenario.base_seed())
        .expect("bench spec must start");
    let mut writer = JsonlEventWriter::new(Vec::new());
    let result = sim.run_observed(&mut writer);
    (result, writer.finish().expect("reference stream"))
}

fn temp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dq-serve-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits `specs` to a fresh daemon, waits for all, returns the wall
/// and verifies every served result against its direct reference.
fn served_batch_wall(specs: &[Value], direct: &[SimResult]) -> Result<f64, String> {
    let state = temp_state("throughput");
    let daemon = Daemon::open(ServeConfig::new(&state)).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(specs.len());
    for spec in specs {
        ids.push(daemon.submit(spec, None).map_err(|e| e.to_string())?);
    }
    for id in &ids {
        daemon.wait(id).map_err(|e| format!("{id}: {e}"))?;
    }
    let wall = t0.elapsed().as_secs_f64();
    for (id, reference) in ids.iter().zip(direct) {
        let served = daemon
            .result_sim(id)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("{id}: no result"))?;
        if &served != reference {
            return Err(format!("{id}: served result diverged from the direct run"));
        }
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
    Ok(wall)
}

/// Runs the fan-out job once with `subscribers` concurrent drained
/// subscribers; returns the wall. Every subscriber's bytes must equal
/// the direct stream.
fn fanout_wall(spec: &Value, subscribers: usize, direct_stream: &[u8]) -> Result<f64, String> {
    let state = temp_state("fanout");
    let daemon = Daemon::open(ServeConfig::new(&state)).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let id = daemon.submit(spec, None).map_err(|e| e.to_string())?;
    let mut pumps = Vec::new();
    for _ in 0..subscribers {
        let rx = daemon.subscribe(&id).map_err(|e| e.to_string())?;
        pumps.push(std::thread::spawn(move || {
            let mut bytes = Vec::new();
            pump_stream(rx, &mut bytes).map(|stats| (bytes, stats))
        }));
    }
    daemon.wait(&id).map_err(|e| e.to_string())?;
    for (i, pump) in pumps.into_iter().enumerate() {
        let (bytes, _stats) = pump
            .join()
            .map_err(|_| format!("subscriber {i} panicked"))?
            .map_err(|e| format!("subscriber {i}: {e}"))?;
        if bytes != direct_stream {
            return Err(format!("subscriber {i} stream diverged from the direct run"));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
    Ok(wall)
}

fn overhead_pct(wall: f64, base: f64) -> f64 {
    if base > 0.0 {
        (wall / base - 1.0) * 100.0
    } else {
        0.0
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    println!(
        "serving benchmark: {} jobs (star-99, horizon {}), {} subscriber(s), best of {} round(s)",
        args.jobs, args.horizon, args.subscribers, args.repeats
    );

    // Engine-only reference: each throughput job run directly, serially.
    let specs: Vec<Value> = (0..args.jobs as u64)
        .map(|seed| small_spec(args.horizon, seed))
        .collect();
    let t0 = Instant::now();
    let direct: Vec<SimResult> = specs.iter().map(|s| direct_run(s).0).collect();
    let direct_wall = t0.elapsed().as_secs_f64();

    // Served throughput, best of repeats; identity verified every round.
    let mut served_wall = f64::INFINITY;
    for _ in 0..args.repeats {
        served_wall = served_wall.min(served_batch_wall(&specs, &direct)?);
    }
    let jobs_per_sec = args.jobs as f64 / served_wall;
    let serving_pct = overhead_pct(served_wall, direct_wall);
    println!(
        "throughput: {jobs_per_sec:.1} jobs/s served ({served_wall:.3}s) vs {direct_wall:.3}s \
         serial direct ({serving_pct:+.1}%)"
    );

    // CI guard mode: identity already verified above; gate on jobs/s.
    if let Some(baseline_path) = &args.check {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
        let baseline = json_f64(&text, "jobs_per_sec").ok_or_else(|| {
            format!(
                "no jobs_per_sec in {} — regenerate the baseline",
                baseline_path.display()
            )
        })?;
        let drop_pct = (1.0 - jobs_per_sec / baseline) * 100.0;
        println!(
            "jobs/s {jobs_per_sec:.1} vs recorded {baseline:.1} ({drop_pct:+.1}% drop, \
             tolerance {:.1}%)",
            args.tolerance_pct
        );
        if drop_pct > args.tolerance_pct {
            eprintln!(
                "REGRESSION: serving throughput dropped {drop_pct:.1}% > {:.1}% tolerance",
                args.tolerance_pct
            );
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Fan-out overhead: 0 subscribers vs S drained subscribers.
    let fanout = fanout_spec();
    let (_, direct_stream) = direct_run(&fanout);
    let mut base_wall = f64::INFINITY;
    let mut subs_wall = f64::INFINITY;
    for _ in 0..args.repeats {
        base_wall = base_wall.min(fanout_wall(&fanout, 0, &direct_stream)?);
        subs_wall = subs_wall.min(fanout_wall(&fanout, args.subscribers, &direct_stream)?);
    }
    let fanout_pct = overhead_pct(subs_wall, base_wall);
    println!(
        "fan-out: {base_wall:.3}s with 0 subscribers, {subs_wall:.3}s with {} \
         ({fanout_pct:+.1}%), streams bit-identical",
        args.subscribers
    );

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"serving_layer\",\n");
    json.push_str(&format!("  \"jobs\": {},\n", args.jobs));
    json.push_str(&format!("  \"job_horizon\": {},\n", args.horizon));
    json.push_str(&format!("  \"repeats\": {},\n", args.repeats));
    json.push_str(&format!("  \"subscribers\": {},\n", args.subscribers));
    json.push_str(&format!("  \"direct_serial_wall_secs\": {direct_wall:.6},\n"));
    json.push_str(&format!("  \"served_wall_secs\": {served_wall:.6},\n"));
    json.push_str(&format!("  \"jobs_per_sec\": {jobs_per_sec:.3},\n"));
    json.push_str(&format!("  \"serving_overhead_pct\": {serving_pct:.2},\n"));
    json.push_str(&format!("  \"fanout_base_wall_secs\": {base_wall:.6},\n"));
    json.push_str(&format!("  \"fanout_subs_wall_secs\": {subs_wall:.6},\n"));
    json.push_str(&format!("  \"fanout_overhead_pct\": {fanout_pct:.2},\n"));
    json.push_str("  \"bit_identical\": true\n}\n");

    if let Some(dir) = args.out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&args.out, json)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
