//! Instrumentation-overhead benchmark for the metrics/observer layer.
//!
//! ```text
//! observe_bench [--seeds N] [--horizon T] [--repeats R] [--out FILE]
//!               [--reference SECS] [--check FILE] [--tolerance PCT]
//! ```
//!
//! Runs the same seeded ensemble (default: 32 seeds on a 399-leaf star,
//! the `parallel_bench` workload) three ways — with the no-op
//! [`NullObserver`](dynaquar_netsim::observer::NullObserver), with a
//! tallying [`MetricsObserver`], and with a [`JsonlEventWriter`]
//! streaming every packet event into `io::sink()` — and reports the
//! wall clock of each, taking the minimum over `--repeats` rounds to
//! shake out scheduler noise. The packet ledger and phase profile of
//! the instrumented ensemble are embedded in the JSON report (default
//! `results/BENCH_observe.json`) so the cost of observation is diffable
//! alongside what was observed.
//!
//! `--reference SECS` records an externally measured wall for the same
//! ensemble on a pre-instrumentation build of the engine; the report
//! then includes the NullObserver overhead relative to it.
//!
//! `--check FILE` is the CI guard: instead of writing a report, it
//! re-measures the NullObserver wall and exits nonzero if it regressed
//! more than `--tolerance` percent (default 5) against the
//! `null_wall_secs` recorded in FILE.

use dynaquar_bench::json_f64;
use dynaquar_netsim::config::{SimConfig, WormBehavior};
use dynaquar_netsim::metrics::{JsonlEventWriter, MetricsObserver, PhaseProfile};
use dynaquar_netsim::sim::Simulator;
use dynaquar_netsim::World;
use dynaquar_topology::generators;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    seeds: usize,
    horizon: u64,
    repeats: usize,
    out: PathBuf,
    reference: Option<f64>,
    check: Option<PathBuf>,
    tolerance_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 32,
        horizon: 200,
        repeats: 5,
        out: PathBuf::from("results/BENCH_observe.json"),
        reference: None,
        check: None,
        tolerance_pct: 5.0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires an argument"))
        };
        match arg.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--horizon" => {
                args.horizon = value("--horizon")?.parse().map_err(|e| format!("{e}"))?
            }
            "--repeats" => {
                args.repeats = value("--repeats")?.parse().map_err(|e| format!("{e}"))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--reference" => {
                args.reference =
                    Some(value("--reference")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--check" => args.check = Some(PathBuf::from(value("--check")?)),
            "--tolerance" => {
                args.tolerance_pct =
                    value("--tolerance")?.parse().map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: observe_bench [--seeds N] [--horizon T] [--repeats R] \
                     [--out FILE] [--reference SECS] [--check FILE] [--tolerance PCT]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seeds == 0 || args.repeats == 0 {
        return Err("--seeds and --repeats must be at least 1".to_string());
    }
    Ok(Args { ..args })
}

/// Same ensemble as `parallel_bench`, so the serial NullObserver wall
/// here is directly comparable to that benchmark's serial baseline.
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

/// Minimum wall over `repeats` rounds of running the full ensemble
/// through `run_one`.
fn measure<F: FnMut(u64)>(seeds: usize, repeats: usize, mut run_one: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        for seed in 0..seeds as u64 {
            run_one(seed);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn overhead_pct(wall: f64, base: f64) -> f64 {
    if base > 0.0 {
        (wall / base - 1.0) * 100.0
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (world, config) = scenario(args.horizon);

    println!(
        "observer overhead benchmark: {} seeds, horizon {}, star-399, best of {} round(s)",
        args.seeds, args.horizon, args.repeats
    );

    let null_wall = measure(args.seeds, args.repeats, |seed| {
        let _ = Simulator::new(&world, &config, WormBehavior::random(), seed).run();
    });

    // CI guard mode: only the NullObserver wall matters.
    if let Some(baseline_path) = &args.check {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let Some(baseline) = json_f64(&text, "null_wall_secs") else {
            eprintln!(
                "no null_wall_secs in {} — regenerate the baseline",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        };
        let pct = overhead_pct(null_wall, baseline);
        println!(
            "NullObserver wall {null_wall:.3}s vs recorded {baseline:.3}s ({pct:+.1}%, \
             tolerance {:.1}%)",
            args.tolerance_pct
        );
        if pct > args.tolerance_pct {
            eprintln!(
                "REGRESSION: NullObserver path slowed {pct:.1}% > {:.1}% tolerance",
                args.tolerance_pct
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let metrics_wall = measure(args.seeds, args.repeats, |seed| {
        let mut obs = MetricsObserver::default();
        let _ = Simulator::new(&world, &config, WormBehavior::random(), seed)
            .run_observed(&mut obs);
    });
    let jsonl_wall = measure(args.seeds, args.repeats, |seed| {
        let mut w = JsonlEventWriter::new(std::io::sink());
        let _ = Simulator::new(&world, &config, WormBehavior::random(), seed)
            .run_observed(&mut w);
    });

    // One instrumented pass to report what the counters actually saw.
    let mut accounting = dynaquar_netsim::metrics::PacketAccounting::default();
    let mut phases = PhaseProfile::default();
    let mut events = 0u64;
    for seed in 0..args.seeds as u64 {
        let mut w = JsonlEventWriter::new(std::io::sink());
        let r = Simulator::new(&world, &config, WormBehavior::random(), seed)
            .run_observed(&mut w);
        accounting.merge(&r.accounting);
        phases.merge(&r.phases);
        events += w.events_written();
    }

    let metrics_pct = overhead_pct(metrics_wall, null_wall);
    let jsonl_pct = overhead_pct(jsonl_wall, null_wall);
    println!("{:>22} {:>10} {:>10}", "observer", "wall (s)", "overhead");
    println!("{:>22} {:>10.3} {:>9.1}%", "NullObserver", null_wall, 0.0);
    println!(
        "{:>22} {:>10.3} {:>9.1}%",
        "MetricsObserver", metrics_wall, metrics_pct
    );
    println!(
        "{:>22} {:>10.3} {:>9.1}%",
        "JsonlEventWriter(sink)", jsonl_wall, jsonl_pct
    );
    if let Some(reference) = args.reference {
        println!(
            "pre-instrumentation reference {reference:.3}s → NullObserver overhead {:+.1}%",
            overhead_pct(null_wall, reference)
        );
    }
    println!("{}", accounting.total());
    println!("{phases}");

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"observer_overhead\",\n");
    json.push_str("  \"topology\": \"star-399\",\n");
    json.push_str(&format!("  \"seeds\": {},\n", args.seeds));
    json.push_str(&format!("  \"horizon\": {},\n", args.horizon));
    json.push_str(&format!("  \"repeats\": {},\n", args.repeats));
    json.push_str(&format!("  \"null_wall_secs\": {null_wall:.6},\n"));
    json.push_str(&format!("  \"metrics_wall_secs\": {metrics_wall:.6},\n"));
    json.push_str(&format!("  \"jsonl_sink_wall_secs\": {jsonl_wall:.6},\n"));
    json.push_str(&format!(
        "  \"metrics_overhead_pct\": {metrics_pct:.2},\n"
    ));
    json.push_str(&format!("  \"jsonl_overhead_pct\": {jsonl_pct:.2},\n"));
    if let Some(reference) = args.reference {
        json.push_str(&format!(
            "  \"pre_instrumentation_wall_secs\": {reference:.6},\n"
        ));
        json.push_str(&format!(
            "  \"null_overhead_vs_pre_instrumentation_pct\": {:.2},\n",
            overhead_pct(null_wall, reference)
        ));
    }
    json.push_str(&format!("  \"jsonl_events\": {events},\n"));
    let w = accounting.total();
    json.push_str(&format!(
        "  \"packets\": {{\"emitted\": {}, \"delivered\": {}, \"filtered\": {}, \
         \"lost\": {}, \"unroutable\": {}, \"cleared\": {}, \"conserved\": {}}},\n",
        w.emitted,
        w.delivered,
        w.filtered,
        w.lost,
        w.unroutable,
        w.cleared,
        accounting.is_conserved()
    ));
    json.push_str("  \"phases\": [\n");
    let entries = phases.entries();
    for (i, (phase, spent)) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"phase\": \"{}\", \"secs\": {:.6}, \"fraction\": {:.4}}}{}\n",
            phase.label(),
            spent.as_secs_f64(),
            phases.fraction(*phase),
            if i + 1 < entries.len() { "," } else { "" }
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
    ExitCode::SUCCESS
}
