//! Direct engine runs: spec text -> ready `Simulator` -> `SimResult`,
//! the runner ensemble, and their traced counterparts.

use crate::gate::{digest, Fnv};
use crate::report::Recorder;
use crate::rss;
use crate::stats::Summary;
use crate::trace::{Layer, Spans};
use crate::workload::{sim_seed, Workload};
use dynaquar_core::spec::{parse_json, scenario_from_value, Value};
use dynaquar_core::Scenario;
use dynaquar_netsim::observer::NullObserver;
use dynaquar_netsim::runner::run_averaged_parallel;
use dynaquar_netsim::{
    JsonlEventWriter, ParallelConfig, SimConfig, SimResult, Simulator, Snapshot, World,
};
use dynaquar_serve::{deep_merge, result_to_json};
use dynaquar_topology::generators::{self, SubnetTopologyBuilder};
use dynaquar_topology::graph::NodeId;
use dynaquar_topology::lazy::RoutingKind;
use std::path::Path;
use std::time::Instant;

/// One untraced spec -> result pass.
pub struct Pass {
    pub setup: f64,
    pub run: f64,
    pub result_json: String,
    pub backend: &'static str,
    pub strategy: String,
}

fn scenario_of(text: &str) -> Result<Scenario, String> {
    parse_json(text)
        .and_then(|v| scenario_from_value(&v))
        .map_err(|e| format!("spec rejected: {e}"))
}

/// The horizon of a spec, in ticks.
pub fn horizon(text: &str) -> Result<u64, String> {
    scenario_of(text).map(|s| s.horizon_ticks())
}

/// Spec text -> ready `Simulator` (timed as set-up) -> `SimResult`
/// with a `NullObserver` (timed as the run).
pub fn direct(text: &str) -> Result<Pass, String> {
    let t0 = Instant::now();
    let scenario = scenario_of(text)?;
    let world = scenario.build_world();
    let config = scenario.sim_config_for(&world);
    let mut sim = Simulator::try_new(
        &world,
        &config,
        scenario.worm_behavior(),
        scenario.base_seed(),
    )
    .map_err(|e| format!("simulator refused the spec: {e}"))?;
    let strategy = sim.resolved_strategy();
    let t1 = Instant::now();
    sim.run_until(scenario.horizon_ticks(), &mut NullObserver);
    let result = sim.finish();
    let run = t1.elapsed().as_secs_f64();
    Ok(Pass {
        setup: (t1 - t0).as_secs_f64(),
        run,
        result_json: result_to_json(&result),
        backend: world.routing().backend_name(),
        strategy: strategy.to_string(),
    })
}

/// The direct result of running `text` with a `JsonlEventWriter`: the
/// reference a served job's result and subscriber stream must equal.
pub fn streamed(text: &str) -> Result<(String, Vec<u8>), String> {
    let scenario = scenario_of(text)?;
    let world = scenario.build_world();
    let config = scenario.sim_config_for(&world);
    let sim = Simulator::try_new(
        &world,
        &config,
        scenario.worm_behavior(),
        scenario.base_seed(),
    )
    .map_err(|e| e.to_string())?;
    let mut writer = JsonlEventWriter::new(Vec::new());
    let result = sim.run_observed(&mut writer);
    let stream = writer.finish().map_err(|e| e.to_string())?;
    Ok((result_to_json(&result), stream))
}

/// The direct result of forking `text` at `fork_tick` under
/// `overrides`: run to the tick, snapshot, resume under the merged
/// spec, run to its horizon.
pub fn forked(text: &str, overrides: &Value, fork_tick: u64) -> Result<String, String> {
    let base = parse_json(text).map_err(|e| e.to_string())?;
    let scenario = scenario_from_value(&base).map_err(|e| e.to_string())?;
    let merged = scenario_from_value(&deep_merge(&base, overrides)).map_err(|e| e.to_string())?;
    let world = scenario.build_world();
    let config = scenario.sim_config_for(&world);
    let mut sim = Simulator::try_new(
        &world,
        &config,
        scenario.worm_behavior(),
        scenario.base_seed(),
    )
    .map_err(|e| e.to_string())?;
    sim.run_until(fork_tick, &mut NullObserver);
    let snap = sim.snapshot();
    let fork_config = merged.sim_config_for(&world);
    let fork = Simulator::resume_with(&world, &fork_config, merged.worm_behavior(), &snap)
        .map_err(|e| e.to_string())?;
    Ok(result_to_json(&fork.run()))
}

/// Untraced measurement of an engine workload: spec -> result passes
/// cycling over the inputs until the time share is used (every input
/// at least once, the first twice), each with its own peak memory,
/// then, on `paper-powerlaw-1k`, the 32-seed ensemble for the rest of
/// the time.
pub fn measure(w: Workload, seed: u64, specs: &[String], seconds: f64, rec: &mut Recorder) -> u64 {
    let ensemble = w == Workload::PaperPowerlaw1k;
    let share = if ensemble { 0.6 * seconds } else { seconds };
    let start = Instant::now();
    let mut first: Vec<Option<u64>> = vec![None; specs.len()];
    let mut combined = Fnv::new();
    let mut i = 0;
    while i <= specs.len() || start.elapsed().as_secs_f64() < share {
        let k = i % specs.len();
        let reset = rss::reset_peak();
        match direct(&specs[k]) {
            Ok(pass) => {
                // Without a reset the reading is the process's peak,
                // not this pass's: count it as failed, not as a sample.
                match (&reset, rss::peak_mb()) {
                    (Ok(()), Some(mb)) => rec.sample("peak_rss_mb", mb),
                    (Err(e), _) => rec.fail(format!("peak RSS not reset before pass {i}: {e}")),
                    (Ok(()), None) => rec.fail("VmHWM is not readable".into()),
                }
                if i == 0 {
                    rec.info("routing_backend", pass.backend);
                    rec.info("resolved_strategy", &pass.strategy);
                }
                rec.sample("setup_s", pass.setup);
                rec.sample("run_s", pass.run);
                rec.sample("job_p50_s", pass.setup + pass.run);
                let d = digest(pass.result_json.as_bytes());
                match first[k] {
                    None => {
                        first[k] = Some(d);
                        combined.update(pass.result_json.as_bytes());
                        rec.op(true, String::new);
                    }
                    Some(f) => rec.op(f == d, || {
                        format!("input {k}: pass {i} digest {d:016x} differs from {f:016x}")
                    }),
                }
            }
            Err(e) => rec.fail(format!("input {k}: {e}")),
        }
        i += 1;
    }
    if ensemble {
        run_ensembles(w, seed, &specs[0], &first, start, seconds, rec);
    }
    combined.finish()
}

/// Repeats the 32-seed ensemble until `seconds` have passed since
/// `start` (at least once). Each run of a seed that is also a direct
/// input must equal that input's direct result.
fn run_ensembles(
    w: Workload,
    seed: u64,
    spec: &str,
    direct: &[Option<u64>],
    start: Instant,
    seconds: f64,
    rec: &mut Recorder,
) {
    let scenario = match scenario_of(spec) {
        Ok(s) => s,
        Err(e) => return rec.fail(e),
    };
    let world = scenario.build_world();
    let config = scenario.sim_config_for(&world);
    let seeds: Vec<u64> = (0..32).map(|k| sim_seed(seed, w, k)).collect();
    let threads = ParallelConfig::available();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let avg =
            run_averaged_parallel(&world, &config, scenario.worm_behavior(), &seeds, &threads);
        rec.sample("ensemble_s", t0.elapsed().as_secs_f64());
        let same = direct
            .iter()
            .zip(&avg.runs)
            .all(|(d, run)| d.is_none_or(|d| digest(result_to_json(run).as_bytes()) == d));
        rec.op(avg.runs.len() == seeds.len() && same, || {
            format!("ensemble {n}: a run differs from the direct run of its seed")
        });
        n += 1;
    }
}

/// A world built and configured under spans.
pub struct Built {
    pub scenario: Scenario,
    pub world: World,
    pub config: SimConfig,
}

fn field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_int)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("topology.{key} missing"))
}

/// Spec text -> configured world, each layer call in its own span. The
/// topology is generated and wrapped exactly as `Scenario::build_world`
/// does, so the two calls can be timed apart.
pub fn build_traced(spans: &mut Spans, text: &str) -> Result<Built, String> {
    let (value, scenario) = spans
        .time(Layer::Core, "core.spec_parse_s", || {
            parse_json(text).and_then(|v| scenario_from_value(&v).map(|s| (v, s)))
        })
        .map_err(|e| format!("spec rejected: {e}"))?;
    let topo = value.get("topology").ok_or("spec has no topology")?;
    let auto = RoutingKind::Auto;
    let world = match topo.get("kind").and_then(Value::as_str) {
        Some("power_law") => {
            let (n, m, s) = (
                field(topo, "nodes")?,
                field(topo, "edges_per_node")?,
                field(topo, "seed")?,
            );
            let graph = spans
                .time(Layer::Topology, "topology.generate_s", || {
                    generators::barabasi_albert(n as usize, m as usize, s)
                })
                .map_err(|e| e.to_string())?;
            spans.time(Layer::Topology, "topology.world_build_s", || {
                World::from_power_law_with(graph, 0.05, 0.10, auto)
            })
        }
        Some("subnets") => {
            let (b, s, h) = (
                field(topo, "backbone")?,
                field(topo, "subnets")?,
                field(topo, "hosts_per_subnet")?,
            );
            let subnets = spans
                .time(Layer::Topology, "topology.generate_s", || {
                    SubnetTopologyBuilder::new()
                        .backbone_routers(b as usize)
                        .subnets(s as usize)
                        .hosts_per_subnet(h as usize)
                        .build()
                })
                .map_err(|e| e.to_string())?;
            spans.time(Layer::Topology, "topology.world_build_s", || {
                World::from_subnets_with(subnets, auto)
            })
        }
        Some("star") => {
            let leaves = field(topo, "leaves")?;
            let star = spans
                .time(Layer::Topology, "topology.generate_s", || {
                    generators::star(leaves as usize)
                })
                .map_err(|e| e.to_string())?;
            spans.time(Layer::Topology, "topology.world_build_s", || {
                World::from_star_with(star, auto)
            })
        }
        other => return Err(format!("unknown topology kind {other:?}")),
    };
    let config = spans.time(Layer::Core, "core.plan_build_s", || {
        scenario.sim_config_for(&world)
    });
    Ok(Built {
        scenario,
        world,
        config,
    })
}

/// One traced spec -> result pass: one `run_until` per tick.
struct TracedRun {
    result: SimResult,
    run_wall: f64,
}

fn run_traced(spans: &mut Spans, b: &Built) -> Result<TracedRun, String> {
    let mut sim = spans
        .time(Layer::Netsim, "netsim.sim_new_s", || {
            Simulator::try_new(
                &b.world,
                &b.config,
                b.scenario.worm_behavior(),
                b.scenario.base_seed(),
            )
        })
        .map_err(|e| e.to_string())?;
    let mut run_wall = 0.0;
    for t in 1..=b.scenario.horizon_ticks() {
        let t0 = Instant::now();
        spans.time(Layer::Netsim, "netsim.tick", || {
            sim.run_until(t, &mut NullObserver)
        });
        run_wall += t0.elapsed().as_secs_f64();
    }
    let result = spans.time(Layer::Netsim, "netsim.finish_s", || sim.finish());
    Ok(TracedRun { result, run_wall })
}

/// Reference outputs of input 0 the served part of the traced run is
/// checked against.
pub struct Reference {
    pub result_json: String,
    pub stream: Vec<u8>,
}

/// Traced measurement of the engine layers on a workload's inputs.
/// Returns the reference outputs of input 0.
pub fn measure_traced(
    w: Workload,
    seed: u64,
    specs: &[String],
    out: &Path,
    spans: &mut Spans,
    rec: &mut Recorder,
) -> Result<Reference, String> {
    let passes = match w {
        Workload::PaperPowerlaw1k => 8,
        Workload::OutbreakSubnet100k => 4,
        Workload::FlatPowerlaw20k => 3,
        Workload::ServeWhatif => 24,
    };
    // Untraced and traced spec -> result passes, interleaved, on the
    // same inputs: their ratio is the tracing overhead, and each traced
    // result must equal the untraced one.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..passes {
        let text = &specs[i % specs.len()];
        let pass = spans.untraced(|| direct(text))?;
        if i == 0 {
            rec.info("routing_backend", pass.backend);
            rec.info("resolved_strategy", &pass.strategy);
        }
        plain.push(pass.setup + pass.run);
        let t0 = Instant::now();
        let built = build_traced(spans, text)?;
        let run = run_traced(spans, &built)?;
        traced.push(t0.elapsed().as_secs_f64());
        let json = result_to_json(&run.result);
        rec.op(json == pass.result_json, || {
            format!("traced pass {i} differs from the untraced pass")
        });
        let r = &run.result;
        let phases = &r.phases;
        for (metric, took) in [
            ("netsim.phase.forward_packets_s", phases.forward_packets),
            ("netsim.phase.generate_scans_s", phases.generate_scans),
            (
                "netsim.phase.release_delayed_scans_s",
                phases.release_delayed_scans,
            ),
            ("netsim.phase.apply_faults_s", phases.apply_faults),
            (
                "netsim.phase.generate_background_s",
                phases.generate_background,
            ),
        ] {
            rec.sample(metric, took.as_secs_f64());
        }
        rec.sample(
            "netsim.phase.untimed_s",
            run.run_wall - phases.total().as_secs_f64(),
        );
        let emitted = r.accounting.worm.emitted + r.accounting.background.emitted;
        let delivered = r.accounting.worm.delivered + r.accounting.background.delivered;
        rec.sample("netsim.packets_emitted", emitted as f64);
        rec.sample("netsim.packets_delivered", delivered as f64);
        rec.sample(
            "netsim.delivered_frac",
            delivered as f64 / emitted.max(1) as f64,
        );
        rec.sample(
            "netsim.ns_per_packet",
            run.run_wall * 1e9 / emitted.max(1) as f64,
        );
    }
    let overhead = Summary::of(&traced).map_or(0.0, |s| s.median)
        / Summary::of(&plain).map_or(1.0, |s| s.median)
        - 1.0;
    rec.value("trace.overhead_frac", overhead);
    let tick_summary = Summary::of(&spans.secs("netsim.tick")).ok_or("no ticks were traced")?;
    rec.value("netsim.tick_p50_s", tick_summary.median);
    rec.value(
        "netsim.tick_tail_s",
        tick_summary.tail.map_or(tick_summary.q3, |t| t.1),
    );

    route_lookups(spans, &specs[0], seed, rec)?;
    let reference = jsonl_and_snapshot(spans, &specs[0], out, rec)?;
    runner_batch(w, seed, spans, &specs[0], rec)?;
    Ok(reference)
}

/// Times `try_next_hop` over a seeded sample of host pairs on a freshly
/// built world: a cold pass, then the same pairs again warm.
fn route_lookups(
    spans: &mut Spans,
    text: &str,
    seed: u64,
    rec: &mut Recorder,
) -> Result<(), String> {
    const PAIRS: usize = 512;
    let built = build_traced(spans, text)?;
    let hosts = built.world.hosts();
    let mut state = seed ^ 0x5DEE_CE66_D1CE_5EED;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        hosts[(state % hosts.len() as u64) as usize]
    };
    let pairs: Vec<(NodeId, NodeId)> = (0..PAIRS).map(|_| (next(), next())).collect();
    let routing = built.world.routing();
    for (name, metric) in [
        (
            "topology.route_lookup_cold",
            "topology.route_lookup_cold_ns",
        ),
        (
            "topology.route_lookup_warm",
            "topology.route_lookup_warm_ns",
        ),
    ] {
        let t0 = Instant::now();
        let found = spans.time(Layer::Topology, name, || {
            pairs
                .iter()
                .filter(|(s, d)| routing.try_next_hop(*s, *d).is_ok())
                .count()
        });
        rec.value(metric, t0.elapsed().as_secs_f64() * 1e9 / PAIRS as f64);
        rec.op(found == PAIRS, || {
            format!("{name}: {} lookups failed", PAIRS - found)
        });
    }
    Ok(())
}

/// The JSONL observer's cost (the same run with a `JsonlEventWriter`
/// into memory, minus the `NullObserver` run) and the snapshot path at
/// mid-horizon: encode, write, read, resume, and run on to the end.
fn jsonl_and_snapshot(
    spans: &mut Spans,
    text: &str,
    out: &Path,
    rec: &mut Recorder,
) -> Result<Reference, String> {
    let built = build_traced(spans, text)?;
    let (b, behavior, seed) = (
        &built,
        built.scenario.worm_behavior(),
        built.scenario.base_seed(),
    );
    let new_sim =
        || Simulator::try_new(&b.world, &b.config, behavior, seed).map_err(|e| e.to_string());
    let (mut null_walls, mut jsonl_walls) = (Vec::new(), Vec::new());
    let mut reference = None;
    for _ in 0..2 {
        let sim = new_sim()?;
        let t0 = Instant::now();
        let plain = spans.time(Layer::Netsim, "netsim.run_null", || sim.run());
        null_walls.push(t0.elapsed().as_secs_f64());
        let sim = new_sim()?;
        let mut writer = JsonlEventWriter::new(Vec::new());
        let t0 = Instant::now();
        let observed = spans.time(Layer::Netsim, "netsim.run_jsonl", || {
            sim.run_observed(&mut writer)
        });
        jsonl_walls.push(t0.elapsed().as_secs_f64());
        let stream = writer.finish().map_err(|e| e.to_string())?;
        rec.op(plain == observed, || {
            "the JSONL-observed run differs from the plain run".into()
        });
        rec.value("netsim.jsonl_bytes", stream.len() as f64);
        reference = Some(Reference {
            result_json: result_to_json(&plain),
            stream,
        });
    }
    let median = |xs: &[f64]| Summary::of(xs).map_or(0.0, |s| s.median);
    rec.value(
        "netsim.jsonl_overhead_s",
        median(&jsonl_walls) - median(&null_walls),
    );
    let reference = reference.ok_or("no JSONL run")?;

    let mid = b.scenario.horizon_ticks() / 2;
    let mut sim = new_sim()?;
    spans.time(Layer::Netsim, "netsim.run_segment", || {
        sim.run_until(mid, &mut NullObserver)
    });
    let (snap, bytes) = spans.time(Layer::Netsim, "netsim.snapshot_encode_s", || {
        let snap = sim.snapshot();
        let bytes = snap.to_bytes();
        (snap, bytes)
    });
    rec.value("netsim.snapshot_bytes", bytes.len() as f64);
    let path = out.join("mid-horizon.dqsnap");
    spans
        .time(Layer::Netsim, "netsim.snapshot_write_s", || {
            snap.write_atomic(&path)
        })
        .map_err(|e| e.to_string())?;
    let read = spans
        .time(Layer::Netsim, "netsim.snapshot_read_s", || {
            Snapshot::read(&path)
        })
        .map_err(|e| e.to_string())?;
    let mut resumed = spans
        .time(Layer::Netsim, "netsim.resume_s", || {
            Simulator::resume(&b.world, &b.config, behavior, &read)
        })
        .map_err(|e| e.to_string())?;
    let horizon = b.scenario.horizon_ticks();
    spans.time(Layer::Netsim, "netsim.run_segment", || {
        resumed.run_until(horizon, &mut NullObserver)
    });
    let result = spans.time(Layer::Netsim, "netsim.finish_s", || resumed.finish());
    rec.op(result_to_json(&result) == reference.result_json, || {
        "the run resumed at mid-horizon differs from the uninterrupted run".into()
    });
    let _ = std::fs::remove_file(&path);
    Ok(reference)
}

/// One `run_averaged_parallel` batch with threads = nproc: 32 seeds on
/// the small worlds, one per thread on the large ones.
fn runner_batch(
    w: Workload,
    seed: u64,
    spans: &mut Spans,
    text: &str,
    rec: &mut Recorder,
) -> Result<(), String> {
    let built = build_traced(spans, text)?;
    let threads = ParallelConfig::available();
    let count = match w {
        Workload::OutbreakSubnet100k | Workload::FlatPowerlaw20k => threads.threads() as u64,
        Workload::PaperPowerlaw1k | Workload::ServeWhatif => 32,
    };
    let seeds: Vec<u64> = (0..count).map(|k| sim_seed(seed, w, k)).collect();
    let avg = spans.time(Layer::Netsim, "runner.batch", || {
        run_averaged_parallel(
            &built.world,
            &built.config,
            built.scenario.worm_behavior(),
            &seeds,
            &threads,
        )
    });
    let batch = avg.batch_wall.as_secs_f64();
    let walls: Vec<f64> = avg.timings.iter().map(|t| t.wall.as_secs_f64()).collect();
    rec.value("runner.batch_wall_s", batch);
    rec.value(
        "runner.run_wall_p50_s",
        Summary::of(&walls).map_or(0.0, |s| s.median),
    );
    rec.value(
        "runner.parallel_efficiency",
        walls.iter().sum::<f64>() / (batch * threads.threads() as f64),
    );
    rec.op(avg.runs.len() == seeds.len(), || {
        "the runner dropped a run".into()
    });
    Ok(())
}
