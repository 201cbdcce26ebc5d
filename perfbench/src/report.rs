//! The metric catalogue (read from `BENCHMARK.json`), the recorder that collects samples, and the
//! report: a table on standard output, a JSON file next to the specs,
//! and the one-line result that ends the output.

use crate::stats::Summary;
use dynaquar_core::spec::{emit_json, parse_json, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// A metric `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// The metrics `BENCHMARK.json` declares: the gated `end_to_end` ones,
/// carried by an untraced run's result line, and the `per_layer` ones,
/// carried by a traced run's.
#[derive(Debug)]
pub struct Catalogue {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Catalogue {
    /// Reads the catalogue from `BENCHMARK.json` at `path`.
    pub fn load(path: &Path) -> Result<Catalogue, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let section = |key: &str| -> Result<Vec<Declared>, String> {
            let Some(Value::Array(items)) = doc.get(key) else {
                return Err(format!("{}: `{key}` is not a list", path.display()));
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| {
                                format!("{}: a `{key}` metric has no `{f}`", path.display())
                            })
                    };
                    Ok(Declared {
                        name: field("name")?,
                        unit: field("unit")?,
                        better: field("better")?,
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            end_to_end: section("end_to_end")?,
            per_layer: section("per_layer")?,
        })
    }

    fn declared(&self, name: &str) -> Option<&Declared> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// End-to-end metrics reported where the workload has the operation
/// but not gated, since not every workload has them: name, unit and
/// direction.
pub const REPORTED: &[(&str, &str, &str)] = &[
    ("job_tail_s", "s", "lower"),
    ("fork_p50_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("ensemble_s", "s", "lower"),
    ("failed_frac", "fraction", "lower"),
];

/// What each end-to-end metric measures.
#[rustfmt::skip]
const ABOUT: &[(&str, &str)] = &[
    ("setup_s", "spec text -> ready Simulator; serve-whatif: Daemon::open + Server::bind -> first ping reply"),
    ("run_s", "ready Simulator -> SimResult (NullObserver); serve-whatif: the direct run of a job spec"),
    ("job_p50_s", "spec -> result: submit -> result over the socket (serve-whatif), spec text -> SimResult in-process (engine workloads)"),
    ("peak_rss_mb", "peak resident memory (VmHWM) of one spec -> result pass; serve-whatif: of the run"),
    ("job_tail_s", "highest percentile of job_p50_s's samples with at least 10 samples beyond it"),
    ("fork_p50_s", "fork sent -> fork's result received (serve-whatif; resumes at the fork_tick checkpoint)"),
    ("jobs_per_s", "jobs of one batch over its submit -> last result wall (serve-whatif)"),
    ("ensemble_s", "32-seed run_averaged_parallel batch, threads = nproc (paper-powerlaw-1k)"),
    ("failed_frac", "failed or wrong operations over operations attempted"),
];

const ENGINE: &str = "all engine workloads";
const NONE: &str = "none: bookkeeping check";

/// For each per-layer metric: the end-to-end metric it should move,
/// the workload where its layer does the most work, and the one where
/// the prediction is "no change".
#[rustfmt::skip]
const MOVES: &[(&str, &str, &str, &str)] = &[
    ("core.plan_build_s", "setup_s", "paper-powerlaw-1k", "flat-powerlaw-20k"),
    ("topology.generate_s", "setup_s", "outbreak-subnet-100k", "serve-whatif"),
    ("topology.world_build_s", "setup_s", "outbreak-subnet-100k", "serve-whatif"),
    ("topology.route_lookup_cold_ns", "run_s", "flat-powerlaw-20k", "paper-powerlaw-1k"),
    ("topology.route_lookup_warm_ns", "run_s", "flat-powerlaw-20k", "paper-powerlaw-1k"),
    ("netsim.phase.forward_packets_s", "run_s", "flat-powerlaw-20k", "paper-powerlaw-1k"),
    ("netsim.phase.generate_scans_s", "run_s", "outbreak-subnet-100k", "flat-powerlaw-20k"),
    ("netsim.phase.release_delayed_scans_s", "run_s", "outbreak-subnet-100k", "flat-powerlaw-20k"),
    ("netsim.phase.apply_faults_s", "run_s", "outbreak-subnet-100k", "flat-powerlaw-20k"),
    ("netsim.phase.generate_background_s", "run_s", "outbreak-subnet-100k", "flat-powerlaw-20k"),
    ("netsim.phase.untimed_s", "run_s", "paper-powerlaw-1k", "outbreak-subnet-100k"),
    ("netsim.sim_new_s", "setup_s", ENGINE, NONE),
    ("netsim.finish_s", "run_s", ENGINE, NONE),
    ("netsim.tick_p50_s", "run_s", ENGINE, NONE),
    ("netsim.tick_tail_s", "run_s", ENGINE, NONE),
    ("netsim.packets_emitted", "run_s", ENGINE, "none: counts repeat exactly"),
    ("netsim.packets_delivered", "run_s", ENGINE, "none: counts repeat exactly"),
    ("netsim.delivered_frac", "run_s", ENGINE, "none: counts repeat exactly"),
    ("netsim.ns_per_packet", "run_s", ENGINE, "none: normalises run_s"),
    ("netsim.jsonl_overhead_s", "job_p50_s", "serve-whatif", "engine workloads (NullObserver)"),
    ("netsim.jsonl_bytes", "job_p50_s", "serve-whatif", "engine workloads (NullObserver)"),
    ("netsim.snapshot_encode_s", "fork_p50_s, job_p50_s", "serve-whatif", "engine workloads (no checkpointing)"),
    ("netsim.snapshot_bytes", "fork_p50_s, job_p50_s", "serve-whatif", "engine workloads (no checkpointing)"),
    ("netsim.snapshot_write_s", "fork_p50_s, job_p50_s", "serve-whatif", "engine workloads (no checkpointing)"),
    ("netsim.snapshot_read_s", "fork_p50_s, job_p50_s", "serve-whatif", "engine workloads (no checkpointing)"),
    ("netsim.resume_s", "fork_p50_s, job_p50_s", "serve-whatif", "engine workloads (no checkpointing)"),
    ("runner.batch_wall_s", "ensemble_s", "paper-powerlaw-1k", "all other workloads"),
    ("runner.run_wall_p50_s", "ensemble_s", "paper-powerlaw-1k", "all other workloads"),
    ("runner.parallel_efficiency", "ensemble_s", "paper-powerlaw-1k", "all other workloads"),
    ("core.spec_parse_s", "job_p50_s, jobs_per_s", "serve-whatif", "engine workloads (one parse in setup)"),
    ("serve.submit_s", "job_p50_s, jobs_per_s", "serve-whatif", "engine workloads"),
    ("serve.wait_s", "job_p50_s, jobs_per_s", "serve-whatif", "engine workloads"),
    ("serve.result_s", "job_p50_s, jobs_per_s", "serve-whatif", "engine workloads"),
    ("serve.fork_s", "fork_p50_s", "serve-whatif", "engine workloads"),
    ("serve.connect_s", "job_p50_s, job_tail_s", "serve-whatif", "jobs_per_s (one connection)"),
    ("serve.subscribe_first_block_s", "job_p50_s", "serve-whatif", "engine workloads"),
    ("serve.stream_drain_s", "job_p50_s", "serve-whatif", "engine workloads"),
    ("serve.stream_bytes", "job_p50_s", "serve-whatif", "engine workloads"),
    ("serve.ledger_bytes", "job_p50_s", "serve-whatif", "engine workloads"),
    ("trace.wall_s", "all", "all", NONE),
    ("trace.self.core_s", "setup_s, job_p50_s", "all", NONE),
    ("trace.self.topology_s", "setup_s, run_s", "all", NONE),
    ("trace.self.netsim_s", "run_s, ensemble_s", "all", NONE),
    ("trace.self.serve_s", "job_p50_s, fork_p50_s", "all", NONE),
    ("trace.unattributed_s", "none: the benchmark's own work", "all", NONE),
    ("trace.overhead_frac", "none: traced over untraced spec -> result", "all", NONE),
];

/// Samples, values and the correctness tally of one workload run.
#[derive(Debug, Default)]
pub struct Recorder {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub info: Vec<(String, String)>,
}

impl Recorder {
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn samples(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .extend(values);
    }

    /// Sets a metric measured once (a count, a peak, a ratio).
    pub fn value(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one attempted operation; a failed one also counts as
    /// failed, with `what` kept for the report.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Counts an operation that returned an error.
    pub fn fail(&mut self, what: String) {
        self.op(false, || what);
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn has_info(&self, key: &str) -> bool {
        self.info.iter().any(|(k, _)| k == key)
    }

    fn summary(&self, name: &str) -> Option<Summary> {
        match name {
            "job_tail_s" => self.summary("job_p50_s"),
            _ => self.samples.get(name).and_then(|s| Summary::of(s)),
        }
    }

    /// The reported value of `name`: a single value if one was set,
    /// else the median of its samples (the tail for `job_tail_s`).
    pub fn metric(&self, name: &str) -> Option<f64> {
        if let Some(v) = self.values.get(name) {
            return Some(*v);
        }
        if name == "failed_frac" {
            return Some(self.failed as f64 / self.attempted.max(1) as f64);
        }
        let summary = self.summary(name)?;
        if name == "job_tail_s" {
            summary.tail.map(|t| t.1)
        } else {
            Some(summary.median)
        }
    }
}

/// The metrics the final line carries for this run: every gated
/// end-to-end metric untraced, every per-layer metric traced.
fn required(cat: &Catalogue, trace: bool) -> &[Declared] {
    if trace {
        &cat.per_layer
    } else {
        &cat.end_to_end
    }
}

/// Unit, direction and description of a metric.
fn describe(cat: &Catalogue, name: &str) -> (String, String, String) {
    let (unit, better) = match (cat.declared(name), REPORTED.iter().find(|m| m.0 == name)) {
        (Some(m), _) => (m.unit.clone(), m.better.clone()),
        (None, Some(&(_, unit, better))) => (unit.to_string(), better.to_string()),
        (None, None) => (String::new(), String::new()),
    };
    let about = match (
        ABOUT.iter().find(|a| a.0 == name),
        MOVES.iter().find(|m| m.0 == name),
    ) {
        (Some(&(_, what)), _) => what.to_string(),
        (None, Some(&(_, moves, busiest, unchanged))) => {
            format!("moves {moves}; busiest on {busiest}; no change on {unchanged}")
        }
        (None, None) => String::new(),
    };
    (unit, better, about)
}

/// Every metric this run measured, in catalogue order: the per-layer
/// ones traced, the end-to-end ones (gated, then reported) untraced.
fn measured<'a>(cat: &'a Catalogue, rec: &Recorder, trace: bool) -> Vec<(&'a str, f64)> {
    let names: Vec<&str> = if trace {
        cat.per_layer.iter().map(|m| m.name.as_str()).collect()
    } else {
        let gated = cat.end_to_end.iter().map(|m| m.name.as_str());
        gated.chain(REPORTED.iter().map(|m| m.0)).collect()
    };
    names
        .into_iter()
        .filter_map(|n| rec.metric(n).map(|v| (n, v)))
        .collect()
}

/// Prints the human-readable table.
pub fn print_table(cat: &Catalogue, workload: &str, seed: u64, trace: bool, rec: &Recorder) {
    println!("== {workload}  seed {seed}  trace {} ==", u8::from(trace));
    for (k, v) in &rec.info {
        println!("  {k:<28} {v}");
    }
    println!(
        "  {:<38} {:>14} {:<9} {:>5} {:>8}  {:<16} about",
        "metric", "value", "unit", "n", "spread", "tail"
    );
    for (name, value) in measured(cat, rec, trace) {
        let summary = rec.summary(name);
        let (n, spread, tail) = match &summary {
            Some(s) => (
                s.n.to_string(),
                format!("{:.1}%", 100.0 * s.spread()),
                s.tail
                    .map_or(String::new(), |(p, v)| format!("p{p}={v:.6}")),
            ),
            None => ("1".into(), "-".into(), String::new()),
        };
        let (unit, _, about) = describe(cat, name);
        println!("  {name:<38} {value:>14.6} {unit:<9} {n:>5} {spread:>8}  {tail:<16} {about}");
    }
    println!("  attempted {}  failed {}", rec.attempted, rec.failed);
    for p in &rec.problems {
        println!("  FAILED: {p}");
    }
}

fn num(v: f64) -> Value {
    Value::Float(v)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Writes the full report (every measured metric with unit, sample
/// count, quartiles and tail) as JSON.
pub fn write_file(
    cat: &Catalogue,
    path: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
    rec: &Recorder,
) -> std::io::Result<()> {
    let metrics = measured(cat, rec, trace)
        .into_iter()
        .map(|(name, value)| {
            let (unit, better, about) = describe(cat, name);
            let mut fields = vec![
                ("value", num(value)),
                ("unit", Value::Str(unit)),
                ("better", Value::Str(better)),
                ("about", Value::Str(about)),
            ];
            if let Some(s) = rec.summary(name) {
                fields.push(("samples", Value::Int(s.n as i64)));
                fields.push(("median", num(s.median)));
                fields.push(("q1", num(s.q1)));
                fields.push(("q3", num(s.q3)));
                fields.push(("spread", num(s.spread())));
                if let Some((p, v)) = s.tail {
                    fields.push(("tail_percentile", Value::Int(i64::from(p))));
                    fields.push(("tail", num(v)));
                }
            }
            (name.to_string(), obj(fields))
        })
        .collect();
    let doc = obj(vec![
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Int(seed as i64)),
        ("trace", Value::Bool(trace)),
        (
            "info",
            Value::Object(
                rec.info
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
        ("attempted", Value::Int(rec.attempted as i64)),
        ("failed", Value::Int(rec.failed as i64)),
        (
            "problems",
            Value::Array(rec.problems.iter().map(|p| Value::Str(p.clone())).collect()),
        ),
        ("metrics", Value::Object(metrics)),
    ]);
    std::fs::write(path, emit_json(&doc) + "\n")
}

/// The final result line; an error if a required metric is missing.
pub fn result_line(
    cat: &Catalogue,
    trace: bool,
    correct: bool,
    rec: &Recorder,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for Declared { name, unit, .. } in required(cat, trace) {
        let value = rec
            .metric(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push((
            name.to_string(),
            obj(vec![
                ("value", num(value)),
                ("unit", Value::Str(unit.clone())),
            ]),
        ));
    }
    Ok(emit_json(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(rec.attempted as i64)),
        ("failed", Value::Int(rec.failed as i64)),
        ("metrics", Value::Object(metrics)),
    ])))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Catalogue {
        Catalogue::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json loads")
    }

    #[test]
    fn every_declared_metric_is_described() {
        let cat = catalogue();
        for m in &cat.end_to_end {
            assert!(
                ABOUT.iter().any(|a| a.0 == m.name),
                "{} has no description",
                m.name
            );
            assert!(
                REPORTED.iter().all(|r| r.0 != m.name),
                "{} is gated and reported",
                m.name
            );
        }
        for m in &cat.per_layer {
            assert!(
                MOVES.iter().any(|a| a.0 == m.name),
                "{} has no mapping",
                m.name
            );
        }
        for (name, ..) in REPORTED {
            assert!(
                ABOUT.iter().any(|a| a.0 == *name),
                "{name} has no description"
            );
        }
    }

    #[test]
    fn setup_s_is_a_gated_metric() {
        let cat = catalogue();
        let setup = cat.declared("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }
}
