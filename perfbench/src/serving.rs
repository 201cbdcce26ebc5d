//! The serving path: an in-process daemon behind a Unix socket, driven
//! closed-loop by one client (a control connection plus one fresh
//! subscriber connection per job).

use crate::engine;
use crate::report::Recorder;
use crate::rss;
use crate::stats::Summary;
use crate::trace::{Layer, Spans};
use crate::workload::{Workload, CHECKPOINT_EVERY, FORK_AT_TICK, FORK_OVERRIDES};
use dynaquar_core::spec::{emit_json, parse_json, Value};
use dynaquar_netsim::ParallelConfig;
use dynaquar_serve::{Client, Daemon, ServeConfig, Server, ServerAddr};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// Latency-phase jobs one daemon serves in a round.
const LATENCY_JOBS: usize = 20;
/// Batches of the batch phase in a round, and jobs per batch.
const BATCHES: usize = 1;
const BATCH: usize = 16;
/// The time budget one round stands for. The round count follows from
/// the budget, not from the clock, so every run serves the same jobs
/// and its peak memory covers the same work; only a run slower than
/// twice its budget stops early.
const SECONDS_PER_ROUND: f64 = 4.0;

fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// A daemon serving from a thread of this process.
struct Running {
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Opens a daemon on a fresh state directory and binds it to
    /// `socket`: `Daemon::open` and `Server::bind` are the two spans.
    fn start(state: &Path, socket: &Path, spans: &mut Spans) -> Result<Running, String> {
        let mut config = ServeConfig::new(state);
        config.workers = ParallelConfig::available();
        config.checkpoint_every = Some(CHECKPOINT_EVERY);
        let daemon = spans
            .time(Layer::Serve, "serve.open", || Daemon::open(config))
            .map_err(|e| format!("daemon open: {e}"))?;
        let server = spans
            .time(Layer::Serve, "serve.bind", || {
                Server::bind(daemon, ServerAddr::Unix(socket.to_path_buf()))
            })
            .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            socket: socket.to_path_buf(),
            thread,
        })
    }

    fn connect(&self, spans: &mut Spans) -> Result<Client, String> {
        let addr = ServerAddr::Unix(self.socket.clone());
        spans.time(Layer::Serve, "serve.connect_s", || {
            let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            client.ping().map_err(|e| format!("ping: {e}"))?;
            Ok(client)
        })
    }

    /// Shuts the daemon down over `control` and joins the server
    /// thread. The ledger stays in the state directory.
    fn stop(self, mut control: Client, spans: &mut Spans) -> Result<(), String> {
        spans.time(Layer::Serve, "serve.shutdown", || {
            control.shutdown().map_err(err("shutdown"))?;
            match self.thread.join() {
                Ok(run) => run.map_err(err("server")),
                Err(_) => Err("the server thread panicked".to_string()),
            }
        })
    }
}

/// Subscribes on a fresh connection and reads the stream to its end.
fn subscribe(socket: &Path, job: &str, ping: bool, spans: &mut Spans) -> Result<Vec<u8>, String> {
    let mut conn = spans.time(Layer::Serve, "serve.connect_s", || {
        let mut conn = BufReader::new(UnixStream::connect(socket).map_err(err("connect"))?);
        if ping {
            request(&mut conn, r#"{"cmd": "ping"}"#)?;
        }
        Ok::<_, String>(conn)
    })?;
    let line = format!(
        r#"{{"cmd": "subscribe", "job": {}}}"#,
        emit_json(&Value::Str(job.into()))
    );
    spans.time(Layer::Serve, "serve.subscribe_first_block_s", || {
        request(&mut conn, &line)?;
        conn.fill_buf().map(|_| ()).map_err(err("stream"))
    })?;
    let mut bytes = Vec::new();
    spans
        .time(Layer::Serve, "serve.stream_drain_s", || {
            conn.read_to_end(&mut bytes)
        })
        .map_err(err("stream"))?;
    Ok(bytes)
}

/// Sends one protocol line and checks the reply is `ok`.
fn request(conn: &mut BufReader<UnixStream>, line: &str) -> Result<(), String> {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .map_err(err("request"))?;
    let mut reply = String::new();
    conn.read_line(&mut reply).map_err(err("reply"))?;
    match parse_json(reply.trim_end()).map(|v| v.get("ok").cloned()) {
        Ok(Some(Value::Bool(true))) => Ok(()),
        _ => Err(format!("request {line} refused: {}", reply.trim_end())),
    }
}

/// What one served job returned.
struct Served {
    id: String,
    result: String,
    stream: Vec<u8>,
}

/// Submit -> subscribe on a fresh connection and drain -> wait -> result.
fn job(
    run: &Running,
    control: &mut Client,
    spec: &Value,
    every: Option<u64>,
    ping: bool,
    spans: &mut Spans,
) -> Result<Served, String> {
    let id = spans
        .time(Layer::Serve, "serve.submit_s", || {
            control.submit(spec, every)
        })
        .map_err(err("submit"))?;
    let stream = subscribe(&run.socket, &id, ping, spans)?;
    let result = wait_result(control, &id, spans)?;
    Ok(Served { id, result, stream })
}

fn wait_result(control: &mut Client, id: &str, spans: &mut Spans) -> Result<String, String> {
    spans
        .time(Layer::Serve, "serve.wait_s", || control.wait(id))
        .map_err(err("wait"))?;
    let result = spans
        .time(Layer::Serve, "serve.result_s", || control.result(id))
        .map_err(err("result"))?;
    Ok(emit_json(&result))
}

/// Fork -> wait -> result; returns the fork tick and the fork's result.
fn fork(
    control: &mut Client,
    id: &str,
    at: u64,
    spans: &mut Spans,
) -> Result<(u64, String), String> {
    let overrides = parse_json(FORK_OVERRIDES).map_err(err("fork overrides"))?;
    let reply = spans
        .time(Layer::Serve, "serve.fork_s", || {
            control.fork(id, Some(at), &overrides)
        })
        .map_err(err("fork"))?;
    let fork_id = reply
        .get("job")
        .and_then(Value::as_str)
        .ok_or("fork reply has no job")?;
    let tick = reply
        .get("fork_tick")
        .and_then(Value::as_int)
        .and_then(|t| u64::try_from(t).ok())
        .ok_or("fork reply has no fork tick")?;
    Ok((tick, wait_result(control, fork_id, spans)?))
}

fn check_job(rec: &mut Recorder, served: &Served, result: &str, stream: &[u8]) {
    rec.op(served.result == result, || {
        format!(
            "job {}: served result differs from the direct run",
            served.id
        )
    });
    rec.op(served.stream == stream, || {
        format!(
            "job {}: subscriber stream differs from the direct run",
            served.id
        )
    });
}

/// Checks a fork against the direct fork at the tick the daemon
/// resumed from: the latest checkpoint at or below the requested `at`.
fn check_fork(rec: &mut Recorder, text: &str, at: u64, tick: u64, served: &str) {
    if !rec.has_info("fork_tick") {
        rec.info(
            "fork_tick",
            format!("{tick} (latest checkpoint at or below the requested tick {at})"),
        );
    }
    let overrides = parse_json(FORK_OVERRIDES).expect("the fork overrides are valid JSON");
    match engine::forked(text, &overrides, tick) {
        Ok(direct) => rec.op(direct == served, || {
            format!("fork at tick {tick}: served result differs from the direct fork")
        }),
        Err(e) => rec.fail(format!("direct fork: {e}")),
    }
}

/// Untraced `serve-whatif`, in a fixed number of rounds for a budget of
/// `seconds` (at least two; see [`SECONDS_PER_ROUND`]). A round opens a
/// daemon on an empty state directory, serves a fixed number of jobs
/// through the latency phase and the batch phase, and shuts it down. After each latency-phase job
/// a second daemon is opened on its own empty state directory and shut
/// down again: one `setup_s` sample, so set-up samples are spread over
/// the whole run. `peak_rss_mb` is the process's peak over the run,
/// whose work the round count fixes. Every served result, stream and
/// fork is checked against a direct in-process run of the same spec.
/// Returns the specs submitted, in order.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
    rec: &mut Recorder,
) -> Result<Vec<String>, String> {
    let mut off = Spans::off();
    let (socket, state) = (out.join("daemon.sock"), out.join("state"));
    let (setup_socket, setup_state) = (out.join("setup.sock"), out.join("setup-state"));
    let mut specs = Vec::new();
    let next_spec = |specs: &mut Vec<String>| {
        let text = w.spec(seed, specs.len() as u64);
        specs.push(text.clone());
        text
    };
    let start = Instant::now();
    let rounds = (seconds / SECONDS_PER_ROUND).ceil().max(2.0) as usize;
    for round in 0..rounds {
        if round >= 2 && start.elapsed().as_secs_f64() > 2.0 * seconds {
            break;
        }
        let _ = std::fs::remove_dir_all(&state);
        let run = Running::start(&state, &socket, &mut off)?;
        let mut control = run.connect(&mut off)?;
        for _ in 0..LATENCY_JOBS {
            latency_job(&run, &mut control, &next_spec(&mut specs), rec)?;
            let _ = std::fs::remove_dir_all(&setup_state);
            let t0 = Instant::now();
            let setup = Running::start(&setup_state, &setup_socket, &mut off)?;
            let setup_control = setup.connect(&mut off)?;
            rec.sample("setup_s", t0.elapsed().as_secs_f64());
            rec.op(true, String::new);
            setup.stop(setup_control, &mut off)?;
        }
        for _ in 0..BATCHES {
            let batch: Vec<String> = (0..BATCH).map(|_| next_spec(&mut specs)).collect();
            batch_jobs(&mut control, &batch, rec)?;
        }
        run.stop(control, &mut off)?;
    }
    if let Some(mb) = rss::peak_mb() {
        rec.value("peak_rss_mb", mb);
    }
    for dir in [&state, &setup_state] {
        std::fs::remove_dir_all(dir).map_err(err("removing the daemon state"))?;
    }
    Ok(specs)
}

/// The direct references of a job spec; its `NullObserver` run is a
/// `run_s` sample.
fn reference(text: &str, rec: &mut Recorder) -> Result<(Value, String, Vec<u8>), String> {
    let pass = engine::direct(text)?;
    if !rec.has_info("routing_backend") {
        rec.info("routing_backend", pass.backend);
        rec.info("resolved_strategy", &pass.strategy);
    }
    rec.sample("run_s", pass.run);
    let (result, stream) = engine::streamed(text)?;
    rec.op(result == pass.result_json, || {
        "observed and plain direct runs differ".into()
    });
    Ok((parse_json(text).map_err(err("spec"))?, result, stream))
}

/// One latency-phase job: submit, drain on a fresh subscriber
/// connection, wait, fetch the result; then fork it and wait for the
/// fork's result.
fn latency_job(
    run: &Running,
    control: &mut Client,
    text: &str,
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut off = Spans::off();
    let (spec, result, stream) = reference(text, rec)?;
    let t0 = Instant::now();
    let served = job(run, control, &spec, None, false, &mut off)?;
    rec.sample("job_p50_s", t0.elapsed().as_secs_f64());
    check_job(rec, &served, &result, &stream);
    let t0 = Instant::now();
    let (tick, forked) = fork(control, &served.id, FORK_AT_TICK, &mut off)?;
    rec.sample("fork_p50_s", t0.elapsed().as_secs_f64());
    check_fork(rec, text, FORK_AT_TICK, tick, &forked);
    Ok(())
}

/// One batch: submit every job on the control connection, then wait
/// for and fetch each result.
fn batch_jobs(control: &mut Client, texts: &[String], rec: &mut Recorder) -> Result<(), String> {
    let mut off = Spans::off();
    let mut batch = Vec::with_capacity(texts.len());
    for text in texts {
        let (spec, result, _) = reference(text, rec)?;
        batch.push((spec, result));
    }
    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(batch.len());
    for (spec, _) in &batch {
        ids.push(control.submit(spec, None).map_err(err("submit"))?);
    }
    let mut results = Vec::with_capacity(batch.len());
    for id in &ids {
        results.push(wait_result(control, id, &mut off)?);
    }
    rec.sample(
        "jobs_per_s",
        batch.len() as f64 / t0.elapsed().as_secs_f64(),
    );
    for ((_, direct), (id, served)) in batch.iter().zip(ids.iter().zip(&results)) {
        rec.op(direct == served, || {
            format!("batch job {id}: served result differs from the direct run")
        });
    }
    Ok(())
}

/// Traced serving: one job per spec through a daemon over the socket,
/// each forked at `fork_at`, every call into the serving layer a span.
/// `references` holds each spec's direct result and stream.
pub fn measure_traced(
    specs: &[String],
    references: &[(String, Vec<u8>)],
    every: Option<u64>,
    fork_at: u64,
    out: &Path,
    spans: &mut Spans,
    rec: &mut Recorder,
) -> Result<(), String> {
    let socket = out.join("daemon.sock");
    let state = out.join("state");
    let _ = std::fs::remove_dir_all(&state);
    let run = Running::start(&state, &socket, spans)?;
    let mut control = run.connect(spans)?;
    let mut stream_bytes = Vec::new();
    for (text, (result, stream)) in specs.iter().zip(references) {
        let spec = parse_json(text).map_err(err("spec"))?;
        let served = job(&run, &mut control, &spec, every, true, spans)?;
        stream_bytes.push(served.stream.len() as f64);
        check_job(rec, &served, result, stream);
        let (tick, forked) = fork(&mut control, &served.id, fork_at, spans)?;
        spans.untraced(|| check_fork(rec, text, fork_at, tick, &forked));
    }
    let ledger = dir_bytes(&state);
    rec.value(
        "serve.ledger_bytes",
        ledger as f64 / (2 * specs.len()) as f64,
    );
    rec.value(
        "serve.stream_bytes",
        Summary::of(&stream_bytes).map_or(0.0, |s| s.median),
    );
    run.stop(control, spans)?;
    std::fs::remove_dir_all(&state).map_err(err("removing the daemon state"))
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&entry.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
