//! Crash-robustness of the serving daemon, black-box:
//!
//! * SIGKILL the real `dynaquar-serve` binary mid-job, restart it
//!   against the same state directory, and the resumed job's final
//!   result and on-disk event stream must be byte-identical to an
//!   uninterrupted run;
//! * corrupt the job ledger with the `faults::chaos` helpers — a bad
//!   checkpoint, a torn event stream, a mangled spec or meta — and the
//!   daemon must recover with typed errors and deterministic fresh
//!   restarts, never a panic.

use dynaquar_core::spec::{parse_json, scenario_from_value, Value};
use dynaquar_netsim::faults::chaos;
use dynaquar_netsim::metrics::TickFeed;
use dynaquar_netsim::sim::{SimResult, Simulator};
use dynaquar_netsim::JsonlEventWriter;
use dynaquar_serve::{
    pump_stream, result_to_json, Client, Daemon, JobDir, JobMeta, JobStatus, ServeConfig,
    ServeError, ServerAddr,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dq-kill-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn direct_run(spec: &Value) -> (SimResult, Vec<u8>) {
    let scenario = scenario_from_value(spec).unwrap();
    let world = scenario.build_world();
    let config = scenario.sim_config_for(&world);
    let sim = Simulator::try_new(&world, &config, scenario.worm_behavior(), scenario.base_seed())
        .unwrap();
    let mut writer = JsonlEventWriter::new(Vec::new());
    let result = sim.run_observed(&mut writer);
    (result, writer.finish().unwrap())
}

/// Heavy enough in a debug build (~6k hosts) that a poll-then-SIGKILL
/// reliably lands while the job is mid-run.
fn slow_spec() -> Value {
    parse_json(
        r#"{
            "topology": {"kind": "subnets", "backbone": 8, "subnets": 24,
                         "hosts_per_subnet": 250},
            "beta": 0.7, "horizon": 60, "initial_infected": 12,
            "immunization": {"at_tick": 2, "mu": 0.04},
            "routing": "hier",
            "runs": 1, "seed": 37
        }"#,
    )
    .unwrap()
}

fn spawn_daemon(state: &Path, sock: &Path) -> std::process::Child {
    std::process::Command::new(env!("CARGO_BIN_EXE_dynaquar-serve"))
        .arg("--state-dir")
        .arg(state)
        .arg("--unix")
        .arg(sock)
        .arg("--checkpoint-every")
        .arg("5")
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn dynaquar-serve")
}

#[test]
fn sigkilled_daemon_resumes_the_job_bit_identically() {
    let spec = slow_spec();
    let (direct_result, direct_stream) = direct_run(&spec);

    let state = temp_dir("sigkill");
    let sock = state.join("serve.sock");
    let mut child = spawn_daemon(&state, &sock);
    let addr = ServerAddr::Unix(sock.clone());
    let mut client = Client::connect_retry(&addr, Duration::from_secs(30)).unwrap();
    let job = client.submit(&spec, None).unwrap();

    // Poll until the run is demonstrably mid-flight past a checkpoint
    // boundary, then SIGKILL — no graceful anything.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "job never reached the kill window");
        let status = client.status(&job).unwrap();
        let state_label = status.get("status").and_then(Value::as_str).unwrap().to_string();
        let tick = status.get("tick").and_then(Value::as_int).unwrap_or(0);
        assert_ne!(
            state_label, "done",
            "job finished before the kill window; pick a slower world"
        );
        if state_label == "running" && tick >= 20 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    drop(client);

    // Restart against the same ledger: recovery must resume the job
    // from its newest durable checkpoint and finish it.
    let mut child = spawn_daemon(&state, &sock);
    let mut client = Client::connect_retry(&addr, Duration::from_secs(30)).unwrap();
    client.wait(&job).unwrap();
    let served = client.result(&job).unwrap();
    assert_eq!(
        dynaquar_core::spec::emit_json(&served),
        result_to_json(&direct_result),
        "resumed result diverged from the uninterrupted run"
    );
    // A late subscriber replays the stitched stream over the socket.
    let sub = Client::connect_retry(&addr, Duration::from_secs(10)).unwrap();
    let replay = sub.subscribe_collect(&job).unwrap();
    assert_eq!(replay, direct_stream, "replayed stream diverged");
    client.shutdown().unwrap();
    let code = child.wait().unwrap();
    assert!(code.success(), "daemon exited with {code:?}");

    // And the ledger's stream file is the uninterrupted bytes exactly.
    let on_disk = std::fs::read(state.join("jobs").join(&job).join("events.jsonl")).unwrap();
    assert_eq!(on_disk, direct_stream, "on-disk stream diverged");
    let _ = std::fs::remove_dir_all(&state);
}

/// The corruption legs run in-process on a hand-built mid-flight
/// ledger: exactly the layout `run_job` persists at its first
/// checkpoint of a 60-leaf star run, with the job still `running`.
fn star_spec() -> Value {
    parse_json(
        r#"{
            "topology": {"kind": "star", "leaves": 60},
            "beta": 0.8, "horizon": 40, "initial_infected": 1,
            "deployment": {"hosts": 1.0},
            "params": {"host_window_ticks": 200, "host_max_new_targets": 1,
                       "host_release_period_ticks": 10},
            "quarantine": {"queue_threshold": 3},
            "runs": 1, "seed": 21
        }"#,
    )
    .unwrap()
}

/// Builds `jobs/job-1` inside `state`: spec, running meta, the event
/// stream through tick 10, the tick-10 checkpoint, and its index line.
/// Returns the stream offset the index records.
fn fabricate_midflight_ledger(state: &Path) -> u64 {
    let spec = star_spec();
    let scenario = scenario_from_value(&spec).unwrap();
    let world = scenario.build_world();
    let config = scenario.sim_config_for(&world);
    let mut sim =
        Simulator::try_new(&world, &config, scenario.worm_behavior(), scenario.base_seed())
            .unwrap();
    let mut stream: Vec<u8> = Vec::new();
    let mut feed = TickFeed::new(|block| stream.extend_from_slice(&block.lines));
    sim.run_until(10, &mut feed);
    drop(feed);
    let snap = sim.snapshot();

    let dir = JobDir::new(state.join("jobs").join("job-1"));
    std::fs::create_dir_all(dir.root()).unwrap();
    dir.write_spec(&spec).unwrap();
    dir.write_meta(&JobMeta {
        id: "job-1".into(),
        status: JobStatus::Running,
        checkpoint_every: Some(10),
        forked_from: None,
    })
    .unwrap();
    let offset = stream.len() as u64;
    std::fs::write(dir.events_path(), &stream).unwrap();
    snap.write_atomic(&dir.checkpoint_path(10)).unwrap();
    dir.append_index(10, offset).unwrap();
    offset
}

/// Opens a daemon over the (possibly corrupted) ledger, waits for
/// job-1, and returns its persisted result JSON plus the final stream
/// bytes. Every leg must end here without a panic.
fn recover_and_finish(state: &Path) -> (String, Vec<u8>, Vec<String>) {
    let daemon = Daemon::open(ServeConfig::new(state)).unwrap();
    let notes: Vec<String> = daemon
        .recovery_notes()
        .iter()
        .map(|n| format!("{}: {}", n.job, n.note))
        .collect();
    daemon.wait("job-1").unwrap();
    let result = daemon.result_json("job-1").unwrap();
    let rx = daemon.subscribe("job-1").unwrap();
    let mut stream = Vec::new();
    pump_stream(rx, &mut stream).unwrap();
    daemon.shutdown();
    (result, stream, notes)
}

#[test]
fn intact_midflight_ledger_resumes_bit_identically() {
    let state = temp_dir("intact");
    fabricate_midflight_ledger(&state);
    let (direct_result, direct_stream) = direct_run(&star_spec());
    let (result, stream, notes) = recover_and_finish(&state);
    assert!(
        notes.iter().all(|n| n.contains("resuming")),
        "clean ledger must only report the resume, got {notes:?}"
    );
    assert_eq!(result, result_to_json(&direct_result));
    assert_eq!(stream, direct_stream, "stitched resume stream diverged");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn corrupt_checkpoint_falls_back_to_a_fresh_deterministic_restart() {
    let state = temp_dir("badckpt");
    fabricate_midflight_ledger(&state);
    let ckpt = state.join("jobs").join("job-1").join("ckpt-tick-10.dqsnap");
    chaos::corrupt_flip_bit(&ckpt, 100).unwrap();
    let (direct_result, direct_stream) = direct_run(&star_spec());
    let (result, stream, notes) = recover_and_finish(&state);
    assert!(
        notes.iter().any(|n| n.contains("job-1") && !n.contains("resuming")),
        "expected a recovery note for the bad checkpoint, got {notes:?}"
    );
    assert_eq!(result, result_to_json(&direct_result));
    assert_eq!(stream, direct_stream);
    // The corrupt file was deleted during recovery; the fresh restart
    // then legitimately re-wrote a (valid) tick-10 checkpoint.
    assert!(dynaquar_netsim::Snapshot::read(&ckpt).is_ok());
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn torn_event_stream_invalidates_the_checkpoint_and_restarts_fresh() {
    let state = temp_dir("tornstream");
    let offset = fabricate_midflight_ledger(&state);
    // The stream lost bytes the index claims exist: the checkpoint's
    // offset is no longer backed by the file, so it cannot be used.
    chaos::corrupt_truncate(
        &state.join("jobs").join("job-1").join("events.jsonl"),
        offset / 2,
    )
    .unwrap();
    let (direct_result, direct_stream) = direct_run(&star_spec());
    let (result, stream, notes) = recover_and_finish(&state);
    assert!(!notes.is_empty(), "a torn stream must be noted");
    assert_eq!(result, result_to_json(&direct_result));
    assert_eq!(stream, direct_stream);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn corrupt_spec_fails_the_job_with_a_typed_error_not_a_panic() {
    let state = temp_dir("badspec");
    fabricate_midflight_ledger(&state);
    chaos::corrupt_truncate(&state.join("jobs").join("job-1").join("spec.json"), 10).unwrap();
    let daemon = Daemon::open(ServeConfig::new(&state)).unwrap();
    match daemon.wait("job-1") {
        Err(ServeError::JobFailed { message }) => {
            assert!(
                message.contains("unrecoverable ledger"),
                "unexpected failure message: {message}"
            );
        }
        other => panic!("expected a typed job failure, got {other:?}"),
    }
    // The daemon keeps serving: a fresh submit on the same instance
    // works and ids do not collide with the dead job.
    let id = daemon.submit(&star_spec(), None).unwrap();
    assert_ne!(id, "job-1");
    daemon.wait(&id).unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

/// `spec` with the retired `"shards": "auto"` key that every canonical
/// spec emitted while intra-world sharding existed carries.
fn with_retired_shards_key(spec: Value) -> Value {
    let Value::Object(mut entries) = spec else {
        unreachable!("specs are objects")
    };
    entries.push(("shards".into(), Value::Str("auto".into())));
    Value::Object(entries)
}

/// A ledger written before sharding was removed: the spec of every job
/// carries `"shards": "auto"`. The key is ignored, so a finished job
/// keeps serving its result and a mid-flight one resumes bit-identically.
#[test]
fn old_ledger_with_the_retired_shards_key_keeps_serving() {
    let state = temp_dir("oldshards");
    fabricate_midflight_ledger(&state);
    JobDir::new(state.join("jobs").join("job-1"))
        .write_spec(&with_retired_shards_key(star_spec()))
        .unwrap();

    let (direct_result, direct_stream) = direct_run(&star_spec());
    let done = JobDir::new(state.join("jobs").join("job-2"));
    std::fs::create_dir_all(done.root()).unwrap();
    done.write_spec(&with_retired_shards_key(star_spec())).unwrap();
    let done_meta = JobMeta {
        id: "job-2".into(),
        status: JobStatus::Done,
        checkpoint_every: Some(10),
        forked_from: None,
    };
    done.write_meta(&done_meta).unwrap();
    std::fs::write(done.events_path(), &direct_stream).unwrap();
    std::fs::write(done.result_path(), result_to_json(&direct_result)).unwrap();

    let daemon = Daemon::open(ServeConfig::new(&state)).unwrap();
    assert!(
        daemon.recovery_notes().iter().all(|n| n.note.contains("resuming")),
        "an old but intact ledger must only report the resume"
    );
    daemon.wait("job-2").unwrap();
    assert_eq!(daemon.result_json("job-2").unwrap(), result_to_json(&direct_result));
    assert_eq!(done.read_meta().unwrap(), done_meta, "finished job's meta was rewritten");

    daemon.wait("job-1").unwrap();
    assert_eq!(daemon.result_json("job-1").unwrap(), result_to_json(&direct_result));
    let mut stream = Vec::new();
    pump_stream(daemon.subscribe("job-1").unwrap(), &mut stream).unwrap();
    assert_eq!(stream, direct_stream, "stitched resume stream diverged");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn corrupt_meta_restarts_the_job_fresh_with_a_note() {
    let state = temp_dir("badmeta");
    fabricate_midflight_ledger(&state);
    chaos::corrupt_truncate(&state.join("jobs").join("job-1").join("meta.json"), 3).unwrap();
    let (direct_result, direct_stream) = direct_run(&star_spec());
    let (result, stream, notes) = recover_and_finish(&state);
    assert!(
        notes.iter().any(|n| n.contains("job-1")),
        "expected a note for the mangled meta, got {notes:?}"
    );
    assert_eq!(result, result_to_json(&direct_result));
    assert_eq!(stream, direct_stream);
    let _ = std::fs::remove_dir_all(&state);
}
