//! Black-box determinism of the serving layer: every spec-expressible
//! fingerprint world from `crates/netsim/tests/engine_fingerprints.rs`
//! is submitted through the daemon — in-process and over a real socket
//! — and the served [`SimResult`] plus every subscriber's JSONL stream
//! must be **byte-identical** to a direct [`Simulator`] run of the same
//! spec.
//!
//! The daemon must add no nondeterminism on top of the engine's
//! contract: the suite runs under whatever `DYNAQUAR_THREADS` /
//! `DYNAQUAR_SHARDS` / `DYNAQUAR_STRATEGY` the CI matrix sets, and both
//! sides of every comparison see the same environment, so any
//! divergence is the daemon's fault. Two fingerprint worlds (the capped
//! hub with background traffic and the kitchen-sink fault plan) use
//! `RateLimitPlan` / `FaultPlan` surfaces the spec schema deliberately
//! does not expose; they are pinned engine-side and out of scope here.

use dynaquar_core::spec::{parse_json, scenario_from_value, Value};
use dynaquar_netsim::sim::{SimResult, Simulator};
use dynaquar_netsim::JsonlEventWriter;
use dynaquar_serve::{result_to_json, Client, Daemon, Server, ServerAddr, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

/// The fingerprint worlds, as spec documents with the exact constants
/// the engine pins. Each entry: (name, spec, checkpoint cadence for the
/// served run — checkpointing must never perturb the result).
fn fingerprint_specs() -> Vec<(&'static str, Value, Option<u64>)> {
    let mut specs = Vec::new();
    // dynamic_quarantine_star_is_bit_identical, dense × hier.
    for routing in ["dense", "hier"] {
        specs.push((
            "dynamic-quarantine-star",
            parse_json(&format!(
                r#"{{
                    "topology": {{"kind": "star", "leaves": 199}},
                    "beta": 0.8, "horizon": 200, "initial_infected": 2,
                    "deployment": {{"hosts": 1.0}},
                    "params": {{"host_window_ticks": 200, "host_max_new_targets": 1,
                                "host_release_period_ticks": 10}},
                    "quarantine": {{"queue_threshold": 3}},
                    "routing": "{routing}",
                    "runs": 1, "seed": 21
                }}"#
            ))
            .unwrap(),
            Some(37),
        ));
    }
    // welchia_self_patch_is_bit_identical.
    specs.push((
        "welchia-self-patch",
        parse_json(
            r#"{
                "topology": {"kind": "star", "leaves": 199},
                "worm": {"scans_per_tick": 3, "self_patch_after": 12},
                "beta": 0.8, "horizon": 300, "initial_infected": 2,
                "runs": 1, "seed": 31
            }"#,
        )
        .unwrap(),
        Some(64),
    ));
    // power_law_1000_*_is_bit_identical, dense × lazy × hier.
    for routing in [r#""dense""#, r#""lazy""#, r#""hier""#] {
        specs.push((
            "power-law-1000",
            parse_json(&format!(
                r#"{{
                    "topology": {{"kind": "power_law", "nodes": 1000,
                                  "edges_per_node": 2, "seed": 3}},
                    "beta": 0.8, "horizon": 120, "initial_infected": 4,
                    "deployment": {{"hosts": 1.0}},
                    "params": {{"host_window_ticks": 200, "host_max_new_targets": 2,
                                "host_release_period_ticks": 12}},
                    "quarantine": {{"queue_threshold": 4}},
                    "routing": {routing},
                    "runs": 1, "seed": 17
                }}"#
            ))
            .unwrap(),
            Some(25),
        ));
    }
    // power_law_6000_is_bit_identical_across_strategies, tick × event.
    // (The spec's power-law role split is fixed at 5 % / 10 %, so this
    // leg runs the pinned graph under the spec's split — equivalence is
    // served-vs-direct of the same spec, not the engine-side pin.)
    for strategy in ["tick", "event"] {
        specs.push((
            "power-law-6000",
            parse_json(&format!(
                r#"{{
                    "topology": {{"kind": "power_law", "nodes": 6000,
                                  "edges_per_node": 2, "seed": 5}},
                    "beta": 0.6, "horizon": 60, "initial_infected": 4,
                    "deployment": {{"hosts": 1.0}},
                    "params": {{"host_window_ticks": 200, "host_max_new_targets": 2,
                                "host_release_period_ticks": 12}},
                    "quarantine": {{"queue_threshold": 4}},
                    "strategy": "{strategy}",
                    "runs": 1, "seed": 23
                }}"#
            ))
            .unwrap(),
            None,
        ));
    }
    // immunization_heavy_subnet_is_bit_identical (~6k-host subnet world).
    specs.push((
        "immunization-heavy-subnet",
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
        .unwrap(),
        Some(20),
    ));
    specs
}

/// The reference: a plain `Simulator` run of the spec, observed through
/// a contiguous `JsonlEventWriter`.
fn direct_run(spec: &Value) -> (SimResult, Vec<u8>) {
    let scenario = scenario_from_value(spec).expect("fingerprint spec is valid");
    let world = scenario.build_world();
    let config = scenario.sim_config_for(&world);
    let sim = Simulator::try_new(&world, &config, scenario.worm_behavior(), scenario.base_seed())
        .expect("fingerprint spec must start");
    let mut writer = JsonlEventWriter::new(Vec::new());
    let result = sim.run_observed(&mut writer);
    let stream = writer.finish().expect("reference stream");
    (result, stream)
}

fn temp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dq-serve-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn served_fingerprint_worlds_are_bit_identical_in_process() {
    let state = temp_state("inproc");
    let daemon = Daemon::open(ServeConfig::new(&state)).unwrap();
    for (name, spec, every) in fingerprint_specs() {
        let (direct_result, direct_stream) = direct_run(&spec);
        let id = daemon.submit(&spec, every).unwrap();
        let rx = daemon.subscribe(&id).unwrap();
        // Drain concurrently — a subscriber that sits on its queue past
        // the configured bound is *supposed* to lose blocks.
        let pump = std::thread::spawn(move || {
            let mut stream = Vec::new();
            let stats = dynaquar_serve::pump_stream(rx, &mut stream).unwrap();
            (stream, stats)
        });
        daemon.wait(&id).unwrap_or_else(|e| panic!("{name}: job failed: {e}"));
        let (stream, stats) = pump.join().unwrap();
        assert_eq!(stats.catchups, 0, "{name}: a prompt subscriber never lags");
        assert_eq!(stream, direct_stream, "{name}: subscriber stream diverged");
        assert_eq!(
            daemon.result_sim(&id).unwrap().unwrap(),
            direct_result,
            "{name}: served result diverged"
        );
        assert_eq!(
            daemon.result_json(&id).unwrap(),
            result_to_json(&direct_result),
            "{name}: persisted result document diverged"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

/// Runs every fingerprint world through a real socket server and
/// compares streams and results byte for byte.
fn socket_leg(addr: ServerAddr, state_tag: &str) {
    let state = temp_state(state_tag);
    let daemon = Daemon::open(ServeConfig::new(&state)).unwrap();
    let server = Server::bind(daemon, addr).unwrap();
    let addr = server.addr().clone();
    let server_thread = std::thread::spawn(move || server.run());

    let mut control = Client::connect_retry(&addr, Duration::from_secs(10)).unwrap();
    for (name, spec, every) in fingerprint_specs() {
        let (direct_result, direct_stream) = direct_run(&spec);
        let id = control.submit(&spec, every).unwrap();
        // Two concurrent subscribers: fan-out must give each the full
        // byte-identical stream.
        let mut subs = Vec::new();
        for _ in 0..2 {
            let sub = Client::connect_retry(&addr, Duration::from_secs(10)).unwrap();
            let id = id.clone();
            subs.push(std::thread::spawn(move || sub.subscribe_collect(&id)));
        }
        control.wait(&id).unwrap_or_else(|e| panic!("{name}: wait failed: {e}"));
        let served = control.result(&id).unwrap();
        assert_eq!(
            dynaquar_core::spec::emit_json(&served),
            result_to_json(&direct_result),
            "{name}: served result diverged over the socket"
        );
        for (i, sub) in subs.into_iter().enumerate() {
            let bytes = sub.join().unwrap().unwrap();
            assert_eq!(
                bytes, direct_stream,
                "{name}: socket subscriber {i} stream diverged"
            );
        }
    }
    control.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn served_fingerprint_worlds_are_bit_identical_over_a_unix_socket() {
    let state = temp_state("sockdir");
    std::fs::create_dir_all(&state).unwrap();
    socket_leg(ServerAddr::Unix(state.join("serve.sock")), "unix");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn served_fingerprint_worlds_are_bit_identical_over_tcp() {
    // Loopback TCP may be unavailable in a sandboxed environment; skip
    // gracefully rather than fail on the bind.
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping: cannot bind loopback TCP in this environment");
        return;
    }
    socket_leg(ServerAddr::Tcp("127.0.0.1:0".into()), "tcp");
}

