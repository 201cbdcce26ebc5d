//! Checkpoint/resume differential harness: a run that is snapshotted at
//! tick T and resumed must be **bit-identical** to one that never
//! stopped — same [`SimResult`], byte-identical observer stream — for
//! any scenario, either stepping strategy, and either routing backend.
//!
//! The snapshot codec round-trips through bytes on every split run, so
//! these properties also pin the on-disk format's fidelity, not just
//! the in-memory capture. A fixture test pins the format itself: any
//! byte-level change to the encoding fails loudly and demands a
//! version bump.

use dynaquar_netsim::background::BackgroundTraffic;
use dynaquar_netsim::config::{
    ImmunizationConfig, ImmunizationTrigger, QuarantineConfig, SimConfig, WormBehavior,
};
use dynaquar_netsim::faults::FaultPlan;
use dynaquar_netsim::metrics::JsonlEventWriter;
use dynaquar_netsim::plan::{HostFilter, RateLimitPlan};
use dynaquar_netsim::runner::{
    run_averaged_parallel, run_supervised_parallel, RunOutcome, SupervisorConfig,
};
use dynaquar_netsim::sim::{SimResult, Simulator};
use dynaquar_netsim::snapshot::Snapshot;
use dynaquar_netsim::strategy::SimStrategy;
use dynaquar_netsim::World;
use dynaquar_parallel::ParallelConfig;
use dynaquar_topology::generators;
use dynaquar_topology::lazy::RoutingKind;
use proptest::prelude::*;

/// Runs a scenario start to finish, collecting the observer stream.
fn full_run(
    world: &World,
    cfg: &SimConfig,
    behavior: WormBehavior,
    seed: u64,
) -> (SimResult, Vec<u8>) {
    let mut buf = Vec::new();
    let result = {
        let mut writer = JsonlEventWriter::new(&mut buf);
        let r = Simulator::new(world, cfg, behavior, seed).run_observed(&mut writer);
        writer.finish().unwrap();
        r
    };
    (result, buf)
}

/// Runs the same scenario in two segments: to `split`, snapshot (round-
/// tripped through the byte codec), resume, finish. The observer
/// stream is the concatenation of both segments' output.
fn split_run(
    world: &World,
    cfg: &SimConfig,
    behavior: WormBehavior,
    seed: u64,
    split: u64,
) -> (SimResult, Vec<u8>) {
    let mut buf = Vec::new();
    let snap = {
        let mut writer = JsonlEventWriter::new(&mut buf);
        let mut sim = Simulator::new(world, cfg, behavior, seed);
        sim.run_until(split, &mut writer);
        let snap = sim.snapshot();
        writer.finish().unwrap();
        snap
    };
    // Through the codec: what resumes is what a crashed process would
    // read back off disk, not the live in-memory snapshot.
    let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("codec round-trip");
    let result = {
        let mut writer = JsonlEventWriter::new(&mut buf);
        let sim = Simulator::resume(world, cfg, behavior, &snap).expect("resume");
        let r = sim.run_observed(&mut writer);
        writer.finish().unwrap();
        r
    };
    (result, buf)
}

/// Topology axis: 0 = star, 1 = power law, 2 = routed subnets.
fn build_topology(kind: usize, size: usize, graph_seed: u64) -> World {
    match kind % 3 {
        0 => World::from_star(generators::star(20 + size % 40).unwrap()),
        1 => World::from_power_law(
            generators::barabasi_albert(80 + size, 2, graph_seed).unwrap(),
            0.05,
            0.10,
        ),
        _ => World::from_subnets(
            generators::SubnetTopologyBuilder::new()
                .backbone_routers(2)
                .subnets(3 + size % 3)
                .hosts_per_subnet(5 + size % 5)
                .build()
                .unwrap(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: snapshot-at-T + resume == uninterrupted,
    /// for random topology × worm × defense × fault plan × strategy ×
    /// seed × split tick — equal results AND byte-identical streams.
    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted(
        topo_kind in 0usize..3,
        size in 0usize..120,
        graph_seed in 0u64..50,
        defense_kind in 0usize..4,
        chaos_kind in 0usize..3,
        event_engine in proptest::bool::ANY,
        scans in 1u32..3,
        self_patch in 0u64..20,
        immunize in proptest::bool::ANY,
        background in proptest::bool::ANY,
        seed in 0u64..500,
        split in 1u64..80,
    ) {
        let world = build_topology(topo_kind, size, graph_seed);
        let hosts = world.hosts().to_vec();
        let mut behavior = WormBehavior::random().with_scan_rate(scans);
        if self_patch >= 4 {
            behavior = behavior.with_self_patch_after(self_patch);
        }
        let mut builder = SimConfig::builder();
        builder
            .beta(0.8)
            .horizon(80)
            .initial_infected(2)
            .log_scans(true)
            .strategy(if event_engine { SimStrategy::Event } else { SimStrategy::Tick });
        match defense_kind {
            0 => {}
            1 => {
                let mut p = RateLimitPlan::none();
                p.filter_hosts(&hosts, HostFilter::dropping(50, 2));
                builder.plan(p);
            }
            2 => {
                let mut p = RateLimitPlan::none();
                p.filter_hosts(&hosts, HostFilter::delaying(200, 1, 5));
                builder
                    .plan(p)
                    .quarantine(QuarantineConfig { queue_threshold: 3 });
            }
            _ => {
                let mut p = RateLimitPlan::none();
                p.limit_node_forwarding(dynaquar_topology::NodeId::new(0), 1.5);
                builder.plan(p);
            }
        }
        match chaos_kind {
            0 => {}
            1 => {
                builder.faults(
                    FaultPlan::none()
                        .with_link_loss(0.3, 0.15)
                        .with_quarantine_jitter(4)
                        .with_false_positives(3, (2, 40)),
                );
            }
            _ => {
                builder.faults(
                    FaultPlan::none()
                        .with_node_outages(2, (5, 40), 10)
                        .with_link_outages(1, (5, 40), 10),
                );
            }
        }
        if immunize {
            builder.immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtTick(10),
                mu: 0.1,
            });
        }
        if background {
            builder.background(BackgroundTraffic::new(0.7));
        }
        let cfg = builder.build().expect("valid config");
        let (full, full_stream) = full_run(&world, &cfg, behavior, seed);
        let (resumed, resumed_stream) = split_run(&world, &cfg, behavior, seed, split);
        prop_assert_eq!(full, resumed);
        prop_assert_eq!(full_stream, resumed_stream);
    }
}

/// The explicit strategy × routing matrix on one loaded scenario: the
/// resume contract holds on every engine/backend combination, and the
/// (already pinned) cross-combination equivalences survive the split.
#[test]
fn resume_matrix_across_strategy_and_routing() {
    let graph = generators::barabasi_albert(150, 2, 11).unwrap();
    let mut results: Vec<SimResult> = Vec::new();
    for routing in [
        RoutingKind::Dense,
        RoutingKind::Lazy,
        RoutingKind::Hier,
    ] {
        let world = World::from_power_law_with(graph.clone(), 0.05, 0.10, routing);
        let hosts = world.hosts().to_vec();
        for strategy in [SimStrategy::Tick, SimStrategy::Event] {
            let mut p = RateLimitPlan::none();
            p.filter_hosts(&hosts, HostFilter::delaying(200, 1, 5));
            let cfg = SimConfig::builder()
                .beta(0.9)
                .horizon(70)
                .initial_infected(2)
                .log_scans(true)
                .plan(p)
                .quarantine(QuarantineConfig { queue_threshold: 3 })
                .faults(FaultPlan::none().with_link_loss(0.2, 0.1))
                .strategy(strategy)
                .build()
                .unwrap();
            let behavior = WormBehavior::random();
            let (full, full_stream) = full_run(&world, &cfg, behavior, 17);
            for split in [1, 35, 69] {
                let (resumed, resumed_stream) = split_run(&world, &cfg, behavior, 17, split);
                assert_eq!(full, resumed, "{routing:?}/{strategy}, split {split}");
                assert_eq!(
                    full_stream, resumed_stream,
                    "{routing:?}/{strategy}, split {split}: stream diverged"
                );
            }
            results.push(full);
        }
    }
    // All six combinations agree with each other too.
    for r in &results[1..] {
        assert_eq!(&results[0], r);
    }
}

/// A snapshot taken on a world routed by one backend resumes on a
/// world routed by a *different* backend with no divergence: routing
/// state is a pure function of the graph (deliberately excluded from
/// the snapshot), and the world fingerprint is structural — so like
/// cross-strategy migration, cross-routing-kind resume is legitimate.
#[test]
fn cross_routing_kind_resume_is_bit_identical() {
    let build_world = |routing: RoutingKind| {
        let topo = generators::SubnetTopologyBuilder::new()
            .backbone_routers(3)
            .subnets(6)
            .hosts_per_subnet(8)
            .build()
            .unwrap();
        World::from_subnets_with(topo, routing)
    };
    let lazy = RoutingKind::Lazy;
    let cfg = |strategy: SimStrategy| {
        SimConfig::builder()
            .beta(0.9)
            .horizon(60)
            .initial_infected(2)
            .log_scans(true)
            .quarantine(QuarantineConfig { queue_threshold: 3 })
            .strategy(strategy)
            .build()
            .unwrap()
    };
    let behavior = WormBehavior::random();
    for (first, second) in [
        (lazy, RoutingKind::Hier),
        (RoutingKind::Hier, RoutingKind::Dense),
        (RoutingKind::Dense, lazy),
    ] {
        // Migrate the routing backend *and* the stepping strategy at
        // the split — both must be invisible to the trajectory.
        let w_first = build_world(first);
        let w_second = build_world(second);
        let (full, full_stream) = full_run(&w_second, &cfg(SimStrategy::Event), behavior, 23);
        let mut sim = Simulator::new(&w_first, &cfg(SimStrategy::Tick), behavior, 23);
        sim.run_until(30, &mut dynaquar_netsim::observer::NullObserver);
        let snap = Snapshot::from_bytes(&sim.snapshot().to_bytes()).unwrap();
        let mut stream = Vec::new();
        let migrated = {
            let mut writer = JsonlEventWriter::new(&mut stream);
            let r = Simulator::resume(&w_second, &cfg(SimStrategy::Event), behavior, &snap)
                .expect("cross-routing-kind resume is legitimate")
                .run_observed(&mut writer);
            writer.finish().unwrap();
            r
        };
        assert_eq!(full, migrated, "{first:?} -> {second:?} migration diverged");
        // The observer stream after the split matches the tail of the
        // uninterrupted stream byte for byte.
        assert!(
            full_stream.ends_with(&stream),
            "{first:?} -> {second:?}: post-split stream diverged"
        );
    }
}

/// A snapshot taken under the tick engine resumes under the event
/// engine (and vice versa) with no divergence — the strategies are
/// bit-identical, so the config fingerprint deliberately excludes the
/// strategy field and mid-run engine migration is legitimate.
#[test]
fn cross_strategy_resume_is_bit_identical() {
    let world = World::from_star(generators::star(59).unwrap());
    let hosts = world.hosts().to_vec();
    let mut p = RateLimitPlan::none();
    p.filter_hosts(&hosts, HostFilter::delaying(200, 1, 5));
    let base = SimConfig::builder()
        .beta(0.9)
        .horizon(60)
        .initial_infected(2)
        .log_scans(true)
        .plan(p)
        .quarantine(QuarantineConfig { queue_threshold: 3 })
        .build()
        .unwrap();
    let behavior = WormBehavior::random();
    for (first, second) in [
        (SimStrategy::Tick, SimStrategy::Event),
        (SimStrategy::Event, SimStrategy::Tick),
    ] {
        let cfg_first = base.clone().with_strategy(first);
        let cfg_second = base.clone().with_strategy(second);
        let (full, _) = full_run(&world, &cfg_second, behavior, 23);
        let mut sim = Simulator::new(&world, &cfg_first, behavior, 23);
        sim.run_until(30, &mut dynaquar_netsim::observer::NullObserver);
        let snap = Snapshot::from_bytes(&sim.snapshot().to_bytes()).unwrap();
        let migrated = Simulator::resume(&world, &cfg_second, behavior, &snap)
            .expect("cross-strategy resume is legitimate")
            .run();
        assert_eq!(full, migrated, "{first} -> {second} migration diverged");
    }
}

/// Fork-at-tick: resume the same snapshot under a *modified* config to
/// branch a counterfactual off a shared prefix. The unmodified fork
/// reproduces the original run; the defended fork shares the prefix
/// bit-for-bit and then diverges (for the better).
#[test]
fn fork_at_tick_branches_a_counterfactual_off_a_shared_prefix() {
    let world = World::from_star(generators::star(99).unwrap());
    let hosts = world.hosts().to_vec();
    let undefended = SimConfig::builder()
        .beta(0.8)
        .horizon(120)
        .initial_infected(1)
        .build()
        .unwrap();
    let seed = 7;
    let split = 8;

    let baseline = Simulator::new(&world, &undefended, WormBehavior::random(), seed).run();

    let mut sim = Simulator::new(&world, &undefended, WormBehavior::random(), seed);
    sim.run_until(split, &mut dynaquar_netsim::observer::NullObserver);
    let snap = Snapshot::from_bytes(&sim.snapshot().to_bytes()).unwrap();

    // Control fork: same config — must reproduce the baseline exactly.
    let control = Simulator::resume(&world, &undefended, WormBehavior::random(), &snap)
        .unwrap()
        .run();
    assert_eq!(baseline, control);

    // Counterfactual fork: what if dynamic quarantine had been deployed
    // at tick `split`?
    let mut p = RateLimitPlan::none();
    p.filter_hosts(&hosts, HostFilter::delaying(200, 1, 5));
    let defended = SimConfig::builder()
        .beta(0.8)
        .horizon(120)
        .initial_infected(1)
        .plan(p)
        .quarantine(QuarantineConfig { queue_threshold: 3 })
        .build()
        .unwrap();
    let fork = Simulator::resume_with(&world, &defended, WormBehavior::random(), &snap)
        .expect("fork with modified config")
        .run();

    // Shared prefix: both trajectories are identical through the split.
    let base_pts = baseline.infected_fraction.points();
    let fork_pts = fork.infected_fraction.points();
    assert_eq!(&base_pts[..=split as usize], &fork_pts[..=split as usize]);
    // And the late defense still beats no defense at all.
    assert!(
        fork.ever_infected_fraction.final_value()
            < baseline.ever_infected_fraction.final_value(),
        "fork {} vs baseline {}",
        fork.ever_infected_fraction.final_value(),
        baseline.ever_infected_fraction.final_value()
    );
}

/// The supervisor resumes a crashed run from its latest checkpoint and
/// the result is bit-identical to a run that never crashed — on any
/// worker-pool size.
#[test]
fn supervisor_resumes_crashed_runs_from_checkpoints() {
    let dir = std::env::temp_dir().join(format!("dqsnap-supervisor-{}", std::process::id()));
    let world = World::from_star(generators::star(29).unwrap());
    let crashing = SimConfig::builder()
        .beta(0.8)
        .horizon(60)
        .initial_infected(1)
        .faults(FaultPlan::none().with_panic_at_tick(25))
        .checkpoint_every(10, &dir)
        .build()
        .unwrap();
    // What an uninterrupted (panic-free, checkpoint-free) batch returns.
    let clean = SimConfig::builder()
        .beta(0.8)
        .horizon(60)
        .initial_infected(1)
        .build()
        .unwrap();
    let seeds: Vec<u64> = (0..4).collect();
    let expected = run_averaged_parallel(
        &world,
        &clean,
        WormBehavior::random(),
        &seeds,
        &ParallelConfig::new(1),
    );

    for threads in [1, 4] {
        let avg = run_supervised_parallel(
            &world,
            &crashing,
            WormBehavior::random(),
            &seeds,
            &SupervisorConfig::default(),
            &ParallelConfig::new(threads),
        )
        .expect("every crashed run resumes from its tick-20 checkpoint");
        for (i, outcome) in avg.outcomes.iter().enumerate() {
            assert_eq!(
                *outcome,
                RunOutcome::ResumedFromCheckpoint {
                    seed: seeds[i],
                    attempts: 2,
                    resumed_at_tick: 20,
                },
                "seed {i} should have crashed at tick 25 and resumed from 20"
            );
        }
        assert_eq!(avg.runs, expected.runs, "{threads} threads");
        assert_eq!(avg.infected_fraction, expected.infected_fraction);
        assert_eq!(avg.ever_infected_fraction, expected.ever_infected_fraction);
        assert_eq!(avg.immunized_fraction, expected.immunized_fraction);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Format pin: the byte encoding of a fixed scenario's snapshot must
/// never change silently. If this hash moves, either bump
/// `snapshot::FORMAT_VERSION` (the file grew a new section or changed
/// layout) or you broke determinism; update the constant only as part
/// of a deliberate, documented format change.
#[test]
fn snapshot_format_fixture_is_pinned() {
    // FNV-1a over the encoded snapshot (matches the codec's section
    // checksums, reimplemented here so the pin is independent of the
    // crate's internals).
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    let world = World::from_star(generators::star(29).unwrap());
    let hosts = world.hosts().to_vec();
    let mut p = RateLimitPlan::none();
    p.filter_hosts(&hosts, HostFilter::delaying(200, 1, 5));
    // Strategy pinned explicitly: the CI env matrix must not be able to
    // move this fixture.
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(40)
        .initial_infected(1)
        .log_scans(true)
        .plan(p)
        .quarantine(QuarantineConfig { queue_threshold: 3 })
        .strategy(SimStrategy::Tick)
        .build()
        .unwrap();
    let mut sim = Simulator::new(&world, &cfg, WormBehavior::random(), 42);
    sim.run_until(20, &mut dynaquar_netsim::observer::NullObserver);
    let bytes = sim.snapshot().to_bytes();

    assert_eq!(&bytes[..8], b"DQSNAPv1");
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        dynaquar_netsim::snapshot::FORMAT_VERSION
    );
    let hash = fnv1a(&bytes);
    assert_eq!(
        hash, PINNED_FIXTURE_HASH,
        "snapshot encoding changed: bump FORMAT_VERSION and re-pin \
         (new hash: {hash:#018X}, {} bytes)",
        bytes.len()
    );
    // The fixture also round-trips, of course.
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.tick(), 20);
    assert_eq!(snap.seed(), 42);
}

/// See [`snapshot_format_fixture_is_pinned`] for re-pin instructions.
/// Re-pinned for format v2: the per-host scan stream section
/// (`SEC_SCANRNG`) joined the encoding alongside the new RNG
/// discipline, so both the layout and the simulated state moved.
const PINNED_FIXTURE_HASH: u64 = 0xBF5F_E401_3868_F593;
