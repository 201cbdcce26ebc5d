//! Property tests for the deterministic parallel runner: thread count
//! must never leak into results — and neither must the stepping
//! strategy or the routing backend.
//!
//! The contract under test (see `dynaquar_netsim::runner`): because each
//! seeded run derives all of its randomness from its own seed and results
//! are collected in seed order, `run_averaged` / `run_supervised` /
//! `infected_envelope` are **bit-identical** for worker pools of 1, 2,
//! and 8 threads — under fault-free runs, under a non-empty `FaultPlan`,
//! and with panicking runs retried/dropped by the supervisor. Every
//! ensemble is additionally swept across the tick and event stepping
//! strategies against one serial tick baseline, so the matrix is
//! (threads × strategy) and any divergence between the engines shows up
//! as an ensemble mismatch here too.

use dynaquar::netsim::config::{
    ImmunizationConfig, ImmunizationTrigger, QuarantineConfig, SimConfig, WormBehavior,
};
use dynaquar::netsim::faults::FaultPlan;
use dynaquar::netsim::metrics::JsonlEventWriter;
use dynaquar::netsim::plan::{HostFilter, RateLimitPlan};
use dynaquar::netsim::runner::{
    run_averaged_parallel, run_supervised_with_parallel, ParallelConfig, RunAttempt,
    SupervisorConfig,
};
use dynaquar::netsim::sim::SimResult;
use dynaquar::netsim::strategy::SimStrategy;
use dynaquar::netsim::{Simulator, World};
use dynaquar::topology::generators;
use dynaquar::topology::lazy::RoutingKind;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const STRATEGIES: [SimStrategy; 2] = [SimStrategy::Tick, SimStrategy::Event];

fn world() -> World {
    World::from_star(generators::star(49).expect("valid star"))
}

fn config(faults: FaultPlan, strategy: SimStrategy) -> SimConfig {
    SimConfig::builder()
        .beta(0.8)
        .horizon(50)
        .initial_infected(1)
        .faults(faults)
        .strategy(strategy)
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault-free ensembles: every series, the raw runs, the outcomes,
    /// and the min/max envelope agree bit-for-bit across thread counts.
    #[test]
    fn run_averaged_is_thread_count_invariant(base_seed in 0u64..1000) {
        let w = world();
        let seeds: Vec<u64> = (0..5).map(|k| base_seed + k).collect();
        let serial = run_averaged_parallel(
            &w,
            &config(FaultPlan::none(), SimStrategy::Tick),
            WormBehavior::random(),
            &seeds,
            &ParallelConfig::serial(),
        );
        for strategy in STRATEGIES {
            let cfg = config(FaultPlan::none(), strategy);
            for threads in THREAD_COUNTS {
                let pooled = run_averaged_parallel(
                    &w, &cfg, WormBehavior::random(), &seeds, &ParallelConfig::new(threads),
                );
                prop_assert_eq!(&serial.infected_fraction, &pooled.infected_fraction);
                prop_assert_eq!(&serial.ever_infected_fraction, &pooled.ever_infected_fraction);
                prop_assert_eq!(&serial.immunized_fraction, &pooled.immunized_fraction);
                prop_assert_eq!(&serial.runs, &pooled.runs);
                prop_assert_eq!(&serial.outcomes, &pooled.outcomes);
                prop_assert_eq!(serial.infected_envelope(), pooled.infected_envelope());
            }
        }
    }

    /// A non-empty fault plan (link loss, detector outages, false
    /// positives, activation jitter) expands per seed, so injected chaos
    /// is also schedule-independent.
    #[test]
    fn faulted_ensembles_are_thread_count_invariant(base_seed in 0u64..500) {
        let w = world();
        let faults = FaultPlan::none()
            .with_link_loss(0.3, 0.1)
            .with_detector_outages(0.2)
            .with_false_positives(4, (5, 30))
            .with_quarantine_jitter(5);
        let seeds: Vec<u64> = (0..5).map(|k| base_seed + k).collect();
        let serial = run_averaged_parallel(
            &w,
            &config(faults.clone(), SimStrategy::Tick),
            WormBehavior::random(),
            &seeds,
            &ParallelConfig::serial(),
        );
        for strategy in STRATEGIES {
            let cfg = config(faults.clone(), strategy);
            for threads in THREAD_COUNTS {
                let pooled = run_averaged_parallel(
                    &w, &cfg, WormBehavior::random(), &seeds, &ParallelConfig::new(threads),
                );
                prop_assert_eq!(
                    &serial.runs, &pooled.runs,
                    "threads = {} strategy = {}", threads, strategy
                );
                prop_assert_eq!(&serial.outcomes, &pooled.outcomes);
                prop_assert_eq!(serial.infected_envelope(), pooled.infected_envelope());
            }
        }
    }

    /// Panicking runs: seeds congruent to `panic_mod` die on their first
    /// attempt and are retried with a derived seed — the retry path is a
    /// pure function of the seed too, so supervision under load is
    /// bit-identical for any pool size.
    #[test]
    fn supervised_retries_are_thread_count_invariant(
        base_seed in 0u64..200,
        panic_mod in 2u64..4,
    ) {
        let w = world();
        let seeds: Vec<u64> = (0..6).map(|k| base_seed + k).collect();
        let serial_cfg = config(FaultPlan::none(), SimStrategy::Tick);
        let serial_run = |a: RunAttempt| {
            if a.attempt == 1 && a.seed.is_multiple_of(panic_mod) {
                panic!("injected: seed {} fails its first attempt", a.seed);
            }
            Simulator::new(&w, &serial_cfg, WormBehavior::random(), a.run_seed).run()
        };
        let serial = run_supervised_with_parallel(
            &seeds, &SupervisorConfig::default(), &ParallelConfig::serial(), serial_run,
        ).expect("retries always succeed");
        for strategy in STRATEGIES {
            let cfg = config(FaultPlan::none(), strategy);
            let run = |a: RunAttempt| {
                if a.attempt == 1 && a.seed.is_multiple_of(panic_mod) {
                    panic!("injected: seed {} fails its first attempt", a.seed);
                }
                Simulator::new(&w, &cfg, WormBehavior::random(), a.run_seed).run()
            };
            for threads in THREAD_COUNTS {
                let pooled = run_supervised_with_parallel(
                    &seeds, &SupervisorConfig::default(), &ParallelConfig::new(threads), run,
                ).expect("retries always succeed");
                prop_assert_eq!(
                    &serial.runs, &pooled.runs,
                    "threads = {} strategy = {}", threads, strategy
                );
                prop_assert_eq!(&serial.outcomes, &pooled.outcomes);
                prop_assert_eq!(&serial.infected_fraction, &pooled.infected_fraction);
                prop_assert_eq!(serial.infected_envelope(), pooled.infected_envelope());
            }
        }
    }
}

/// Seeds that exhaust their retry budget are dropped identically on
/// every pool size: the surviving average never depends on scheduling.
#[test]
fn dropped_runs_are_thread_count_invariant() {
    let w = world();
    let seeds: Vec<u64> = (0..6).collect();
    let mut baseline = None;
    for strategy in STRATEGIES {
        let cfg = config(FaultPlan::none(), strategy);
        let run = |a: RunAttempt| {
            if a.seed == 2 || a.seed == 4 {
                panic!("injected: seed {} always fails", a.seed);
            }
            Simulator::new(&w, &cfg, WormBehavior::random(), a.run_seed).run()
        };
        let serial = run_supervised_with_parallel(
            &seeds,
            &SupervisorConfig::default(),
            &ParallelConfig::serial(),
            run,
        )
        .expect("four survivors");
        assert_eq!(serial.dropped_runs(), 2);
        for threads in THREAD_COUNTS {
            let pooled = run_supervised_with_parallel(
                &seeds,
                &SupervisorConfig::default(),
                &ParallelConfig::new(threads),
                run,
            )
            .expect("four survivors");
            assert_eq!(serial.runs, pooled.runs, "threads = {threads} strategy = {strategy}");
            assert_eq!(serial.outcomes, pooled.outcomes);
        }
        // Both strategies drop the same seeds and keep the same
        // survivors — the ensemble is strategy-invariant too.
        match &baseline {
            None => baseline = Some(serial),
            Some(b) => {
                assert_eq!(b.runs, serial.runs, "strategy = {strategy}");
                assert_eq!(b.outcomes, serial.outcomes);
            }
        }
    }
}

// ---------------------------------------------------------------------
// A single busy world: the stepping strategy and the routing backend
// must be as invisible as the worker-thread count above — same
// SimResult, same observer bytes.
// ---------------------------------------------------------------------

/// A subnet world busy enough that hundreds of hosts are infected at
/// once, so every engine phase carries real work.
fn busy_world(routing: RoutingKind) -> World {
    World::from_subnets_with(
        generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(8)
            .hosts_per_subnet(40)
            .build()
            .expect("valid subnet topology"),
        routing,
    )
}

/// A busy config: throttling filters feed the packet queues and a
/// quarantine threshold keeps state transitions flowing, so every
/// engine phase (scan, forward, detect, immunize) is exercised.
fn busy_config(world: &World, strategy: SimStrategy, faults: FaultPlan) -> SimConfig {
    let hosts = world.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 2, 10));
    SimConfig::builder()
        .beta(0.8)
        .horizon(40)
        .initial_infected(4)
        .log_scans(true)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 4 })
        .immunization(ImmunizationConfig {
            trigger: ImmunizationTrigger::AtTick(15),
            mu: 0.05,
        })
        .faults(faults)
        .strategy(strategy)
        .build()
        .expect("valid config")
}

/// One observed run: the result plus the full observer JSONL stream.
fn observed_run(world: &World, cfg: &SimConfig, seed: u64) -> (SimResult, Vec<u8>) {
    let mut buf = Vec::new();
    let result = {
        let mut writer = JsonlEventWriter::new(&mut buf);
        let r = Simulator::new(world, cfg, WormBehavior::random(), seed).run_observed(&mut writer);
        writer.finish().unwrap();
        r
    };
    (result, buf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A single busy world stepped under either strategy, on the hier
    /// or the dense routing backend, with or without a fault plan,
    /// produces the same `SimResult` **and the same observer bytes** as
    /// the tick run on hier routing.
    #[test]
    fn busy_world_runs_match_across_strategy_and_routing(
        seed in 0u64..500,
        with_faults in proptest::bool::ANY,
    ) {
        let faults = if with_faults {
            FaultPlan::none()
                .with_link_loss(0.2, 0.1)
                .with_detector_outages(0.2)
                .with_false_positives(4, (5, 30))
                .with_quarantine_jitter(3)
        } else {
            FaultPlan::none()
        };
        let serial_world = busy_world(RoutingKind::Hier);
        let serial_cfg = busy_config(&serial_world, SimStrategy::Tick, faults.clone());
        let (baseline, baseline_stream) = observed_run(&serial_world, &serial_cfg, seed);
        for routing in [RoutingKind::Hier, RoutingKind::Dense] {
            let world = busy_world(routing);
            for strategy in STRATEGIES {
                let cfg = busy_config(&world, strategy, faults.clone());
                let (result, stream) = observed_run(&world, &cfg, seed);
                prop_assert_eq!(
                    &baseline, &result,
                    "strategy = {} routing = {:?}", strategy, routing
                );
                prop_assert_eq!(
                    &baseline_stream, &stream,
                    "observer stream diverged: strategy = {} routing = {:?}",
                    strategy, routing
                );
            }
        }
    }
}
