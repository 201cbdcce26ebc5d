//! One-stop scenario runner: topology + worm + deployment → propagation
//! curves, via the simulated and (where available) analytic paths.

use crate::strategy::{build_plan, Deployment, RateLimitParams};
use dynaquar_epidemic::logistic::Logistic;
use dynaquar_epidemic::timeto::CurveSummary;
use dynaquar_epidemic::TimeSeries;
use dynaquar_netsim::config::{
    CheckpointPolicy, ImmunizationConfig, QuarantineConfig, SimConfig, WormBehavior,
};
use dynaquar_netsim::faults::FaultPlan;
use dynaquar_netsim::metrics::PacketAccounting;
use dynaquar_netsim::runner::run_averaged_parallel;
use dynaquar_netsim::strategy::SimStrategy;
use dynaquar_netsim::ShardSpec;
use dynaquar_netsim::World;
use dynaquar_parallel::ParallelConfig;
use dynaquar_topology::generators;
use dynaquar_topology::lazy::RoutingKind;
use serde::{Deserialize, Serialize};

/// Which topology a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// A star with this many leaves (Section 4).
    Star {
        /// Number of leaf nodes.
        leaves: usize,
    },
    /// A Barabási–Albert power-law graph (Section 5.4), roles assigned
    /// top-5 % backbone / next-10 % edge.
    PowerLaw {
        /// Number of nodes.
        nodes: usize,
        /// Edges attached per new node.
        edges_per_node: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A hierarchical subnet topology (Figure 5/6 experiments).
    Subnets {
        /// Backbone core routers.
        backbone: usize,
        /// Number of subnets.
        subnets: usize,
        /// End hosts per subnet.
        hosts_per_subnet: usize,
    },
}

impl TopologySpec {
    /// Materializes the world with automatic routing-backend selection
    /// ([`RoutingKind::Auto`]: dense all-pairs table for paper-scale
    /// graphs; above 4096 nodes the two-level hierarchical backend when
    /// degree-1 peeling leaves a dense-sized core — subnet worlds
    /// collapse to their backbone — or memory-bounded lazy BFS
    /// otherwise).
    ///
    /// # Panics
    ///
    /// Panics on degenerate sizes (zero leaves/subnets/hosts).
    pub fn build(&self) -> World {
        self.build_with(RoutingKind::Auto)
    }

    /// [`TopologySpec::build`] with an explicit routing backend choice.
    ///
    /// # Panics
    ///
    /// Panics on degenerate sizes (zero leaves/subnets/hosts).
    pub fn build_with(&self, routing: RoutingKind) -> World {
        match *self {
            TopologySpec::Star { leaves } => World::from_star_with(
                generators::star(leaves).expect("valid star size"),
                routing,
            ),
            TopologySpec::PowerLaw {
                nodes,
                edges_per_node,
                seed,
            } => World::from_power_law_with(
                generators::barabasi_albert(nodes, edges_per_node, seed)
                    .expect("valid power-law parameters"),
                0.05,
                0.10,
                routing,
            ),
            TopologySpec::Subnets {
                backbone,
                subnets,
                hosts_per_subnet,
            } => World::from_subnets_with(
                generators::SubnetTopologyBuilder::new()
                    .backbone_routers(backbone)
                    .subnets(subnets)
                    .hosts_per_subnet(hosts_per_subnet)
                    .build()
                    .expect("valid subnet parameters"),
                routing,
            ),
        }
    }
}

/// A complete experiment description.
///
/// # Example
///
/// ```
/// use dynaquar_core::{Deployment, Scenario, TopologySpec};
///
/// let outcome = Scenario::new(TopologySpec::Star { leaves: 49 })
///     .beta(0.8)
///     .horizon(60)
///     .deployment(Deployment::None)
///     .runs(2)
///     .run_simulated();
/// assert!(outcome.infected.final_value() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub(crate) topology: TopologySpec,
    pub(crate) behavior: WormBehavior,
    pub(crate) beta: f64,
    pub(crate) horizon: u64,
    pub(crate) initial_infected: usize,
    pub(crate) deployment: Deployment,
    pub(crate) params: RateLimitParams,
    pub(crate) immunization: Option<ImmunizationConfig>,
    pub(crate) quarantine: Option<QuarantineConfig>,
    pub(crate) faults: FaultPlan,
    pub(crate) runs: usize,
    pub(crate) seed: u64,
    pub(crate) parallelism: Option<usize>,
    pub(crate) routing: RoutingKind,
    pub(crate) strategy: SimStrategy,
    pub(crate) shards: ShardSpec,
    pub(crate) checkpoint: Option<CheckpointPolicy>,
}

impl Scenario {
    /// Creates a scenario with paper defaults: random worm, β = 0.8, one
    /// initial infection, horizon 50, no rate limiting, 10 averaged runs.
    pub fn new(topology: TopologySpec) -> Self {
        Scenario {
            topology,
            behavior: WormBehavior::random(),
            beta: 0.8,
            horizon: 50,
            initial_infected: 1,
            deployment: Deployment::None,
            params: RateLimitParams::default(),
            immunization: None,
            quarantine: None,
            faults: FaultPlan::none(),
            runs: 10,
            seed: 0,
            parallelism: None,
            routing: RoutingKind::Auto,
            strategy: SimStrategy::Auto,
            shards: ShardSpec::Auto,
            checkpoint: None,
        }
    }

    /// Sets the worm behaviour.
    pub fn behavior(mut self, behavior: WormBehavior) -> Self {
        self.behavior = behavior;
        self
    }

    /// Sets the infection probability β.
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the horizon in ticks.
    pub fn horizon(mut self, ticks: u64) -> Self {
        self.horizon = ticks;
        self
    }

    /// Sets the number of initially infected hosts.
    pub fn initial_infected(mut self, count: usize) -> Self {
        self.initial_infected = count;
        self
    }

    /// Sets the deployment strategy.
    pub fn deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = deployment;
        self
    }

    /// Overrides the rate-limit mechanism parameters.
    pub fn params(mut self, params: RateLimitParams) -> Self {
        self.params = params;
        self
    }

    /// Enables delayed immunization.
    pub fn immunization(mut self, config: ImmunizationConfig) -> Self {
        self.immunization = Some(config);
        self
    }

    /// Enables the paper's titular detection-driven *dynamic
    /// quarantine*: a host whose delaying egress filter accumulates
    /// `queue_threshold` pending scans is cut off on the spot. Only
    /// meaningful when the deployment installs *delaying* host filters
    /// (see [`RateLimitParams::host_release_period_ticks`]) — the
    /// throttle queue is the detector.
    pub fn quarantine(mut self, config: QuarantineConfig) -> Self {
        self.quarantine = Some(config);
        self
    }

    /// Injects a deterministic fault plan (outages, loss, broken
    /// detectors) into every run of the scenario. The default is
    /// [`FaultPlan::none`], which leaves the simulation bit-identical
    /// to a fault-free engine.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the number of averaged runs.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "need at least one run");
        self.runs = runs;
        self
    }

    /// Sets the base RNG seed (run `k` uses `seed + k`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Picks the routing backend for worlds this scenario builds itself
    /// (`run_simulated`, `analytic_baseline`). The default
    /// [`RoutingKind::Auto`] keeps paper-scale topologies on the dense
    /// all-pairs table and switches large worlds to the two-level
    /// hierarchical backend (when degree-1 peeling leaves a dense-sized
    /// core) or the memory-bounded lazy backend; all backends produce
    /// bit-identical next hops, so this knob trades memory for
    /// per-query search work without changing any curve.
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Picks the engine stepping strategy for every run of the
    /// scenario. The default [`SimStrategy::Auto`] keeps paper-scale
    /// worlds on the tick engine and switches large worlds to the
    /// event-driven engine (same size threshold as
    /// [`RoutingKind::Auto`]); the two are bit-identical, so like
    /// [`Scenario::routing`] this knob never changes a curve.
    pub fn strategy(mut self, strategy: SimStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the intra-world shard count for every run of the scenario.
    /// The default [`ShardSpec::Auto`] follows `DYNAQUAR_SHARDS`, then
    /// stays serial. Sharding splits each phase sweep of a single world
    /// across cores with a deterministic ascending-host-id merge, so
    /// like [`Scenario::routing`] and [`Scenario::strategy`] this knob
    /// is a pure performance choice: any shard count traces
    /// bit-identical curves.
    pub fn shards(mut self, shards: ShardSpec) -> Self {
        self.shards = shards;
        self
    }

    /// Checkpoints every run of the scenario every `every_ticks` ticks
    /// into `directory` (one snapshot file per run seed), and lets the
    /// supervisor resume a crashed run from its latest checkpoint
    /// instead of reseeding it. Checkpointing never changes a curve:
    /// the snapshot captures the engine mid-run without touching its
    /// RNG streams, so a resumed run is bit-identical to an
    /// uninterrupted one.
    ///
    /// # Panics
    ///
    /// Panics if `every_ticks == 0`.
    pub fn checkpoint_every(
        mut self,
        every_ticks: u64,
        directory: impl Into<std::path::PathBuf>,
    ) -> Self {
        assert!(every_ticks > 0, "need a positive checkpoint interval");
        self.checkpoint = Some(CheckpointPolicy {
            every_ticks,
            directory: directory.into(),
        });
        self
    }

    /// Sets the worker-thread count for the averaged runs. The default
    /// (unset) follows `DYNAQUAR_THREADS`, then the machine's available
    /// parallelism. Thread count never changes the result: the runner
    /// collects seeded runs in seed order, so the averaged curves are
    /// bit-identical for any value here.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn parallelism(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.parallelism = Some(threads);
        self
    }

    /// Runs the packet-level simulation, averaged over the configured
    /// number of runs.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (degenerate β or horizon).
    pub fn run_simulated(&self) -> ScenarioOutcome {
        let world = self.topology.build_with(self.routing);
        self.run_simulated_on(&world)
    }

    /// Like [`Scenario::run_simulated`] but reuses a prebuilt world
    /// (avoids recomputing routing when comparing deployments on the
    /// same topology).
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration.
    pub fn run_simulated_on(&self, world: &World) -> ScenarioOutcome {
        let config = self.sim_config_for(world);
        let seeds: Vec<u64> = (0..self.runs as u64).map(|k| self.seed + k).collect();
        let parallel = match self.parallelism {
            Some(threads) => ParallelConfig::new(threads),
            None => ParallelConfig::from_env(),
        };
        let avg = run_averaged_parallel(world, &config, self.behavior, &seeds, &parallel);
        ScenarioOutcome {
            label: self.deployment.label(),
            summary: CurveSummary::of(&avg.infected_fraction),
            infected: avg.infected_fraction,
            ever_infected: avg.ever_infected_fraction,
            immunized: avg.immunized_fraction,
            accounting: avg.accounting,
        }
    }

    /// Materializes the scenario's topology with its configured routing
    /// backend — the world [`Scenario::run_simulated`] would build.
    ///
    /// # Panics
    ///
    /// Panics on degenerate topology sizes.
    pub fn build_world(&self) -> World {
        self.topology.build_with(self.routing)
    }

    /// Builds the engine configuration this scenario runs on `world` —
    /// the exact [`SimConfig`] every averaged run uses, exposed so a
    /// serving layer can drive single [`dynaquar_netsim::Simulator`]
    /// runs (with observers, checkpoints, forks) under the same
    /// contract as [`Scenario::run_simulated_on`].
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (degenerate β or horizon).
    pub fn sim_config_for(&self, world: &World) -> SimConfig {
        let plan = build_plan(world, self.deployment, &self.params);
        let mut builder = SimConfig::builder();
        builder
            .beta(self.beta)
            .horizon(self.horizon)
            .initial_infected(self.initial_infected)
            .strategy(self.strategy)
            .shards(self.shards)
            .plan(plan);
        if let Some(imm) = self.immunization {
            builder.immunization(imm);
        }
        if let Some(q) = self.quarantine {
            builder.quarantine(q);
        }
        builder.faults(self.faults.clone());
        if let Some(cp) = &self.checkpoint {
            builder.checkpoint_every(cp.every_ticks, cp.directory.clone());
        }
        builder.build().expect("scenario parameters validated")
    }

    /// The worm behaviour every run of this scenario uses.
    pub fn worm_behavior(&self) -> WormBehavior {
        self.behavior
    }

    /// The base RNG seed (run `k` uses `seed + k`).
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// The number of averaged runs.
    pub fn run_count(&self) -> usize {
        self.runs
    }

    /// The simulation horizon in ticks.
    pub fn horizon_ticks(&self) -> u64 {
        self.horizon
    }

    /// The checkpoint policy, if any.
    pub fn checkpoint_policy(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// The homogeneous-model analytic baseline for this scenario's
    /// population and β (exact only for `Deployment::None`; deployments
    /// have their own models in [`dynaquar_epidemic`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology yields fewer than two hosts.
    pub fn analytic_baseline(&self, dt: f64) -> TimeSeries {
        let world = self.topology.build();
        let n = world.hosts().len() as f64;
        Logistic::new(n, self.beta, self.initial_infected as f64)
            .expect("valid logistic parameters")
            .series(0.0, self.horizon as f64, dt)
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Legend label (derived from the deployment).
    pub label: String,
    /// Mean infected fraction per tick.
    pub infected: TimeSeries,
    /// Mean ever-infected fraction per tick.
    pub ever_infected: TimeSeries,
    /// Mean immunized fraction per tick.
    pub immunized: TimeSeries,
    /// Summary statistics of the infected curve.
    pub summary: CurveSummary,
    /// The merged packet ledger of every averaged run: how many packets
    /// the ensemble emitted, delivered, filtered, lost, or found
    /// unroutable (summed over runs, per packet kind).
    pub accounting: PacketAccounting,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_scenario_saturates_without_rl() {
        let out = Scenario::new(TopologySpec::Star { leaves: 49 })
            .horizon(80)
            .runs(2)
            .run_simulated();
        assert!(out.infected.final_value() > 0.9);
        assert_eq!(out.label, "No RL");
    }

    #[test]
    fn hub_deployment_slows_star() {
        let spec = TopologySpec::Star { leaves: 99 };
        let world = spec.build();
        let base = Scenario::new(spec).horizon(100).runs(3);
        let none = base.clone().run_simulated_on(&world);
        let hub = base
            .clone()
            .deployment(Deployment::Hub)
            .run_simulated_on(&world);
        let t_none = none.infected.time_to_reach(0.5).unwrap();
        if let Some(t_hub) = hub.infected.time_to_reach(0.5) { assert!(t_hub > 1.5 * t_none) }
    }

    #[test]
    fn analytic_baseline_tracks_simulation_roughly() {
        let scenario = Scenario::new(TopologySpec::Star { leaves: 199 })
            .horizon(50)
            .runs(4);
        let sim = scenario.run_simulated();
        let model = scenario.analytic_baseline(1.0);
        // Both saturate; times to 50% within a factor of ~2.5 (the
        // simulated worm pays routing latency the model ignores).
        let ts = sim.infected.time_to_reach(0.5).unwrap();
        let tm = model.time_to_reach(0.5).unwrap();
        assert!(ts / tm < 4.0 && tm / ts < 4.0, "sim {ts} model {tm}");
    }

    #[test]
    fn subnet_scenario_with_local_preferential() {
        let out = Scenario::new(TopologySpec::Subnets {
            backbone: 2,
            subnets: 5,
            hosts_per_subnet: 10,
        })
        .behavior(WormBehavior::local_preferential(0.9))
        .horizon(150)
        .runs(2)
        .run_simulated();
        assert!(out.infected.final_value() > 0.8);
    }

    #[test]
    fn power_law_spec_builds() {
        let w = TopologySpec::PowerLaw {
            nodes: 200,
            edges_per_node: 2,
            seed: 5,
        }
        .build();
        assert_eq!(w.graph().node_count(), 200);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        let _ = Scenario::new(TopologySpec::Star { leaves: 10 }).runs(0);
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_parallelism_panics() {
        let _ = Scenario::new(TopologySpec::Star { leaves: 10 }).parallelism(0);
    }

    #[test]
    fn parallelism_knob_does_not_change_the_outcome() {
        let spec = TopologySpec::Star { leaves: 39 };
        let world = spec.build();
        let base = Scenario::new(spec).horizon(60).runs(4);
        let serial = base.clone().parallelism(1).run_simulated_on(&world);
        let pooled = base.clone().parallelism(4).run_simulated_on(&world);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn routing_backend_does_not_change_the_outcome() {
        let base = Scenario::new(TopologySpec::PowerLaw {
            nodes: 150,
            edges_per_node: 2,
            seed: 11,
        })
        .horizon(60)
        .runs(2);
        let dense = base.clone().routing(RoutingKind::Dense).run_simulated();
        let lazy = base
            .clone()
            .routing(RoutingKind::Lazy)
            .run_simulated();
        let hier = base.clone().routing(RoutingKind::Hier).run_simulated();
        let auto = base.run_simulated();
        assert_eq!(dense, lazy);
        assert_eq!(dense, hier);
        assert_eq!(dense, auto);
    }

    #[test]
    fn routing_backend_does_not_change_the_outcome_on_subnet_worlds() {
        // The hier backend's home turf: host stars and edge routers
        // peel, the backbone ring is the core. All three backends (and
        // Auto, which picks hier here once the world outgrows the dense
        // threshold) must trace the same curves.
        let base = Scenario::new(TopologySpec::Subnets {
            backbone: 3,
            subnets: 8,
            hosts_per_subnet: 12,
        })
        .horizon(60)
        .runs(2);
        let dense = base.clone().routing(RoutingKind::Dense).run_simulated();
        let lazy = base
            .clone()
            .routing(RoutingKind::Lazy)
            .run_simulated();
        let hier = base.clone().routing(RoutingKind::Hier).run_simulated();
        assert_eq!(dense, lazy);
        assert_eq!(dense, hier);
    }

    #[test]
    fn stepping_strategy_does_not_change_the_outcome() {
        // The engine-strategy analogue of the routing test above: tick
        // and event stepping are bit-identical on a scenario exercising
        // throttling filters and fault injection.
        let base = Scenario::new(TopologySpec::PowerLaw {
            nodes: 150,
            edges_per_node: 2,
            seed: 11,
        })
        .horizon(60)
        .deployment(Deployment::Hosts { fraction: 1.0 })
        .faults(FaultPlan::none().with_link_loss(0.2, 0.1))
        .runs(2);
        let tick = base.clone().strategy(SimStrategy::Tick).run_simulated();
        let event = base.clone().strategy(SimStrategy::Event).run_simulated();
        assert_eq!(tick, event);
    }

    #[test]
    fn shard_count_does_not_change_the_outcome() {
        // The sharding analogue of the parallelism test above: the
        // world is tiny (far under the shard work thresholds) and a
        // sharded sweep must still be bit-identical, because the
        // thresholds only gate whether threads are spawned — never the
        // draw or merge order.
        let spec = TopologySpec::Subnets {
            backbone: 2,
            subnets: 6,
            hosts_per_subnet: 10,
        };
        let world = spec.build();
        let base = Scenario::new(spec)
            .horizon(60)
            .deployment(Deployment::Hosts { fraction: 1.0 })
            .runs(2);
        let serial = base.clone().shards(ShardSpec::Fixed(1)).run_simulated_on(&world);
        let sharded = base.clone().shards(ShardSpec::Fixed(4)).run_simulated_on(&world);
        assert_eq!(serial, sharded);
    }

    #[test]
    fn checkpointing_does_not_change_the_outcome() {
        let dir = std::env::temp_dir().join(format!("dqsnap-scenario-{}", std::process::id()));
        let spec = TopologySpec::Star { leaves: 39 };
        let world = spec.build();
        let base = Scenario::new(spec).horizon(60).runs(2);
        let plain = base.clone().run_simulated_on(&world);
        let checkpointed = base.checkpoint_every(10, &dir).run_simulated_on(&world);
        assert_eq!(plain, checkpointed);
        // The policy actually wrote snapshots (one per run seed).
        assert!(std::fs::read_dir(&dir).map(|d| d.count() >= 2).unwrap_or(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "positive checkpoint interval")]
    fn zero_checkpoint_interval_panics() {
        let _ = Scenario::new(TopologySpec::Star { leaves: 10 }).checkpoint_every(0, "x");
    }

    #[test]
    fn explicit_empty_fault_plan_changes_nothing() {
        let spec = TopologySpec::Star { leaves: 39 };
        let world = spec.build();
        let base = Scenario::new(spec).horizon(60).runs(2);
        let plain = base.clone().run_simulated_on(&world);
        let with_none = base.faults(FaultPlan::none()).run_simulated_on(&world);
        assert_eq!(plain, with_none);
    }

    #[test]
    fn outcome_carries_a_conserved_packet_ledger() {
        let out = Scenario::new(TopologySpec::Star { leaves: 49 })
            .horizon(60)
            .runs(3)
            .run_simulated();
        assert!(out.accounting.is_conserved());
        assert!(out.accounting.worm.emitted > 0);
        assert!(out.accounting.worm.delivered > 0);
        assert_eq!(out.accounting.background.emitted, 0);
    }

    #[test]
    fn false_positive_faults_immunize_clean_hosts() {
        let spec = TopologySpec::Star { leaves: 49 };
        let world = spec.build();
        let out = Scenario::new(spec)
            .horizon(60)
            .runs(2)
            .faults(FaultPlan::none().with_false_positives(10, (0, 30)))
            .run_simulated_on(&world);
        // No quarantine or immunization is configured, so every
        // immunized host is a false-positive quarantine of a clean one.
        assert!(out.immunized.final_value() > 0.0);
    }
}
