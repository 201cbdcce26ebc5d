//! Bit-exact fingerprints of representative runs, pinned across engine
//! refactors.
//!
//! The packet-accounting layer rebuilt the engine's hot paths
//! (incremental state census, per-kind ledgers, phase timers); these
//! fingerprints were recorded on the engine *before* that change and
//! must keep reproducing exactly — instrumentation is observation, not
//! behaviour. Sums are compared as `{:.17e}` strings: 17 significant
//! digits round-trips every f64, so a match here is a bit-identity
//! match.
//!
//! Re-pinned once for the order-independent RNG discipline: scan draws
//! now come from per-host streams seeded at infection time and
//! immunization draws from a stateless per-`(tick, host)` hash, so a
//! host's randomness no longer depends on which other hosts exist or
//! in which order a sweep visits them. The new values are the engine's
//! permanent fingerprint.
//!
//! Every fingerprinted world now runs under **both stepping
//! strategies** ([`STRATEGIES`]): the event-driven engine must
//! reproduce every tick-engine pin bit for bit, with the same
//! constants on purpose. A pin failure names the strategy that
//! diverged.

use dynaquar_netsim::background::BackgroundTraffic;
use dynaquar_netsim::config::{
    ImmunizationConfig, ImmunizationTrigger, QuarantineConfig, SimConfig, WormBehavior,
};
use dynaquar_netsim::faults::FaultPlan;
use dynaquar_netsim::plan::{HostFilter, RateLimitPlan};
use dynaquar_netsim::sim::{SimResult, Simulator};
use dynaquar_netsim::strategy::SimStrategy;
use dynaquar_netsim::World;
use dynaquar_topology::generators;
use dynaquar_topology::lazy::RoutingKind;

/// Both explicit strategies; every fingerprint world is pinned under
/// each, so the suite fails loudly if the engines ever diverge.
const STRATEGIES: [SimStrategy; 2] = [SimStrategy::Tick, SimStrategy::Event];

/// The star worlds are pinned under both the dense table (now the
/// parallel-built packed-cell construction) and the two-level hier
/// backend (a star is a pure tree: everything peels to the hub), with
/// the same constants on purpose — routing is pure function, so the
/// backend must never show up in a fingerprint.
const ROUTINGS: [RoutingKind; 2] = [RoutingKind::Dense, RoutingKind::Hier];

/// Every (strategy, routing) combination the star pins sweep.
fn strategy_routing_matrix() -> impl Iterator<Item = (SimStrategy, RoutingKind)> {
    STRATEGIES
        .into_iter()
        .flat_map(|s| ROUTINGS.into_iter().map(move |r| (s, r)))
}

fn series_sum(s: &dynaquar_epidemic::TimeSeries) -> f64 {
    s.iter().map(|(_, v)| v).sum()
}

fn pin(label: &str, value: f64, expected: &str) {
    assert_eq!(
        format!("{value:.17e}"),
        expected,
        "{label} diverged from the pre-instrumentation engine"
    );
}

/// Every fingerprinted run must also balance its ledger.
fn assert_conserved(r: &SimResult) {
    assert!(
        r.accounting.is_conserved(),
        "ledger defect: worm {} / background {}",
        r.accounting.worm.conservation_defect(),
        r.accounting.background.conservation_defect()
    );
    assert_eq!(r.delivered_packets, r.accounting.worm.delivered);
    assert_eq!(r.filtered_packets, r.accounting.worm.filtered);
    assert_eq!(r.delayed_packets, r.accounting.worm.delayed);
    assert_eq!(
        r.lost_packets,
        r.accounting.worm.lost + r.accounting.background.lost
    );
    assert_eq!(
        r.residual_packets,
        r.accounting.worm.in_flight_at_end + r.accounting.background.in_flight_at_end
    );
}

#[test]
fn dynamic_quarantine_star_is_bit_identical() {
    for (strategy, routing) in strategy_routing_matrix() {
        let w = World::from_star_with(generators::star(199).unwrap(), routing);
        let hosts = w.hosts().to_vec();
        let mut plan = RateLimitPlan::none();
        plan.filter_hosts(&hosts, HostFilter::delaying(200, 1, 10));
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(200)
            .initial_infected(2)
            .plan(plan)
            .quarantine(QuarantineConfig { queue_threshold: 3 })
            .strategy(strategy)
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 21).run();
        pin(
            &format!("{strategy}/infected"),
            series_sum(&r.infected_fraction),
            "7.78894472361808976e-1",
        );
        pin(
            &format!("{strategy}/ever"),
            series_sum(&r.ever_infected_fraction),
            "2.79497487437187075e1",
        );
        pin(
            &format!("{strategy}/immunized"),
            series_sum(&r.immunized_fraction),
            "2.71708542713568946e1",
        );
        pin(&format!("{strategy}/backlog"), series_sum(&r.backlog), "3.20000000000000000e1");
        assert_eq!(r.delivered_packets, 32);
        assert_eq!(r.filtered_packets, 0);
        assert_eq!(r.delayed_packets, 90);
        assert_eq!(r.quarantined_hosts, 30);
        assert_eq!(r.residual_packets, 0);
        assert_conserved(&r);
    }
}

#[test]
fn capped_hub_with_background_is_bit_identical() {
    for (strategy, routing) in strategy_routing_matrix() {
        let star = generators::star(99).unwrap();
        let hub = star.hub;
        let w = World::from_star_with(star, routing);
        let mut plan = RateLimitPlan::none();
        plan.limit_links_at_node(w.graph(), hub, 0.3);
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(200)
            .initial_infected(1)
            .background(BackgroundTraffic::new(0.5))
            .plan(plan)
            .strategy(strategy)
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 13).run();
        pin(
            &format!("{strategy}/infected"),
            series_sum(&r.infected_fraction),
            "1.72939393939393938e2",
        );
        pin(&format!("{strategy}/backlog"), series_sum(&r.backlog), "1.00815100000000000e6");
        assert_eq!(r.delivered_packets, 1960);
        assert_eq!(r.background.injected, 100);
        assert_eq!(r.background.delivered, 27);
        assert_eq!(r.background.total_delay_ticks, 1378);
        assert_eq!(r.background.max_delay_ticks, 145);
        assert_eq!(r.background.total_hops, 54);
        assert_eq!(r.residual_packets, 11596);
        assert_conserved(&r);
    }
}

#[test]
fn welchia_self_patch_is_bit_identical() {
    for (strategy, routing) in strategy_routing_matrix() {
        let w = World::from_star_with(generators::star(199).unwrap(), routing);
        let welchia = WormBehavior::random()
            .with_scan_rate(3)
            .with_self_patch_after(12);
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(300)
            .initial_infected(2)
            .strategy(strategy)
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, welchia, 31).run();
        pin(
            &format!("{strategy}/infected"),
            series_sum(&r.infected_fraction),
            "1.20000000000000000e1",
        );
        pin(
            &format!("{strategy}/ever"),
            series_sum(&r.ever_infected_fraction),
            "2.94201005025125596e2",
        );
        pin(
            &format!("{strategy}/immunized"),
            series_sum(&r.immunized_fraction),
            "2.82201005025125596e2",
        );
        assert_eq!(r.delivered_packets, 5181);
        assert_eq!(r.residual_packets, 0);
        assert_conserved(&r);
    }
}

#[test]
fn kitchen_sink_fault_plan_is_bit_identical() {
    for (strategy, routing) in strategy_routing_matrix() {
        let w = World::from_star_with(generators::star(149).unwrap(), routing);
        let hosts = w.hosts().to_vec();
        let mut plan = RateLimitPlan::none();
        plan.filter_hosts(&hosts, HostFilter::delaying(200, 1, 8));
        let faults = FaultPlan::none()
            .with_link_outages(5, (5, 40), 15)
            .with_node_outages(3, (5, 40), 15)
            .with_link_loss(0.2, 0.1)
            .with_detector_outages(0.2)
            .with_false_positives(4, (5, 60))
            .with_quarantine_jitter(4);
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(150)
            .initial_infected(2)
            .plan(plan)
            .quarantine(QuarantineConfig { queue_threshold: 3 })
            .immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtInfectedFraction(0.3),
                mu: 0.05,
            })
            .faults(faults)
            .strategy(strategy)
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 9).run();
        pin(
            &format!("{strategy}/infected"),
            series_sum(&r.infected_fraction),
            "8.59060402684562519e0",
        );
        pin(
            &format!("{strategy}/ever"),
            series_sum(&r.ever_infected_fraction),
            "1.01885906040268424e2",
        );
        pin(
            &format!("{strategy}/immunized"),
            series_sum(&r.immunized_fraction),
            "1.17939597315436231e2",
        );
        pin(&format!("{strategy}/backlog"), series_sum(&r.backlog), "6.21000000000000000e2");
        assert_eq!(r.delivered_packets, 552);
        assert_eq!(r.filtered_packets, 0);
        assert_eq!(r.delayed_packets, 350);
        assert_eq!(r.quarantined_hosts, 78);
        assert_eq!(r.false_quarantined_hosts, 2);
        assert_eq!(r.lost_packets, 19);
        assert_eq!(r.residual_packets, 0);
        assert_conserved(&r);
    }
}

/// The n = 1000 power-law fingerprint run under a chosen routing
/// backend and stepping strategy: rate-limited hosts plus
/// detection-driven quarantine on the paper's AS-level topology family.
fn power_law_1000_run(
    routing: dynaquar_topology::lazy::RoutingKind,
    strategy: SimStrategy,
) -> SimResult {
    let g = generators::barabasi_albert(1000, 2, 3).unwrap();
    let w = World::from_power_law_with(g, 0.05, 0.10, routing);
    let hosts = w.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 2, 12));
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(120)
        .initial_infected(4)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 4 })
        .strategy(strategy)
        .build()
        .unwrap();
    Simulator::new(&w, &cfg, WormBehavior::random(), 17).run()
}

/// The n = 1000 pinned fingerprint, shared by both backend tests below:
/// the same constants on purpose — the lazy backend must reproduce the
/// dense run bit for bit.
fn assert_power_law_1000_fingerprint(r: &SimResult) {
    pin("infected", series_sum(&r.infected_fraction), "6.05411764705882316e0");
    pin("ever", series_sum(&r.ever_infected_fraction), "7.04094117647058937e1");
    pin("immunized", series_sum(&r.immunized_fraction), "6.43552941176470625e1");
    pin("backlog", series_sum(&r.backlog), "4.53000000000000000e3");
    assert_eq!(r.delivered_packets, 1362);
    assert_eq!(r.filtered_packets, 0);
    assert_eq!(r.delayed_packets, 2708);
    assert_eq!(r.quarantined_hosts, 677);
    assert_eq!(r.residual_packets, 0);
    assert_conserved(r);
}

#[test]
fn power_law_1000_dense_backend_is_bit_identical() {
    for strategy in STRATEGIES {
        let r = power_law_1000_run(dynaquar_topology::lazy::RoutingKind::Dense, strategy);
        assert_power_law_1000_fingerprint(&r);
    }
}

#[test]
fn power_law_1000_lazy_backend_is_bit_identical() {
    // Every hop of every packet is a fresh bidirectional search, and
    // the run still reproduces the dense fingerprint.
    for strategy in STRATEGIES {
        let r = power_law_1000_run(dynaquar_topology::lazy::RoutingKind::Lazy, strategy);
        assert_power_law_1000_fingerprint(&r);
    }
}

#[test]
fn power_law_1000_hier_backend_is_bit_identical() {
    // BA with m = 2 has minimum degree 2, so nothing peels and the
    // hier backend degenerates to a dense core table over the whole
    // graph — the worst case for hier, still bit-identical.
    for strategy in STRATEGIES {
        let r = power_law_1000_run(RoutingKind::Hier, strategy);
        assert_power_law_1000_fingerprint(&r);
    }
}

#[test]
fn power_law_1000_backends_produce_equal_results() {
    let dense = power_law_1000_run(dynaquar_topology::lazy::RoutingKind::Dense, SimStrategy::Tick);
    let lazy = power_law_1000_run(dynaquar_topology::lazy::RoutingKind::Lazy, SimStrategy::Event);
    assert_eq!(
        dense, lazy,
        "routing backend × stepping strategy diverged on the n=1000 run"
    );
}

/// The n = 6000 power-law run — above [`EVENT_AUTO_LIMIT`], so `Auto`
/// resolves to the event strategy (and lazy routing kicks in on the
/// `World::from_power_law` auto path). The fingerprint is pinned under
/// both explicit strategies; a third `Auto` run must equal the event
/// run exactly.
fn power_law_6000_run(strategy: SimStrategy) -> SimResult {
    let g = generators::barabasi_albert(6000, 2, 5).unwrap();
    let w = World::from_power_law(g, 0.02, 0.05);
    let hosts = w.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 2, 12));
    let cfg = SimConfig::builder()
        .beta(0.6)
        .horizon(60)
        .initial_infected(4)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 4 })
        .strategy(strategy)
        .build()
        .unwrap();
    Simulator::new(&w, &cfg, WormBehavior::random(), 23).run()
}

/// The n = 20,096 hierarchical subnet world (16 backbone routers, 80
/// subnets × 250 hosts) — above every Auto threshold, so this is the
/// scale where `RoutingKind::Auto` now picks the hier backend (the
/// world peels to its 16-router backbone core) and the event strategy.
fn subnet_20k_run(routing: RoutingKind, strategy: SimStrategy) -> SimResult {
    let topo = generators::SubnetTopologyBuilder::new()
        .backbone_routers(16)
        .subnets(80)
        .hosts_per_subnet(250)
        .build()
        .unwrap();
    let w = World::from_subnets_with(topo, routing);
    let hosts = w.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 2, 12));
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(40)
        .initial_infected(40)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 4 })
        .strategy(strategy)
        .build()
        .unwrap();
    Simulator::new(&w, &cfg, WormBehavior::random(), 29).run()
}

#[test]
fn subnet_20k_is_bit_identical_across_routing_and_strategies() {
    // The lazy legs search the whole 20k-node world per hop; the hier
    // legs route through the 16-node core table.
    let lazy = RoutingKind::Lazy;
    let mut results = Vec::new();
    for strategy in STRATEGIES {
        for routing in [lazy, RoutingKind::Hier] {
            let r = subnet_20k_run(routing, strategy);
            let label = |what: &str| format!("{strategy}/{routing:?}/{what}");
            pin(
                &label("infected"),
                series_sum(&r.infected_fraction),
                "7.29050000000000198e-1",
            );
            pin(
                &label("ever"),
                series_sum(&r.ever_infected_fraction),
                "1.40445000000000020e0",
            );
            pin(&label("backlog"), series_sum(&r.backlog), "1.95120000000000000e4");
            assert_eq!(r.delivered_packets, 2699);
            assert_eq!(r.delayed_packets, 6277);
            assert_eq!(r.quarantined_hosts, 1324);
            assert_eq!(r.residual_packets, 1685);
            assert_conserved(&r);
            results.push(r);
        }
    }
    for r in &results[1..] {
        assert_eq!(
            &results[0], r,
            "routing backend × stepping strategy diverged on the n=20k run"
        );
    }
    // The full-auto path (hier routing + event stepping) must be one
    // of the pinned runs exactly.
    let auto = subnet_20k_run(RoutingKind::Auto, SimStrategy::Auto);
    assert_eq!(auto, results[0], "Auto diverged on the n=20k run");
}

/// An immunization-dominated run: µ kicks in at tick 2 on a ~6k-host
/// subnet world, so nearly every tick sweeps thousands of unpatched
/// hosts. This is the workload the O(hosts) immunization carve-out
/// used to burn — the pin now rides on the sorted unpatched index,
/// which must enumerate hits in ascending host id exactly.
fn immunization_heavy_run(strategy: SimStrategy) -> SimResult {
    let topo = generators::SubnetTopologyBuilder::new()
        .backbone_routers(8)
        .subnets(24)
        .hosts_per_subnet(250)
        .build()
        .unwrap();
    let w = World::from_subnets_with(topo, RoutingKind::Hier);
    let cfg = SimConfig::builder()
        .beta(0.7)
        .horizon(60)
        .initial_infected(12)
        .immunization(ImmunizationConfig {
            trigger: ImmunizationTrigger::AtTick(2),
            mu: 0.04,
        })
        .strategy(strategy)
        .build()
        .unwrap();
    Simulator::new(&w, &cfg, WormBehavior::random(), 37).run()
}

#[test]
fn immunization_heavy_subnet_is_bit_identical() {
    let mut results = Vec::new();
    for strategy in STRATEGIES {
        let r = immunization_heavy_run(strategy);
        pin(
            &format!("{strategy}/infected"),
            series_sum(&r.infected_fraction),
            "3.77000000000000046e0",
        );
        pin(
            &format!("{strategy}/ever"),
            series_sum(&r.ever_infected_fraction),
            "6.47999999999999865e0",
        );
        pin(
            &format!("{strategy}/immunized"),
            series_sum(&r.immunized_fraction),
            "3.70213333333333310e1",
        );
        pin(&format!("{strategy}/backlog"), series_sum(&r.backlog), "6.12750000000000000e4");
        assert_eq!(r.delivered_packets, 13378);
        assert_eq!(r.residual_packets, 1534);
        assert_conserved(&r);
        results.push(r);
    }
    assert_eq!(results[0], results[1], "strategies diverged on the immunization-heavy run");
}

#[test]
fn power_law_6000_is_bit_identical_across_strategies() {
    let mut results = Vec::new();
    for strategy in STRATEGIES {
        let r = power_law_6000_run(strategy);
        pin(
            &format!("{strategy}/infected"),
            series_sum(&r.infected_fraction),
            "3.42383512544802882e0",
        );
        pin(
            &format!("{strategy}/ever"),
            series_sum(&r.ever_infected_fraction),
            "5.94551971326164796e0",
        );
        pin(&format!("{strategy}/backlog"), series_sum(&r.backlog), "1.55760000000000000e4");
        assert_eq!(r.delivered_packets, 3357);
        assert_eq!(r.delayed_packets, 6232);
        assert_eq!(r.quarantined_hosts, 1287);
        assert_eq!(r.residual_packets, 1035);
        assert_conserved(&r);
        results.push(r);
    }
    assert_eq!(results[0], results[1], "strategies diverged on the n=6000 run");
    let auto = power_law_6000_run(SimStrategy::Auto);
    assert_eq!(
        auto, results[1],
        "Auto above the threshold must be the event run exactly"
    );
}
