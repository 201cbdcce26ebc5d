//! Figures 4 and 6: deployments on the 1,000-node power-law topology
//! (Sections 5.3/5.4).

use super::{check, ExperimentOutput, Quality};
use crate::scenario::{Scenario, TopologySpec};
use crate::strategy::{Deployment, RateLimitParams};
use dynaquar_epidemic::SeriesSet;
use dynaquar_netsim::config::WormBehavior;
use dynaquar_topology::paths::node_coverage;
use dynaquar_topology::roles::Role;

fn power_law_spec(quality: Quality) -> (TopologySpec, usize, u64) {
    match quality {
        Quality::Quick => (
            TopologySpec::PowerLaw {
                nodes: 300,
                edges_per_node: 2,
                seed: 9,
            },
            2,
            120,
        ),
        Quality::Full => (
            TopologySpec::PowerLaw {
                nodes: 1000,
                edges_per_node: 2,
                seed: 9,
            },
            10,
            200,
        ),
    }
}

/// Figure 4: random worm with rate limiting at 5% of end hosts, at edge
/// routers, and at backbone routers.
pub fn fig4(quality: Quality) -> ExperimentOutput {
    let (spec, runs, horizon) = power_law_spec(quality);
    let world = spec.build();
    // Harsh weighted caps plus the Equation-6 per-router allowable rate:
    // the worm's scan volume dwarfs the allowed budget, as in the paper.
    let params = RateLimitParams {
        link_base_cap: 0.3,
        backbone_node_cap: Some(0.05),
        ..RateLimitParams::default()
    };
    let base = Scenario::new(spec)
        .beta(0.8)
        .horizon(horizon)
        .initial_infected(3)
        .runs(runs)
        .params(params);

    let no_rl = base.clone().run_simulated_on(&world);
    let host5 = base
        .clone()
        .deployment(Deployment::Hosts { fraction: 0.05 })
        .run_simulated_on(&world);
    let edge = base
        .clone()
        .deployment(Deployment::EdgeRouters)
        .run_simulated_on(&world);
    let backbone = base
        .clone()
        .deployment(Deployment::Backbone)
        .run_simulated_on(&world);

    // Measure the Equation-6 α realized by the backbone placement.
    let hosts = world.hosts().to_vec();
    let backbone_nodes = world.nodes_with_role(Role::Backbone);
    let alpha = node_coverage(world.graph(), &hosts, &backbone_nodes, false);

    let t50 = |s: &dynaquar_epidemic::TimeSeries| s.time_to_reach(0.5);
    let t_no = t50(&no_rl.infected).unwrap_or(f64::INFINITY);
    let t_host = t50(&host5.infected).unwrap_or(f64::INFINITY);
    let t_edge = t50(&edge.infected).unwrap_or(f64::INFINITY);
    let t_bb = t50(&backbone.infected).unwrap_or(f64::INFINITY);

    let checks = vec![
        check(
            "5% end-host RL is indistinguishable from no RL",
            t_host < 1.3 * t_no,
            format!("t50: no RL {t_no:.1}, 5% hosts {t_host:.1}"),
        ),
        check(
            "edge-router RL yields a slight improvement",
            t_edge >= t_no && t_edge.is_finite(),
            format!("t50: no RL {t_no:.1}, edge {t_edge:.1}"),
        ),
        check(
            "backbone RL is several times slower to 50% infection than host/edge RL (paper: ~5x)",
            t_bb > 2.5 * t_host.min(t_edge),
            format!("t50: hosts {t_host:.1}, edge {t_edge:.1}, backbone {t_bb:.1}"),
        ),
        check(
            "backbone routers cover most host-to-host paths (Equation 6's premise)",
            alpha > 0.5,
            format!("alpha = {alpha:.3}"),
        ),
    ];

    let mut series = SeriesSet::new("Rate Limiting in a Power Law 1000 node topology (simulation)");
    series.push("No RL", no_rl.infected);
    series.push("5% End Host RL", host5.infected);
    series.push("Edge Router RL", edge.infected);
    series.push("Backbone RL", backbone.infected);

    ExperimentOutput {
        id: "fig4",
        title: "Figure 4: simulated RL on a 1000-node power-law topology",
        series,
        notes: vec![
            format!("{spec:?}, runs = {runs}, horizon = {horizon}"),
            format!("measured path coverage alpha = {alpha:.3}"),
            format!("t50: noRL {t_no:.1} host5 {t_host:.1} edge {t_edge:.1} backbone {t_bb:.1}"),
        ],
        checks,
    }
}

/// Figure 6: local-preferential worm with host (5%/30%) and backbone
/// deployments, across subnets.
pub fn fig6(quality: Quality) -> ExperimentOutput {
    // Same 1,000-node power-law topology as Figure 4 ("all experiments
    // in this section"); subnets are the host groups behind each edge
    // router, which the local-preferential worm biases toward.
    let (spec, runs, mut horizon) = power_law_spec(quality);
    horizon += 60; // the throttled LP worm needs extra room to reach 50%
    let world = spec.build();
    let params = RateLimitParams {
        link_base_cap: 0.3,
        backbone_node_cap: Some(0.05),
        ..RateLimitParams::default()
    };
    let base = Scenario::new(spec)
        .behavior(WormBehavior::local_preferential(0.9))
        .beta(0.8)
        .horizon(horizon)
        .initial_infected(2)
        .runs(runs)
        .params(params);

    let no_rl = base.clone().run_simulated_on(&world);
    let host5 = base
        .clone()
        .deployment(Deployment::Hosts { fraction: 0.05 })
        .run_simulated_on(&world);
    let host30 = base
        .clone()
        .deployment(Deployment::Hosts { fraction: 0.30 })
        .run_simulated_on(&world);
    let backbone = base
        .clone()
        .deployment(Deployment::Backbone)
        .run_simulated_on(&world);

    let t50 = |s: &dynaquar_epidemic::TimeSeries| s.time_to_reach(0.5);
    let t_no = t50(&no_rl.infected).unwrap_or(f64::INFINITY);
    let t_h30 = t50(&host30.infected).unwrap_or(f64::INFINITY);
    let t_bb = t50(&backbone.infected).unwrap_or(f64::INFINITY);

    let checks = vec![
        check(
            "even 30% host RL is nearly indistinguishable from no RL",
            t_h30 < 1.6 * t_no,
            format!("t50: no RL {t_no:.1}, 30% hosts {t_h30:.1}"),
        ),
        check(
            "backbone RL is substantially more effective than 30% host RL",
            t_bb > 1.7 * t_h30,
            format!("t50: 30% hosts {t_h30:.1}, backbone {t_bb:.1}"),
        ),
    ];

    let mut series = SeriesSet::new(
        "Rate limiting (RL) for local preferential worms at end hosts and backbone",
    );
    series.push("No RL random propagation", no_rl.infected);
    series.push("5% End Host RL", host5.infected);
    series.push("30% End Host RL", host30.infected);
    series.push("Backbone RL", backbone.infected);

    ExperimentOutput {
        id: "fig6",
        title: "Figure 6: simulated local-preferential worm, host vs backbone RL",
        series,
        notes: vec![
            format!("{spec:?}, runs = {runs}, horizon = {horizon}"),
            format!("t50: noRL {t_no:.1} host30 {t_h30:.1} backbone {t_bb:.1}"),
        ],
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_quick_checks_pass() {
        let out = fig4(Quality::Quick);
        assert_eq!(out.series.len(), 4);
        assert!(out.all_checks_passed(), "{:#?}", out.checks);
    }

    #[test]
    fn fig6_quick_checks_pass() {
        let out = fig6(Quality::Quick);
        assert_eq!(out.series.len(), 4);
        assert!(out.all_checks_passed(), "{:#?}", out.checks);
    }
}
