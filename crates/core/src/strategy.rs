//! Deployment strategies and their translation to rate-limit plans.

use dynaquar_netsim::plan::{HostFilter, RateLimitPlan};
use dynaquar_netsim::World;
use dynaquar_topology::roles::Role;
use dynaquar_topology::NodeId;
use serde::{Deserialize, Serialize};

/// Where rate-limiting filters are installed — the paper's independent
/// variable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Deployment {
    /// No rate limiting (every figure's "No RL" baseline).
    None,
    /// Egress filters at a fraction of end hosts (Sections 4/5.1; also
    /// the star topology's leaf deployment).
    Hosts {
        /// Fraction of end hosts carrying the filter, in `[0, 1]`.
        fraction: f64,
    },
    /// Link caps at every edge router (Section 5.2).
    EdgeRouters,
    /// Link caps at every backbone router (Section 5.3).
    Backbone,
    /// The star topology's hub deployment (Section 4): link caps on
    /// every hub link plus a node-level forwarding cap at the hub.
    Hub,
}

impl Deployment {
    /// Human-readable label used in figure legends.
    pub fn label(&self) -> String {
        match self {
            Deployment::None => "No RL".to_string(),
            Deployment::Hosts { fraction } => {
                format!("{:.0}% End Host RL", fraction * 100.0)
            }
            Deployment::EdgeRouters => "Edge Router RL".to_string(),
            Deployment::Backbone => "Backbone RL".to_string(),
            Deployment::Hub => "Hub Node RL".to_string(),
        }
    }
}

impl std::fmt::Display for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The mechanism parameters a deployment installs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimitParams {
    /// Base per-link cap in packets per tick (the paper's "base
    /// communication rate of 10 packets per second"), scaled per link by
    /// its routing-table weight.
    pub link_base_cap: f64,
    /// Node-level forwarding cap for hub deployment (packets per tick).
    pub hub_forward_cap: f64,
    /// Node-level transit cap installed at each backbone router by the
    /// backbone deployment — the per-router "average overall allowable
    /// rate r" of Equation 6. `None` caps links only. Fractional values
    /// are allowed (a cap of 0.1 forwards one packet per 10 ticks).
    pub backbone_node_cap: Option<f64>,
    /// Host egress filter: window length in ticks.
    pub host_window_ticks: u64,
    /// Host egress filter: distinct destinations per window (the β₂
    /// analogue: `max_new_targets / window_ticks` contacts per tick).
    pub host_max_new_targets: usize,
    /// Switches the host filter from Williamson's *dropping* variant to
    /// the *delaying* variant: over-budget scans queue at the host and
    /// one is released every this-many ticks instead of being dropped.
    /// `None` (the default) keeps the dropping filter. The delay queue
    /// is the detection signal dynamic quarantine reads (see
    /// [`dynaquar_netsim::config::QuarantineConfig`]).
    pub host_release_period_ticks: Option<u64>,
}

impl Default for RateLimitParams {
    fn default() -> Self {
        RateLimitParams {
            link_base_cap: 10.0,
            hub_forward_cap: 2.0,
            backbone_node_cap: Some(0.1),
            host_window_ticks: 100,
            host_max_new_targets: 1,
            host_release_period_ticks: None,
        }
    }
}

impl RateLimitParams {
    /// The host filter this parameter set installs: dropping by
    /// default, delaying when [`Self::host_release_period_ticks`] is
    /// set.
    pub fn host_filter(&self) -> HostFilter {
        match self.host_release_period_ticks {
            None => HostFilter::dropping(self.host_window_ticks, self.host_max_new_targets),
            Some(release) => HostFilter::delaying(
                self.host_window_ticks,
                self.host_max_new_targets,
                release,
            ),
        }
    }
}

/// Deterministically selects the first `fraction` of `hosts` (callers
/// that want a random subset shuffle first; experiments keep it
/// deterministic so runs are comparable).
fn take_fraction(hosts: &[NodeId], fraction: f64) -> Vec<NodeId> {
    let count = (hosts.len() as f64 * fraction).round() as usize;
    hosts.iter().copied().take(count).collect()
}

/// Builds the [`RateLimitPlan`] realizing `deployment` on `world`.
///
/// # Panics
///
/// Panics if a `Hosts` fraction is outside `[0, 1]`, or if `Hub` is
/// requested on a world without an edge router to act as hub.
pub fn build_plan(
    world: &World,
    deployment: Deployment,
    params: &RateLimitParams,
) -> RateLimitPlan {
    let mut plan = RateLimitPlan::none();
    match deployment {
        Deployment::None => {}
        Deployment::Hosts { fraction } => {
            assert!(
                (0.0..=1.0).contains(&fraction),
                "host fraction must be in [0, 1]"
            );
            let filtered = take_fraction(world.hosts(), fraction);
            plan.filter_hosts(&filtered, params.host_filter());
        }
        Deployment::EdgeRouters => {
            // Edge routers filter traffic crossing the edge of their
            // subnet: cap only their WAN-facing links (toward other
            // routers), not the host access links behind them — the
            // paper's edge filter never throttles intra-subnet traffic.
            let graph = world.graph();
            let roles = world.roles();
            let mut seen = vec![false; graph.edge_count()];
            let mut edges = Vec::new();
            for router in world.nodes_with_role(Role::EdgeRouter) {
                for &nb in graph.neighbors(router) {
                    if roles[nb.index()] != Role::EndHost {
                        let e = graph.edge_between(router, nb).expect("incident edge");
                        if !std::mem::replace(&mut seen[e.index()], true) {
                            edges.push(e);
                        }
                    }
                }
            }
            plan.weighted_caps_for_edges(
                graph,
                world.routing(),
                &edges,
                params.link_base_cap,
                dynaquar_netsim::plan::Normalization::MaxLoad,
            );
        }
        Deployment::Backbone => {
            let routers = world.nodes_with_role(Role::Backbone);
            plan.weighted_link_caps(
                world.graph(),
                world.routing(),
                &routers,
                params.link_base_cap,
            );
            if let Some(cap) = params.backbone_node_cap {
                for r in routers {
                    plan.limit_node_forwarding(r, cap);
                }
            }
        }
        Deployment::Hub => {
            let hubs = world.nodes_with_role(Role::EdgeRouter);
            let hub = *hubs.first().expect("hub deployment needs a hub router");
            plan.limit_links_at_node(world.graph(), hub, params.link_base_cap);
            plan.limit_node_forwarding(hub, params.hub_forward_cap);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaquar_topology::generators;

    fn star_world() -> World {
        World::from_star(generators::star(99).unwrap())
    }

    fn power_law_world() -> World {
        let g = generators::barabasi_albert(300, 2, 5).unwrap();
        World::from_power_law(g, 0.05, 0.10)
    }

    #[test]
    fn none_builds_empty_plan() {
        let w = star_world();
        let p = build_plan(&w, Deployment::None, &RateLimitParams::default());
        assert_eq!(p.limited_link_count(), 0);
        assert_eq!(p.filtered_host_count(), 0);
    }

    #[test]
    fn hosts_fraction_counts() {
        let w = star_world();
        let p = build_plan(
            &w,
            Deployment::Hosts { fraction: 0.3 },
            &RateLimitParams::default(),
        );
        assert_eq!(p.filtered_host_count(), 30);
        assert_eq!(p.limited_link_count(), 0);
    }

    #[test]
    fn hub_plan_caps_links_and_node() {
        let w = star_world();
        let p = build_plan(&w, Deployment::Hub, &RateLimitParams::default());
        assert_eq!(p.limited_link_count(), 99);
    }

    #[test]
    fn backbone_plan_covers_backbone_links() {
        let w = power_law_world();
        let p = build_plan(&w, Deployment::Backbone, &RateLimitParams::default());
        assert!(p.limited_link_count() > 0);
        let q = build_plan(&w, Deployment::EdgeRouters, &RateLimitParams::default());
        assert!(q.limited_link_count() > 0);
    }

    #[test]
    fn labels() {
        assert_eq!(Deployment::None.label(), "No RL");
        assert_eq!(Deployment::Hosts { fraction: 0.05 }.label(), "5% End Host RL");
        assert_eq!(Deployment::Backbone.to_string(), "Backbone RL");
        assert_eq!(Deployment::Hub.label(), "Hub Node RL");
        assert_eq!(Deployment::EdgeRouters.label(), "Edge Router RL");
    }

    #[test]
    #[should_panic(expected = "host fraction")]
    fn rejects_bad_fraction() {
        let w = star_world();
        build_plan(
            &w,
            Deployment::Hosts { fraction: 1.5 },
            &RateLimitParams::default(),
        );
    }

    #[test]
    fn default_params_match_paper() {
        let p = RateLimitParams::default();
        assert_eq!(p.link_base_cap, 10.0);
        let f = p.host_filter();
        assert_eq!(f.window_ticks, 100);
        assert_eq!(f.max_new_targets, 1);
    }
}
