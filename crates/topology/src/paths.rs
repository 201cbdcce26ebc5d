//! Path-coverage computation — the `α` of Equation 6.
//!
//! Backbone rate limiting throttles a worm only on the IP-to-IP paths
//! that actually traverse a rate-limited element. Given a graph and a
//! set of filtered nodes (or links), these functions compute the
//! fraction of ordered host pairs whose route is covered.
//!
//! Routes are the per-destination BFS trees every routing backend
//! follows (`routing::sum_over_trees`), so no backend is needed: one
//! top-down sweep per destination marks each node whose path to the
//! root crosses a filter. Covered and total pair counts are integers,
//! so the ratio is the same at any thread count.

use crate::graph::{Graph, NodeId};
use crate::routing::sum_over_trees;
use dynaquar_parallel::ParallelConfig;

/// Fraction of ordered pairs (drawn from `endpoints`) whose shortest path
/// passes through at least one node of `filtered` — counting intermediate
/// hops *and* the endpoints themselves only if `count_endpoints` is set.
///
/// The paper's backbone filters inspect transit traffic, so the default
/// experiments use `count_endpoints = false`. Unreachable pairs count
/// toward the total but are never covered.
///
/// Returns `0.0` when `endpoints` has fewer than two nodes.
///
/// # Panics
///
/// Panics if any node id is out of range for `graph`.
pub fn node_coverage(
    graph: &Graph,
    endpoints: &[NodeId],
    filtered: &[NodeId],
    count_endpoints: bool,
) -> f64 {
    node_coverage_with(
        graph,
        endpoints,
        filtered,
        count_endpoints,
        &ParallelConfig::from_env(),
    )
}

/// [`node_coverage`] with an explicit pool size.
pub fn node_coverage_with(
    graph: &Graph,
    endpoints: &[NodeId],
    filtered: &[NodeId],
    count_endpoints: bool,
    pool: &ParallelConfig,
) -> f64 {
    if endpoints.len() < 2 {
        return 0.0;
    }
    let mut is_filtered = vec![false; graph.node_count()];
    for &f in filtered {
        is_filtered[f.index()] = true;
    }
    // covered[v]: a transit hop (neither v nor the root) is filtered.
    let counts = sum_over_trees(graph, endpoints, 2, pool, |tree, covered, acc| {
        let dst = tree.order[0];
        covered[dst as usize] = 0;
        for &v in &tree.order[1..] {
            let p = tree.parent[v as usize];
            covered[v as usize] =
                covered[p as usize] | u64::from(p != dst && is_filtered[p as usize]);
        }
        let dst_hit = count_endpoints && is_filtered[dst as usize];
        for &src in endpoints {
            let s = src.index() as u32;
            if s == dst {
                continue;
            }
            acc[1] += 1;
            let hit =
                dst_hit || (count_endpoints && is_filtered[s as usize]) || covered[s as usize] == 1;
            if hit && tree.reached(s) {
                acc[0] += 1;
            }
        }
    });
    counts[0] as f64 / counts[1] as f64
}

/// Fraction of ordered pairs whose shortest path uses at least one edge of
/// `filtered_edges` (given as a boolean mask over edge ids).
///
/// Returns `0.0` when `endpoints` has fewer than two nodes.
///
/// # Panics
///
/// Panics if the mask length differs from the graph's edge count, or a
/// node id is out of range.
pub fn link_coverage(graph: &Graph, endpoints: &[NodeId], filtered_edges: &[bool]) -> f64 {
    link_coverage_with(
        graph,
        endpoints,
        filtered_edges,
        &ParallelConfig::from_env(),
    )
}

/// [`link_coverage`] with an explicit pool size.
pub fn link_coverage_with(
    graph: &Graph,
    endpoints: &[NodeId],
    filtered_edges: &[bool],
    pool: &ParallelConfig,
) -> f64 {
    assert_eq!(
        filtered_edges.len(),
        graph.edge_count(),
        "edge mask length mismatch"
    );
    if endpoints.len() < 2 {
        return 0.0;
    }
    // covered[v]: some edge on v's path to the root is filtered.
    let counts = sum_over_trees(graph, endpoints, 2, pool, |tree, covered, acc| {
        let dst = tree.order[0];
        covered[dst as usize] = 0;
        for &v in &tree.order[1..] {
            let (p, e) = (tree.parent[v as usize], tree.parent_edge[v as usize]);
            covered[v as usize] = covered[p as usize] | u64::from(filtered_edges[e as usize]);
        }
        for &src in endpoints {
            let s = src.index() as u32;
            if s == dst {
                continue;
            }
            acc[1] += 1;
            if tree.reached(s) && covered[s as usize] == 1 {
                acc[0] += 1;
            }
        }
    });
    counts[0] as f64 / counts[1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::roles::{assign_by_degree, nodes_with_role, Role};

    #[test]
    fn star_hub_covers_all_leaf_pairs() {
        let star = generators::star(10).unwrap();
        let leaves: Vec<NodeId> = star.leaves().collect();
        let alpha = node_coverage(&star.graph, &leaves, &[star.hub], false);
        assert_eq!(alpha, 1.0);
    }

    #[test]
    fn no_filters_zero_coverage() {
        let star = generators::star(10).unwrap();
        let leaves: Vec<NodeId> = star.leaves().collect();
        assert_eq!(node_coverage(&star.graph, &leaves, &[], false), 0.0);
    }

    #[test]
    fn endpoint_filters_only_count_when_asked() {
        let star = generators::star(4).unwrap();
        let leaves: Vec<NodeId> = star.leaves().collect();
        // Filtering one leaf covers nothing as transit...
        assert_eq!(
            node_coverage(&star.graph, &leaves, &[leaves[0]], false),
            0.0
        );
        // ...but covers its own pairs when endpoints count. Leaf 0
        // participates in 6 of the 12 ordered pairs.
        let alpha = node_coverage(&star.graph, &leaves, &[leaves[0]], true);
        assert!((alpha - 0.5).abs() < 1e-12);
    }

    #[test]
    fn backbone_coverage_is_high_on_power_law() {
        // The premise of Section 5.3: the top-degree 5% of a power-law
        // graph covers the large majority of host-to-host paths.
        let g = generators::barabasi_albert(500, 2, 13).unwrap();
        let roles = assign_by_degree(&g, 0.05, 0.10);
        let hosts = nodes_with_role(&roles, Role::EndHost);
        let backbone = nodes_with_role(&roles, Role::Backbone);
        let alpha = node_coverage(&g, &hosts, &backbone, false);
        assert!(alpha > 0.6, "alpha = {alpha}");
    }

    #[test]
    fn link_coverage_on_ring() {
        let g = generators::ring(4).unwrap();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut mask = vec![false; g.edge_count()];
        assert_eq!(link_coverage(&g, &nodes, &mask), 0.0);
        mask[0] = true; // edge 0-1
        let alpha = link_coverage(&g, &nodes, &mask);
        assert!(alpha > 0.0 && alpha < 1.0);
        let all = vec![true; g.edge_count()];
        assert_eq!(link_coverage(&g, &nodes, &all), 1.0);
    }

    #[test]
    fn degenerate_endpoint_sets() {
        let g = generators::ring(4).unwrap();
        assert_eq!(node_coverage(&g, &[], &[], false), 0.0);
        assert_eq!(node_coverage(&g, &[0.into()], &[], false), 0.0);
    }

    #[test]
    #[should_panic(expected = "edge mask length")]
    fn link_coverage_checks_mask_length() {
        let g = generators::ring(4).unwrap();
        let nodes: Vec<NodeId> = g.nodes().collect();
        link_coverage(&g, &nodes, &[true]);
    }
}
