//! The differential routing-oracle suite.
//!
//! Every routing backend in the crate must return **bit-identical**
//! next hops, distances, and paths to the original serial dense
//! construction ([`RoutingTable::shortest_paths_serial`]) — the oracle
//! no optimization is allowed to touch. Under test here:
//!
//! * the parallel-built dense table, at 1 and 3 workers (packed cells,
//!   batched CSR kernel),
//! * the [`LazyRouting`] bidirectional search, and
//! * the two-level [`HierRouting`] composition.
//!
//! Agreement is exact — the same parent, not merely *a* shortest-path
//! parent. The table backends reproduce the same BFS (rooted at the
//! destination, neighbors in adjacency order, parents on first
//! discovery); the lazy search instead walks the lexicographically
//! smallest shortest path, which that BFS's tree path provably is.
//! Checked across every graph family the repo generates: star,
//! Barabási–Albert, Waxman, GLP, hierarchical subnet worlds, and
//! disconnected multi-component graphs, over every ordered `(src, dst)`
//! pair on small worlds and a deterministic pair sample on large ones.
//! Tori, complete bipartite graphs and hypercubes — where most pairs
//! have many shortest paths and only the adjacency-order tie-break
//! picks the hop — are checked on every ordered pair, paths included,
//! with their edges inserted both in order and shuffled.
//!
//! The derived sums — [`link_loads`](routing::link_loads) and the
//! Equation-6 coverage fractions in [`paths`] — regrow the same BFS
//! trees from the graph instead of querying a backend. They are pinned
//! here against hop-by-hop walks of every ordered pair's route over the
//! serial oracle (and over the lazy and hier backends), at several pool
//! sizes.

use dynaquar_parallel::ParallelConfig;
use dynaquar_topology::generators::{self, SubnetTopologyBuilder};
use dynaquar_topology::generators_extra::{glp, waxman};
use dynaquar_topology::hier::HierRouting;
use dynaquar_topology::lazy::LazyRouting;
use dynaquar_topology::paths;
use dynaquar_topology::routing::{self, RoutingBackend, RoutingTable};
use dynaquar_topology::{Graph, NodeId};
use proptest::prelude::*;

/// Every backend under test, freshly built over `g`.
fn backends_under_test(g: &Graph) -> Vec<(&'static str, Box<dyn RoutingBackend>)> {
    vec![
        (
            "dense@1",
            Box::new(RoutingTable::shortest_paths_with(g, &ParallelConfig::new(1))),
        ),
        (
            "dense@3",
            Box::new(RoutingTable::shortest_paths_with(g, &ParallelConfig::new(3))),
        ),
        ("lazy", Box::new(LazyRouting::new(g))),
        ("hier", Box::new(HierRouting::new(g))),
    ]
}

/// Asserts oracle agreement on one ordered pair: next hop, distance,
/// and (when `check_path`) the full hop-by-hop path.
fn assert_pair_agrees(
    oracle: &RoutingTable,
    name: &str,
    backend: &dyn RoutingBackend,
    s: NodeId,
    d: NodeId,
    check_path: bool,
) {
    let hop = backend.try_next_hop(s, d).unwrap();
    assert_eq!(
        oracle.try_next_hop(s, d).unwrap(),
        hop,
        "{name}: next_hop({s}, {d}) diverged"
    );
    let dist = backend.try_distance(s, d).unwrap();
    assert_eq!(
        oracle.try_distance(s, d).unwrap(),
        dist,
        "{name}: distance({s}, {d}) diverged"
    );
    // Internal consistency: unreachable in one metric means
    // unreachable in the other (src == dst has no hop but distance 0).
    if s != d {
        assert_eq!(hop.is_none(), dist.is_none(), "{name}: metrics disagree");
    }
    if check_path {
        assert_eq!(
            oracle.try_path(s, d).unwrap(),
            backend.try_path(s, d).unwrap(),
            "{name}: path({s}, {d}) diverged"
        );
    }
}

/// Sweeps **every ordered pair** of `g` against the serial oracle for
/// every backend. Paths are walked on a strided subset of pairs — the
/// hop-by-hop walk is already pinned pointwise by the next-hop check,
/// so the full-path comparison is a belt-and-braces closure test.
fn assert_all_pairs_agree(g: &Graph) {
    assert_all_pairs_agree_with(g, 17);
}

/// [`assert_all_pairs_agree`] with paths compared on every pair whose
/// index sum is a multiple of `path_stride` (1: every pair).
fn assert_all_pairs_agree_with(g: &Graph, path_stride: usize) {
    let n = g.node_count();
    let oracle = RoutingTable::shortest_paths_serial(g);
    for (name, backend) in backends_under_test(g) {
        assert_eq!(backend.node_count(), n, "{name}: node count");
        for src in 0..n {
            for dst in 0..n {
                let (s, d) = (NodeId::new(src as u32), NodeId::new(dst as u32));
                let check_path = (src + dst) % path_stride == 0;
                assert_pair_agrees(&oracle, name, backend.as_ref(), s, d, check_path);
            }
        }
    }
}

/// Sweeps a deterministic sample of ordered pairs on a large graph:
/// every pair whose indices fall on coprime strides, plus the
/// diagonal's neighborhood. Used where the full `n²` sweep would
/// dominate the suite's runtime.
fn assert_sampled_pairs_agree(g: &Graph, samples: usize) {
    let n = g.node_count();
    let oracle = RoutingTable::shortest_paths_serial(g);
    for (name, backend) in backends_under_test(g) {
        for i in 0..samples {
            // Coprime multipliers walk the pair space without an RNG,
            // so failures replay exactly.
            let src = (i * 7919) % n;
            let dst = (i * 104_729 + 13) % n;
            let (s, d) = (NodeId::new(src as u32), NodeId::new(dst as u32));
            assert_pair_agrees(&oracle, name, backend.as_ref(), s, d, i % 11 == 0);
        }
    }
}

/// Two independent Barabási–Albert components in one graph: every
/// cross-component pair must report unreachable (`None`) from every
/// backend.
fn two_component_graph(n_a: usize, n_b: usize, seed: u64) -> Graph {
    let a = generators::barabasi_albert(n_a, 1, seed).unwrap();
    let b = generators::barabasi_albert(n_b, 1, seed.wrapping_add(1)).unwrap();
    let mut g = Graph::with_nodes(n_a + n_b);
    for (_, u, v) in a.edges() {
        g.add_edge(u, v).unwrap();
    }
    for (_, u, v) in b.edges() {
        g.add_edge(
            NodeId::new((u.index() + n_a) as u32),
            NodeId::new((v.index() + n_a) as u32),
        )
        .unwrap();
    }
    g
}

/// The edge list of one tie-heavy graph: `family` 0 is the `p × q`
/// torus (`p, q ≥ 3`), 1 the complete bipartite graph `K_{p,q}`, 2
/// the hypercube of dimension `p`. Edges come in a canonical order.
fn tie_heavy_edges(family: usize, p: usize, q: usize) -> (usize, Vec<(usize, usize)>) {
    match family {
        0 => {
            let id = move |i: usize, j: usize| (i % p) * q + j % q;
            let edges = (0..p)
                .flat_map(|i| {
                    (0..q).flat_map(move |j| [(id(i, j), id(i + 1, j)), (id(i, j), id(i, j + 1))])
                })
                .collect();
            (p * q, edges)
        }
        1 => (p + q, (0..p).flat_map(|a| (p..p + q).map(move |b| (a, b))).collect()),
        _ => {
            let n = 1usize << p;
            let edges = (0..n)
                .flat_map(|v| (0..p).map(move |k| (v, v ^ (1 << k))))
                .filter(|&(v, w)| v < w)
                .collect();
            (n, edges)
        }
    }
}

/// Builds an `n`-node graph from `edges`, inserted in the given order
/// or, with `shuffle: Some(seed)`, in a seeded Fisher–Yates order with
/// each edge's endpoints possibly swapped. Insertion order is
/// adjacency order, so a shuffle changes which shortest path every
/// backend must pick.
fn graph_from_edges(n: usize, edges: &[(usize, usize)], shuffle: Option<u64>) -> Graph {
    let mut edges = edges.to_vec();
    if let Some(mut state) = shuffle {
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..edges.len()).rev() {
            edges.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        for e in &mut edges {
            if next() % 2 == 1 {
                *e = (e.1, e.0);
            }
        }
    }
    let mut g = Graph::with_nodes(n);
    for (u, v) in edges {
        g.add_edge(NodeId::new(u as u32), NodeId::new(v as u32)).unwrap();
    }
    g
}

/// Walks `src`'s route to `dst` hop by hop over `routing`, calling
/// `hop(cur, next)` for every link crossed. Does nothing for
/// unreachable pairs.
fn walk_route(
    routing: &dyn RoutingBackend,
    src: NodeId,
    dst: NodeId,
    mut hop: impl FnMut(NodeId, NodeId),
) {
    if routing.distance(src, dst).is_none() {
        return;
    }
    let mut cur = src;
    while cur != dst {
        let nxt = routing.next_hop(cur, dst).expect("finite distance");
        hop(cur, nxt);
        cur = nxt;
    }
}

/// Oracle link loads: every ordered pair's route walked hop by hop,
/// each hop's edge found by lookup. `O(n² · diameter)`.
fn walked_link_loads(graph: &Graph, routing: &dyn RoutingBackend) -> Vec<u64> {
    let mut loads = vec![0u64; graph.edge_count()];
    for d in graph.nodes() {
        for s in graph.nodes().filter(|&s| s != d) {
            walk_route(routing, s, d, |a, b| {
                loads[graph.edge_between(a, b).expect("hop is a neighbor").index()] += 1;
            });
        }
    }
    loads
}

/// Oracle [`paths::node_coverage`]: the fraction of ordered endpoint
/// pairs whose walked route has a filtered transit hop (or a filtered
/// endpoint, when `count_endpoints`).
fn walked_node_coverage(
    routing: &dyn RoutingBackend,
    endpoints: &[NodeId],
    filtered: &[NodeId],
    count_endpoints: bool,
) -> f64 {
    if endpoints.len() < 2 {
        return 0.0;
    }
    let (mut covered, mut total) = (0u64, 0u64);
    for &d in endpoints {
        for &s in endpoints.iter().filter(|&&s| s != d) {
            total += 1;
            if routing.distance(s, d).is_none() {
                continue;
            }
            let mut hit = count_endpoints && (filtered.contains(&s) || filtered.contains(&d));
            walk_route(routing, s, d, |_, b| hit |= b != d && filtered.contains(&b));
            covered += u64::from(hit);
        }
    }
    covered as f64 / total as f64
}

/// Oracle [`paths::link_coverage`]: the fraction of ordered endpoint
/// pairs whose walked route crosses a masked edge.
fn walked_link_coverage(
    graph: &Graph,
    routing: &dyn RoutingBackend,
    endpoints: &[NodeId],
    mask: &[bool],
) -> f64 {
    if endpoints.len() < 2 {
        return 0.0;
    }
    let (mut covered, mut total) = (0u64, 0u64);
    for &d in endpoints {
        for &s in endpoints.iter().filter(|&&s| s != d) {
            total += 1;
            let mut hit = false;
            walk_route(routing, s, d, |a, b| {
                hit |= mask[graph.edge_between(a, b).expect("hop is a neighbor").index()];
            });
            covered += u64::from(hit);
        }
    }
    covered as f64 / total as f64
}

/// Pool sizes the derived sums are checked at: serial, even splits, and
/// a worker count that divides nothing evenly.
const POOL_SIZES: [usize; 4] = [1, 2, 4, 7];

/// Asserts the tree-sum kernels equal the walked oracles exactly on
/// `g`, at every pool size: link loads, node coverage with and without
/// endpoint counting, and link coverage. Endpoints skip every third
/// node and repeat one node, so self-pairs and duplicate pairs are
/// exercised; filters are a stride of nodes plus the highest-degree
/// node, and the edge mask a stride of edges.
fn assert_derived_sums_agree(g: &Graph) {
    let oracle = RoutingTable::shortest_paths_serial(g);
    let loads = walked_link_loads(g, &oracle);
    let mut endpoints: Vec<NodeId> = g.nodes().filter(|v| v.index() % 3 != 0).collect();
    if let Some(&first) = endpoints.first() {
        endpoints.push(first);
    }
    let mut filtered: Vec<NodeId> = g.nodes().filter(|v| v.index() % 5 == 2).collect();
    filtered.extend(g.nodes().max_by_key(|&v| g.degree(v)));
    let mask: Vec<bool> = (0..g.edge_count()).map(|e| e % 4 == 1).collect();
    let transit = walked_node_coverage(&oracle, &endpoints, &filtered, false);
    let with_ends = walked_node_coverage(&oracle, &endpoints, &filtered, true);
    let links = walked_link_coverage(g, &oracle, &endpoints, &mask);
    for threads in POOL_SIZES {
        let pool = ParallelConfig::new(threads);
        let ctx = format!("@ {threads} threads");
        assert_eq!(routing::link_loads_with(g, &pool), loads, "link loads {ctx}");
        let node_cov =
            |count_ends| paths::node_coverage_with(g, &endpoints, &filtered, count_ends, &pool);
        assert_eq!(node_cov(false), transit, "transit node coverage {ctx}");
        assert_eq!(node_cov(true), with_ends, "endpoint node coverage {ctx}");
        let link_cov = paths::link_coverage_with(g, &endpoints, &mask, &pool);
        assert_eq!(link_cov, links, "link coverage {ctx}");
    }
}

/// One graph of the family indexed by `family` (star, BA, Waxman, GLP,
/// hierarchical subnet world, disconnected), sized by `size`.
fn family_graph(family: usize, size: usize, seed: u64) -> Graph {
    match family {
        0 => generators::star(size).unwrap().graph,
        1 => generators::barabasi_albert(size.max(4), 1 + (seed % 3) as usize, seed).unwrap(),
        2 => waxman(size.max(20), 0.05 + (seed % 8) as f64 * 0.1, 0.2, seed).unwrap(),
        3 => glp(size.max(4), 2, 0.5, seed).unwrap(),
        4 => {
            SubnetTopologyBuilder::new()
                .backbone_routers(1 + size % 4)
                .subnets(1 + size % 8)
                .hosts_per_subnet(1 + (seed % 5) as usize)
                .build()
                .unwrap()
                .graph
        }
        _ => two_component_graph(2 + size / 2, 2 + size % 37, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stars: the hub is on every leaf-to-leaf path, and the whole
    /// graph peels to a single hier core node.
    #[test]
    fn star_matches_oracle(leaves in 1usize..120) {
        assert_all_pairs_agree(&generators::star(leaves).unwrap().graph);
    }

    /// Barabási–Albert power-law graphs. With m = 1 the graph is a
    /// tree (everything peels); with m ≥ 2 nothing peels and hier
    /// degenerates to its core table.
    #[test]
    fn barabasi_albert_matches_oracle(
        n in 10usize..=160,
        m in 1usize..=3,
        seed in 0u64..500,
    ) {
        assert_all_pairs_agree(&generators::barabasi_albert(n, m.min(n - 1), seed).unwrap());
    }

    /// Waxman random geometric graphs — irregular degree mix, often
    /// disconnected at low alpha, partial peels.
    #[test]
    fn waxman_matches_oracle(
        n in 20usize..=120,
        alpha in 0.05f64..0.8,
        seed in 0u64..500,
    ) {
        assert_all_pairs_agree(&waxman(n, alpha, 0.2, seed).unwrap());
    }

    /// GLP power-law graphs (the paper's AS-level generator family).
    #[test]
    fn glp_matches_oracle(n in 10usize..=120, seed in 0u64..500) {
        assert_all_pairs_agree(&glp(n, 2.min(n - 1), 0.5, seed).unwrap());
    }

    /// Hierarchical backbone/subnet topologies — the hier backend's
    /// home turf: host stars and edge routers peel, the backbone
    /// ring is the core.
    #[test]
    fn hierarchical_matches_oracle(
        backbone in 1usize..=4,
        subnets in 1usize..=8,
        hosts in 1usize..=5,
    ) {
        let topo = SubnetTopologyBuilder::new()
            .backbone_routers(backbone)
            .subnets(subnets)
            .hosts_per_subnet(hosts)
            .build()
            .unwrap();
        assert_all_pairs_agree(&topo.graph);
    }

    /// Link loads and coverage from the tree-sum kernels equal the
    /// hop-by-hop walks exactly, on every graph family and pool size.
    #[test]
    fn derived_sums_match_path_walks(
        family in 0usize..6,
        size in 1usize..=90,
        seed in 0u64..500,
    ) {
        assert_derived_sums_agree(&family_graph(family, size, seed));
    }

    /// Tori, complete bipartite graphs and hypercubes, with edges in
    /// canonical and in shuffled order: most pairs have several
    /// shortest paths, so every hop is decided by adjacency order
    /// alone. Next hop, distance and path are checked on every ordered
    /// pair.
    #[test]
    fn tie_heavy_graphs_match_oracle(
        family in 0usize..3,
        p in 3usize..=7,
        q in 3usize..=7,
        shuffle_seed in 0u64..1000,
    ) {
        let (n, edges) = match family {
            1 => tie_heavy_edges(1, p - 1, q - 1),
            2 => tie_heavy_edges(2, p - 1, 0),
            _ => tie_heavy_edges(0, p, q),
        };
        assert_all_pairs_agree_with(&graph_from_edges(n, &edges, None), 1);
        assert_all_pairs_agree_with(&graph_from_edges(n, &edges, Some(shuffle_seed)), 1);
    }

    /// Disconnected graphs: unreachable pairs answer `None` from every
    /// backend, reachable pairs stay identical.
    #[test]
    fn disconnected_matches_oracle(
        n_a in 2usize..=50,
        n_b in 2usize..=50,
        seed in 0u64..500,
    ) {
        let g = two_component_graph(n_a, n_b, seed);
        assert_all_pairs_agree(&g);
        // Spot-check the cross-component contract explicitly on the
        // two non-dense backends.
        let (a0, b0) = (NodeId::new(0), NodeId::new(n_a as u32));
        let lazy = LazyRouting::new(&g);
        prop_assert_eq!(lazy.try_next_hop(a0, b0).unwrap(), None);
        prop_assert_eq!(lazy.try_distance(b0, a0).unwrap(), None);
        let hier = HierRouting::new(&g);
        prop_assert_eq!(hier.try_next_hop(a0, b0).unwrap(), None);
        prop_assert_eq!(hier.try_distance(b0, a0).unwrap(), None);
    }
}

/// A production-shaped hierarchical world (n = 2048: 8 backbone, 40
/// subnets × 50 hosts) swept on sampled pairs — the scale where the
/// hier backend actually replaces dense/lazy in `RoutingKind::Auto`.
#[test]
fn large_subnet_world_matches_oracle_on_sampled_pairs() {
    let topo = SubnetTopologyBuilder::new()
        .backbone_routers(8)
        .subnets(40)
        .hosts_per_subnet(50)
        .build()
        .unwrap();
    assert_eq!(topo.graph.node_count(), 2048);
    assert_sampled_pairs_agree(&topo.graph, 1500);
}

/// A large flat power-law graph (nothing peels; hier core == graph)
/// swept on sampled pairs.
#[test]
fn large_power_law_matches_oracle_on_sampled_pairs() {
    let g = generators::barabasi_albert(1500, 2, 42).unwrap();
    assert_sampled_pairs_agree(&g, 1200);
}

/// The backend-level `link_loads` is the same kernel for every backend:
/// walking the lazy and hier backends' routes gives
/// the loads the kernel computes from the graph alone.
#[test]
fn backend_link_loads_match_walks_over_each_backend() {
    let g = generators::barabasi_albert(40, 2, 9).unwrap();
    let topo = SubnetTopologyBuilder::new()
        .backbone_routers(3)
        .subnets(5)
        .hosts_per_subnet(4)
        .build()
        .unwrap();
    for g in [&g, &topo.graph] {
        for (name, backend) in backends_under_test(g) {
            assert_eq!(
                backend.link_loads(g),
                walked_link_loads(g, backend.as_ref()),
                "{name}: link loads"
            );
        }
    }
}
