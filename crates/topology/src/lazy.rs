//! Memory-bounded lazy routing: each query answered by a bidirectional
//! shortest-path search, with no per-destination state kept between
//! queries.
//!
//! The dense [`RoutingTable`](crate::routing::RoutingTable) costs
//! `~4·n²` bytes — ~400 MB at 10k nodes and ~40 GB at 100k — so it
//! cannot even be *constructed* for the topologies the
//! production-scale engine targets. [`LazyRouting`] stores the [`Csr`]
//! adjacency (`O(n + m)`) and nothing else: a query meets two BFS balls
//! grown from the source and the destination, marks the shortest-path
//! subgraph between them, and walks it from the destination in
//! adjacency order. The scratch arrays (three `n`-wide `u32` arrays per
//! concurrent query) are pooled and reset through touched lists, so
//! steady-state routing allocates nothing.
//!
//! **Equivalence contract:** the dense and hier backends read next hops
//! off [`crate::routing`]'s `bfs_fill_row` trees (rooted at the
//! destination, neighbors in [`Csr`] order, parent on first discovery).
//! That tree's path from `v` to its root `t` is the shortest `t → v`
//! path whose sequence of adjacency positions, read from `t`, is
//! lexicographically smallest (proved in DESIGN.md §9). The greedy walk
//! below picks exactly that path, so for every ordered pair all backends
//! return identical `next_hop` and `distance` (including `None` on
//! disconnected pairs). `tests/routing_oracle.rs` checks this over
//! random star / Barabási–Albert / Waxman / GLP / hierarchical /
//! disconnected graphs and over tie-heavy tori, complete bipartite
//! graphs and hypercubes; the netsim fingerprint suite pins
//! full-simulation bit-identity.

use crate::error::Error;
use crate::graph::{Csr, Graph, NodeId};
use crate::routing::{RoutingBackend, RoutingTable};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Environment variable consulted by [`RoutingKind::Auto`]: `dense`,
/// `lazy`, or `hier` forces that backend for every Auto-configured
/// world (the CI routing matrix drives the whole test suite through
/// each backend this way). Unset, empty, or `auto` falls back to the
/// structure rule; any other value also falls back but emits a one-shot
/// warning naming the bad value — a typo must not silently change which
/// backend ran.
pub const ROUTING_ENV: &str = "DYNAQUAR_ROUTING";

/// Which routing backend a world should use.
///
/// `Auto` keeps the paper-scale worlds (n ≤ [`DENSE_AUTO_LIMIT`]) on the
/// dense all-pairs table — bit-for-bit the pre-existing behaviour — and
/// switches larger worlds to either the two-level
/// [`HierRouting`](crate::hier::HierRouting) backend (when degree-1
/// peeling shrinks the graph to a dense-sized core, as the paper's
/// subnet topology does) or the lazy search backend, so world
/// construction never forces the `O(n²)` table. All three are
/// bit-identical, so the choice is pure performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// [`ROUTING_ENV`] override if set, else dense below
    /// [`DENSE_AUTO_LIMIT`] nodes, hier above it when the peeled core
    /// is dense-sized, lazy otherwise.
    Auto,
    /// Always precompute the dense all-pairs table.
    Dense,
    /// Always answer each query with the lazy bidirectional search.
    Lazy,
    /// Always use the two-level hierarchical backend (a dense core
    /// table plus pendant-tree parent arrays). Degenerates to a dense
    /// table behind an index map on graphs with nothing to peel.
    Hier,
}

/// Node count at and below which [`RoutingKind::Auto`] picks the dense
/// table; above it, the same bound caps the *peeled core* size the
/// hier backend may build its dense core table over.
pub const DENSE_AUTO_LIMIT: usize = 4096;

/// Reads the [`ROUTING_ENV`] override; warns once per process on an
/// unrecognized value (via the shared `dynaquar-parallel` env helper —
/// a misspelled override must not silently fall through to the
/// structure rule).
fn env_override() -> Option<RoutingKind> {
    dynaquar_parallel::env_override(
        ROUTING_ENV,
        "\"dense\", \"lazy\", \"hier\", or \"auto\" \
         (falling back to the auto structure rule)",
        |v| match v.to_ascii_lowercase().as_str() {
            "dense" => dynaquar_parallel::EnvParse::Value(RoutingKind::Dense),
            "lazy" => dynaquar_parallel::EnvParse::Value(RoutingKind::Lazy),
            "hier" => dynaquar_parallel::EnvParse::Value(RoutingKind::Hier),
            // Explicitly asking for the default is not a typo.
            "auto" => dynaquar_parallel::EnvParse::Default,
            _ => dynaquar_parallel::EnvParse::Invalid,
        },
    )
}

impl RoutingKind {
    /// Builds the backend for `graph`.
    ///
    /// `Auto` consults [`ROUTING_ENV`] first, keeps dense-sized graphs
    /// dense, and above the limit peels the graph
    /// ([`crate::hier::peeled_core_size`], `O(n + m)`): a core that
    /// fits the dense bound — the paper's subnet worlds collapse to
    /// their backbone — routes hierarchically, anything else (e.g. flat
    /// power-law graphs of minimum degree 2, which don't peel at all)
    /// falls back to the lazy search.
    pub fn build(self, graph: &Graph) -> Box<dyn RoutingBackend> {
        let n = graph.node_count();
        let resolved = match self {
            RoutingKind::Auto => env_override().unwrap_or_else(|| {
                if n <= DENSE_AUTO_LIMIT {
                    return RoutingKind::Dense;
                }
                let core = crate::hier::peeled_core_size(graph);
                if core <= DENSE_AUTO_LIMIT && core < n {
                    RoutingKind::Hier
                } else {
                    RoutingKind::Lazy
                }
            }),
            other => other,
        };
        match resolved {
            RoutingKind::Dense => Box::new(RoutingTable::shortest_paths(graph)),
            RoutingKind::Lazy => Box::new(LazyRouting::new(graph)),
            RoutingKind::Hier => Box::new(crate::hier::HierRouting::new(graph)),
            RoutingKind::Auto => unreachable!("Auto is resolved above"),
        }
    }
}

/// Marks a node no search has reached (in `dist_s`, `dist_t`, `mark`).
const UNSEEN: u32 = u32::MAX;

/// One query's scratch state. Every array is all-[`UNSEEN`] between
/// queries; [`Search::reset`] restores that through the touched lists
/// in `O(touched)`, not `O(n)`.
struct Search {
    /// Hop distance from the source, inside the source's ball.
    dist_s: Vec<u32>,
    /// Hop distance from the destination, inside its ball.
    dist_t: Vec<u32>,
    /// Distance from the destination of each node found on a shortest
    /// source–destination path.
    mark: Vec<u32>,
    /// The source's ball in discovery order: level by level, so the
    /// frontier is always a suffix. Doubles as `dist_s`'s touched list.
    seen_s: Vec<u32>,
    /// The destination's ball, likewise.
    seen_t: Vec<u32>,
    /// Marked nodes, layer by layer; `mark`'s touched list.
    marked: Vec<u32>,
}

/// Where the two balls met: the source–destination distance and the
/// meet layer (the shortest-path nodes at one common distance from
/// each end) as a range of [`Search::marked`].
struct Meet {
    dist: u32,
    layer: Range<usize>,
}

/// Grows one side's ball by one level: scans the frontier
/// `seen[*lo..]` in order, each node's neighbors in [`Csr`] order, and
/// labels every newly reached node `radius + 1`. Returns whether a new
/// node lies in the other ball, and the new frontier's adjacency-entry
/// count (the cost of expanding it next).
fn expand(
    csr: &Csr,
    dist: &mut [u32],
    seen: &mut Vec<u32>,
    lo: &mut usize,
    other: &[u32],
    radius: u32,
) -> (bool, usize) {
    let hi = seen.len();
    let (mut met, mut work) = (false, 0);
    for i in *lo..hi {
        for &v in csr.neighbors(seen[i] as usize) {
            if dist[v as usize] == UNSEEN {
                dist[v as usize] = radius + 1;
                seen.push(v);
                met |= other[v as usize] != UNSEEN;
                work += csr.degree(v as usize);
            }
        }
    }
    *lo = hi;
    (met, work)
}

/// Extends the marked shortest-path subgraph from `layer` toward one
/// end of the query: each step marks the neighbors one hop closer to
/// that end under `dist`, labelled by `label(distance)`, until the
/// layer one hop from the end is marked. The end itself is never
/// needed by the walk and stays unmarked.
fn mark_toward(
    csr: &Csr,
    dist: &[u32],
    mark: &mut [u32],
    marked: &mut Vec<u32>,
    mut layer: Range<usize>,
    label: impl Fn(u32) -> u32,
) {
    let mut d = dist[marked[layer.start] as usize];
    while d > 1 {
        let start = marked.len();
        for i in layer {
            for &w in csr.neighbors(marked[i] as usize) {
                if dist[w as usize] == d - 1 && mark[w as usize] == UNSEEN {
                    mark[w as usize] = label(d - 1);
                    marked.push(w);
                }
            }
        }
        layer = start..marked.len();
        d -= 1;
    }
}

impl Search {
    fn new(n: usize) -> Self {
        Search {
            dist_s: vec![UNSEEN; n],
            dist_t: vec![UNSEEN; n],
            mark: vec![UNSEEN; n],
            seen_s: Vec::new(),
            seen_t: Vec::new(),
            marked: Vec::new(),
        }
    }

    /// Level-synchronous bidirectional BFS between distinct `s` and
    /// `t`. Each step expands whichever frontier has fewer adjacency
    /// entries and stops after the first level that meets the other
    /// ball; the meet layer is pushed onto `marked` with its distance
    /// from `t`. `None` when `t` is unreachable.
    ///
    /// Before a step the balls of radii `r_s` and `r_t` are disjoint,
    /// so `d(s, t) > r_s + r_t`; a meeting step therefore gives
    /// `d(s, t) = r_s + r_t + 1` exactly, and every shortest path
    /// crosses the freshly expanded level at a node of the other ball's
    /// frontier. Which side expands changes only the cost.
    fn meet(&mut self, csr: &Csr, s: u32, t: u32) -> Option<Meet> {
        self.dist_s[s as usize] = 0;
        self.seen_s.push(s);
        self.dist_t[t as usize] = 0;
        self.seen_t.push(t);
        let (mut lo_s, mut lo_t) = (0, 0);
        let (mut r_s, mut r_t) = (0, 0);
        let (mut work_s, mut work_t) = (csr.degree(s as usize), csr.degree(t as usize));
        loop {
            let grow_s = work_s <= work_t;
            let (met, work) = if grow_s {
                expand(
                    csr,
                    &mut self.dist_s,
                    &mut self.seen_s,
                    &mut lo_s,
                    &self.dist_t,
                    r_s,
                )
            } else {
                expand(
                    csr,
                    &mut self.dist_t,
                    &mut self.seen_t,
                    &mut lo_t,
                    &self.dist_s,
                    r_t,
                )
            };
            if met {
                let dist = r_s + r_t + 1;
                let (frontier, other) = if grow_s {
                    (&self.seen_s[lo_s..], &self.dist_t)
                } else {
                    (&self.seen_t[lo_t..], &self.dist_s)
                };
                let start = self.marked.len();
                for &v in frontier {
                    if other[v as usize] != UNSEEN {
                        self.mark[v as usize] = self.dist_t[v as usize];
                        self.marked.push(v);
                    }
                }
                return Some(Meet {
                    dist,
                    layer: start..self.marked.len(),
                });
            }
            let frontier_empty = if grow_s {
                r_s += 1;
                work_s = work;
                lo_s == self.seen_s.len()
            } else {
                r_t += 1;
                work_t = work;
                lo_t == self.seen_t.len()
            };
            if frontier_empty {
                return None;
            }
        }
    }

    /// The first hop of the shortest `s → t` path whose reverse, read
    /// from `t` as a sequence of adjacency positions, is
    /// lexicographically smallest — the parent of `s` in the
    /// destination-rooted BFS tree every backend shares.
    fn next_hop(&mut self, csr: &Csr, s: u32, t: u32) -> Option<u32> {
        let meet = self.meet(csr, s, t)?;
        let l = meet.dist;
        let (dist_s, dist_t) = (&self.dist_s, &self.dist_t);
        mark_toward(
            csr,
            dist_t,
            &mut self.mark,
            &mut self.marked,
            meet.layer.clone(),
            |d| d,
        );
        mark_toward(
            csr,
            dist_s,
            &mut self.mark,
            &mut self.marked,
            meet.layer,
            |d| l - d,
        );
        // Every marked node lies on a shortest s–t path, so each step
        // from t to the first marked neighbor one layer further keeps a
        // shortest path open; the first such neighbor in adjacency order
        // extends the lexicographically smallest prefix.
        let mut x = t;
        for depth in 1..l {
            x = *csr
                .neighbors(x as usize)
                .iter()
                .find(|&&w| self.mark[w as usize] == depth)
                .expect("a marked node has a marked successor");
        }
        Some(x)
    }

    /// Restores every array to all-[`UNSEEN`] and empties the lists.
    fn reset(&mut self) {
        for &v in &self.seen_s {
            self.dist_s[v as usize] = UNSEEN;
        }
        for &v in &self.seen_t {
            self.dist_t[v as usize] = UNSEEN;
        }
        for &v in &self.marked {
            self.mark[v as usize] = UNSEEN;
        }
        self.seen_s.clear();
        self.seen_t.clear();
        self.marked.clear();
    }
}

/// Memory-bounded shortest-path routing: each query answered by a
/// bidirectional search over the adjacency, bit-identical to the dense
/// table.
///
/// # Example
///
/// ```
/// use dynaquar_topology::generators;
/// use dynaquar_topology::lazy::LazyRouting;
/// use dynaquar_topology::routing::{RoutingBackend, RoutingTable};
///
/// let star = generators::star(4).expect("valid");
/// let lazy = LazyRouting::new(&star.graph);
/// let dense = RoutingTable::shortest_paths(&star.graph);
/// assert_eq!(
///     RoutingBackend::next_hop(&lazy, 1.into(), 2.into()),
///     dense.next_hop(1.into(), 2.into()),
/// );
/// ```
pub struct LazyRouting {
    /// CSR snapshot of the adjacency lists (`O(n + m)`), so the backend
    /// is self-contained like the dense table.
    csr: Csr,
    /// Idle scratch states, one per query that has ever run
    /// concurrently; a query pops one (or allocates the first) and
    /// pushes it back reset.
    pool: Mutex<Vec<Search>>,
}

impl std::fmt::Debug for LazyRouting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyRouting")
            .field("nodes", &self.csr.node_count())
            .field("entries", &self.csr.entry_count())
            .finish()
    }
}

impl LazyRouting {
    /// Creates the backend over `graph`.
    pub fn new(graph: &Graph) -> Self {
        LazyRouting {
            csr: Csr::from_graph(graph),
            pool: Mutex::new(Vec::new()),
        }
    }

    fn check_nodes(&self, src: NodeId, dst: NodeId) -> Result<(), Error> {
        let node_count = self.csr.node_count();
        for node in [src, dst] {
            if node.index() >= node_count {
                return Err(Error::NodeOutOfRange { node, node_count });
            }
        }
        Ok(())
    }

    /// Runs `f` on a pooled scratch state and returns the state reset.
    fn with_search<R>(&self, f: impl FnOnce(&mut Search) -> R) -> R {
        // Poison recovery is sound: the pool only holds reset states,
        // and a panicking query drops its state instead of returning it.
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let mut search = pooled.unwrap_or_else(|| Search::new(self.csr.node_count()));
        let result = f(&mut search);
        search.reset();
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(search);
        result
    }
}

impl RoutingBackend for LazyRouting {
    fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    fn try_next_hop(&self, src: NodeId, dst: NodeId) -> Result<Option<NodeId>, Error> {
        self.check_nodes(src, dst)?;
        if src == dst {
            return Ok(None);
        }
        let (s, t) = (src.index() as u32, dst.index() as u32);
        Ok(self
            .with_search(|search| search.next_hop(&self.csr, s, t))
            .map(NodeId::new))
    }

    fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error> {
        self.check_nodes(src, dst)?;
        if src == dst {
            return Ok(Some(0));
        }
        let (s, t) = (src.index() as u32, dst.index() as u32);
        Ok(self.with_search(|search| search.meet(&self.csr, s, t).map(|m| m.dist)))
    }

    fn backend_name(&self) -> &'static str {
        "lazy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn assert_pairwise_identical(g: &Graph) {
        let dense = RoutingTable::shortest_paths(g);
        let lazy = LazyRouting::new(g);
        let n = g.node_count();
        for src in 0..n {
            for dst in 0..n {
                let (s, d) = (NodeId::from(src), NodeId::from(dst));
                assert_eq!(
                    RoutingBackend::next_hop(&lazy, s, d),
                    dense.next_hop(s, d),
                    "next_hop({s}, {d})"
                );
                assert_eq!(
                    RoutingBackend::distance(&lazy, s, d),
                    dense.distance(s, d),
                    "distance({s}, {d})"
                );
            }
        }
    }

    #[test]
    fn matches_dense_on_star() {
        let star = generators::star(12).unwrap();
        assert_pairwise_identical(&star.graph);
    }

    #[test]
    fn matches_dense_on_power_law() {
        let g = generators::barabasi_albert(80, 2, 5).unwrap();
        assert_pairwise_identical(&g);
    }

    #[test]
    fn matches_dense_on_ring_ties() {
        // Even rings put two shortest paths between antipodes: only the
        // adjacency-order tie-break picks the hop.
        assert_pairwise_identical(&generators::ring(10).unwrap());
    }

    #[test]
    fn matches_dense_on_disconnected_graph() {
        let mut g = Graph::with_nodes(6);
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(1.into(), 2.into()).unwrap();
        g.add_edge(3.into(), 4.into()).unwrap();
        assert_pairwise_identical(&g);
        let lazy = LazyRouting::new(&g);
        assert_eq!(lazy.try_next_hop(0.into(), 4.into()).unwrap(), None);
        assert_eq!(lazy.try_distance(5.into(), 0.into()).unwrap(), None);
    }

    #[test]
    fn derived_walks_match_dense() {
        let g = generators::barabasi_albert(40, 2, 9).unwrap();
        let dense = RoutingTable::shortest_paths(&g);
        let lazy = LazyRouting::new(&g);
        assert_eq!(RoutingBackend::diameter(&lazy), dense.diameter());
        assert!(
            (RoutingBackend::average_path_length(&lazy) - dense.average_path_length()).abs()
                < 1e-12
        );
        // `link_loads` reads no backend state; `tests/routing_oracle.rs`
        // pins it against hop-by-hop walks over this backend.
        assert_eq!(
            RoutingBackend::path(&lazy, 3.into(), 31.into()),
            dense.path(3.into(), 31.into())
        );
    }

    #[test]
    fn scratch_is_reset_and_reused() {
        let g = generators::barabasi_albert(60, 2, 3).unwrap();
        let lazy = LazyRouting::new(&g);
        for dst in 0..60usize {
            let _ = RoutingBackend::next_hop(&lazy, 0.into(), dst.into());
        }
        let pool = lazy.pool.lock().unwrap();
        assert_eq!(pool.len(), 1, "serial queries share one scratch state");
        let search = &pool[0];
        assert!(search.seen_s.is_empty() && search.seen_t.is_empty());
        assert!(search.marked.is_empty());
        for arr in [&search.dist_s, &search.dist_t, &search.mark] {
            assert!(arr.iter().all(|&x| x == UNSEEN));
        }
    }

    #[test]
    fn concurrent_lookups_match_dense() {
        let g = generators::barabasi_albert(240, 2, 11).unwrap();
        let lazy = LazyRouting::new(&g);
        let dense = RoutingTable::shortest_paths(&g);
        const THREADS: usize = 8;
        const QUERIES: usize = 500;
        // Release every thread at once so their queries overlap.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (lazy, dense, start) = (&lazy, &dense, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..QUERIES {
                        let src = NodeId::from((i * 7 + t * 13) % 240);
                        let dst = NodeId::from((i * 31 + t * 5) % 240);
                        assert_eq!(
                            RoutingBackend::next_hop(lazy, src, dst),
                            dense.next_hop(src, dst)
                        );
                        assert_eq!(
                            RoutingBackend::distance(lazy, src, dst),
                            dense.distance(src, dst)
                        );
                    }
                });
            }
        });
        assert!(lazy.pool.lock().unwrap().len() <= THREADS);
    }

    #[test]
    fn out_of_range_queries_error() {
        let g = generators::ring(4).unwrap();
        let lazy = LazyRouting::new(&g);
        let bad = NodeId::new(9);
        assert_eq!(
            lazy.try_next_hop(bad, 0.into()),
            Err(Error::NodeOutOfRange {
                node: bad,
                node_count: 4
            })
        );
        assert!(lazy.try_distance(0.into(), bad).is_err());
        assert!(lazy.try_path(bad, bad).is_err());
    }

    #[test]
    fn kind_build_picks_the_right_backend() {
        // The env override is process-global; only exercise the
        // structure rule when the variable is not set (the CI matrix
        // sets it for whole jobs, never inside one).
        if std::env::var(ROUTING_ENV).is_ok() {
            return;
        }
        let g = generators::ring(16).unwrap();
        assert_eq!(RoutingKind::Auto.build(&g).backend_name(), "dense");
        assert_eq!(RoutingKind::Dense.build(&g).backend_name(), "dense");
        assert_eq!(RoutingKind::Hier.build(&g).backend_name(), "hier");
        let lazy = RoutingKind::Lazy.build(&g);
        assert_eq!(lazy.backend_name(), "lazy");
        assert_eq!(lazy.node_count(), 16);
        // Above the dense limit: a flat power-law graph (minimum degree
        // 2, nothing peels) goes lazy, a subnet world peels to its
        // backbone and goes hier.
        let flat = generators::barabasi_albert(5000, 2, 7).unwrap();
        assert!(flat.node_count() > DENSE_AUTO_LIMIT);
        assert_eq!(RoutingKind::Auto.build(&flat).backend_name(), "lazy");
        let subnets = generators::SubnetTopologyBuilder::new()
            .backbone_routers(4)
            .subnets(20)
            .hosts_per_subnet(250)
            .build()
            .unwrap();
        assert!(subnets.graph.node_count() > DENSE_AUTO_LIMIT);
        assert_eq!(
            RoutingKind::Auto.build(&subnets.graph).backend_name(),
            "hier"
        );
    }

    #[test]
    fn debug_is_nonempty() {
        let g = generators::ring(4).unwrap();
        let lazy = LazyRouting::new(&g);
        assert!(!format!("{lazy:?}").is_empty());
    }
}
