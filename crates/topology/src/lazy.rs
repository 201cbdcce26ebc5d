//! Memory-bounded lazy routing: per-destination BFS behind a bounded,
//! sharded LRU cache.
//!
//! The dense [`RoutingTable`](crate::routing::RoutingTable) costs
//! `~4·n²` bytes — ~400 MB at 10k nodes and ~40 GB at 100k — so it
//! cannot even be *constructed* for the topologies the
//! production-scale engine targets. [`LazyRouting`] stores nothing up
//! front: the first query toward a destination runs one BFS rooted at
//! that destination (`O(n + m)`, `8·n` bytes) and caches its packed
//! hop/distance row; a bounded LRU evicts the coldest destination when
//! full, recycling its buffer into the next computation so
//! steady-state routing allocates nothing.
//!
//! The cache is split into [`SHARD_COUNT`] independently locked shards
//! (keyed by destination id) once the capacity reaches
//! [`SHARD_THRESHOLD`], so concurrent ensemble runs sharing one backend
//! stop serializing on a single global mutex; tiny caches stay on one
//! shard so their LRU behaves exactly like the original global one.
//! [`CacheStats`] are kept per shard and summed on read — each
//! counter bump happens under its shard's lock, so concurrent lookups
//! can never under-count.
//!
//! **Equivalence contract:** the per-destination BFS is the shared
//! kernel ([`crate::routing`]'s `bfs_fill_row`) every backend runs —
//! same root, same [`Csr`] adjacency order, same first-discovery parent
//! assignment — so for every ordered pair all backends return identical
//! `next_hop` and `distance` (including `None` on disconnected pairs).
//! `tests/routing_oracle.rs` proves this property over random star /
//! Barabási–Albert / Waxman / GLP / hierarchical / disconnected graphs,
//! and the netsim fingerprint suite pins full-simulation bit-identity.

use crate::error::Error;
use crate::graph::{Csr, Graph, NodeId};
use crate::routing::{bfs_fill_row, PackedCell, RoutingBackend, RoutingTable, NO_HOP};
use std::collections::HashMap;
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
/// subnet topology does) or the lazy LRU backend with a capacity sized
/// by [`default_cache_capacity`], so world construction never forces
/// the `O(n²)` table. All three are bit-identical, so the choice is
/// pure performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// [`ROUTING_ENV`] override if set, else dense below
    /// [`DENSE_AUTO_LIMIT`] nodes, hier above it when the peeled core
    /// is dense-sized, lazy otherwise.
    Auto,
    /// Always precompute the dense all-pairs table.
    Dense,
    /// Always use the lazy backend with this many cached destinations
    /// (clamped to at least 1).
    Lazy {
        /// Maximum number of destinations whose BFS arrays stay cached.
        max_cached_destinations: usize,
    },
    /// Always use the two-level hierarchical backend (a dense core
    /// table plus pendant-tree parent arrays). Degenerates to a dense
    /// table behind an index map on graphs with nothing to peel.
    Hier,
}

/// Node count at and below which [`RoutingKind::Auto`] picks the dense
/// table; above it, the same bound caps the *peeled core* size the
/// hier backend may build its dense core table over.
pub const DENSE_AUTO_LIMIT: usize = 4096;

/// Memory budget [`RoutingKind::Auto`] grants the lazy cache.
pub const AUTO_CACHE_BUDGET_BYTES: usize = 256 << 20;

/// The LRU capacity [`RoutingKind::Auto`] uses for an `n`-node graph:
/// as many destinations as fit [`AUTO_CACHE_BUDGET_BYTES`] (each costs
/// `8·n` bytes), at least 8, at most `n`.
pub fn default_cache_capacity(n: usize) -> usize {
    let per_destination = 8 * n.max(1) + 64;
    (AUTO_CACHE_BUDGET_BYTES / per_destination).clamp(8, n.max(8))
}

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
            "lazy" => dynaquar_parallel::EnvParse::Value(RoutingKind::Lazy {
                max_cached_destinations: 0, // sized per graph by the caller
            }),
            "hier" => dynaquar_parallel::EnvParse::Value(RoutingKind::Hier),
            // Explicitly asking for the default is not a typo.
            "auto" => dynaquar_parallel::EnvParse::Default,
            _ => dynaquar_parallel::EnvParse::Invalid,
        },
    )
}

impl RoutingKind {
    /// Resolves `Auto` against a concrete node count (and the
    /// [`ROUTING_ENV`] override).
    ///
    /// Size alone cannot justify the hier backend — that takes the
    /// graph's peeled core, which only [`RoutingKind::build`] sees — so
    /// without an env override this never returns `Hier`: it reports
    /// the dense/lazy *fallback* large worlds get when their core is
    /// too big.
    pub fn resolve(self, n: usize) -> RoutingKind {
        match self {
            RoutingKind::Auto => {
                match env_override() {
                    Some(RoutingKind::Lazy { .. }) => {
                        return RoutingKind::Lazy {
                            max_cached_destinations: default_cache_capacity(n),
                        }
                    }
                    Some(kind) => return kind,
                    None => {}
                }
                if n <= DENSE_AUTO_LIMIT {
                    RoutingKind::Dense
                } else {
                    RoutingKind::Lazy {
                        max_cached_destinations: default_cache_capacity(n),
                    }
                }
            }
            other => other,
        }
    }

    /// Builds the backend for `graph`.
    ///
    /// `Auto` consults [`ROUTING_ENV`] first, keeps dense-sized graphs
    /// dense, and above the limit peels the graph
    /// ([`crate::hier::peeled_core_size`], `O(n + m)`): a core that
    /// fits the dense bound — the paper's subnet worlds collapse to
    /// their backbone — routes hierarchically, anything else (e.g. flat
    /// power-law graphs of minimum degree 2, which don't peel at all)
    /// falls back to the lazy LRU.
    pub fn build(self, graph: &Graph) -> Box<dyn RoutingBackend> {
        let n = graph.node_count();
        let resolved = match self {
            RoutingKind::Auto => match env_override() {
                Some(RoutingKind::Lazy { .. }) => RoutingKind::Lazy {
                    max_cached_destinations: default_cache_capacity(n),
                },
                Some(kind) => kind,
                None => {
                    if n <= DENSE_AUTO_LIMIT {
                        RoutingKind::Dense
                    } else {
                        let core = crate::hier::peeled_core_size(graph);
                        if core <= DENSE_AUTO_LIMIT && core < n {
                            RoutingKind::Hier
                        } else {
                            RoutingKind::Lazy {
                                max_cached_destinations: default_cache_capacity(n),
                            }
                        }
                    }
                }
            },
            other => other,
        };
        match resolved {
            RoutingKind::Dense => Box::new(RoutingTable::shortest_paths(graph)),
            RoutingKind::Lazy {
                max_cached_destinations,
            } => Box::new(LazyRouting::new(graph, max_cached_destinations)),
            RoutingKind::Hier => Box::new(crate::hier::HierRouting::new(graph)),
            RoutingKind::Auto => unreachable!("Auto is resolved above"),
        }
    }
}

/// Capacity at and above which the cache splits into [`SHARD_COUNT`]
/// shards. Below it a single shard preserves the original global-LRU
/// eviction order exactly (a capacity-2 cache split 8 ways would hold
/// nothing).
pub const SHARD_THRESHOLD: usize = 64;

/// Number of independently locked cache shards at or above
/// [`SHARD_THRESHOLD`]. Fixed (not sized from the host's parallelism)
/// so eviction behaviour is machine-independent.
pub const SHARD_COUNT: usize = 8;

/// One destination's cached BFS row: packed `(next_hop, distance)`
/// cells indexed by source (see [`PackedCell`]).
struct Slot {
    cells: Vec<u64>,
    last_used: u64,
}

/// Cache hit/miss/eviction counters, for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served from a cached destination.
    pub hits: u64,
    /// Queries that had to run a BFS.
    pub misses: u64,
    /// Cached destinations discarded to make room.
    pub evictions: u64,
}

struct DestCache {
    map: HashMap<u32, Slot>,
    clock: u64,
    stats: CacheStats,
    /// Recycled rows from evicted slots: steady-state misses reuse
    /// them instead of allocating 8·n fresh bytes.
    spare: Vec<Vec<u64>>,
    /// Reusable BFS frontier buffers.
    cur: Vec<u32>,
    next: Vec<u32>,
}

impl DestCache {
    fn empty() -> Self {
        DestCache {
            map: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            spare: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
        }
    }
}

/// One lock's worth of the cache, owning a slice of the total capacity.
struct Shard {
    capacity: usize,
    cache: Mutex<DestCache>,
}

/// Memory-bounded shortest-path routing: lazily computed per-destination
/// BFS rows behind a bounded, sharded LRU.
///
/// # Example
///
/// ```
/// use dynaquar_topology::generators;
/// use dynaquar_topology::lazy::LazyRouting;
/// use dynaquar_topology::routing::{RoutingBackend, RoutingTable};
///
/// let star = generators::star(4).expect("valid");
/// let lazy = LazyRouting::new(&star.graph, 2);
/// let dense = RoutingTable::shortest_paths(&star.graph);
/// assert_eq!(
///     RoutingBackend::next_hop(&lazy, 1.into(), 2.into()),
///     dense.next_hop(1.into(), 2.into()),
/// );
/// ```
pub struct LazyRouting {
    n: usize,
    /// CSR snapshot of the adjacency lists (`O(n + m)`), so the backend
    /// is self-contained like the dense table.
    csr: Csr,
    capacity: usize,
    shards: Vec<Shard>,
}

impl std::fmt::Debug for LazyRouting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyRouting")
            .field("nodes", &self.n)
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("cached", &self.cached_destinations())
            .field("stats", &self.cache_stats())
            .finish()
    }
}

impl LazyRouting {
    /// Creates the backend over `graph` with room for `capacity` cached
    /// destinations in total (clamped to at least 1), spread over the
    /// shards.
    pub fn new(graph: &Graph, capacity: usize) -> Self {
        let n = graph.node_count();
        let capacity = capacity.max(1);
        let shard_count = if capacity >= SHARD_THRESHOLD {
            SHARD_COUNT
        } else {
            1
        };
        // Distribute the capacity; the remainder goes to the first
        // shards so the per-shard split is deterministic.
        let base = capacity / shard_count;
        let extra = capacity % shard_count;
        let shards = (0..shard_count)
            .map(|i| Shard {
                capacity: base + usize::from(i < extra),
                cache: Mutex::new(DestCache::empty()),
            })
            .collect();
        LazyRouting {
            n,
            csr: Csr::from_graph(graph),
            capacity,
            shards,
        }
    }

    /// The configured LRU capacity, in destinations (summed over
    /// shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independently locked cache shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Upper bound on the bytes the cache can pin (`capacity · 8·n`).
    pub fn memory_bound_bytes(&self) -> usize {
        self.capacity * 8 * self.n
    }

    /// Snapshot of the hit/miss/eviction counters, summed across
    /// shards.
    ///
    /// Each shard's counters only mutate under that shard's lock, so
    /// the sum never under-counts; it may lag an in-flight lookup on
    /// another shard, which is inherent to any sharded snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let cache = shard.cache.lock().unwrap_or_else(PoisonError::into_inner);
            total.hits += cache.stats.hits;
            total.misses += cache.stats.misses;
            total.evictions += cache.stats.evictions;
        }
        total
    }

    /// Destinations currently cached, summed across shards.
    pub fn cached_destinations(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }

    fn check_nodes(&self, src: NodeId, dst: NodeId) -> Result<(), Error> {
        for node in [src, dst] {
            if node.index() >= self.n {
                return Err(Error::NodeOutOfRange {
                    node,
                    node_count: self.n,
                });
            }
        }
        Ok(())
    }

    /// Runs `f` against the packed BFS row rooted at `dst`, computing
    /// and caching it in `dst`'s shard if absent.
    fn with_routes<R>(&self, dst: NodeId, f: impl FnOnce(&[u64]) -> R) -> R {
        let key = dst.index() as u32;
        let shard = &self.shards[dst.index() % self.shards.len()];
        // Poison recovery is sound here: every cache mutation (counter
        // bump, map insert, LRU eviction) completes before control
        // leaves this module, so a panic in a caller-supplied closure on
        // another thread can only poison the lock *between* individually
        // consistent states — never mid-update.
        let mut cache = shard.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = &mut *cache;
        cache.clock += 1;
        let stamp = cache.clock;
        if let Some(slot) = cache.map.get_mut(&key) {
            slot.last_used = stamp;
            cache.stats.hits += 1;
            return f(&slot.cells);
        }
        cache.stats.misses += 1;
        if cache.map.len() >= shard.capacity {
            // Evict the least-recently-used destination; the scan is
            // O(shard capacity), dwarfed by the O(n + m) BFS that
            // follows.
            let coldest = cache
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(&k, _)| k)
                .expect("cache is non-empty at capacity");
            let slot = cache.map.remove(&coldest).expect("key just found");
            cache.stats.evictions += 1;
            cache.spare.push(slot.cells);
        }
        let mut cells = cache
            .spare
            .pop()
            .unwrap_or_else(|| vec![u64::UNREACHED; self.n]);
        bfs_fill_row(
            &self.csr,
            key,
            &mut cells,
            &mut cache.cur,
            &mut cache.next,
        );
        let result = f(&cells);
        cache.map.insert(
            key,
            Slot {
                cells,
                last_used: stamp,
            },
        );
        result
    }
}

impl RoutingBackend for LazyRouting {
    fn node_count(&self) -> usize {
        self.n
    }

    fn try_next_hop(&self, src: NodeId, dst: NodeId) -> Result<Option<NodeId>, Error> {
        self.check_nodes(src, dst)?;
        if src == dst {
            return Ok(None);
        }
        let hop = self.with_routes(dst, |cells| cells[src.index()].hop());
        Ok((hop != NO_HOP).then(|| NodeId::new(hop)))
    }

    fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error> {
        self.check_nodes(src, dst)?;
        let d = self.with_routes(dst, |cells| cells[src.index()].dist());
        Ok((d != u32::MAX).then_some(d))
    }

    fn backend_name(&self) -> &'static str {
        "lazy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn assert_pairwise_identical(g: &Graph, capacity: usize) {
        let dense = RoutingTable::shortest_paths(g);
        let lazy = LazyRouting::new(g, capacity);
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
    fn matches_dense_on_star_even_with_tiny_cache() {
        let star = generators::star(12).unwrap();
        assert_pairwise_identical(&star.graph, 1);
    }

    #[test]
    fn matches_dense_on_power_law() {
        let g = generators::barabasi_albert(80, 2, 5).unwrap();
        assert_pairwise_identical(&g, 7);
    }

    #[test]
    fn matches_dense_when_sharded() {
        let g = generators::barabasi_albert(90, 2, 13).unwrap();
        let lazy = LazyRouting::new(&g, SHARD_THRESHOLD);
        assert_eq!(lazy.shard_count(), SHARD_COUNT);
        assert_pairwise_identical(&g, SHARD_THRESHOLD);
    }

    #[test]
    fn matches_dense_on_disconnected_graph() {
        let mut g = Graph::with_nodes(6);
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(1.into(), 2.into()).unwrap();
        g.add_edge(3.into(), 4.into()).unwrap();
        assert_pairwise_identical(&g, 2);
        let lazy = LazyRouting::new(&g, 2);
        assert_eq!(lazy.try_next_hop(0.into(), 4.into()).unwrap(), None);
        assert_eq!(lazy.try_distance(5.into(), 0.into()).unwrap(), None);
    }

    #[test]
    fn derived_walks_match_dense() {
        let g = generators::barabasi_albert(40, 2, 9).unwrap();
        let dense = RoutingTable::shortest_paths(&g);
        let lazy = LazyRouting::new(&g, 5);
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
    fn cache_is_bounded_and_recycles() {
        let g = generators::barabasi_albert(50, 2, 3).unwrap();
        let lazy = LazyRouting::new(&g, 4);
        assert_eq!(lazy.shard_count(), 1, "small caches stay unsharded");
        for dst in 0..50usize {
            let _ = RoutingBackend::distance(&lazy, 0.into(), dst.into());
        }
        assert!(lazy.cached_destinations() <= 4);
        let stats = lazy.cache_stats();
        assert_eq!(stats.misses, 50);
        assert_eq!(stats.evictions, 46);
        assert_eq!(lazy.memory_bound_bytes(), 4 * 8 * 50);
        // Re-query the hot destinations: all hits.
        for dst in 46..50usize {
            let _ = RoutingBackend::distance(&lazy, 1.into(), dst.into());
        }
        assert_eq!(lazy.cache_stats().hits, stats.hits + 4);
    }

    #[test]
    fn lru_keeps_recently_used_destinations() {
        let g = generators::ring(8).unwrap();
        let lazy = LazyRouting::new(&g, 2);
        let _ = RoutingBackend::distance(&lazy, 0.into(), 1.into()); // miss: {1}
        let _ = RoutingBackend::distance(&lazy, 0.into(), 2.into()); // miss: {1, 2}
        let _ = RoutingBackend::distance(&lazy, 3.into(), 1.into()); // hit, 1 freshest
        let _ = RoutingBackend::distance(&lazy, 0.into(), 5.into()); // miss, evicts 2
        let stats = lazy.cache_stats();
        let _ = RoutingBackend::distance(&lazy, 4.into(), 1.into()); // still a hit
        assert_eq!(lazy.cache_stats().hits, stats.hits + 1);
        let _ = RoutingBackend::distance(&lazy, 4.into(), 2.into()); // evicted: a miss
        assert_eq!(lazy.cache_stats().misses, stats.misses + 1);
    }

    #[test]
    fn sharded_cache_is_bounded_per_shard() {
        let g = generators::barabasi_albert(200, 2, 21).unwrap();
        let lazy = LazyRouting::new(&g, 65);
        assert_eq!(lazy.shard_count(), SHARD_COUNT);
        for dst in 0..200usize {
            let _ = RoutingBackend::distance(&lazy, 0.into(), dst.into());
        }
        // Per-shard capacities are 9/8/8/…, so the total stays bounded
        // by the requested 65 even after touching every destination.
        assert!(lazy.cached_destinations() <= 65);
        let stats = lazy.cache_stats();
        assert_eq!(stats.misses, 200);
        assert_eq!(
            stats.misses - stats.evictions,
            lazy.cached_destinations() as u64,
            "every miss either grew a shard or evicted from it"
        );
    }

    #[test]
    fn concurrent_lookups_never_undercount_stats() {
        let g = generators::barabasi_albert(240, 2, 11).unwrap();
        let lazy = LazyRouting::new(&g, 128);
        let dense = RoutingTable::shortest_paths(&g);
        const THREADS: usize = 8;
        const QUERIES: usize = 500;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (lazy, dense) = (&lazy, &dense);
                scope.spawn(move || {
                    for i in 0..QUERIES {
                        let src = NodeId::from((i * 7 + t * 13) % 240);
                        let dst = NodeId::from((i * 31 + t * 5) % 240);
                        assert_eq!(
                            RoutingBackend::distance(lazy, src, dst),
                            dense.distance(src, dst)
                        );
                    }
                });
            }
        });
        let stats = lazy.cache_stats();
        // The exact hit/miss split depends on interleaving, but under
        // per-shard locking every lookup lands in exactly one counter.
        assert_eq!(stats.hits + stats.misses, (THREADS * QUERIES) as u64);
        assert_eq!(
            stats.misses - stats.evictions,
            lazy.cached_destinations() as u64
        );
        assert!(lazy.cached_destinations() <= 128);
    }

    #[test]
    fn out_of_range_queries_error() {
        let g = generators::ring(4).unwrap();
        let lazy = LazyRouting::new(&g, 2);
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
    fn auto_kind_resolves_by_size() {
        // The env override is process-global; only exercise the size
        // rule when the variable is not set (the CI matrix sets it for
        // whole jobs, never inside one).
        if std::env::var(ROUTING_ENV).is_ok() {
            return;
        }
        assert_eq!(RoutingKind::Auto.resolve(1000), RoutingKind::Dense);
        assert_eq!(RoutingKind::Auto.resolve(DENSE_AUTO_LIMIT), RoutingKind::Dense);
        match RoutingKind::Auto.resolve(DENSE_AUTO_LIMIT + 1) {
            RoutingKind::Lazy {
                max_cached_destinations,
            } => assert_eq!(
                max_cached_destinations,
                default_cache_capacity(DENSE_AUTO_LIMIT + 1)
            ),
            other => panic!("expected lazy, got {other:?}"),
        }
        assert_eq!(
            RoutingKind::Dense.resolve(1_000_000),
            RoutingKind::Dense,
            "explicit kinds resolve to themselves"
        );
        assert_eq!(RoutingKind::Hier.resolve(10), RoutingKind::Hier);
    }

    #[test]
    fn default_capacity_fits_the_budget() {
        for n in [5_000usize, 20_000, 100_000, 1_000_000] {
            let cap = default_cache_capacity(n);
            assert!(cap >= 8);
            assert!(cap * 8 * n <= AUTO_CACHE_BUDGET_BYTES + 8 * n,
                "cache bound blown at n={n}: {cap}");
        }
        // Tiny graphs clamp to n-or-8, never zero.
        assert!(default_cache_capacity(1) >= 1);
    }

    #[test]
    fn kind_build_picks_the_right_backend() {
        if std::env::var(ROUTING_ENV).is_ok() {
            return;
        }
        let g = generators::ring(16).unwrap();
        assert_eq!(RoutingKind::Auto.build(&g).backend_name(), "dense");
        assert_eq!(RoutingKind::Dense.build(&g).backend_name(), "dense");
        assert_eq!(RoutingKind::Hier.build(&g).backend_name(), "hier");
        let lazy = RoutingKind::Lazy {
            max_cached_destinations: 3,
        }
        .build(&g);
        assert_eq!(lazy.backend_name(), "lazy");
        assert_eq!(lazy.node_count(), 16);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = generators::ring(4).unwrap();
        let lazy = LazyRouting::new(&g, 2);
        assert!(!format!("{lazy:?}").is_empty());
    }
}
