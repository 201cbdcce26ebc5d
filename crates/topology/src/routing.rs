//! BFS shortest-path routing with per-link load counts.
//!
//! The paper's simulator routes infection packets "using a shortest path
//! algorithm through the network" and weights each rate-limited link's
//! budget "proportional to the number of routing table entries the link
//! occupies". [`RoutingTable`] precomputes all-pairs next hops by running
//! one BFS per node, and [`link_loads`] counts, for every link, how many
//! ordered node pairs route across it.
//!
//! Routing is consumed through the [`RoutingBackend`] trait, which the
//! dense table implements alongside the memory-bounded
//! [`LazyRouting`](crate::lazy::LazyRouting) backend and the two-level
//! [`HierRouting`](crate::hier::HierRouting) backend; all produce
//! bit-identical next hops. The table backends reproduce the same BFS
//! (neighbors in adjacency order) rooted at the destination; the lazy
//! search walks that BFS tree's path without building the tree (it is
//! the lexicographically smallest shortest path, DESIGN.md §9).
//!
//! Every backend's BFS runs over the shared [`Csr`] adjacency snapshot
//! and writes **destination-major** rows (`table[dst * n + src]`): one
//! BFS fills one contiguous row, so construction streams through memory
//! instead of scattering stride-`n` writes. Construction fans the
//! per-destination BFS out over the `dynaquar-parallel` pool in
//! deterministic destination order ([`RoutingTable::shortest_paths_with`]);
//! [`RoutingTable::shortest_paths_serial`] keeps the original
//! adjacency-list serial loop as the independent oracle the differential
//! suite (`tests/routing_oracle.rs`) pins every other construction
//! against.
//!
//! Link loads and path coverage are sums over the same per-destination
//! BFS trees (`sum_over_trees`): one `O(n + m)` BFS plus one sweep of
//! the tree per destination, `O(n · (n + m))` in all, with no per-hop
//! routing queries or edge-id hashing. The same suite checks them
//! against hop-by-hop path walks.

use crate::error::Error;
use crate::graph::{Csr, EdgeId, Graph, NodeId};
use dynaquar_parallel::{ordered_map, ParallelConfig};
use std::collections::VecDeque;

/// Sentinel meaning "no route / self".
pub(crate) const NO_HOP: u32 = u32::MAX;

/// One table cell holding a packed (next hop, distance) pair.
///
/// Two widths exist: [`u32`] packs two `u16` halves (graphs up to 65,535
/// nodes — every dense table that fits in memory in practice), [`u64`]
/// packs two `u32` halves (the general case, for larger tables).
/// Packing matters twice over: one store per BFS discovery instead of
/// two, and half the table bytes, which on the latency-bound all-pairs
/// build is the difference between ~3 s and ~13 s at n = 10k.
pub(crate) trait PackedCell: Copy + Eq + Send + 'static {
    /// Cell value for a node the BFS never reached (no hop, no distance).
    const UNREACHED: Self;
    /// Cell value for the BFS root (no hop, distance 0).
    const ROOT: Self;
    /// Packs a discovered node's parent and hop count.
    fn pack(hop: u32, dist: u32) -> Self;
    /// The next-hop half ([`NO_HOP`] when absent).
    fn hop(self) -> u32;
    /// The distance half (`u32::MAX` when unreached).
    fn dist(self) -> u32;
    /// Whether this cell is still [`PackedCell::UNREACHED`].
    fn is_unreached(self) -> bool;
}

impl PackedCell for u32 {
    const UNREACHED: Self = 0xFFFF_FFFF;
    const ROOT: Self = 0xFFFF_0000;

    #[inline]
    fn pack(hop: u32, dist: u32) -> Self {
        (hop << 16) | dist
    }

    #[inline]
    fn hop(self) -> u32 {
        let h = self >> 16;
        if h == 0xFFFF {
            NO_HOP
        } else {
            h
        }
    }

    #[inline]
    fn dist(self) -> u32 {
        let d = self & 0xFFFF;
        if d == 0xFFFF {
            u32::MAX
        } else {
            d
        }
    }

    #[inline]
    fn is_unreached(self) -> bool {
        self & 0xFFFF == 0xFFFF
    }
}

impl PackedCell for u64 {
    const UNREACHED: Self = u64::MAX;
    const ROOT: Self = (u32::MAX as u64) << 32;

    #[inline]
    fn pack(hop: u32, dist: u32) -> Self {
        (u64::from(hop) << 32) | u64::from(dist)
    }

    #[inline]
    fn hop(self) -> u32 {
        (self >> 32) as u32
    }

    #[inline]
    fn dist(self) -> u32 {
        self as u32
    }

    #[inline]
    fn is_unreached(self) -> bool {
        self as u32 == u32::MAX
    }
}

/// Largest node count the compact (`u32` cell, `u16` halves) table
/// representation covers: hop and distance values stay below the
/// `0xFFFF` sentinel.
pub(crate) const COMPACT_LIMIT: usize = u16::MAX as usize;

/// One BFS rooted at `dst`, filling the `n`-wide packed row.
///
/// This is the single kernel the table backends share: neighbors are
/// visited in [`Csr`] order (= adjacency order), level-synchronously
/// (frontier order equals FIFO queue order), parents are assigned on
/// first discovery — so for a fixed graph the filled row is
/// bit-identical no matter which backend (dense, hier core) runs it, at
/// either cell width. The lazy backend's search returns the same
/// parents without filling a row.
pub(crate) fn bfs_fill_row<C: PackedCell>(
    csr: &Csr,
    dst: u32,
    row: &mut [C],
    cur: &mut Vec<u32>,
    next: &mut Vec<u32>,
) {
    let n = row.len();
    row.fill(C::UNREACHED);
    row[dst as usize] = C::ROOT;
    cur.clear();
    cur.push(dst);
    let mut d = 0u32;
    let mut seen = 1usize;
    while !cur.is_empty() && seen < n {
        d += 1;
        next.clear();
        for &u in cur.iter() {
            for &v in csr.neighbors(u as usize) {
                let cell = &mut row[v as usize];
                if cell.is_unreached() {
                    *cell = C::pack(u, d);
                    next.push(v);
                }
            }
        }
        seen += next.len();
        std::mem::swap(cur, next);
    }
}

/// One destination's BFS tree, grown by [`bfs_fill_row`]'s rule
/// (neighbors in [`Csr`] order, level by level, parent on first
/// discovery), so its parents are every backend's next hops.
pub(crate) struct DstTree {
    /// Reached nodes in discovery order; `order[0]` is the root.
    pub(crate) order: Vec<u32>,
    /// Each reached node's next hop toward the root (the root is its own
    /// parent, [`NO_HOP`] marks unreached nodes).
    pub(crate) parent: Vec<u32>,
    /// The edge id from each reached non-root node to its parent.
    pub(crate) parent_edge: Vec<u32>,
}

impl DstTree {
    fn new(n: usize) -> Self {
        DstTree {
            order: Vec::with_capacity(n),
            parent: vec![NO_HOP; n],
            parent_edge: vec![0; n],
        }
    }

    /// Whether `v` is reachable from the current root.
    #[inline]
    pub(crate) fn reached(&self, v: u32) -> bool {
        self.parent[v as usize] != NO_HOP
    }

    /// Regrows the tree rooted at `dst`. `edge_ids` maps each CSR entry
    /// to its edge id. The discovery order doubles as the FIFO queue,
    /// whose pop order equals the level-synchronous frontier order.
    fn grow(&mut self, csr: &Csr, edge_ids: &[u32], dst: u32) {
        self.parent.fill(NO_HOP);
        self.order.clear();
        self.parent[dst as usize] = dst;
        self.order.push(dst);
        let mut head = 0;
        while let Some(&u) = self.order.get(head) {
            head += 1;
            for (k, v) in csr.entries(u as usize) {
                if self.parent[v as usize] == NO_HOP {
                    self.parent[v as usize] = u;
                    self.parent_edge[v as usize] = edge_ids[k];
                    self.order.push(v);
                }
            }
        }
    }
}

/// Sums a `width`-long `u64` vector over the BFS trees rooted at each of
/// `dsts` (duplicates included), fanning destination ranges out over
/// `pool`.
///
/// `visit(tree, scratch, acc)` adds one tree's contribution to `acc`;
/// `scratch` is an `n`-long buffer whose contents are undefined on
/// entry. Integer partials make the sum identical at any thread count.
pub(crate) fn sum_over_trees<F>(
    graph: &Graph,
    dsts: &[NodeId],
    width: usize,
    pool: &ParallelConfig,
    visit: F,
) -> Vec<u64>
where
    F: Fn(&DstTree, &mut [u64], &mut [u64]) + Sync,
{
    let csr = Csr::from_graph(graph);
    let n = csr.node_count();
    // CSR-aligned: entry k of node u's neighbor list is edge_ids[k].
    let edge_ids: Vec<u32> = graph
        .nodes()
        .flat_map(|u| graph.neighbors(u).iter().map(move |&v| graph.edge_between(u, v)))
        .map(|e| e.expect("neighbors share an edge").index() as u32)
        .collect();
    let span = dsts.len().div_ceil(pool.threads() * 4).max(8);
    let partials = ordered_map(pool, dsts.chunks(span).collect(), |_, chunk: &[NodeId]| {
        let mut tree = DstTree::new(n);
        let mut scratch = vec![0u64; n];
        let mut acc = vec![0u64; width];
        for &dst in chunk {
            tree.grow(&csr, &edge_ids, dst.index() as u32);
            visit(&tree, &mut scratch, &mut acc);
        }
        acc
    });
    let mut total = vec![0u64; width];
    for partial in partials {
        for (t, p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    total
}

/// Counts, for each edge, how many *ordered* node pairs route across it
/// — the paper's "routing table entries" link weight — with the pool
/// sized by `DYNAQUAR_THREADS` / available parallelism.
pub fn link_loads(graph: &Graph) -> Vec<u64> {
    link_loads_with(graph, &ParallelConfig::from_env())
}

/// [`link_loads`] with an explicit pool size.
///
/// Every source in a node's subtree of the tree rooted at `dst` routes
/// through the node's parent edge, so one bottom-up sweep of subtree
/// sizes per destination counts every pair. Cost is `O(n · (n + m))`.
pub fn link_loads_with(graph: &Graph, pool: &ParallelConfig) -> Vec<u64> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let edges = graph.edge_count();
    sum_over_trees(graph, &nodes, edges, pool, |tree, sub, loads| {
        for &v in &tree.order {
            sub[v as usize] = 1;
        }
        for &v in tree.order[1..].iter().rev() {
            let s = sub[v as usize];
            loads[tree.parent_edge[v as usize] as usize] += s;
            sub[tree.parent[v as usize] as usize] += s;
        }
    })
}

/// Builds the full destination-major packed table (`cells[dst * n + src]`)
/// for every destination of `csr`, fanning per-destination BFS over
/// `pool`.
///
/// Rows are computed in small reused buffers (hot in cache — BFS writes
/// scattered within a row, which is ruinously slow against cold memory)
/// and appended to the output in destination order. On a single worker
/// the rows stream straight into the final allocation; with more workers
/// each takes a contiguous destination range so `ordered_map`'s
/// order-preservation makes the concatenation deterministic. The kernel
/// is pure, so the table is bit-identical for any thread count.
pub(crate) fn build_dense_cells<C: PackedCell>(csr: &Csr, pool: &ParallelConfig) -> Vec<C> {
    let n = csr.node_count();
    const BATCH: usize = 8;
    if pool.threads() <= 1 {
        let mut out: Vec<C> = Vec::with_capacity(n * n);
        fill_range_cells(csr, 0, n, &mut out);
        return out;
    }
    // One contiguous destination range per work item, sized so every
    // worker gets several items to balance on.
    let ranges: Vec<(usize, usize)> = {
        let span = n.div_ceil(pool.threads() * 4).max(BATCH);
        (0..n)
            .step_by(span)
            .map(|lo| (lo, (lo + span).min(n)))
            .collect()
    };
    let chunks = ordered_map(pool, ranges, |_, (lo, hi)| {
        let mut out: Vec<C> = Vec::with_capacity((hi - lo) * n);
        fill_range_cells(csr, lo, hi, &mut out);
        out
    });
    let mut out: Vec<C> = Vec::with_capacity(n * n);
    for chunk in chunks {
        out.extend_from_slice(&chunk);
    }
    out
}

/// Appends packed rows for destinations `lo..hi` to `out`, running each
/// BFS in a small reused batch buffer.
fn fill_range_cells<C: PackedCell>(csr: &Csr, lo: usize, hi: usize, out: &mut Vec<C>) {
    let n = csr.node_count();
    const BATCH: usize = 8;
    let mut buf = vec![C::UNREACHED; BATCH * n];
    let (mut cur, mut next) = (Vec::new(), Vec::new());
    let mut b_lo = lo;
    while b_lo < hi {
        let b_hi = (b_lo + BATCH).min(hi);
        for (i, dst) in (b_lo..b_hi).enumerate() {
            bfs_fill_row(csr, dst as u32, &mut buf[i * n..(i + 1) * n], &mut cur, &mut next);
        }
        out.extend_from_slice(&buf[..(b_hi - b_lo) * n]);
        b_lo = b_hi;
    }
}

/// A shortest-path routing oracle over a fixed graph.
///
/// Implementations must answer next-hop and distance queries for every
/// ordered node pair, and must agree with a BFS rooted at the
/// destination that visits neighbors in adjacency order — the contract
/// that makes every backend bit-identical to [`RoutingTable`] (the
/// differential suite in `tests/routing_oracle.rs` enforces it).
///
/// The derived walks ([`path`](RoutingBackend::try_path),
/// [`diameter`](RoutingBackend::diameter), …) have default
/// implementations in terms of the two required queries, so they cost
/// one query per pair: `O(n²)` queries for the all-pairs walks, which
/// only the table backends answer in `O(1)`.
/// [`link_loads`](RoutingBackend::link_loads)
/// needs no queries at all: every backend routes along the same BFS
/// trees, which the [`link_loads`](crate::routing::link_loads) kernel
/// regrows from the graph.
pub trait RoutingBackend: std::fmt::Debug + Send + Sync {
    /// Number of nodes the backend covers.
    fn node_count(&self) -> usize;

    /// The first hop from `src` toward `dst` (`None` when unreachable or
    /// `src == dst`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist.
    fn try_next_hop(&self, src: NodeId, dst: NodeId) -> Result<Option<NodeId>, Error>;

    /// Hop distance from `src` to `dst` (`None` when unreachable).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist.
    fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error>;

    /// A short static label for reports and benchmarks ("dense", "lazy").
    fn backend_name(&self) -> &'static str;

    /// Panicking variant of [`RoutingBackend::try_next_hop`].
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        match self.try_next_hop(src, dst) {
            Ok(hop) => hop,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// Panicking variant of [`RoutingBackend::try_distance`].
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        match self.try_distance(src, dst) {
            Ok(d) => d,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// The full path from `src` to `dst`, inclusive of both endpoints
    /// (`None` when unreachable; `Some(vec![src])` when `src == dst`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist.
    fn try_path(&self, src: NodeId, dst: NodeId) -> Result<Option<Vec<NodeId>>, Error> {
        if src == dst {
            // Validate both anyway so out-of-range self-queries error.
            self.try_distance(src, dst)?;
            return Ok(Some(vec![src]));
        }
        if self.try_distance(src, dst)?.is_none() {
            return Ok(None);
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self
                .try_next_hop(cur, dst)?
                .expect("invariant: finite distance implies a next hop");
            path.push(cur);
        }
        Ok(Some(path))
    }

    /// Panicking variant of [`RoutingBackend::try_path`].
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        match self.try_path(src, dst) {
            Ok(p) => p,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// The edges along the route from `src` to `dst` (empty when
    /// `src == dst` or unreachable).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn path_edges(&self, graph: &Graph, src: NodeId, dst: NodeId) -> Vec<EdgeId> {
        match self.path(src, dst) {
            None => Vec::new(),
            Some(p) => p
                .windows(2)
                .map(|w| graph.edge_between(w[0], w[1]).expect("consecutive hops"))
                .collect(),
        }
    }

    /// Counts, for each edge, how many *ordered* node pairs route across
    /// it — the paper's "routing table entries" link weight. A thin call
    /// to the [`link_loads`](crate::routing::link_loads) kernel, valid for every backend because all
    /// of them route along the kernel's BFS trees.
    fn link_loads(&self, graph: &Graph) -> Vec<u64> {
        debug_assert_eq!(self.node_count(), graph.node_count(), "backend/graph size");
        link_loads(graph)
    }

    /// Average shortest-path length over all reachable ordered pairs.
    fn average_path_length(&self) -> f64 {
        let n = self.node_count();
        let mut total = 0u64;
        let mut pairs = 0u64;
        for dst in 0..n {
            for src in 0..n {
                if src == dst {
                    continue;
                }
                if let Some(d) = self.distance(NodeId::from(src), NodeId::from(dst)) {
                    total += u64::from(d);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    /// The network diameter: the longest finite shortest-path distance
    /// over all ordered pairs (`None` for graphs with < 2 nodes or no
    /// reachable pairs).
    fn diameter(&self) -> Option<u32> {
        let n = self.node_count();
        let mut max: Option<u32> = None;
        for dst in 0..n {
            for src in 0..n {
                if src == dst {
                    continue;
                }
                if let Some(d) = self.distance(NodeId::from(src), NodeId::from(dst)) {
                    max = Some(max.map_or(d, |m| m.max(d)));
                }
            }
        }
        max
    }
}

impl RoutingBackend for RoutingTable {
    fn node_count(&self) -> usize {
        RoutingTable::node_count(self)
    }

    fn try_next_hop(&self, src: NodeId, dst: NodeId) -> Result<Option<NodeId>, Error> {
        RoutingTable::try_next_hop(self, src, dst)
    }

    fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error> {
        RoutingTable::try_distance(self, src, dst)
    }

    fn backend_name(&self) -> &'static str {
        "dense"
    }

    // Route the dyn-dispatched derived queries to the dense inherent
    // implementations, which read the precomputed arrays directly.
    fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        RoutingTable::next_hop(self, src, dst)
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        RoutingTable::distance(self, src, dst)
    }

    fn average_path_length(&self) -> f64 {
        RoutingTable::average_path_length(self)
    }

    fn diameter(&self) -> Option<u32> {
        RoutingTable::diameter(self)
    }
}

/// All-pairs next-hop routing table.
///
/// # Example
///
/// ```
/// use dynaquar_topology::generators;
/// use dynaquar_topology::routing::RoutingTable;
///
/// let star = generators::star(4).expect("valid");
/// let rt = RoutingTable::shortest_paths(&star.graph);
/// // Leaf-to-leaf routes go through the hub.
/// let path = rt.path(1.into(), 2.into()).expect("connected");
/// assert_eq!(path, vec![1.into(), 0.into(), 2.into()]);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n: usize,
    /// Packed `(next_hop, distance)` cells, destination-major:
    /// `cells[dst * n + src]`. One BFS fills one contiguous row.
    cells: Cells,
}

/// Table storage at one of two cell widths (see [`PackedCell`]).
///
/// Shared by the dense table and the hier backend's core table; the
/// width is picked from the covered node count at build time.
#[derive(Debug, Clone)]
pub(crate) enum Cells {
    /// `u16` halves — graphs up to [`COMPACT_LIMIT`] nodes.
    Compact(Vec<u32>),
    /// `u32` halves — the general case.
    Wide(Vec<u64>),
}

impl Cells {
    /// Builds the full destination-major table for `csr`, choosing the
    /// compact width whenever the node count permits.
    pub(crate) fn build(csr: &Csr, pool: &ParallelConfig) -> Self {
        if csr.node_count() <= COMPACT_LIMIT {
            Cells::Compact(build_dense_cells::<u32>(csr, pool))
        } else {
            Cells::Wide(build_dense_cells::<u64>(csr, pool))
        }
    }

    /// The `(next_hop, distance)` pair at flat index `idx`
    /// (= `dst * n + src`), with sentinels widened to
    /// [`NO_HOP`] / `u32::MAX`.
    #[inline]
    pub(crate) fn hop_dist(&self, idx: usize) -> (u32, u32) {
        match self {
            Cells::Compact(v) => (v[idx].hop(), v[idx].dist()),
            Cells::Wide(v) => (v[idx].hop(), v[idx].dist()),
        }
    }
}

impl RoutingTable {
    /// Computes shortest-path routing for `graph` (one BFS per node),
    /// fanning the per-destination BFS over the pool sized by
    /// `DYNAQUAR_THREADS` / available parallelism.
    ///
    /// BFS visits neighbors in adjacency order and destinations are
    /// assembled in order, so for a given graph the table is
    /// deterministic and bit-identical to
    /// [`RoutingTable::shortest_paths_serial`] at any thread count.
    pub fn shortest_paths(graph: &Graph) -> Self {
        Self::shortest_paths_with(graph, &ParallelConfig::from_env())
    }

    /// [`RoutingTable::shortest_paths`] with an explicit pool size.
    pub fn shortest_paths_with(graph: &Graph, pool: &ParallelConfig) -> Self {
        let csr = Csr::from_graph(graph);
        let n = csr.node_count();
        let cells = Cells::build(&csr, pool);
        RoutingTable { n, cells }
    }

    /// The original serial adjacency-list construction, kept as the
    /// independent oracle for the differential routing suite: one
    /// queue-driven BFS per destination over [`Graph::neighbors`], no
    /// CSR snapshot, no pool, no packing tricks (the plain `next_hop` /
    /// `distance` arrays are zipped into cells only after the BFS
    /// loop finishes).
    pub fn shortest_paths_serial(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut next_hop = vec![NO_HOP; n * n];
        let mut distance = vec![u32::MAX; n * n];
        let mut queue = VecDeque::new();
        // BFS from each destination; record the parent pointer toward it.
        // parent[u] on a BFS tree rooted at dst is u's next hop to dst.
        for dst in 0..n {
            let row = dst * n;
            distance[row + dst] = 0;
            queue.clear();
            queue.push_back(NodeId::from(dst));
            while let Some(u) = queue.pop_front() {
                let du = distance[row + u.index()];
                for &v in graph.neighbors(u) {
                    if distance[row + v.index()] == u32::MAX {
                        distance[row + v.index()] = du + 1;
                        next_hop[row + v.index()] = u.index() as u32;
                        queue.push_back(v);
                    }
                }
            }
        }
        let cells = next_hop
            .iter()
            .zip(&distance)
            .map(|(&h, &d)| {
                if d == u32::MAX {
                    u64::UNREACHED
                } else if h == NO_HOP {
                    <u64 as PackedCell>::ROOT | u64::from(d)
                } else {
                    <u64 as PackedCell>::pack(h, d)
                }
            })
            .collect();
        RoutingTable {
            n,
            cells: Cells::Wide(cells),
        }
    }

    /// The packed cell at `(src, dst)`, width-erased.
    #[inline]
    fn cell(&self, src: usize, dst: usize) -> (u32, u32) {
        self.cells.hop_dist(dst * self.n + src)
    }

    /// Number of nodes the table covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Validates that both endpoints exist in the table.
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

    /// The first hop from `src` toward `dst`, or `None` when unreachable
    /// or `src == dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range; see
    /// [`RoutingTable::try_next_hop`] for a typed error instead.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        match self.try_next_hop(src, dst) {
            Ok(hop) => hop,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// Fallible variant of [`RoutingTable::next_hop`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist
    /// in the table.
    pub fn try_next_hop(&self, src: NodeId, dst: NodeId) -> Result<Option<NodeId>, Error> {
        self.check_nodes(src, dst)?;
        if src == dst {
            return Ok(None);
        }
        let (hop, _) = self.cell(src.index(), dst.index());
        Ok((hop != NO_HOP).then(|| NodeId::new(hop)))
    }

    /// Hop distance from `src` to `dst` (`None` when unreachable).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range; see
    /// [`RoutingTable::try_distance`] for a typed error instead.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        match self.try_distance(src, dst) {
            Ok(d) => d,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// Fallible variant of [`RoutingTable::distance`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist
    /// in the table.
    pub fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error> {
        self.check_nodes(src, dst)?;
        let (_, d) = self.cell(src.index(), dst.index());
        Ok((d != u32::MAX).then_some(d))
    }

    /// The full path from `src` to `dst`, inclusive of both endpoints.
    ///
    /// Returns `None` when unreachable; `Some(vec![src])` when
    /// `src == dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range; see
    /// [`RoutingTable::try_path`] for a typed error instead.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        match self.try_path(src, dst) {
            Ok(p) => p,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// Fallible variant of [`RoutingTable::path`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist
    /// in the table.
    pub fn try_path(&self, src: NodeId, dst: NodeId) -> Result<Option<Vec<NodeId>>, Error> {
        self.check_nodes(src, dst)?;
        if src == dst {
            return Ok(Some(vec![src]));
        }
        if self.try_distance(src, dst)?.is_none() {
            return Ok(None);
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self
                .try_next_hop(cur, dst)?
                .expect("invariant: finite distance implies a next hop");
            path.push(cur);
        }
        Ok(Some(path))
    }

    /// Average shortest-path length over all reachable ordered pairs.
    pub fn average_path_length(&self) -> f64 {
        let mut total = 0u64;
        let mut pairs = 0u64;
        for dst in 0..self.n {
            for src in 0..self.n {
                if src == dst {
                    continue;
                }
                let (_, d) = self.cell(src, dst);
                if d != u32::MAX {
                    total += u64::from(d);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    /// The network diameter: the longest finite shortest-path distance
    /// over all ordered pairs (`None` for graphs with < 2 nodes or no
    /// reachable pairs).
    pub fn diameter(&self) -> Option<u32> {
        let mut max: Option<u32> = None;
        for dst in 0..self.n {
            for src in 0..self.n {
                if src == dst {
                    continue;
                }
                let (_, d) = self.cell(src, dst);
                if d != u32::MAX {
                    max = Some(max.map_or(d, |m| m.max(d)));
                }
            }
        }
        max
    }

    /// The edges along the route from `src` to `dst`.
    ///
    /// Returns an empty vector when `src == dst` or unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn path_edges(&self, graph: &Graph, src: NodeId, dst: NodeId) -> Vec<EdgeId> {
        match self.path(src, dst) {
            None => Vec::new(),
            Some(p) => p
                .windows(2)
                .map(|w| graph.edge_between(w[0], w[1]).expect("consecutive hops"))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn star_routes_through_hub() {
        let star = generators::star(5).unwrap();
        let rt = RoutingTable::shortest_paths(&star.graph);
        assert_eq!(rt.distance(1.into(), 2.into()), Some(2));
        assert_eq!(rt.distance(0.into(), 3.into()), Some(1));
        assert_eq!(
            rt.path(1.into(), 2.into()).unwrap(),
            vec![1.into(), 0.into(), 2.into()]
        );
    }

    #[test]
    fn self_route_is_trivial() {
        let g = generators::ring(5).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        assert_eq!(rt.distance(2.into(), 2.into()), Some(0));
        assert_eq!(rt.next_hop(2.into(), 2.into()), None);
        assert_eq!(rt.path(2.into(), 2.into()).unwrap(), vec![2.into()]);
    }

    #[test]
    fn disconnected_pairs_unreachable() {
        let mut g = crate::Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(2.into(), 3.into()).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        assert_eq!(rt.distance(0.into(), 2.into()), None);
        assert!(rt.path(0.into(), 2.into()).is_none());
        assert!(rt.next_hop(0.into(), 3.into()).is_none());
    }

    #[test]
    fn ring_distances() {
        let g = generators::ring(6).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        assert_eq!(rt.distance(0.into(), 3.into()), Some(3));
        assert_eq!(rt.distance(0.into(), 5.into()), Some(1));
    }

    #[test]
    fn paths_are_shortest() {
        let g = generators::barabasi_albert(200, 2, 5).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        for &(s, d) in &[(0usize, 150usize), (10, 42), (199, 3)] {
            let p = rt.path(s.into(), d.into()).unwrap();
            assert_eq!(p.len() as u32 - 1, rt.distance(s.into(), d.into()).unwrap());
            // Consecutive hops are adjacent.
            for w in p.windows(2) {
                assert!(g.neighbors(w[0]).contains(&w[1]));
            }
        }
    }

    #[test]
    fn star_link_loads_are_uniform() {
        let star = generators::star(4).unwrap();
        let loads = link_loads(&star.graph);
        // Each leaf link carries: hub<->leaf (2 ordered pairs) plus
        // leaf<->each other leaf (2 * 3 ordered pairs) = 8.
        assert!(loads.iter().all(|&l| l == 8));
    }

    #[test]
    fn hub_links_carry_more_load_in_hierarchy() {
        let t = generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(4)
            .hosts_per_subnet(5)
            .build()
            .unwrap();
        let loads = link_loads(&t.graph);
        // The edge-router uplinks must beat any host access link.
        let uplink = t
            .graph
            .edge_between(t.edge_router(generators::SubnetId::new(0)), 0.into())
            .unwrap();
        let host = t.hosts_of(generators::SubnetId::new(0)).next().unwrap();
        let host_link = t
            .graph
            .edge_between(host, t.edge_router(generators::SubnetId::new(0)))
            .unwrap();
        assert!(loads[uplink.index()] > loads[host_link.index()]);
    }

    #[test]
    fn average_path_length_of_mesh_is_one() {
        let g = generators::full_mesh(6).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        assert!((rt.average_path_length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_edges_match_path() {
        let g = generators::ring(8).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        let edges = rt.path_edges(&g, 0.into(), 3.into());
        assert_eq!(edges.len(), 3);
        assert!(rt.path_edges(&g, 2.into(), 2.into()).is_empty());
    }

    #[test]
    fn diameter_of_standard_graphs() {
        let star = generators::star(6).unwrap();
        let rt = RoutingTable::shortest_paths(&star.graph);
        assert_eq!(rt.diameter(), Some(2));
        let ring = generators::ring(8).unwrap();
        assert_eq!(RoutingTable::shortest_paths(&ring).diameter(), Some(4));
        let mesh = generators::full_mesh(5).unwrap();
        assert_eq!(RoutingTable::shortest_paths(&mesh).diameter(), Some(1));
        let lonely = crate::Graph::with_nodes(1);
        assert_eq!(RoutingTable::shortest_paths(&lonely).diameter(), None);
    }

    #[test]
    fn power_law_graphs_have_small_diameter() {
        let g = generators::barabasi_albert(500, 2, 11).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        let d = rt.diameter().unwrap();
        // Small-world: diameter grows ~log n.
        assert!(d <= 12, "diameter {d}");
        assert!(rt.average_path_length() < d as f64);
    }

    #[test]
    fn try_accessors_return_typed_errors() {
        let g = generators::ring(4).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        let bad = NodeId::new(99);
        assert_eq!(
            rt.try_next_hop(bad, 0.into()),
            Err(crate::Error::NodeOutOfRange {
                node: bad,
                node_count: 4
            })
        );
        assert!(rt.try_distance(0.into(), bad).is_err());
        assert!(rt.try_path(bad, bad).is_err());
        // In-range queries agree with the panicking accessors.
        assert_eq!(rt.try_next_hop(0.into(), 2.into()).unwrap(), rt.next_hop(0.into(), 2.into()));
        assert_eq!(rt.try_distance(0.into(), 2.into()).unwrap(), rt.distance(0.into(), 2.into()));
        assert_eq!(rt.try_path(0.into(), 2.into()).unwrap(), rt.path(0.into(), 2.into()));
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn panicking_accessor_keeps_its_message() {
        let g = generators::ring(3).unwrap();
        let rt = RoutingTable::shortest_paths(&g);
        rt.distance(NodeId::new(50), 0.into());
    }

    /// Asserts two tables agree cell-for-cell through the public
    /// accessors (the representations may differ in width).
    fn assert_tables_agree(a: &RoutingTable, b: &RoutingTable, ctx: &str) {
        assert_eq!(a.node_count(), b.node_count(), "{ctx}: node count");
        let n = a.node_count();
        for dst in 0..n {
            for src in 0..n {
                let (s, d) = (NodeId::from(src), NodeId::from(dst));
                assert_eq!(a.next_hop(s, d), b.next_hop(s, d), "{ctx}: hop {src}->{dst}");
                assert_eq!(a.distance(s, d), b.distance(s, d), "{ctx}: dist {src}->{dst}");
            }
        }
    }

    #[test]
    fn deterministic_tables() {
        let g = generators::barabasi_albert(100, 2, 9).unwrap();
        let a = RoutingTable::shortest_paths(&g);
        let b = RoutingTable::shortest_paths(&g);
        assert_tables_agree(&a, &b, "repeated build");
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial_oracle() {
        for (g, name) in [
            (generators::barabasi_albert(120, 2, 7).unwrap(), "ba"),
            (generators::star(30).unwrap().graph, "star"),
            (
                {
                    let mut g = crate::Graph::with_nodes(9);
                    g.add_edge(0.into(), 1.into()).unwrap();
                    g.add_edge(1.into(), 2.into()).unwrap();
                    g.add_edge(4.into(), 5.into()).unwrap();
                    g
                },
                "disconnected",
            ),
        ] {
            let oracle = RoutingTable::shortest_paths_serial(&g);
            for threads in [1usize, 3, 8] {
                let built = RoutingTable::shortest_paths_with(&g, &ParallelConfig::new(threads));
                assert_tables_agree(&built, &oracle, &format!("{name} @ {threads} threads"));
            }
        }
    }

    #[test]
    fn empty_graph_builds_an_empty_table() {
        let rt = RoutingTable::shortest_paths(&crate::Graph::new());
        assert_eq!(rt.node_count(), 0);
        assert_eq!(rt.diameter(), None);
    }
}
