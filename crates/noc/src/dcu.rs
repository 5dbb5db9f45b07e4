//! The 3D data-wire connection unit (3DCU) and 3DCU pairs (Fig. 12–13).
//!
//! A 3DCU stacks three banks. On top of each bank's H-tree it adds:
//!
//! * **horizontal wires** between adjacent same-level routing nodes whose
//!   parents differ (the MAERI-style shortcut of Fig. 12b);
//! * **vertical wires** between corresponding routing nodes of adjacent
//!   banks, as wide as the wire to their parent node.
//!
//! Switches gate the added wires: outer-bank nodes carry one switch
//! (connect parent *or* horizontal *or* vertical), middle-bank nodes carry
//! two (may face up and down simultaneously). In *Smode* the added wires
//! are parked and the banks behave as plain H-tree memory reachable over
//! the shared bus; in *Cmode* routing may use every wire.
//!
//! A [`DcuPair`] joins two 3DCUs with direct bypass links between their
//! top banks (B1↔B4) and bottom banks (B3↔B6), letting generator outputs
//! reach the discriminator without touching the bus or CPU (Fig. 13).

use crate::config::NocConfig;
use crate::fault::LinkFaults;
use crate::htree::HTree;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Interconnect operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Static H-tree connections; added wires parked (normal memory).
    Smode,
    /// Dynamically reconfigured connections for a dataflow.
    Cmode,
}

/// Classification of a routing edge (used for statistics and switch
/// accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Original H-tree parent-child wire.
    Tree,
    /// Added same-level horizontal wire.
    Horizontal,
    /// Added inter-bank vertical wire.
    Vertical,
    /// Direct bypass link between paired 3DCUs.
    Bypass,
    /// Shared bus through the memory controller.
    Bus,
}

/// A location in the fabric: a routing node or tile leaf of some bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// 3DCU side: 0 = generator-side unit, 1 = discriminator-side unit.
    /// Always 0 inside a single [`ThreeDcu`].
    pub side: usize,
    /// Bank within the 3DCU (0 = top, 1 = middle, 2 = bottom).
    pub bank: usize,
    /// Heap node id (leaves are `tiles .. 2*tiles`).
    pub node: usize,
}

impl Endpoint {
    /// Tiles per bank that [`tile`](Self::tile) and
    /// [`pair_tile`](Self::pair_tile) address: their leaves are the heap
    /// nodes `16..32` of a 16-tile bank. On a fabric with another
    /// `tiles_per_bank` they name internal nodes or no node at all.
    pub const TILES_PER_BANK: usize = 16;

    /// Endpoint at a tile leaf of side 0.
    pub fn tile(bank: usize, tile: usize) -> Self {
        Self::pair_tile(0, bank, tile)
    }

    /// Endpoint at a tile leaf of an explicit side (for [`DcuPair`]).
    pub fn pair_tile(side: usize, bank: usize, tile: usize) -> Self {
        Endpoint {
            side,
            bank,
            node: Self::TILES_PER_BANK + tile,
        }
    }
}

/// Typed routing failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No path connects the endpoints: the fabric is partitioned (only
    /// possible when tree links are severed beyond redundancy — added-wire
    /// faults alone always leave the H-tree fallback).
    Unreachable {
        /// Source endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Mode the route was attempted in.
        mode: Mode,
    },
    /// An endpoint names no vertex of the fabric: its side, bank or heap
    /// node is out of range.
    NoSuchEndpoint {
        /// The offending endpoint.
        endpoint: Endpoint,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unreachable { from, to, mode } => write!(
                f,
                "no route from (s{},b{},n{}) to (s{},b{},n{}) in {mode:?}: fabric partitioned",
                from.side, from.bank, from.node, to.side, to.bank, to.node
            ),
            RouteError::NoSuchEndpoint { endpoint: e } => write!(
                f,
                "endpoint (s{},b{},n{}) is not a vertex of the fabric",
                e.side, e.bank, e.node
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// A routed path with its aggregate cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Edge kinds traversed, in order.
    pub edges: Vec<EdgeKind>,
    /// Base path latency (head flit), ns.
    pub latency_ns: f64,
    /// Energy per 64-byte access across the whole path, pJ.
    pub energy_pj_per_access: f64,
    /// Narrowest wire on the path, bits.
    pub min_width_bits: u32,
    /// Endpoint nodes whose switches the added edges occupy, as
    /// `(side, bank, node)` triples.
    pub switch_nodes: Vec<(usize, usize, usize)>,
}

impl Route {
    /// A zero-cost route (source equals destination).
    pub fn nil() -> Self {
        Route {
            edges: Vec::new(),
            latency_ns: 0.0,
            energy_pj_per_access: 0.0,
            min_width_bits: u32::MAX,
            switch_nodes: Vec::new(),
        }
    }

    /// Hop count.
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// Whether the route leaves the fabric through the shared bus.
    pub fn uses_bus(&self) -> bool {
        self.edges.contains(&EdgeKind::Bus)
    }

    /// Latency and energy to move `values` 16-bit values along this route.
    ///
    /// H-tree routers are store-and-forward (they are memory routing
    /// nodes, not a pipelined NoC), so the serialisation cost of the
    /// message is paid at *every* hop on the narrowest wire of the path —
    /// exactly why Fig. 9's long routings hurt and the 3DCU's one-hop
    /// vertical/horizontal wires help.
    pub fn transfer(&self, values: u64, cfg: &NocConfig) -> (f64, f64) {
        if self.edges.is_empty() || values == 0 {
            return (0.0, 0.0);
        }
        let bits = values * 16;
        let width = u64::from(self.min_width_bits.min(cfg.root_width_bits));
        let flits = bits.div_ceil(width).max(1);
        let serialization = (flits - 1) as f64 * cfg.wire_cycle_ns * self.edges.len() as f64;
        let latency = self.latency_ns + serialization;
        let accesses = values.div_ceil(u64::from(cfg.values_per_access)).max(1);
        let energy = accesses as f64 * self.energy_pj_per_access;
        (latency, energy)
    }
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    kind: EdgeKind,
    latency_ns: f64,
    energy_pj: f64,
    width_bits: u32,
}

/// One physical wire of the fabric, joining vertices `a` and `b` in both
/// directions.
#[derive(Debug, Clone, Copy)]
struct Wire {
    a: usize,
    b: usize,
    kind: EdgeKind,
    latency_ns: f64,
    energy_pj: f64,
    width_bits: u32,
}

impl Wire {
    /// Whether Smode keeps the wire: only the H-tree and the shared bus
    /// stay connected there; the added wires and bypass links are parked.
    fn in_smode(&self) -> bool {
        matches!(self.kind, EdgeKind::Tree | EdgeKind::Bus)
    }

    fn edge_to(&self, to: usize) -> Edge {
        Edge {
            to: to as u32,
            kind: self.kind,
            latency_ns: self.latency_ns,
            energy_pj: self.energy_pj,
            width_bits: self.width_bits,
        }
    }
}

/// Compressed sparse-row adjacency of one mode: vertex `v`'s edges are
/// `edges[start[v]..start[v + 1]]`, in the order their wires were laid.
#[derive(Debug, Clone)]
struct Csr {
    start: Vec<u32>,
    edges: Vec<Edge>,
}

impl Csr {
    /// Lays `wires` out as directed edges, both directions of each wire,
    /// keeping every vertex's edges in wire order (a stable counting sort).
    fn new(vertices: usize, wires: &[Wire], keep: impl Fn(&Wire) -> bool) -> Csr {
        let mut start = vec![0u32; vertices + 1];
        for w in wires.iter().filter(|w| keep(w)) {
            start[w.a + 1] += 1;
            start[w.b + 1] += 1;
        }
        for v in 0..vertices {
            start[v + 1] += start[v];
        }
        let placeholder = Edge {
            to: 0,
            kind: EdgeKind::Tree,
            latency_ns: 0.0,
            energy_pj: 0.0,
            width_bits: 0,
        };
        let mut edges = vec![placeholder; start[vertices] as usize];
        // `start[v]` serves as vertex v's fill cursor, which leaves it at
        // the old `start[v + 1]`; shifting back one slot restores it.
        for w in wires.iter().filter(|w| keep(w)) {
            for (from, to) in [(w.a, w.b), (w.b, w.a)] {
                edges[start[from] as usize] = w.edge_to(to);
                start[from] += 1;
            }
        }
        start.copy_within(0..vertices, 1);
        start[0] = 0;
        Csr { start, edges }
    }

    /// Index range into `edges` of vertex `v`'s edges.
    fn range(&self, v: usize) -> std::ops::Range<usize> {
        self.start[v] as usize..self.start[v + 1] as usize
    }
}

/// The routing fabric shared by [`ThreeDcu`] (one side) and [`DcuPair`]
/// (two sides plus bypass links).
#[derive(Debug, Clone)]
struct Fabric {
    cfg: NocConfig,
    sides: usize,
    /// Adjacency for Cmode (includes all wires) and Smode (tree + bus).
    cmode: Csr,
    smode: Csr,
}

const BANKS: usize = 3;

/// No predecessor: the source, or a vertex the search never reached.
const NO_PREV: (u32, u32) = (u32::MAX, u32::MAX);

impl Fabric {
    fn nodes_per_bank(&self) -> usize {
        2 * self.cfg.tiles_per_bank
    }

    /// Vertex id of an endpoint. The extra final vertex is the shared bus.
    fn vertex(&self, e: Endpoint) -> usize {
        debug_assert!(e.side < self.sides, "side out of range");
        debug_assert!(e.bank < BANKS, "bank out of range");
        debug_assert!(e.node >= 1 && e.node < self.nodes_per_bank());
        (e.side * BANKS + e.bank) * self.nodes_per_bank() + e.node
    }

    /// Vertex id of an endpoint, or a typed error for one outside the
    /// fabric (which [`vertex`](Self::vertex) would alias onto another
    /// bank's node).
    fn checked_vertex(&self, e: Endpoint) -> Result<usize, RouteError> {
        if e.side < self.sides && e.bank < BANKS && (1..self.nodes_per_bank()).contains(&e.node) {
            Ok(self.vertex(e))
        } else {
            Err(RouteError::NoSuchEndpoint { endpoint: e })
        }
    }

    /// A leg's key in a pair's route memo: the two vertex ids and the mode
    /// packed into one word, or a typed error for an endpoint outside the
    /// fabric. Vertex ids stay far below 2³¹ (a fabric has
    /// `12 × tiles_per_bank + 1` vertices), so distinct legs get distinct
    /// keys.
    fn leg_key(&self, from: Endpoint, to: Endpoint, mode: Mode) -> Result<u64, RouteError> {
        let (src, dst) = (self.checked_vertex(from)?, self.checked_vertex(to)?);
        Ok((src as u64) << 32 | (dst as u64) << 1 | mode as u64)
    }

    fn endpoint_of(&self, v: usize) -> Option<Endpoint> {
        let npb = self.nodes_per_bank();
        if v >= self.sides * BANKS * npb {
            return None; // the bus vertex
        }
        let node = v % npb;
        let sb = v / npb;
        Some(Endpoint {
            side: sb / BANKS,
            bank: sb % BANKS,
            node,
        })
    }

    fn bus_vertex(&self) -> usize {
        self.sides * BANKS * self.nodes_per_bank()
    }

    fn vertex_count(&self) -> usize {
        self.bus_vertex() + 1
    }

    /// Builds the adjacency, omitting every added wire `faults` severs or
    /// gates behind a frozen switch. With an empty fault set the graph is
    /// identical to the pristine fabric, edge for edge.
    fn new(cfg: &NocConfig, sides: usize, faults: &LinkFaults) -> Fabric {
        let empty = Csr {
            start: Vec::new(),
            edges: Vec::new(),
        };
        let mut fabric = Fabric {
            cfg: cfg.clone(),
            sides,
            cmode: empty.clone(),
            smode: empty,
        };
        let tree = HTree::new(cfg);
        let tiles = cfg.tiles_per_bank;
        let at = |side, bank, node| fabric.vertex(Endpoint { side, bank, node });
        let mut wires: Vec<Wire> = Vec::with_capacity(sides * (BANKS * 3 * tiles + 2));
        let mut lay = |a, b, kind, latency_ns, energy_pj, width_bits| {
            wires.push(Wire {
                a,
                b,
                kind,
                latency_ns,
                energy_pj,
                width_bits,
            });
        };

        for side in 0..sides {
            for bank in 0..BANKS {
                // Tree edges (omitting severed parent links — the
                // beyond-redundancy failure that can partition a leaf).
                for node in 2..2 * tiles {
                    if faults.blocks_tree(side, bank, node) {
                        continue;
                    }
                    let level = tree.level(node);
                    lay(
                        at(side, bank, node),
                        at(side, bank, node / 2),
                        EdgeKind::Tree,
                        cfg.hop_latency_ns,
                        cfg.hop_energy_pj,
                        cfg.width_bits_at(level - 1),
                    );
                }
                // Horizontal wires between internal same-level nodes with
                // different parents (Cmode only).
                for node in 2..tiles {
                    let next = node + 1;
                    if next < tiles
                        && tree.horizontal_pair(node, next)
                        && !faults.blocks_horizontal(side, bank, node)
                    {
                        let level = tree.level(node);
                        lay(
                            at(side, bank, node),
                            at(side, bank, next),
                            EdgeKind::Horizontal,
                            cfg.hop_latency_ns * cfg.horizontal_latency_factor,
                            cfg.hop_energy_pj * cfg.horizontal_energy_factor,
                            cfg.width_bits_at(level.saturating_sub(1)),
                        );
                    }
                }
            }
            // Vertical wires between corresponding internal nodes of
            // adjacent banks (Cmode only).
            for bank in 0..BANKS - 1 {
                for node in 1..tiles {
                    if faults.blocks_vertical(side, bank, node) {
                        continue;
                    }
                    let level = tree.level(node);
                    lay(
                        at(side, bank, node),
                        at(side, bank + 1, node),
                        EdgeKind::Vertical,
                        cfg.hop_latency_ns * cfg.vertical_latency_factor,
                        cfg.hop_energy_pj * cfg.vertical_energy_factor,
                        cfg.width_bits_at(level.saturating_sub(1)),
                    );
                }
            }
            // Bus edges from every bank's root (both modes).
            for bank in 0..BANKS {
                lay(
                    at(side, bank, 1),
                    fabric.bus_vertex(),
                    EdgeKind::Bus,
                    cfg.bus_latency_ns / 2.0,
                    cfg.bus_energy_pj / 2.0,
                    cfg.root_width_bits,
                );
            }
        }
        // Bypass links between paired 3DCUs: B1<->B4 (top banks) and
        // B3<->B6 (bottom banks), joined at the roots (Cmode only).
        if sides == 2 {
            for bank in [0usize, 2] {
                lay(
                    at(0, bank, 1),
                    at(1, bank, 1),
                    EdgeKind::Bypass,
                    cfg.bypass_latency_ns,
                    cfg.bypass_energy_pj,
                    cfg.root_width_bits,
                );
            }
        }
        let n = fabric.vertex_count();
        fabric.cmode = Csr::new(n, &wires, |_| true);
        fabric.smode = Csr::new(n, &wires, Wire::in_smode);
        fabric
    }

    fn adjacency(&self, mode: Mode) -> &Csr {
        match mode {
            Mode::Cmode => &self.cmode,
            Mode::Smode => &self.smode,
        }
    }

    /// Dijkstra by latency over a binary heap keyed by `(distance, vertex)`.
    ///
    /// Vertices settle in order of distance, lowest vertex index first on
    /// ties, and relaxation is strict `<`, so among equal-latency paths the
    /// result is fixed by the fabric alone: the route is deterministic and
    /// independent of how many times or in which order it is asked for.
    /// Stale heap entries (a settled vertex, or a distance improved since
    /// the push) are skipped.
    fn route(&self, from: Endpoint, to: Endpoint, mode: Mode) -> Result<Route, RouteError> {
        let adj = self.adjacency(mode);
        let (src, dst) = (self.checked_vertex(from)?, self.checked_vertex(to)?);
        if src == dst {
            return Ok(Route::nil());
        }
        let n = self.vertex_count();
        let mut search = vec![Search::UNSEEN; n];
        search[src].dist = 0.0;
        let mut heap = BinaryHeap::with_capacity(n);
        heap.push(Reverse(Tentative {
            dist: 0.0,
            vertex: src,
        }));
        while let Some(Reverse(Tentative { dist: d, vertex: u })) = heap.pop() {
            if search[u].done || d != search[u].dist {
                continue;
            }
            if u == dst {
                break;
            }
            search[u].done = true;
            for ei in adj.range(u) {
                let e = &adj.edges[ei];
                let v = e.to as usize;
                let nd = d + e.latency_ns;
                if nd < search[v].dist {
                    search[v].dist = nd;
                    search[v].prev = (u as u32, ei as u32);
                    heap.push(Reverse(Tentative {
                        dist: nd,
                        vertex: v,
                    }));
                }
            }
        }
        self.path(from, to, mode, &search)
    }

    /// Reconstructs the route to `to` from a finished search's distances
    /// and predecessor edges.
    fn path(
        &self,
        from: Endpoint,
        to: Endpoint,
        mode: Mode,
        search: &[Search],
    ) -> Result<Route, RouteError> {
        let adj = self.adjacency(mode);
        let (src, dst) = (self.vertex(from), self.vertex(to));
        if !search[dst].dist.is_finite() {
            // Dijkstra exhausted the reachable set without touching the
            // destination: the fabric is partitioned. Terminate with a
            // typed error rather than retrying or spinning.
            return Err(RouteError::Unreachable { from, to, mode });
        }
        let step = |v: usize| {
            let (u, ei) = search[v].prev;
            debug_assert!(search[v].prev != NO_PREV, "path reconstruction");
            (u as usize, &adj.edges[ei as usize])
        };
        let mut hops = 0;
        let mut v = dst;
        while v != src {
            hops += 1;
            v = step(v).0;
        }
        let mut edges = vec![EdgeKind::Tree; hops];
        let mut energy = 0.0;
        let mut min_width = u32::MAX;
        let mut switch_nodes = Vec::new();
        let mut v = dst;
        while v != src {
            let (u, e) = step(v);
            hops -= 1;
            edges[hops] = e.kind;
            energy += e.energy_pj;
            min_width = min_width.min(e.width_bits);
            if matches!(e.kind, EdgeKind::Horizontal | EdgeKind::Vertical) {
                for vert in [u, v] {
                    if let Some(ep) = self.endpoint_of(vert) {
                        switch_nodes.push((ep.side, ep.bank, ep.node));
                    }
                }
            }
            v = u;
        }
        Ok(Route {
            edges,
            latency_ns: search[dst].dist,
            energy_pj_per_access: energy,
            min_width_bits: min_width,
            switch_nodes,
        })
    }
}

/// Per-vertex state of a route search: tentative distance, predecessor
/// `(vertex, edge index)` and whether the vertex has settled.
#[derive(Debug, Clone, Copy)]
struct Search {
    dist: f64,
    prev: (u32, u32),
    done: bool,
}

impl Search {
    const UNSEEN: Search = Search {
        dist: f64::INFINITY,
        prev: NO_PREV,
        done: false,
    };
}

/// A heap entry of the route search: a tentative distance and its vertex,
/// ordered by distance, then by vertex index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tentative {
    dist: f64,
    vertex: usize,
}

impl Eq for Tentative {}

impl Ord for Tentative {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.vertex.cmp(&other.vertex))
    }
}

impl PartialOrd for Tentative {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One 3D data-wire connection unit: three stacked banks.
#[derive(Debug, Clone)]
pub struct ThreeDcu {
    fabric: Fabric,
}

impl ThreeDcu {
    /// Builds a 3DCU for a configuration.
    pub fn new(cfg: &NocConfig) -> Self {
        Self::with_faults(cfg, &LinkFaults::none())
    }

    /// Builds a 3DCU whose added wires are degraded by `faults`: flows
    /// that would have used a severed wire reroute over the H-tree parent
    /// path (the Smode fallback) with the detour's full hop/energy cost.
    pub fn with_faults(cfg: &NocConfig, faults: &LinkFaults) -> Self {
        ThreeDcu {
            fabric: Fabric::new(cfg, 1, faults),
        }
    }

    /// The interconnect configuration.
    pub fn config(&self) -> &NocConfig {
        &self.fabric.cfg
    }

    /// Routes between two endpoints (side must be 0).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Unreachable`] when severed tree links have
    /// partitioned an endpoint off the fabric (added-wire faults alone
    /// never do — the H-tree fallback always remains), and
    /// [`RouteError::NoSuchEndpoint`] for an endpoint outside the unit.
    pub fn route(&self, from: Endpoint, to: Endpoint, mode: Mode) -> Result<Route, RouteError> {
        self.fabric.route(from, to, mode)
    }
}

/// Hashes a [`Fabric::leg_key`] with one 128-bit multiply, folding the
/// product's halves together so that the low bits the table picks buckets
/// by depend on every bit of the key. Keys name vertices of the fabric, so
/// even chosen ones number at most two per ordered vertex pair.
#[derive(Default)]
struct LegHasher(u64);

impl Hasher for LegHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let p = u128::from(self.0 ^ key) * 0x9e37_79b9_7f4a_7c15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A pair's routes so far, by [`Fabric::leg_key`].
type RouteMemo = HashMap<u64, Result<Arc<Route>, RouteError>, BuildHasherDefault<LegHasher>>;

/// Two 3DCUs joined by bypass links — the mapping unit for one GAN.
///
/// A pair is a cheap handle: clones share one immutable fabric and one
/// memo of the routes asked of it so far, keyed by the vertex ids of
/// `from` and `to` and the mode.
/// Each leg is searched once per fabric, and an [`Unreachable`]
/// answer is kept like a route. Routes are pure functions of the fabric
/// (see the search's tie-breaking), so a memoised answer is the answer a
/// fresh search would give.
///
/// [`with_faults`](Self::with_faults) interns pairs: a build under a
/// configuration and fault set identical to one of the
/// [`INTERNED_PAIRS`](Self::INTERNED_PAIRS) most recently built or
/// reused pairs returns that pair, memo included, so design points that
/// share a fabric share its routes. A memo holds at most one entry per
/// ordered pair of vertices and mode, and lives as long as a handle to
/// its pair does.
///
/// [`Unreachable`]: RouteError::Unreachable
#[derive(Clone)]
pub struct DcuPair {
    inner: Arc<PairInner>,
}

/// The shared state behind a [`DcuPair`] handle.
struct PairInner {
    fabric: Fabric,
    /// The fault set the fabric was built under (the interning key, with
    /// the fabric's configuration).
    faults: LinkFaults,
    /// Every leg routed so far. An entry is inserted whole, so a lock
    /// poisoned by a panicking thread still guards a valid memo.
    routes: Mutex<RouteMemo>,
}

/// The interned pairs, most recently used first.
static INTERNED: Mutex<Vec<DcuPair>> = Mutex::new(Vec::new());

impl DcuPair {
    /// How many pairs the interner keeps.
    pub const INTERNED_PAIRS: usize = 8;

    /// Builds (or reuses) the pristine pair.
    pub fn new(cfg: &NocConfig) -> Self {
        Self::with_faults(cfg, &LinkFaults::none())
    }

    /// Builds the pair over a degraded fabric (see
    /// [`ThreeDcu::with_faults`]). Bypass and bus wires are never
    /// faultable, and tree wires only through the explicit
    /// [`LinkFaults::sever_tree`] beyond-redundancy escape hatch — so
    /// added-wire faults only lengthen routes, never break reachability.
    ///
    /// Returns the interned pair when one was built under a bit-identical
    /// configuration and an equal fault set (see [`DcuPair`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.tiles_per_bank` is not a power of two (see
    /// [`NocConfig::levels`]).
    pub fn with_faults(cfg: &NocConfig, faults: &LinkFaults) -> Self {
        let lookup = |pairs: &mut Vec<DcuPair>| {
            let i = pairs
                .iter()
                .position(|p| p.inner.fabric.cfg.is_identical(cfg) && p.inner.faults == *faults)?;
            pairs[..=i].rotate_right(1);
            Some(pairs[0].clone())
        };
        let interned = || INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pair) = lookup(&mut interned()) {
            return pair;
        }
        // Built outside the lock: a build that panics leaves the interner
        // as it was.
        let built = DcuPair {
            inner: Arc::new(PairInner {
                fabric: Fabric::new(cfg, 2, faults),
                faults: faults.clone(),
                routes: Mutex::new(RouteMemo::default()),
            }),
        };
        let mut pairs = interned();
        // Another thread may have built the same pair meanwhile.
        if let Some(pair) = lookup(&mut pairs) {
            return pair;
        }
        pairs.insert(0, built.clone());
        pairs.truncate(Self::INTERNED_PAIRS);
        built
    }

    /// The interconnect configuration.
    pub fn config(&self) -> &NocConfig {
        &self.inner.fabric.cfg
    }

    /// Routes between two endpoints of the pair.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Unreachable`] when severed tree links have
    /// partitioned an endpoint off the fabric, and
    /// [`RouteError::NoSuchEndpoint`] for an endpoint outside the pair.
    pub fn route(&self, from: Endpoint, to: Endpoint, mode: Mode) -> Result<Route, RouteError> {
        self.memoised(from, to, mode).map(|r| Route::clone(&r))
    }

    /// Latency and energy of moving `values` 16-bit values from `from` to
    /// `to` (see [`Route::transfer`]), over the memoised route and under
    /// the pair's own configuration.
    ///
    /// # Errors
    ///
    /// As [`route`](Self::route).
    pub fn transfer(
        &self,
        from: Endpoint,
        to: Endpoint,
        mode: Mode,
        values: u64,
    ) -> Result<(f64, f64), RouteError> {
        Ok(self
            .memoised(from, to, mode)?
            .transfer(values, self.config()))
    }

    /// The memo's answer for a leg, searching the fabric on a miss.
    /// Endpoints outside the fabric are rejected before the lookup, so the
    /// memo never grows past the fabric's legs.
    fn memoised(&self, from: Endpoint, to: Endpoint, mode: Mode) -> Result<Arc<Route>, RouteError> {
        let fabric = &self.inner.fabric;
        let key = fabric.leg_key(from, to, mode)?;
        let memo = || {
            self.inner
                .routes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        if let Some(answer) = memo().get(&key) {
            return answer.clone();
        }
        // Searched outside the lock; a racing thread's search gives the
        // same answer, and the first one inserted is kept.
        let answer = fabric.route(from, to, mode).map(Arc::new);
        memo().entry(key).or_insert(answer).clone()
    }
}

impl fmt::Debug for DcuPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DcuPair")
            .field("config", self.config())
            .field("faults", &self.inner.faults)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A transfer's endpoints and routing mode.
    type Leg = (Endpoint, Endpoint, Mode);

    /// Reference search: Dijkstra with an O(V²) minimum scan, lowest
    /// vertex index first on ties, run from `src` until every reachable
    /// vertex is settled. Stopping once a destination settles (as the
    /// library does) cannot change that destination's predecessor chain:
    /// every vertex on it settles earlier, and a settled vertex's
    /// predecessor never changes again.
    fn scan_search(fabric: &Fabric, from: Endpoint, mode: Mode) -> Vec<Search> {
        let adj = fabric.adjacency(mode);
        let n = fabric.vertex_count();
        let mut search = vec![Search::UNSEEN; n];
        search[fabric.vertex(from)].dist = 0.0;
        for _ in 0..n {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for (v, slot) in search.iter().enumerate() {
                if !slot.done && slot.dist < best {
                    best = slot.dist;
                    u = v;
                }
            }
            if u == usize::MAX {
                break;
            }
            search[u].done = true;
            for ei in adj.range(u) {
                let e = &adj.edges[ei];
                let v = e.to as usize;
                let nd = search[u].dist + e.latency_ns;
                if nd < search[v].dist {
                    search[v].dist = nd;
                    search[v].prev = (u as u32, ei as u32);
                }
            }
        }
        search
    }

    /// Asserts the heap search returns exactly the scan's route (edges,
    /// latency and energy bits, width, switch nodes) or the same error,
    /// for every ordered pair of addressable vertices in both modes.
    fn assert_heap_matches_scan(fabric: &Fabric) -> Result<(), TestCaseError> {
        let endpoints: Vec<Endpoint> = (0..fabric.bus_vertex())
            .filter_map(|v| fabric.endpoint_of(v))
            .filter(|e| e.node >= 1)
            .collect();
        for mode in [Mode::Smode, Mode::Cmode] {
            for &from in &endpoints {
                let search = scan_search(fabric, from, mode);
                for &to in &endpoints {
                    let expected = if from == to {
                        Ok(Route::nil())
                    } else {
                        fabric.path(from, to, mode, &search)
                    };
                    prop_assert_eq!(fabric.route(from, to, mode), expected);
                }
            }
        }
        Ok(())
    }

    /// Combined link faults on both sides: broken horizontal and vertical
    /// wires, frozen switches and severed tree links at once.
    fn combined_faults() -> impl Strategy<Value = LinkFaults> {
        let horizontal = proptest::collection::vec((0usize..2, 0usize..3, 2usize..15), 0..16);
        let vertical = proptest::collection::vec((0usize..2, 0usize..2, 1usize..16), 0..16);
        let stuck = proptest::collection::vec((0usize..2, 0usize..3, 1usize..16), 0..4);
        let tree = proptest::collection::vec((0usize..2, 0usize..3, 2usize..32), 0..3);
        (horizontal, vertical, stuck, tree).prop_map(|(h, v, s, t)| {
            let mut f = LinkFaults::none();
            for (side, bank, node) in h {
                f.break_horizontal(side, bank, node);
            }
            for (side, bank, node) in v {
                f.break_vertical(side, bank, node);
            }
            for (side, bank, node) in s {
                f.stick_switch(side, bank, node);
            }
            for (side, bank, node) in t {
                f.sever_tree(side, bank, node);
            }
            f
        })
    }

    /// Forgets every route a pair's memo holds, so the next pass over it
    /// searches cold.
    fn clear_memo(pair: &DcuPair) {
        pair.inner
            .routes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Asserts the memoised [`DcuPair::route`] of every pair in `pairs`
    /// answers the scan's route for every ordered pair of addressable
    /// vertices in both modes: a cold pass that interleaves the pairs
    /// leg by leg, then a warm pass answered from the memos.
    fn assert_memo_matches_scan(pairs: &[&DcuPair]) -> Result<(), TestCaseError> {
        for pair in pairs {
            clear_memo(pair);
        }
        let fabric = &pairs[0].inner.fabric;
        let endpoints: Vec<Endpoint> = (0..fabric.bus_vertex())
            .filter_map(|v| fabric.endpoint_of(v))
            .filter(|e| e.node >= 1)
            .collect();
        for mode in [Mode::Smode, Mode::Cmode] {
            for &from in &endpoints {
                let searches: Vec<Vec<Search>> = pairs
                    .iter()
                    .map(|p| scan_search(&p.inner.fabric, from, mode))
                    .collect();
                for &to in &endpoints {
                    for (pair, search) in pairs.iter().zip(&searches) {
                        let expected = if from == to {
                            Ok(Route::nil())
                        } else {
                            pair.inner.fabric.path(from, to, mode, search)
                        };
                        prop_assert_eq!(pair.route(from, to, mode), expected);
                    }
                }
            }
        }
        // Warm: every leg is in the memo now, and the heap search is the
        // scan's route by the cold pass.
        for pair in pairs {
            let memo = pair.inner.routes.lock().unwrap().len();
            prop_assert_eq!(memo, 2 * endpoints.len() * endpoints.len());
        }
        for mode in [Mode::Smode, Mode::Cmode] {
            for &from in &endpoints {
                for &to in &endpoints {
                    for pair in pairs {
                        prop_assert_eq!(
                            pair.route(from, to, mode),
                            pair.inner.fabric.route(from, to, mode)
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialises the tests that build many pairs, or that count on what
    /// the interner or a shared pair's memo holds from one call to the
    /// next: both are process-wide, and the tests of a module run in
    /// parallel.
    static INTERNER: Mutex<()> = Mutex::new(());

    proptest! {
        // Each case checks ~43 k ordered vertex pairs per mode; a few
        // cases cover every fault category many times over.
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn heap_search_matches_the_linear_scan(faults in combined_faults()) {
            let _serial = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
            let cfg = NocConfig::default();
            assert_heap_matches_scan(&ThreeDcu::with_faults(&cfg, &faults).fabric)?;
            let faulted = DcuPair::with_faults(&cfg, &faults);
            assert_heap_matches_scan(&faulted.inner.fabric)?;
            assert_memo_matches_scan(&[&DcuPair::new(&cfg), &faulted])?;
        }
    }

    #[test]
    fn heap_search_matches_the_linear_scan_on_pristine_fabrics() {
        let _serial = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
        let cfg = NocConfig::default();
        assert_heap_matches_scan(&ThreeDcu::new(&cfg).fabric).unwrap();
        let pair = DcuPair::new(&cfg);
        assert_heap_matches_scan(&pair.inner.fabric).unwrap();
        assert_memo_matches_scan(&[&pair]).unwrap();
    }

    #[test]
    fn every_leg_of_a_pair_has_its_own_memo_key() {
        let fabric = Fabric::new(&NocConfig::default(), 2, &LinkFaults::none());
        let endpoints: Vec<Endpoint> = (0..fabric.bus_vertex())
            .filter_map(|v| fabric.endpoint_of(v))
            .filter(|e| e.node >= 1)
            .collect();
        let mut keys = HashSet::new();
        for mode in [Mode::Smode, Mode::Cmode] {
            for &from in &endpoints {
                for &to in &endpoints {
                    assert!(keys.insert(fabric.leg_key(from, to, mode).unwrap()));
                }
            }
        }
        assert_eq!(keys.len(), 2 * endpoints.len() * endpoints.len());
        let outside = Endpoint {
            side: 2,
            bank: 0,
            node: 1,
        };
        assert_eq!(
            fabric.leg_key(endpoints[0], outside, Mode::Cmode),
            Err(RouteError::NoSuchEndpoint { endpoint: outside })
        );
    }

    #[test]
    fn equal_builds_share_a_pair_and_its_memo() {
        let _serial = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
        let cfg = NocConfig::default();
        let mut faults = LinkFaults::none();
        faults.break_vertical(1, 0, 3).stick_switch(0, 2, 5);
        let a = DcuPair::with_faults(&cfg, &faults);
        let b = DcuPair::with_faults(&cfg.clone(), &faults.clone());
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        let leg = (
            Endpoint::tile(0, 0),
            Endpoint::pair_tile(1, 2, 9),
            Mode::Cmode,
        );
        let route = a.route(leg.0, leg.1, leg.2).unwrap();
        let key = b.inner.fabric.leg_key(leg.0, leg.1, leg.2).unwrap();
        assert!(b.inner.routes.lock().unwrap().contains_key(&key));
        assert_eq!(b.route(leg.0, leg.1, leg.2).unwrap(), route);
        // A different fault set is a different fabric.
        let c = DcuPair::new(&cfg);
        assert!(!Arc::ptr_eq(&a.inner, &c.inner));
    }

    #[test]
    fn configs_differing_in_one_route_changing_field_never_share_a_pair() {
        let _serial = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
        let base = NocConfig::default();
        let variants: Vec<(&str, NocConfig)> = vec![
            (
                "hop_latency_ns",
                NocConfig {
                    hop_latency_ns: 7.0,
                    ..base.clone()
                },
            ),
            (
                "hop_energy_pj",
                NocConfig {
                    hop_energy_pj: 300.0,
                    ..base.clone()
                },
            ),
            (
                "horizontal_latency_factor",
                NocConfig {
                    horizontal_latency_factor: 0.5,
                    ..base.clone()
                },
            ),
            (
                "horizontal_energy_factor",
                NocConfig {
                    horizontal_energy_factor: 0.5,
                    ..base.clone()
                },
            ),
            (
                "vertical_latency_factor",
                NocConfig {
                    vertical_latency_factor: 0.1,
                    ..base.clone()
                },
            ),
            (
                "vertical_energy_factor",
                NocConfig {
                    vertical_energy_factor: 0.1,
                    ..base.clone()
                },
            ),
            (
                "bypass_latency_ns",
                NocConfig {
                    bypass_latency_ns: 6.0,
                    ..base.clone()
                },
            ),
            (
                "bypass_energy_pj",
                NocConfig {
                    bypass_energy_pj: 240.0,
                    ..base.clone()
                },
            ),
            (
                "bus_latency_ns",
                NocConfig {
                    bus_latency_ns: 60.0,
                    ..base.clone()
                },
            ),
            (
                "bus_energy_pj",
                NocConfig {
                    bus_energy_pj: 2400.0,
                    ..base.clone()
                },
            ),
            (
                "root_width_bits",
                NocConfig {
                    root_width_bits: 64,
                    ..base.clone()
                },
            ),
            // Equal under `==`, but not the same bits.
            (
                "vertical_latency_factor = 0.0",
                NocConfig {
                    vertical_latency_factor: 0.0,
                    ..base.clone()
                },
            ),
            (
                "vertical_latency_factor = -0.0",
                NocConfig {
                    vertical_latency_factor: -0.0,
                    ..base.clone()
                },
            ),
        ];
        let pristine = DcuPair::new(&base);
        // Warm the default pair's memo over every tile leg first, so a
        // variant that wrongly shared it would answer from it.
        let legs: Vec<Leg> = (0..2)
            .flat_map(|side| (0..3).flat_map(move |bank| (0..16).map(move |t| (side, bank, t))))
            .flat_map(|(side, bank, t)| {
                [Mode::Smode, Mode::Cmode].map(|mode| {
                    (
                        Endpoint::tile(0, 0),
                        Endpoint::pair_tile(side, bank, t),
                        mode,
                    )
                })
            })
            .collect();
        for &(from, to, mode) in &legs {
            pristine.route(from, to, mode).unwrap();
        }
        let mut built = vec![pristine.clone()];
        for (field, cfg) in &variants {
            let pair = DcuPair::new(cfg);
            assert!(
                built.iter().all(|b| !Arc::ptr_eq(&pair.inner, &b.inner)),
                "{field}"
            );
            built.push(pair.clone());
            assert!(pair.config().is_identical(cfg), "{field}");
            let fresh = Fabric::new(cfg, 2, &LinkFaults::none());
            let mut moved = false;
            for &(from, to, mode) in &legs {
                let got = pair.route(from, to, mode).unwrap();
                assert_eq!(got, fresh.route(from, to, mode).unwrap(), "{field}");
                let old = pristine.route(from, to, mode).unwrap();
                moved |= got.latency_ns.to_bits() != old.latency_ns.to_bits()
                    || got.energy_pj_per_access.to_bits() != old.energy_pj_per_access.to_bits()
                    || got.min_width_bits != old.min_width_bits
                    || got.edges != old.edges;
            }
            assert!(moved, "{field} changes no tile leg's route");
        }
    }

    #[test]
    fn fault_sets_differing_in_one_fault_never_share_a_pair() {
        let _serial = INTERNER.lock().unwrap_or_else(PoisonError::into_inner);
        let cfg = NocConfig::default();
        let mut base = LinkFaults::none();
        base.break_horizontal(0, 0, 4);
        let mut sets = vec![LinkFaults::none(), base.clone()];
        for add in [
            |f: &mut LinkFaults| {
                f.break_horizontal(1, 2, 4);
            },
            |f: &mut LinkFaults| {
                f.break_vertical(0, 1, 4);
            },
            |f: &mut LinkFaults| {
                f.stick_switch(1, 0, 3);
            },
            |f: &mut LinkFaults| {
                f.sever_tree(0, 2, 20);
            },
        ] {
            let mut f = base.clone();
            add(&mut f);
            sets.push(f);
        }
        let pairs: Vec<DcuPair> = sets.iter().map(|f| DcuPair::with_faults(&cfg, f)).collect();
        for (i, (pair, faults)) in pairs.iter().zip(&sets).enumerate() {
            assert_eq!(pair.inner.faults, *faults);
            for other in &pairs[i + 1..] {
                assert!(!Arc::ptr_eq(&pair.inner, &other.inner), "set {i}");
            }
            // Each pair answers its own fabric's routes.
            let fresh = Fabric::new(&cfg, 2, faults);
            for t in 0..16 {
                for mode in [Mode::Smode, Mode::Cmode] {
                    let (from, to) = (Endpoint::tile(0, 7), Endpoint::pair_tile(t % 2, 2, t));
                    assert_eq!(pair.route(from, to, mode), fresh.route(from, to, mode));
                }
            }
        }
    }

    #[test]
    fn two_threads_routing_the_same_legs_get_identical_routes() {
        let cfg = NocConfig::default();
        let mut faults = LinkFaults::none();
        faults.break_horizontal(0, 1, 6).break_vertical(1, 1, 2);
        let legs: Vec<Leg> = (0..2)
            .flat_map(|side| (0..3).flat_map(move |bank| (0..16).map(move |t| (side, bank, t))))
            .flat_map(|(side, bank, t)| {
                [Mode::Smode, Mode::Cmode].map(|mode| {
                    (
                        Endpoint::pair_tile(1, 2, 15),
                        Endpoint::pair_tile(side, bank, t),
                        mode,
                    )
                })
            })
            .collect();
        let pair = DcuPair::with_faults(&cfg, &faults);
        clear_memo(&pair);
        // Both threads start on the cold memo together, so they race to
        // search and insert the same legs.
        let start = std::sync::Barrier::new(2);
        let answers: Vec<Vec<Result<Route, RouteError>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let pair = DcuPair::with_faults(&cfg, &faults);
                        start.wait();
                        legs.iter()
                            .map(|&(from, to, mode)| pair.route(from, to, mode))
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(answers[0], answers[1]);
        let fresh = Fabric::new(&cfg, 2, &faults);
        for (&(from, to, mode), answer) in legs.iter().zip(&answers[0]) {
            assert_eq!(*answer, fresh.route(from, to, mode));
        }
    }

    #[test]
    fn endpoints_outside_the_fabric_are_typed_errors() {
        let pair = DcuPair::new(&NocConfig::default());
        let inside = Endpoint::pair_tile(1, 0, 8);
        for outside in [
            // Node 40 would alias onto bank 1's node 8 in release builds.
            Endpoint {
                side: 0,
                bank: 0,
                node: 40,
            },
            Endpoint {
                side: 0,
                bank: 0,
                node: 0,
            },
            Endpoint {
                side: 0,
                bank: 3,
                node: 1,
            },
            Endpoint {
                side: 2,
                bank: 0,
                node: 1,
            },
        ] {
            let err = RouteError::NoSuchEndpoint { endpoint: outside };
            for mode in [Mode::Smode, Mode::Cmode] {
                assert_eq!(pair.route(outside, inside, mode), Err(err));
                assert_eq!(pair.route(inside, outside, mode), Err(err));
                assert_eq!(pair.transfer(outside, inside, mode, 64), Err(err));
            }
        }
        let single = dcu();
        let other_side = Endpoint::pair_tile(1, 0, 0);
        assert_eq!(
            single.route(Endpoint::tile(0, 0), other_side, Mode::Cmode),
            Err(RouteError::NoSuchEndpoint {
                endpoint: other_side
            })
        );
    }

    fn dcu() -> ThreeDcu {
        ThreeDcu::new(&NocConfig::default())
    }

    #[test]
    fn same_tile_is_free() {
        let d = dcu();
        let r = d
            .route(Endpoint::tile(0, 3), Endpoint::tile(0, 3), Mode::Smode)
            .unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.latency_ns, 0.0);
    }

    #[test]
    fn smode_follows_the_tree() {
        let d = dcu();
        let r = d
            .route(Endpoint::tile(0, 0), Endpoint::tile(0, 15), Mode::Smode)
            .unwrap();
        assert_eq!(r.hops(), 8);
        assert!(r.edges.iter().all(|e| *e == EdgeKind::Tree));
        let cfg = NocConfig::default();
        assert!((r.latency_ns - 8.0 * cfg.hop_latency_ns).abs() < 1e-9);
    }

    #[test]
    fn cmode_shortcuts_beat_the_tree() {
        let d = dcu();
        // Tiles 7 and 8: 8 tree hops, but horizontal wires cut across.
        let s = d
            .route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Smode)
            .unwrap();
        let c = d
            .route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Cmode)
            .unwrap();
        assert!(c.latency_ns < s.latency_ns);
        assert!(c.edges.contains(&EdgeKind::Horizontal));
    }

    #[test]
    fn vertical_hop_reaches_the_bank_below() {
        let d = dcu();
        let r = d
            .route(
                Endpoint::tile(0, 0),
                Endpoint::pair_tile(0, 1, 0),
                Mode::Cmode,
            )
            .unwrap();
        assert!(r.edges.contains(&EdgeKind::Vertical));
        assert!(!r.uses_bus());
        // Smode must pay the bus instead.
        let s = d
            .route(
                Endpoint::tile(0, 0),
                Endpoint::pair_tile(0, 1, 0),
                Mode::Smode,
            )
            .unwrap();
        assert!(s.uses_bus());
        assert!(s.latency_ns > r.latency_ns);
    }

    #[test]
    fn vertical_routes_record_switch_nodes() {
        let d = dcu();
        let r = d
            .route(
                Endpoint::tile(0, 0),
                Endpoint::pair_tile(0, 1, 0),
                Mode::Cmode,
            )
            .unwrap();
        assert!(!r.switch_nodes.is_empty());
    }

    #[test]
    fn pair_bypass_avoids_the_bus() {
        let p = DcuPair::new(&NocConfig::default());
        let r = p
            .route(
                Endpoint::pair_tile(0, 0, 0),
                Endpoint::pair_tile(1, 0, 0),
                Mode::Cmode,
            )
            .unwrap();
        assert!(r.edges.contains(&EdgeKind::Bypass));
        assert!(!r.uses_bus());
        // In Smode the pair's transfer crosses the bus.
        let s = p
            .route(
                Endpoint::pair_tile(0, 0, 0),
                Endpoint::pair_tile(1, 0, 0),
                Mode::Smode,
            )
            .unwrap();
        assert!(s.uses_bus());
    }

    #[test]
    fn transfer_serialises_by_width() {
        let d = dcu();
        let r = d
            .route(Endpoint::tile(0, 0), Endpoint::tile(0, 1), Mode::Smode)
            .unwrap();
        let cfg = NocConfig::default();
        let (t_small, e_small) = r.transfer(4, &cfg);
        let (t_big, e_big) = r.transfer(4096, &cfg);
        assert!(t_big > t_small);
        assert!(e_big > e_small);
        // 4096 values * 16b over a 128-bit leaf wire = 512 flits, paid at
        // both hops of the route.
        assert!(t_big > 1000.0 * cfg.wire_cycle_ns);
    }

    #[test]
    fn zero_values_cost_nothing() {
        let d = dcu();
        let r = d
            .route(Endpoint::tile(0, 0), Endpoint::tile(0, 1), Mode::Smode)
            .unwrap();
        assert_eq!(r.transfer(0, &NocConfig::default()), (0.0, 0.0));
    }

    #[test]
    fn empty_fault_set_routes_identically() {
        let cfg = NocConfig::default();
        let clean = ThreeDcu::new(&cfg);
        let faulted = ThreeDcu::with_faults(&cfg, &LinkFaults::none());
        for (a, b) in [(0usize, 15usize), (7, 8), (3, 12)] {
            for mode in [Mode::Smode, Mode::Cmode] {
                assert_eq!(
                    clean.route(Endpoint::tile(0, a), Endpoint::tile(0, b), mode),
                    faulted.route(Endpoint::tile(0, a), Endpoint::tile(0, b), mode),
                );
            }
        }
    }

    #[test]
    fn broken_horizontal_wire_falls_back_to_the_tree() {
        let cfg = NocConfig::default();
        let clean = ThreeDcu::new(&cfg);
        let good = clean
            .route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Cmode)
            .unwrap();
        assert!(good.edges.contains(&EdgeKind::Horizontal));
        // Sever one bank's horizontal wires: the router detours through a
        // *neighbouring bank's* horizontal wire via vertical hops.
        let mut partial = LinkFaults::none();
        for node in 2..cfg.tiles_per_bank {
            partial.break_horizontal(0, 0, node);
        }
        let sidestep = ThreeDcu::with_faults(&cfg, &partial)
            .route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Cmode)
            .unwrap();
        assert!(sidestep.edges.contains(&EdgeKind::Vertical));
        // Sever every bank's horizontal wires: the Cmode route must fall
        // back to the H-tree parent path (Smode fallback).
        let mut faults = LinkFaults::none();
        for bank in 0..3 {
            for node in 2..cfg.tiles_per_bank {
                faults.break_horizontal(0, bank, node);
            }
        }
        let degraded = ThreeDcu::with_faults(&cfg, &faults);
        let detour = degraded
            .route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Cmode)
            .unwrap();
        assert!(!detour.edges.contains(&EdgeKind::Horizontal));
        assert!(detour.latency_ns > good.latency_ns);
        assert!(detour.hops() > good.hops());
        // The detour equals the plain Smode tree route.
        let smode = degraded
            .route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Smode)
            .unwrap();
        assert_eq!(detour.latency_ns, smode.latency_ns);
    }

    #[test]
    fn broken_vertical_wire_pays_a_longer_crossing() {
        let cfg = NocConfig::default();
        let clean = ThreeDcu::new(&cfg);
        let good = clean
            .route(
                Endpoint::tile(0, 0),
                Endpoint::pair_tile(0, 1, 0),
                Mode::Cmode,
            )
            .unwrap();
        // Break every vertical wire between banks 0 and 1; the crossing
        // survives (bus always works) but costs more.
        let mut faults = LinkFaults::none();
        for node in 1..cfg.tiles_per_bank {
            faults.break_vertical(0, 0, node);
        }
        let degraded = ThreeDcu::with_faults(&cfg, &faults);
        let detour = degraded
            .route(
                Endpoint::tile(0, 0),
                Endpoint::pair_tile(0, 1, 0),
                Mode::Cmode,
            )
            .unwrap();
        assert!(detour.latency_ns > good.latency_ns);
        assert!(detour.energy_pj_per_access > good.energy_pj_per_access);
    }

    #[test]
    fn stuck_switch_disables_its_nodes_added_wires() {
        let cfg = NocConfig::default();
        let clean = ThreeDcu::new(&cfg);
        let good = clean
            .route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Cmode)
            .unwrap();
        // Find which nodes the shortcut's switches sit on and freeze one.
        let (_, bank, node) = good.switch_nodes[0];
        let mut faults = LinkFaults::none();
        faults.stick_switch(0, bank, node);
        let degraded = ThreeDcu::with_faults(&cfg, &faults);
        let detour = degraded
            .route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Cmode)
            .unwrap();
        assert!(detour
            .switch_nodes
            .iter()
            .all(|&(_, b, n)| (b, n) != (bank, node)));
        assert!(detour.latency_ns >= good.latency_ns);
    }

    #[test]
    fn faulted_routes_are_deterministic() {
        let cfg = NocConfig::default();
        let mut faults = LinkFaults::none();
        faults.break_horizontal(0, 0, 4).break_vertical(0, 1, 2);
        let a = ThreeDcu::with_faults(&cfg, &faults);
        let b = ThreeDcu::with_faults(&cfg, &faults);
        for t in 0..16 {
            assert_eq!(
                a.route(Endpoint::tile(0, 0), Endpoint::tile(0, t), Mode::Cmode),
                b.route(Endpoint::tile(0, 0), Endpoint::tile(0, t), Mode::Cmode),
            );
        }
    }
}
