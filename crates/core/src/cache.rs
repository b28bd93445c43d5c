//! Cross-hop memoization of the forwarding decision.
//!
//! GMP is stateless per hop: every forwarder rebuilds a virtual Steiner
//! tree over the packet's remaining destination set and regroups from
//! scratch (Figure 7). Consecutive hops therefore repeat nearly identical
//! work — same destination set, same neighborhood geometry — and the
//! simulator replays whole tasks thousands of times. [`TreeCache`]
//! exploits that: it memoizes the *outcome* of
//! [`DecisionScratch::group_destinations_into`] keyed by a fingerprint of
//! the decision inputs, and serves a stored [`Grouping`] instead of
//! rebuilding the tree.
//!
//! # Why cached decisions are bit-exact
//!
//! The grouping is a pure function of the topology (node and destination
//! positions, radio range, the deciding node's neighbor row and those
//! neighbors' positions), the deciding node, the destination ids, the
//! radio-range-aware flag, the perimeter entry point, and the liveness
//! view. A cache entry holds the first six exactly, and a lookup serves
//! the stored grouping only after checking every one, so a hit is
//! *proven* equal to what recomputation would produce, not assumed from a
//! hash:
//!
//! - the topology is checked by its [`Topology::id`]. Ids are unique per
//!   built topology and a topology never changes, so an equal id proves
//!   equal positions, radio range and adjacency without reading them;
//! - the remaining inputs are compared directly: node and destination
//!   ids, the flag, and the perimeter entry point by `f64` bit pattern.
//!
//! The fingerprint mixes exactly these inputs and only finds the
//! candidate entry; correctness never rests on the hash. A hit reads the
//! packet's destinations, not the node's neighborhood.
//!
//! # Liveness enters through the decision's dependencies
//!
//! The view is not part of the key. An entry instead records what its
//! decision depended on, and serves every view under which that
//! dependency still holds. The view is read only by the next-hop rule
//! (`grouping::next_hop`): each call returns the alive *passer* (a
//! neighbor whose total distance to the group beats the bound) ranked
//! first by squared distance to the pivot, ties going to the earlier
//! neighbor in the row. Whether a neighbor passes, and how it ranks,
//! depend on geometry alone. A *blocker* of a call is a dead passer
//! ranked ahead of the call's result R — or any dead passer when there is
//! no result. The rule records them as it scans, because a dead neighbor
//! ranked ahead of the current alive best takes the improvement test like
//! an alive one, and only an alive passer becomes the best.
//!
//! Take one call with result R under view V, and a view V′ under which R
//! is alive and every blocker is dead. The alive passers under V′ still
//! include R. A passer ranked ahead of R was either alive under V — then
//! R was not the first under V, a contradiction — or dead under V, so a
//! blocker, and dead under V′. So no alive passer ranks ahead of R, and
//! the call returns R again under V′. With no result under V, every
//! passer was dead under V and so is a blocker, dead under V′: the call
//! returns `None` again. A call's inputs (its pivot and group) follow from
//! the rrSTR tree, which ignores liveness, and from earlier calls'
//! results, so by induction over the calls the whole grouping under V′ is
//! the grouping under V.
//!
//! An entry therefore stores the decision's blockers, and a lookup with
//! matching inputs serves it under a view when:
//!
//! - with no view (`None`, every node alive): the entry has no blockers;
//! - with `Some(alive)`: every blocker is dead and every covered group's
//!   next hop is alive.
//!
//! That costs O(groups + blockers) and reads no neighbor row. One entry
//! serves every view it is valid for: the all-alive entry serves a crash
//! view that kills none of its next hops, and a `None` view shares
//! entries with an all-`true` one, which has no dead neighbor to block.
//!
//! A lookup that finds an entry with the same inputs that is not valid
//! under its view is a **miss**: the decision is recomputed, and the
//! private cache replaces the entry in place, keeping one entry per
//! input set. A **fallback** is an entry with *different* inputs under the
//! same fingerprint (a hash collision), recomputed and replaced the same
//! way. A lookup on another topology, even one rebuilt from the same
//! positions, never matches an entry's inputs. This is how `gmp-faults`
//! liveness changes reach cached decisions without any out-of-band
//! notification.
//!
//! # One fill rule
//!
//! Both caches store a decision only while they have room. A full cache
//! computes the decision into the caller's scratch and stores nothing:
//! resident entries keep serving hits, and nothing is ever evicted.
//!
//! With `GMP_CACHE_PARANOID` set (any value but `0`), every verified hit
//! *additionally* recomputes the decision and asserts the stored grouping
//! matches — the belt-and-braces mode the parity tests run under.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use gmp_geom::Point;
use gmp_net::{NodeId, Topology};

use crate::grouping::{DecisionScratch, Grouping};

/// Tuning knobs for [`TreeCache`] and [`ConcurrentTreeCache`]. These
/// affect only speed, never outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of stored decisions, at most
    /// [`CacheConfig::MAX_CAPACITY`]; a full cache computes further
    /// decisions without storing them.
    pub capacity: usize,
    /// Recompute-and-compare every hit (`GMP_CACHE_PARANOID`).
    pub paranoid: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 8192,
            paranoid: false,
        }
    }
}

impl CacheConfig {
    /// The largest accepted capacity: 2^20 decisions.
    /// [`ConcurrentTreeCache`] preallocates one 16-byte slot per decision
    /// (rounded up to a power of two), so this bounds its table at 16 MiB.
    pub const MAX_CAPACITY: usize = 1 << 20;

    /// The constructors' check: explicit configurations come from code,
    /// so an out-of-range capacity is a bug, reported before any
    /// allocation.
    fn assert_capacity(&self) {
        assert!(
            (1..=CacheConfig::MAX_CAPACITY).contains(&self.capacity),
            "cache capacity {} is outside 1..={}",
            self.capacity,
            CacheConfig::MAX_CAPACITY
        );
    }

    /// The defaults, with paranoid mode on when `GMP_CACHE_PARANOID` is
    /// set to any value but `0`.
    pub fn from_env() -> Self {
        CacheConfig::with_paranoid_var(std::env::var("GMP_CACHE_PARANOID").ok().as_deref())
    }

    /// [`CacheConfig::from_env`] given the variable's value, so every
    /// case is testable without mutating the process environment.
    fn with_paranoid_var(raw: Option<&str>) -> Self {
        CacheConfig {
            paranoid: raw.is_some_and(|v| v != "0"),
            ..CacheConfig::default()
        }
    }
}

/// Counters describing how the cache behaved, for the bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a stored, fully verified entry.
    pub hits: u64,
    /// Lookups that found no stored entry for their inputs, or only ones
    /// their liveness view does not keep valid: computed fresh, then
    /// stored if the cache has room (the private cache stores it in place
    /// of the invalid entry).
    pub misses: u64,
    /// Lookups not served that met an entry with different inputs under
    /// their fingerprint: a hash collision, since the fingerprint mixes
    /// every compared input. Computed fresh, entry replaced in place where
    /// the cache allows it.
    pub fallbacks: u64,
    /// Always 0: neither cache evicts, because a full cache stores
    /// nothing new. Kept so report consumers keep their fields.
    pub evictions: u64,
    /// Always 0: there are no capacity flushes (see `evictions`).
    pub epoch_flushes: u64,
    /// Decisions currently stored — an occupancy snapshot taken by
    /// `stats()`, not a running counter.
    pub entries_live: u64,
    /// Always 0: with nothing evicted there are no entries to recycle.
    pub pool_reused: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.fallbacks
    }

    /// Fraction of lookups served from the cache, or 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One memoized decision: every exact input, the resulting grouping, and
/// what the grouping depended on in the liveness view. The topology
/// stands in for every position, the radio range and the neighbor row
/// through its id (see the module docs).
///
/// Every id of the entry sits in one vector, in this order: the
/// decision's destinations, each covered group's destinations, the void
/// destinations, and the blockers. `groups` holds one `(next hop, end
/// offset)` row per covered group. A hit thus reads two heap blocks past
/// the entry however many groups the decision made, and storing a
/// decision costs two allocations.
#[derive(Debug, Clone, Default)]
struct CacheEntry {
    topo: u64,
    perimeter_entry: Option<Point>,
    ids: Vec<NodeId>,
    groups: Vec<(NodeId, u32)>,
    node: NodeId,
    /// End of the destinations in `ids`.
    dests_end: u32,
    /// End of the voids in `ids`; the blockers follow. A blocker is a
    /// dead neighbor that some next-hop call would have picked ahead of
    /// its result; there are none when the view killed none of them.
    voids_end: u32,
    rra: bool,
}

impl CacheEntry {
    fn dests(&self) -> &[NodeId] {
        &self.ids[..self.dests_end as usize]
    }

    /// Each covered group as `(next hop, destinations)`.
    fn covered(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> + '_ {
        let mut start = self.dests_end as usize;
        self.groups.iter().map(move |&(hop, end)| {
            let group = &self.ids[start..end as usize];
            start = end as usize;
            (hop, group)
        })
    }

    fn voids(&self) -> &[NodeId] {
        let start = self.groups.last().map_or(self.dests_end, |&(_, end)| end);
        &self.ids[start as usize..self.voids_end as usize]
    }

    fn blockers(&self) -> &[NodeId] {
        &self.ids[self.voids_end as usize..]
    }

    /// `true` iff `grouping` is this entry's decision.
    fn holds(&self, grouping: &Grouping) -> bool {
        grouping.covered.len() == self.groups.len()
            && grouping
                .covered
                .iter()
                .zip(self.covered())
                .all(|(g, (hop, dests))| g.next_hop == hop && g.dests == dests)
            && grouping.voids == self.voids()
    }
}

/// An offset into an entry's ids. An entry holds each destination at most
/// twice plus the decision's blockers, far below `u32::MAX` ids for any
/// topology that fits in memory.
fn offset(ids: &[NodeId]) -> u32 {
    u32::try_from(ids.len()).expect("a cache entry holds fewer than 2^32 ids")
}

/// Trivial pass-through hasher: the map key already *is* the mixed
/// fingerprint, so rehashing it through SipHash would only burn cycles.
#[derive(Debug, Clone, Copy, Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0, b as u64);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct FingerprintBuild;

impl BuildHasher for FingerprintBuild {
    type Hasher = FingerprintHasher;
    fn build_hasher(&self) -> FingerprintHasher {
        FingerprintHasher::default()
    }
}

/// One FxHash-style mixing step (rotate, xor, multiply by a large odd
/// constant) — cheap, dependency-free, and plenty for keys this small.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// A decision's exact inputs apart from the liveness view: what an
/// entry's key holds and the fingerprint mixes.
struct Inputs<'a> {
    topo: &'a Topology,
    node: NodeId,
    dests: &'a [NodeId],
    rra: bool,
    perimeter_entry: Option<Point>,
}

impl Inputs<'_> {
    /// The lookup fingerprint: topology id, node id, flag, perimeter-entry
    /// bits and destination ids mixed into 64 bits. It reads no node
    /// position and no liveness. Only a probe — every served decision is
    /// re-verified against exact inputs. Shared by [`TreeCache`] and
    /// [`ConcurrentTreeCache`] so a private and a shared cache agree on
    /// which probe a decision lands under.
    fn fingerprint(&self) -> u64 {
        let mut h = mix(0x9e37_79b9_7f4a_7c15, self.topo.id());
        h = mix(h, self.node.0 as u64);
        h = mix(h, self.rra as u64);
        match self.perimeter_entry {
            Some(e) => {
                h = mix(h, 1);
                h = mix(h, e.x.to_bits());
                h = mix(h, e.y.to_bits());
            }
            None => h = mix(h, 2),
        }
        for &d in self.dests {
            h = mix(h, d.0 as u64);
        }
        // The low bits pick the bucket, but multiply-rotate mixing leaves
        // them a function of mostly the inputs' low bits, and every input
        // here is a small id: fold the high half down so full windows stay
        // rare.
        h ^ (h >> 32)
    }

    /// `true` iff `entry` was computed from exactly these inputs (the
    /// topology by id, every other input compared directly).
    fn matches(&self, entry: &CacheEntry) -> bool {
        let bits = |p: Option<Point>| p.map(|p| (p.x.to_bits(), p.y.to_bits()));
        entry.topo == self.topo.id()
            && entry.node == self.node
            && entry.rra == self.rra
            && bits(entry.perimeter_entry) == bits(self.perimeter_entry)
            && entry.dests() == self.dests
    }

    /// Computes the decision into `scratch`, bypassing the cache.
    fn compute<'s>(
        &self,
        scratch: &'s mut DecisionScratch,
        alive: Option<&[bool]>,
    ) -> &'s Grouping {
        scratch.group_destinations_into(
            self.topo,
            self.node,
            self.dests,
            self.rra,
            self.perimeter_entry,
            alive,
        )
    }

    /// (Re)populates `entry` from these inputs and the decision just
    /// computed into `scratch`, reusing the entry's vectors. The ids are
    /// reserved at their exact count, so a new entry's block is no larger
    /// than it needs to be.
    fn fill(&self, entry: &mut CacheEntry, scratch: &DecisionScratch) {
        let grouping = scratch.grouping_ref();
        entry.topo = self.topo.id();
        entry.node = self.node;
        entry.rra = self.rra;
        entry.perimeter_entry = self.perimeter_entry;
        let grouped: usize = grouping.covered.iter().map(|g| g.dests.len()).sum();
        let ids = &mut entry.ids;
        ids.clear();
        ids.reserve_exact(
            self.dests.len() + grouped + grouping.voids.len() + scratch.blockers().count(),
        );
        ids.extend_from_slice(self.dests);
        entry.dests_end = offset(ids);
        entry.groups.clear();
        entry.groups.reserve_exact(grouping.covered.len());
        for g in &grouping.covered {
            ids.extend_from_slice(&g.dests);
            entry.groups.push((g.next_hop, offset(ids)));
        }
        ids.extend_from_slice(&grouping.voids);
        entry.voids_end = offset(ids);
        ids.extend(scratch.blockers());
    }

    /// Loads `entry`'s grouping into `scratch` — or, in paranoid mode,
    /// recomputes the decision there and asserts it equals the stored one.
    fn serve(
        &self,
        entry: &CacheEntry,
        scratch: &mut DecisionScratch,
        alive: Option<&[bool]>,
        paranoid: bool,
    ) {
        if paranoid {
            let computed = self.compute(scratch, alive);
            assert!(
                entry.holds(computed),
                "paranoid cache check failed at node {} for {:?}: computed {:?}, stored {:?}",
                self.node,
                self.dests,
                computed,
                entry
            );
        } else {
            scratch.load(entry.covered(), entry.voids());
        }
    }
}

/// `true` iff `entry`'s grouping is what its inputs produce under the
/// view `alive`: no blocker alive and no chosen next hop dead (see the
/// module docs). Reads the entry only, never the neighbor row.
fn serves_view(entry: &CacheEntry, alive: Option<&[bool]>) -> bool {
    match alive {
        None => entry.blockers().is_empty(),
        Some(a) => {
            entry.blockers().iter().all(|b| !a[b.index()])
                && entry.groups.iter().all(|&(hop, _)| a[hop.index()])
        }
    }
}

/// Memoizes forwarding decisions across hops (and across simulated
/// tasks, which replay the same decisions thousands of times in the
/// benchmarks).
///
/// The cache owns no scratch of its own: results are always materialized
/// into the caller's [`DecisionScratch`], so downstream code (the emit
/// step, which mutates the grouping in place) is oblivious to whether the
/// decision was computed or served. Once `config.capacity` decisions are
/// stored, further misses are computed without being stored.
#[derive(Debug, Clone)]
pub struct TreeCache {
    config: CacheConfig,
    /// Fingerprint → index into `entries`. On the (astronomically rare)
    /// fingerprint collision between distinct keys, the exact check
    /// rejects the resident entry and the loser recomputes + replaces —
    /// correct either way.
    map: HashMap<u64, u32, FingerprintBuild>,
    entries: Vec<CacheEntry>,
    stats: CacheStats,
}

impl Default for TreeCache {
    fn default() -> Self {
        TreeCache::new()
    }
}

impl TreeCache {
    /// A cache with the environment-tuned configuration
    /// ([`CacheConfig::from_env`]).
    pub fn new() -> Self {
        TreeCache::with_config(CacheConfig::from_env())
    }

    /// A cache with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is outside
    /// `1..=`[`CacheConfig::MAX_CAPACITY`].
    pub fn with_config(config: CacheConfig) -> Self {
        config.assert_capacity();
        TreeCache {
            config,
            map: HashMap::default(),
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Behaviour counters since construction, with the live-occupancy
    /// snapshot filled in.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries_live: self.entries.len() as u64,
            ..self.stats
        }
    }

    /// Number of currently stored decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no decisions are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// [`DecisionScratch::group_destinations_into`] through the cache:
    /// serves a stored grouping when every exact input matches and the
    /// entry is valid under `alive`, computes it otherwise (storing it
    /// while the cache has room, or in place of the entry it could not
    /// serve). The result always lives in `scratch`, bit-identical to what
    /// the direct call would leave there.
    #[allow(clippy::too_many_arguments)]
    pub fn group_destinations_cached<'a>(
        &mut self,
        scratch: &'a mut DecisionScratch,
        topo: &Topology,
        node: NodeId,
        dests: &[NodeId],
        radio_range_aware: bool,
        perimeter_entry: Option<Point>,
        alive: Option<&[bool]>,
    ) -> &'a Grouping {
        let inputs = Inputs {
            topo,
            node,
            dests,
            rra: radio_range_aware,
            perimeter_entry,
        };
        let fp = inputs.fingerprint();
        let slot = self.map.get(&fp).copied();
        match slot {
            Some(slot) => {
                let entry = &self.entries[slot as usize];
                if !inputs.matches(entry) {
                    self.stats.fallbacks += 1;
                } else if serves_view(entry, alive) {
                    self.stats.hits += 1;
                    inputs.serve(entry, scratch, alive, self.config.paranoid);
                    return scratch.grouping_ref();
                } else {
                    self.stats.misses += 1;
                }
            }
            None => self.stats.misses += 1,
        }
        inputs.compute(scratch, alive);
        match slot {
            // One entry per fingerprint: the decision it could not serve
            // is replaced in place.
            Some(slot) => inputs.fill(&mut self.entries[slot as usize], scratch),
            None if self.entries.len() < self.config.capacity => {
                let mut entry = CacheEntry::default();
                inputs.fill(&mut entry, scratch);
                self.map.insert(fp, self.entries.len() as u32);
                self.entries.push(entry);
            }
            None => {}
        }
        scratch.grouping_ref()
    }
}

/// Probe window width of [`ConcurrentTreeCache`]: a fingerprint may land
/// in any of this many consecutive slots.
const WAYS: usize = 4;

/// An immutable published decision: the fingerprint tag plus the full
/// exact-input entry. Boxed so the slot table holds one pointer per slot
/// and publication is a single atomic pointer install.
#[derive(Debug)]
struct PublishedEntry {
    fp: u64,
    entry: CacheEntry,
}

/// A thread-shared variant of [`TreeCache`] for the multi-worker session
/// engine: one warm decision cache serving every worker instead of N
/// cold private ones duplicating the same misses.
///
/// # Design
///
/// The table is a fixed power-of-two array of `OnceLock` slots, each
/// holding at most one immutable published decision. A lookup probes the
/// window of `WAYS` (four) slots starting at the fingerprint's bucket;
/// reading a slot is [`OnceLock::get`] — one atomic load on the hot path,
/// no lock, no bus traffic beyond the counters. A miss computes the
/// decision in the caller's scratch (exactly as the private cache would)
/// and then *publishes* it into the first empty slot in the window via
/// [`OnceLock::set`]; the first writer wins and entries are never
/// mutated or evicted afterwards. Stats are relaxed atomics.
///
/// # Why sharing cannot change outcomes
///
/// Served entries pass the same exact-input and liveness-validity checks
/// as the private cache: the topology is matched by id, every other input
/// is compared exactly, and the view must keep the entry's next hops
/// alive and its blockers dead before the stored grouping is served, so a
/// hit is *proven* equal to recomputation no matter which thread
/// published the entry or when. The only cross-thread effect is whether a given lookup
/// is a hit or a recompute — two paths that are bit-identical by the
/// cache's core contract (pinned by `cache_parity`).
///
/// # Why warmed lookups stay allocation-free
///
/// Slot fills are monotonic (empty → published, never back), and a
/// lookup boxes a new entry only after probing its whole window. Replay
/// a workload once to warm the table: every decision the replay needs is
/// now resident (published by whichever thread got there first), so
/// subsequent replays take the `get`-verify-serve path exclusively —
/// zero allocations, regardless of worker count or interleaving.
/// `gmp-service`'s `steady_allocs` test relies on exactly this.
///
/// The table holds `config.capacity.next_power_of_two()` slots and
/// follows the module's one fill rule: if a window is full, the decision
/// is recomputed each time (counted as a miss) rather than evicting —
/// eviction under concurrency would need entry reclamation.
#[derive(Debug)]
pub struct ConcurrentTreeCache {
    config: CacheConfig,
    /// Bucket mask; `slots.len()` is a power of two `>= WAYS`.
    mask: usize,
    slots: Vec<OnceLock<Box<PublishedEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
}

impl Default for ConcurrentTreeCache {
    fn default() -> Self {
        ConcurrentTreeCache::new()
    }
}

impl ConcurrentTreeCache {
    /// A shared cache with the environment-tuned configuration
    /// ([`CacheConfig::from_env`]).
    pub fn new() -> Self {
        ConcurrentTreeCache::with_config(CacheConfig::from_env())
    }

    /// A shared cache with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is outside
    /// `1..=`[`CacheConfig::MAX_CAPACITY`].
    pub fn with_config(config: CacheConfig) -> Self {
        config.assert_capacity();
        let table = config.capacity.next_power_of_two().max(WAYS);
        let mut slots = Vec::with_capacity(table);
        slots.resize_with(table, OnceLock::new);
        ConcurrentTreeCache {
            config,
            mask: table - 1,
            slots,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Behaviour counters since construction, with the live-occupancy
    /// snapshot filled in. Eviction/flush/pool counters are structurally
    /// zero: published entries are immutable and never discarded.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            entries_live: self.len() as u64,
            ..CacheStats::default()
        }
    }

    /// Number of currently published decisions.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// `true` if no decisions are published.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.get().is_none())
    }

    /// [`DecisionScratch::group_destinations_into`] through the shared
    /// cache — same contract as
    /// [`TreeCache::group_destinations_cached`], but callable through a
    /// shared reference from any number of threads at once.
    #[allow(clippy::too_many_arguments)]
    pub fn group_destinations_cached<'a>(
        &self,
        scratch: &'a mut DecisionScratch,
        topo: &Topology,
        node: NodeId,
        dests: &[NodeId],
        radio_range_aware: bool,
        perimeter_entry: Option<Point>,
        alive: Option<&[bool]>,
    ) -> &'a Grouping {
        let inputs = Inputs {
            topo,
            node,
            dests,
            rra: radio_range_aware,
            perimeter_entry,
        };
        let fp = inputs.fingerprint();
        let base = fp as usize & self.mask;
        let mut collided = false;
        for way in 0..WAYS {
            let Some(published) = self.slots[(base + way) & self.mask].get() else {
                continue;
            };
            if published.fp != fp {
                continue;
            }
            if !inputs.matches(&published.entry) {
                // Same fingerprint, different inputs: a hash collision.
                collided = true;
            } else if serves_view(&published.entry, alive) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                inputs.serve(&published.entry, scratch, alive, self.config.paranoid);
                return scratch.grouping_ref();
            }
            // Otherwise the same inputs under a view this entry does not
            // serve; a later way may hold one that does.
        }

        if collided {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        inputs.compute(scratch, alive);

        // Publish into the first empty way. Immutable entries can't be
        // replaced, so the walk passes over every resident entry except
        // one that already serves this decision (same fingerprint and
        // inputs, valid under this view — e.g. a racing publisher beat
        // us), which ends it. The new entry lands in a later way, where
        // the probe loop will find it.
        let serves_this = |resident: &PublishedEntry| {
            resident.fp == fp
                && inputs.matches(&resident.entry)
                && serves_view(&resident.entry, alive)
        };
        let mut boxed: Option<Box<PublishedEntry>> = None;
        for way in 0..WAYS {
            let slot = &self.slots[(base + way) & self.mask];
            if let Some(resident) = slot.get() {
                if serves_this(resident) {
                    break;
                }
                continue;
            }
            let candidate = boxed.take().unwrap_or_else(|| {
                let mut published = Box::new(PublishedEntry {
                    fp,
                    entry: CacheEntry::default(),
                });
                inputs.fill(&mut published.entry, scratch);
                published
            });
            match slot.set(candidate) {
                Ok(()) => break,
                Err(lost) => {
                    if slot.get().is_some_and(|winner| serves_this(winner)) {
                        break;
                    }
                    boxed = Some(lost);
                }
            }
        }
        scratch.grouping_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_destinations;
    use gmp_net::TopologyConfig;

    fn topo() -> Topology {
        Topology::random(&TopologyConfig::new(600.0, 300, 120.0), 8)
    }

    fn dests_for(seed: u64, topo: &Topology, node: NodeId) -> Vec<NodeId> {
        let mut d: Vec<NodeId> = (0..6)
            .map(|i| NodeId(((seed * 131 + i * 97) % topo.len() as u64) as u32))
            .filter(|&d| d != node)
            .collect();
        d.sort();
        d.dedup();
        d
    }

    /// The grouping a fresh scratch computes, bypassing every cache.
    fn direct(topo: &Topology, node: NodeId, dests: &[NodeId], alive: Option<&[bool]>) -> Grouping {
        let mut s = DecisionScratch::new();
        s.group_destinations_into(topo, node, dests, true, None, alive);
        s.grouping_ref().clone()
    }

    /// Two liveness views over `topo` that each kill exactly one neighbor
    /// of `node`, with different groupings: the first kills `warm`'s first
    /// next hop, the second a neighbor no group of `warm` uses.
    fn one_dead_views(topo: &Topology, node: NodeId, warm: &Grouping) -> [Vec<bool>; 2] {
        let hop = warm.covered[0].next_hop;
        let idle = *topo
            .neighbors(node)
            .iter()
            .find(|n| warm.covered.iter().all(|g| g.next_hop != **n))
            .expect("a neighbor no group forwards to");
        [hop, idle].map(|dead| {
            let mut view = vec![true; topo.len()];
            view[dead.index()] = false;
            view
        })
    }

    /// Warms a cache on `a`, then asks for the same decision on two other
    /// topologies: one with a neighbor of the deciding node moved, and one
    /// rebuilt from `a`'s exact positions. `lookup` runs one cached
    /// decision and returns it with the cache's counters. Each lookup on
    /// another topology must equal a direct rebuild there and count as a
    /// miss.
    fn other_topology_misses(
        mut lookup: impl FnMut(&Topology, NodeId, &[NodeId]) -> (Grouping, CacheStats),
    ) {
        let a = topo();
        let node = NodeId(42);
        let dests = dests_for(7, &a, node);
        let (warm, _) = lookup(&a, node, &dests);
        let (again, stats) = lookup(&a, node, &dests);
        assert_eq!(again, warm);
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // Same node count and ids; `node`'s first next hop sits elsewhere.
        let mut positions = a.positions();
        positions[warm.covered[0].next_hop.index()] = Point::new(1.0, 1.0);
        let moved = Topology::from_positions(positions, a.area(), a.radio_range());
        let rebuilt = Topology::from_positions(a.positions(), a.area(), a.radio_range());
        let expect_moved = direct(&moved, node, &dests, None);
        assert_ne!(
            expect_moved, warm,
            "the moved neighbor changes the decision"
        );
        for (i, b) in [moved, rebuilt].iter().enumerate() {
            let (got, after) = lookup(b, node, &dests);
            assert_eq!(got, direct(b, node, &dests, None), "topology {i}");
            assert_eq!(after.hits, 1, "topology {i} must never be served a's entry");
            assert_eq!(after.misses, 2 + i as u64, "topology {i}");
            assert_eq!(after.fallbacks, 0, "topology {i}");
        }
    }

    #[test]
    fn lookup_on_another_topology_misses() {
        let mut cache = TreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        other_topology_misses(|topo, node, dests| {
            let got = cache
                .group_destinations_cached(&mut scratch, topo, node, dests, true, None, None)
                .clone();
            (got, cache.stats())
        });
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        other_topology_misses(|topo, node, dests| {
            let got = cache
                .group_destinations_cached(&mut scratch, topo, node, dests, true, None, None)
                .clone();
            (got, cache.stats())
        });
    }

    #[test]
    fn hit_reproduces_the_computed_grouping_exactly() {
        let topo = topo();
        let mut cache = TreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        for seed in 0..12u64 {
            let node = NodeId((seed * 71 % 300) as u32);
            let dests = dests_for(seed, &topo, node);
            let expect = group_destinations(&topo, node, &dests, true, None);
            for _ in 0..3 {
                let got = cache
                    .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
                    .clone();
                assert_eq!(got, expect, "seed {seed}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 12);
        assert_eq!(stats.hits, 24);
        assert_eq!(stats.fallbacks, 0);
        assert!(stats.hit_rate() > 0.6);
    }

    #[test]
    fn paranoid_mode_hits_and_agrees() {
        let topo = topo();
        let mut cache = TreeCache::with_config(CacheConfig {
            paranoid: true,
            ..CacheConfig::default()
        });
        let mut scratch = DecisionScratch::new();
        let node = NodeId(17);
        let dests = dests_for(3, &topo, node);
        let a = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        let b = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(a, b);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn liveness_flip_falls_back_and_replaces() {
        let topo = topo();
        let mut cache = TreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        let node = NodeId(42);
        let dests = dests_for(7, &topo, node);
        let all_alive = vec![true; topo.len()];
        let mut some_dead = all_alive.clone();
        for &n in topo.neighbors(node) {
            some_dead[n.index()] = false;
        }

        // Warm with the all-alive view; `None` must then hit (the entry
        // has no blockers), and the dead view must recompute, not serve.
        let warm = cache
            .group_destinations_cached(
                &mut scratch,
                &topo,
                node,
                &dests,
                true,
                None,
                Some(&all_alive),
            )
            .clone();
        let none_view = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(warm, none_view);
        assert_eq!(cache.stats().hits, 1);

        let dead_view = cache
            .group_destinations_cached(
                &mut scratch,
                &topo,
                node,
                &dests,
                true,
                None,
                Some(&some_dead),
            )
            .clone();
        assert_eq!(
            dead_view,
            {
                let mut s = DecisionScratch::new();
                s.group_destinations_into(&topo, node, &dests, true, None, Some(&some_dead));
                s.grouping_ref().clone()
            },
            "dead-neighbor decision must be recomputed, never served stale"
        );
        assert!(dead_view.covered.is_empty(), "all neighbors are dead");
        // The all-alive entry's next hops are dead here: a miss, and the
        // recomputed decision replaces the one entry for these inputs.
        let counts = |cache: &TreeCache| {
            let s = cache.stats();
            (s.hits, s.misses, s.fallbacks, s.entries_live)
        };
        assert_eq!(counts(&cache), (1, 2, 0, 1));

        // The all-dead entry's blockers are alive under `None`, so the
        // original view is recomputed too, and replaces it back.
        let again = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(again, warm);
        assert_eq!(counts(&cache), (1, 3, 0, 1));

        // Two views with one dead neighbor each, but different ones: the
        // second must be recomputed, not served the first's grouping. The
        // first kills the stored entry's first next hop; its own entry
        // then carries that hop as a blocker, alive in the second.
        let [first, second] = one_dead_views(&topo, node, &warm);
        let expect = [&first, &second].map(|view| direct(&topo, node, &dests, Some(view)));
        assert_ne!(expect[0], expect[1]);
        for (view, expect) in [&first, &second].into_iter().zip(&expect) {
            let got = cache
                .group_destinations_cached(
                    &mut scratch,
                    &topo,
                    node,
                    &dests,
                    true,
                    None,
                    Some(view),
                )
                .clone();
            assert_eq!(&got, expect);
        }
        assert_eq!(
            counts(&cache),
            (1, 5, 0, 1),
            "no view is served another's entry"
        );
    }

    #[test]
    fn full_cache_serves_residents_and_computes_the_rest() {
        let topo = topo();
        let mut cache = TreeCache::with_config(CacheConfig {
            capacity: 4,
            ..CacheConfig::default()
        });
        let mut scratch = DecisionScratch::new();
        for round in 0..3 {
            for seed in 0..10u64 {
                let node = NodeId((seed * 71 % 300) as u32);
                let dests = dests_for(seed, &topo, node);
                let got = cache
                    .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
                    .clone();
                let expect = group_destinations(&topo, node, &dests, true, None);
                assert_eq!(got, expect, "round {round} seed {seed}");
            }
        }
        // The first four decisions filled the cache and are hits in every
        // later round; the other six are computed each time without being
        // stored, and nothing is ever evicted.
        assert_eq!(cache.len(), 4);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2 * 4);
        assert_eq!(stats.misses, 10 + 2 * 6);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.entries_live, 4);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.epoch_flushes, 0);
        assert_eq!(stats.pool_reused, 0);
    }

    #[test]
    fn perimeter_entry_distinguishes_decisions() {
        let topo = topo();
        let mut cache = TreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        let node = NodeId(5);
        let dests = dests_for(1, &topo, node);
        let entry = Some(Point::new(10.0, 20.0));
        let plain = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        let perim = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, entry, None)
            .clone();
        assert_eq!(plain, group_destinations(&topo, node, &dests, true, None));
        assert_eq!(perim, group_destinations(&topo, node, &dests, true, entry));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn env_defaults_are_sane() {
        let config = CacheConfig::from_env();
        assert!(config.capacity > 0);
    }

    #[test]
    fn paranoid_accepts_any_value_but_zero() {
        for (value, expect) in [("0", false), ("1", true), ("yes", true), ("", true)] {
            let config = CacheConfig::with_paranoid_var(Some(value));
            assert_eq!(config.paranoid, expect, "paranoid {value:?}");
            assert_eq!(config.capacity, CacheConfig::default().capacity);
        }
    }

    #[test]
    fn absent_env_yields_defaults_silently() {
        assert_eq!(CacheConfig::with_paranoid_var(None), CacheConfig::default());
    }

    #[test]
    fn concurrent_cache_matches_direct_compute() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        for seed in 0..12u64 {
            let node = NodeId((seed * 71 % 300) as u32);
            let dests = dests_for(seed, &topo, node);
            let expect = group_destinations(&topo, node, &dests, true, None);
            for _ in 0..3 {
                let got = cache
                    .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
                    .clone();
                assert_eq!(got, expect, "seed {seed}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 12);
        assert_eq!(stats.hits, 24);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.entries_live, cache.len() as u64);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.epoch_flushes, 0);
    }

    #[test]
    fn concurrent_cache_agrees_across_threads() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        // Every thread hammers the same key set concurrently; each lookup
        // is checked against direct computation, so a wrongly shared or
        // torn entry fails inside the worker that observed it.
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let topo = &topo;
                let cache = &cache;
                scope.spawn(move || {
                    let mut scratch = DecisionScratch::new();
                    for round in 0..3u64 {
                        for seed in 0..12u64 {
                            // Stagger the key order per worker so publishes
                            // and probes interleave differently.
                            let seed = (seed + worker * 5 + round) % 12;
                            let node = NodeId((seed * 71 % 300) as u32);
                            let dests = dests_for(seed, topo, node);
                            let got = cache
                                .group_destinations_cached(
                                    &mut scratch,
                                    topo,
                                    node,
                                    &dests,
                                    true,
                                    None,
                                    None,
                                )
                                .clone();
                            let expect = group_destinations(topo, node, &dests, true, None);
                            assert_eq!(got, expect, "worker {worker} seed {seed}");
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 4 * 3 * 12);
        // All 12 decisions are published exactly once each (no same-key
        // duplicates survive the publish walk), so a cold follow-up pass
        // is pure hits.
        let mut scratch = DecisionScratch::new();
        let before = cache.stats();
        for seed in 0..12u64 {
            let node = NodeId((seed * 71 % 300) as u32);
            let dests = dests_for(seed, &topo, node);
            cache.group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None);
        }
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 12);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn concurrent_liveness_flip_recomputes() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        let node = NodeId(42);
        let dests = dests_for(7, &topo, node);
        let all_alive = vec![true; topo.len()];
        let mut some_dead = all_alive.clone();
        for &n in topo.neighbors(node) {
            some_dead[n.index()] = false;
        }

        let warm = cache
            .group_destinations_cached(
                &mut scratch,
                &topo,
                node,
                &dests,
                true,
                None,
                Some(&all_alive),
            )
            .clone();
        let none_view = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(warm, none_view, "an entry without blockers serves `None`");
        assert_eq!(cache.stats().hits, 1);

        let dead_view = cache
            .group_destinations_cached(
                &mut scratch,
                &topo,
                node,
                &dests,
                true,
                None,
                Some(&some_dead),
            )
            .clone();
        let expect_dead = {
            let mut s = DecisionScratch::new();
            s.group_destinations_into(&topo, node, &dests, true, None, Some(&some_dead));
            s.grouping_ref().clone()
        };
        assert_eq!(dead_view, expect_dead, "dead view must be recomputed");
        assert_eq!(cache.stats().hits, 1);

        // Both variants are now resident in one window, each serving its
        // own view.
        let again_alive = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(again_alive, warm);
        let again_dead = cache
            .group_destinations_cached(
                &mut scratch,
                &topo,
                node,
                &dests,
                true,
                None,
                Some(&some_dead),
            )
            .clone();
        assert_eq!(again_dead, expect_dead);
        assert_eq!(cache.stats().hits, 3);

        // Two views with one dead neighbor each, but different ones. The
        // first kills the all-alive entry's first next hop, so it is
        // recomputed and published, then hits in the second round. The
        // second kills a neighbor no group uses, which blocks nothing: the
        // all-alive entry serves it in both rounds.
        let [first, second] = one_dead_views(&topo, node, &warm);
        let expect = [&first, &second].map(|view| direct(&topo, node, &dests, Some(view)));
        assert_ne!(expect[0], expect[1]);
        for round in 0..2 {
            for (view, expect) in [&first, &second].into_iter().zip(&expect) {
                let got = cache
                    .group_destinations_cached(
                        &mut scratch,
                        &topo,
                        node,
                        &dests,
                        true,
                        None,
                        Some(view),
                    )
                    .clone();
                assert_eq!(&got, expect, "round {round}");
            }
        }
        let stats = cache.stats();
        assert_eq!(
            (
                stats.hits,
                stats.misses,
                stats.fallbacks,
                stats.entries_live
            ),
            (3 + 3, 3, 0, 3),
            "all but the first view's first lookup hit"
        );
    }

    #[test]
    fn concurrent_paranoid_mode_hits_and_agrees() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig {
            paranoid: true,
            ..CacheConfig::default()
        });
        let mut scratch = DecisionScratch::new();
        let node = NodeId(17);
        let dests = dests_for(3, &topo, node);
        let a = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        let b = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(a, b);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn concurrent_full_window_recomputes_instead_of_evicting() {
        let topo = topo();
        // A 4-slot table (capacity rounds up to WAYS) with 10 distinct
        // decisions: windows overflow, so some keys can never publish —
        // they must recompute correctly every time, and occupancy stays
        // bounded by the table size.
        let cache = ConcurrentTreeCache::with_config(CacheConfig {
            capacity: 1,
            ..CacheConfig::default()
        });
        let mut scratch = DecisionScratch::new();
        for round in 0..3 {
            for seed in 0..10u64 {
                let node = NodeId((seed * 71 % 300) as u32);
                let dests = dests_for(seed, &topo, node);
                let got = cache
                    .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
                    .clone();
                let expect = group_destinations(&topo, node, &dests, true, None);
                assert_eq!(got, expect, "round {round} seed {seed}");
            }
        }
        assert!(cache.len() <= 4);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "shared cache never evicts");
        assert_eq!(stats.lookups(), 30);
    }

    #[test]
    fn warmed_concurrent_cache_publishes_nothing_new() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        let replay = |cache: &ConcurrentTreeCache, scratch: &mut DecisionScratch| {
            for seed in 0..12u64 {
                let node = NodeId((seed * 71 % 300) as u32);
                let dests = dests_for(seed, &topo, node);
                cache.group_destinations_cached(scratch, &topo, node, &dests, true, None, None);
            }
        };
        replay(&cache, &mut scratch);
        let warmed = cache.len();
        let before = cache.stats();
        replay(&cache, &mut scratch);
        assert_eq!(cache.len(), warmed, "steady-state replay must not publish");
        let after = cache.stats();
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.fallbacks, before.fallbacks);
        assert_eq!(after.hits, before.hits + 12);
    }
}
