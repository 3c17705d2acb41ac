//! Phase I — Division: parallel local community detection.
//!
//! Paper §IV-A / Fig. 6: for every node `v`, extract its ego network `G_v`
//! (ego excluded) and run Girvan–Newman to obtain the *local communities*
//! of `v`'s friend circle. Each friend `u` of `v` lands in exactly one local
//! community of `G_v`; that assignment — plus the Eq. 3 tightness of every
//! member — is everything Phases II and III need.
//!
//! The computation is embarrassingly parallel over ego nodes ("each node is
//! parsed separately in a streaming scheme", §V-D). Execution goes through
//! [`locec_runtime::run_chunked`]: ego ids are claimed in small chunks from
//! a shared cursor, so the power-law hubs that dominate a statically
//! sharded range re-balance across threads automatically. Chunk outputs are
//! merged in ego order, which keeps the result bit-identical for every
//! thread count.
//!
//! Each thread owns a [`DivideScratch`] arena (ego-network slot,
//! Girvan–Newman buffers, tightness bitmask) that it reuses for every ego
//! it divides in a call, and appends each community to its chunk's
//! [`CommunityColumns`], so the steady-state per-ego pipeline performs no
//! heap allocation of its own. The original static-sharding implementation
//! is preserved in [`mod@reference`] as an executable specification.
//!
//! ## One column pair per division
//!
//! A division's communities do not own their members: `members` and
//! `tightness` are [`Column`] views into two buffers shared by every
//! community of the division, laid out in community order, each community's
//! run starting where the previous one's ended. [`divide`] and the shard
//! merge end in [`DivisionResult::from_communities`], which packs its input
//! into exactly one such pair; the incremental [`splice_update`] copies the
//! clean and the re-divided communities straight into a new pair; the
//! snapshot reader in `locec_store` slices its views out of the decoded
//! columns the same way. So a division holds exactly its
//! Σ|C| live members and tightness values, however many update batches
//! produced it, and loading, cloning or dropping one costs a few
//! allocations, not two per community.

use crate::column::Column;
use crate::config::{CommunityDetector, LocecConfig};
use crate::features::tightness;
use locec_community::{girvan_newman_with, label_propagation, louvain, GnScratch};
use locec_graph::{group_members, CsrGraph, EgoNetwork, EgoScratch, NodeId};
use locec_runtime::run_chunked;
use std::cell::RefCell;

pub mod reference;

/// One local community: a cluster of `ego`'s friends in `ego`'s ego
/// network.
///
/// `members` and `tightness` are read-only [`Column`] views into the
/// column pair the whole division shares (see the module docs): they deref
/// to `&[NodeId]` / `&[f32]`, clone by reference count and compare by
/// contents. Build one from owned data with `Vec::into`. The community
/// stays a struct of public fields rather than becoming an index into the
/// columns because the stand-alone benchmark, which must build unchanged,
/// reads `division.communities[i]` and compares `a.members == b.members`
/// and `a.tightness.iter()` field by field.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalCommunity {
    /// The ego node whose ego network this community lives in.
    pub ego: NodeId,
    /// Global ids of the member friends (ascending, never empty).
    pub members: Column<NodeId>,
    /// Eq. 3 tightness of each member w.r.t. this community (parallel to
    /// `members`).
    pub tightness: Column<f32>,
}

impl LocalCommunity {
    /// Number of members `|C|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the community is empty (never true of a division: divide
    /// writes no empty community and the snapshot reader refuses one).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Tightness of a member by global id.
    pub fn member_tightness(&self, u: NodeId) -> Option<f32> {
        self.members
            .binary_search(&u)
            .ok()
            .map(|i| self.tightness[i])
    }
}

/// Output of Phase I for the whole graph.
///
/// The communities are in ego order, and their `members` and `tightness`
/// views tile one shared column pair in that order whenever the division
/// comes from `divide`, an update, the shard merge or the snapshot reader.
/// `communities` stays a
/// public `Vec<LocalCommunity>` for the same reason [`LocalCommunity`]
/// stays a struct: the stand-alone benchmark indexes and iterates it.
///
/// Membership lookups are backed by a flat table keyed by the graph's
/// adjacency order: slot [`CsrGraph::adjacency_slot`]`(ego, friend)` holds
/// the community index of `friend` inside `ego`'s ego network. That is one
/// dense `u32` per directed friend pair (`2m` total) instead of the former
/// `HashMap<(u32, u32), u32>` — smaller, allocation-light to build, and a
/// cache-friendly array read to query. Queries therefore take the graph the
/// division was computed from.
#[derive(Clone, Debug, Default)]
pub struct DivisionResult {
    /// Every local community of every ego network.
    pub communities: Vec<LocalCommunity>,
    /// `membership[graph.adjacency_slot(ego, friend)] = community index`
    /// into [`DivisionResult::communities`]; `u32::MAX` marks an uncovered
    /// slot (never produced for a division of the full graph).
    membership: Vec<u32>,
}

const NO_COMMUNITY: u32 = u32::MAX;

impl DivisionResult {
    /// The community that `friend` belongs to inside `ego`'s ego network —
    /// the paper's `C_u` for an edge ⟨u=friend, v=ego⟩. `graph` must be the
    /// graph this division was computed from.
    pub fn community_of(
        &self,
        graph: &CsrGraph,
        ego: NodeId,
        friend: NodeId,
    ) -> Option<&LocalCommunity> {
        self.community_index_of(graph, ego, friend)
            .map(|i| &self.communities[i as usize])
    }

    /// Index variant of [`DivisionResult::community_of`].
    pub fn community_index_of(&self, graph: &CsrGraph, ego: NodeId, friend: NodeId) -> Option<u32> {
        debug_assert_eq!(
            self.membership.len(),
            graph.volume(),
            "division queried with a different graph than it was computed from"
        );
        let slot = graph.adjacency_slot(ego, friend)?;
        let idx = *self.membership.get(slot)?;
        (idx != NO_COMMUNITY).then_some(idx)
    }

    /// Number of detected local communities.
    pub fn num_communities(&self) -> usize {
        self.communities.len()
    }

    /// Community sizes (for the Fig. 10a CDF).
    pub fn community_sizes(&self) -> Vec<u32> {
        self.communities.iter().map(|c| c.len() as u32).collect()
    }

    /// Assembles a division from communities in ego order (as produced by
    /// [`divide_range`], or by concatenating shard outputs), building the
    /// membership table in parallel chunks. This is both
    /// `divide`'s own merge step and the entry point for combining the
    /// partial results of a sharded multi-process run: because every ego is
    /// computed independently, the result is bit-identical to a
    /// single-process [`divide`] over the same graph.
    ///
    /// The communities are packed into exactly one column pair, in
    /// community order: input that already tiles one pair (a single
    /// [`divide_range`] call) is kept as it is; anything else (the shards
    /// of a sharded run) is copied into a fresh pair, and the buffers it
    /// viewed are released.
    pub fn from_communities(
        graph: &CsrGraph,
        communities: Vec<LocalCommunity>,
        threads: usize,
    ) -> Self {
        debug_assert!(
            communities.windows(2).all(|w| w[0].ego <= w[1].ego),
            "communities must be in ego order"
        );
        Self::with_membership(graph, pack(communities), threads)
    }

    /// A division of packed, ego-ordered `communities` with their
    /// membership table built against `graph`.
    fn with_membership(graph: &CsrGraph, communities: Vec<LocalCommunity>, threads: usize) -> Self {
        let membership = Self::build_membership_parallel(graph, &communities, threads);
        DivisionResult {
            communities,
            membership,
        }
    }

    /// The raw adjacency-slot membership table (`u32::MAX` = uncovered) —
    /// public for persistence.
    pub fn membership_table(&self) -> &[u32] {
        &self.membership
    }

    /// Checks that this division was computed on `graph`. Every membership
    /// lookup is keyed by the graph's adjacency slots, so a division of
    /// another world would silently give wrong answers. The table must
    /// cover exactly the graph's `2m` slots, and every slot must name a
    /// community of its ego that holds the slot's friend, with each member
    /// of each community named by exactly one slot. So every lookup finds
    /// the one community that holds its friend.
    pub fn ensure_matches(&self, graph: &CsrGraph) -> Result<(), String> {
        let mismatch = |what: String| {
            Err(format!(
                "division does not match the graph: {what} — was the division computed on a \
                 different world?"
            ))
        };
        if self.membership.len() != graph.volume() {
            return mismatch(format!(
                "membership table covers {} adjacency slots, the graph has {}",
                self.membership.len(),
                graph.volume()
            ));
        }
        // One walk per ego over its ascending neighbour list. The ego's
        // communities are a contiguous run `lo..hi` (ego order), each with
        // the ascending members no slot has named yet: the friend in a slot
        // must be the first of those of the community the slot names. A
        // walk per community instead would rescan the neighbour list once
        // for each of the ego's communities.
        let communities = &self.communities;
        let mut rest: Vec<&[NodeId]> = Vec::new();
        let mut lo = 0usize;
        for ego in graph.nodes() {
            let hi = lo
                + communities[lo..]
                    .iter()
                    .take_while(|c| c.ego == ego)
                    .count();
            rest.clear();
            rest.extend(communities[lo..hi].iter().map(|c| &c.members[..]));
            if let Some(i) = rest.iter().position(|m| m.is_empty()) {
                let ci = lo + i;
                return mismatch(format!("community {ci} of ego {} has no members", ego.0));
            }
            let slots = &self.membership[graph.adjacency_offset(ego)..];
            for (&friend, &ci) in graph.neighbors(ego).iter().zip(slots) {
                let unnamed = (ci as usize).checked_sub(lo).and_then(|i| rest.get_mut(i));
                match unnamed.map(|m| (*m, m)) {
                    Some((members, slot)) if members.first() == Some(&friend) => {
                        *slot = &members[1..];
                    }
                    _ => {
                        return mismatch(format!(
                            "the slot of friend {} of ego {} names no community of the ego \
                             that holds the friend",
                            friend.0, ego.0
                        ))
                    }
                }
            }
            if let Some(i) = rest.iter().position(|m| !m.is_empty()) {
                let ci = lo + i;
                return mismatch(format!(
                    "community {ci} holds members that no slot of its ego {} names",
                    ego.0
                ));
            }
            lo = hi;
        }
        if lo != communities.len() {
            return mismatch(format!(
                "community {lo} is out of ego order or its ego is outside the graph"
            ));
        }
        Ok(())
    }

    /// Reassembles a division from untrusted stored parts without
    /// recomputing the membership table (the snapshot load path — loading
    /// the stored table verbatim is what makes round-trips bit-identical).
    /// Validates the cheap invariants: parallel member/tightness arrays and
    /// in-range membership indices.
    pub fn from_raw_parts(
        communities: Vec<LocalCommunity>,
        membership: Vec<u32>,
    ) -> Result<Self, &'static str> {
        for c in &communities {
            if c.members.len() != c.tightness.len() {
                return Err("community members/tightness length mismatch");
            }
        }
        let num = communities.len();
        if membership
            .iter()
            .any(|&m| m != NO_COMMUNITY && (m as usize) >= num)
        {
            return Err("membership index out of community range");
        }
        Ok(DivisionResult {
            communities,
            membership,
        })
    }

    /// Parallel membership-table construction: egos are chunked, each chunk
    /// fills the (contiguous) adjacency-slot range of its egos into a local
    /// buffer, and the buffers are concatenated in ego order. Falls back to
    /// the serial builder when the graph is small. Bit-identical to
    /// [`DivisionResult::build_membership`] for every thread count.
    fn build_membership_parallel(
        graph: &CsrGraph,
        communities: &[LocalCommunity],
        threads: usize,
    ) -> Vec<u32> {
        /// Egos per chunk; membership filling is pure memory traffic, so
        /// chunks can be much coarser than the divide grain.
        const EGO_GRAIN: usize = 1024;
        let n = graph.num_nodes();
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 || n < 2 * EGO_GRAIN {
            return Self::build_membership(graph, communities);
        }
        let chunks: Vec<Vec<u32>> = run_chunked(n, threads, EGO_GRAIN, |range| {
            let base = graph.adjacency_offset(NodeId(range.start as u32));
            let end = graph.adjacency_offset(NodeId(range.end as u32));
            let mut local = vec![NO_COMMUNITY; end - base];
            let lo = communities.partition_point(|c| (c.ego.0 as usize) < range.start);
            let hi = communities.partition_point(|c| (c.ego.0 as usize) < range.end);
            fill_membership(graph, &communities[lo..hi], lo, &mut local, base);
            local
        });
        chunks.concat()
    }

    /// Builds the adjacency-slot membership table for `communities`
    /// computed on `graph`. Shared by the production and reference paths.
    fn build_membership(graph: &CsrGraph, communities: &[LocalCommunity]) -> Vec<u32> {
        let mut membership = vec![NO_COMMUNITY; graph.volume()];
        fill_membership(graph, communities, 0, &mut membership, 0);
        membership
    }
}

/// `communities` with their `members` and `tightness` in exactly one
/// column pair, in community order (see
/// [`DivisionResult::from_communities`]).
fn pack(communities: Vec<LocalCommunity>) -> Vec<LocalCommunity> {
    if Column::tile(communities.iter().map(|c| &c.members))
        && Column::tile(communities.iter().map(|c| &c.tightness))
    {
        return communities;
    }
    let total = communities.iter().map(LocalCommunity::len).sum();
    let mut columns = CommunityColumns::with_capacity(communities.len(), total);
    for c in &communities {
        columns.push(
            c.ego,
            c.members.iter().copied(),
            c.tightness.iter().copied(),
        );
    }
    drop(communities);
    columns.finish()
}

/// Communities under construction, in columnar form: what each Phase I
/// chunk appends to ([`divide_one_with`]) and what
/// [`DivisionResult::from_communities`] and the update splice pack into.
/// [`CommunityColumns::finish`] hands the communities out as views of one
/// shared column pair.
#[derive(Default)]
pub struct CommunityColumns {
    egos: Vec<NodeId>,
    /// `ends[i]` is one past community `i`'s last member.
    ends: Vec<usize>,
    members: Vec<NodeId>,
    tightness: Vec<f32>,
}

impl CommunityColumns {
    fn with_capacity(communities: usize, members: usize) -> Self {
        CommunityColumns {
            egos: Vec::with_capacity(communities),
            ends: Vec::with_capacity(communities),
            members: Vec::with_capacity(members),
            tightness: Vec::with_capacity(members),
        }
    }

    /// Appends one community of `ego`: `members` ascending, `tightness`
    /// parallel to it.
    fn push(
        &mut self,
        ego: NodeId,
        members: impl IntoIterator<Item = NodeId>,
        tightness: impl IntoIterator<Item = f32>,
    ) {
        self.members.extend(members);
        self.tightness.extend(tightness);
        debug_assert_eq!(self.members.len(), self.tightness.len());
        self.egos.push(ego);
        self.ends.push(self.members.len());
    }

    /// Number of communities appended so far.
    fn len(&self) -> usize {
        self.egos.len()
    }

    /// The communities appended so far as `(ego, members, tightness)`.
    fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId], &[f32])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.egos
            .iter()
            .zip(starts.zip(&self.ends))
            .map(|(&ego, (start, &end))| {
                (ego, &self.members[start..end], &self.tightness[start..end])
            })
    }

    /// Appends `other`'s communities after this one's.
    fn append(&mut self, other: &CommunityColumns) {
        let base = self.members.len();
        self.egos.extend_from_slice(&other.egos);
        self.ends.extend(other.ends.iter().map(|&e| base + e));
        self.members.extend_from_slice(&other.members);
        self.tightness.extend_from_slice(&other.tightness);
    }

    /// The communities in append order, each viewing its run of one
    /// shared column pair.
    pub fn finish(self) -> Vec<LocalCommunity> {
        let members = Column::from(self.members);
        let tightness = Column::from(self.tightness);
        let mut start = 0;
        self.egos
            .into_iter()
            .zip(self.ends)
            .map(|(ego, end)| {
                let range = start..end;
                start = end;
                LocalCommunity {
                    ego,
                    members: members.slice(range.clone()),
                    tightness: tightness.slice(range),
                }
            })
            .collect()
    }
}

/// Writes the community indices `first, first + 1, …` of `communities`
/// into the membership slots of their members. `out[0]` is adjacency slot
/// `base`; every ego of `communities` must have its slots inside `out`.
fn fill_membership(
    graph: &CsrGraph,
    communities: &[LocalCommunity],
    first: usize,
    out: &mut [u32],
    base: usize,
) {
    for (offset, c) in communities.iter().enumerate() {
        let slots = &mut out[graph.adjacency_offset(c.ego) - base..];
        let nbrs = graph.neighbors(c.ego);
        // Members are an ascending subset of the ego's (ascending)
        // neighbour list: a forward merge finds each slot in O(deg).
        let mut j = 0usize;
        for &m in &c.members {
            while nbrs[j] != m {
                j += 1;
            }
            slots[j] = (first + offset) as u32;
            j += 1;
        }
    }
}

/// Ego ids per chunk. Small enough that one hub-heavy chunk cannot
/// serialize a call, large enough that the per-chunk bookkeeping (one
/// cursor claim) vanishes against even the cheapest ego networks.
const DIVIDE_GRAIN: usize = 64;

thread_local! {
    /// Per-thread arena for the divide pipeline, reused by every chunk the
    /// thread runs, so the steady-state ego loop allocates nothing. A
    /// scoped thread frees its arena when the call ends; the calling
    /// thread's survives across calls.
    static SCRATCH: RefCell<DivideScratch> = RefCell::new(DivideScratch::default());
}

/// Reusable buffers threaded through [`divide_one_with`].
#[derive(Default)]
pub struct DivideScratch {
    /// Reusable ego-network slot.
    ego_net: EgoNetwork,
    /// Extraction buffers.
    ego: EgoScratch,
    /// Girvan–Newman buffers (mutable graph, Brandes workspace, flat
    /// scores, component tables).
    gn: GnScratch,
    /// Tightness bitmask over local ids — replaces the former per-group
    /// `HashSet<NodeId>`.
    in_group: Vec<bool>,
    /// CSR-style grouping of the partition labels.
    group_offsets: Vec<u32>,
    group_members: Vec<NodeId>,
}

/// Runs Phase I over every node of the graph.
pub fn divide(graph: &CsrGraph, config: &LocecConfig) -> DivisionResult {
    let communities = divide_range(graph, 0..graph.num_nodes() as u32, config);
    DivisionResult::from_communities(graph, communities, config.threads)
}

/// Phase I over a contiguous ego-id range only — the unit of work of a
/// sharded multi-process run (`locec divide --shard i/n`). Returns the
/// range's communities in ego order, viewing one column pair of their own;
/// because every ego's computation is independent, concatenating the
/// outputs of a partition of `0..n` and feeding them to
/// [`DivisionResult::from_communities`] reproduces a single-process
/// [`divide`] bit-identically.
pub fn divide_range(
    graph: &CsrGraph,
    egos: std::ops::Range<u32>,
    config: &LocecConfig,
) -> Vec<LocalCommunity> {
    assert!(
        egos.end as usize <= graph.num_nodes(),
        "ego range {egos:?} exceeds the graph's {} nodes",
        graph.num_nodes()
    );
    divide_indexed(graph, egos.len(), |i| NodeId(egos.start + i as u32), config).finish()
}

/// The parallel loop behind [`divide_range`] and [`divide_egos`]: divides the
/// egos `ego_at(0..len)` in chunks of [`DIVIDE_GRAIN`] indices and
/// concatenates the chunks in index order, so the output is bit-identical
/// for every thread count. Records the `phase1.wall_nanos` span.
fn divide_indexed(
    graph: &CsrGraph,
    len: usize,
    ego_at: impl Fn(usize) -> NodeId + Sync,
    config: &LocecConfig,
) -> CommunityColumns {
    let threads = config.threads.clamp(1, len.max(1));
    let wall = locec_obs::Recorder::global().span("phase1.wall_nanos");
    let chunks: Vec<CommunityColumns> = run_chunked(len, threads, DIVIDE_GRAIN, |range| {
        SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            let mut out = CommunityColumns::default();
            for i in range {
                divide_one_with(graph, ego_at(i), config, scratch, &mut out);
            }
            out
        })
    });
    let mut merged = CommunityColumns::with_capacity(
        chunks.iter().map(CommunityColumns::len).sum(),
        chunks.iter().map(|c| c.members.len()).sum(),
    );
    for chunk in &chunks {
        merged.append(chunk);
    }
    drop(wall);
    merged
}

/// Phase I over an explicit (ascending, deduplicated) ego list — the unit
/// of work of an incremental update, where the dirty egos of a graph delta
/// are scattered across the id range. Runs with the same chunk grain and
/// deterministic chunk-order merge as [`divide_range`], so the result is
/// bit-identical for every thread count.
pub fn divide_egos(graph: &CsrGraph, egos: &[NodeId], config: &LocecConfig) -> Vec<LocalCommunity> {
    divide_egos_columns(graph, egos, config).finish()
}

/// [`divide_egos`] without handing the communities out as views: the
/// incremental update splices them straight from these columns.
fn divide_egos_columns(
    graph: &CsrGraph,
    egos: &[NodeId],
    config: &LocecConfig,
) -> CommunityColumns {
    assert!(
        egos.windows(2).all(|w| w[0] < w[1]),
        "ego list must be ascending and deduplicated"
    );
    if let Some(&last) = egos.last() {
        assert!(
            last.index() < graph.num_nodes(),
            "ego {last:?} exceeds the graph's {} nodes",
            graph.num_nodes()
        );
    }
    divide_indexed(graph, egos.len(), |i| egos[i], config)
}

/// Incremental Phase I: re-divides only the `dirty` egos of an evolved
/// graph and splices the fresh communities into `base` (the division of
/// the pre-delta graph). Provided `dirty` is a superset of the egos whose
/// ego networks changed — [`locec_graph::dirty_egos`] computes exactly
/// that — the result is **bit-identical** to a full [`divide`] of
/// `graph`: clean egos' communities depend only on their (unchanged) ego
/// networks, and the membership table is rebuilt against the evolved
/// graph's adjacency slots.
///
/// Clones `base`; callers that never reuse it call
/// [`divide_update_owned`].
pub fn divide_update(
    graph: &CsrGraph,
    base: &DivisionResult,
    dirty: &[NodeId],
    config: &LocecConfig,
) -> DivisionResult {
    divide_update_owned(graph, base.clone(), dirty, config)
}

/// Owned-base variant of [`divide_update`] for callers that never reuse the
/// base afterwards (the `divide --update` CLI stage): nothing of `base` is
/// cloned, its column pair is released as soon as the splice has copied
/// the clean communities into the new one, and the re-divided communities
/// are copied straight from the columns Phase I wrote them to.
pub fn divide_update_owned(
    graph: &CsrGraph,
    base: DivisionResult,
    dirty: &[NodeId],
    config: &LocecConfig,
) -> DivisionResult {
    let fresh = divide_egos_columns(graph, dirty, config);
    splice(graph, base, dirty, fresh.iter(), config.threads)
}

/// Dirty-ego fraction above which the incremental path stops paying off
/// and an update should fall back to a plain full [`divide`].
///
/// Measured on a 50k-user world (avg degree ≈ 25): the incremental path
/// wins 11.3× at 0.01% churn and 2.1× at 0.1%, but once the dirty set
/// saturates (99.5% of egos at 1% churn) it *loses* at 0.83× — it re-runs
/// nearly every ego and pays the splice on top. The crossover sits near
/// `dirty/n ≈ 0.8` (incremental ≈ full·fraction + splice overhead); 0.75
/// leaves margin. Outputs are bit-identical either way — only wall time
/// differs, so callers can switch freely. To re-measure, compare the
/// per-layer `phase1.update_divide_s` (0.1% batches) and
/// `phase1.update_1pct_s` against `phase1.divide_s` in a traced
/// `benchmark/run.sh --workload update_stream --trace 1` run.
pub const UPDATE_FULL_DIVIDE_FRACTION: f64 = 0.75;

/// Whether an incremental update over `dirty_len` of `num_nodes` egos is
/// expected to be slower than a plain full [`divide`] (see
/// [`UPDATE_FULL_DIVIDE_FRACTION`]).
pub fn update_prefers_full_divide(dirty_len: usize, num_nodes: usize) -> bool {
    num_nodes > 0 && dirty_len as f64 >= UPDATE_FULL_DIVIDE_FRACTION * num_nodes as f64
}

/// The splice step of [`divide_update`], separated so callers that already
/// hold re-divided communities (the `DivisionDelta` snapshot apply path)
/// can reuse it: drops `base`'s communities of `dirty` egos, merges in
/// `fresh` (which must be in ego order and cover only `dirty` egos), and
/// rebuilds the membership table against `graph`. Clean and fresh
/// communities are copied into one new column pair and `base`'s pair is
/// released, so the result holds no bytes of the dirty egos' old
/// communities however many batches are spliced in a row.
pub fn splice_update(
    graph: &CsrGraph,
    base: DivisionResult,
    dirty: &[NodeId],
    fresh: Vec<LocalCommunity>,
    threads: usize,
) -> DivisionResult {
    let fresh = fresh
        .iter()
        .map(|c| (c.ego, &c.members[..], &c.tightness[..]));
    splice(graph, base, dirty, fresh, threads)
}

/// The body of [`splice_update`] and [`divide_update_owned`]: a two-way
/// merge by ego of `base`'s surviving communities and the `fresh`
/// `(ego, members, tightness)` ones, copied straight into one new column
/// pair. The two streams' ego sets are disjoint, so the interleave is
/// unambiguous.
fn splice<'a>(
    graph: &CsrGraph,
    base: DivisionResult,
    dirty: &[NodeId],
    fresh: impl Iterator<Item = (NodeId, &'a [NodeId], &'a [f32])>,
    threads: usize,
) -> DivisionResult {
    debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]));
    // The result partitions every ego network of `graph`.
    let mut packed = CommunityColumns::with_capacity(base.communities.len(), graph.volume());
    let mut fresh = fresh
        .inspect(|f| debug_assert!(dirty.binary_search(&f.0).is_ok()))
        .peekable();
    let clean = base
        .communities
        .iter()
        .filter(|c| dirty.binary_search(&c.ego).is_err());
    for c in clean {
        while let Some((ego, members, tightness)) = fresh.next_if(|f| f.0 < c.ego) {
            packed.push(ego, members.iter().copied(), tightness.iter().copied());
        }
        packed.push(
            c.ego,
            c.members.iter().copied(),
            c.tightness.iter().copied(),
        );
    }
    for (ego, members, tightness) in fresh {
        packed.push(ego, members.iter().copied(), tightness.iter().copied());
    }
    drop(base);
    let communities = packed.finish();
    debug_assert!(communities.windows(2).all(|w| w[0].ego <= w[1].ego));
    DivisionResult::with_membership(graph, communities, threads)
}

/// Splices `chunk` — the communities of one contiguous ego range, in ego
/// order — into `communities` (also in ego order) at the position that
/// keeps the whole list ordered. The chunk's ego range must be disjoint
/// from every ego already present; ranges may otherwise arrive in any
/// order. This is the per-shard step of `locec_store`'s `IncrementalMerge`,
/// which `divide --merge` and the coordinator's streaming merge run on.
pub fn splice_ordered_chunk(communities: &mut Vec<LocalCommunity>, chunk: Vec<LocalCommunity>) {
    let Some(first) = chunk.first() else {
        return;
    };
    let pos = communities.partition_point(|c| c.ego < first.ego);
    debug_assert!(
        communities
            .get(pos)
            .is_none_or(|next| chunk.last().unwrap().ego < next.ego),
        "chunk ego range overlaps already-merged communities"
    );
    communities.splice(pos..pos, chunk);
}

/// Detects the local communities of one ego node using caller-owned
/// scratch, appending them to `out`.
pub fn divide_one_with(
    graph: &CsrGraph,
    ego: NodeId,
    config: &LocecConfig,
    scratch: &mut DivideScratch,
    out: &mut CommunityColumns,
) {
    let metrics = Phase1Metrics::get();
    let t0 = std::time::Instant::now();
    metrics.egos.incr();
    scratch.ego_net.rebuild(graph, ego, &mut scratch.ego);
    let ego_net = &scratch.ego_net;
    let nf = ego_net.num_friends();
    if nf == 0 {
        metrics.ego_nanos.record_since(t0);
        return;
    }

    let partition = detect(ego_net, config, &mut scratch.gn);

    // Group local ids by community label (ascending within each group, as
    // Partition::groups() yields, but into reusable buffers).
    group_members(
        partition.labels(),
        partition.num_communities(),
        &mut scratch.group_offsets,
        &mut scratch.group_members,
    );

    // Reusable membership bitmask for the Eq. 3 tightness counts.
    let mask = &mut scratch.in_group;
    if mask.len() < nf {
        mask.resize(nf, false);
    }

    for gi in 0..partition.num_communities() {
        let group = &scratch.group_members
            [scratch.group_offsets[gi] as usize..scratch.group_offsets[gi + 1] as usize];
        if group.is_empty() {
            continue;
        }
        for &l in group {
            mask[l.index()] = true;
        }
        out.push(
            ego,
            group.iter().map(|&l| ego_net.to_global(l)),
            group.iter().map(|&l| {
                let friends_in_c = ego_net
                    .graph
                    .neighbors(l)
                    .iter()
                    .filter(|w| mask[w.index()])
                    .count();
                let friends_in_ego = ego_net.friend_degree(l);
                tightness(friends_in_c, friends_in_ego, group.len())
            }),
        );
        for &l in group {
            mask[l.index()] = false;
        }
    }
    metrics.ego_nanos.record_since(t0);
}

/// Cached global-recorder handles for the Phase I hot loop. Counter
/// totals (egos, per-detector runs, fallbacks, Girvan–Newman's removals,
/// splits, Brandes sources and bound stops) are deterministic for a given
/// graph + config and therefore identical across thread counts; the
/// ego-latency histogram is the per-ego timing engine comparisons need.
struct Phase1Metrics {
    egos: locec_obs::Counter,
    gn_runs: locec_obs::Counter,
    gn_removals: locec_obs::Counter,
    gn_splits: locec_obs::Counter,
    gn_sources: locec_obs::Counter,
    gn_bound_stops: locec_obs::Counter,
    louvain_runs: locec_obs::Counter,
    labelprop_runs: locec_obs::Counter,
    louvain_fallbacks: locec_obs::Counter,
    ego_nanos: locec_obs::Histogram,
}

impl Phase1Metrics {
    fn get() -> &'static Phase1Metrics {
        static METRICS: std::sync::OnceLock<Phase1Metrics> = std::sync::OnceLock::new();
        METRICS.get_or_init(|| {
            let rec = locec_obs::Recorder::global();
            Phase1Metrics {
                egos: rec.counter("phase1.egos"),
                gn_runs: rec.counter("phase1.gn_runs"),
                gn_removals: rec.counter("phase1.gn_removals"),
                gn_splits: rec.counter("phase1.gn_splits"),
                gn_sources: rec.counter("phase1.gn_sources"),
                gn_bound_stops: rec.counter("phase1.gn_bound_stops"),
                louvain_runs: rec.counter("phase1.louvain_runs"),
                labelprop_runs: rec.counter("phase1.labelprop_runs"),
                louvain_fallbacks: rec.counter("phase1.louvain_fallbacks"),
                ego_nanos: rec.histogram("phase1.ego_nanos"),
            }
        })
    }
}

/// Runs the configured detector on one ego network.
fn detect(
    ego_net: &EgoNetwork,
    config: &LocecConfig,
    gn_scratch: &mut GnScratch,
) -> locec_community::Partition {
    let metrics = Phase1Metrics::get();
    let g = &ego_net.graph;
    let detector = if ego_net.num_friends() > config.gn_max_friends
        && config.detector == CommunityDetector::GirvanNewman
    {
        metrics.louvain_fallbacks.incr();
        CommunityDetector::Louvain
    } else {
        config.detector
    };
    match detector {
        CommunityDetector::GirvanNewman => {
            metrics.gn_runs.incr();
            let partition = girvan_newman_with(g, &Default::default(), gn_scratch);
            metrics.gn_removals.add(gn_scratch.removals);
            metrics.gn_splits.add(gn_scratch.splits);
            metrics.gn_sources.add(gn_scratch.brandes_sources);
            metrics
                .gn_bound_stops
                .add(u64::from(gn_scratch.bound_stopped));
            partition
        }
        CommunityDetector::Louvain => {
            metrics.louvain_runs.incr();
            louvain(g, config.seed)
        }
        CommunityDetector::LabelPropagation => {
            metrics.labelprop_runs.incr();
            label_propagation(g, config.seed, 50)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locec_graph::GraphBuilder;

    /// The paper's running example (Fig. 1 / Fig. 7): U1's ego network has
    /// communities C1 = {U2,U3,U4} and C2 = {U5,U6}.
    fn fig7_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(9);
        for (u, v) in [
            (0u32, 1u32),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (3, 5),
            (5, 6),
            (6, 7),
            (6, 8),
            (7, 8),
        ] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    fn config() -> LocecConfig {
        LocecConfig {
            threads: 2,
            ..LocecConfig::fast()
        }
    }

    #[test]
    fn paper_example_communities_found() {
        let g = fig7_graph();
        let division = divide(&g, &config());
        // U1 = node 0: communities {1,2,3} and {4,5}.
        let c_u2 = division.community_of(&g, NodeId(0), NodeId(1)).unwrap();
        assert_eq!(*c_u2.members, [NodeId(1), NodeId(2), NodeId(3)]);
        let c_u5 = division.community_of(&g, NodeId(0), NodeId(4)).unwrap();
        assert_eq!(*c_u5.members, [NodeId(4), NodeId(5)]);
    }

    #[test]
    fn paper_tightness_example() {
        // §IV-B: tightness(U2,C1) = tightness(U3,C1) = 1;
        // tightness(U4,C1) = 2/2 × 2/3 = 0.67.
        let g = fig7_graph();
        let division = divide(&g, &config());
        let c1 = division.community_of(&g, NodeId(0), NodeId(1)).unwrap();
        assert_eq!(c1.member_tightness(NodeId(1)), Some(1.0));
        assert_eq!(c1.member_tightness(NodeId(2)), Some(1.0));
        let t4 = c1.member_tightness(NodeId(3)).unwrap();
        assert!((t4 - 2.0 / 3.0).abs() < 1e-6, "tightness(U4,C1) = {t4}");
    }

    #[test]
    fn every_friend_pair_is_covered() {
        let g = fig7_graph();
        let division = divide(&g, &config());
        for (_, u, v) in g.edges() {
            assert!(
                division.community_of(&g, u, v).is_some(),
                "missing community of {v:?} in {u:?}'s ego network"
            );
            assert!(division.community_of(&g, v, u).is_some());
        }
    }

    #[test]
    fn communities_partition_each_ego_network() {
        let g = fig7_graph();
        let division = divide(&g, &config());
        for ego in g.nodes() {
            let mut seen = std::collections::HashSet::new();
            for c in division.communities.iter().filter(|c| c.ego == ego) {
                for m in &c.members {
                    assert!(seen.insert(*m), "friend {m:?} in two communities");
                }
            }
            let friends: std::collections::HashSet<NodeId> =
                g.neighbors(ego).iter().copied().collect();
            assert_eq!(seen, friends, "partition must cover ego {ego:?}");
        }
    }

    #[test]
    fn tightness_in_unit_interval() {
        let g = fig7_graph();
        let division = divide(&g, &config());
        for c in &division.communities {
            for &t in &c.tightness {
                assert!((0.0..=1.0).contains(&t), "tightness {t} out of range");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let g = fig7_graph();
        let run = |threads: usize| {
            divide(
                &g,
                &LocecConfig {
                    threads,
                    ..config()
                },
            )
        };
        let d1 = run(1);
        for threads in [2, 4, 8] {
            let dt = run(threads);
            assert_eq!(d1.num_communities(), dt.num_communities());
            for (a, b) in d1.communities.iter().zip(&dt.communities) {
                assert_eq!(a.ego, b.ego);
                assert_eq!(a.members, b.members);
                assert_eq!(a.tightness, b.tightness);
            }
            assert_eq!(d1.membership, dt.membership);
        }
    }

    #[test]
    fn matches_reference_implementation() {
        let g = fig7_graph();
        let division = divide(&g, &config());
        let reference = reference::divide_reference(&g, &config());
        assert_eq!(division.num_communities(), reference.num_communities());
        for (a, b) in division.communities.iter().zip(&reference.communities) {
            assert_eq!(a.ego, b.ego);
            assert_eq!(a.members, b.members);
            assert_eq!(a.tightness, b.tightness);
        }
        assert_eq!(division.membership, reference.membership);
    }

    #[test]
    fn sharded_ranges_merge_to_the_full_division() {
        let g = fig7_graph();
        let cfg = config();
        let full = divide(&g, &cfg);
        let n = g.num_nodes() as u32;
        for shards in [1u32, 2, 3, 9] {
            let mut communities = Vec::new();
            for i in 0..shards {
                let start = i * n / shards;
                let end = (i + 1) * n / shards;
                communities.extend(divide_range(&g, start..end, &cfg));
            }
            let merged = DivisionResult::from_communities(&g, communities, cfg.threads);
            assert_eq!(merged.num_communities(), full.num_communities());
            for (a, b) in merged.communities.iter().zip(&full.communities) {
                assert_eq!(a.ego, b.ego);
                assert_eq!(a.members, b.members);
                assert_eq!(a.tightness, b.tightness);
            }
            assert_eq!(merged.membership, full.membership, "{shards} shards");
        }
    }

    #[test]
    fn parallel_membership_matches_serial_on_a_large_graph() {
        // Large enough to cross the parallel threshold; a ring with chords
        // keeps every ego network tiny so label propagation is instant.
        let n = 5000u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            b.add_edge(NodeId(v), NodeId((v + 1) % n));
            b.add_edge(NodeId(v), NodeId((v + 7) % n));
        }
        let g = b.build();
        let cfg = LocecConfig {
            detector: CommunityDetector::LabelPropagation,
            threads: 4,
            ..LocecConfig::fast()
        };
        let d = divide(&g, &cfg);
        let serial = DivisionResult::build_membership(&g, &d.communities);
        assert_eq!(d.membership, serial);
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        let g = fig7_graph();
        let d = divide(&g, &config());
        let rebuilt =
            DivisionResult::from_raw_parts(d.communities.clone(), d.membership_table().to_vec())
                .unwrap();
        assert_eq!(rebuilt.membership, d.membership);

        let mut bad = d.membership_table().to_vec();
        bad[0] = d.num_communities() as u32; // out of range, not NO_COMMUNITY
        assert!(DivisionResult::from_raw_parts(d.communities.clone(), bad).is_err());

        let mut torn = d.communities.clone();
        torn[0].tightness = torn[0].tightness.slice(0..torn[0].len() - 1);
        assert!(DivisionResult::from_raw_parts(torn, d.membership_table().to_vec()).is_err());
    }

    #[test]
    fn ensure_matches_rejects_parts_that_pass_raw_validation() {
        let g = fig7_graph();
        let d = divide(&g, &config());
        d.ensure_matches(&g).unwrap();
        let check = |communities: Vec<LocalCommunity>, membership: Vec<u32>| {
            DivisionResult::from_raw_parts(communities, membership)
                .expect("passes the raw-parts checks")
                .ensure_matches(&g)
                .unwrap_err()
        };
        let table = d.membership_table();
        let misnamed = "names no community of the ego that holds the friend";

        // An uncovered slot.
        let mut uncovered = table.to_vec();
        uncovered[0] = NO_COMMUNITY;
        assert!(check(d.communities.clone(), uncovered).contains(misnamed));

        // An in-range index of a community that lacks the slot's friend.
        let other = (0..d.num_communities() as u32)
            .find(|&c| c != table[0])
            .unwrap();
        let mut wrong = table.to_vec();
        wrong[0] = other;
        assert!(check(d.communities.clone(), wrong).contains(misnamed));

        // A member dropped from its community: its slot still names it.
        let mut shrunk = d.communities.clone();
        let big = shrunk.iter().position(|c| c.len() > 1).unwrap();
        let kept = 0..shrunk[big].len() - 1;
        shrunk[big].members = shrunk[big].members.slice(kept.clone());
        shrunk[big].tightness = shrunk[big].tightness.slice(kept);
        assert!(check(shrunk, table.to_vec()).contains(misnamed));

        // A member that is not a friend of its ego, after every real one.
        let (ci, outsider) = d
            .communities
            .iter()
            .enumerate()
            .find_map(|(ci, c)| {
                let last = *c.members.last().unwrap();
                g.nodes()
                    .find(|&v| v > last && v != c.ego && !g.has_edge(c.ego, v))
                    .map(|v| (ci, v))
            })
            .unwrap();
        let mut stranger = d.communities.clone();
        let mut members = stranger[ci].members.to_vec();
        members.push(outsider);
        stranger[ci].members = members.into();
        let mut tightness = stranger[ci].tightness.to_vec();
        tightness.push(1.0);
        stranger[ci].tightness = tightness.into();
        let err = check(stranger, table.to_vec());
        assert!(err.contains("holds members that no slot"), "{err}");

        // A community of an ego outside the graph (no slot names it, so
        // every slot still checks out).
        let mut far = d.communities.clone();
        far.push(LocalCommunity {
            ego: NodeId(g.num_nodes() as u32),
            members: vec![NodeId(0)].into(),
            tightness: vec![1.0].into(),
        });
        let err = check(far, table.to_vec());
        assert!(err.contains("outside the graph"), "{err}");

        // An empty community of the last ego: its cursor ends at its
        // length of 0, yet divide never writes one.
        let mut hollow = d.communities.clone();
        hollow.push(LocalCommunity {
            ego: d.communities.last().unwrap().ego,
            members: Column::default(),
            tightness: Column::default(),
        });
        let err = check(hollow, table.to_vec());
        assert!(err.contains("has no members"), "{err}");
    }

    #[test]
    fn divide_update_is_bit_identical_to_full_divide() {
        use locec_graph::{dirty_egos, GraphDelta};
        let g = fig7_graph();
        let cfg = config();
        let base = divide(&g, &cfg);
        // Changes localized in the 5-6-7-8 tail so the dense cluster's
        // egos (1, 2) stay clean and the splice path is actually exercised.
        let delta = GraphDelta::new(9, vec![(5, 7)], vec![(6, 8)]).unwrap();
        let applied = g.apply_delta(&delta).unwrap();
        let dirty = dirty_egos(&g, &delta);
        assert!(dirty.len() < g.num_nodes(), "some ego must stay clean");
        for threads in [1usize, 2, 8] {
            let cfg_t = LocecConfig {
                threads,
                ..cfg.clone()
            };
            let updated = divide_update(&applied.graph, &base, &dirty, &cfg_t);
            let full = divide(&applied.graph, &cfg_t);
            assert_eq!(updated.num_communities(), full.num_communities());
            for (a, b) in updated.communities.iter().zip(&full.communities) {
                assert_eq!(a.ego, b.ego);
                assert_eq!(a.members, b.members);
                assert_eq!(
                    a.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                    b.tightness.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                );
            }
            assert_eq!(updated.membership, full.membership, "{threads} threads");
        }
    }

    #[test]
    fn divide_update_with_empty_dirty_set_rekeys_the_base() {
        let g = fig7_graph();
        let cfg = config();
        let base = divide(&g, &cfg);
        let updated = divide_update(&g, &base, &[], &cfg);
        assert_eq!(updated.num_communities(), base.num_communities());
        assert_eq!(updated.membership, base.membership);
    }

    #[test]
    fn divide_egos_matches_divide_range_on_contiguous_ids() {
        let g = fig7_graph();
        let cfg = config();
        let all: Vec<NodeId> = g.nodes().collect();
        let by_list = divide_egos(&g, &all, &cfg);
        let by_range = divide_range(&g, 0..g.num_nodes() as u32, &cfg);
        assert_eq!(by_list.len(), by_range.len());
        for (a, b) in by_list.iter().zip(&by_range) {
            assert_eq!(a.ego, b.ego);
            assert_eq!(a.members, b.members);
            assert_eq!(a.tightness, b.tightness);
        }
    }

    #[test]
    fn divide_update_handles_an_ego_losing_all_friends() {
        use locec_graph::{dirty_egos, GraphDelta};
        // Star: removing every spoke of node 3 empties its ego network.
        let mut b = GraphBuilder::new(4);
        for v in 1..4u32 {
            b.add_edge(NodeId(0), NodeId(v));
        }
        let g = b.build();
        let cfg = config();
        let base = divide(&g, &cfg);
        let delta = GraphDelta::new(4, vec![], vec![(0, 3)]).unwrap();
        let applied = g.apply_delta(&delta).unwrap();
        let dirty = dirty_egos(&g, &delta);
        let updated = divide_update(&applied.graph, &base, &dirty, &cfg);
        let full = divide(&applied.graph, &cfg);
        assert_eq!(updated.num_communities(), full.num_communities());
        assert_eq!(updated.membership, full.membership);
    }

    #[test]
    fn splice_ordered_chunk_handles_empty_and_boundary_chunks() {
        let g = fig7_graph();
        let cfg = config();
        let all = divide_range(&g, 0..9, &cfg);
        let mut acc: Vec<LocalCommunity> = Vec::new();
        splice_ordered_chunk(&mut acc, Vec::new()); // empty chunk is a no-op
        assert!(acc.is_empty());
        splice_ordered_chunk(&mut acc, divide_range(&g, 3..6, &cfg));
        splice_ordered_chunk(&mut acc, divide_range(&g, 6..9, &cfg));
        splice_ordered_chunk(&mut acc, divide_range(&g, 0..3, &cfg));
        assert_eq!(acc.len(), all.len());
        for (a, b) in acc.iter().zip(&all) {
            assert_eq!(a.ego, b.ego);
            assert_eq!(a.members, b.members);
        }
    }

    #[test]
    fn singleton_friend_gets_tightness_one() {
        // Star graph: ego 0's friends are mutually unconnected.
        let mut b = GraphBuilder::new(4);
        for v in 1..4u32 {
            b.add_edge(NodeId(0), NodeId(v));
        }
        let g = b.build();
        let division = divide(&g, &config());
        for v in 1..4u32 {
            let c = division.community_of(&g, NodeId(0), NodeId(v)).unwrap();
            assert_eq!(c.len(), 1);
            assert_eq!(c.tightness[0], 1.0);
        }
    }
}
