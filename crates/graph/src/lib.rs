#![forbid(unsafe_code)]
//! Graph substrate for the LoCEC reproduction.
//!
//! The LoCEC paper (Song et al., ICDE 2020) operates on the WeChat friendship
//! graph: an *undirected*, *unweighted*, simple graph with billions of nodes.
//! This crate provides the graph machinery every other crate builds on:
//!
//! * [`GraphBuilder`] — mutable edge-list accumulator with deduplication.
//! * [`CsrGraph`] — immutable compressed-sparse-row graph with stable edge
//!   ids, sorted adjacency (O(log d) edge lookup) and O(1) degree queries.
//! * [`EgoNetwork`] — the Phase I "division" primitive: the subgraph induced
//!   by a node's neighbours, *excluding the ego node itself* (paper §IV-A).
//! * [`MutableGraph`] — adjacency-list view supporting edge deletion, used by
//!   the reference Girvan–Newman implementation and by tests.
//! * [`GraphDelta`] — batched edge insertions/removals, applied with
//!   per-edge provenance plus the [`dirty_egos`] locality computation that
//!   powers incremental Phase I re-division.
//! * [`traversal`] — BFS, connected components and related utilities.
//! * [`dot`] — Graphviz export used to regenerate Figure 5.
//!
//! Everything is implemented from scratch on `std` (plus `serde` for
//! persistence); node and edge indices are `u32` to halve memory traffic on
//! large graphs, per the sizing guidance of the Rust Performance Book.

pub mod builder;
pub mod csr;
pub mod delta;
pub mod dot;
pub mod ego;
pub mod ids;
pub mod mutable;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::{dirty_egos, DeltaApplication, EdgeOrigin, GraphDelta};
pub use ego::{EgoNetwork, EgoScratch};
pub use ids::{EdgeId, NodeId};
pub use mutable::MutableGraph;
pub use traversal::{
    bfs_order, connected_components, connected_components_into, group_members, AdjacencyView,
    ComponentLabels,
};
