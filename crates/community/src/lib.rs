#![forbid(unsafe_code)]
//! Community detection substrate for LoCEC.
//!
//! LoCEC Phase I runs the Girvan–Newman algorithm inside every ego network
//! (paper §IV-A, citing Girvan & Newman, PNAS 2002). This crate implements:
//!
//! * [`betweenness`] — Brandes' algorithm for exact edge betweenness on
//!   unweighted graphs, the inner loop of Girvan–Newman.
//! * [`girvan_newman`] — the divisive GN algorithm with
//!   modularity-maximizing cut selection over the dendrogram.
//! * [`modularity`] — Newman modularity of a partition.
//! * [`louvain`] — the Louvain method, used as a faster alternative for
//!   oversized ego networks and as an ablation of the paper's design choice.
//! * [`label_prop`] — asynchronous label propagation, a second ablation.
//! * [`partition`] — the [`Partition`] type shared by all detectors.

pub mod betweenness;
pub mod girvan_newman;
pub mod label_prop;
pub mod louvain;
pub mod modularity;
pub mod partition;

pub use betweenness::{edge_betweenness, edge_betweenness_flat, edge_betweenness_from};
pub use girvan_newman::{
    girvan_newman, girvan_newman_reference, girvan_newman_with, GirvanNewmanConfig, GnScratch,
};
pub use label_prop::label_propagation;
pub use louvain::louvain;
pub use modularity::{modularity, modularity_of_labels};
pub use partition::Partition;
