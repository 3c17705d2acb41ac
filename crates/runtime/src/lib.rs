#![forbid(unsafe_code)]
//! Execution runtime for LoCEC's parallel phases.
//!
//! The paper's scale story (§V-D: "each node is parsed separately in a
//! streaming scheme") makes every phase embarrassingly parallel over nodes,
//! but static sharding loses on real social graphs: the power-law degree
//! distribution concentrates the heaviest ego networks in a few shards,
//! serializing the whole call on the unlucky thread.
//!
//! [`run_chunked`] is a fork-join over small fixed-grain chunks claimed from
//! a shared cursor (dynamic self-scheduling) by the caller and a few
//! `std::thread::scope` threads, so a thread that draws a cheap chunk
//! immediately goes back for more instead of idling behind a hub node.
//! Outputs are placed in chunk order, which keeps every parallel
//! computation bit-identical across thread counts. Threads live for one
//! call; the standard library's scope, not this crate, proves the borrows
//! sound.

mod pool;

pub use pool::run_chunked;
