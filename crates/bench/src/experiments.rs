//! The experiments and their registry. An experiment is a plain function
//! `fn(&World) -> Report`; adding one means writing it in the module of its
//! kind and listing it in [`EXPERIMENTS`].

mod accuracy;
mod data;
mod scaling;

pub use accuracy::fig10a;

use crate::{Report, World};

/// An experiment: regenerates one table or figure of the paper.
pub type Experiment = fn(&World) -> Report;

/// Every experiment `paper` can run, by command-line id, in the order
/// `paper all` runs them.
pub const EXPERIMENTS: [(&str, Experiment); 15] = [
    ("fig2", data::fig2),
    ("fig3", data::fig3),
    ("fig4", data::fig4),
    ("fig5", data::fig5),
    ("fig10", accuracy::fig10),
    ("fig11", accuracy::fig11),
    ("fig12", scaling::fig12),
    ("fig13", accuracy::fig13),
    ("fig14", accuracy::fig14),
    ("table1", data::table1),
    ("table2", data::table2),
    ("table4", accuracy::table4),
    ("table5", accuracy::table5),
    ("table6", scaling::table6),
    ("ablation", accuracy::ablation),
];
