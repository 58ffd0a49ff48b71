//! Shared fixtures and table rendering for `repro`, the binary that
//! regenerates the paper's exhibits.

pub mod fixtures;
pub mod report;

pub use fixtures::{
    apply_history_gr, apply_history_gr_opts, apply_history_rstar, fresh_gr_tree, fresh_rstar_tree,
    run_queries_gr, run_queries_rstar, GrFixture, QueryStats, RStarFixture,
};
pub use report::Table;
