//! Shared harness for the benchmark suite and the table/figure
//! reproduction binary.

pub mod fixtures;
pub mod report;

pub use fixtures::{
    apply_history_gr, apply_history_gr_opts, apply_history_rstar, fresh_gr_tree, fresh_rstar_tree,
    run_queries_gr, run_queries_rstar, GrFixture, QueryStats, RStarFixture,
};
pub use report::Table;
