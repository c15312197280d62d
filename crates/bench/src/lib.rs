//! # gdmp-bench — harness that regenerates every figure and table
//!
//! Each public function reproduces one artifact of the paper's evaluation;
//! the `figures` binary prints them in the paper's layout, and the
//! Criterion benches reuse the same code for component micro-benchmarks.
//! [`baselines`] renders the committed `BENCH_*.json` files that
//! `bench_compare` holds the model to.

pub mod baselines;
pub mod catalog;
pub mod cli;
pub mod figures;
pub mod grid;
pub mod parallel;
pub mod report;
pub mod tables;
pub mod timeline;

pub use catalog::{
    run_catalog_bench, run_catalog_grid, CatalogBenchPoint, CATALOG_LOOKUPS, CATALOG_SITES,
};
pub use cli::ScenarioArgs;
pub use figures::{fig_sweep, fig_sweep_on, FigRow};
pub use grid::{
    grid_soak_point, grid_soak_points, run_control_plane_bench, run_control_plane_grid,
    ControlPlanePoint, GridSoakPoint, GRID_OPS, GRID_SITES, SOAK_PRESETS,
};
pub use parallel::{default_workers, par_map};
pub use report::{Cell, Report};
pub use tables::{
    buffer_sweep, motivation_table, objcost_table, objrep_table, staging_table, stripe_table,
    tuning_table, BufferRow, MotivationRow, ObjCostRow, ObjRepRow, StageRow, StripeRow,
    TuningReport,
};
pub use timeline::{render_timeline, timeline_tsv};
