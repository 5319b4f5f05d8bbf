//! # experiments
//!
//! The evaluation harness: regenerates **every table and figure** of the
//! paper's Sections 5 and 6 against the simulated machine.
//!
//! | Paper item | Function | Binary flag |
//! |---|---|---|
//! | Table 2 (GPU configurations)            | [`tables::table2`]   | `--table2` |
//! | Table 3 (measured `L`, `τ_sync`, `T_sync`) | [`tables::table3`] | `--table3` |
//! | Table 4 (measured `Citer`)              | [`tables::table4`]   | `--table4` |
//! | Figure 3 + §5.3 RMSE headline           | [`figures::figure3`] | `--fig3` |
//! | Figure 4 (`T_alg` surface, Heat2D)      | [`figures::figure4`] | `--fig4` |
//! | Figure 5 (Gradient2D candidate scatter) | [`figures::figure5`] | `--fig5` |
//! | Figure 6 (strategy GFLOPS comparison)   | [`figures::figure6`] | `--fig6` |
//! | §6.1 solver comparison                  | [`extensions::solver_comparison`] | `--solver` |
//! | time tiling vs wavefront-parallel       | [`extensions::time_tiling_comparison`] | `--compare-wavefront` |
//! | model-variant + machine ablations       | [`extensions::model_variant_ablation`], [`extensions::machine_effect_ablation`] | `--ablation` |
//! | executor fast-path + memoization bench  | [`bench::bench_exec`] | `--bench-exec` |
//!
//! Every experiment runs at the paper's exact problem sizes by default
//! (`--scale paper`); `--scale reduced` shrinks the size grids (same
//! shape) for quick runs and for the Criterion benches. Results are
//! written as JSON under the output directory and summarized on stdout;
//! `EXPERIMENTS.md` records paper-vs-measured values.

pub mod ascii;
pub mod bench;
pub mod benchdiff;
pub mod context;
pub mod extensions;
pub mod figures;
pub mod flags;
pub mod manifest;
pub mod output;
pub mod rmse;
pub mod servebench;
pub mod tables;

pub use context::{ExperimentScale, Lab};
pub use manifest::RunManifest;

/// The default output directory for result files.
pub const DEFAULT_OUT_DIR: &str = "results";

/// The deterministic seed of every sampled micro-benchmark (`Citer`
/// measurement); recorded in each run's [`RunManifest`].
pub const SEED: u64 = 0x5EED;
