//! Shared harness code for the experiment binaries.
//!
//! Each reproduced table and figure of the paper has a binary under
//! `src/bin/` (`fig1_spotlight_recall`, `table5_spotlight_static`, …), and
//! each one runs the partitioner, the single-node `Propeller` service or the
//! baselines. This library holds what they share: the ACG group size and
//! small table-printing helpers. Run everything with `cargo run --release -p
//! propeller-bench --bin run_all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;

/// The paper's dataset scales (§V-B).
pub mod scales {
    /// Files per ACG group in the single-node experiments.
    pub const GROUP_FILES: u64 = 1_000;
}
