//! Shared harness code for the per-table / per-figure experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a regenerating
//! binary in `src/bin/` (see DESIGN.md §3 for the index); this library holds
//! the code they share: workload construction, the 17-partition adaptation
//! setup of §5.5/§5.6, and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partitions;
pub mod report;
pub mod setup;

pub use partitions::{seventeen_partitions, CausePartition, PartitionConfig};
pub use report::{bench_out, bench_row, median_ns, merge_bench_json, ObsRun, Table};
pub use setup::{animals_model, AnimalsSetup};

use nazar_adapt::{AdaptMethod, MemoConfig, TentConfig};

/// The canonical TENT configuration used across the adaptation experiments
/// (calibrated so Table 4's shape reproduces; see `bin/calibrate.rs`).
pub fn tent_method() -> AdaptMethod {
    AdaptMethod::Tent(TentConfig {
        lr: 0.008,
        epochs: 3,
        ..TentConfig::default()
    })
}

/// The canonical MEMO configuration.
pub fn memo_method() -> AdaptMethod {
    AdaptMethod::Memo(MemoConfig {
        lr: 0.004,
        epochs: 1,
        ..MemoConfig::default()
    })
}
