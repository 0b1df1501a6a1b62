//! The cloud side of Nazar: ingestion, analysis, adaptation, deployment.
//!
//! In the paper this is Amazon Aurora (drift log), an AWS Lambda (root-cause
//! analysis) and GPU instances (adaptation), wired to the device fleet
//! through S3 (DESIGN.md substitution S8). Here the same control flow runs
//! in-process:
//!
//! 1. devices replay a time window and ship drift-log entries + sampled
//!    inputs ([`nazar_device::FleetSim::process_window_parts`]);
//! 2. the [`Orchestrator`] ingests the entries, runs the root-cause analysis
//!    pipeline ([`nazar_analysis::analyze_variant`]);
//! 3. for each discovered cause it gathers the matching sampled inputs,
//!    runs self-supervised adaptation ([`nazar_adapt::adapt_to_patch`]), and
//!    deploys the resulting BN patch back to the fleet tagged with the
//!    cause's attributes;
//! 4. accuracy/detection statistics are recorded per window.
//!
//! [`Orchestrator::step`] runs one window through those stages and returns
//! its [`WindowReport`]; [`Orchestrator::run`] folds the steps into a
//! [`RunResult`]. Between steps the ML-ops team can approve or dismiss the
//! window's alerts in [`OperationMode::Manual`].
//!
//! [`Strategy`] selects between full Nazar, the adapt-all baseline (one
//! model continuously adapted on all uploads — Ekya-style), and the
//! non-adapted baseline, so every end-to-end figure (Fig. 8/9) is a matter
//! of running the same loop three times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod experiment;
mod orchestrator;
pub mod timing;

pub use backend::{FleetBackend, SchedulerMode};
pub use orchestrator::{
    sanitize_uploads, AlertIndexError, CloudConfig, DriftAlert, OperationMode, Orchestrator,
    RunResult, Strategy, WindowReport,
};
// Re-exported so experiment drivers can configure the transport without
// depending on `nazar-net` directly.
pub use nazar_net::{LinkConfig, NetConfig, NetReport};
