//! Root-cause drift analysis: FIM, set reduction, counterfactual analysis.
//!
//! This is the cloud-side brain of Nazar (§3.3 of the paper). Given the
//! global [`nazar_log::DriftLog`], it:
//!
//! 1. mines *frequent itemsets* of attribute values associated with drift
//!    (apriori, [`fim::mine`]), scoring each candidate cause with the four
//!    metrics of Table 3 — occurrence, support, confidence and risk ratio —
//!    and ranking by risk ratio;
//! 2. applies *set reduction* ([`reduction::set_reduction`]): merges causes
//!    that are attribute-supersets of a higher-ranked cause (e.g.
//!    `{snow, new-york}` into `{snow}`), since adapting to the coarse cause
//!    already covers them;
//! 3. applies *counterfactual analysis*
//!    ([`counterfactual::counterfactual_filter`]): accepts causes in rank
//!    order, counterfactually clears the drift flags they explain, and keeps
//!    a lower-ranked cause only if it remains statistically significant.
//!
//! [`analyze`] chains all three (Algorithm 1); [`AnalysisVariant`] selects
//! prefixes of the pipeline for the Table 5 ablation. [`fms`] implements the
//! Fowlkes–Mallows score used to grade the analysis against ground truth.
//!
//! # Example
//!
//! ```
//! use nazar_analysis::{analyze, FimConfig};
//!
//! let log = nazar_log::paper_example_log();
//! let causes = analyze(&log, &FimConfig::default());
//! // Snow is the paper's ground-truth root cause for the example log.
//! assert_eq!(causes[0].attrs[0].value, "snow");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counterfactual;
pub mod fim;
pub mod fms;
pub mod reduction;

mod metrics;

pub use fim::{mine, FimTable, RankedCause};
pub use fms::fowlkes_mallows;
pub use metrics::{CauseStats, FimConfig, RankingMetric};

use nazar_log::DriftLog;
use serde::{Deserialize, Serialize};

/// Which frequent-itemset mining algorithm powers the first stage: apriori,
/// the one the paper implements (over SQL, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FimAlgorithm {
    /// Level-wise candidate generation with counting queries.
    #[default]
    Apriori,
}

/// Which prefix of the analysis pipeline to run (the Table 5 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisVariant {
    /// FIM only: every ranked, threshold-passing itemset is a root cause.
    FimOnly,
    /// FIM followed by set reduction.
    FimWithReduction,
    /// The full pipeline: FIM, set reduction, counterfactual analysis.
    Full,
}

/// Runs the root-cause analysis pipeline (Algorithm 1 of the paper) and
/// returns the final root causes in rank order.
pub fn analyze(log: &DriftLog, config: &FimConfig) -> Vec<RankedCause> {
    analyze_variant(log, config, AnalysisVariant::Full)
}

/// Runs a chosen prefix of the pipeline (see [`AnalysisVariant`]).
pub fn analyze_variant(
    log: &DriftLog,
    config: &FimConfig,
    variant: AnalysisVariant,
) -> Vec<RankedCause> {
    analyze_variant_with(log, config, variant, FimAlgorithm::default())
}

/// [`analyze_variant`] with the mining algorithm named by the caller.
pub fn analyze_variant_with(
    log: &DriftLog,
    config: &FimConfig,
    variant: AnalysisVariant,
    algorithm: FimAlgorithm,
) -> Vec<RankedCause> {
    let _span = nazar_obs::span_detail("analysis", || format!("rows={}", log.num_rows()));
    let table = {
        let _fim = nazar_obs::span_detail("fim", || "apriori".to_string());
        match algorithm {
            FimAlgorithm::Apriori => fim::mine(log, config),
        }
    };
    match variant {
        AnalysisVariant::FimOnly => table.causes,
        AnalysisVariant::FimWithReduction => {
            let _reduce = nazar_obs::span("reduction");
            reduction::set_reduction_with(config.ranking, table.causes)
                .into_iter()
                .map(|assoc| assoc.key)
                .collect()
        }
        AnalysisVariant::Full => {
            let associations = {
                let _reduce = nazar_obs::span("reduction");
                reduction::set_reduction_with(config.ranking, table.causes)
            };
            let _cf = nazar_obs::span("counterfactual");
            counterfactual::counterfactual_filter(log, config, associations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_finds_snow_only_in_paper_example() {
        let log = nazar_log::paper_example_log();
        let causes = analyze(&log, &FimConfig::default());
        // Set reduction folds {snow, *} into {snow}; counterfactually
        // removing snow's drift rows leaves only the one false positive,
        // which no remaining cause can explain significantly.
        assert_eq!(causes.len(), 1, "causes: {causes:?}");
        assert_eq!(causes[0].attrs.len(), 1);
        assert_eq!(causes[0].attrs[0].value, "snow");
    }

    #[test]
    fn fim_only_keeps_redundant_causes() {
        let log = nazar_log::paper_example_log();
        let fim_only = analyze_variant(&log, &FimConfig::default(), AnalysisVariant::FimOnly);
        let full = analyze(&log, &FimConfig::default());
        assert!(fim_only.len() > full.len());
    }
}
