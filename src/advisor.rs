//! The paper's §6.5 "Recommendations", as an API.
//!
//! TSGBench closes with guidelines for selecting TSG methods and
//! evaluation measures per application. This module encodes those
//! guidelines so a downstream user can ask the library directly —
//! each [`Recommendation`] cites the §6.5 clause it implements, and
//! the unit tests pin the exact pairings the paper prescribes.

use tsgb_eval::suite::Measure;
use tsgb_methods::common::MethodId;

/// What the user wants the synthetic data for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseCase {
    /// No specific downstream task yet — first exploration of a new
    /// dataset (§6.5 method clause 1).
    GeneralPurpose,
    /// Autocorrelation-sensitive applications: predictive maintenance,
    /// stock-market analysis, forecasting (§6.5 method clause 2a).
    Autocorrelation,
    /// Complex multivariate relationships between channels
    /// (§6.5 method clause 2b).
    MultivariateRelations,
    /// Small datasets (§6.5 method clause 3a).
    SmallData,
    /// Heterogeneous data or generation for a new target domain
    /// (§6.5 method clause 3b).
    DomainTransfer,
    /// Downstream classification or forecasting models trained on the
    /// synthetic data (§6.5 measure clause 1).
    Classification,
    /// Emphasis on matching statistical attributes of the dataset
    /// (§6.5 measure clause 2).
    StatisticalFidelity,
    /// Time-series clustering projects (§6.5 measure clause 3).
    Clustering,
}

impl UseCase {
    /// Every case, for exhaustiveness tests and CLI listings.
    pub const ALL: [UseCase; 8] = [
        UseCase::GeneralPurpose,
        UseCase::Autocorrelation,
        UseCase::MultivariateRelations,
        UseCase::SmallData,
        UseCase::DomainTransfer,
        UseCase::Classification,
        UseCase::StatisticalFidelity,
        UseCase::Clustering,
    ];
}

/// A §6.5 recommendation: which methods to try first, which measures
/// to score with, and the paper's rationale.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Methods to try, in order of preference.
    pub methods: Vec<MethodId>,
    /// Measures to evaluate with, in order of relevance.
    pub measures: Vec<Measure>,
    /// The paper's reasoning, paraphrased.
    pub rationale: &'static str,
}

/// Returns the paper's §6.5 recommendation for a use case.
pub fn recommend(use_case: UseCase) -> Recommendation {
    use Measure::*;
    use MethodId::*;
    match use_case {
        UseCase::GeneralPurpose => Recommendation {
            methods: vec![TimeVae, Ls4],
            measures: vec![CFid, Mdd, Ed, Dtw],
            rationale: "Commence with VAE-based methods (TimeVAE, LS4): consistent leading \
                        performance and superior computational efficiency make them go-to \
                        choices for initial exploration (§6.5 selection 1).",
        },
        UseCase::Autocorrelation => Recommendation {
            methods: vec![FourierFlow],
            measures: vec![Acd, Ps],
            rationale: "In applications emphasizing autocorrelation or forecasting, the ACD \
                        measure becomes crucial; Fourier Flow is recognized for maintaining \
                        temporal dependencies (§6.5 selection 2).",
        },
        UseCase::MultivariateRelations => Recommendation {
            methods: vec![CosciGan],
            measures: vec![Mdd, Sd, Kd],
            rationale: "For capturing complex multivariate relationships, COSCI-GAN is the \
                        recommended choice (§6.5 selection 2).",
        },
        UseCase::SmallData => Recommendation {
            methods: vec![RtsGan, Ls4],
            measures: vec![Ed, Dtw, Mdd],
            rationale: "For small-sized datasets, RTSGAN and LS4, which excel in single DA, \
                        are strong choices (§6.5 selection 3).",
        },
        UseCase::DomainTransfer => Recommendation {
            methods: vec![TimeVae, CosciGan],
            measures: vec![Ed, Dtw, Mdd, TrainTime],
            rationale: "For heterogeneous datasets or generating for a new target domain, \
                        TimeVAE and COSCI-GAN stand out for their effectiveness in cross DA; \
                        training efficiency is pivotal for DA deployment (§6.5 selection 3, §4.3).",
        },
        UseCase::Classification => Recommendation {
            methods: vec![TimeVae, Ls4, CosciGan],
            measures: vec![CFid, Ds, Ps],
            rationale: "For classification/forecasting uses, model-based measures are \
                        advisable — but given the robustness issues with DS and PS, start \
                        with C-FID (§6.5 evaluation 1).",
        },
        UseCase::StatisticalFidelity => Recommendation {
            methods: vec![CosciGan, TimeVae],
            measures: vec![Mdd, Acd, Sd, Kd],
            rationale: "When the goal is the statistical attributes of the dataset, \
                        feature-based measures are the preferred option (§6.5 evaluation 2).",
        },
        UseCase::Clustering => Recommendation {
            methods: vec![TimeVae, Ls4],
            measures: vec![Ed, Dtw],
            rationale: "In projects focusing on time-series clustering, distance-based \
                        metrics assume elevated importance (§6.5 evaluation 3).",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_use_case_has_a_recommendation() {
        for uc in UseCase::ALL {
            let r = recommend(uc);
            assert!(!r.methods.is_empty(), "{uc:?}");
            assert!(!r.measures.is_empty(), "{uc:?}");
            assert!(!r.rationale.is_empty(), "{uc:?}");
        }
    }

    #[test]
    fn paper_pairings_are_pinned() {
        // §6.5's explicit pairings must not drift
        assert_eq!(
            recommend(UseCase::Autocorrelation).methods,
            vec![MethodId::FourierFlow]
        );
        assert_eq!(
            recommend(UseCase::MultivariateRelations).methods,
            vec![MethodId::CosciGan]
        );
        assert_eq!(
            recommend(UseCase::SmallData).methods,
            vec![MethodId::RtsGan, MethodId::Ls4]
        );
        assert_eq!(
            recommend(UseCase::DomainTransfer).methods,
            vec![MethodId::TimeVae, MethodId::CosciGan]
        );
        assert_eq!(
            recommend(UseCase::GeneralPurpose).methods,
            vec![MethodId::TimeVae, MethodId::Ls4]
        );
    }

    #[test]
    fn classification_starts_with_cfid_not_ds() {
        let r = recommend(UseCase::Classification);
        assert_eq!(
            r.measures[0],
            Measure::CFid,
            "the paper says start with C-FID"
        );
    }

    #[test]
    fn clustering_uses_distance_measures_only() {
        let r = recommend(UseCase::Clustering);
        assert!(r
            .measures
            .iter()
            .all(|m| matches!(m, Measure::Ed | Measure::Dtw)));
    }
}
