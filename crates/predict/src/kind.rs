//! Uniform construction of every predictor the paper compares.

use qpredict_workload::Workload;

use crate::{
    searched, DowneyPredictor, DowneyVariant, FallbackPredictor, GibbonsPredictor,
    MaxRuntimePredictor, OraclePredictor, RunTimePredictor, SmithPredictor, TemplateSet,
};

/// Which run-time predictor an experiment, the CLI or the online
/// service runs.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorKind {
    /// Actual run times (perfect information; Tables 4 and 10).
    Actual,
    /// User-supplied maximum run times, with per-queue maxima derived
    /// for traces without limits (Tables 5 and 11).
    MaxRuntime,
    /// The paper's template-based predictor with the searched/curated
    /// template set for the workload (Tables 6 and 12).
    Smith,
    /// The template-based predictor with an explicit template set (for
    /// search results and ablations).
    SmithWith(TemplateSet),
    /// Gibbons' fixed-template predictor (Tables 7 and 13).
    Gibbons,
    /// Downey's conditional-average predictor (Tables 8 and 14).
    DowneyAverage,
    /// Downey's conditional-median predictor (Tables 9 and 15).
    DowneyMedian,
    /// Degradation chain: Smith → Gibbons → Downey-median → user maximum
    /// run time → static default, recording every degradation event. Not
    /// part of the paper's comparison; the robust production
    /// configuration.
    Fallback,
}

impl PredictorKind {
    /// The predictors in the paper's table order 4..=9 / 10..=15,
    /// excluding the explicit-set variant.
    pub const ALL: [PredictorKind; 6] = [
        PredictorKind::Actual,
        PredictorKind::MaxRuntime,
        PredictorKind::Smith,
        PredictorKind::Gibbons,
        PredictorKind::DowneyAverage,
        PredictorKind::DowneyMedian,
    ];

    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PredictorKind::Actual => "actual",
            PredictorKind::MaxRuntime => "maxrt",
            PredictorKind::Smith | PredictorKind::SmithWith(_) => "smith",
            PredictorKind::Gibbons => "gibbons",
            PredictorKind::DowneyAverage => "downey-avg",
            PredictorKind::DowneyMedian => "downey-med",
            PredictorKind::Fallback => "fallback",
        }
    }

    /// Parse a (case-insensitive) predictor name.
    pub fn parse(s: &str) -> Option<PredictorKind> {
        match s.to_ascii_lowercase().as_str() {
            "actual" | "oracle" => Some(PredictorKind::Actual),
            "maxrt" | "max" | "limit" => Some(PredictorKind::MaxRuntime),
            "smith" | "ours" => Some(PredictorKind::Smith),
            "gibbons" => Some(PredictorKind::Gibbons),
            "downey-avg" | "downey-average" => Some(PredictorKind::DowneyAverage),
            "downey-med" | "downey-median" => Some(PredictorKind::DowneyMedian),
            "fallback" | "chain" => Some(PredictorKind::Fallback),
            _ => None,
        }
    }

    /// Build the predictor for `wl`, boxed so experiment code can treat
    /// every kind uniformly and move it across threads.
    pub fn build(&self, wl: &Workload) -> Box<dyn RunTimePredictor + Send> {
        match self {
            PredictorKind::Actual => Box::new(OraclePredictor),
            PredictorKind::MaxRuntime => Box::new(MaxRuntimePredictor::from_workload(wl)),
            PredictorKind::Smith => Box::new(SmithPredictor::new(searched::set_for(wl))),
            PredictorKind::SmithWith(set) => Box::new(SmithPredictor::new(set.clone())),
            PredictorKind::Gibbons => Box::new(GibbonsPredictor::new()),
            PredictorKind::DowneyAverage => Box::new(DowneyPredictor::for_workload(
                DowneyVariant::ConditionalAverage,
                wl,
            )),
            PredictorKind::DowneyMedian => Box::new(DowneyPredictor::for_workload(
                DowneyVariant::ConditionalMedian,
                wl,
            )),
            PredictorKind::Fallback => Box::new(FallbackPredictor::new(
                vec![
                    Box::new(SmithPredictor::new(searched::set_for(wl))),
                    Box::new(GibbonsPredictor::new()),
                    Box::new(DowneyPredictor::for_workload(
                        DowneyVariant::ConditionalMedian,
                        wl,
                    )),
                ],
                MaxRuntimePredictor::from_workload(wl),
                FallbackPredictor::DEFAULT_ESTIMATE,
            )),
        }
    }
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::synthetic::toy;
    use qpredict_workload::Dur;

    #[test]
    fn builds_every_kind() {
        let wl = toy(50, 16, 1);
        for kind in PredictorKind::ALL {
            let mut p = kind.build(&wl);
            let pred = p.predict(&wl.jobs[0], Dur::ZERO);
            assert!(pred.estimate >= Dur::SECOND, "{kind} returned nonsense");
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for kind in PredictorKind::ALL {
            assert_eq!(PredictorKind::parse(kind.name()), Some(kind.clone()));
        }
        assert_eq!(PredictorKind::parse("nope"), None);
    }

    #[test]
    fn fallback_kind_builds_and_degrades() {
        let wl = toy(50, 16, 3);
        let kind = PredictorKind::parse("fallback").unwrap();
        assert_eq!(kind, PredictorKind::Fallback);
        let mut p = kind.build(&wl);
        assert_eq!(p.name(), "fallback");
        // Cold chain: the learned tiers must all fail and be counted.
        let pred = p.predict(&wl.jobs[0], Dur::ZERO);
        assert!(pred.estimate >= Dur::SECOND);
        let d = p.degradations().expect("chain reports degradations");
        assert!(
            d.degradations >= 3,
            "cold chain degraded {} times",
            d.degradations
        );
        assert_eq!(d.total_served(), 1);
        // Simple predictors report nothing.
        assert!(PredictorKind::Actual.build(&wl).degradations().is_none());
    }

    #[test]
    fn smith_with_uses_given_set() {
        use crate::Template;
        let wl = toy(50, 16, 2);
        let set = TemplateSet::new(vec![Template::mean_over(&[])]);
        let kind = PredictorKind::SmithWith(set);
        let mut p = kind.build(&wl);
        assert_eq!(p.name(), "smith");
        p.on_complete(&wl.jobs[0]);
        let pred = p.predict(&wl.jobs[1], Dur::ZERO);
        assert_eq!(pred.estimate, wl.jobs[0].runtime);
    }
}
