//! Fitness evaluation: how well a template set predicts run times over a
//! recorded prediction workload.
//!
//! Fitness is one plain function, [`replay`]: it replays the workload's
//! events through a fresh, bare [`SmithPredictor`] and scores every
//! `Predict` event. The replay is deterministic in its inputs, so the GA
//! and the greedy search map it over their candidates with
//! [`qpredict_obs::par_map`] and get the same errors on any number of
//! workers. It keeps no estimate cache: the offline drivers' job-keyed
//! cache, which serves a repeat inside a prediction's `holds_below`
//! window, would serve at most 5.3% of `ga-search`'s full-size training
//! predictions (none on CTC and SDSC96, 0.15% on SDSC95, 3.8–5.3% on
//! ANL), too few to pay for itself.

use qpredict_predict::{ErrorStats, RunTimePredictor, SmithPredictor, TemplateSet};
use qpredict_workload::Workload;

use crate::workloads::{PredEvent, PredictionWorkload};

/// Replay `pw` through a fresh [`SmithPredictor`] built on `set` and
/// return the prediction-error statistics. Lower mean absolute error is
/// better; this is the raw error `E` the GA's fitness scaling consumes.
pub fn replay(set: &TemplateSet, wl: &Workload, pw: &PredictionWorkload) -> ErrorStats {
    let mut predictor = SmithPredictor::new(set.clone());
    let mut stats = ErrorStats::new();
    for ev in &pw.events {
        match *ev {
            PredEvent::Predict { job, elapsed } => {
                let j = wl.job(job);
                stats.record(predictor.predict(j, elapsed).estimate, j.runtime);
            }
            PredEvent::Insert { job } => predictor.on_complete(wl.job(job)),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Target;
    use qpredict_predict::Template;
    use qpredict_sim::Algorithm;
    use qpredict_workload::synthetic::toy;
    use qpredict_workload::Characteristic;

    fn setup() -> (Workload, PredictionWorkload) {
        let wl = toy(250, 32, 11);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 3);
        (wl, pw)
    }

    #[test]
    fn informative_templates_beat_uninformative() {
        let (wl, pw) = setup();
        let informative = TemplateSet::new(vec![
            Template::mean_over(&[
                Characteristic::User,
                Characteristic::Executable,
                Characteristic::Arguments,
            ]),
            Template::mean_over(&[Characteristic::User, Characteristic::Executable]),
            Template::mean_over(&[Characteristic::User]),
        ]);
        let uninformative = TemplateSet::new(vec![Template::mean_over(&[])]);
        let ei = replay(&informative, &wl, &pw);
        let eu = replay(&uninformative, &wl, &pw);
        assert!(
            ei.mean_abs_error_min() < eu.mean_abs_error_min(),
            "informative {:.2} vs global {:.2}",
            ei.mean_abs_error_min(),
            eu.mean_abs_error_min()
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (wl, pw) = setup();
        let set = TemplateSet::new(vec![Template::mean_over(&[Characteristic::User])]);
        assert_eq!(replay(&set, &wl, &pw), replay(&set, &wl, &pw));
    }

    #[test]
    fn parallel_matches_serial() {
        let (wl, pw) = setup();
        let sets: Vec<TemplateSet> = vec![
            TemplateSet::new(vec![Template::mean_over(&[])]),
            TemplateSet::new(vec![Template::mean_over(&[Characteristic::User])]),
            TemplateSet::new(vec![
                Template::mean_over(&[Characteristic::User]).with_node_range(2)
            ]),
            TemplateSet::new(vec![Template::mean_over(&[Characteristic::Executable])]),
        ];
        let serial: Vec<_> = sets.iter().map(|s| replay(s, &wl, &pw)).collect();
        let parallel = qpredict_obs::par_map(sets, 4, |_, s| replay(&s, &wl, &pw));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_prediction_counted() {
        let (wl, pw) = setup();
        let set = TemplateSet::new(vec![Template::mean_over(&[])]);
        let stats = replay(&set, &wl, &pw);
        assert_eq!(stats.count(), pw.n_predictions as u64);
    }
}
