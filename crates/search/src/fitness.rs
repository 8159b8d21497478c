//! Fitness evaluation: how well a template set predicts run times over a
//! recorded prediction workload.
//!
//! There is one replay loop, [`replay`], run under a step budget and
//! returning the error statistics with the replay's cache counters; the
//! supervisor calls it directly, and [`evaluate`] wraps it with the
//! [`derived_eval_budget`] for callers that want only the errors.
//!
//! Every replay routes through a [`CachingPredictor`]: prediction
//! workloads recorded from wait-time forecasts re-request the same
//! `(job, elapsed)` estimates many times between `Insert` events, and
//! within such a span the predictor's generation — hence every estimate
//! — is frozen, so the repeats are cache hits. The recorded error stream
//! is identical to an uncached replay; only the work changes.

use qpredict_predict::{
    CacheStats, CachingPredictor, ErrorStats, RunTimePredictor, SmithPredictor, TemplateSet,
};
use qpredict_workload::Workload;

use crate::supervisor::FailureCause;
use crate::workloads::{PredEvent, PredictionWorkload};

/// Replay `pw` through a fresh [`SmithPredictor`] built on `set` and
/// return the prediction-error statistics. Lower mean absolute error is
/// better; this is the raw error `E` the GA's fitness scaling consumes.
pub fn evaluate(set: &TemplateSet, wl: &Workload, pw: &PredictionWorkload) -> ErrorStats {
    replay(set, wl, pw, derived_eval_budget(pw))
        .expect("the derived budget covers every event")
        .0
}

/// The step budget [`evaluate`] uses and the supervisor derives when
/// its configuration names none: every evaluation replays exactly
/// `pw.events.len()` events, so any legitimate run finishes well inside
/// this.
pub fn derived_eval_budget(pw: &PredictionWorkload) -> u64 {
    pw.events.len() as u64 + 1_000
}

/// The one fitness replay, under a step budget: each replayed event
/// costs one step, and exceeding `max_steps` aborts with
/// [`FailureCause::Budget`], the supervisor's hang watchdog, so a hung
/// evaluation cannot wedge a search worker. Also returns the
/// estimate-cache counters of the replay, which the supervisor folds
/// into `SearchHealth`.
pub fn replay(
    set: &TemplateSet,
    wl: &Workload,
    pw: &PredictionWorkload,
    max_steps: u64,
) -> Result<(ErrorStats, CacheStats), FailureCause> {
    let mut predictor = CachingPredictor::new(SmithPredictor::new(set.clone()));
    let mut stats = ErrorStats::new();
    let mut steps = 0u64;
    for ev in &pw.events {
        steps += 1;
        if steps > max_steps {
            return Err(FailureCause::Budget);
        }
        match *ev {
            PredEvent::Predict { job, elapsed } => {
                let j = wl.job(job);
                let pred = predictor.predict(j, elapsed);
                stats.record(pred.estimate, j.runtime);
            }
            PredEvent::Insert { job } => predictor.on_complete(wl.job(job)),
        }
    }
    Ok((stats, predictor.stats()))
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
        let ei = evaluate(&informative, &wl, &pw);
        let eu = evaluate(&uninformative, &wl, &pw);
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
        assert_eq!(evaluate(&set, &wl, &pw), evaluate(&set, &wl, &pw));
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
        let serial: Vec<_> = sets.iter().map(|s| evaluate(s, &wl, &pw)).collect();
        let parallel = qpredict_obs::par_map(sets, 4, |_, s| evaluate(&s, &wl, &pw));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn guarded_matches_unguarded_within_budget() {
        let (wl, pw) = setup();
        let set = TemplateSet::new(vec![Template::mean_over(&[Characteristic::User])]);
        let plain = evaluate(&set, &wl, &pw);
        let (guarded, _) =
            replay(&set, &wl, &pw, derived_eval_budget(&pw)).expect("budget is generous");
        assert_eq!(plain, guarded);
    }

    #[test]
    fn guarded_reports_budget_exhaustion() {
        let (wl, pw) = setup();
        let set = TemplateSet::new(vec![Template::mean_over(&[])]);
        let err = replay(&set, &wl, &pw, 3).unwrap_err();
        assert_eq!(err, FailureCause::Budget);
    }

    #[test]
    fn every_prediction_counted() {
        let (wl, pw) = setup();
        let set = TemplateSet::new(vec![Template::mean_over(&[])]);
        let stats = evaluate(&set, &wl, &pw);
        assert_eq!(stats.count(), pw.n_predictions as u64);
    }

    #[test]
    fn cached_replay_is_invisible_to_the_error_stream() {
        let (wl, pw) = setup();
        let set = TemplateSet::new(vec![Template::mean_over(&[Characteristic::User])]);
        let (stats, cache) =
            replay(&set, &wl, &pw, derived_eval_budget(&pw)).expect("budget is generous");
        assert_eq!(stats, evaluate(&set, &wl, &pw));
        // Every Predict event was scored, hit or miss.
        assert_eq!(cache.total(), pw.n_predictions as u64);
        let (unbounded, ucache) = replay(&set, &wl, &pw, u64::MAX).expect("no budget");
        assert_eq!(unbounded, stats);
        assert_eq!(ucache, cache);
    }
}
