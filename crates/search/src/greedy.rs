//! Greedy template-set search — the baseline the paper's earlier work
//! compared the GA against (and found inferior). Included for the
//! search-strategy ablation bench.
//!
//! Strategy: starting from an empty set, repeatedly add the candidate
//! template (from a finite pool derived from the workload's recorded
//! characteristics) that most reduces the mean prediction error; stop
//! when no candidate improves or the 10-template cap is reached.

use qpredict_predict::{Template, TemplateSet};
use qpredict_workload::{Characteristic, Workload, CHARACTERISTICS};

use crate::fitness::replay;
use crate::workloads::PredictionWorkload;

/// Tunables for [`greedy_search`].
#[derive(Debug, Clone)]
pub struct GreedyConfig {
    /// Maximum templates in the result.
    pub max_templates: usize,
    /// Worker threads for candidate evaluation.
    pub threads: usize,
}

impl Default for GreedyConfig {
    fn default() -> GreedyConfig {
        GreedyConfig {
            max_templates: 10,
            threads: qpredict_obs::default_threads(),
        }
    }
}

/// The candidate pool: single characteristics and identity pairs, with a
/// few node-range and relative variants each, all using the mean
/// estimator (the paper's best single predictor).
pub fn candidate_pool(wl: &Workload) -> Vec<Template> {
    let recorded: Vec<Characteristic> = CHARACTERISTICS
        .into_iter()
        .filter(|&c| wl.records(c))
        .collect();
    let has_limits = wl.records_max_runtime();
    let mut pool = Vec::new();
    let push_variants = |chars: &[Characteristic], pool: &mut Vec<Template>| {
        let base = Template::mean_over(chars);
        pool.push(base);
        pool.push(base.with_node_range(0));
        pool.push(base.with_node_range(2));
        pool.push(base.with_node_range(4));
        if has_limits {
            pool.push(base.relative());
        }
        pool.push(base.with_rtime());
    };
    push_variants(&[], &mut pool);
    for &c in &recorded {
        push_variants(&[c], &mut pool);
    }
    // Identity pairs around User, the strongest similarity anchor.
    if recorded.contains(&Characteristic::User) {
        for &c in &recorded {
            if c != Characteristic::User {
                push_variants(&[Characteristic::User, c], &mut pool);
            }
        }
    }
    pool
}

/// Run the greedy search. Returns the chosen set, its error trajectory
/// (error after each accepted template) and the number of template sets
/// evaluated: every candidate of every round, including a last round
/// that improved nothing.
pub fn greedy_search(
    wl: &Workload,
    pw: &PredictionWorkload,
    cfg: &GreedyConfig,
) -> (TemplateSet, Vec<f64>, usize) {
    let pool = candidate_pool(wl);
    let mut chosen: Vec<Template> = Vec::new();
    let mut trajectory = Vec::new();
    let mut best_err = f64::INFINITY;
    let mut evaluations = 0;

    while chosen.len() < cfg.max_templates.min(10) {
        // Evaluate every remaining candidate appended to the current set.
        let candidates: Vec<(usize, TemplateSet)> = pool
            .iter()
            .enumerate()
            .filter(|(_, t)| !chosen.contains(t))
            .map(|(i, t)| {
                let mut ts = chosen.clone();
                ts.push(*t);
                (i, TemplateSet::new(ts))
            })
            .collect();
        if candidates.is_empty() {
            break;
        }
        let sets: Vec<&TemplateSet> = candidates.iter().map(|(_, s)| s).collect();
        evaluations += sets.len();
        let errors = qpredict_obs::par_map(sets, cfg.threads, |_, s| replay(s, wl, pw));
        let (best_i, err) = errors
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.mean_abs_error_min()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty candidates");
        if err + 1e-9 >= best_err {
            break; // no improvement
        }
        best_err = err;
        chosen.push(pool[candidates[best_i].0]);
        trajectory.push(err);
    }
    if chosen.is_empty() {
        chosen.push(Template::mean_over(&[]));
        trajectory.push(best_err);
    }
    (TemplateSet::new(chosen), trajectory, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Target;
    use qpredict_sim::Algorithm;
    use qpredict_workload::synthetic::toy;

    #[test]
    fn pool_adapts_to_workload() {
        let wl = toy(50, 16, 1);
        let pool = candidate_pool(&wl);
        // toy records user/executable/arguments + limits
        assert!(pool.iter().any(|t| t.relative));
        assert!(pool.iter().any(|t| t.chars.contains(Characteristic::User)
            && t.chars.contains(Characteristic::Executable)));
        assert!(!pool.iter().any(|t| t.chars.contains(Characteristic::Queue)));
    }

    #[test]
    fn greedy_improves_monotonically() {
        let wl = toy(200, 32, 14);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        let cfg = GreedyConfig {
            max_templates: 3,
            threads: 2,
        };
        let (set, traj, _) = greedy_search(&wl, &pw, &cfg);
        assert!(!traj.is_empty());
        for w in traj.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "greedy must not regress");
        }
        assert!(set.len() <= 3);
    }

    #[test]
    fn greedy_is_deterministic() {
        let wl = toy(150, 32, 15);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        let cfg = GreedyConfig {
            max_templates: 2,
            threads: 2,
        };
        let (a, _, _) = greedy_search(&wl, &pw, &cfg);
        let (b, _, _) = greedy_search(&wl, &pw, &cfg);
        assert_eq!(a, b);
    }

    /// The evaluation count is every candidate of every round: the whole
    /// pool in the first round, one fewer in each later one, and a last
    /// round that improved nothing counts too.
    #[test]
    fn greedy_counts_every_evaluated_set() {
        let wl = toy(120, 32, 16);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        let pool = candidate_pool(&wl).len();
        let one = GreedyConfig {
            max_templates: 1,
            threads: 1,
        };
        assert_eq!(greedy_search(&wl, &pw, &one).2, pool);
        for max_templates in [3, 10] {
            let cfg = GreedyConfig {
                max_templates,
                threads: 2,
            };
            let (_, traj, evaluations) = greedy_search(&wl, &pw, &cfg);
            let stalled = traj.len() < max_templates;
            let rounds = traj.len() + usize::from(stalled);
            let want: usize = (0..rounds).map(|r| pool - r).sum();
            assert_eq!(evaluations, want, "max {max_templates}: {traj:?}");
        }
    }
}
