//! Supervised template-set search as an experiment step.
//!
//! The GA of `qpredict-search` is the longest-running computation in the
//! reproduction, so the harness exposes it the same way it exposes the
//! scheduling and wait-prediction pipelines: one spec in, one outcome
//! out, with the supervision accounting ([`SearchHealth`]) carried
//! alongside the scientific result instead of being lost to stderr.
//! Checkpointing and resume come from [`qpredict_search::checkpoint`];
//! a killed search resumed from its snapshot reports the same best
//! template set and fitness trace as an uninterrupted one.

use qpredict_predict::searched::curated_seed_for;
use qpredict_predict::TemplateSet;
use qpredict_search::{
    resume_supervised, search_supervised, CheckpointPolicy, GaConfig, PredictionWorkload,
    SearchError, SearchHealth, SupervisorConfig, Target,
};
use qpredict_sim::Algorithm;
use qpredict_workload::Workload;

/// Everything a supervised search run needs besides the workload.
#[derive(Debug, Clone)]
pub struct TemplateSearchSpec {
    /// Scheduler generating the prediction workload the GA trains on.
    pub algorithm: Algorithm,
    /// Look-back depth when recording the prediction workload.
    pub depth: usize,
    /// GA tunables. `seeds` is filled with the workload's curated seed
    /// set when left empty (warm start, as the shipped sets were found).
    pub ga: GaConfig,
    /// Retry/budget/fault policy for fitness evaluation.
    pub supervisor: SupervisorConfig,
    /// Where to snapshot, if anywhere.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from `checkpoint` instead of starting fresh.
    pub resume: bool,
}

impl TemplateSearchSpec {
    /// A small default spec: backfill prediction workload, quick GA.
    pub fn quick(seed: u64) -> TemplateSearchSpec {
        TemplateSearchSpec {
            algorithm: Algorithm::Backfill,
            depth: 4,
            ga: GaConfig::quick(seed),
            supervisor: SupervisorConfig::default(),
            checkpoint: None,
            resume: false,
        }
    }
}

/// Result of one supervised template search.
#[derive(Debug, Clone)]
pub struct TemplateSearchOutcome {
    /// Workload name.
    pub workload: String,
    /// Scheduler the prediction workload was recorded under.
    pub algorithm: Algorithm,
    /// Best template set found.
    pub best: TemplateSet,
    /// Its mean absolute run-time prediction error, minutes.
    pub best_error_min: f64,
    /// Best error per generation.
    pub error_history: Vec<f64>,
    /// Total fitness evaluations.
    pub evaluations: usize,
    /// Supervision accounting: retries, quarantines, faults, resumes.
    pub health: SearchHealth,
    /// Generation the run resumed from, if it was resumed.
    pub resumed_from: Option<usize>,
}

/// Run (or resume) a supervised template search over `wl`.
///
/// Fails with [`SearchError::Checkpoint`] when `spec.resume` is set and
/// the checkpoint is missing, corrupt, or from a different
/// configuration, and with [`SearchError::GenerationLost`] when fault
/// injection wipes out an entire generation.
pub fn run_template_search(
    wl: &Workload,
    spec: &TemplateSearchSpec,
) -> Result<TemplateSearchOutcome, SearchError> {
    let mut ga = spec.ga.clone();
    if ga.seeds.is_empty() {
        ga.seeds = vec![curated_seed_for(wl)];
    }
    let pw = PredictionWorkload::build(wl, Target::WaitPrediction(spec.algorithm), spec.depth);
    let supervised = if spec.resume {
        let policy = spec
            .checkpoint
            .as_ref()
            .expect("resume requires a checkpoint policy; the CLI rejects --resume without --checkpoint-dir");
        resume_supervised(wl, &pw, &ga, &spec.supervisor, policy)?
    } else {
        search_supervised(wl, &pw, &ga, &spec.supervisor, spec.checkpoint.as_ref())?
    };
    Ok(TemplateSearchOutcome {
        workload: wl.name.clone(),
        algorithm: spec.algorithm,
        best: supervised.result.best,
        best_error_min: supervised.result.best_error_min,
        error_history: supervised.result.error_history,
        evaluations: supervised.result.evaluations,
        health: supervised.health,
        resumed_from: supervised.resumed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_search::CheckpointError;
    use qpredict_workload::synthetic::toy;

    #[test]
    fn quick_search_completes_cleanly() {
        let wl = toy(150, 32, 40);
        let spec = TemplateSearchSpec::quick(5);
        let out = run_template_search(&wl, &spec).expect("clean search");
        assert_eq!(out.workload, wl.name);
        assert_eq!(out.error_history.len(), spec.ga.generations);
        assert!(out.best_error_min.is_finite());
        assert_eq!(out.health.failures(), 0);
        assert!(out.resumed_from.is_none());
    }

    #[test]
    fn checkpointed_then_resumed_matches_uninterrupted() {
        let wl = toy(120, 32, 41);
        let dir = std::env::temp_dir().join("qpredict-core-resume-test");
        let _ = std::fs::remove_dir_all(&dir);

        // Uninterrupted reference run.
        let spec = TemplateSearchSpec::quick(9);
        let reference = run_template_search(&wl, &spec).expect("reference");

        // Interrupted run: stop after 2 of 4 generations...
        let mut short = TemplateSearchSpec::quick(9);
        short.ga.generations = 2;
        short.checkpoint = Some(CheckpointPolicy::every_generation(&dir));
        run_template_search(&wl, &short).expect("interrupted half");

        // ...then resume to the full 4.
        let mut rest = TemplateSearchSpec::quick(9);
        rest.checkpoint = Some(CheckpointPolicy::every_generation(&dir));
        rest.resume = true;
        let resumed = run_template_search(&wl, &rest).expect("resumed half");

        assert_eq!(resumed.best, reference.best);
        assert_eq!(resumed.error_history, reference.error_history);
        assert_eq!(resumed.evaluations, reference.evaluations);
        assert_eq!(resumed.resumed_from, Some(2));
        assert_eq!(resumed.health.resumes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoint_file_is_a_typed_error() {
        let wl = toy(100, 32, 42);
        let dir = std::env::temp_dir().join("qpredict-core-missing-ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = TemplateSearchSpec::quick(3);
        spec.checkpoint = Some(CheckpointPolicy::every_generation(&dir));
        spec.resume = true;
        let err = run_template_search(&wl, &spec).unwrap_err();
        assert!(
            matches!(
                &err,
                SearchError::Checkpoint(CheckpointError::Io { op, .. }) if op.starts_with("read ")
            ),
            "{err}"
        );
    }
}
