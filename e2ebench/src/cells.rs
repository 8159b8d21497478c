//! The paper cells: wait-time prediction (`waitpred`) and scheduling with
//! predictions (`simulate`), both backfill + Smith.
//!
//! The untimed path calls the stable entry points
//! `core::run_wait_prediction` and `core::run_scheduling`. The traced path
//! rebuilds the same cell from the layers' public functions, with a timer
//! around every call that crosses a layer boundary, and must reproduce
//! the untraced outputs bit for bit.

use std::time::Instant;

use qpredict_core::{forecast_start, run_scheduling, run_wait_prediction, PredictorEstimator};
use qpredict_core::{searched, PredictorKind};
use qpredict_predict::{
    CachingPredictor, DegradationCounts, ErrorStats, PredictError, Prediction, RunTimePredictor,
    SmithPredictor,
};
use qpredict_sim::{
    Algorithm, MaxRuntimeEstimator, RuntimeEstimator, SimHooks, Simulation, Snapshot,
};
use qpredict_workload::{Dur, Job, Time, Workload};

use crate::measure::Latencies;

/// Which paper cell.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    WaitPred,
    Simulate,
}

/// The outputs a cell run is checked on; compared bit for bit between
/// repetitions and between the untraced and traced paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellOutput {
    /// Jobs the schedule completed.
    pub completed: usize,
    /// Wait forecasts scored (waitpred; 0 for simulate).
    pub forecasts: u64,
    /// Bits of the wait-prediction MAE in minutes (waitpred).
    pub wait_mae_bits: u64,
    /// Bits of the schedule's mean wait in minutes.
    pub mean_wait_bits: u64,
    /// Bits of the run-time prediction MAE in minutes.
    pub runtime_mae_bits: u64,
    /// Estimate-cache hits and lookups.
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

impl CellOutput {
    pub fn wait_mae_min(&self) -> f64 {
        f64::from_bits(self.wait_mae_bits)
    }

    pub fn mean_wait_min(&self) -> f64 {
        f64::from_bits(self.mean_wait_bits)
    }

    /// Every job completed and, for waitpred, every submission was scored.
    pub fn complete(&self, cell: Cell, jobs: usize) -> bool {
        self.completed == jobs && (cell == Cell::Simulate || self.forecasts == jobs as u64)
    }
}

/// Run the cell through its stable entry point.
pub fn run(cell: Cell, wl: &Workload) -> CellOutput {
    match cell {
        Cell::WaitPred => {
            let out = run_wait_prediction(wl, Algorithm::Backfill, PredictorKind::Smith);
            let cache = out.metrics.estimate_cache.unwrap_or_default();
            CellOutput {
                completed: out.metrics.n_jobs,
                forecasts: out.wait_errors.count(),
                wait_mae_bits: out.wait_errors.mean_abs_error_min().to_bits(),
                mean_wait_bits: out.metrics.mean_wait.minutes().to_bits(),
                runtime_mae_bits: out.runtime_errors.mean_abs_error_min().to_bits(),
                cache_hits: cache.hits,
                cache_lookups: cache.total(),
            }
        }
        Cell::Simulate => {
            let out = run_scheduling(wl, Algorithm::Backfill, PredictorKind::Smith);
            let cache = out.metrics.estimate_cache.unwrap_or_default();
            CellOutput {
                completed: out.metrics.n_jobs,
                forecasts: 0,
                wait_mae_bits: 0f64.to_bits(),
                mean_wait_bits: out.metrics.mean_wait.minutes().to_bits(),
                runtime_mae_bits: out.runtime_errors.mean_abs_error_min().to_bits(),
                cache_hits: cache.hits,
                cache_lookups: cache.total(),
            }
        }
    }
}

/// Per-layer timings of one traced cell run.
#[derive(Default)]
pub struct CellTrace {
    /// Time inside the `Simulation` call.
    pub wall_s: f64,
    /// Calls that reached the predictor beneath the estimate cache.
    pub predict: Latencies,
    /// `on_complete` calls into the predictor.
    pub learn: Latencies,
    /// `forecast_start` calls, one per submission (waitpred).
    pub forecast: Latencies,
    /// Predictor time spent inside forecasts.
    pub predict_in_forecast_s: f64,
    /// History points the Smith predictor scanned.
    pub scanned_points: u64,
}

/// A predictor with a timer around every call; forwards every
/// `RunTimePredictor` method, `generation` included, so the estimate
/// cache above it behaves exactly as it does untraced.
struct Timed<P> {
    inner: P,
    predict: Latencies,
    learn: Latencies,
}

impl<P: RunTimePredictor> RunTimePredictor for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        let t0 = Instant::now();
        let p = self.inner.predict(job, elapsed);
        self.predict.push(t0.elapsed());
        p
    }

    fn try_predict(&mut self, job: &Job, elapsed: Dur) -> Result<Prediction, PredictError> {
        let t0 = Instant::now();
        let p = self.inner.try_predict(job, elapsed);
        self.predict.push(t0.elapsed());
        p
    }

    fn on_complete(&mut self, job: &Job) {
        let t0 = Instant::now();
        self.inner.on_complete(job);
        self.learn.push(t0.elapsed());
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn degradations(&self) -> Option<DegradationCounts> {
        self.inner.degradations()
    }

    fn generation(&self) -> Option<u64> {
        self.inner.generation()
    }
}

fn timed_smith(wl: &Workload) -> Timed<SmithPredictor> {
    Timed {
        inner: SmithPredictor::new(searched::set_for(wl)),
        predict: Latencies::default(),
        learn: Latencies::default(),
    }
}

/// The waitpred cell as `run_wait_prediction` composes it, with timers.
struct WaitTrace<'w> {
    wl: &'w Workload,
    predictor: CachingPredictor<Timed<SmithPredictor>>,
    belief: MaxRuntimeEstimator,
    runtime_errors: ErrorStats,
    predicted_wait: Vec<Option<Dur>>,
    forecast: Latencies,
    predict_in_forecast_s: f64,
}

impl SimHooks for WaitTrace<'_> {
    fn after_submit(&mut self, snap: &Snapshot, job: &Job) {
        let predictor = &mut self.predictor;
        let belief = &mut self.belief;
        let errors = &mut self.runtime_errors;
        let now = snap.now;
        let before = predictor.inner().predict.total_s();
        let t0 = Instant::now();
        let start = forecast_start(
            self.wl,
            Algorithm::Backfill,
            snap,
            |j: &Job, elapsed: Dur| belief.estimate(j, now, elapsed),
            |j: &Job, elapsed: Dur| {
                let pred = predictor.predict(j, elapsed);
                errors.record(pred.estimate, j.runtime);
                pred.estimate
            },
            job.id,
        );
        self.forecast.push(t0.elapsed());
        self.predict_in_forecast_s += predictor.inner().predict.total_s() - before;
        self.predicted_wait[job.id.index()] = Some(start - snap.now);
    }

    fn on_job_complete(&mut self, job: &Job, _now: Time) {
        RunTimePredictor::on_complete(&mut self.predictor, job);
    }
}

/// Run the cell from its layers' public functions with timers around
/// every cross-layer call.
pub fn run_traced(cell: Cell, wl: &Workload) -> (CellOutput, CellTrace) {
    match cell {
        Cell::WaitPred => {
            let mut study = WaitTrace {
                wl,
                predictor: CachingPredictor::new(timed_smith(wl)),
                belief: MaxRuntimeEstimator::from_workload(wl),
                runtime_errors: ErrorStats::new(),
                predicted_wait: vec![None; wl.len()],
                forecast: Latencies::default(),
                predict_in_forecast_s: 0.0,
            };
            let t0 = Instant::now();
            let mut outer = MaxRuntimeEstimator::from_workload(wl);
            let result =
                Simulation::new(wl, Algorithm::Backfill).run_with_hooks(&mut outer, &mut study);
            let wall_s = t0.elapsed().as_secs_f64();
            let mut wait_errors = ErrorStats::new();
            for o in &result.outcomes {
                if let Some(p) = study.predicted_wait[o.id.index()] {
                    wait_errors.record(p, o.wait());
                }
            }
            let cache = study.predictor.stats();
            let out = CellOutput {
                completed: result.metrics.n_jobs,
                // One call per job and a forecast for every job: each
                // submission was forecast exactly once.
                forecasts: if wait_errors.count() == wl.len() as u64 {
                    study.forecast.count() as u64
                } else {
                    0
                },
                wait_mae_bits: wait_errors.mean_abs_error_min().to_bits(),
                mean_wait_bits: result.metrics.mean_wait.minutes().to_bits(),
                runtime_mae_bits: study.runtime_errors.mean_abs_error_min().to_bits(),
                cache_hits: cache.hits,
                cache_lookups: cache.total(),
            };
            let timed = study.predictor.into_inner();
            let trace = CellTrace {
                wall_s,
                scanned_points: timed.inner.estimate_ops().scanned_points,
                predict: timed.predict,
                learn: timed.learn,
                forecast: study.forecast,
                predict_in_forecast_s: study.predict_in_forecast_s,
            };
            (out, trace)
        }
        Cell::Simulate => {
            let mut est = PredictorEstimator::new(timed_smith(wl));
            let t0 = Instant::now();
            let result = Simulation::run(wl, Algorithm::Backfill, &mut est);
            let wall_s = t0.elapsed().as_secs_f64();
            let cache = est.cache_stats();
            let runtime_mae_bits = est.errors().mean_abs_error_min().to_bits();
            let (timed, _) = est.into_parts();
            let out = CellOutput {
                completed: result.metrics.n_jobs,
                forecasts: 0,
                wait_mae_bits: 0f64.to_bits(),
                mean_wait_bits: result.metrics.mean_wait.minutes().to_bits(),
                runtime_mae_bits,
                cache_hits: cache.hits,
                cache_lookups: cache.total(),
            };
            let trace = CellTrace {
                wall_s,
                scanned_points: timed.inner.estimate_ops().scanned_points,
                predict: timed.predict,
                learn: timed.learn,
                ..CellTrace::default()
            };
            (out, trace)
        }
    }
}
