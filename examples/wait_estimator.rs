//! A "how long until my job starts?" service — the user-facing product
//! of the paper's Section 3.
//!
//! Replays a day of a busy site and, for a sample of arrivals, prints
//! the wait estimate each user would have been shown at submission next
//! to the wait they actually experienced.
//!
//! ```sh
//! cargo run --release --example wait_estimator
//! ```

use qpredict::core::{forecast_start, PredictorKind};
use qpredict::predict::RunTimePredictor;
use qpredict::prelude::*;
use qpredict::sim::{MaxRuntimeEstimator, SimHooks, Simulation, Snapshot};
use qpredict::workload::synthetic;

struct Kiosk {
    predictor: Box<dyn RunTimePredictor + Send>,
    belief: MaxRuntimeEstimator,
    /// (job, queue depth, predicted wait) for sampled arrivals.
    shown: Vec<(JobId, usize, Dur)>,
}

impl Kiosk {
    fn new(wl: &Workload) -> Kiosk {
        Kiosk {
            predictor: PredictorKind::Smith.build(wl),
            belief: MaxRuntimeEstimator::from_workload(wl),
            shown: Vec::new(),
        }
    }
}

struct KioskHooks<'w> {
    wl: &'w Workload,
    kiosk: Kiosk,
}

impl SimHooks for KioskHooks<'_> {
    fn after_submit(&mut self, snap: &Snapshot, job: &Job) {
        // Sample every 40th arrival to keep the report readable.
        if !job.id.0.is_multiple_of(40) {
            return;
        }
        let kiosk = &mut self.kiosk;
        let belief = &mut kiosk.belief;
        let predictor = &mut kiosk.predictor;
        let now = snap.now;
        let start = forecast_start(
            self.wl,
            Algorithm::Backfill,
            snap,
            |j, e| belief.predict(j, e).estimate,
            |j, e| predictor.predict(j, e).estimate,
            job.id,
        );
        kiosk
            .shown
            .push((job.id, snap.queued.len() - 1, start - now));
    }

    fn on_job_complete(&mut self, job: &Job, _now: Time) {
        RunTimePredictor::on_complete(&mut self.kiosk.predictor, job);
    }
}

fn main() {
    let wl = synthetic::toy(2_000, 48, 31);
    let mut hooks = KioskHooks {
        wl: &wl,
        kiosk: Kiosk::new(&wl),
    };
    let mut outer = MaxRuntimeEstimator::from_workload(&wl);
    let mut sim = Simulation::new(&wl, Algorithm::Backfill);
    let result = sim.run_with_hooks(&mut outer, &mut hooks);

    println!(
        "{:>6} {:>8} {:>16} {:>16} {:>12}",
        "job", "queued", "predicted wait", "actual wait", "error"
    );
    let mut abs_err = 0.0;
    for &(id, depth, predicted) in &hooks.kiosk.shown {
        let actual = result.outcome(id).wait();
        abs_err += (predicted - actual).abs().minutes();
        println!(
            "{:>6} {:>8} {:>16} {:>16} {:>12}",
            id.0,
            depth,
            predicted.to_string(),
            actual.to_string(),
            (predicted - actual).to_string(),
        );
    }
    println!(
        "\nmean |error| over {} sampled arrivals: {:.1} min",
        hooks.kiosk.shown.len(),
        abs_err / hooks.kiosk.shown.len().max(1) as f64
    );
}
