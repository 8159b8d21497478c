//! Resource selection across sites — the motivating scenario of the
//! paper's introduction: *"estimates of queue wait times are useful to
//! guide resource selection when several systems are available."*
//!
//! A user with a moldable job asks every site "when would my job start
//! if I submitted it right now?", using each site's live scheduler state
//! and its history-trained run-time predictor, then submits to the site
//! with the earliest predicted start.
//!
//! ```sh
//! cargo run --release --example resource_selection
//! ```

use qpredict::core::{forecast_start, PredictorKind};
use qpredict::predict::RunTimePredictor;
use qpredict::prelude::*;
use qpredict::sim::{MaxRuntimeEstimator, SimHooks, Simulation, Snapshot};
use qpredict::workload::synthetic;

/// Captures the machine state at a fixed instant mid-trace.
struct StateGrabber {
    at: Time,
    snap: Option<Snapshot>,
}

impl SimHooks for StateGrabber {
    fn after_submit(&mut self, snap: &Snapshot, _job: &Job) {
        if self.snap.is_none() && snap.now >= self.at {
            self.snap = Some(snap.clone());
        }
    }
}

fn main() {
    // Three candidate sites with different machines and loads.
    let sites = [
        synthetic::toy(1_500, 32, 7),
        synthetic::toy(1_500, 64, 8),
        synthetic::toy(1_500, 128, 9),
    ];

    // Our job: 16 nodes, and we believe it needs about 2 hours.
    let job_nodes = 16u32;
    let job_estimate = Dur::hours(2);

    println!("asking each site for a predicted start time of a {job_nodes}-node job...\n");
    let mut best: Option<(usize, Dur)> = None;
    for (i, wl) in sites.iter().enumerate() {
        // Replay the site's history up to "now" (mid-trace) to (a) train
        // its predictor and (b) capture its live scheduler state.
        let mid = wl.jobs[wl.len() / 2].submit;
        let mut grabber = StateGrabber {
            at: mid,
            snap: None,
        };
        let mut est = MaxRuntimeEstimator::from_workload(wl);
        let mut sim = Simulation::new(wl, Algorithm::Backfill);
        sim.run_with_hooks(&mut est, &mut grabber);
        let snap = grabber.snap.expect("trace passes the midpoint");

        // Train the site's predictor on everything that completed before
        // the capture instant.
        let mut predictor = PredictorKind::Smith.build(wl);
        for j in &wl.jobs {
            if j.submit + j.runtime < snap.now {
                RunTimePredictor::on_complete(&mut predictor, j);
            }
        }

        // Inject our job into the captured queue as the last arrival.
        let mut wl2 = wl.clone();
        let probe_id = JobId(wl2.len() as u32);
        let probe = JobBuilder::new()
            .nodes(job_nodes)
            .submit(snap.now)
            .runtime(job_estimate) // used only as our own belief
            .max_runtime(job_estimate * 2)
            .build(probe_id);
        wl2.jobs.push(probe);
        let mut snap2 = snap.clone();
        let next_seq = snap2.queued.iter().map(|&(_, s)| s + 1).max().unwrap_or(0);
        snap2.queued.push((probe_id, next_seq));

        // The scheduler believes user limits.
        let mut limits = MaxRuntimeEstimator::from_workload(&wl2);
        let start = forecast_start(
            &wl2,
            Algorithm::Backfill,
            &snap2,
            |j, e| limits.predict(j, e).estimate,
            |j, e| predictor.predict(j, e).estimate,
            probe_id,
        );
        let wait = start - snap.now;
        println!(
            "  site {i}: {:3} running, {:3} queued -> predicted wait {}",
            snap.running.len(),
            snap.queued.len(),
            wait
        );
        if best.is_none_or(|(_, w)| wait < w) {
            best = Some((i, wait));
        }
    }
    let (site, wait) = best.expect("at least one site");
    println!("\nsubmit to site {site}: predicted wait {wait}");
}
