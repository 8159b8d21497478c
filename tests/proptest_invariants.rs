//! Randomized tests over the core invariants of the stack.
//!
//! Deterministic seeded loops stand in for an external property-testing
//! harness: the workspace must build offline with no crates beyond std.
//! Every case is reproducible from the loop seed printed on failure.

use qpredict::core::{forecast_start, PredictorKind};
use qpredict::predict::OraclePredictor;
use qpredict::prelude::*;
use qpredict::sim::{Profile, Simulation};
use qpredict::workload::{synthetic, Rng64};

/// A small random workload on a 4–64 node machine.
fn random_workload(rng: &mut Rng64) -> Workload {
    let machine = 1u32 << (2 + rng.gen_index(5)); // 4..=64 nodes
    let n = 1 + rng.gen_index(60);
    let mut w = Workload::new("prop", machine);
    w.jobs = (0..n)
        .map(|i| {
            let submit = rng.gen_range_i64(0, 4_999);
            let nodes = (1 + rng.gen_index(64) as u32).min(machine);
            let rt = rng.gen_range_i64(1, 1_999);
            let maxrt = rng.gen_range_i64(1, 3_999).max(rt);
            JobBuilder::new()
                .submit(Time(submit))
                .nodes(nodes)
                .runtime(Dur(rt))
                .max_runtime(Dur(maxrt))
                .build(JobId(i as u32))
        })
        .collect();
    w.finalize();
    w
}

/// Every algorithm finishes every job; no job starts early; run
/// times pass through untouched; the machine is never oversubscribed.
#[test]
fn engine_invariants() {
    for seed in 0u64..64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let wl = random_workload(&mut rng);
        let alg = [Algorithm::Fcfs, Algorithm::Lwf, Algorithm::Backfill][rng.gen_index(3)];
        let result = Simulation::run(&wl, alg, &mut OraclePredictor);
        assert_eq!(result.outcomes.len(), wl.len(), "seed {seed}");
        for o in &result.outcomes {
            assert!(o.start >= o.submit, "seed {seed}");
            assert_eq!(o.finish - o.start, wl.job(o.id).runtime, "seed {seed}");
        }
        // Node accounting sweep.
        let mut events: Vec<(Time, i64)> = Vec::new();
        for o in &result.outcomes {
            events.push((o.start, wl.job(o.id).nodes as i64));
            events.push((o.finish, -(wl.job(o.id).nodes as i64)));
        }
        events.sort_by_key(|&(t, d)| (t, d));
        let mut used = 0i64;
        for (_, d) in events {
            used += d;
            assert!(
                used <= wl.machine_nodes as i64,
                "seed {seed}: oversubscribed"
            );
        }
    }
}

/// FCFS preserves arrival order of start times.
#[test]
fn fcfs_starts_in_arrival_order() {
    for seed in 0u64..64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let wl = random_workload(&mut rng);
        let result = Simulation::run(&wl, Algorithm::Fcfs, &mut OraclePredictor);
        for pair in result.outcomes.windows(2) {
            assert!(
                pair[0].start <= pair[1].start,
                "seed {seed}: FCFS must start jobs in arrival order"
            );
        }
    }
}

/// FCFS + oracle forecasts are exact for every job of every random
/// workload (the Table 4 argument, randomly probed).
#[test]
fn fcfs_oracle_forecast_exact() {
    for seed in 0u64..32 {
        let mut rng = Rng64::seed_from_u64(seed);
        let wl = random_workload(&mut rng);
        let out = qpredict::core::run_wait_prediction(&wl, Algorithm::Fcfs, PredictorKind::Actual);
        assert_eq!(out.wait_errors.mean_abs_error_min(), 0.0, "seed {seed}");
    }
}

/// With exact estimates, no job's backfill start is later than its start
/// in a machine that runs jobs strictly one at a time in arrival order
/// (the worst feasible schedule).
#[test]
fn backfill_beats_serial_execution() {
    for seed in 0u64..64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let wl = random_workload(&mut rng);
        let bf = Simulation::run(&wl, Algorithm::Backfill, &mut OraclePredictor);
        // Strictly serial: each job starts after all earlier jobs finished.
        let mut t = Time::ZERO;
        for (o, j) in bf.outcomes.iter().zip(&wl.jobs) {
            t = t.max(j.submit);
            assert!(
                o.start <= t + Dur(wl.jobs.iter().map(|x| x.runtime.seconds()).sum::<i64>()),
                "seed {seed}: absurdly late start"
            );
            t += j.runtime;
            let _ = o;
        }
    }
}

/// Profile: any reservation placed at `earliest_fit` keeps the profile
/// valid and the window genuinely free.
#[test]
fn profile_fit_reserve_invariant() {
    for seed in 0u64..64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let machine = 32u32;
        // Keep running jobs within capacity by construction.
        let mut acc = 0u32;
        let running: Vec<(u32, Time)> = (0..rng.gen_index(6))
            .filter_map(|_| {
                let n = 1 + rng.gen_index(16) as u32;
                let end = rng.gen_range_i64(1, 499);
                if acc + n <= machine {
                    acc += n;
                    Some((n, Time(end)))
                } else {
                    None
                }
            })
            .collect();
        let mut p = Profile::new(machine, Time(0), &running);
        for _ in 0..(1 + rng.gen_index(19)) {
            let nodes = (1 + rng.gen_index(32) as u32).min(machine);
            let d = Dur(rng.gen_range_i64(1, 299));
            let at = p.earliest_fit(nodes, d);
            assert!(p.free_at(at) >= nodes, "seed {seed}");
            p.reserve(at, d, nodes);
            assert!(p.check().is_ok(), "seed {seed}");
        }
    }
}

/// Interarrival compression by a rational factor preserves job count,
/// run times, and ordering.
#[test]
fn compression_preserves_structure() {
    for seed in 0u64..32 {
        let mut rng = Rng64::seed_from_u64(seed);
        let wl = random_workload(&mut rng);
        let f = 1 + rng.gen_index(5) as u32;
        let c = qpredict::workload::compress_interarrivals(&wl, f as f64);
        assert_eq!(c.len(), wl.len(), "seed {seed}");
        assert!(c.validate().is_ok(), "seed {seed}");
        // Note: jobs may be renumbered if equal submit times reorder, so
        // compare multisets of runtimes.
        let mut a: Vec<i64> = wl.jobs.iter().map(|j| j.runtime.seconds()).collect();
        let mut b: Vec<i64> = c.jobs.iter().map(|j| j.runtime.seconds()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "seed {seed}");
    }
}

/// Predictions from every predictor are positive and at least
/// `elapsed + 1` for running jobs, whatever the history.
#[test]
fn predictions_respect_elapsed() {
    for seed in 0u64..50 {
        let mut rng = Rng64::seed_from_u64(seed);
        let elapsed = rng.gen_range_i64(0, 9_999);
        let wl = synthetic::toy(60, 16, seed);
        for kind in PredictorKind::ALL {
            let mut p = kind.build(&wl);
            use qpredict::predict::RunTimePredictor;
            // Train on the first half.
            for j in wl.jobs.iter().take(30) {
                RunTimePredictor::on_complete(&mut p, j);
            }
            let pred = p.predict(&wl.jobs[40], Dur(elapsed));
            assert!(
                pred.estimate >= Dur(elapsed + 1),
                "{}: {:?} given elapsed {} (seed {seed})",
                kind.name(),
                pred.estimate,
                elapsed
            );
        }
    }
}

/// Whatever the history — even degenerate one-second runtimes that pull
/// every fitted estimate toward zero — a clamped prediction never
/// rounds below one second.
#[test]
fn predictions_never_round_below_one_second() {
    use qpredict::predict::RunTimePredictor;
    for seed in 0u64..40 {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut tiny = synthetic::toy(40, 16, seed);
        for j in &mut tiny.jobs {
            j.runtime = Dur(1);
        }
        for kind in PredictorKind::ALL {
            let mut p = kind.build(&tiny);
            for j in tiny.jobs.iter().take(10 + rng.gen_index(30)) {
                RunTimePredictor::on_complete(&mut p, j);
            }
            let pred = p.predict(&tiny.jobs[39], Dur::ZERO);
            assert!(
                pred.estimate >= Dur(1),
                "{}: estimate {:?} fell below the one-second floor (seed {seed})",
                kind.name(),
                pred.estimate
            );
        }
    }
}

/// Profile vs brute force: `free_at` and `earliest_fit` agree with a
/// naive per-second free-node array on random running sets, with random
/// reservations applied to both as the exercise proceeds.
#[test]
fn profile_matches_per_second_oracle() {
    const HORIZON: i64 = 4_000;
    for seed in 0u64..40 {
        let mut rng = Rng64::seed_from_u64(seed);
        let machine = 1 + rng.gen_index(31) as u32;
        let now = rng.gen_range_i64(0, 99);
        let mut acc = 0u32;
        let running: Vec<(u32, Time)> = (0..rng.gen_index(6))
            .filter_map(|_| {
                let n = 1 + rng.gen_index(machine as usize) as u32;
                let end = now + rng.gen_range_i64(1, 399);
                if acc + n <= machine {
                    acc += n;
                    Some((n, Time(end)))
                } else {
                    None
                }
            })
            .collect();
        let mut p = Profile::new(machine, Time(now), &running);
        // The oracle: free nodes for every second of [now, now+HORIZON);
        // everything is free past the horizon.
        let mut free = vec![machine; HORIZON as usize];
        for &(n, end) in &running {
            for t in now..end.0.min(now + HORIZON) {
                free[(t - now) as usize] -= n;
            }
        }
        let free_at = |free: &[u32], t: i64| -> u32 {
            if t >= now + HORIZON {
                machine
            } else {
                free[(t - now) as usize]
            }
        };
        for _ in 0..(1 + rng.gen_index(8)) {
            for t in now..(now + 1000) {
                assert_eq!(
                    p.free_at(Time(t)),
                    free_at(&free, t),
                    "seed {seed}: free_at({t}) disagrees with per-second scan"
                );
            }
            let nodes = 1 + rng.gen_index(machine as usize) as u32;
            let d = Dur(rng.gen_range_i64(1, 199));
            let at = p.earliest_fit(nodes, d);
            let mut want = now;
            while let Some(busy) = (want..want + d.0).find(|&t| free_at(&free, t) < nodes) {
                want = busy + 1;
            }
            assert_eq!(
                at.0, want,
                "seed {seed}: earliest_fit({nodes}, {d:?}) disagrees with first-window scan"
            );
            p.reserve(at, d, nodes);
            assert!(p.check().is_ok(), "seed {seed}");
            for t in at.0..(at.0 + d.0).min(now + HORIZON) {
                free[(t - now) as usize] -= nodes;
            }
        }
    }
}

/// Forecast monotonicity: a target behind a *longer-believed* queue
/// never starts earlier under FCFS.
#[test]
fn fcfs_forecast_monotone_in_predictions() {
    for seed in 0u64..64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let base = rng.gen_range_i64(10, 499);
        let extra = rng.gen_range_i64(0, 499);
        let mut w = Workload::new("t", 8);
        w.jobs = vec![
            JobBuilder::new()
                .nodes(8)
                .runtime(Dur(base))
                .build(JobId(0)),
            JobBuilder::new()
                .nodes(8)
                .runtime(Dur(50))
                .submit(Time(1))
                .build(JobId(1)),
        ];
        w.finalize();
        let snap = qpredict::sim::Snapshot {
            now: Time(1),
            free_nodes: 0,
            running: vec![(JobId(0), Time(0))],
            queued: vec![(JobId(1), 0)],
        };
        let short = forecast_start(
            &w,
            Algorithm::Fcfs,
            &snap,
            |_, e| Dur(base).max(e + Dur(1)),
            |_, e| Dur(base).max(e + Dur(1)),
            JobId(1),
        );
        let long = forecast_start(
            &w,
            Algorithm::Fcfs,
            &snap,
            |_, e| Dur(base + extra).max(e + Dur(1)),
            |_, e| Dur(base + extra).max(e + Dur(1)),
            JobId(1),
        );
        assert!(long >= short, "seed {seed}");
    }
}
