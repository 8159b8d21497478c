//! One-off capture of scheduler/wait-time outputs used to seed the
//! estimation-refactor regression lock (`tests/estimation_lock.rs`).
//!
//! Run with `cargo run --release --example lock_capture` and paste the
//! printed rows into the lock test's constant tables. Every floating
//! value is fingerprinted via `f64::to_bits`, so the lock is exact to
//! the last ulp — any change in summation order, estimator math, or
//! scheduling decisions shows up as a mismatch.

use qpredict_core::{
    run_scheduling, run_scheduling_with, run_state_wait_prediction, run_wait_prediction,
    PredictorKind, SchedulingOutcome,
};
use qpredict_predict::{ErrorStats, EstimatorKind, Template, TemplateSet};
use qpredict_sim::{Algorithm, FaultPlan, Metrics};
use qpredict_workload::synthetic::{generate, sites, toy};
use qpredict_workload::{Characteristic as C, Workload};

/// FNV-1a over the bit patterns of an [`ErrorStats`]' public accessors
/// (which jointly determine every private field up to bit identity).
fn fp_stats(e: &ErrorStats) -> u64 {
    let words = [
        e.count(),
        e.mean_abs_error_min().to_bits(),
        e.mean_bias_min().to_bits(),
        e.mean_actual_min().to_bits(),
        e.rmse_min().to_bits(),
        e.max_abs_error_min().to_bits(),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a schedule's [`Metrics`].
fn fp_metrics(m: &Metrics) -> u64 {
    let words = [
        m.n_jobs as u64,
        m.mean_wait.seconds() as u64,
        m.median_wait.seconds() as u64,
        m.max_wait.seconds() as u64,
        m.makespan.seconds() as u64,
        m.utilization.to_bits(),
        m.utilization_window.to_bits(),
        m.mean_bounded_slowdown.to_bits(),
        m.total_work_node_s.to_bits(),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A template set that deliberately exercises every estimator path:
/// regressions in all three transform spaces, relative (ratio) values,
/// capped history (the eviction path), and elapsed-time conditioning.
fn lock_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::User, C::Executable]).with_node_range(1),
        Template::mean_over(&[C::User]).with_estimator(EstimatorKind::LinearRegression),
        Template::mean_over(&[C::User])
            .with_estimator(EstimatorKind::InverseRegression)
            .relative(),
        Template::mean_over(&[C::Executable])
            .with_estimator(EstimatorKind::LogRegression)
            .with_max_history(8),
        Template::mean_over(&[]).relative().with_max_history(4),
        Template::mean_over(&[C::User]).with_rtime(),
    ])
}

/// The SDSC96 site model at 2,000 jobs, built the way the CLI builds
/// `waitpred sdsc96 --jobs 2000`: large `(Queue)` categories that reach
/// the elapsed-time conditioning of the shipped GA set at scale.
fn sdsc96_2k() -> Workload {
    let mut spec = sites::sdsc96_spec();
    spec.n_jobs = 2000;
    spec.n_users = spec.n_users.min(100);
    generate(&spec)
}

/// An `rtime`-heavy set for the SDSC96 cells whose history caps evict
/// within 2,000 jobs: a duplicated linear `(Queue)` template, a capped
/// `(Queue)` mean and a tightly capped `(Queue, User)` mean.
fn rtime_capped_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_max_history(300)
            .with_rtime(),
        Template::mean_over(&[C::Queue])
            .with_max_history(200)
            .with_rtime(),
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_max_history(300)
            .with_rtime(),
        Template::mean_over(&[C::Queue, C::User])
            .with_max_history(40)
            .with_rtime(),
    ])
}

fn site_kinds() -> Vec<(&'static str, PredictorKind)> {
    vec![
        ("smith", PredictorKind::Smith),
        (
            "smith-rtime-capped",
            PredictorKind::SmithWith(rtime_capped_set()),
        ),
        ("gibbons", PredictorKind::Gibbons),
    ]
}

fn kinds() -> Vec<(&'static str, PredictorKind)> {
    vec![
        ("actual", PredictorKind::Actual),
        ("maxrt", PredictorKind::MaxRuntime),
        ("smith", PredictorKind::Smith),
        ("smith-lock", PredictorKind::SmithWith(lock_set())),
        ("gibbons", PredictorKind::Gibbons),
        ("downey-avg", PredictorKind::DowneyAverage),
    ]
}

/// FNV-1a over a scheduling run's fault accounting (trace mutations and
/// corrupted estimates) and its fallback-chain accounting (estimates from
/// fallback paths and per-tier degradation counts). Absent parts hash as
/// zeros.
fn fp_robustness(out: &SchedulingOutcome) -> u64 {
    let mut words = vec![out.fallback_estimates];
    let f = out.faults.unwrap_or_default();
    words.extend([
        f.trace.cancelled as u64,
        f.trace.failed as u64,
        f.trace.delayed as u64,
        f.estimates.scaled,
        f.estimates.inverted,
        f.estimates.dropped,
    ]);
    let d = out.degradations.clone().unwrap_or_default();
    words.extend(d.served.iter().map(|&(_, n)| n));
    words.extend([d.user_limit, d.static_default, d.degradations]);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The robustness paths over `toy(300, 32, 41)`: prediction noise under
/// LWF and backfill, trace faults under backfill and the fallback chain
/// under backfill, as `(label, metrics fp, runtime-error fp, robustness
/// fp)`; then state-based wait prediction over `toy(220, 32, 42)` with
/// backfill + Smith, whose third fingerprint is its wait errors.
fn robustness_cells() -> Vec<(&'static str, u64, u64, u64)> {
    let wl = toy(300, 32, 41);
    let noise = FaultPlan::pred_noise(3, 0.3);
    let trace = FaultPlan {
        cancel_prob: 0.05,
        fail_prob: 0.05,
        delay_prob: 0.1,
        ..FaultPlan::new(7)
    };
    let runs = [
        (
            "LWF pred-noise",
            Algorithm::Lwf,
            PredictorKind::Smith,
            Some(&noise),
        ),
        (
            "Backfill pred-noise",
            Algorithm::Backfill,
            PredictorKind::Smith,
            Some(&noise),
        ),
        (
            "Backfill trace-faults",
            Algorithm::Backfill,
            PredictorKind::Smith,
            Some(&trace),
        ),
        (
            "Backfill fallback",
            Algorithm::Backfill,
            PredictorKind::Fallback,
            None,
        ),
    ];
    let mut cells: Vec<_> = runs
        .into_iter()
        .map(|(label, alg, kind, plan)| {
            let out = run_scheduling_with(&wl, alg, kind, plan);
            (
                label,
                fp_metrics(&out.metrics),
                fp_stats(&out.runtime_errors),
                fp_robustness(&out),
            )
        })
        .collect();
    let out =
        run_state_wait_prediction(&toy(220, 32, 42), Algorithm::Backfill, PredictorKind::Smith);
    cells.push((
        "Backfill statewait",
        fp_metrics(&out.metrics),
        fp_stats(&out.runtime_errors),
        fp_stats(&out.wait_errors),
    ));
    cells
}

fn main() {
    println!("// --- scheduling lock: toy(300, 32, 41) ---");
    let wl = toy(300, 32, 41);
    for alg in [Algorithm::Lwf, Algorithm::Backfill, Algorithm::EasyBackfill] {
        for (label, kind) in kinds() {
            let out = run_scheduling(&wl, alg, kind);
            println!(
                "    (\"{alg}\", \"{label}\", {:#018x}, {:#018x}),",
                fp_metrics(&out.metrics),
                fp_stats(&out.runtime_errors),
            );
        }
    }

    println!("// --- wait-time lock: toy(220, 32, 42) ---");
    let wl = toy(220, 32, 42);
    for (alg, label, kind) in [
        (Algorithm::Fcfs, "smith", PredictorKind::Smith),
        (
            Algorithm::Lwf,
            "smith-lock",
            PredictorKind::SmithWith(lock_set()),
        ),
        (Algorithm::Backfill, "smith", PredictorKind::Smith),
        (Algorithm::Backfill, "gibbons", PredictorKind::Gibbons),
    ] {
        let out = run_wait_prediction(&wl, alg, kind);
        println!(
            "    (\"{alg}\", \"{label}\", {:#018x}, {:#018x}, {:#018x}),",
            fp_metrics(&out.metrics),
            fp_stats(&out.wait_errors),
            fp_stats(&out.runtime_errors),
        );
    }

    println!("// --- site lock: SDSC96 site model, 2000 jobs, Backfill ---");
    let wl = sdsc96_2k();
    for (label, kind) in site_kinds() {
        let out = run_scheduling(&wl, Algorithm::Backfill, kind.clone());
        let wait = run_wait_prediction(&wl, Algorithm::Backfill, kind);
        println!(
            "    (\"{label}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
            fp_metrics(&out.metrics),
            fp_stats(&out.runtime_errors),
            fp_metrics(&wait.metrics),
            fp_stats(&wait.wait_errors),
            fp_stats(&wait.runtime_errors),
        );
    }

    println!("// --- robustness lock: faults, fallback chain, state-based waits ---");
    for (label, a, b, c) in robustness_cells() {
        println!("    (\"{label}\", {a:#018x}, {b:#018x}, {c:#018x}),");
    }
}
