//! Property tests: the incremental-moment estimator paths must agree
//! with the naive full-scan oracle on seeded random histories.
//!
//! Regression sums are maintained append-only with recompute-on-evict,
//! which preserves the exact f64 addition order of a fresh scan — so
//! regression estimates are asserted **bit-identical** to the oracle.
//! The mean moments (`abs`/`ratio`) use subtract-on-evict, whose low-bit
//! drift is inherent; they are asserted bit-identical until the first
//! eviction and within tight relative tolerance after.

use qpredict_predict::category::{History, Point};
use qpredict_predict::estimators::{mean, regression, regression_from_moments, Estimate};
use qpredict_predict::{
    DowneyPredictor, DowneyVariant, EstimatorKind, GibbonsPredictor, RunTimePredictor,
    SmithPredictor, Template, TemplateSet,
};
use qpredict_workload::rng::Rng64;
use qpredict_workload::{Characteristic, Dur, Job, JobBuilder, JobId, SymbolTable};

fn rand_point(rng: &mut Rng64) -> Point {
    let runtime = rng.gen_range_f64(1.0, 50_000.0);
    let has_limit = rng.gen_bool(0.8);
    Point {
        runtime,
        ratio: if has_limit {
            runtime / rng.gen_range_f64(runtime, runtime * 20.0).max(1.0)
        } else {
            f64::NAN
        },
        nodes: (1 + rng.gen_index(128)) as f64,
    }
}

fn assert_bit_identical(fast: Option<Estimate>, scan: Option<Estimate>, what: &str) {
    match (fast, scan) {
        (None, None) => {}
        (Some(f), Some(s)) => {
            assert_eq!(f.n, s.n, "{what}: n");
            assert_eq!(
                f.value.to_bits(),
                s.value.to_bits(),
                "{what}: value {} vs {}",
                f.value,
                s.value
            );
            assert_eq!(
                f.ci.to_bits(),
                s.ci.to_bits(),
                "{what}: ci {} vs {}",
                f.ci,
                s.ci
            );
        }
        (f, s) => panic!("{what}: fast {f:?} vs scan {s:?}"),
    }
}

fn assert_close(fast: Option<Estimate>, scan: Option<Estimate>, what: &str) {
    match (fast, scan) {
        (None, None) => {}
        (Some(f), Some(s)) => {
            assert_eq!(f.n, s.n, "{what}: n");
            let close =
                |a: f64, b: f64| (a == b) || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
            assert!(
                close(f.value, s.value),
                "{what}: value {} vs {}",
                f.value,
                s.value
            );
            // The interval is a *square root* of the drifting quantity:
            // subtract-on-evict residue of ~1e-16 relative to sum2
            // surfaces as ~1e-8 absolute in the CI when the true
            // variance is ~0 (near-constant history). Tolerate drift
            // proportional to the value scale.
            let scale = f.value.abs().max(s.value.abs()).max(1.0);
            let ci_close = close(f.ci, s.ci) || (f.ci - s.ci).abs() <= 1e-6 * scale;
            assert!(ci_close, "{what}: ci {} vs {}", f.ci, s.ci);
        }
        (f, s) => panic!("{what}: fast {f:?} vs scan {s:?}"),
    }
}

/// Every estimator configuration, relative and absolute, capped and
/// uncapped: incremental History aggregates vs a naive rescan of the
/// retained points.
#[test]
fn history_moments_match_full_scan_oracle() {
    let mut rng = Rng64::seed_from_u64(0xA11CE);
    for case in 0..200 {
        let estimator = EstimatorKind::ALL[rng.gen_index(4)];
        let relative = rng.gen_bool(0.5);
        let cap = if rng.gen_bool(0.5) {
            Some(2 + rng.gen_index(12) as u32)
        } else {
            None
        };
        let mut t = Template::mean_over(&[]).with_estimator(estimator);
        if relative {
            t = t.relative();
        }
        if let Some(c) = cap {
            t = t.with_max_history(c);
        }
        let mut h = History::default();
        let mut evicted_yet = false;
        let n_points = 1 + rng.gen_index(40);
        for i in 0..n_points {
            let mut p = rand_point(&mut rng);
            if relative && !p.ratio.is_finite() {
                // Relative categories only ever receive limited jobs
                // (applies_to requires a limit at insertion).
                p.ratio = p.runtime / (p.runtime * 2.0);
            }
            h.push(p, &t);
            if let Some(c) = cap {
                evicted_yet |= i + 1 > c as usize;
            }
            let what = format!("case {case} point {i} ({estimator:?} rel={relative} cap={cap:?})");
            let value_of = |q: &Point| if relative { q.ratio } else { q.runtime };
            let x0 = (1 + rng.gen_index(256)) as f64;
            match estimator.regression() {
                None => {
                    let m = if relative {
                        h.ratio_moments()
                    } else {
                        h.abs_moments()
                    };
                    let fast = qpredict_predict::estimators::mean_from_moments(m.n, m.sum, m.sum2);
                    let scan = mean(h.iter().map(value_of));
                    if evicted_yet {
                        assert_close(fast, scan, &what);
                    } else {
                        assert_bit_identical(fast, scan, &what);
                    }
                }
                Some(kind) => {
                    let m = h
                        .reg_moments(kind, relative)
                        .expect("regression template maintains sums");
                    let fast =
                        regression_from_moments(kind, m.n, m.sg, m.sy, m.sgg, m.sgy, m.syy, x0);
                    let scan = regression(kind, h.iter().map(|q| (q.nodes, value_of(q))), x0);
                    // Recompute-on-evict keeps regressions exact even
                    // after eviction.
                    assert_bit_identical(fast, scan, &what);
                }
            }
        }
    }
}

fn rand_job(rng: &mut Rng64, syms: &mut SymbolTable, id: u32) -> Job {
    let user = syms.intern(["ann", "bob", "cho", "dee"][rng.gen_index(4)]);
    let exe = syms.intern(["fft", "cfd", "qcd"][rng.gen_index(3)]);
    let runtime = Dur(1 + rng.gen_range_i64(1, 40_000));
    let mut b = JobBuilder::new()
        .with(Characteristic::User, user)
        .with(Characteristic::Executable, exe)
        .nodes(1 + rng.gen_index(64) as u32)
        .runtime(runtime);
    if rng.gen_bool(0.8) {
        b = b.max_runtime(Dur(runtime.0 * rng.gen_range_i64(1, 20)));
    }
    b.build(JobId(id))
}

fn spicy_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[Characteristic::User])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_max_history(6),
        Template::mean_over(&[Characteristic::Executable])
            .with_estimator(EstimatorKind::InverseRegression)
            .relative(),
        Template::mean_over(&[])
            .with_estimator(EstimatorKind::LogRegression)
            .with_max_history(4),
        Template::mean_over(&[Characteristic::User])
            .relative()
            .with_max_history(3),
        Template::mean_over(&[Characteristic::User]).with_rtime(),
        Template::mean_over(&[]),
    ])
}

/// Generations bump exactly on state mutations: for each learning
/// predictor the generation is the number of completions fed, and no
/// prediction, queued or running, moves it.
#[test]
fn generation_contract() {
    let predictors: Vec<Box<dyn RunTimePredictor>> = vec![
        Box::new(SmithPredictor::new(spicy_set())),
        Box::new(GibbonsPredictor::new()),
        Box::new(DowneyPredictor::new(
            DowneyVariant::ConditionalAverage,
            Some(Characteristic::User),
        )),
        Box::new(DowneyPredictor::new(DowneyVariant::ConditionalMedian, None)),
    ];
    for mut p in predictors {
        let name = p.name();
        let mut rng = Rng64::seed_from_u64(7);
        let mut syms = SymbolTable::new();
        for i in 0..30 {
            let j = rand_job(&mut rng, &mut syms, i);
            for elapsed in [Dur::ZERO, Dur(rng.gen_range_i64(1, 20_000))] {
                let _ = p.predict(&j, elapsed);
                assert_eq!(
                    p.generation(),
                    Some(i.into()),
                    "{name}: predict must not bump"
                );
            }
            p.on_complete(&j);
            assert_eq!(
                p.generation(),
                Some(u64::from(i) + 1),
                "{name}: on_complete"
            );
        }
    }
}
