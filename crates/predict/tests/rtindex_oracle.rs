//! Property tests: elapsed-conditioned estimates read from the runtime
//! index must equal, bit for bit, the scan they replace.
//!
//! The index answers only when its integer sums convert and add in f64
//! exactly, so unlike the subtract-on-evict mean moments there is no
//! tolerance anywhere here: value, interval and sample count are
//! compared by their bits, including after evictions. Histories the
//! index cannot answer exactly (non-integral points, sums past 2^53)
//! must decline, leaving the predictor on its scan, and still match.

use qpredict_durable::codec::{decode, encode};
use qpredict_predict::category::{History, Point, INDEX_MIN_POINTS};
use qpredict_predict::estimators::{
    mean, mean_from_moments, regression, regression_from_moments, Estimate, RegressionKind,
};
use qpredict_predict::{
    EstimatorKind, Prediction, RunTimePredictor, SmithPredictor, Template, TemplateSet,
};
use qpredict_workload::rng::Rng64;
use qpredict_workload::{Characteristic, Dur, Job, JobBuilder, JobId, SymbolTable};

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
        (f, s) => panic!("{what}: index {f:?} vs scan {s:?}"),
    }
}

/// The scan `SmithPredictor` runs for an elapsed-conditioned absolute
/// template: every point whose run time exceeds `elapsed_s`, in
/// insertion order.
fn scan(h: &History, kind: Option<RegressionKind>, elapsed_s: f64, x0: f64) -> Option<Estimate> {
    let above = h.iter().filter(|p| p.runtime > elapsed_s);
    match kind {
        None => mean(above.map(|p| p.runtime)),
        Some(kind) => regression(kind, above.map(|p| (p.nodes, p.runtime)), x0),
    }
}

/// The same estimate from the index's moments, or `None` when the
/// index declines. The run time the index reports at its split must be
/// the scan's bound.
fn indexed(
    h: &History,
    kind: Option<RegressionKind>,
    elapsed_s: f64,
    x0: f64,
) -> Option<Option<Estimate>> {
    let (m, _, next) = h.rtime_moments(elapsed_s)?;
    assert_eq!(
        next.map_or(Dur::MAX, |r| Dur(i64::from(r))),
        scan_bound(h, elapsed_s),
        "elapsed {elapsed_s}: the index's next run time"
    );
    Some(match kind {
        None => mean_from_moments(m.n, m.sy, m.syy),
        Some(kind) => regression_from_moments(kind, m.n, m.sg, m.sy, m.sgg, m.sgy, m.syy, x0),
    })
}

/// The elapsed time at which the scan's selection first changes: the
/// smallest run time above `elapsed_s`, rounded up, or `Dur::MAX` when
/// none lies above.
fn scan_bound(h: &History, elapsed_s: f64) -> Dur {
    h.iter()
        .map(|p| p.runtime)
        .filter(|&r| r > elapsed_s)
        .reduce(f64::min)
        .map_or(Dur::MAX, |r| Dur(r.ceil() as i64))
}

fn point(runtime: f64, nodes: f64) -> Point {
    Point {
        runtime,
        ratio: f64::NAN,
        nodes,
    }
}

/// Seeded histories with integral run times — narrow value ranges for
/// many ties, wide ones for few — capped (evicting) and uncapped, under
/// mean and linear `rtime` templates; probed at elapsed times below,
/// between, equal to and above the stored values.
#[test]
fn indexed_rtime_estimates_match_scan() {
    let mut rng = Rng64::seed_from_u64(0x1DE5);
    let mut answered = 0u64;
    for case in 0..40 {
        let linear = case % 2 == 1;
        let mut t = Template::mean_over(&[]).with_rtime();
        if linear {
            t = t.with_estimator(EstimatorKind::LinearRegression);
        }
        if rng.gen_bool(0.6) {
            t = t.with_max_history((INDEX_MIN_POINTS + rng.gen_index(300)) as u32);
        }
        let kind = t.estimator.regression();
        let span = [8, 300, 90_000][rng.gen_index(3)];
        let mut h = History::default();
        for i in 0..500 {
            let node_span = if rng.gen_bool(0.2) { 1 } else { 128 };
            let p = point(
                rng.gen_range_i64(0, span) as f64,
                (1 + rng.gen_index(node_span)) as f64,
            );
            h.push(p, &t);
            let stored = h.iter().nth(rng.gen_index(h.len())).unwrap().runtime;
            let probes = [
                1.0,
                stored - 1.0,
                stored,
                stored + 1.0,
                rng.gen_range_i64(1, span + 5) as f64,
                (span + 10) as f64,
            ];
            for e in probes.into_iter().filter(|&e| e > 0.0) {
                let x0 = (1 + rng.gen_index(256)) as f64;
                let what = format!("case {case} point {i} elapsed {e} (linear={linear} {t})");
                match indexed(&h, kind, e, x0) {
                    Some(fast) => {
                        answered += 1;
                        assert_bit_identical(fast, scan(&h, kind, e, x0), &what);
                    }
                    None => assert!(
                        h.len() < INDEX_MIN_POINTS,
                        "{what}: a large integral history must be indexed"
                    ),
                }
            }
        }
    }
    assert!(answered > 50_000, "index answered only {answered} probes");
}

/// Capped histories on both sides of the index threshold and of the
/// first stride boundaries, under FIFO churn: at, just below and just
/// above every resident run time, the estimate matches the scan bit for
/// bit, and the index answers exactly when the history has reached the
/// threshold.
#[test]
fn histories_through_the_threshold_and_every_stride_boundary() {
    let mut rng = Rng64::seed_from_u64(0x16);
    let mut answered = 0u64;
    for cap in [1, 2, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64, 65] {
        for linear in [false, true] {
            let mut t = Template::mean_over(&[]).with_rtime().with_max_history(cap);
            if linear {
                t = t.with_estimator(EstimatorKind::LinearRegression);
            }
            let kind = t.estimator.regression();
            let mut h = History::default();
            for i in 0..2 * cap + 40 {
                let p = point(
                    rng.gen_range_i64(0, 40) as f64,
                    (1 + rng.gen_index(16)) as f64,
                );
                h.push(p, &t);
                let mut probes: Vec<f64> = h
                    .iter()
                    .flat_map(|p| [p.runtime - 1.0, p.runtime, p.runtime + 1.0])
                    .filter(|&e| e > 0.0)
                    .collect();
                probes.sort_by(f64::total_cmp);
                probes.dedup();
                for e in probes {
                    let x0 = (1 + rng.gen_index(16)) as f64;
                    let what = format!("cap {cap} point {i} elapsed {e} (linear={linear})");
                    let fast = indexed(&h, kind, e, x0);
                    assert_eq!(fast.is_some(), h.len() >= INDEX_MIN_POINTS, "{what}");
                    if let Some(fast) = fast {
                        answered += 1;
                        assert_bit_identical(fast, scan(&h, kind, e, x0), &what);
                    }
                }
            }
        }
    }
    assert!(answered > 10_000, "index answered only {answered} probes");
}

/// The prediction `p`, whose longest run time seen is `max_seen`, makes
/// for `probe` at each elapsed time equals the one a scan of `h`, its
/// only category, gives, window included.
fn predicts_as_the_scan(
    p: &mut SmithPredictor,
    h: &History,
    max_seen: f64,
    probe: &Job,
    elapsed: &[i64],
) {
    for &e in elapsed {
        let got = p.predict(probe, Dur(e));
        let want = scan(h, None, e as f64, probe.nodes as f64).expect("points above");
        assert_eq!(got.ci_halfwidth.to_bits(), want.ci.to_bits(), "elapsed {e}");
        let expected = Prediction {
            estimate: Dur::from_secs_f64(want.value.clamp(1.0, (max_seen * 2.0).max(3600.0))),
            ci_halfwidth: want.ci,
            fallback: false,
            holds_below: scan_bound(h, e as f64),
        }
        .clamped(Dur(e));
        assert_eq!(got, expected, "elapsed {e}");
    }
}

/// Sums past 2^53 and non-integral points make the index decline; the
/// scan then serves the estimate, and the predictor still matches it.
#[test]
fn unrepresentable_histories_fall_back_to_the_scan() {
    let t = Template::mean_over(&[]).with_rtime().with_max_history(100);
    // Non-integral run times (only reachable through a decoded or
    // hand-built history): declined while any is resident.
    let mut h = History::default();
    for i in 0..100 {
        h.push(point(100.0 + i as f64, 4.0), &t);
    }
    assert!(h.rtime_moments(50.0).is_some());
    h.push(point(150.5, 4.0), &t);
    assert!(h.rtime_moments(50.0).is_none(), "non-integral point");
    for i in 0..99 {
        h.push(point(300.0 + i as f64, 4.0), &t);
        assert!(h.rtime_moments(50.0).is_none(), "still resident at {i}");
    }
    h.push(point(500.0, 4.0), &t);
    assert!(h.rtime_moments(50.0).is_some(), "evicted: indexed again");

    // Run times near 10^8 s: Σy² passes 2^53 with the first point, so
    // every suffix that contains a large point is declined.
    let mut syms = SymbolTable::new();
    let q = syms.intern("batch");
    let set = TemplateSet::new(vec![
        Template::mean_over(&[Characteristic::Queue]).with_rtime()
    ]);
    let mut p = SmithPredictor::new(set);
    let mut h = History::default();
    let mut rng = Rng64::seed_from_u64(53);
    let mut max_seen = 0.0f64;
    for i in 0..200u32 {
        let rt = if i % 3 == 0 {
            rng.gen_range_i64(90_000_000, 110_000_000)
        } else {
            rng.gen_range_i64(1, 5_000)
        };
        let job = JobBuilder::new()
            .with(Characteristic::Queue, q)
            .nodes(1 + i % 7)
            .runtime(Dur(rt))
            .build(JobId(i));
        p.on_complete(&job);
        h.push(Point::from_job(&job), &p.template_set().templates()[0]);
        max_seen = max_seen.max(rt as f64);
    }
    assert!(h.rtime_moments(10.0).is_none(), "Σy² is past 2^53");
    assert!(h.rtime_moments(200_000_000.0).is_some(), "empty suffix");
    let probe = JobBuilder::new()
        .with(Characteristic::Queue, q)
        .nodes(3)
        .build(JobId(999));
    predicts_as_the_scan(
        &mut p,
        &h,
        max_seen,
        &probe,
        &[1, 100, 4_999, 5_000, 95_000_000],
    );
}

/// A history whose true Σy² passes 2^64, with run times chosen so that
/// the sum wrapped to 64 bits is small: (2^32 - 1)^2 + 92,682^2 = 2^64 +
/// 18,533. The index must decline every query while both points are
/// resident, however plausible its wrapped sums look, the predictor must
/// scan, and once the largest point is evicted the index must answer
/// exactly again.
#[test]
fn sums_past_two_to_the_64_decline_and_scan() {
    let mut syms = SymbolTable::new();
    let q = syms.intern("batch");
    let set = TemplateSet::new(vec![Template::mean_over(&[Characteristic::Queue])
        .with_rtime()
        .with_max_history(24)]);
    let t = set.templates()[0];
    let mut p = SmithPredictor::new(set);
    let mut h = History::default();
    let complete = |id: u32, rt: i64, p: &mut SmithPredictor, h: &mut History| {
        let job = JobBuilder::new()
            .with(Characteristic::Queue, q)
            .nodes(1)
            .runtime(Dur(rt))
            .build(JobId(id));
        p.on_complete(&job);
        h.push(Point::from_job(&job), &t);
    };
    complete(0, i64::from(u32::MAX), &mut p, &mut h);
    complete(1, 92_682, &mut p, &mut h);
    for i in 2..22 {
        complete(i, 100 + i64::from(i), &mut p, &mut h);
    }
    let probe = JobBuilder::new()
        .with(Characteristic::Queue, q)
        .nodes(1)
        .build(JobId(999));
    let elapsed = [1, 100, 110, 121, 122, 92_681, 92_682, 100_000];
    for &e in &elapsed {
        assert!(
            h.rtime_moments(e as f64).is_none(),
            "elapsed {e}: Σy² ≥ 2^64"
        );
    }
    predicts_as_the_scan(&mut p, &h, f64::from(u32::MAX), &probe, &elapsed);
    // Three more points evict the first: Σy² falls below 2^53.
    for i in 22..25 {
        complete(i, 100 + i64::from(i), &mut p, &mut h);
    }
    assert!(h.iter().all(|q| q.runtime < 1e6), "evicted");
    for &e in &elapsed {
        let fast = indexed(&h, None, e as f64, 1.0).expect("exact again");
        assert_bit_identical(fast, scan(&h, None, e as f64, 1.0), &format!("elapsed {e}"));
    }
    predicts_as_the_scan(&mut p, &h, f64::from(u32::MAX), &probe, &elapsed[..6]);
}

fn rtime_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[Characteristic::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_rtime(),
        Template::mean_over(&[Characteristic::Queue, Characteristic::User])
            .with_max_history(80)
            .with_rtime(),
        Template::mean_over(&[Characteristic::Queue])
            .relative()
            .with_rtime(),
        Template::mean_over(&[Characteristic::User]),
    ])
}

fn rand_job(rng: &mut Rng64, syms: &mut SymbolTable, id: u32) -> Job {
    let queue = syms.intern(["q16", "q64", "q256"][rng.gen_index(3)]);
    let user = syms.intern(["ann", "bob"][rng.gen_index(2)]);
    let runtime = Dur(rng.gen_range_i64(1, 30_000));
    JobBuilder::new()
        .with(Characteristic::Queue, queue)
        .with(Characteristic::User, user)
        .nodes(1 + rng.gen_index(64) as u32)
        .runtime(runtime)
        .max_runtime(Dur(runtime.0 * rng.gen_range_i64(1, 4)))
        .build(JobId(id))
}

/// A decoded predictor rebuilds its indexes from the decoded points:
/// its later predictions, and the points they traverse, match the
/// original's — a predictor left scanning would traverse more.
#[test]
fn decoded_predictor_rebuilds_its_indexes() {
    let mut rng = Rng64::seed_from_u64(0xDEC0DE);
    let mut syms = SymbolTable::new();
    let mut p = SmithPredictor::new(rtime_set());
    let mut jobs = Vec::new();
    for id in 0..900 {
        let j = rand_job(&mut rng, &mut syms, id);
        p.on_complete(&j);
        jobs.push(j);
    }
    let state = encode(&p);
    let mut back: SmithPredictor = decode(&state, &rtime_set()).expect("decodes");
    assert_eq!(encode(&back), state);
    for round in 0..300 {
        let probe = &jobs[rng.gen_index(jobs.len())];
        let elapsed = Dur(rng.gen_range_i64(0, 32_000));
        assert_eq!(
            p.predict(probe, elapsed),
            back.predict(probe, elapsed),
            "round {round}"
        );
        if round % 50 == 49 {
            let j = rand_job(&mut rng, &mut syms, 10_000 + round);
            p.on_complete(&j);
            back.on_complete(&j);
        }
    }
    let ops = p.estimate_ops();
    assert!(ops.scan_estimates > 0 && ops.moment_points > 0);
    assert_eq!(back.estimate_ops(), ops, "the decoded predictor scanned");
    assert_eq!(encode(&back), encode(&p));
}

/// A set with a duplicated template predicts exactly like the set
/// without the duplicate, and keeps no extra categories.
#[test]
fn duplicate_templates_share_one_category() {
    let base = rtime_set();
    let mut with_dup = base.templates().to_vec();
    with_dup.insert(1, with_dup[0]);
    with_dup.push(with_dup[3]);
    let dup_set = TemplateSet::new(with_dup);
    let mut a = SmithPredictor::new(base);
    let mut b = SmithPredictor::new(dup_set);
    let mut rng = Rng64::seed_from_u64(0xD0B1E);
    let mut syms = SymbolTable::new();
    let mut jobs = Vec::new();
    for id in 0..600 {
        let j = rand_job(&mut rng, &mut syms, id);
        a.on_complete(&j);
        b.on_complete(&j);
        jobs.push(j);
        let probe = &jobs[rng.gen_index(jobs.len())];
        for elapsed in [Dur::ZERO, Dur(rng.gen_range_i64(1, 30_000))] {
            assert_eq!(
                a.predict(probe, elapsed),
                b.predict(probe, elapsed),
                "job {id} elapsed {elapsed:?}"
            );
        }
    }
    assert_eq!(a.category_count(), b.category_count());
    assert_eq!(a.resident_points(), b.resident_points());
    assert_eq!(a.estimate_ops(), b.estimate_ops());
}
