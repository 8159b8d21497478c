//! Property tests: predictions that reuse a memoized per-signature
//! selection must equal, bit for bit, predictions computed from scratch.
//!
//! `SmithPredictor::predict` memoizes, per job signature, the winning
//! estimate over the templates without elapsed-time conditioning, and
//! reuses it until a completion pushes into one of those categories. The
//! streams below probe the same jobs again and again between
//! completions, as a scheduling pass re-estimates its running jobs, so
//! most predictions are served from the memo. Every prediction must
//! equal `predict_by_keys` (every estimate computed, in template order),
//! and its estimate accounting must equal that of a twin decoded from
//! the predictor just before the call, which starts with an empty memo.

use qpredict_durable::codec::{decode, encode};
use qpredict_predict::{
    searched, EstimateOps, EstimatorKind, Prediction, RunTimePredictor, SmithPredictor, Template,
    TemplateSet,
};
use qpredict_workload::rng::Rng64;
use qpredict_workload::synthetic::{generate, sites};
use qpredict_workload::{Characteristic, Dur, Job, JobBuilder, JobId, SymbolTable, Workload};

fn assert_same(a: Prediction, b: Prediction, what: &str) {
    assert_eq!(a.estimate, b.estimate, "{what}: estimate");
    assert_eq!(
        a.ci_halfwidth.to_bits(),
        b.ci_halfwidth.to_bits(),
        "{what}: ci {} vs {}",
        a.ci_halfwidth,
        b.ci_halfwidth
    );
    assert_eq!(a.fallback, b.fallback, "{what}: fallback");
}

/// A copy of `p` with an empty memo: the state encoded and decoded.
fn memoless(p: &SmithPredictor, set: &TemplateSet) -> SmithPredictor {
    decode(&encode(p), set).expect("decodes")
}

/// Predict `job` at `elapsed` through the memo, require it to agree with
/// the keyed path and with `twin`, a memo-less copy of `p` made since
/// its last completion, and return the prediction. The twin predicts
/// from a fresh clone, so it computes every estimate; the estimate
/// accounting the call adds must be the same on both sides.
fn checked(
    p: &mut SmithPredictor,
    twin: &SmithPredictor,
    job: &Job,
    elapsed: Dur,
    what: &str,
) -> Prediction {
    let before = p.estimate_ops();
    let got = p.predict(job, elapsed);
    assert_same(got, p.predict_by_keys(job, elapsed), what);
    let mut fresh = twin.clone();
    assert_same(got, fresh.predict(job, elapsed), what);
    assert_eq!(
        ops_added(before, p.estimate_ops()),
        ops_added(twin.estimate_ops(), fresh.estimate_ops()),
        "{what}: ops"
    );
    got
}

fn ops_added(before: EstimateOps, after: EstimateOps) -> [u64; 4] {
    [
        after.scanned_points - before.scanned_points,
        after.moment_points - before.moment_points,
        after.moment_estimates - before.moment_estimates,
        after.scan_estimates - before.scan_estimates,
    ]
}

/// Replay `jobs` into a predictor over `set`. Jobs run three at a time
/// in trace order: after each completion the three jobs that follow are
/// "running", and each is probed in three passes, first queued and then
/// at a growing elapsed time. Returns the memo's (hits, misses).
fn replay(set: &TemplateSet, jobs: &[Job]) -> (u64, u64) {
    let mut p = SmithPredictor::new(set.clone());
    for (i, j) in jobs.iter().enumerate() {
        p.on_complete(j);
        let twin = memoless(&p, set);
        let running = &jobs[(i + 1).min(jobs.len())..(i + 4).min(jobs.len())];
        for pass in 0..3i64 {
            for (k, r) in running.iter().enumerate() {
                let elapsed = if pass == 0 {
                    Dur::ZERO
                } else {
                    Dur(1 + (r.runtime.0 * pass) / 4 + k as i64)
                };
                checked(
                    &mut p,
                    &twin,
                    r,
                    elapsed,
                    &format!("job {i} pass {pass} probe {k}"),
                );
            }
        }
    }
    p.memo_counts()
}

fn site(spec: qpredict_workload::synthetic::SiteSpec, jobs: usize) -> Workload {
    let mut spec = spec.with_jobs(jobs);
    spec.n_users = spec.n_users.min(jobs / 20);
    generate(&spec)
}

/// The four GA-searched site sets and the curated seeds over their own
/// site models: most probes are served from the memo, and every one
/// matches the unmemoized selection.
#[test]
fn searched_and_curated_sets_match_unmemoized_selection() {
    for spec in [
        sites::anl_spec(),
        sites::ctc_spec(),
        sites::sdsc95_spec(),
        sites::sdsc96_spec(),
    ] {
        let wl = site(spec, 240);
        for set in [searched::set_for(&wl), searched::curated_seed_for(&wl)] {
            let (hits, misses) = replay(&set, &wl.jobs);
            assert!(
                hits > 2 * misses,
                "{}: the memo served {hits} of {} predictions",
                wl.name,
                hits + misses
            );
        }
    }
}

/// A job over `user` with `nodes` nodes, a run time and an optional
/// limit.
fn job(user: qpredict_workload::Sym, nodes: u32, rt: i64, limit: Option<i64>, id: u32) -> Job {
    let mut b = JobBuilder::new()
        .with(Characteristic::User, user)
        .nodes(nodes)
        .runtime(Dur(rt));
    if let Some(l) = limit {
        b = b.max_runtime(Dur(l));
    }
    b.build(JobId(id))
}

/// Two jobs with one signature but different limits scale the relative
/// estimates by their own limits, so alternating them recomputes; two
/// jobs sharing an id but not a signature keep separate entries.
#[test]
fn signature_sharing_jobs_with_other_limits_and_id_sharing_jobs() {
    let mut syms = SymbolTable::new();
    let (ann, bob) = (syms.intern("ann"), syms.intern("bob"));
    let u = [Characteristic::User];
    let set = TemplateSet::new(vec![
        Template::mean_over(&u).relative(),
        Template::mean_over(&u)
            .with_estimator(EstimatorKind::LinearRegression)
            .relative(),
        Template::mean_over(&[]).with_rtime(),
    ]);
    let mut p = SmithPredictor::new(set.clone());
    for i in 0..8 {
        p.on_complete(&job(ann, 1 + i % 3, 100 + i as i64, Some(400), i));
        p.on_complete(&job(bob, 30, 5_000 + i as i64, Some(9_000), 100 + i));
    }
    let twin = memoless(&p, &set);
    let short = job(ann, 2, 1, Some(300), 7);
    let long = job(ann, 2, 1, Some(3_000), 8);
    let (h0, m0) = p.memo_counts();
    let mut seen = Vec::new();
    for elapsed in [Dur::ZERO, Dur(10), Dur(20)] {
        let a = checked(&mut p, &twin, &short, elapsed, "short limit");
        let b = checked(&mut p, &twin, &long, elapsed, "long limit");
        assert!(a.estimate < b.estimate, "{a:?} {b:?}");
        seen.push((a, b));
    }
    let (h1, m1) = p.memo_counts();
    assert_eq!((h1 - h0, m1 - m0), (0, 6), "a changed limit never hits");
    for (i, elapsed) in [Dur::ZERO, Dur(10), Dur(20)].into_iter().enumerate() {
        let b = checked(&mut p, &twin, &long, elapsed, "long again");
        assert_same(b, seen[i].1, "long again");
    }
    assert_eq!(p.memo_counts(), (h1 + 3, m1), "the same limit hits");
    // One id, two signatures: each keeps its own answer.
    let a = job(ann, 2, 1, Some(400), 77);
    let b = job(bob, 30, 1, Some(9_000), 77);
    for _ in 0..3 {
        let pa = checked(&mut p, &twin, &a, Dur(5), "ann id 77");
        let pb = checked(&mut p, &twin, &b, Dur(5), "bob id 77");
        assert!(
            pa.estimate < Dur(1_000) && pb.estimate > Dur(4_000),
            "{pa:?} {pb:?}"
        );
    }
}

/// A completion that touches none of a job's categories still moves its
/// prediction through the global terms: a longer longest run time lifts
/// the cap on a regression's extrapolation, and a completion moves the
/// fallback mean of a job no category can predict. Both are read on
/// every call, so the memo keeps serving and the answers keep moving.
#[test]
fn global_terms_move_memoized_answers() {
    let mut syms = SymbolTable::new();
    let (ann, bob, cho) = (syms.intern("ann"), syms.intern("bob"), syms.intern("cho"));
    let set = TemplateSet::new(vec![Template::mean_over(&[Characteristic::User])
        .with_estimator(EstimatorKind::LinearRegression)]);
    let mut p = SmithPredictor::new(set.clone());
    // Ann's run time grows 600 s per node: at 1024 nodes the fit is far
    // above twice the longest run time seen.
    for (i, (n, rt)) in [(1, 600), (2, 1_200), (4, 2_400)].into_iter().enumerate() {
        p.on_complete(&job(ann, n, rt, None, i as u32));
    }
    // Cho has one point: a regression cannot predict, so Cho's jobs get
    // the global mean.
    p.on_complete(&job(cho, 4, 50, None, 9));
    let twin = memoless(&p, &set);
    let wide = job(ann, 1_024, 1, None, 10);
    let lone = job(cho, 4, 1, None, 11);
    let cap0 = checked(&mut p, &twin, &wide, Dur::ZERO, "capped");
    let mean0 = checked(&mut p, &twin, &lone, Dur::ZERO, "fallback");
    assert_eq!(cap0.estimate, Dur(4_800), "2 x 2400");
    assert!(mean0.fallback);
    let mut last = (cap0, mean0);
    for (i, rt) in [3_000i64, 7_000, 20_000].into_iter().enumerate() {
        // Bob's categories are not Ann's or Cho's.
        p.on_complete(&job(bob, 8, rt, None, 20 + i as u32));
        let twin = memoless(&p, &set);
        let (hits, _) = p.memo_counts();
        let cap = checked(&mut p, &twin, &wide, Dur(30), "cap moved");
        let mean = checked(&mut p, &twin, &lone, Dur(30), "mean moved");
        assert_eq!(
            p.memo_counts().0,
            hits + 2,
            "both answers came from the memo"
        );
        assert_eq!(cap.estimate, Dur(2 * rt), "cap follows the longest run");
        assert!(mean.fallback && mean.estimate > last.1.estimate);
        assert!(cap.estimate > last.0.estimate);
        last = (cap, mean);
    }
}

fn capped_set() -> TemplateSet {
    let u = [Characteristic::User];
    TemplateSet::new(vec![
        Template::mean_over(&u).with_max_history(3),
        Template::mean_over(&u)
            .with_estimator(EstimatorKind::LinearRegression)
            .with_node_range(3)
            .with_max_history(5),
        Template::mean_over(&[Characteristic::Executable])
            .relative()
            .with_max_history(4),
        Template::mean_over(&[Characteristic::Executable])
            .relative()
            .with_rtime()
            .with_max_history(6),
        Template::mean_over(&[]).with_rtime().with_max_history(80),
    ])
}

/// A seeded job of three users and two executables, most with a limit.
fn rand_job(rng: &mut Rng64, syms: &mut SymbolTable, id: u32) -> Job {
    let user = syms.intern(["ann", "bob", "cho"][rng.gen_index(3)]);
    let exe = syms.intern(["fft", "cfd"][rng.gen_index(2)]);
    let runtime = Dur(rng.gen_range_i64(1, 30_000));
    let mut b = JobBuilder::new()
        .with(Characteristic::Executable, exe)
        .with(Characteristic::User, user)
        .nodes(1 + rng.gen_index(12) as u32)
        .runtime(runtime);
    if rng.gen_bool(0.8) {
        b = b.max_runtime(Dur(runtime.0 * rng.gen_range_i64(1, 8)));
    }
    b.build(JobId(id))
}

/// Bring `base`, a copy decoded at a mark, forward the way a serve
/// delta does: replay the completions logged since the mark. The state
/// records no prediction, so the copy must then encode exactly as
/// `live` does.
fn catch_up(base: &mut SmithPredictor, log: &mut Vec<Job>, live: &SmithPredictor, what: &str) {
    for j in log.drain(..) {
        base.on_complete(&j);
    }
    assert_eq!(encode(base), encode(live), "{what}");
}

/// A decode and a completion-log delta in mid-stream drop the memo;
/// capped histories evict under it. Every copy keeps answering exactly
/// like the live predictor. (The name predates the removal of `reset`,
/// whose mid-stream steps this test also took.)
#[test]
fn reset_decode_and_delta_mid_stream() {
    let set = capped_set();
    let mut rng = Rng64::seed_from_u64(0x3E30);
    let mut syms = SymbolTable::new();
    let jobs: Vec<Job> = (0..360).map(|i| rand_job(&mut rng, &mut syms, i)).collect();
    let mut live = SmithPredictor::new(set.clone());
    let mut decoded: Option<SmithPredictor> = None;
    let mut base: Option<SmithPredictor> = None;
    let mut log = Vec::new();
    for (i, j) in jobs.iter().enumerate() {
        match i {
            // Decode a copy, and mark a base that lags until job 210.
            150 => {
                decoded = Some(decode(&encode(&live), &set).expect("decodes"));
                base = Some(decode(&encode(&live), &set).expect("decodes"));
            }
            210 => {
                let b = base.as_mut().expect("marked");
                catch_up(b, &mut log, &live, &format!("delta at job {i}"));
            }
            _ => {}
        }
        live.on_complete(j);
        decoded.iter_mut().for_each(|d| d.on_complete(j));
        match base.as_mut() {
            Some(b) if i >= 210 => b.on_complete(j),
            Some(_) => log.push(j.clone()),
            None => {}
        }
        let twins = [
            Some(memoless(&live, &set)),
            decoded.as_ref().map(|d| memoless(d, &set)),
            base.as_ref().map(|b| memoless(b, &set)),
        ];
        let probes = [jobs[(i * 7 + 3) % jobs.len()].clone(), j.clone()];
        for pass in 0..3 {
            for probe in &probes {
                let elapsed = Dur(pass * probe.runtime.0 / 3);
                let what = format!("job {i} pass {pass}");
                let twin = twins[0].as_ref().expect("live");
                let want = checked(&mut live, twin, probe, elapsed, &what);
                if let (Some(d), Some(twin)) = (decoded.as_mut(), &twins[1]) {
                    assert_same(checked(d, twin, probe, elapsed, &what), want, &what);
                }
                if let Some(b) = base.as_mut().filter(|_| i >= 210) {
                    let twin = twins[2].as_ref().expect("marked");
                    assert_same(checked(b, twin, probe, elapsed, &what), want, &what);
                }
            }
        }
    }
    let state = encode(&live);
    assert_eq!(encode(&decoded.expect("decoded")), state);
    assert_eq!(encode(&base.expect("marked")), state);
    let (hits, misses) = live.memo_counts();
    assert!(hits > misses, "{hits} hits, {misses} misses");
}
