//! Property tests: predictions through the resolution table (one hash of
//! the job's signature, then dense category slots) must equal, bit for
//! bit, predictions whose categories are found the simple way, by
//! building and hashing one key per template
//! (`SmithPredictor::predict_by_keys`, over `CategoryStore::history`).
//!
//! The slot path creates empty slots for signatures it resolves, and a
//! decoded or delta-applied predictor starts with no table at all, so the
//! streams below also check that neither shows: encodings, category
//! counts and every later prediction agree with a twin that never
//! resolved anything it did not learn from.

use qpredict_durable::codec::{decode, encode};
use qpredict_predict::{
    searched, EstimateOps, EstimatorKind, Prediction, RunTimePredictor, SmithPredictor, Template,
    TemplateSet,
};
use qpredict_workload::rng::Rng64;
use qpredict_workload::synthetic::{generate, sites, toy};
use qpredict_workload::{
    Characteristic, Dur, Job, JobBuilder, JobId, SymbolTable, Workload, CHARACTERISTICS,
};

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

/// Predict `job` at `elapsed` through the slots and by keys, require the
/// two to agree, and return the prediction.
fn checked(p: &mut SmithPredictor, job: &Job, elapsed: Dur, what: &str) -> Prediction {
    let slots = p.predict(job, elapsed);
    assert_same(slots, p.predict_by_keys(job, elapsed), what);
    slots
}

/// The elapsed times a probe of `job` is asked at: queued, then running
/// for a seeded share of up to twice its run time.
fn elapsed_for(rng: &mut Rng64, job: &Job) -> [Dur; 2] {
    [Dur::ZERO, Dur(1 + rng.gen_range_i64(0, 2 * job.runtime.0))]
}

/// Replay `jobs` in order into a predictor over `set`: after each
/// completion, probe three seeded jobs of the whole trace (learned from
/// or not) at both elapsed times. A twin learns the same completions but
/// never predicts, so it resolves only the signatures it learned; the
/// two must encode the same state throughout, which records no
/// prediction. Returns the
/// predictor's estimate accounting.
fn replay(set: &TemplateSet, jobs: &[Job], seed: u64) -> EstimateOps {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut p = SmithPredictor::new(set.clone());
    let mut twin = SmithPredictor::new(set.clone());
    for (i, j) in jobs.iter().enumerate() {
        p.on_complete(j);
        twin.on_complete(j);
        for _ in 0..3 {
            let probe = &jobs[rng.gen_index(jobs.len())];
            for elapsed in elapsed_for(&mut rng, probe) {
                checked(
                    &mut p,
                    probe,
                    elapsed,
                    &format!("job {i} probe {elapsed:?}"),
                );
            }
        }
        if i % 200 == 199 {
            assert_eq!(encode(&p), encode(&twin), "after job {i}");
            assert_eq!(p.category_count(), twin.category_count());
        }
    }
    // Every job was learned by the end, so both resolved every signature
    // of the trace, each exactly once.
    assert_eq!(p.resolution_counts(), twin.resolution_counts());
    p.estimate_ops()
}

fn site(spec: qpredict_workload::synthetic::SiteSpec, jobs: usize) -> Workload {
    let mut spec = spec.with_jobs(jobs);
    spec.n_users = spec.n_users.min(jobs / 20);
    generate(&spec)
}

/// The four GA-searched site sets over their own site models, and
/// `TemplateSet::default_for` over the toy workload.
#[test]
fn searched_and_default_sets_match_keyed_lookup() {
    for (seed, spec) in [
        sites::anl_spec(),
        sites::ctc_spec(),
        sites::sdsc95_spec(),
        sites::sdsc96_spec(),
    ]
    .into_iter()
    .enumerate()
    {
        let wl = site(spec, 1_200);
        let set = searched::set_for(&wl);
        let ops = replay(&set, &wl.jobs, 0x5107 + seed as u64);
        assert!(
            ops.moment_estimates > 0,
            "{}: no category predicted",
            wl.name
        );
    }
    let wl = toy(800, 32, 17);
    let recorded: Vec<Characteristic> = CHARACTERISTICS
        .into_iter()
        .filter(|&c| wl.records(c))
        .collect();
    let set = TemplateSet::default_for(&recorded, wl.records_max_runtime());
    replay(&set, &wl.jobs, 0x70F);
}

/// A seeded job. Some jobs record no user, so a missing value meets the
/// first interned symbol ("ann", index 0) in the same signature word.
fn rand_job(rng: &mut Rng64, syms: &mut SymbolTable, id: u32) -> Job {
    let user = syms.intern(["ann", "bob", "cho"][rng.gen_index(3)]);
    let exe = syms.intern(["fft", "cfd"][rng.gen_index(2)]);
    let runtime = Dur(rng.gen_range_i64(1, 30_000));
    let mut b = JobBuilder::new()
        .with(Characteristic::Executable, exe)
        .nodes(1 + rng.gen_index(48) as u32)
        .runtime(runtime);
    if rng.gen_bool(0.9) {
        b = b.with(Characteristic::User, user);
    }
    if rng.gen_bool(0.7) {
        b = b.max_runtime(Dur(runtime.0 * rng.gen_range_i64(1, 8)));
    }
    b.build(JobId(id))
}

fn rand_jobs(seed: u64, n: u32) -> Vec<Job> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut syms = SymbolTable::new();
    (0..n).map(|id| rand_job(&mut rng, &mut syms, id)).collect()
}

/// Elapsed-time conditioning through the slots, answered by the runtime
/// index (absolute mean and linear templates, whose three-user
/// categories pass the index threshold) and by a scan (relative and
/// inverse templates). Every probe of these runs is conditioned, so
/// `moment_points` counts exactly the points the index covered without
/// reading them.
#[test]
fn elapsed_conditioning_indexed_and_scanned() {
    let jobs = rand_jobs(0x1DE, 600);
    let u = [Characteristic::User];
    let indexed = TemplateSet::new(vec![
        Template::mean_over(&u).with_rtime(),
        Template::mean_over(&u)
            .with_estimator(EstimatorKind::LinearRegression)
            .with_rtime(),
        Template::mean_over(&[]).with_rtime(),
    ]);
    let scanned = TemplateSet::new(vec![
        Template::mean_over(&u).relative().with_rtime(),
        Template::mean_over(&[Characteristic::Executable])
            .with_estimator(EstimatorKind::InverseRegression)
            .with_rtime(),
    ]);
    for (set, by_index) in [(indexed, true), (scanned, false)] {
        let mut rng = Rng64::seed_from_u64(0xE1A);
        let mut p = SmithPredictor::new(set);
        for (i, j) in jobs.iter().enumerate() {
            p.on_complete(j);
            let probe = &jobs[rng.gen_index(jobs.len())];
            let elapsed = elapsed_for(&mut rng, probe)[1];
            checked(&mut p, probe, elapsed, &format!("job {i} index {by_index}"));
        }
        let ops = p.estimate_ops();
        assert_eq!(ops.moment_estimates, 0, "every probe is conditioned");
        assert!(ops.scan_estimates > 0 && ops.scanned_points > 0);
        assert_eq!(ops.moment_points > 0, by_index, "{ops:?}");
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
            .with_rtime()
            .with_max_history(4),
        Template::mean_over(&[]).with_rtime().with_max_history(80),
    ])
}

/// Capped histories evict through the slots as through the keys. (The
/// name predates the removal of `reset`, whose mid-stream step this test
/// also took.)
#[test]
fn evictions_and_reset() {
    let jobs = rand_jobs(0xCA9, 500);
    let mut rng = Rng64::seed_from_u64(0xCA9);
    let mut p = SmithPredictor::new(capped_set());
    for (i, j) in jobs.iter().enumerate() {
        p.on_complete(j);
        let probe = &jobs[rng.gen_index(jobs.len())];
        for elapsed in elapsed_for(&mut rng, probe) {
            let what = format!("job {i} elapsed {elapsed:?}");
            checked(&mut p, probe, elapsed, &what);
        }
    }
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

/// A predictor decoded mid-stream and one brought forward by replaying
/// the completions logged since a mark start with no resolution table;
/// they refill it and keep predicting exactly like the live predictor.
#[test]
fn codec_round_trip_and_delta_mid_stream() {
    let set = capped_set();
    let jobs = rand_jobs(0xDE17A, 420);
    let mut rng = Rng64::seed_from_u64(0xDE17A);
    let mut live = SmithPredictor::new(set.clone());
    let mut decoded: Option<SmithPredictor> = None;
    let mut base: Option<SmithPredictor> = None;
    let mut log = Vec::new();
    for (i, j) in jobs.iter().enumerate() {
        match i {
            // Decode a copy, and mark a base for the next delta.
            140 => {
                decoded = Some(decode(&encode(&live), &set).expect("decodes"));
                base = Some(decode(&encode(&live), &set).expect("decodes"));
            }
            // Bring the base forward over 80 completions and probes.
            220 => {
                let b = base.as_mut().expect("marked");
                catch_up(b, &mut log, &live, &format!("delta at job {i}"));
            }
            _ => {}
        }
        live.on_complete(j);
        decoded.iter_mut().for_each(|d| d.on_complete(j));
        match base.as_mut() {
            Some(b) if i >= 220 => b.on_complete(j),
            Some(_) => log.push(j.clone()),
            None => {}
        }
        let probe = &jobs[rng.gen_index(jobs.len())];
        for elapsed in elapsed_for(&mut rng, probe) {
            let what = format!("job {i} elapsed {elapsed:?}");
            let want = checked(&mut live, probe, elapsed, &what);
            if let Some(d) = decoded.as_mut() {
                assert_same(checked(d, probe, elapsed, &what), want, &what);
            }
            if let Some(b) = base.as_mut().filter(|_| i >= 220) {
                assert_same(checked(b, probe, elapsed, &what), want, &what);
            }
        }
    }
    let state = encode(&live);
    assert_eq!(encode(&decoded.expect("decoded")), state);
    assert_eq!(encode(&base.expect("marked")), state);
}

/// The table is keyed by signature, not by job id: two different jobs
/// carrying the same id get their own categories and their own answers.
#[test]
fn jobs_sharing_an_id_resolve_separately() {
    let mut syms = SymbolTable::new();
    let (ann, bob) = (syms.intern("ann"), syms.intern("bob"));
    let job = |user, nodes, rt, id| {
        JobBuilder::new()
            .with(Characteristic::User, user)
            .nodes(nodes)
            .runtime(Dur(rt))
            .max_runtime(Dur(4 * rt))
            .build(JobId(id))
    };
    let mut p = SmithPredictor::new(capped_set());
    for i in 0..6 {
        p.on_complete(&job(ann, 2, 100 + i, 2 * i as u32));
        p.on_complete(&job(bob, 40, 5_000 + i, 2 * i as u32 + 1));
    }
    let a = job(ann, 2, 1, 77);
    let b = job(bob, 40, 1, 77);
    for elapsed in [Dur::ZERO, Dur(50)] {
        let pa = checked(&mut p, &a, elapsed, "ann");
        let pb = checked(&mut p, &b, elapsed, "bob");
        assert!(
            pa.estimate < Dur(1_000) && pb.estimate > Dur(4_000),
            "{pa:?} {pb:?}"
        );
        assert_same(checked(&mut p, &a, elapsed, "ann again"), pa, "ann again");
    }
}
