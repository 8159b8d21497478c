//! Property tests: predictions served by the estimate cache must equal,
//! bit for bit, the predictions its inner predictor makes.
//!
//! `CachingPredictor` keeps one entry per job and serves a lookup from
//! it while the inner generation is unchanged and the elapsed time
//! equals the entry's or lies inside the entry's window,
//! `[elapsed, holds_below)`, returning the entry clamped to the new
//! elapsed time. Each test drives a cached predictor and a bare twin
//! through the same calls and requires every prediction to agree in its
//! estimate, the bits of its interval, its fallback marker and its
//! window. The streams are those the offline runs make: scheduling
//! passes that re-estimate every running and queued job, and forecasts
//! that re-estimate the running jobs at the elapsed times a replay
//! reaches, on the four site models. Probes just below, at and just
//! above history run times land on the windows' edges.

use std::collections::VecDeque;

use qpredict_durable::codec::{decode, encode};
use qpredict_predict::{
    searched, CachingPredictor, EstimatorKind, Prediction, PredictorKind, RunTimePredictor,
    SmithPredictor, Template, TemplateSet,
};
use qpredict_workload::synthetic::{generate, sites, SiteSpec};
use qpredict_workload::{Characteristic, Dur, Job, Time, Workload};

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
    assert_eq!(a.holds_below, b.holds_below, "{what}: holds_below");
}

/// A cached predictor and its bare twin, fed the same calls.
struct Twin<P> {
    cached: CachingPredictor<P>,
    bare: P,
    calls: u64,
}

impl<P: RunTimePredictor> Twin<P> {
    fn new(cached: P, bare: P) -> Twin<P> {
        Twin {
            cached: CachingPredictor::new(cached),
            bare,
            calls: 0,
        }
    }

    /// Predict through both and require them equal. Every seventh call
    /// also checks the window directly on the bare predictor: at the
    /// elapsed time itself, one second later and one second before the
    /// window ends, a fresh prediction equals this one clamped.
    fn predict(&mut self, job: &Job, elapsed: Dur, what: &str) -> Prediction {
        let got = self.cached.predict(job, elapsed);
        let want = self.bare.predict(job, elapsed);
        assert_same(got, want, what);
        self.calls += 1;
        if self.calls.is_multiple_of(7) {
            let end = want.holds_below;
            for later in [elapsed, elapsed + Dur(1), end - Dur(1)] {
                if later == elapsed || (elapsed < later && later < end) {
                    let fresh = self.bare.predict(job, later);
                    assert_same(
                        fresh,
                        want.clamped(later),
                        &format!("{what}: window at {later:?}"),
                    );
                }
            }
        }
        got
    }

    fn complete(&mut self, job: &Job) {
        self.cached.on_complete(job);
        self.bare.on_complete(job);
    }
}

/// Elapsed times just below, at and just above a history run time.
fn around(runtime: Dur) -> [Dur; 3] {
    [runtime - Dur(1), runtime, runtime + Dur(1)]
}

/// Drive `twin` over `wl` as an FCFS machine of `wl.machine_nodes`
/// nodes runs it. After every submission and completion a scheduling
/// pass estimates each running job at its elapsed time and each queued
/// job at zero. After every submission a forecast re-estimates the
/// running jobs at each of the next few predicted completions. After
/// every completion two running jobs are probed around the completed
/// job's run time and around that of the completion before it, in
/// increasing order. Returns the cache's (hits, lookups).
fn drive<P: RunTimePredictor>(twin: &mut Twin<P>, wl: &Workload) -> (u64, u64) {
    let mut queue: VecDeque<&Job> = VecDeque::new();
    let mut running: Vec<(&Job, Time)> = Vec::new();
    let mut free = wl.machine_nodes;
    let mut arrivals = wl.jobs.iter().peekable();
    let mut last_runtime = Dur(1);
    loop {
        let next_end = running.iter().map(|&(j, s)| s + j.runtime).min();
        let next_submit = arrivals.peek().map(|j| j.submit);
        let (now, submitted) = match (next_end, next_submit) {
            (None, None) => break,
            (Some(e), Some(s)) if e <= s => (e, None),
            (Some(e), None) => (e, None),
            (_, Some(s)) => (s, arrivals.next()),
        };
        let what = format!("{} at {now:?}", wl.name);
        match submitted {
            Some(j) => queue.push_back(j),
            None => {
                let k = running
                    .iter()
                    .position(|&(j, s)| s + j.runtime == now)
                    .expect("a job ends now");
                let (done, _) = running.swap_remove(k);
                free += done.nodes.min(wl.machine_nodes);
                twin.complete(done);
                for &(j, start) in running.iter().take(2) {
                    let mut probes: Vec<Dur> = around(done.runtime)
                        .into_iter()
                        .chain(around(last_runtime))
                        .filter(|&e| e > now - start)
                        .collect();
                    probes.sort();
                    for e in probes {
                        twin.predict(j, e, &format!("{what}: probe {e:?}"));
                    }
                }
                last_runtime = done.runtime;
            }
        }
        while let Some(&j) = queue.front() {
            let need = j.nodes.min(wl.machine_nodes);
            if need > free {
                break;
            }
            free -= need;
            running.push((j, now));
            queue.pop_front();
        }
        let mut ends = Vec::new();
        for &(j, start) in &running {
            let p = twin.predict(j, now - start, &format!("{what}: running"));
            ends.push(start + p.estimate);
        }
        for j in &queue {
            twin.predict(j, Dur::ZERO, &format!("{what}: queued"));
        }
        if submitted.is_some() {
            ends.sort();
            ends.dedup();
            for &t in ends.iter().take(4) {
                for &(j, start) in &running {
                    if start + j.runtime > now {
                        twin.predict(j, t - start, &format!("{what}: forecast at {t:?}"));
                    }
                }
            }
        }
    }
    let s = twin.cached.stats();
    (s.hits, s.total())
}

fn site(spec: SiteSpec, jobs: usize) -> Workload {
    let mut spec = spec.with_jobs(jobs);
    spec.n_users = spec.n_users.min(jobs / 20);
    generate(&spec)
}

fn site_models(jobs: usize) -> Vec<Workload> {
    [
        sites::anl_spec(),
        sites::ctc_spec(),
        sites::sdsc95_spec(),
        sites::sdsc96_spec(),
    ]
    .into_iter()
    .map(|spec| site(spec, jobs))
    .collect()
}

/// Smith over the searched sets and the curated seeds of the four site
/// models: every prediction matches, and the cache serves repeats.
#[test]
fn smith_searched_and_curated_sets_match_the_bare_predictor() {
    for wl in site_models(200) {
        for set in [searched::set_for(&wl), searched::curated_seed_for(&wl)] {
            let mut twin = Twin::new(SmithPredictor::new(set.clone()), SmithPredictor::new(set));
            let (hits, lookups) = drive(&mut twin, &wl);
            assert!(hits * 10 > lookups, "{}: {hits} hits of {lookups}", wl.name);
        }
    }
}

/// The baselines on the four site models: Gibbons and Downey hold only
/// exact repeats, the users' limits and the actual run times hold at
/// every later elapsed time.
#[test]
fn baselines_match_the_bare_predictor() {
    for wl in site_models(200) {
        for kind in [
            PredictorKind::Gibbons,
            PredictorKind::DowneyAverage,
            PredictorKind::DowneyMedian,
            PredictorKind::MaxRuntime,
            PredictorKind::Actual,
        ] {
            let mut twin = Twin::new(kind.build(&wl), kind.build(&wl));
            let (hits, lookups) = drive(&mut twin, &wl);
            if matches!(kind, PredictorKind::MaxRuntime | PredictorKind::Actual) {
                assert!(
                    hits * 2 > lookups,
                    "{} {kind}: {hits} hits of {lookups}",
                    wl.name
                );
            }
        }
    }
}

/// `rtime` templates of every kind the predictor estimates with:
/// indexed (absolute mean and linear regression, capped and not) and
/// scanned (relative, logarithmic regression, and histories short of
/// the index threshold).
fn rtime_set() -> TemplateSet {
    let q = [Characteristic::Queue];
    let u = [Characteristic::User];
    TemplateSet::new(vec![
        Template::mean_over(&u).with_rtime(),
        Template::mean_over(&q)
            .with_estimator(EstimatorKind::LinearRegression)
            .with_rtime(),
        Template::mean_over(&u).with_rtime().with_max_history(40),
        Template::mean_over(&q).relative().with_rtime(),
        Template::mean_over(&u)
            .with_estimator(EstimatorKind::LogRegression)
            .with_rtime()
            .with_max_history(12),
        Template::mean_over(&[Characteristic::Executable])
            .with_rtime()
            .with_max_history(6),
        Template::mean_over(&q).with_max_history(20),
    ])
}

/// Every `rtime` configuration, on every site model.
#[test]
fn indexed_scanned_and_capped_rtime_histories_match() {
    for wl in site_models(240) {
        let set = rtime_set();
        let mut twin = Twin::new(SmithPredictor::new(set.clone()), SmithPredictor::new(set));
        let (hits, lookups) = drive(&mut twin, &wl);
        assert!(hits > 0, "{}: {hits} hits of {lookups}", wl.name);
    }
}

/// Learned state whose run times are not all whole seconds, which only
/// a decoded (or hand-built) history holds: every third point's run time
/// gains half a second. The scan path must bound the window by those
/// run times too.
#[test]
fn non_integral_run_times_bound_the_window() {
    for wl in site_models(240) {
        let set = rtime_set();
        let (train, rest) = wl.jobs.split_at(120);
        let mut p = SmithPredictor::new(set.clone());
        for j in train {
            p.on_complete(j);
        }
        let mut halves = Vec::new();
        let mut k = 0;
        let forged: String = encode(&p)
            .lines()
            .map(|line| match line.strip_prefix("pt ") {
                Some(fields) => {
                    k += 1;
                    let (rt, tail) = fields.split_once(' ').expect("three fields");
                    let r = f64::from_bits(u64::from_str_radix(rt, 16).expect("hex"));
                    if k % 3 == 0 && r > 2.0 {
                        halves.push(r + 0.5);
                        format!("pt {:016X} {tail}\n", (r + 0.5).to_bits())
                    } else {
                        format!("{line}\n")
                    }
                }
                None => format!("{line}\n"),
            })
            .collect();
        assert!(
            halves.len() > 10,
            "{}: {} forged points",
            wl.name,
            halves.len()
        );
        let restore = || -> SmithPredictor { decode(&forged, &set).expect("decodes") };
        let mut twin = Twin::new(restore(), restore());
        // Probe the forged run times' edges on jobs of every category,
        // in increasing order, with no completion in between.
        for (i, j) in rest.iter().enumerate().take(60) {
            let r = halves[i % halves.len()];
            let edges = [r.floor() - 1.0, r.floor(), r.ceil(), r.ceil() + 1.0];
            for e in edges.into_iter().filter(|&e| e >= 0.0) {
                let what = format!("{} job {i} at {e} (forged {r})", wl.name);
                twin.predict(j, Dur(e as i64), &what);
            }
        }
        for j in rest {
            twin.complete(j);
            twin.predict(j, Dur(j.runtime.0 / 2), &format!("{} after", wl.name));
        }
    }
}

/// A prediction made queued holds only at elapsed zero when the job has
/// an `rtime` category, and one made running ends its window at the
/// smallest run time above its elapsed time; a completion ends every
/// window.
#[test]
fn windows_end_where_the_selection_changes() {
    let wl = site(sites::sdsc96_spec(), 200);
    let set = rtime_set();
    let mut p = SmithPredictor::new(set.clone());
    for j in &wl.jobs[..150] {
        p.on_complete(j);
    }
    let probe = &wl.jobs[150];
    let queued = p.predict(probe, Dur::ZERO);
    assert_eq!(queued.holds_below, Dur::ZERO, "{queued:?}");
    let running = p.predict(probe, Dur(30));
    assert!(running.holds_below > Dur(30), "{running:?}");
    assert_ne!(running.holds_below, Dur::MAX, "{running:?}");
    let mut cached = CachingPredictor::new(p.clone());
    let end = running.holds_below;
    for (e, misses) in [(Dur(30), 1), (Dur(31), 1), (end - Dur(1), 1), (end, 2)] {
        assert_same(
            cached.predict(probe, e),
            p.predict(probe, e),
            &format!("{e:?}"),
        );
        assert_eq!(
            cached.stats().misses,
            misses,
            "{e:?}: window ends at {end:?}"
        );
    }
    cached.on_complete(&wl.jobs[151]);
    p.on_complete(&wl.jobs[151]);
    let hits = cached.stats().hits;
    let e = end + Dur(1);
    assert_same(cached.predict(probe, e), p.predict(probe, e), "after");
    assert_eq!(cached.stats().hits, hits, "a completion ends the window");
}
