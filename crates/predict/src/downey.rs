//! Downey's run-time predictor \[3\], as summarized in the paper.
//!
//! Downey categorizes jobs by submission queue, models the cumulative
//! distribution of run times in each category with a log-linear function
//! `F(t) = beta0 + beta1 * ln t`, and derives two point predictors for a
//! job that has been running `a` seconds:
//!
//! * **conditional median** lifetime: `sqrt(a * e^((1 - beta0)/beta1))`,
//! * **conditional average** lifetime:
//!   `(t_max - a) / (ln t_max - ln a)` with `t_max = e^((1-beta0)/beta1)`.
//!
//! Queued jobs have age zero; following Downey's own evaluation we use a
//! one-second minimum age. For workloads without queues the category
//! characteristic degrades (queue -> type -> class -> single global
//! category), which Downey explicitly allows ("other characteristics can
//! be used").

use std::collections::HashMap;

use qpredict_durable::{Codec, CodecError, Reader, Writer};
use qpredict_workload::{Characteristic, Dur, Job, Sym, SymbolTable, Workload};

use crate::category::Totals;
use crate::{Prediction, RunTimePredictor};

/// Which of Downey's two point estimators to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DowneyVariant {
    /// Conditional average lifetime.
    ConditionalAverage,
    /// Conditional median lifetime.
    ConditionalMedian,
}

impl DowneyVariant {
    /// Display tag.
    pub fn name(self) -> &'static str {
        match self {
            DowneyVariant::ConditionalAverage => "downey-avg",
            DowneyVariant::ConditionalMedian => "downey-med",
        }
    }
}

/// Fitted log-linear CDF model of one category.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CdfModel {
    beta0: f64,
    beta1: f64,
    /// `e^((1 - beta0) / beta1)`: the model's maximum lifetime.
    tmax: f64,
    /// Standard error of the fitted CDF level mapped into `ln t` units:
    /// `sqrt(resid_var / n) / beta1`. Shrinks as the category gains
    /// history; zero for a perfect fit.
    se_ln: f64,
}

/// One category's observations and (lazily refitted) model.
#[derive(Debug, Clone, Default)]
struct Category {
    /// Sorted run times, seconds.
    runtimes: Vec<f64>,
    model: Option<CdfModel>,
    dirty: bool,
}

/// Minimum observations before a category's model is trusted.
const MIN_POINTS: usize = 4;

impl Category {
    fn insert(&mut self, rt: f64) {
        let pos = self.runtimes.partition_point(|&x| x <= rt);
        self.runtimes.insert(pos, rt);
        self.dirty = true;
    }

    /// Least-squares fit of `F = beta0 + beta1 ln t` through the
    /// empirical CDF points `(ln t_(i), (i + 0.5) / n)`.
    fn fit(&mut self) -> Option<CdfModel> {
        if self.dirty {
            let _span = qpredict_obs::span("downey.fit");
            self.dirty = false;
            self.model = None;
            let n = self.runtimes.len();
            if n >= MIN_POINTS {
                let nf = n as f64;
                let (mut sx, mut sy, mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
                for (i, &t) in self.runtimes.iter().enumerate() {
                    let x = t.max(1.0).ln();
                    let y = (i as f64 + 0.5) / nf;
                    sx += x;
                    sy += y;
                    sxx += x * x;
                    sxy += x * y;
                    syy += y * y;
                }
                let sxx_c = sxx - sx * sx / nf;
                if sxx_c > 1e-9 {
                    let beta1 = (sxy - sx * sy / nf) / sxx_c;
                    let beta0 = sy / nf - beta1 * sx / nf;
                    if beta1 > 1e-9 {
                        // cap e^30 ~ 10^13 s
                        let expo = ((1.0 - beta0) / beta1).min(30.0);
                        // Residual spread of the fit, via the identity
                        // rss = Syy_c - beta1^2 * Sxx_c (clamped against
                        // rounding), with n-2 regression dofs.
                        let syy_c = syy - sy * sy / nf;
                        let rss = (syy_c - beta1 * beta1 * sxx_c).max(0.0);
                        let resid_var = rss / (nf - 2.0).max(1.0);
                        self.model = Some(CdfModel {
                            beta0,
                            beta1,
                            tmax: expo.exp(),
                            se_ln: (resid_var / nf).sqrt() / beta1,
                        });
                    }
                }
            }
        }
        self.model
    }
}

/// Downey's predictor.
#[derive(Debug, Clone)]
pub struct DowneyPredictor {
    variant: DowneyVariant,
    /// Which characteristic defines categories (queue, or a fallback).
    category_char: Option<Characteristic>,
    categories: HashMap<Option<Sym>, Category>,
    /// Pooled observations across all categories, used when a job's own
    /// category has too little data.
    global: Category,
    /// Every completion's run time: the fallback and the generation.
    totals: Totals,
}

impl DowneyPredictor {
    /// Build a predictor categorizing by `category_char` (`None` = one
    /// global category).
    pub fn new(variant: DowneyVariant, category_char: Option<Characteristic>) -> DowneyPredictor {
        DowneyPredictor {
            variant,
            category_char,
            categories: HashMap::new(),
            global: Category::default(),
            totals: Totals::default(),
        }
    }

    /// Completed run times held, counted in the pooled sample: one per
    /// completion learned, since the history is never bounded. Each is
    /// also filed under its category; this counts it once.
    pub fn resident_points(&self) -> usize {
        self.global.runtimes.len()
    }

    /// Choose the categorization for a workload the way the paper's
    /// comparison requires: queues when recorded (SDSC), else job type
    /// (ANL), else class, else a single global category.
    pub fn for_workload(variant: DowneyVariant, w: &Workload) -> DowneyPredictor {
        let c = [
            Characteristic::Queue,
            Characteristic::Type,
            Characteristic::Class,
        ]
        .into_iter()
        .find(|&c| w.records(c));
        DowneyPredictor::new(variant, c)
    }

    fn category_value(&self, job: &Job) -> Option<Sym> {
        self.category_char.and_then(|c| job.characteristic(c))
    }

    fn point_estimate(&self, model: CdfModel, age_s: f64) -> f64 {
        let a = age_s.max(1.0).min(model.tmax * 0.999);
        match self.variant {
            DowneyVariant::ConditionalMedian => (a * model.tmax).sqrt(),
            DowneyVariant::ConditionalAverage => {
                let denom = model.tmax.ln() - a.ln();
                if denom <= 1e-9 {
                    model.tmax
                } else {
                    (model.tmax - a) / denom
                }
            }
        }
    }
}

/// The point count, then one `rt` record per run time in sorted order:
/// no record grows with the history. Fitted models are *not* stored: the
/// fit is a deterministic function of the sorted run times, so restoring
/// them with `dirty = true` reproduces bit-identical models lazily.
/// Decoding verifies rather than trusts that order, and that each run
/// time is one a completed job has.
impl Codec for Category {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.runtimes.len());
        for rt in &self.runtimes {
            w.record("rt").put(rt);
        }
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Category, CodecError> {
        let n: usize = r.get()?;
        let mut runtimes = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let rt: f64 = r.record("rt")?.get()?;
            if !(rt.is_finite() && rt >= runtimes.last().copied().unwrap_or(0.0)) {
                return Err(r.error(format!("run time {rt} out of order or not finite")));
            }
            runtimes.push(rt);
        }
        Ok(Category {
            runtimes,
            model: None,
            dirty: true,
        })
    }
}

impl Codec for DowneyVariant {
    fn encode(&self, w: &mut Writer) {
        w.word(match self {
            DowneyVariant::ConditionalAverage => "avg",
            DowneyVariant::ConditionalMedian => "med",
        });
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<DowneyVariant, CodecError> {
        match r.word()? {
            "avg" => Ok(DowneyVariant::ConditionalAverage),
            "med" => Ok(DowneyVariant::ConditionalMedian),
            other => Err(r.error(format!("unknown downey variant {other:?}"))),
        }
    }
}

/// Magic first record of an encoded Downey state (v4: the totals
/// record holds the longest run time too, and each run time is one
/// record).
const DOWNEY_MAGIC: &str = "downey-state v4";

/// The complete mutable state. `Sym` keys are stored as interning
/// indices and decoded against the restorer's symbol table, which must
/// have the same interning order as the one the state was recorded
/// under.
impl Codec<SymbolTable> for DowneyPredictor {
    fn encode(&self, w: &mut Writer) {
        w.record(DOWNEY_MAGIC);
        w.record("config")
            .put(&self.variant)
            .put(&self.category_char);
        w.record("totals").put(&self.totals);
        w.map_records("cat", &self.categories);
        w.record("glob").put(&self.global);
    }
    fn decode(r: &mut Reader<'_>, syms: &SymbolTable) -> Result<DowneyPredictor, CodecError> {
        r.record(DOWNEY_MAGIC)?.record("config")?;
        let p = DowneyPredictor {
            variant: r.get()?,
            category_char: r.get()?,
            totals: r.record("totals")?.get()?,
            categories: r.map_records("cat", syms, &())?,
            global: r.record("glob")?.get()?,
        };
        if p.resident_points() as u64 != p.totals.generation() {
            return Err(r.error("the pooled run times do not number the completions"));
        }
        Ok(p)
    }
}

impl RunTimePredictor for DowneyPredictor {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn predict(&mut self, job: &Job, elapsed: Dur) -> Prediction {
        let _span = qpredict_obs::span("downey.predict");
        let key = self.category_value(job);
        let model = self
            .categories
            .get_mut(&key)
            .and_then(|c| c.fit())
            .or_else(|| self.global.fit());
        match model {
            Some(m) => {
                let v = self.point_estimate(m, elapsed.as_secs_f64());
                // A ±z·se band around the fitted CDF level maps to a
                // multiplicative e^(±z·se) band in time, so the interval
                // tightens as the category accumulates history.
                const Z: f64 = 1.96;
                let zse = (Z * m.se_ln).min(30.0);
                let half = v.max(1.0) * (zse.exp() - (-zse).exp()) / 2.0;
                Prediction {
                    estimate: Dur::from_secs_f64(v.max(1.0)),
                    ci_halfwidth: half,
                    fallback: false,
                    holds_below: Dur::ZERO,
                }
                .clamped(elapsed)
            }
            None => self.totals.predict(None, job, elapsed, Dur::ZERO),
        }
    }

    fn on_complete(&mut self, job: &Job) {
        let key = self.category_value(job);
        let rt = job.runtime.as_secs_f64();
        self.categories.entry(key).or_default().insert(rt);
        self.global.insert(rt);
        self.totals.learn(rt);
    }

    /// The completions learned from.
    fn generation(&self) -> Option<u64> {
        Some(self.totals.generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_durable::codec::{decode, encode};
    use qpredict_workload::{JobBuilder, JobId, SymbolTable};

    fn qjob(syms: &mut SymbolTable, queue: &str, rt: i64) -> qpredict_workload::Job {
        let q = syms.intern(queue);
        JobBuilder::new()
            .with(Characteristic::Queue, q)
            .runtime(Dur(rt))
            .build(JobId(0))
    }

    fn trained(variant: DowneyVariant) -> (SymbolTable, DowneyPredictor) {
        let mut syms = SymbolTable::new();
        let mut p = DowneyPredictor::new(variant, Some(Characteristic::Queue));
        // Log-uniform-ish runtimes between ~e^2 and ~e^8 seconds.
        for i in 0..50 {
            let rt = (2.0 + 6.0 * (i as f64 + 0.5) / 50.0).exp();
            p.on_complete(&qjob(&mut syms, "batch", rt as i64));
        }
        (syms, p)
    }

    #[test]
    fn cold_start_falls_back() {
        let mut syms = SymbolTable::new();
        let mut p = DowneyPredictor::new(DowneyVariant::ConditionalMedian, None);
        let pred = p.predict(&qjob(&mut syms, "q", 100), Dur::ZERO);
        assert!(pred.fallback);
    }

    #[test]
    fn fit_recovers_log_uniform() {
        let (mut syms, mut p) = trained(DowneyVariant::ConditionalMedian);
        // For a log-uniform distribution on [e^2, e^8]:
        // beta1 ~ 1/6, beta0 ~ -2/6, tmax ~ e^8.
        let cat = p.categories.get_mut(&Some(syms.intern("batch"))).unwrap();
        let m = cat.fit().unwrap();
        assert!((m.beta1 - 1.0 / 6.0).abs() < 0.02, "beta1 {}", m.beta1);
        assert!((m.tmax.ln() - 8.0).abs() < 0.5, "ln tmax {}", m.tmax.ln());
    }

    #[test]
    fn median_at_age_one_is_sqrt_tmax() {
        let (mut syms, mut p) = trained(DowneyVariant::ConditionalMedian);
        let pred = p.predict(&qjob(&mut syms, "batch", 1), Dur::ZERO);
        // sqrt(1 * tmax) = sqrt(e^8) = e^4 ~ 54.6 s
        let want = (8.0f64 / 2.0).exp();
        let got = pred.estimate.as_secs_f64();
        assert!((got - want).abs() / want < 0.25, "got {got}, want ~{want}");
    }

    #[test]
    fn median_grows_with_age() {
        let (mut syms, mut p) = trained(DowneyVariant::ConditionalMedian);
        let young = p.predict(&qjob(&mut syms, "batch", 1), Dur(10));
        let old = p.predict(&qjob(&mut syms, "batch", 1), Dur(1000));
        assert!(old.estimate > young.estimate);
    }

    #[test]
    fn conditional_average_formula() {
        let (mut syms, mut p) = trained(DowneyVariant::ConditionalAverage);
        let a = 100.0;
        let pred = p.predict(&qjob(&mut syms, "batch", 1), Dur(a as i64));
        let q = syms.intern("batch");
        let m = p.categories.get_mut(&Some(q)).unwrap().fit().unwrap();
        let want = (m.tmax - a) / (m.tmax.ln() - a.ln());
        let got = pred.estimate.as_secs_f64();
        assert!((got - want).abs() <= 1.0, "got {got}, want {want}");
    }

    #[test]
    fn ci_shrinks_with_history() {
        // Noisy log-uniform training data so the fit has real residual
        // spread; the sin-based jitter is deterministic.
        fn noisy(n: usize) -> (SymbolTable, DowneyPredictor) {
            let mut syms = SymbolTable::new();
            let mut p = DowneyPredictor::new(
                DowneyVariant::ConditionalMedian,
                Some(Characteristic::Queue),
            );
            for i in 0..n {
                let u = (i as f64 + 0.5) / n as f64;
                let jitter = 0.4 * (1e4 * (i as f64 + 1.0)).sin();
                let rt = (2.0 + 6.0 * u + jitter).exp().max(1.0);
                p.on_complete(&qjob(&mut syms, "batch", rt as i64));
            }
            (syms, p)
        }
        let (mut s10, mut p10) = noisy(10);
        let (mut s200, mut p200) = noisy(200);
        let ci10 = p10
            .predict(&qjob(&mut s10, "batch", 1), Dur::ZERO)
            .ci_halfwidth;
        let ci200 = p200
            .predict(&qjob(&mut s200, "batch", 1), Dur::ZERO)
            .ci_halfwidth;
        assert!(ci10.is_finite() && ci10 > 0.0, "ci10 {ci10}");
        assert!(ci200.is_finite() && ci200 > 0.0, "ci200 {ci200}");
        assert!(
            ci200 < ci10 / 2.0,
            "interval should tighten with history: ci10 {ci10}, ci200 {ci200}"
        );
        // And it is a genuine interval, not the old tmax proxy.
        let m = p200
            .categories
            .get_mut(&Some(s200.intern("batch")))
            .unwrap()
            .fit()
            .unwrap();
        assert!(ci200 < m.tmax / 10.0, "ci200 {ci200} vs tmax {}", m.tmax);
    }

    #[test]
    fn queues_are_separate_categories() {
        // Each queue needs some runtime spread or its fit degenerates
        // and falls back to the global model.
        let mut syms = SymbolTable::new();
        let mut p = DowneyPredictor::new(
            DowneyVariant::ConditionalMedian,
            Some(Characteristic::Queue),
        );
        for i in 0..20 {
            p.on_complete(&qjob(&mut syms, "short", 5 + i));
            p.on_complete(&qjob(&mut syms, "long", 5000 + 100 * i));
        }
        let ps = p.predict(&qjob(&mut syms, "short", 1), Dur::ZERO);
        let pl = p.predict(&qjob(&mut syms, "long", 1), Dur::ZERO);
        assert!(pl.estimate > ps.estimate * 10);
    }

    #[test]
    fn for_workload_picks_best_characteristic() {
        let w = qpredict_workload::synthetic::sdsc95().truncated(50);
        let p = DowneyPredictor::for_workload(DowneyVariant::ConditionalMedian, &w);
        assert_eq!(p.category_char, Some(Characteristic::Queue));

        let w = qpredict_workload::synthetic::toy(50, 16, 1);
        let p = DowneyPredictor::for_workload(DowneyVariant::ConditionalMedian, &w);
        assert_eq!(p.category_char, None);
    }

    #[test]
    fn degenerate_identical_runtimes_fall_back() {
        let mut syms = SymbolTable::new();
        let mut p = DowneyPredictor::new(DowneyVariant::ConditionalAverage, None);
        for _ in 0..10 {
            p.on_complete(&qjob(&mut syms, "q", 100));
        }
        let pred = p.predict(&qjob(&mut syms, "q", 1), Dur::ZERO);
        assert!(pred.fallback);
        assert_eq!(pred.estimate, Dur(100)); // global mean
    }

    #[test]
    fn prediction_exceeds_elapsed() {
        let (mut syms, mut p) = trained(DowneyVariant::ConditionalAverage);
        let pred = p.predict(&qjob(&mut syms, "batch", 1), Dur(100_000));
        assert!(pred.estimate >= Dur(100_001));
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let (mut syms, p) = trained(DowneyVariant::ConditionalAverage);
        let mut p = p;
        // A second queue plus some uncategorized jobs.
        for i in 0..6i64 {
            p.on_complete(&qjob(&mut syms, "short", 30 + i * 11));
            p.on_complete(&JobBuilder::new().runtime(Dur(200 + i * 7)).build(JobId(0)));
        }
        let state = encode(&p);
        let back: DowneyPredictor = decode(&state, &syms).expect("decodes");
        assert_eq!(encode(&back), state, "re-encode must be identical");
        assert_eq!(back.category_char, p.category_char);
        let mut back = back;
        for i in 0..10i64 {
            let probe = qjob(&mut syms, if i % 2 == 0 { "batch" } else { "short" }, 1);
            let a = p.predict(&probe, Dur(1 + i * 29));
            let b = back.predict(&probe, Dur(1 + i * 29));
            assert_eq!(a, b, "probe {i}");
            assert_eq!(a.ci_halfwidth.to_bits(), b.ci_halfwidth.to_bits());
        }
        let j = qjob(&mut syms, "batch", 512);
        p.on_complete(&j);
        back.on_complete(&j);
        assert_eq!(encode(&p), encode(&back));
    }

    #[test]
    fn state_decode_rejects_garbage() {
        let syms = SymbolTable::new();
        let restore = |text: &str| decode::<_, DowneyPredictor>(text, &syms);
        assert!(restore("").is_err());
        assert!(restore("downey-state v3\n").is_err());
        let no_config = "downey-state v4\ntotals 0000000000000000 0 0000000000000000\n";
        assert!(restore(no_config).is_err());
    }

    /// Each run time is one record, so no line grows with history, and
    /// decoding verifies that the run times are finite and sorted rather
    /// than trusting them: the fit reads them as a sorted sample.
    #[test]
    fn state_decode_verifies_sorted_finite_runtimes() {
        let (syms, p) = trained(DowneyVariant::ConditionalAverage);
        let state = encode(&p);
        assert!(
            state.lines().all(|l| l.len() < 80),
            "no line grows with history"
        );
        assert_eq!(state.matches("\nrt ").count(), 2 * 50);
        assert!(decode::<_, DowneyPredictor>(&state, &syms).is_ok());
        let rt = |v: f64| format!("\nrt {:016X}\n", v.to_bits());
        let first = p.global.runtimes[0];
        let last = *p.global.runtimes.last().unwrap();
        let forgeries = [
            (rt(first), rt(f64::NAN)),
            (rt(first), rt(-1.0)),
            (rt(last), rt(f64::INFINITY)),
            (rt(last), rt(first - 1.0)),
        ];
        for (from, to) in forgeries {
            assert!(state.contains(&from), "{from:?} in the state");
            let err =
                decode::<_, DowneyPredictor>(&state.replacen(&from, &to, 1), &syms).unwrap_err();
            assert!(
                err.to_string().contains("out of order or not finite"),
                "{err}"
            );
        }
        let v3 = state.replacen("downey-state v4", "downey-state v3", 1);
        assert!(decode::<_, DowneyPredictor>(&v3, &syms).is_err());
    }
}
