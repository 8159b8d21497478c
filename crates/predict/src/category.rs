//! Category storage for the template framework.
//!
//! Each (template, matching characteristic values, node bucket) triple is
//! a *category* holding the data points of completed jobs. Histories are
//! bounded by their template's maximum history: when full, the oldest
//! point is evicted (paper step 3(b)ii). A [`History`] is the one
//! category history of the workspace: Smith's template categories and
//! Gibbons' subcategories are both histories, and both estimate through
//! [`History::estimate`]. [`Totals`] holds what every learning predictor
//! keeps over all completions: the fallback, the cap and the generation.
//!
//! A template equal to an earlier one in its set would keep an identical
//! copy of every category and produce identical estimates, which the
//! selection tie-break never prefers; the store keeps one category per
//! distinct template.
//!
//! Categories live in dense *slots*. A job's category under every
//! template depends only on its *signature*, so the store resolves each
//! signature once to the slot of every distinct template and later finds
//! them all with one hash of five words, instead of building and hashing
//! one [`CategoryKey`] per template on every prediction and completion.
//!
//! Each slot carries a *change stamp*: the store's push count at the last
//! push into it. A caller that remembers the push count when it read some
//! slots can later tell whether any of them changed since, without
//! reading them. Stamps live only in memory: they are never encoded, and
//! clearing or decoding a store starts them over.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use qpredict_durable::{codec_struct, Codec, CodecError, Reader, Writer};
use qpredict_workload::{Dur, Job};

use crate::estimators::{
    mean, mean_from_moments, regression, regression_from_moments, Estimate, RegressionKind,
};
use crate::rtindex::RuntimeIndex;
use crate::template::{EstimatorKind, Template, TemplateSet};
use crate::wordhash::WordBuildHasher;
use crate::Prediction;

/// Histories of indexed templates build their runtime index at this
/// many points, one index stride: a shorter history is scanned, so no
/// elapsed-conditioned estimate reads more than 15 points.
pub const INDEX_MIN_POINTS: usize = 16;

/// One completed job's contribution to a category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Actual run time, seconds.
    pub runtime: f64,
    /// `runtime / max_runtime` when the job recorded a limit, else `NaN`.
    pub ratio: f64,
    /// Requested node count (regression abscissa).
    pub nodes: f64,
}

impl Point {
    /// Build a point from a completed job.
    pub fn from_job(job: &Job) -> Point {
        Point {
            runtime: job.runtime.as_secs_f64(),
            ratio: job
                .max_runtime
                .map(|m| job.runtime.as_secs_f64() / m.as_secs_f64().max(1.0))
                .unwrap_or(f64::NAN),
            nodes: job.nodes as f64,
        }
    }

    /// Whether a completed job could have produced the point: a finite,
    /// non-negative run time and node count, and a ratio that is finite
    /// and non-negative or `NaN` (no limit).
    fn is_plausible(&self) -> bool {
        let count = |v: f64| v.is_finite() && v >= 0.0;
        count(self.runtime) && count(self.nodes) && (self.ratio.is_nan() || count(self.ratio))
    }
}

/// What a learning predictor keeps over every completion: the sum and
/// count of the run times and the longest one. Smith, Gibbons and Downey
/// each hold one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    sum: f64,
    n: u64,
    max_seen: f64,
}

impl Totals {
    /// Learn one completed run time, in seconds.
    pub fn learn(&mut self, runtime_s: f64) {
        self.sum += runtime_s;
        self.n += 1;
        self.max_seen = self.max_seen.max(runtime_s);
    }

    /// The prediction a category's `(estimate, interval)` in seconds
    /// makes, or the fallback when no category could predict `job`,
    /// never below `elapsed + 1` s. The estimate is capped at twice the
    /// longest run time seen, and at least one hour: regressions can
    /// extrapolate wildly at unseen node counts. The fallback is the mean
    /// run time, else the job's limit, else one hour. Neither depends on
    /// the elapsed time, so the prediction holds below `holds_below`.
    pub fn predict(
        &self,
        est: Option<(f64, f64)>,
        job: &Job,
        elapsed: Dur,
        holds_below: Dur,
    ) -> Prediction {
        let prediction = match est {
            Some((value, ci)) => Prediction {
                estimate: Dur::from_secs_f64(value.clamp(1.0, (self.max_seen * 2.0).max(3600.0))),
                ci_halfwidth: ci,
                fallback: false,
                holds_below,
            },
            None => Prediction {
                holds_below,
                ..Prediction::fallback(if self.n > 0 {
                    Dur::from_secs_f64(self.sum / self.n as f64)
                } else {
                    job.max_runtime.unwrap_or(Dur::HOUR)
                })
            },
        };
        prediction.clamped(elapsed)
    }

    /// The completions learned from: the predictor's generation.
    pub fn generation(&self) -> u64 {
        self.n
    }
}

/// How estimates were produced: points actually traversed versus points
/// the estimates covered without traversing them. Their sum is what a
/// naive scan-everything implementation would have read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimateOps {
    /// History points actually traversed: every point of a scanned
    /// category, and the at most 15 entries an indexed estimate sums
    /// past its stride boundary.
    pub scanned_points: u64,
    /// History points covered by estimates without being traversed.
    pub moment_points: u64,
    /// Estimates served from running moments (no elapsed-time
    /// conditioning).
    pub moment_estimates: u64,
    /// Elapsed-conditioned estimates, served by a scan or by the
    /// runtime index.
    pub scan_estimates: u64,
}

impl EstimateOps {
    pub(crate) fn merge(&mut self, other: EstimateOps) {
        self.scanned_points += other.scanned_points;
        self.moment_points += other.moment_points;
        self.moment_estimates += other.moment_estimates;
        self.scan_estimates += other.scan_estimates;
    }
}

/// Category identity: which template, the values of its selected
/// characteristics (by characteristic index; `u32::MAX` = slot unused),
/// and the node bucket (`u32::MAX` when the template ignores nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CategoryKey {
    template: u16,
    values: [u32; 8],
    node_bucket: u32,
}

const UNUSED: u32 = u32::MAX;

impl CategoryKey {
    /// The key for `job` under template `t` (index `ti` in its set), or
    /// `None` when the job does not record a selected characteristic or
    /// lacks a limit required by a relative template.
    pub fn for_job(ti: usize, t: &Template, job: &Job) -> Option<CategoryKey> {
        if !t.applies_to(job) {
            return None;
        }
        let mut values = [UNUSED; 8];
        for c in t.chars.iter() {
            let v = job.characteristic(c)?; // applies_to guarantees Some
            values[c.index()] = v.index() as u32;
        }
        Some(CategoryKey {
            template: ti as u16,
            values,
            node_bucket: t.node_bucket(job).unwrap_or(UNUSED),
        })
    }
}

/// Everything a job's category key under any template is built from:
/// its 8 characteristic values, its node count and whether it records a
/// limit, packed into five words. Jobs with equal signatures fall into
/// the same category under every template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signature([u64; 5]);

impl Signature {
    /// The signature of `job`: characteristic values two to a word, then
    /// the node count, the limit flag (bit 32) and which characteristics
    /// are recorded (bits 33..41).
    fn of(job: &Job) -> Signature {
        let mut words = [0u64; 5];
        let mut recorded = 0u64;
        for (i, c) in job.chars.iter().enumerate() {
            if let Some(v) = c {
                words[i / 2] |= (v.index() as u64) << (32 * (i % 2));
                recorded |= 1 << i;
            }
        }
        words[4] =
            u64::from(job.nodes) | u64::from(job.max_runtime.is_some()) << 32 | recorded << 33;
        Signature(words)
    }
}

impl Hash for Signature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for w in self.0 {
            state.write_u64(w);
        }
    }
}

/// Slot index of a template a signature has no category under.
const NO_SLOT: u32 = u32::MAX;

/// A resolved signature: its ordinal in [`CategoryStore`]'s resolution
/// list, which holds one slot per distinct template for each signature,
/// in template order. Ordinals are dense from 0 and stay valid until the
/// store is cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved(u32);

impl Resolved {
    /// The signature's ordinal.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Running first/second moments of a value stream, maintained under
/// append and evict. Floating-point drift from incremental subtraction is
/// negligible at trace scale (tens of thousands of bounded values).
#[derive(Debug, Clone, Copy, Default)]
pub struct Moments {
    /// Number of values.
    pub n: usize,
    /// Sum of values.
    pub sum: f64,
    /// Sum of squared values.
    pub sum2: f64,
}

impl Moments {
    fn add(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.sum2 += v * v;
    }

    fn remove(&mut self, v: f64) {
        self.n -= 1;
        self.sum -= v;
        self.sum2 -= v * v;
        if self.n == 0 {
            *self = Moments::default();
        }
    }
}

/// Running sums for a least-squares regression of `y` on `g(x)`:
/// `(n, Σg, Σy, Σg², Σgy, Σy²)` — everything
/// [`crate::estimators::regression_from_moments`] needs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegMoments {
    /// Number of samples.
    pub n: usize,
    /// Sum of transformed abscissas `g(x)`.
    pub sg: f64,
    /// Sum of ordinates.
    pub sy: f64,
    /// Sum of squared transformed abscissas.
    pub sgg: f64,
    /// Sum of cross products.
    pub sgy: f64,
    /// Sum of squared ordinates.
    pub syy: f64,
}

impl RegMoments {
    fn add(&mut self, g: f64, y: f64) {
        self.n += 1;
        self.sg += g;
        self.sy += y;
        self.sgg += g * g;
        self.sgy += g * y;
        self.syy += y * y;
    }
}

/// Whether `t`'s categories keep a runtime index: elapsed-time
/// conditioning over absolute run times with a mean or a linear
/// regression on node count — the estimates whose sums the index holds.
/// Relative values and inverse/log regressions scan.
fn indexes(t: &Template) -> bool {
    t.use_rtime
        && !t.relative
        && matches!(
            t.estimator,
            EstimatorKind::Mean | EstimatorKind::LinearRegression
        )
}

/// Bounded history of one category, with running aggregates for the hot
/// mean- and regression-estimator paths.
///
/// Each history belongs to exactly one category, whose key includes the
/// template index — so it only ever serves one `(estimator, relative)`
/// configuration, and one set of regression sums per history suffices.
#[derive(Debug, Clone, Default)]
pub struct History {
    points: VecDeque<Point>,
    abs: Moments,
    ratio: Moments,
    /// Regression configuration and running sums, populated on first
    /// push for regression templates (`None` for mean templates).
    reg: Option<(RegressionKind, bool, RegMoments)>,
    /// Runtime-ordered index of the points, for templates that
    /// `indexes` accepts once the history holds
    /// [`INDEX_MIN_POINTS`]. Derived from `points`; never encoded. Boxed:
    /// most categories never grow an index and pay one pointer.
    index: Option<Box<RuntimeIndex>>,
}

impl History {
    /// Append a point, evicting the oldest when the template's history
    /// cap is reached, and maintain every running aggregate.
    pub fn push(&mut self, p: Point, t: &Template) {
        let mut evicted = false;
        if let Some(cap) = t.max_history {
            while self.points.len() >= cap.max(1) as usize {
                let old = self.points.pop_front().expect("len checked");
                if let Some(ix) = self.index.as_mut() {
                    ix.remove(old.runtime, old.nodes);
                }
                self.abs.remove(old.runtime);
                if old.ratio.is_finite() {
                    self.ratio.remove(old.ratio);
                }
                evicted = true;
            }
        }
        self.abs.add(p.runtime);
        if p.ratio.is_finite() {
            self.ratio.add(p.ratio);
        }
        self.points.push_back(p);
        if let Some(kind) = t.estimator.regression() {
            self.update_reg(kind, t.relative, p, evicted);
        }
        match self.index.as_mut() {
            Some(ix) => ix.insert(p.runtime, p.nodes),
            None => self.build_index(t),
        }
    }

    /// Build the runtime index when `indexes(t)` and the history is
    /// large enough to need it (a no-op otherwise).
    pub(crate) fn build_index(&mut self, t: &Template) {
        if indexes(t) && self.points.len() >= INDEX_MIN_POINTS {
            let points = self.points.iter().map(|p| (p.runtime, p.nodes));
            self.index = Some(Box::new(RuntimeIndex::build(points)));
        }
    }

    /// Exact moments of the points whose run time exceeds `elapsed_s`
    /// (`y` = run time, `g` = node count), read from the runtime index,
    /// with the number of points read to form them and the smallest run
    /// time among those points, if any. `None` when the history has no
    /// index or the index cannot answer exactly; the caller then scans.
    /// Equal, bit for bit, to the sums a scan of the same points forms
    /// (see DESIGN.md §11).
    pub fn rtime_moments(&self, elapsed_s: f64) -> Option<(RegMoments, usize, Option<u32>)> {
        self.index.as_ref()?.above(elapsed_s)
    }

    /// This history's estimate for `job` under its template `t`, if
    /// valid, with the work it did added to `ops`, and `holds_below`
    /// narrowed to the elapsed time from which the estimate could differ
    /// ([`crate::Prediction::holds_below`]). Only elapsed-time
    /// conditioning narrows it. At elapsed zero the estimate reads the
    /// running sums, which need not equal a selection's bitwise, so it
    /// holds only there. Past zero it reads the points above the elapsed
    /// time, the same ones until the elapsed time reaches the smallest of
    /// their run times.
    pub fn estimate(
        &self,
        t: &Template,
        job: &Job,
        elapsed: Dur,
        ops: &mut EstimateOps,
        holds_below: &mut Dur,
    ) -> Option<Estimate> {
        let elapsed_s = elapsed.as_secs_f64();
        // Only elapsed-time conditioning selects points per estimate;
        // every other configuration reads running aggregates. (Relative
        // histories never hold non-finite ratios — `applies_to` requires
        // a limit at insertion — so the scan path's ratio filter is
        // vacuous and the aggregates cover the same points.)
        let scans = t.use_rtime && elapsed_s > 0.0;
        // Value extraction: absolute seconds, or ratio-to-limit scaled
        // back to seconds by this job's limit.
        let limit_s = job.max_runtime.map(|m| m.as_secs_f64().max(1.0));
        // The smallest run time the scan selects.
        let next = Cell::new(f64::INFINITY);
        let filter = |p: &&Point| -> bool {
            if scans && p.runtime <= elapsed_s {
                return false;
            }
            if t.relative && !p.ratio.is_finite() {
                return false;
            }
            next.set(next.get().min(p.runtime));
            true
        };
        let value_of = |p: &Point| -> f64 {
            if t.relative {
                p.ratio
            } else {
                p.runtime
            }
        };
        let len = self.len() as u64;
        let x0 = job.nodes as f64;
        // Running sums answer every unconditioned estimate. The runtime
        // index answers a conditioned one when it can be exact, with the
        // sums the scan below would form. Anything else scans.
        let sums = if !scans {
            ops.moment_estimates += 1;
            ops.moment_points += len;
            Some(match t.estimator.regression() {
                None => {
                    let m = if t.relative { self.ratio } else { self.abs };
                    RegMoments {
                        n: m.n,
                        sy: m.sum,
                        syy: m.sum2,
                        ..RegMoments::default()
                    }
                }
                Some(kind) => self
                    .reg_moments(kind, t.relative)
                    .expect("regression history maintains its sums"),
            })
        } else {
            // Only histories of templates the index serves have one.
            let indexed = self.rtime_moments(elapsed_s);
            let read = indexed.map_or(len, |(_, read, _)| read as u64);
            ops.scan_estimates += 1;
            ops.scanned_points += read;
            ops.moment_points += len - read;
            indexed.map(|(m, _, above)| {
                next.set(above.map_or(f64::INFINITY, f64::from));
                m
            })
        };
        let est = match (sums, t.estimator.regression()) {
            (Some(m), None) => mean_from_moments(m.n, m.sy, m.syy),
            (Some(m), Some(kind)) => {
                regression_from_moments(kind, m.n, m.sg, m.sy, m.sgg, m.sgy, m.syy, x0)
            }
            (None, None) => mean(self.iter().filter(filter).map(&value_of)),
            (None, Some(kind)) => regression(
                kind,
                self.iter().filter(filter).map(|p| (p.nodes, value_of(p))),
                x0,
            ),
        };
        if t.use_rtime {
            // An integral elapsed time is below a run time `r` exactly
            // when it is below `ceil(r)`; the cast saturates.
            let bound = if scans {
                Dur(next.get().ceil() as i64)
            } else {
                Dur::ZERO
            };
            *holds_below = (*holds_below).min(bound);
        }
        let est = est?;
        // Scale relative estimates back to seconds.
        let est = if t.relative {
            let l = limit_s?; // applies_to guarantees Some, but stay safe
            Estimate {
                value: est.value * l,
                ci: est.ci * l,
                n: est.n,
            }
        } else {
            est
        };
        // A NaN interval would make the selection order partial; the
        // estimators clamp variances, so none arises from real history.
        if !est.value.is_finite() || est.ci.is_nan() {
            return None;
        }
        Some(est)
    }

    /// Keep the regression sums in step with the deque. Appends add one
    /// term in insertion order — the same order a fresh scan visits — so
    /// the sums stay bit-identical to scanning. Evictions recompute from
    /// the remaining deque rather than subtracting: subtraction changes
    /// the f64 addition order and would drift from the scan result.
    fn update_reg(&mut self, kind: RegressionKind, relative: bool, p: Point, evicted: bool) {
        let y_of = |q: &Point| if relative { q.ratio } else { q.runtime };
        match self.reg.as_mut() {
            Some((k, rel, m)) if !evicted => {
                debug_assert!(*k == kind && *rel == relative);
                m.add(kind.g(p.nodes), y_of(&p));
            }
            _ => {
                let mut m = RegMoments::default();
                for q in &self.points {
                    m.add(kind.g(q.nodes), y_of(q));
                }
                self.reg = Some((kind, relative, m));
            }
        }
    }

    /// The running regression sums, when this history is maintained for
    /// exactly the requested `(kind, relative)` configuration.
    pub fn reg_moments(&self, kind: RegressionKind, relative: bool) -> Option<RegMoments> {
        match self.reg {
            Some((k, rel, m)) if k == kind && rel == relative => Some(m),
            _ => None,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterate stored points, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Point> {
        self.points.iter()
    }

    /// Running moments of the absolute run times (O(1) mean/CI).
    pub fn abs_moments(&self) -> Moments {
        self.abs
    }

    /// Running moments of the run-time-to-limit ratios, over points that
    /// have one.
    pub fn ratio_moments(&self) -> Moments {
        self.ratio
    }
}

/// All categories of one template set.
///
/// Categories are dense slots: `slots` holds the histories and `index`
/// maps each key to its slot. The *resolution table* is derived from
/// them: it maps a job's signature to the slot of each distinct
/// template, or to none when the template does not apply. A slot is
/// created empty when a signature first resolves to it, so a later
/// completion lands in it. Empty slots are invisible: the category count
/// and the codec see only slots holding points. The table is
/// never encoded; clearing drops it and it refills lazily.
#[derive(Debug, Clone)]
pub struct CategoryStore {
    /// The set's distinct templates with their index in the set: the
    /// first of each group of equal templates.
    templates: Vec<(usize, Template)>,
    slots: Vec<History>,
    /// Each slot's change stamp: the value of `pushes` at its last push.
    stamps: Vec<u64>,
    /// Completed jobs inserted since the store was created or cleared.
    pushes: u64,
    index: HashMap<CategoryKey, u32>,
    /// Each resolved signature's ordinal.
    table: HashMap<Signature, u32, WordBuildHasher>,
    /// Per resolved signature, by ordinal, the slot of each distinct
    /// template (or `NO_SLOT`), in template order.
    resolved: Vec<u32>,
    /// Category keys built to resolve signatures (diagnostics).
    resolutions: u64,
}

impl CategoryStore {
    /// An empty store for `set`.
    pub fn new(set: &TemplateSet) -> CategoryStore {
        let all = set.templates();
        let templates = all
            .iter()
            .enumerate()
            .filter(|&(ti, t)| !all[..ti].contains(t))
            .map(|(ti, t)| (ti, *t))
            .collect();
        CategoryStore {
            templates,
            slots: Vec::new(),
            stamps: Vec::new(),
            pushes: 0,
            index: HashMap::new(),
            table: HashMap::default(),
            resolved: Vec::new(),
            resolutions: 0,
        }
    }

    /// The set's distinct templates, each with its index in the set, in
    /// set order. A template equal to an earlier one is left out: its
    /// categories and estimates would be copies of the earlier one's.
    pub fn templates(&self) -> &[(usize, Template)] {
        &self.templates
    }

    /// Resolve `job`'s categories: one hash of its signature once the
    /// signature has been seen, else one key per distinct template.
    pub(crate) fn resolve(&mut self, job: &Job) -> Resolved {
        let sig = Signature::of(job);
        if let Some(&at) = self.table.get(&sig) {
            return Resolved(at);
        }
        let at = u32::try_from(self.table.len()).expect("resolution table overflow");
        for k in 0..self.templates.len() {
            let (ti, t) = self.templates[k];
            self.resolutions += 1;
            let slot = CategoryKey::for_job(ti, &t, job).map_or(NO_SLOT, |key| self.slot_of(key));
            self.resolved.push(slot);
        }
        self.table.insert(sig, at);
        Resolved(at)
    }

    /// The resolved signature's slot of each distinct template (or
    /// `NO_SLOT`), in template order.
    fn slots_of(&self, r: Resolved) -> &[u32] {
        let n = self.templates.len();
        &self.resolved[r.index() * n..][..n]
    }

    /// The resolved job's non-empty categories under the distinct
    /// templates at `positions` (ascending indexes into
    /// [`CategoryStore::templates`]): each template with its index in the
    /// set and its history, in set order.
    pub(crate) fn matching<'a>(
        &'a self,
        r: Resolved,
        positions: &'a [usize],
    ) -> impl Iterator<Item = (usize, &'a Template, &'a History)> + 'a {
        let slots = self.slots_of(r);
        positions.iter().filter_map(move |&k| {
            let h = self.slots.get(slots[k] as usize)?;
            let (ti, ref t) = self.templates[k];
            (!h.is_empty()).then_some((ti, t, h))
        })
    }

    /// The slots, empty ones included, of the resolved signature's
    /// categories under the distinct templates at `positions`: every
    /// slot whose history can change what those templates estimate for
    /// the signature.
    pub(crate) fn category_slots<'a>(
        &'a self,
        r: Resolved,
        positions: &'a [usize],
    ) -> impl Iterator<Item = u32> + 'a {
        let slots = self.slots_of(r);
        positions
            .iter()
            .map(move |&k| slots[k])
            .filter(|&slot| slot != NO_SLOT)
    }

    /// Completed jobs inserted since the store was created or cleared:
    /// the stamp the next push will exceed.
    pub(crate) fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Whether any of `slots` was pushed to after the push count was
    /// `stamp`.
    pub(crate) fn changed_since(&self, slots: &[u32], stamp: u64) -> bool {
        slots.iter().any(|&s| self.stamps[s as usize] > stamp)
    }

    /// Insert a completed job into every category it matches.
    pub fn insert(&mut self, job: &Job) {
        let p = Point::from_job(job);
        let r = self.resolve(job);
        self.pushes += 1;
        let n = self.templates.len();
        let slots = &self.resolved[r.index() * n..][..n];
        for ((_, t), &slot) in self.templates.iter().zip(slots) {
            if let Some(h) = self.slots.get_mut(slot as usize) {
                h.push(p, t);
                self.stamps[slot as usize] = self.pushes;
            }
        }
    }

    /// The history of `job`'s category under template `ti`, if any
    /// points exist, found by building and hashing its key: the simple
    /// path the resolved one must agree with.
    pub fn history(&self, ti: usize, t: &Template, job: &Job) -> Option<&History> {
        let key = CategoryKey::for_job(ti, t, job)?;
        let slot = *self.index.get(&key)?;
        Some(&self.slots[slot as usize]).filter(|h| !h.is_empty())
    }

    /// Number of live categories: those holding points.
    pub fn category_count(&self) -> usize {
        self.slots.iter().filter(|h| !h.is_empty()).count()
    }

    /// Total points held across every category (bounded-memory
    /// diagnostics: the serve crate's eviction test watches this).
    pub fn total_points(&self) -> usize {
        self.slots.iter().map(|h| h.len()).sum()
    }

    /// Signatures in the resolution table (diagnostics).
    pub(crate) fn signature_count(&self) -> usize {
        self.table.len()
    }

    /// Category keys built to resolve signatures since the store was
    /// created: distinct signatures × distinct templates while nothing
    /// clears it (diagnostics; never encoded).
    pub(crate) fn key_resolutions(&self) -> u64 {
        self.resolutions
    }

    /// The slot of `key`, created empty if it has none.
    fn slot_of(&mut self, key: CategoryKey) -> u32 {
        *self.index.entry(key).or_insert_with(|| {
            self.slots.push(History::default());
            self.stamps.push(0);
            u32::try_from(self.slots.len() - 1).expect("category slot overflow")
        })
    }

    /// The non-empty categories with their keys, in no particular order.
    fn live(&self) -> impl Iterator<Item = (&CategoryKey, &History)> + '_ {
        self.index
            .iter()
            .map(|(k, &slot)| (k, &self.slots[slot as usize]))
            .filter(|(_, h)| !h.is_empty())
    }
}

// ----- state codec ---------------------------------------------------------
//
// Aggregates (moments, regression sums) are stored bitwise rather than
// recomputed on restore: their f64 values carry the whole add/remove
// history of the stream, which a replay of only the surviving points
// would not reproduce. Runtime indexes are rebuilt from the points.

codec_struct!(CategoryKey {
    template,
    node_bucket,
    values
});

codec_struct!(Moments { n, sum, sum2 });

codec_struct!(RegMoments {
    n,
    sg,
    sy,
    sgg,
    sgy,
    syy
});

impl Codec for RegressionKind {
    fn encode(&self, w: &mut Writer) {
        w.word(match self {
            RegressionKind::Linear => "lin",
            RegressionKind::Inverse => "inv",
            RegressionKind::Logarithmic => "log",
        });
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<RegressionKind, CodecError> {
        match r.word()? {
            "lin" => Ok(RegressionKind::Linear),
            "inv" => Ok(RegressionKind::Inverse),
            "log" => Ok(RegressionKind::Logarithmic),
            other => Err(r.error(format!("unknown regression kind {other:?}"))),
        }
    }
}

codec_struct!(Point {
    runtime,
    ratio,
    nodes
});

codec_struct!(Totals { sum, n, max_seen });

/// The aggregates and the point count, then one `pt` record per point,
/// oldest first: no record grows with the history. Decoding refuses a
/// point no completed job produces.
impl Codec for History {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.abs)
            .put(&self.ratio)
            .put(&self.reg)
            .put(&self.points.len());
        for p in &self.points {
            w.record("pt").put(p);
        }
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<History, CodecError> {
        let (abs, ratio, reg) = (r.get()?, r.get()?, r.get()?);
        let n: usize = r.get()?;
        let h = History {
            abs,
            ratio,
            reg,
            points: (0..n)
                .map(|_| r.record("pt")?.get())
                .collect::<Result<_, _>>()?,
            ..History::default()
        };
        if h.abs.n != h.points.len() {
            return Err(r.error(format!(
                "abs moments count {} disagrees with {} stored points",
                h.abs.n,
                h.points.len()
            )));
        }
        // Verify rather than trust: no completed job yields such a point,
        // and a non-finite node count would panic a Gibbons regression.
        if let Some(p) = h.points.iter().find(|p| !p.is_plausible()) {
            return Err(r.error(format!("point {p:?} is not a completed job's")));
        }
        Ok(h)
    }
}

/// One `cat` record per category, in key order, each followed by its
/// points (see [`History`]'s codec). Decoding under the
/// set the store was recorded with rebuilds each runtime index, and
/// refuses a category of a template the store does not keep.
impl Codec<TemplateSet> for CategoryStore {
    fn encode(&self, w: &mut Writer) {
        w.map_records("cat", self.live());
    }
    fn decode(r: &mut Reader<'_>, set: &TemplateSet) -> Result<CategoryStore, CodecError> {
        let mut store = CategoryStore::new(set);
        let cats: Vec<(CategoryKey, History)> = r.map_records("cat", &(), &())?;
        for (key, mut h) in cats {
            let Some(t) = template_of(&store.templates, &key) else {
                return Err(not_distinct(r, &key));
            };
            h.build_index(t);
            let slot = store.slot_of(key);
            store.slots[slot as usize] = h;
        }
        Ok(store)
    }
}

/// The distinct template `key` was filed under.
fn template_of<'t>(templates: &'t [(usize, Template)], key: &CategoryKey) -> Option<&'t Template> {
    let ti = usize::from(key.template);
    templates.iter().find(|(i, _)| *i == ti).map(|(_, t)| t)
}

fn not_distinct(r: &Reader<'_>, key: &CategoryKey) -> CodecError {
    r.error(format!(
        "category of template {}, which is not a distinct template of the set",
        key.template
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use qpredict_workload::{Characteristic, Dur, JobBuilder, JobId, SymbolTable};

    fn setup() -> (SymbolTable, TemplateSet) {
        let syms = SymbolTable::new();
        let set = TemplateSet::new(vec![
            Template::mean_over(&[Characteristic::User]),
            Template::mean_over(&[]).with_node_range(2),
        ]);
        (syms, set)
    }

    #[test]
    fn insert_places_job_in_all_matching_categories() {
        let (mut syms, set) = setup();
        let u = syms.intern("alice");
        let mut store = CategoryStore::new(&set);
        let j = JobBuilder::new()
            .with(Characteristic::User, u)
            .nodes(3)
            .runtime(Dur(100))
            .build(JobId(0));
        store.insert(&j);
        assert_eq!(store.category_count(), 2);
        assert_eq!(
            store.history(0, &set.templates()[0], &j).map(|h| h.len()),
            Some(1)
        );
        assert_eq!(
            store.history(1, &set.templates()[1], &j).map(|h| h.len()),
            Some(1)
        );
    }

    #[test]
    fn job_without_user_skips_user_template() {
        let (_syms, set) = setup();
        let mut store = CategoryStore::new(&set);
        let j = JobBuilder::new().nodes(3).runtime(Dur(100)).build(JobId(0));
        store.insert(&j);
        assert_eq!(store.category_count(), 1); // only the node-range template
        assert!(store.history(0, &set.templates()[0], &j).is_none());
    }

    #[test]
    fn different_users_get_different_categories() {
        let (mut syms, set) = setup();
        let a = syms.intern("alice");
        let b = syms.intern("bob");
        let mut store = CategoryStore::new(&set);
        let ja = JobBuilder::new()
            .with(Characteristic::User, a)
            .runtime(Dur(100))
            .build(JobId(0));
        let jb = JobBuilder::new()
            .with(Characteristic::User, b)
            .runtime(Dur(900))
            .build(JobId(1));
        store.insert(&ja);
        store.insert(&jb);
        let ha = store.history(0, &set.templates()[0], &ja).unwrap();
        assert_eq!(ha.len(), 1);
        assert_eq!(ha.iter().next().unwrap().runtime, 100.0);
    }

    #[test]
    fn node_buckets_separate_categories() {
        let (_syms, set) = setup();
        let mut store = CategoryStore::new(&set);
        let small = JobBuilder::new().nodes(2).runtime(Dur(10)).build(JobId(0));
        let large = JobBuilder::new().nodes(20).runtime(Dur(99)).build(JobId(1));
        store.insert(&small);
        store.insert(&large);
        let h = store.history(1, &set.templates()[1], &small).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.iter().next().unwrap().runtime, 10.0);
    }

    #[test]
    fn history_cap_evicts_oldest() {
        let t = Template::mean_over(&[]).with_max_history(3);
        let mut h = History::default();
        for i in 0..5 {
            h.push(
                Point {
                    runtime: i as f64,
                    ratio: f64::NAN,
                    nodes: 1.0,
                },
                &t,
            );
        }
        assert_eq!(h.len(), 3);
        let runtimes: Vec<f64> = h.iter().map(|p| p.runtime).collect();
        assert_eq!(runtimes, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn reg_moments_match_scan_after_eviction() {
        use crate::estimators::{regression, regression_from_moments, RegressionKind};
        use crate::template::EstimatorKind;
        let t = Template::mean_over(&[])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_max_history(4);
        let mut h = History::default();
        for i in 0..9 {
            h.push(
                Point {
                    runtime: (i * i) as f64 + 0.25,
                    ratio: f64::NAN,
                    nodes: (1 + i % 5) as f64,
                },
                &t,
            );
        }
        assert_eq!(h.len(), 4);
        let m = h
            .reg_moments(RegressionKind::Linear, false)
            .expect("regression template maintains sums");
        let fast = regression_from_moments(
            RegressionKind::Linear,
            m.n,
            m.sg,
            m.sy,
            m.sgg,
            m.sgy,
            m.syy,
            7.0,
        );
        let scan = regression(
            RegressionKind::Linear,
            h.iter().map(|p| (p.nodes, p.runtime)),
            7.0,
        );
        assert_eq!(
            fast, scan,
            "incremental sums must match a fresh scan exactly"
        );
        // Asking for a different configuration yields nothing.
        assert!(h.reg_moments(RegressionKind::Inverse, false).is_none());
        assert!(h.reg_moments(RegressionKind::Linear, true).is_none());
    }

    #[test]
    fn point_ratio_from_limit() {
        let j = JobBuilder::new()
            .runtime(Dur(50))
            .max_runtime(Dur(200))
            .build(JobId(0));
        let p = Point::from_job(&j);
        assert!((p.ratio - 0.25).abs() < 1e-12);
        let j2 = JobBuilder::new().runtime(Dur(50)).build(JobId(1));
        assert!(Point::from_job(&j2).ratio.is_nan());
    }
}
