//! The generic synthetic site generator.
//!
//! [`SiteSpec`] describes a site's statistical shape; [`generate`] turns it
//! into a concrete [`Workload`]. See the module docs of
//! [`crate::synthetic`] for the calibration philosophy.

use crate::job::{Characteristic, JobBuilder, JobId};
use crate::symbols::Sym;
use crate::time::{Dur, Time};
use crate::workload::Workload;

use super::arrivals::DailyCycle;
use super::dist;
use crate::rng::Rng64;

/// How a site populates the job-`Type` characteristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TypeScheme {
    /// ANL style: applications are `batch` or `interactive`; interactive
    /// applications are much shorter and smaller.
    AnlBatchInteractive {
        /// Fraction of applications that are interactive.
        interactive_frac: f64,
    },
    /// CTC style: jobs are `serial` (1 node), `pvm3` (per-application
    /// flag), or `parallel`.
    CtcSerialParallelPvm {
        /// Fraction of applications built against PVM.
        pvm_frac: f64,
    },
}

/// How a site maps jobs onto submission queues (SDSC style).
#[derive(Debug, Clone, PartialEq)]
pub struct QueueScheme {
    /// Upper bounds (hours) of the queue time classes; a final unbounded
    /// class is implied.
    pub time_bucket_hours: Vec<f64>,
    /// Upper bounds (nodes) of the queue size classes; a final class up to
    /// the machine size is implied.
    pub node_buckets: Vec<u32>,
    /// Whether short jobs sometimes land in additional express queues.
    pub express: bool,
}

/// Statistical description of a site; input to [`generate`].
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Workload display name.
    pub name: String,
    /// Machine size in nodes.
    pub machine_nodes: u32,
    /// Number of requests to generate.
    pub n_jobs: usize,
    /// Target mean run time in minutes (matched exactly by rescaling).
    pub mean_runtime_min: f64,
    /// Target offered load (total work / capacity over the submission
    /// span); the arrival span is solved from this.
    pub offered_load: f64,
    /// RNG seed; generation is deterministic given the spec.
    pub seed: u64,
    /// Number of distinct users.
    pub n_users: usize,
    /// Zipf exponent of user activity (larger = more skewed).
    pub user_zipf: f64,
    /// Mean number of distinct applications per user.
    pub mean_apps_per_user: f64,
    /// Within-application run-time dispersion (sigma of the log-normal).
    /// Controls how predictable history makes a job.
    pub runtime_sigma: f64,
    /// Across-application dispersion of mean run times.
    pub app_mean_sigma: f64,
    /// Skew of the power-of-two node-count distribution (larger = more
    /// small jobs).
    pub node_skew: f64,
    /// Probability that a user's next job reuses the same application as
    /// their previous one (temporal locality / submission streaks).
    pub session_repeat_prob: f64,
    /// Probability an application is a shared community code whose
    /// executable name is common across users.
    pub shared_app_prob: f64,
    /// Type recording scheme, if the site records job types.
    pub type_scheme: Option<TypeScheme>,
    /// Probability of a special job class (`DSI`/`PIOFS`), if recorded.
    pub class_prob: Option<f64>,
    /// Whether LoadLeveler script names are recorded.
    pub records_script: bool,
    /// Whether executable names are recorded.
    pub records_executable: bool,
    /// Whether executable arguments are recorded.
    pub records_arguments: bool,
    /// Whether network-adaptor requests are recorded.
    pub records_network_adaptor: bool,
    /// Queue scheme, if the site routes jobs through queues.
    pub queue_scheme: Option<QueueScheme>,
    /// Largest node count a single job may request (defaults to the
    /// machine size). Real sites rarely allow full-machine jobs in the
    /// general queues; capping them keeps conservative backfill from
    /// periodic full drains the traces never exhibited.
    pub max_job_nodes: Option<u32>,
    /// Hard cap on run times, hours (queue policies bounded jobs on all
    /// four systems).
    pub max_runtime_hours: f64,
    /// Whether user-supplied maximum run times are recorded (ANL, CTC).
    pub records_max_runtime: bool,
    /// `ln` of the typical user overestimation factor for max run times.
    pub overestimate_mu: f64,
    /// Dispersion of the overestimation factor.
    pub overestimate_sigma: f64,
    /// Amplitude of the daily arrival-rate modulation in `[0, 1)`.
    pub daily_amplitude: f64,
}

impl SiteSpec {
    /// A neutral starting spec; site constructors override fields.
    pub fn base(name: &str) -> SiteSpec {
        SiteSpec {
            name: name.to_string(),
            machine_nodes: 128,
            n_jobs: 10_000,
            mean_runtime_min: 120.0,
            offered_load: 0.5,
            seed: 0x5EED,
            n_users: 120,
            user_zipf: 1.1,
            mean_apps_per_user: 3.0,
            runtime_sigma: 0.7,
            app_mean_sigma: 1.0,
            node_skew: 0.55,
            session_repeat_prob: 0.6,
            shared_app_prob: 0.12,
            type_scheme: None,
            class_prob: None,
            records_script: false,
            records_executable: false,
            records_arguments: false,
            records_network_adaptor: false,
            queue_scheme: None,
            max_job_nodes: None,
            max_runtime_hours: 18.0,
            records_max_runtime: false,
            overestimate_mu: 1.4, // e^1.4 ~ 4x overestimate
            overestimate_sigma: 0.8,
            daily_amplitude: 0.35,
        }
    }

    /// Copy of the spec with a different job count (for tests/benches).
    pub fn with_jobs(mut self, n: usize) -> SiteSpec {
        self.n_jobs = n;
        self
    }
}

/// One application in a user's repertoire.
struct App {
    exe: Option<Sym>,
    script: Option<Sym>,
    adaptor: Option<Sym>,
    class: Option<Sym>,
    /// Relative mean run time (rescaled globally at the end).
    mean_rel: f64,
    sigma: f64,
    pref_nodes: u32,
    interactive: bool,
    pvm: bool,
    /// Argument variants: `(symbol, run-time multiplier)`.
    args: Vec<(Sym, f64)>,
}

struct User {
    sym: Sym,
    apps: Vec<App>,
    /// Typical max-run-time overestimation factor for this user.
    overestimate: f64,
    /// Index of the application the user last submitted.
    current_app: usize,
    /// Argument variant the user last used.
    current_arg: usize,
}

/// Generate a workload from a site spec. Deterministic given the spec:
/// the RNG draws come in a fixed order, one `gen_f64` per job for its
/// arrival, and arrivals are the bisection's integers whether or not
/// the certified fast path produced them (see [`super::arrivals`]).
///
/// # Panics
/// Panics if the spec is degenerate (`n_jobs == 0`, `n_users == 0`,
/// non-positive load or mean run time).
pub fn generate(spec: &SiteSpec) -> Workload {
    generate_counting_fallbacks(spec).0
}

/// [`generate`], also returning how many arrivals fell back from the
/// certified Newton path to the bisection.
pub(crate) fn generate_counting_fallbacks(spec: &SiteSpec) -> (Workload, usize) {
    assert!(spec.n_jobs > 0, "n_jobs must be positive");
    assert!(spec.n_users > 0, "n_users must be positive");
    assert!(spec.offered_load > 0.0, "offered load must be positive");
    assert!(
        spec.mean_runtime_min > 0.0,
        "mean run time must be positive"
    );

    let mut rng = Rng64::seed_from_u64(spec.seed);
    let node_cap = spec
        .max_job_nodes
        .unwrap_or(spec.machine_nodes)
        .clamp(1, spec.machine_nodes);
    let mut w = Workload::new(spec.name.clone(), spec.machine_nodes);

    // Pre-intern the fixed vocabulary.
    let type_batch = w.symbols.intern("batch");
    let type_interactive = w.symbols.intern("interactive");
    let type_serial = w.symbols.intern("serial");
    let type_parallel = w.symbols.intern("parallel");
    let type_pvm3 = w.symbols.intern("pvm3");
    let class_dsi = w.symbols.intern("DSI");
    let class_piofs = w.symbols.intern("PIOFS");
    let adaptors: Vec<Sym> = ["css0", "csss", "en0"]
        .iter()
        .map(|a| w.symbols.intern(a))
        .collect();
    let shared_exes: Vec<Sym> = (0..10)
        .map(|i| w.symbols.intern(&format!("shared_code{i}")))
        .collect();

    let mut users = build_users(
        spec,
        node_cap,
        &mut rng,
        &mut w,
        &adaptors,
        &shared_exes,
        class_dsi,
        class_piofs,
    );
    let user_pick = dist::Zipf::new(users.len(), spec.user_zipf);

    // --- Draw the job sequence (user, app, variant, relative runtime, nodes).
    struct Draft {
        user: usize,
        app: usize,
        arg: usize,
        rt_rel: f64,
        nodes: u32,
    }
    let mut drafts = Vec::with_capacity(spec.n_jobs);
    for _ in 0..spec.n_jobs {
        let ui = user_pick.sample(&mut rng);
        let (ai, argi) = {
            let u = &mut users[ui];
            let repeat = rng.gen_f64() < spec.session_repeat_prob;
            let ai = if repeat {
                u.current_app
            } else {
                rng.gen_index(u.apps.len())
            };
            u.current_app = ai;
            let app = &u.apps[ai];
            let argi = if app.args.len() <= 1 {
                0
            } else if repeat && rng.gen_f64() < 0.7 {
                u.current_arg.min(app.args.len() - 1)
            } else {
                rng.gen_index(app.args.len())
            };
            u.current_arg = argi;
            (ai, argi)
        };
        let app = &users[ui].apps[ai];
        let mult = if app.args.is_empty() {
            1.0
        } else {
            app.args[argi].1
        };
        let rt_rel = app.mean_rel * mult * dist::lognormal_with_mean(&mut rng, 1.0, app.sigma);
        let mut nodes = app.pref_nodes;
        // Occasional scale-up/scale-down runs of the same application.
        let r = rng.gen_f64();
        if r < 0.08 {
            nodes = (nodes * 2).min(node_cap);
        } else if r < 0.16 {
            nodes = (nodes / 2).max(1);
        }
        drafts.push(Draft {
            user: ui,
            app: ai,
            arg: argi,
            rt_rel,
            nodes,
        });
    }

    // --- Users request *habitual* wall-clock limits: one factor per
    // (user, application, argument variant), applied to the application's
    // typical run time — NOT to the individual job's run time. Real
    // limits carry identity-level information only; encoding per-job run
    // times in them would hand the max-run-time baseline an oracle-grade
    // short-job signal no real scheduler has.
    // The map draws each key's factor at its first draft, in draft order;
    // `habit[i]` is then draft `i`'s factor, looked up once.
    use std::collections::HashMap;
    let mut habit_of: HashMap<(usize, usize, usize), f64> = HashMap::new();
    let habit: Vec<f64> = drafts
        .iter()
        .map(|d| {
            *habit_of.entry((d.user, d.app, d.arg)).or_insert_with(|| {
                users[d.user].overestimate
                    * dist::lognormal_with_mean(&mut rng, 1.0, spec.overestimate_sigma * 0.4)
            })
        })
        .collect();
    // Relative typical run time of each draft's (app, variant).
    let typical_rel = |d: &Draft| -> f64 {
        let app = &users[d.user].apps[d.app];
        let mult = if app.args.is_empty() {
            1.0
        } else {
            app.args[d.arg].1
        };
        app.mean_rel * mult
    };

    // --- Rescale run times so the empirical mean hits the target exactly
    // (after integer rounding, the policy cap, and the kill-at-limit
    // clamp, iterate a few times).
    let target_mean_s = spec.mean_runtime_min * 60.0;
    let max_rt_s = spec.max_runtime_hours.max(1.0) * 3600.0;
    let mut scale = {
        let mean_rel: f64 = drafts.iter().map(|d| d.rt_rel).sum::<f64>() / drafts.len() as f64;
        target_mean_s / mean_rel
    };
    let limit_for = |d: &Draft, h: f64, scale: f64| -> i64 {
        let intent = typical_rel(d) * scale * h;
        dist::round_to_familiar_limit(intent.min(max_rt_s * 2.0))
    };
    let mut runtimes: Vec<i64> = Vec::new();
    for _ in 0..6 {
        runtimes = drafts
            .iter()
            .zip(&habit)
            .map(|(d, &h)| {
                let mut rt = (d.rt_rel * scale).round().clamp(1.0, max_rt_s) as i64;
                if spec.records_max_runtime {
                    // Jobs hitting their wall-clock limit are killed, as
                    // on the real systems.
                    rt = rt.min(limit_for(d, h, scale)).max(1);
                }
                rt
            })
            .collect();
        let mean: f64 = runtimes.iter().map(|&r| r as f64).sum::<f64>() / runtimes.len() as f64;
        if (mean - target_mean_s).abs() / target_mean_s < 1e-4 {
            break;
        }
        scale *= target_mean_s / mean;
    }

    // --- Solve the arrival span from the offered load and draw arrivals
    // with daily modulation.
    let total_work: f64 = drafts
        .iter()
        .zip(&runtimes)
        .map(|(d, &rt)| d.nodes as f64 * rt as f64)
        .sum();
    let span_s = total_work / (spec.machine_nodes as f64 * spec.offered_load);
    let (arrivals, fallbacks) = draw_arrivals(&mut rng, spec.n_jobs, span_s, spec.daily_amplitude);

    // --- Materialize jobs.
    let queue_syms = spec
        .queue_scheme
        .as_ref()
        .map(|qs| intern_queues(&mut w, qs));
    for (i, ((draft, &h), (&rt, &arrival))) in drafts
        .iter()
        .zip(&habit)
        .zip(runtimes.iter().zip(arrivals.iter()))
        .enumerate()
    {
        let user = &users[draft.user];
        let app = &user.apps[draft.app];
        let runtime = Dur(rt.max(1));
        let mut b = JobBuilder::new()
            .submit(Time(arrival))
            .runtime(runtime)
            .nodes(draft.nodes.clamp(1, node_cap))
            .with(Characteristic::User, user.sym);
        if spec.records_executable {
            if let Some(e) = app.exe {
                b = b.with(Characteristic::Executable, e);
            }
        }
        if spec.records_arguments && !app.args.is_empty() {
            b = b.with(Characteristic::Arguments, app.args[draft.arg].0);
        }
        if spec.records_script {
            b = b.with_opt(Characteristic::Script, app.script);
        }
        if spec.records_network_adaptor {
            b = b.with_opt(Characteristic::NetworkAdaptor, app.adaptor);
        }
        if spec.class_prob.is_some() {
            b = b.with_opt(Characteristic::Class, app.class);
        }
        if let Some(scheme) = spec.type_scheme {
            let t = match scheme {
                TypeScheme::AnlBatchInteractive { .. } => {
                    if app.interactive {
                        type_interactive
                    } else {
                        type_batch
                    }
                }
                TypeScheme::CtcSerialParallelPvm { .. } => {
                    if draft.nodes == 1 {
                        type_serial
                    } else if app.pvm {
                        type_pvm3
                    } else {
                        type_parallel
                    }
                }
            };
            b = b.with(Characteristic::Type, t);
        }
        // The habitual per-(user, app, variant) intent drives both the
        // wall-clock limit and (for queued sites) the queue choice.
        let intent_s = typical_rel(draft) * scale * h;
        if spec.records_max_runtime {
            let lim = limit_for(draft, h, scale).max(rt);
            b = b.max_runtime(Dur(lim));
        }
        if let (Some(scheme), Some(qsyms)) = (spec.queue_scheme.as_ref(), queue_syms.as_ref()) {
            let q = pick_queue(scheme, qsyms, intent_s, draft.nodes, &mut rng);
            b = b.with(Characteristic::Queue, q);
        }
        w.jobs.push(b.build(JobId(i as u32)));
    }
    w.finalize();
    debug_assert!(w.validate().is_ok(), "{:?}", w.validate());
    (w, fallbacks)
}

#[allow(clippy::too_many_arguments)]
fn build_users(
    spec: &SiteSpec,
    node_cap: u32,
    rng: &mut Rng64,
    w: &mut Workload,
    adaptors: &[Sym],
    shared_exes: &[Sym],
    class_dsi: Sym,
    class_piofs: Sym,
) -> Vec<User> {
    let mut users = Vec::with_capacity(spec.n_users);
    for ui in 0..spec.n_users {
        let sym = w.symbols.intern(&format!("u{ui:03}"));
        let n_apps = 1
            + (dist::exponential(rng, 1.0 / (spec.mean_apps_per_user - 1.0).max(0.1)).floor()
                as usize)
                .min(11);
        let mut apps = Vec::with_capacity(n_apps);
        for ai in 0..n_apps {
            let interactive = matches!(
                spec.type_scheme,
                Some(TypeScheme::AnlBatchInteractive { interactive_frac })
                    if rng.gen_f64() < interactive_frac
            );
            let pvm = matches!(
                spec.type_scheme,
                Some(TypeScheme::CtcSerialParallelPvm { pvm_frac })
                    if rng.gen_f64() < pvm_frac
            );
            let mut mean_rel = dist::lognormal_with_mean(rng, 1.0, spec.app_mean_sigma);
            let mut pref_nodes = dist::power_of_two(rng, node_cap, spec.node_skew);
            if interactive {
                mean_rel *= 0.08;
                pref_nodes = pref_nodes.min(8);
            }
            let exe = if rng.gen_f64() < spec.shared_app_prob {
                shared_exes[rng.gen_index(shared_exes.len())]
            } else {
                w.symbols.intern(&format!("u{ui:03}_app{ai}"))
            };
            let script = spec
                .records_script
                .then(|| w.symbols.intern(&format!("u{ui:03}_job{ai}.ll")));
            let adaptor = spec
                .records_network_adaptor
                .then(|| adaptors[dist::weighted_index(rng, &[0.7, 0.2, 0.1])]);
            let class = spec.class_prob.and_then(|p| {
                let r = rng.gen_f64();
                if r < p / 2.0 {
                    Some(class_dsi)
                } else if r < p {
                    Some(class_piofs)
                } else {
                    None
                }
            });
            let n_variants = if spec.records_arguments {
                1 + dist::weighted_index(rng, &[0.5, 0.25, 0.15, 0.10])
            } else {
                1
            };
            let args: Vec<(Sym, f64)> = (0..n_variants)
                .map(|vi| {
                    let name = w.symbols.intern(&format!("u{ui:03}_app{ai}_v{vi}"));
                    // Distinct problem sizes: successive variants roughly
                    // double the run time, with jitter.
                    let mult = (2.0f64).powi(vi as i32 - (n_variants as i32 - 1) / 2)
                        * dist::lognormal_with_mean(rng, 1.0, 0.15);
                    (name, mult)
                })
                .collect();
            apps.push(App {
                exe: Some(exe),
                script,
                adaptor,
                class,
                mean_rel,
                sigma: spec.runtime_sigma * rng.gen_range_f64(0.6, 1.4),
                pref_nodes,
                interactive,
                pvm,
                args,
            });
        }
        users.push(User {
            sym,
            apps,
            overestimate: dist::lognormal(rng, spec.overestimate_mu, spec.overestimate_sigma * 0.6)
                .max(1.05),
            current_app: 0,
            current_arg: 0,
        });
    }
    users
}

/// Draw `n` sorted arrival times (seconds) over `[0, span_s]` from a
/// process whose rate has a sinusoidal daily cycle of amplitude `a`: one
/// `gen_f64` per job picks a target under the cumulative rate, inverted
/// by [`DailyCycle::certified_arrival`] or, where it declines, by the
/// bisection. Also returns how many jobs fell back to the bisection.
fn draw_arrivals(rng: &mut Rng64, n: usize, span_s: f64, a: f64) -> (Vec<i64>, usize) {
    let cycle = DailyCycle::new(span_s, a);
    let total = cycle.total();
    let mut fallbacks = 0;
    let mut arrivals: Vec<i64> = (0..n)
        .map(|_| {
            let target = rng.gen_f64() * total;
            cycle.certified_arrival(target).unwrap_or_else(|| {
                fallbacks += 1;
                cycle.arrival_by_bisection(target)
            })
        })
        .collect();
    arrivals.sort_unstable();
    (arrivals, fallbacks)
}

/// Intern the queue-name vocabulary for a queue scheme. Layout:
/// `queues[time_class][node_class]`, plus optional express queues indexed
/// afterwards per node class.
fn intern_queues(w: &mut Workload, qs: &QueueScheme) -> Vec<Vec<Sym>> {
    let n_time = qs.time_bucket_hours.len() + 1;
    let n_node = qs.node_buckets.len() + 1;
    let letters = ["s", "m", "l", "v", "x", "y", "z"];
    let mut out = Vec::with_capacity(n_time + 1);
    for t in 0..n_time {
        let mut row = Vec::with_capacity(n_node);
        for nc in 0..n_node {
            let cap = qs.node_buckets.get(nc).copied().unwrap_or(w.machine_nodes);
            row.push(w.symbols.intern(&format!(
                "q{}{}",
                cap,
                letters.get(t).copied().unwrap_or("w")
            )));
        }
        out.push(row);
    }
    if qs.express {
        let mut row = Vec::with_capacity(n_node);
        for nc in 0..n_node {
            let cap = qs.node_buckets.get(nc).copied().unwrap_or(w.machine_nodes);
            row.push(w.symbols.intern(&format!("q{cap}e")));
        }
        out.push(row);
    }
    out
}

fn pick_queue(
    qs: &QueueScheme,
    queues: &[Vec<Sym>],
    intent_s: f64,
    nodes: u32,
    rng: &mut Rng64,
) -> Sym {
    let node_class = qs
        .node_buckets
        .iter()
        .position(|&b| nodes <= b)
        .unwrap_or(qs.node_buckets.len());
    let time_class = qs
        .time_bucket_hours
        .iter()
        .position(|&b| intent_s <= b * 3600.0)
        .unwrap_or(qs.time_bucket_hours.len());
    // Short jobs sometimes go to the express queue for their size class.
    if qs.express && time_class == 0 && rng.gen_f64() < 0.4 {
        return queues[queues.len() - 1][node_class];
    }
    queues[time_class][node_class]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::WorkloadStats;

    fn quick_spec() -> SiteSpec {
        let mut s = SiteSpec::base("quick");
        s.n_jobs = 1500;
        s.machine_nodes = 64;
        s.mean_runtime_min = 30.0;
        s.offered_load = 0.6;
        s.n_users = 30;
        s.records_executable = true;
        s.records_arguments = true;
        s.records_max_runtime = true;
        s
    }

    #[test]
    fn hits_job_count_and_mean_runtime() {
        let w = generate(&quick_spec());
        assert_eq!(w.len(), 1500);
        let st = WorkloadStats::of(&w);
        assert!(
            (st.mean_runtime_min - 30.0).abs() / 30.0 < 0.02,
            "mean {} want 30",
            st.mean_runtime_min
        );
    }

    #[test]
    fn hits_offered_load() {
        let w = generate(&quick_spec());
        let st = WorkloadStats::of(&w);
        assert!(
            (st.offered_load - 0.6).abs() < 0.05,
            "load {}",
            st.offered_load
        );
    }

    #[test]
    fn is_deterministic() {
        let a = generate(&quick_spec());
        let b = generate(&quick_spec());
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn seed_changes_output() {
        let a = generate(&quick_spec());
        let b = generate(&SiteSpec {
            seed: 7,
            ..quick_spec()
        });
        assert_ne!(a.jobs, b.jobs);
    }

    #[test]
    fn validates_and_fits_machine() {
        let w = generate(&quick_spec());
        w.validate().unwrap();
        assert!(w.jobs.iter().all(|j| j.nodes <= 64));
    }

    #[test]
    fn max_runtimes_bound_runtimes() {
        let w = generate(&quick_spec());
        for j in &w.jobs {
            let m = j.max_runtime.expect("spec records max runtimes");
            assert!(m >= j.runtime, "limit {m:?} < runtime {:?}", j.runtime);
        }
    }

    #[test]
    fn history_gives_signal() {
        // Jobs sharing (user, executable, arguments) must cluster: the
        // within-group dispersion must be far below the global dispersion.
        let w = generate(&quick_spec());
        use std::collections::HashMap;
        let mut groups: HashMap<(Sym, Sym), Vec<f64>> = HashMap::new();
        for j in &w.jobs {
            if let (Some(u), Some(a)) = (
                j.characteristic(Characteristic::User),
                j.characteristic(Characteristic::Arguments),
            ) {
                groups
                    .entry((u, a))
                    .or_default()
                    .push(j.runtime.as_secs_f64());
            }
        }
        let global_mean: f64 =
            w.jobs.iter().map(|j| j.runtime.as_secs_f64()).sum::<f64>() / w.len() as f64;
        let global_mad: f64 = w
            .jobs
            .iter()
            .map(|j| (j.runtime.as_secs_f64() - global_mean).abs())
            .sum::<f64>()
            / w.len() as f64;
        let mut within_mad_sum = 0.0;
        let mut within_n = 0usize;
        for v in groups.values().filter(|v| v.len() >= 5) {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            within_mad_sum += v.iter().map(|x| (x - m).abs()).sum::<f64>();
            within_n += v.len();
        }
        assert!(within_n > 100, "too few repeated groups: {within_n}");
        let within_mad = within_mad_sum / within_n as f64;
        assert!(
            within_mad < 0.65 * global_mad,
            "within {within_mad:.0}s vs global {global_mad:.0}s — history carries no signal"
        );
    }

    #[test]
    fn queue_scheme_produces_queues_correlated_with_runtime() {
        let mut s = quick_spec();
        s.records_max_runtime = false;
        s.queue_scheme = Some(QueueScheme {
            time_bucket_hours: vec![0.5, 2.0, 6.0],
            node_buckets: vec![8, 32],
            express: true,
        });
        let w = generate(&s);
        let st = WorkloadStats::of(&w);
        assert!(st.queues >= 6, "expected several queues, got {}", st.queues);
        // Jobs in the same queue should have more similar runtimes than
        // jobs overall (queue encodes an intent bucket).
        let maxima = w.derive_queue_max_runtimes();
        let mins: Vec<f64> = maxima
            .iter()
            .filter(|(k, _)| k.is_some())
            .map(|(_, d)| d.minutes())
            .collect();
        let spread = mins.iter().cloned().fold(f64::MIN, f64::max)
            / mins.iter().cloned().fold(f64::MAX, f64::min).max(1e-9);
        assert!(spread > 2.0, "queue maxima should differ, spread {spread}");
    }

    #[test]
    fn arrivals_are_sorted_and_span_solves_load() {
        let mut r = Rng64::seed_from_u64(1);
        let (arr, _) = draw_arrivals(&mut r, 500, 1_000_000.0, 0.5);
        assert_eq!(arr.len(), 500);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(*arr.last().unwrap() <= 1_000_000);
        assert!(*arr.first().unwrap() >= 0);
    }

    #[test]
    #[should_panic(expected = "n_jobs")]
    fn rejects_empty_spec() {
        generate(&SiteSpec::base("x").with_jobs(0));
    }
}
