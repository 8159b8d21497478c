//! Calibrated site models for the paper's four workloads (Table 1).
//!
//! | Workload | System        | Nodes | Requests | Mean run time |
//! |----------|---------------|-------|----------|---------------|
//! | ANL      | IBM SP2       | 80*   | 7994     | 97.75 min     |
//! | CTC      | IBM SP2       | 512   | 13217    | 171.14 min    |
//! | SDSC95   | Intel Paragon | 400   | 22885    | 108.21 min    |
//! | SDSC96   | Intel Paragon | 400   | 22337    | 166.98 min    |
//!
//! *The ANL trace dropped one-third of requests when recorded; the paper
//! compensates by simulating an 80-node machine instead of 120, and so do
//! we.
//!
//! Offered loads are calibrated to the utilizations the paper's simulations
//! report in Tables 10–15 (ANL ~0.71 — the "highest offered load" — CTC
//! ~0.51, SDSC95 ~0.41, SDSC96 ~0.47). Characteristic availability follows
//! Table 2.

use super::model::{generate, QueueScheme, SiteSpec, TypeScheme};
use crate::workload::Workload;

/// Names of the four paper workloads, in the paper's order.
pub const ALL_SITES: [&str; 4] = ["ANL", "CTC", "SDSC95", "SDSC96"];

/// Spec for the Argonne National Laboratory SP2 workload.
///
/// Characteristics (Table 2): type (batch/interactive), user, executable,
/// arguments, maximum run time. Highest offered load of the four — this is
/// the workload where the paper finds prediction accuracy matters most.
pub fn anl_spec() -> SiteSpec {
    let mut s = SiteSpec::base("ANL");
    s.machine_nodes = 80;
    s.n_jobs = 7994;
    s.mean_runtime_min = 97.75;
    s.offered_load = 0.715;
    s.seed = 0xA71_0001;
    s.n_users = 90;
    s.type_scheme = Some(TypeScheme::AnlBatchInteractive {
        interactive_frac: 0.35,
    });
    s.records_executable = true;
    s.records_arguments = true;
    s.records_max_runtime = true;
    s.runtime_sigma = 0.65;
    s.node_skew = 0.45;
    s.max_job_nodes = Some(64); // the corrected 80-node machine ran sub-full jobs
    s.max_runtime_hours = 8.0;
    s
}

/// Spec for the Cornell Theory Center SP2 workload.
///
/// Characteristics (Table 2): type (serial/parallel/pvm3), class
/// (DSI/PIOFS), user, LoadLeveler script, network adaptor, maximum run
/// time. Large machine, low offered load.
pub fn ctc_spec() -> SiteSpec {
    let mut s = SiteSpec::base("CTC");
    s.machine_nodes = 512;
    s.n_jobs = 13_217;
    s.mean_runtime_min = 171.14;
    s.offered_load = 0.525;
    s.seed = 0xC7C_0002;
    s.n_users = 180;
    s.type_scheme = Some(TypeScheme::CtcSerialParallelPvm { pvm_frac: 0.10 });
    s.class_prob = Some(0.12);
    s.records_script = true;
    s.records_network_adaptor = true;
    s.records_max_runtime = true;
    // The paper found its own predictor *worst* on CTC (limited template
    // search); CTC gets the noisiest run times of the four sites.
    s.runtime_sigma = 0.95;
    s.node_skew = 0.75; // many serial/small jobs on the SP2
    s.session_repeat_prob = 0.5;
    s.max_job_nodes = Some(256); // CTC's general pool topped out well below 512
    s.max_runtime_hours = 18.0;
    s.daily_amplitude = 0.5;
    s
}

fn sdsc_queue_scheme() -> QueueScheme {
    QueueScheme {
        // 4+1 time classes x 3+1 node classes + express row ~ 29-35 queues
        // of the real Paragon.
        time_bucket_hours: vec![0.5, 2.0, 6.0, 18.0],
        node_buckets: vec![16, 64, 256],
        express: true,
    }
}

/// Spec for the San Diego Supercomputer Center Paragon, 1995 trace.
///
/// Characteristics (Table 2): queue (29–35 queues), user. No recorded
/// maximum run times — the max-run-time predictor derives per-queue maxima
/// as the paper does.
pub fn sdsc95_spec() -> SiteSpec {
    let mut s = SiteSpec::base("SDSC95");
    s.machine_nodes = 400;
    s.n_jobs = 22_885;
    s.mean_runtime_min = 108.21;
    s.offered_load = 0.425;
    s.seed = 0x5D5C_1995;
    s.n_users = 220;
    s.queue_scheme = Some(sdsc_queue_scheme());
    s.records_max_runtime = false;
    s.records_executable = false;
    s.runtime_sigma = 0.75;
    s.node_skew = 0.6;
    s.max_job_nodes = Some(256);
    s.max_runtime_hours = 12.0;
    s.daily_amplitude = 0.55;
    s
}

/// Spec for the San Diego Supercomputer Center Paragon, 1996 trace.
pub fn sdsc96_spec() -> SiteSpec {
    let mut s = sdsc95_spec();
    s.name = "SDSC96".to_string();
    s.n_jobs = 22_337;
    s.mean_runtime_min = 166.98;
    s.offered_load = 0.48;
    s.seed = 0x5D5C_1996;
    s.runtime_sigma = 0.6; // the paper's most predictable workload
    s
}

/// Generate the ANL workload.
pub fn anl() -> Workload {
    generate(&anl_spec())
}

/// Generate the CTC workload.
pub fn ctc() -> Workload {
    generate(&ctc_spec())
}

/// Generate the SDSC95 workload.
pub fn sdsc95() -> Workload {
    generate(&sdsc95_spec())
}

/// Generate the SDSC96 workload.
pub fn sdsc96() -> Workload {
    generate(&sdsc96_spec())
}

/// Look up a site spec by (case-insensitive) name.
pub fn spec_by_name(name: &str) -> Option<SiteSpec> {
    match name.to_ascii_uppercase().as_str() {
        "ANL" => Some(anl_spec()),
        "CTC" => Some(ctc_spec()),
        "SDSC95" => Some(sdsc95_spec()),
        "SDSC96" => Some(sdsc96_spec()),
        _ => None,
    }
}

/// Generate a workload by site name (`"ANL"`, `"CTC"`, `"SDSC95"`,
/// `"SDSC96"`): at the site's full Table 1 size, or with `jobs` jobs.
/// A cut-down site keeps at most `max(jobs / 20, 4)` users, so per-user
/// history still accumulates at small sizes.
pub fn by_name(name: &str, jobs: Option<usize>) -> Option<Workload> {
    Some(generate(&sized_spec_by_name(name, jobs)?))
}

/// The spec [`by_name`] generates.
pub(crate) fn sized_spec_by_name(name: &str, jobs: Option<usize>) -> Option<SiteSpec> {
    let mut spec = spec_by_name(name)?;
    if let Some(n) = jobs {
        spec.n_jobs = n;
        spec.n_users = spec.n_users.min((n / 20).max(4));
    }
    Some(spec)
}

/// A small, fast workload for tests and examples: `n_jobs` jobs on a
/// `machine_nodes`-node machine at moderate load, with users, executables,
/// arguments, and max run times recorded.
pub fn toy(n_jobs: usize, machine_nodes: u32, seed: u64) -> Workload {
    generate(&toy_spec(n_jobs, machine_nodes, seed))
}

/// The spec [`toy`] generates.
pub(crate) fn toy_spec(n_jobs: usize, machine_nodes: u32, seed: u64) -> SiteSpec {
    let mut s = SiteSpec::base("toy");
    s.machine_nodes = machine_nodes;
    s.n_jobs = n_jobs;
    s.n_users = (n_jobs / 40).clamp(4, 60);
    s.mean_runtime_min = 45.0;
    s.offered_load = 0.6;
    s.seed = seed;
    s.records_executable = true;
    s.records_arguments = true;
    s.records_max_runtime = true;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Characteristic;
    use crate::stats::WorkloadStats;

    /// Shrunken copies of the real specs so the calibration tests stay
    /// fast; the full-size figures are exercised by `qpredict paper`.
    fn small(mut s: SiteSpec) -> Workload {
        s.n_jobs = 2000;
        generate(&s)
    }

    #[test]
    fn anl_shape() {
        let w = small(anl_spec());
        let st = WorkloadStats::of(&w);
        assert_eq!(w.machine_nodes, 80);
        assert!((st.mean_runtime_min - 97.75).abs() / 97.75 < 0.02);
        assert!((st.offered_load - 0.715).abs() < 0.06);
        assert!(w.records(Characteristic::Type));
        assert!(w.records(Characteristic::Executable));
        assert!(w.records(Characteristic::Arguments));
        assert!(!w.records(Characteristic::Queue));
        assert!(!w.records(Characteristic::Script));
        assert!(w.records_max_runtime());
    }

    #[test]
    fn ctc_shape() {
        let w = small(ctc_spec());
        let st = WorkloadStats::of(&w);
        assert_eq!(w.machine_nodes, 512);
        assert!((st.mean_runtime_min - 171.14).abs() / 171.14 < 0.02);
        assert!(w.records(Characteristic::Type));
        assert!(w.records(Characteristic::Class));
        assert!(w.records(Characteristic::Script));
        assert!(w.records(Characteristic::NetworkAdaptor));
        assert!(!w.records(Characteristic::Queue));
        assert!(!w.records(Characteristic::Executable));
        assert!(w.records_max_runtime());
    }

    #[test]
    fn sdsc_shapes() {
        for (spec, mean) in [(sdsc95_spec(), 108.21), (sdsc96_spec(), 166.98)] {
            let w = small(spec);
            let st = WorkloadStats::of(&w);
            assert_eq!(w.machine_nodes, 400);
            assert!((st.mean_runtime_min - mean).abs() / mean < 0.02);
            assert!(w.records(Characteristic::Queue));
            assert!(w.records(Characteristic::User));
            assert!(!w.records(Characteristic::Executable));
            assert!(!w.records_max_runtime());
            assert!(
                st.queues >= 10,
                "SDSC should have many queues: {}",
                st.queues
            );
        }
    }

    /// Work-count guard on the certified arrival path: on every site model
    /// at its full size and at 16,000 jobs, and on `toy`, fewer than 1% of
    /// arrivals may fall back to the 50-step bisection.
    #[test]
    fn arrivals_rarely_fall_back_to_bisection() {
        let mut specs: Vec<SiteSpec> = Vec::new();
        for name in ALL_SITES {
            for jobs in [None, Some(16_000)] {
                specs.push(sized_spec_by_name(name, jobs).expect("known site"));
            }
        }
        specs.push(toy_spec(2000, 64, 42));
        specs.push(toy_spec(300, 32, 41));
        for spec in &specs {
            let (w, fallbacks) = super::super::model::generate_counting_fallbacks(spec);
            assert!(
                fallbacks * 100 < w.len(),
                "{} at {} jobs: {fallbacks} arrivals fell back",
                spec.name,
                w.len()
            );
        }
    }

    #[test]
    fn full_job_counts_match_table1() {
        // Only check the specs (generation at full size is exercised by
        // integration tests and `qpredict paper`).
        assert_eq!(anl_spec().n_jobs, 7994);
        assert_eq!(ctc_spec().n_jobs, 13_217);
        assert_eq!(sdsc95_spec().n_jobs, 22_885);
        assert_eq!(sdsc96_spec().n_jobs, 22_337);
    }

    #[test]
    fn lookup_by_name() {
        for n in ALL_SITES {
            assert!(spec_by_name(n).is_some());
            assert!(spec_by_name(&n.to_lowercase()).is_some());
        }
        assert!(spec_by_name("NERSC").is_none());
    }

    #[test]
    fn toy_is_quick_and_valid() {
        let w = toy(300, 32, 1);
        assert_eq!(w.len(), 300);
        w.validate().unwrap();
        assert!(w.records_max_runtime());
    }

    #[test]
    fn offered_loads_ordered_like_paper() {
        // ANL must carry the highest offered load, SDSC95 the lowest.
        let anl = WorkloadStats::of(&small(anl_spec())).offered_load;
        let ctc = WorkloadStats::of(&small(ctc_spec())).offered_load;
        let s95 = WorkloadStats::of(&small(sdsc95_spec())).offered_load;
        let s96 = WorkloadStats::of(&small(sdsc96_spec())).offered_load;
        assert!(
            anl > ctc && ctc > s96 && s96 > s95,
            "{anl} {ctc} {s96} {s95}"
        );
    }
}
