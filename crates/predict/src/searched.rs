//! Template sets for the Smith predictor, per workload.
//!
//! The paper searches for template sets per (workload, use) pair with a
//! genetic algorithm. Searches are expensive, so — like the paper's
//! authors, who ran them offline — we ship the sets `qpredict-search`
//! found for the four synthetic workloads as an earlier workload
//! generator drew them, by `cargo run --release --bin qpredict -- paper
//! ga-search` (population 28, 20 generations, seeded with the curated
//! defaults below). EXPERIMENTS.md gives each set's held-out validation
//! error on today's streams, beside its curated seed's and a fresh
//! search's.
//!
//! GA output is kept verbatim; templates that reference characteristics
//! a site never records (e.g. `s` on ANL) simply never match a job and
//! are dead weight the search tolerated.
//!
//! Unknown workloads fall back to [`TemplateSet::default_for`], which
//! adapts to whatever characteristics the trace records.

use crate::{EstimatorKind, Template, TemplateSet};
use qpredict_workload::{Characteristic, Workload, CHARACTERISTICS};

use Characteristic as C;

/// The site name with derived-workload suffixes stripped:
/// `"ANL[..500]"` and `"SDSC95/x2.00"` still select their site's set.
fn base_name(name: &str) -> &str {
    name.split(['[', '/']).next().unwrap_or(name)
}

/// The searched template set for a workload, by name; falls back to a
/// characteristics-driven default for unknown workloads.
pub fn set_for(wl: &Workload) -> TemplateSet {
    match base_name(&wl.name) {
        "ANL" => anl_set(),
        "CTC" => ctc_set(),
        "SDSC95" => sdsc95_set(),
        "SDSC96" => sdsc96_set(),
        _ => {
            let recorded: Vec<Characteristic> = CHARACTERISTICS
                .into_iter()
                .filter(|&c| wl.records(c))
                .collect();
            TemplateSet::default_for(&recorded, wl.records_max_runtime())
        }
    }
}

/// Curated seed set for a workload (also the warm start the GA search
/// uses). Exposed for the search-strategy ablation.
pub fn curated_seed_for(wl: &Workload) -> TemplateSet {
    match base_name(&wl.name) {
        "ANL" => curated_anl(),
        "CTC" => curated_ctc(),
        "SDSC95" | "SDSC96" => curated_sdsc(),
        _ => set_for(wl),
    }
}

/// GA winner for ANL.
fn anl_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::User, C::Arguments]).with_max_history(4),
        Template::mean_over(&[C::Type, C::User, C::Arguments])
            .with_estimator(EstimatorKind::LinearRegression)
            .relative(),
        Template::mean_over(&[C::Script, C::Executable, C::Arguments, C::NetworkAdaptor])
            .with_node_range(9)
            .relative(),
        Template::mean_over(&[C::User, C::NetworkAdaptor])
            .with_node_range(2)
            .relative(),
        Template::mean_over(&[C::Type, C::User, C::NetworkAdaptor]).with_max_history(8),
        Template::mean_over(&[C::Executable])
            .with_node_range(3)
            .with_max_history(512)
            .relative(),
        Template::mean_over(&[C::Type, C::Arguments])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_node_range(1),
        Template::mean_over(&[C::User, C::NetworkAdaptor])
            .with_node_range(2)
            .relative(),
        Template::mean_over(&[C::Class, C::NetworkAdaptor]).with_node_range(5),
        Template::mean_over(&[C::Executable]).with_rtime(),
    ])
}

/// GA winner for CTC.
fn ctc_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_node_range(3)
            .relative(),
        Template::mean_over(&[C::Type, C::Class, C::NetworkAdaptor])
            .with_node_range(5)
            .relative(),
        Template::mean_over(&[C::Queue, C::Script, C::Arguments, C::NetworkAdaptor])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_node_range(1)
            .with_max_history(8192)
            .relative()
            .with_rtime(),
        Template::mean_over(&[C::User])
            .with_node_range(3)
            .with_max_history(4096)
            .relative(),
        Template::mean_over(&[C::Queue, C::Script])
            .with_estimator(EstimatorKind::InverseRegression)
            .with_node_range(5)
            .relative(),
        Template::mean_over(&[C::User])
            .with_node_range(5)
            .with_max_history(8)
            .relative(),
        Template::mean_over(&[
            C::Queue,
            C::User,
            C::Script,
            C::Arguments,
            C::NetworkAdaptor,
        ])
        .with_estimator(EstimatorKind::LogRegression)
        .with_node_range(5)
        .with_max_history(32768)
        .relative()
        .with_rtime(),
        Template::mean_over(&[C::Type, C::Executable, C::Arguments])
            .relative()
            .with_rtime(),
        Template::mean_over(&[C::User])
            .with_node_range(7)
            .relative(),
        Template::mean_over(&[C::Type, C::Queue, C::User]).with_node_range(3),
    ])
}

/// GA winner for SDSC95.
fn sdsc95_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::Executable, C::Arguments])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_max_history(128),
        Template::mean_over(&[C::Queue, C::User]).with_rtime(),
        Template::mean_over(&[C::Executable, C::Arguments])
            .with_max_history(256)
            .relative(),
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_rtime(),
        Template::mean_over(&[C::Queue, C::User, C::Script])
            .with_estimator(EstimatorKind::LinearRegression)
            .relative()
            .with_rtime(),
        Template::mean_over(&[C::User, C::Executable]).with_max_history(256),
        Template::mean_over(&[C::Executable, C::Arguments]).with_max_history(256),
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_rtime(),
        Template::mean_over(&[C::Queue, C::User])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_rtime(),
        Template::mean_over(&[C::Queue, C::Executable, C::NetworkAdaptor]).with_node_range(4),
    ])
}

/// GA winner for SDSC96.
fn sdsc96_set() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::Queue, C::User])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_node_range(5),
        Template::mean_over(&[C::Type])
            .with_estimator(EstimatorKind::LinearRegression)
            .relative(),
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_rtime(),
        Template::mean_over(&[C::Queue])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_rtime(),
        Template::mean_over(&[C::Type, C::User, C::Script, C::NetworkAdaptor])
            .with_estimator(EstimatorKind::LinearRegression)
            .with_max_history(512)
            .relative(),
        Template::mean_over(&[C::Queue, C::User])
            .with_max_history(8192)
            .with_rtime(),
    ])
}

/// ANL curated seed: the strongest similarity signal is (user,
/// executable, arguments); relative templates exploit recorded limits.
fn curated_anl() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::User, C::Executable, C::Arguments]).with_node_range(1),
        Template::mean_over(&[C::User, C::Executable, C::Arguments]).relative(),
        Template::mean_over(&[C::User, C::Executable]).with_node_range(3),
        Template::mean_over(&[C::User, C::Executable])
            .relative()
            .with_max_history(512),
        Template::mean_over(&[C::Type, C::User]).with_max_history(128),
        Template::mean_over(&[C::User])
            .relative()
            .with_max_history(128),
        Template::mean_over(&[C::Executable]).with_node_range(3),
        Template::mean_over(&[C::Type])
            .with_node_range(5)
            .with_rtime(),
        Template::mean_over(&[])
            .with_node_range(4)
            .with_max_history(256),
    ])
}

/// CTC curated seed (no executables — the script is the identity proxy).
fn curated_ctc() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::User, C::Script]).with_node_range(1),
        Template::mean_over(&[C::User, C::Script]).relative(),
        Template::mean_over(&[C::User, C::Type, C::Class]).with_node_range(3),
        Template::mean_over(&[C::User])
            .relative()
            .with_max_history(256),
        Template::mean_over(&[C::User])
            .with_node_range(4)
            .with_max_history(256),
        Template::mean_over(&[C::Type, C::NetworkAdaptor]).with_rtime(),
        Template::mean_over(&[C::Type]).with_node_range(5),
        Template::mean_over(&[])
            .with_node_range(4)
            .with_max_history(512),
    ])
}

/// SDSC curated seed (queues and users only; no limits).
fn curated_sdsc() -> TemplateSet {
    TemplateSet::new(vec![
        Template::mean_over(&[C::User, C::Queue]).with_node_range(2),
        Template::mean_over(&[C::User, C::Queue]).with_max_history(512),
        Template::mean_over(&[C::User])
            .with_node_range(3)
            .with_max_history(256),
        Template::mean_over(&[C::Queue]).with_rtime(),
        Template::mean_over(&[C::Queue]).with_node_range(4),
        Template::mean_over(&[])
            .with_node_range(4)
            .with_max_history(512),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpredict_workload::synthetic;

    #[test]
    fn known_sites_have_searched_sets() {
        for name in ["ANL", "CTC", "SDSC95", "SDSC96"] {
            let wl = synthetic::by_name(name, None).unwrap().truncated(10);
            let set = set_for(&wl);
            assert!(set.len() >= 5, "{name} set too small");
            let seed = curated_seed_for(&wl);
            assert!(seed.len() >= 5, "{name} seed too small");
            assert_ne!(set, seed, "{name}: GA set should differ from seed");
        }
    }

    #[test]
    fn sets_have_live_templates() {
        // GA sets may carry dead templates (characteristics the site
        // never records); what matters is that enough templates actually
        // match jobs.
        for name in ["ANL", "CTC", "SDSC95", "SDSC96"] {
            let wl = synthetic::by_name(name, None).unwrap().truncated(500);
            let set = set_for(&wl);
            let live = set
                .templates()
                .iter()
                .filter(|t| wl.jobs.iter().take(200).any(|j| t.applies_to(j)))
                .count();
            assert!(live >= 3, "{name}: only {live} live templates");
        }
    }

    #[test]
    fn searched_sets_predict_without_fallback_after_warmup() {
        use crate::{RunTimePredictor, SmithPredictor};
        use qpredict_workload::Dur;
        for name in ["ANL", "CTC", "SDSC95", "SDSC96"] {
            let wl = synthetic::by_name(name, None).unwrap().truncated(600);
            let mut p = SmithPredictor::new(set_for(&wl));
            for j in wl.jobs.iter().take(400) {
                p.on_complete(j);
            }
            let fallbacks = wl
                .jobs
                .iter()
                .skip(400)
                .filter(|j| p.predict(j, Dur::ZERO).fallback)
                .count();
            assert!(
                fallbacks < 50,
                "{name}: {fallbacks}/200 predictions fell back"
            );
        }
    }

    #[test]
    fn unknown_workload_gets_default() {
        let wl = synthetic::toy(50, 16, 1);
        let set = set_for(&wl);
        assert!(!set.is_empty());
    }
}
