//! Run the genetic template search on a workload and inspect what it
//! learns — the paper's core claim is that *searched* templates beat
//! fixed ones.
//!
//! ```sh
//! cargo run --release --example template_search [jobs]
//! ```

use qpredict::predict::{Template, TemplateSet};
use qpredict::search::{
    greedy_search, replay, search, GaConfig, GreedyConfig, PredictionWorkload, Target,
};
use qpredict::sim::Algorithm;
use qpredict::workload::synthetic;
use qpredict::workload::Characteristic;

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000);
    let wl = synthetic::toy(jobs, 64, 17);

    // The stream of predictions an LWF scheduler would demand.
    let pw = PredictionWorkload::build_capped(&wl, Target::Scheduling(Algorithm::Lwf), 20_000);
    println!(
        "prediction workload: {} predictions, {} events\n",
        pw.n_predictions,
        pw.events.len()
    );

    // Baseline: the single most obvious template (mean over the user).
    let naive = TemplateSet::new(vec![Template::mean_over(&[Characteristic::User])]);
    let e = replay(&naive, &wl, &pw);
    println!(
        "naive (u)-mean:        MAE {:.2} min",
        e.mean_abs_error_min()
    );

    // Greedy search over a candidate pool.
    let (greedy_set, _, _) = greedy_search(&wl, &pw, &GreedyConfig::default());
    let e = replay(&greedy_set, &wl, &pw);
    println!(
        "greedy search:         MAE {:.2} min   {greedy_set}",
        e.mean_abs_error_min()
    );

    // The genetic algorithm (the paper's approach).
    let cfg = GaConfig {
        population: 20,
        generations: 10,
        ..GaConfig::default()
    };
    let threads = qpredict::obs::default_threads();
    let result = search(&wl, &pw, &cfg, threads, None).expect("no checkpoint to write");
    println!(
        "genetic algorithm:     MAE {:.2} min   ({} evaluations)",
        result.best_error_min, result.evaluations
    );
    println!("\nbest template set found:");
    for t in result.best.templates() {
        println!("  {t}");
    }
    println!("\nconvergence (best error per generation, minutes):");
    for (g, e) in result.error_history.iter().enumerate() {
        println!("  gen {g:>2}: {e:.2}");
    }
}
