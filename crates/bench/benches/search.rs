//! Search-machinery benchmarks: fitness evaluation throughput, one GA
//! generation, and chromosome encode/decode.

use qpredict_bench::bench;
use qpredict_predict::TemplateSet;
use qpredict_search::{
    decode, encode, evaluate, search_supervised, GaConfig, PredictionWorkload, SupervisorConfig,
    Target,
};
use qpredict_sim::Algorithm;
use qpredict_workload::synthetic::toy;
use qpredict_workload::Characteristic;

fn bench_fitness() {
    let wl = toy(1_000, 64, 306);
    let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 2);
    let set = TemplateSet::default_for(
        &[
            Characteristic::User,
            Characteristic::Executable,
            Characteristic::Arguments,
        ],
        true,
    );
    bench(
        "fitness",
        &format!("evaluate/{}preds", pw.n_predictions),
        || evaluate(&set, &wl, &pw),
    );
}

fn bench_ga_generation() {
    let wl = toy(500, 64, 307);
    let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
    bench("ga", "pop12-gen2", || {
        let cfg = GaConfig {
            population: 12,
            generations: 2,
            seed: 9,
            ..GaConfig::default()
        };
        let sup = SupervisorConfig {
            threads: 1,
            ..SupervisorConfig::default()
        };
        search_supervised(&wl, &pw, &cfg, &sup, None)
    });
}

fn bench_encoding() {
    let set = TemplateSet::default_for(
        &[
            Characteristic::User,
            Characteristic::Queue,
            Characteristic::Executable,
        ],
        true,
    );
    let bits = encode(&set);
    bench("encoding", "encode", || encode(&set));
    bench("encoding", "decode", || decode(&bits));
}

fn main() {
    bench_fitness();
    bench_ga_generation();
    bench_encoding();
}
