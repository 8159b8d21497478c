//! The genetic algorithm over template sets (Section 2.1).
//!
//! Faithful to the paper's description:
//!
//! * individuals are template sets of 1–10 templates, encoded as bit
//!   strings ([`crate::encoding`]);
//! * fitness scaling: `F = F_min + (E_max - E)/(E_max - E_min) x
//!   (F_max - F_min)` with `F_max = 4 F_min`, keeping selection pressure
//!   bounded whatever the error spread;
//! * parents are chosen by *stochastic sampling with replacement*
//!   (roulette wheel);
//! * crossover splices at a random bit position inside a random template
//!   of each parent, subject to the 10-template cap;
//! * every child bit mutates with probability 0.01;
//! * the best two individuals survive to the next generation unmutated
//!   (elitism).
//!
//! The search is the longest-running computation in this reproduction,
//! so it is checkpointed: [`GaRunner`] advances one generation at a
//! time, scoring the population with [`crate::fitness::replay`] on
//! [`qpredict_obs::par_map`], snapshots its complete state into
//! [`Checkpoint`]s, and [`resume`] continues a killed run
//! **bit-identically** — same best template set, same fitness trace —
//! because every random decision flows from the checkpointed [`Rng64`]
//! state and fitness is a deterministic function of the individual. A
//! panicking evaluation is a bug: `par_map` hands it to the caller with
//! its payload, and the search stops.

use std::path::PathBuf;

use qpredict_predict::TemplateSet;
use qpredict_workload::{Rng64, Workload};

use crate::checkpoint::{Checkpoint, CheckpointError, ConfigFingerprint};
use crate::encoding::{decode, encode, Chromosome, BITS_PER_TEMPLATE};
use crate::fitness::replay;
use crate::workloads::PredictionWorkload;

/// Tunables for [`search`].
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Generations to run (the paper's stopping condition is a fixed
    /// generation count).
    pub generations: usize,
    /// Per-bit mutation probability.
    pub mutation_rate: f64,
    /// Minimum scaled fitness; the maximum is `4 x` this, per the paper.
    pub f_min: f64,
    /// Individuals preserved unmutated each generation.
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
    /// Template sets injected into the initial population (warm start),
    /// e.g. [`TemplateSet::default_for`]. The rest is random.
    pub seeds: Vec<TemplateSet>,
}

impl Default for GaConfig {
    fn default() -> GaConfig {
        GaConfig {
            population: 32,
            generations: 25,
            mutation_rate: 0.01,
            f_min: 1.0,
            elitism: 2,
            seed: 0xCA15_7EAD,
            seeds: Vec::new(),
        }
    }
}

impl GaConfig {
    /// A tiny configuration for tests and smoke runs.
    pub fn quick(seed: u64) -> GaConfig {
        GaConfig {
            population: 10,
            generations: 4,
            seed,
            ..GaConfig::default()
        }
    }
}

/// Outcome of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// Best template set found across all generations.
    pub best: TemplateSet,
    /// Its mean absolute run-time prediction error, minutes.
    pub best_error_min: f64,
    /// Best error per generation (for convergence plots/ablation).
    pub error_history: Vec<f64>,
    /// Total fitness evaluations performed.
    pub evaluations: usize,
    /// Times the search was resumed from a checkpoint.
    pub resumes: u64,
    /// Generation the run was last resumed from, if it was.
    pub resumed_from: Option<usize>,
}

/// Where to checkpoint a search, which snapshots after every generation.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding the checkpoint file
    /// ([`Checkpoint::path_in`]).
    pub dir: PathBuf,
}

impl CheckpointPolicy {
    /// Checkpoint into `dir` after every generation.
    pub fn every_generation(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy { dir: dir.into() }
    }

    /// The checkpoint file this policy reads and writes.
    pub fn file(&self) -> PathBuf {
        Checkpoint::path_in(&self.dir)
    }
}

/// A resumable GA search, advanced one generation at a time.
///
/// All state lives here: construct with [`GaRunner::new`], advance with
/// [`GaRunner::step`], snapshot with [`GaRunner::checkpoint`], and
/// rebuild bit-identically with [`GaRunner::from_checkpoint`]. The
/// drivers [`search`] and [`resume`] wrap this loop.
#[derive(Debug, Clone)]
pub struct GaRunner {
    cfg: GaConfig,
    rng: Rng64,
    population: Vec<Chromosome>,
    generation: usize,
    best: Option<(f64, Chromosome)>,
    error_history: Vec<f64>,
    evaluations: usize,
    resumes: u64,
    resumed_from: Option<usize>,
}

impl GaRunner {
    /// A fresh search: seed chromosomes first, the rest random.
    ///
    /// # Panics
    /// Panics if `cfg.population < 4` (the GA needs parents and elites).
    pub fn new(cfg: &GaConfig) -> GaRunner {
        assert!(cfg.population >= 4, "population too small");
        let mut rng = Rng64::seed_from_u64(cfg.seed);
        let mut population: Vec<Chromosome> = cfg.seeds.iter().map(encode).collect();
        population.truncate(cfg.population);
        while population.len() < cfg.population {
            population.push(random_chromosome(&mut rng));
        }
        GaRunner {
            cfg: cfg.clone(),
            rng,
            population,
            generation: 0,
            best: None,
            error_history: Vec::with_capacity(cfg.generations),
            evaluations: 0,
            resumes: 0,
            resumed_from: None,
        }
    }

    /// Rebuild a runner from a checkpoint. The checkpoint's
    /// configuration fingerprint must match `cfg`
    /// ([`ConfigFingerprint::mismatch`]); the resumed run then replays
    /// exactly the stream an uninterrupted run would have produced.
    pub fn from_checkpoint(cfg: &GaConfig, ckpt: Checkpoint) -> Result<GaRunner, CheckpointError> {
        let current = ConfigFingerprint::of(cfg);
        if let Some((field, stored, now)) = ckpt.config.mismatch(&current) {
            return Err(CheckpointError::ConfigMismatch {
                field,
                stored,
                current: now,
            });
        }
        Ok(GaRunner {
            cfg: cfg.clone(),
            rng: ckpt.rng(),
            population: ckpt.population,
            generation: ckpt.generation,
            best: Some((ckpt.best_error, ckpt.best)),
            error_history: ckpt.error_history,
            evaluations: ckpt.evaluations,
            resumes: ckpt.resumes + 1,
            resumed_from: Some(ckpt.generation),
        })
    }

    /// Generations completed so far.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// True once `cfg.generations` generations have run.
    pub fn is_done(&self) -> bool {
        self.generation >= self.cfg.generations
    }

    /// Run one generation: fitness evaluation on `threads` workers,
    /// fitness scaling, elitism, selection, crossover, mutation.
    pub fn step(&mut self, wl: &Workload, pw: &PredictionWorkload, threads: usize) {
        let _span = qpredict_obs::span("ga.generation");
        qpredict_obs::counter_add("ga.generations", 1);
        let sets: Vec<TemplateSet> = self.population.iter().map(|c| decode(c)).collect();
        self.evaluations += sets.len();
        let errors: Vec<f64> = {
            // Workers' spans land under this one when `par_map` joins them.
            let _span = qpredict_obs::span("ga.eval");
            qpredict_obs::par_map(sets, threads, |_, set| {
                replay(&set, wl, pw).mean_abs_error_min()
            })
        };

        // Track the all-time best.
        for (c, &e) in self.population.iter().zip(&errors) {
            if self.best.as_ref().is_none_or(|(be, _)| e < *be) {
                self.best = Some((e, c.clone()));
            }
        }
        self.error_history
            .push(self.best.as_ref().expect("a generation was evaluated").0);

        // Fitness scaling (paper formula).
        let e_min = errors.iter().cloned().fold(f64::INFINITY, f64::min);
        let e_max = errors.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let f_max = 4.0 * self.cfg.f_min;
        let fitness: Vec<f64> = errors
            .iter()
            .map(|&e| {
                if (e_max - e_min).abs() < 1e-12 {
                    self.cfg.f_min
                } else {
                    self.cfg.f_min + (e_max - e) / (e_max - e_min) * (f_max - self.cfg.f_min)
                }
            })
            .collect();

        // Elites: the best `elitism` individuals of this generation.
        let mut ranked: Vec<usize> = (0..self.population.len()).collect();
        ranked.sort_by(|&a, &b| errors[a].partial_cmp(&errors[b]).expect("no NaN errors"));
        let elites: Vec<Chromosome> = ranked
            .iter()
            .take(self.cfg.elitism.min(self.population.len()))
            .map(|&i| self.population[i].clone())
            .collect();

        // Offspring by roulette selection + crossover + mutation.
        let mut next: Vec<Chromosome> = Vec::with_capacity(self.cfg.population);
        while next.len() + elites.len() < self.cfg.population {
            let p1 = &self.population[roulette(&fitness, &mut self.rng)];
            let p2 = &self.population[roulette(&fitness, &mut self.rng)];
            let (mut c1, mut c2) = crossover(p1, p2, &mut self.rng);
            mutate(&mut c1, self.cfg.mutation_rate, &mut self.rng);
            mutate(&mut c2, self.cfg.mutation_rate, &mut self.rng);
            next.push(c1);
            if next.len() + elites.len() < self.cfg.population {
                next.push(c2);
            }
        }
        next.extend(elites);
        self.population = next;
        self.generation += 1;
    }

    /// Snapshot the complete state at the current generation boundary.
    ///
    /// # Panics
    /// Panics before the first [`GaRunner::step`] (there is no best
    /// individual to record yet).
    pub fn checkpoint(&self) -> Checkpoint {
        let (best_error, best) = self
            .best
            .clone()
            .expect("checkpoint requires at least one completed generation");
        Checkpoint {
            config: ConfigFingerprint::of(&self.cfg),
            generation: self.generation,
            evaluations: self.evaluations,
            rng_state: self.rng.state(),
            best_error,
            best,
            error_history: self.error_history.clone(),
            resumes: self.resumes,
            population: self.population.clone(),
        }
    }

    /// Finish: decode the best individual into the result.
    ///
    /// # Panics
    /// Panics before the first [`GaRunner::step`].
    pub fn into_result(self) -> GaResult {
        let (best_error_min, best_bits) = self.best.expect("at least one generation ran");
        GaResult {
            best: decode(&best_bits),
            best_error_min,
            error_history: self.error_history,
            evaluations: self.evaluations,
            resumes: self.resumes,
            resumed_from: self.resumed_from,
        }
    }
}

/// Drive `runner` to `cfg.generations`, checkpointing per `policy`.
fn drive(
    mut runner: GaRunner,
    wl: &Workload,
    pw: &PredictionWorkload,
    threads: usize,
    policy: Option<&CheckpointPolicy>,
) -> Result<GaResult, CheckpointError> {
    let total = runner.cfg.generations;
    while runner.generation() < total {
        runner.step(wl, pw, threads);
        if let Some(p) = policy {
            runner.checkpoint().save_atomic(&p.file())?;
        }
    }
    Ok(runner.into_result())
}

/// Run the genetic search for a good template set over `pw`, scoring
/// each generation on `threads` workers and checkpointing per `policy`.
/// Only a checkpoint write can fail, so with no policy the result is
/// always `Ok`.
pub fn search(
    wl: &Workload,
    pw: &PredictionWorkload,
    cfg: &GaConfig,
    threads: usize,
    policy: Option<&CheckpointPolicy>,
) -> Result<GaResult, CheckpointError> {
    drive(GaRunner::new(cfg), wl, pw, threads, policy)
}

/// Resume a killed search from `policy`'s checkpoint and run it to
/// completion, checkpointing as it goes. The combined
/// interrupted-plus-resumed run produces a best template set and
/// fitness trace *byte*-identical to an uninterrupted [`search`] with
/// the same configuration.
pub fn resume(
    wl: &Workload,
    pw: &PredictionWorkload,
    cfg: &GaConfig,
    threads: usize,
    policy: &CheckpointPolicy,
) -> Result<GaResult, CheckpointError> {
    let ckpt = Checkpoint::load(&policy.file())?;
    let runner = GaRunner::from_checkpoint(cfg, ckpt)?;
    drive(runner, wl, pw, threads, Some(policy))
}

/// A random chromosome of 1–4 templates with characteristic bits set
/// sparsely (dense masks rarely match anything and make the initial
/// population uniformly useless).
fn random_chromosome(rng: &mut Rng64) -> Chromosome {
    let k = 1 + rng.gen_index(4);
    let mut bits = Vec::with_capacity(k * BITS_PER_TEMPLATE);
    for _ in 0..k {
        for pos in 0..BITS_PER_TEMPLATE {
            let p = match pos {
                0 | 1 => 0.15, // estimator bits: mostly mean
                2 => 0.3,      // relative
                3 => 0.2,      // rtime
                4..=11 => 0.3, // characteristic enables
                12 => 0.5,     // node enable
                17 => 0.3,     // history enable
                _ => 0.5,      // exponent bits
            };
            bits.push(rng.gen_f64() < p);
        }
    }
    bits
}

/// Roulette-wheel selection: pick index `i` with probability
/// `F_i / sum(F)`.
fn roulette(fitness: &[f64], rng: &mut Rng64) -> usize {
    let total: f64 = fitness.iter().sum();
    let mut x = rng.gen_f64() * total;
    for (i, &f) in fitness.iter().enumerate() {
        x -= f;
        if x <= 0.0 {
            return i;
        }
    }
    fitness.len() - 1
}

/// The paper's variable-length crossover: pick template `i` and bit
/// position `p` in the first parent and template `j` in the second, so
/// that the spliced children stay within 10 templates.
fn crossover(p1: &Chromosome, p2: &Chromosome, rng: &mut Rng64) -> (Chromosome, Chromosome) {
    let n = p1.len() / BITS_PER_TEMPLATE;
    let m = p2.len() / BITS_PER_TEMPLATE;
    // child1 = t1[..i] + splice + t2[j+1..], len = i + (m - j)
    // child2 = t2[..j] + splice + t1[i+1..], len = j + (n - i)
    for _ in 0..64 {
        let i = rng.gen_index(n);
        let j = rng.gen_index(m);
        if i + (m - j) > 10 || j + (n - i) > 10 {
            continue;
        }
        let p = rng.gen_index(BITS_PER_TEMPLATE);
        let t1 = &p1[i * BITS_PER_TEMPLATE..(i + 1) * BITS_PER_TEMPLATE];
        let t2 = &p2[j * BITS_PER_TEMPLATE..(j + 1) * BITS_PER_TEMPLATE];
        let mut s1: Vec<bool> = t1[..p].to_vec();
        s1.extend_from_slice(&t2[p..]);
        let mut s2: Vec<bool> = t2[..p].to_vec();
        s2.extend_from_slice(&t1[p..]);
        let mut c1: Chromosome = p1[..i * BITS_PER_TEMPLATE].to_vec();
        c1.extend_from_slice(&s1);
        c1.extend_from_slice(&p2[(j + 1) * BITS_PER_TEMPLATE..]);
        let mut c2: Chromosome = p2[..j * BITS_PER_TEMPLATE].to_vec();
        c2.extend_from_slice(&s2);
        c2.extend_from_slice(&p1[(i + 1) * BITS_PER_TEMPLATE..]);
        debug_assert!(c1.len().is_multiple_of(BITS_PER_TEMPLATE) && !c1.is_empty());
        debug_assert!(c2.len().is_multiple_of(BITS_PER_TEMPLATE) && !c2.is_empty());
        return (c1, c2);
    }
    // Pathological sizes: fall back to cloning the parents.
    (p1.clone(), p2.clone())
}

fn mutate(c: &mut Chromosome, rate: f64, rng: &mut Rng64) {
    for b in c.iter_mut() {
        if rng.gen_f64() < rate {
            *b = !*b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Target;
    use qpredict_sim::Algorithm;
    use qpredict_workload::synthetic::toy;

    #[test]
    fn crossover_respects_template_cap() {
        let mut rng = Rng64::seed_from_u64(1);
        for _ in 0..200 {
            let n = 1 + rng.gen_index(10);
            let m = 1 + rng.gen_index(10);
            let p1: Chromosome = (0..n * BITS_PER_TEMPLATE)
                .map(|_| rng.gen_bool(0.5))
                .collect();
            let p2: Chromosome = (0..m * BITS_PER_TEMPLATE)
                .map(|_| rng.gen_bool(0.5))
                .collect();
            let (c1, c2) = crossover(&p1, &p2, &mut rng);
            assert!(c1.len() / BITS_PER_TEMPLATE >= 1);
            assert!(c1.len() / BITS_PER_TEMPLATE <= 10);
            assert!(c2.len() / BITS_PER_TEMPLATE >= 1);
            assert!(c2.len() / BITS_PER_TEMPLATE <= 10);
        }
    }

    #[test]
    fn roulette_prefers_fitter() {
        let mut rng = Rng64::seed_from_u64(2);
        let fitness = [1.0, 4.0];
        let mut counts = [0usize; 2];
        for _ in 0..5000 {
            counts[roulette(&fitness, &mut rng)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 4.0).abs() < 0.8, "ratio {ratio}");
    }

    #[test]
    fn mutation_rate_zero_is_identity() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut c: Chromosome = (0..44).map(|_| rng.gen_bool(0.5)).collect();
        let before = c.clone();
        mutate(&mut c, 0.0, &mut rng);
        assert_eq!(c, before);
    }

    #[test]
    fn ga_improves_over_random_start() {
        let wl = toy(250, 32, 12);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        let cfg = GaConfig {
            population: 12,
            generations: 6,
            seed: 99,
            ..GaConfig::default()
        };
        let result = search(&wl, &pw, &cfg, 2, None).expect("no checkpoint");
        assert_eq!(result.error_history.len(), 6);
        // The running best is monotone non-increasing.
        for w in result.error_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(result.evaluations >= 72);
        assert!(result.best_error_min.is_finite());
        assert!(!result.best.is_empty() && result.best.len() <= 10);
    }

    #[test]
    fn ga_is_deterministic_given_seed() {
        let wl = toy(150, 32, 13);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        let cfg = GaConfig::quick(7);
        let a = search(&wl, &pw, &cfg, 2, None).expect("no checkpoint");
        let b = search(&wl, &pw, &cfg, 2, None).expect("no checkpoint");
        assert_eq!(a.best, b.best);
        assert_eq!(a.error_history, b.error_history);
    }

    #[test]
    fn seeded_population_contains_seeds() {
        let seed_set = qpredict_predict::TemplateSet::default_for(
            &[qpredict_workload::Characteristic::User],
            false,
        );
        let cfg = GaConfig {
            population: 8,
            seeds: vec![seed_set.clone()],
            ..GaConfig::quick(1)
        };
        let pop = GaRunner::new(&cfg).population;
        assert_eq!(pop.len(), 8);
        assert_eq!(decode(&pop[0]), seed_set);
    }

    #[test]
    fn runner_steps_match_search() {
        let wl = toy(150, 32, 14);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        let cfg = GaConfig::quick(11);
        let mut runner = GaRunner::new(&cfg);
        while !runner.is_done() {
            runner.step(&wl, &pw, 2);
        }
        let stepped = runner.into_result();
        let direct = search(&wl, &pw, &cfg, 2, None).expect("no checkpoint");
        assert_eq!(stepped, direct);
        assert_eq!(stepped.resumes, 0);
        assert!(stepped.resumed_from.is_none());
    }

    #[test]
    fn checkpoint_round_trip_resumes_runner_state() {
        let wl = toy(120, 32, 15);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        let cfg = GaConfig::quick(23);
        let mut a = GaRunner::new(&cfg);
        a.step(&wl, &pw, 1);
        a.step(&wl, &pw, 1);
        let ckpt = a.checkpoint();
        let decoded = Checkpoint::decode(&ckpt.encode()).expect("codec identity");
        let mut b = GaRunner::from_checkpoint(&cfg, decoded).expect("fingerprint matches");
        assert_eq!(b.checkpoint().resumes, 1);
        while !a.is_done() {
            a.step(&wl, &pw, 1);
        }
        while !b.is_done() {
            b.step(&wl, &pw, 1);
        }
        let ra = a.into_result();
        let rb = b.into_result();
        assert_eq!(ra.best, rb.best);
        assert_eq!(ra.error_history, rb.error_history);
        assert_eq!(ra.evaluations, rb.evaluations);
    }

    #[test]
    fn mismatched_config_refuses_resume() {
        let wl = toy(100, 32, 16);
        let pw = PredictionWorkload::build(&wl, Target::WaitPrediction(Algorithm::Fcfs), 4);
        let cfg = GaConfig::quick(31);
        let mut runner = GaRunner::new(&cfg);
        runner.step(&wl, &pw, 2);
        let ckpt = runner.checkpoint();
        let other = GaConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        let err = GaRunner::from_checkpoint(&other, ckpt).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ConfigMismatch { field: "seed", .. }),
            "{err}"
        );
    }
}
