//! Versioned, deterministic checkpoint format for the GA search.
//!
//! A [`Checkpoint`] snapshots everything the search needs to continue
//! bit-identically: the population, the RNG state, the generation
//! counter, the best-so-far individual, the fitness trace, and how often
//! the run was resumed. The codec is a line-oriented, std-only text
//! format:
//!
//! ```text
//! qpredict-ga-checkpoint v5
//! config <population> <elitism> <mutation rate> <f_min> <seed> <seeds hash>
//! rng <s0> <s1> <s2> <s3>
//! gen <n>
//! evals <n>
//! best <error> <chromosome as a 0/1 string>
//! hist <count> <error>...
//! resumes <n>
//! pop <count>
//! pop <chromosome as a 0/1 string>      (one record per individual)
//! sum <checksum of everything above, 16 hex digits>
//! ```
//!
//! The body is written and read by the workspace's one state codec,
//! [`qpredict_durable::codec`]: records of positional tokens, integers in
//! decimal and every `f64` as the hex of its IEEE-754 bits, so
//! decode∘encode is the identity and a resumed run's fitness trace is
//! *byte*-identical to an uninterrupted one. Loading verifies the
//! trailing checksum before believing any field, so a truncated or
//! bit-flipped file is rejected with a typed [`CheckpointError`], never
//! a panic or a silent garbage resume. [`Checkpoint::save_atomic`]
//! writes to a temporary file and renames it into place, so a kill
//! mid-write leaves the previous checkpoint intact.
//!
//! The checksum framing and atomic replace also live in
//! [`qpredict_durable`]; this module keeps the GA-specific record schema,
//! its cross-field checks and the error taxonomy. v4 replaced v3's
//! per-cause `health` line with the resume count; v5 seals the file and
//! hashes the warm-start seeds with [`qpredict_durable::checksum`] where
//! v4 used FNV-1a. v4 and older files are refused as
//! [`CheckpointError::BadMagic`], whether or not their seal verifies.

use std::fmt;
use std::path::{Path, PathBuf};

use qpredict_durable::codec;
use qpredict_durable::{check_frame, checksum, seal, FrameError};
use qpredict_durable::{codec_struct, Codec, CodecError, Reader, Writer};
use qpredict_workload::Rng64;

use crate::encoding::{Chromosome, BITS_PER_TEMPLATE};
use crate::ga::GaConfig;

/// First line of every checkpoint file; bump the version on breaking
/// changes (v2 added the estimate-cache counters to the health line, v3
/// moved the body onto the shared state codec, v4 replaced the health
/// line with the resume count, v5 replaced FNV-1a with the durable
/// layer's word-at-a-time checksum).
pub const CHECKPOINT_MAGIC: &str = "qpredict-ga-checkpoint v5";

/// Default checkpoint file name inside a `--checkpoint-dir`.
pub const CHECKPOINT_FILE: &str = "ga.ckpt";

/// The GA-configuration facets that must match for a resume to be
/// bit-identical to the original run. `generations` is deliberately
/// excluded so a finished run may be extended. The worker count is a
/// driver argument, outside the fingerprint, because fitness is
/// thread-count-invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigFingerprint {
    /// Individuals per generation.
    pub population: usize,
    /// Individuals preserved unmutated each generation.
    pub elitism: usize,
    /// Per-bit mutation probability (compared by bit pattern).
    pub mutation_rate: f64,
    /// Minimum scaled fitness (compared by bit pattern).
    pub f_min: f64,
    /// RNG seed.
    pub seed: u64,
    /// [`qpredict_durable::checksum`] of the encoded warm-start seed
    /// sets: each set's bits as `0`/`1` characters, then `;`.
    pub seeds_hash: u64,
}

impl ConfigFingerprint {
    /// The fingerprint of a [`GaConfig`].
    pub fn of(cfg: &GaConfig) -> ConfigFingerprint {
        let mut seeds = Vec::new();
        for set in &cfg.seeds {
            seeds.extend(
                crate::encoding::encode(set)
                    .into_iter()
                    .map(|bit| bit as u8 + b'0'),
            );
            seeds.push(b';');
        }
        ConfigFingerprint {
            population: cfg.population,
            elitism: cfg.elitism,
            mutation_rate: cfg.mutation_rate,
            f_min: cfg.f_min,
            seed: cfg.seed,
            seeds_hash: checksum(&seeds),
        }
    }

    /// The first facet that differs from `other`, as
    /// `(name, stored, current)` — the payload of
    /// [`CheckpointError::ConfigMismatch`].
    pub fn mismatch(&self, other: &ConfigFingerprint) -> Option<(&'static str, String, String)> {
        if self.population != other.population {
            return Some((
                "population",
                self.population.to_string(),
                other.population.to_string(),
            ));
        }
        if self.elitism != other.elitism {
            return Some((
                "elitism",
                self.elitism.to_string(),
                other.elitism.to_string(),
            ));
        }
        if self.mutation_rate.to_bits() != other.mutation_rate.to_bits() {
            return Some((
                "mutation_rate",
                self.mutation_rate.to_string(),
                other.mutation_rate.to_string(),
            ));
        }
        if self.f_min.to_bits() != other.f_min.to_bits() {
            return Some(("f_min", self.f_min.to_string(), other.f_min.to_string()));
        }
        if self.seed != other.seed {
            return Some(("seed", self.seed.to_string(), other.seed.to_string()));
        }
        if self.seeds_hash != other.seeds_hash {
            return Some((
                "seeds",
                format!("{:016X}", self.seeds_hash),
                format!("{:016X}", other.seeds_hash),
            ));
        }
        None
    }
}

/// A complete snapshot of a GA search between generations.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the configuration that produced this state.
    pub config: ConfigFingerprint,
    /// Generations completed (the next [`crate::ga::GaRunner::step`]
    /// runs this generation index).
    pub generation: usize,
    /// Fitness evaluations charged so far.
    pub evaluations: usize,
    /// GA RNG state ([`Rng64::state`]) at the generation boundary.
    pub rng_state: [u64; 4],
    /// Best error so far, minutes.
    pub best_error: f64,
    /// Best chromosome so far.
    pub best: Chromosome,
    /// Best error per completed generation.
    pub error_history: Vec<f64>,
    /// Times the search was resumed from a checkpoint before this one
    /// was written.
    pub resumes: u64,
    /// The population the next generation starts from.
    pub population: Vec<Chromosome>,
}

/// Why a checkpoint could not be saved or loaded. Every variant is a
/// typed, printable error — corruption is *detected*, never propagated.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (with the operation and path in the message).
    Io {
        /// What was being attempted, e.g. `"read /dir/ga.ckpt"`.
        op: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file does not start with [`CHECKPOINT_MAGIC`] — not a
    /// checkpoint, or a format version this build does not speak.
    BadMagic {
        /// The first line actually found (truncated).
        found: String,
    },
    /// The trailing checksum does not match the body: the file was
    /// truncated or corrupted.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum of the body as read.
        computed: u64,
    },
    /// A line failed to parse, or the fields contradict each other,
    /// after the checksum verified.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The checkpoint was produced under a different GA configuration;
    /// resuming would not be bit-identical.
    ConfigMismatch {
        /// Which facet differs.
        field: &'static str,
        /// Value stored in the checkpoint.
        stored: String,
        /// Value in the current configuration.
        current: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { op, source } => write!(f, "checkpoint I/O: {op}: {source}"),
            CheckpointError::BadMagic { found } => write!(
                f,
                "not a checkpoint (expected {CHECKPOINT_MAGIC:?}, found {found:?})"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint corrupt: checksum {computed:016X} != recorded {stored:016X} \
                 (truncated or bit-flipped file)"
            ),
            CheckpointError::Malformed { line, reason } => {
                write!(f, "checkpoint malformed at line {line}: {reason}")
            }
            CheckpointError::ConfigMismatch {
                field,
                stored,
                current,
            } => write!(
                f,
                "checkpoint was produced under a different configuration: \
                 {field} was {stored}, now {current}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl Checkpoint {
    /// Serialize to the sealed text format described in the module docs.
    pub fn encode(&self) -> String {
        seal(codec::encode(self))
    }

    /// Parse and validate the text format. The checksum is verified
    /// before any field is interpreted.
    pub fn decode(text: &str) -> Result<Checkpoint, CheckpointError> {
        let bad_magic = |found: &str| CheckpointError::BadMagic {
            found: found.chars().take(60).collect(),
        };
        let magic = text.lines().next().unwrap_or("");
        let (body, _) = check_frame(text).map_err(|e| match e {
            // No checksum line at all: distinguish "not a checkpoint"
            // from "truncated checkpoint".
            FrameError::MissingChecksum { lines } => {
                if !text.starts_with(CHECKPOINT_MAGIC) {
                    bad_magic(text.lines().next().unwrap_or(""))
                } else {
                    CheckpointError::Malformed {
                        line: lines,
                        reason: "missing trailing checksum line (truncated file?)".into(),
                    }
                }
            }
            FrameError::UnreadableChecksum { lines } => CheckpointError::Malformed {
                line: lines,
                reason: "unreadable checksum line".into(),
            },
            // Another format version's file, sealed by that version's
            // checksum: name the version rather than call it corrupt.
            FrameError::Mismatch { .. }
                if magic != CHECKPOINT_MAGIC && magic.starts_with("qpredict-ga-checkpoint ") =>
            {
                bad_magic(magic)
            }
            FrameError::Mismatch { stored, computed } => {
                CheckpointError::ChecksumMismatch { stored, computed }
            }
        })?;
        if magic != CHECKPOINT_MAGIC {
            return Err(bad_magic(magic));
        }
        let ck: Checkpoint = codec::decode(body, &()).map_err(|e| CheckpointError::Malformed {
            line: e.line,
            reason: e.reason,
        })?;

        // Cross-field validation: a verified checksum proves the bytes,
        // not the semantics.
        let malformed = |reason: String| CheckpointError::Malformed { line: 1, reason };
        if ck.generation == 0 {
            return Err(malformed(
                "checkpoint at generation 0 is meaningless".into(),
            ));
        }
        if ck.error_history.len() != ck.generation {
            return Err(malformed(format!(
                "history has {} entries for {} generations",
                ck.error_history.len(),
                ck.generation
            )));
        }
        if ck.population.len() != ck.config.population {
            return Err(malformed(format!(
                "population has {} individuals, config says {}",
                ck.population.len(),
                ck.config.population
            )));
        }
        Ok(ck)
    }

    /// The checkpoint file inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(CHECKPOINT_FILE)
    }

    /// Write atomically: stream [`Checkpoint::encode`]'s bytes into a
    /// sibling temp file, sync, then rename over `path`. A kill at any
    /// instant leaves either the old or the new checkpoint intact, never
    /// a torn one.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let _span = qpredict_obs::span("ga.checkpoint");
        qpredict_obs::counter_add("ga.checkpoints", 1);
        qpredict_durable::write_sealed(path, "ckpt.tmp", true, |w| {
            w.put(self);
        })
        .map(|_| ())
        .map_err(|e| CheckpointError::Io {
            op: e.op,
            source: e.source,
        })
    }

    /// Read and decode `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = qpredict_durable::read_to_string(path).map_err(|e| CheckpointError::Io {
            op: e.op,
            source: e.source,
        })?;
        Checkpoint::decode(&text)
    }

    /// The [`Rng64`] this checkpoint resumes with.
    pub fn rng(&self) -> Rng64 {
        Rng64::from_state(self.rng_state)
    }
}

codec_struct!(ConfigFingerprint {
    population,
    elitism,
    mutation_rate,
    f_min,
    seed,
    seeds_hash
});

/// A chromosome is one token, its bits as `0`/`1` characters.
fn write_chromosome(w: &mut Writer, bits: &[bool]) {
    let word: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
    w.word(&word);
}

fn read_chromosome(r: &mut Reader<'_>) -> Result<Chromosome, CodecError> {
    let bits: Chromosome = r
        .word()?
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(r.error(format!("invalid chromosome character {other:?}"))),
        })
        .collect::<Result<_, _>>()?;
    if !bits.len().is_multiple_of(BITS_PER_TEMPLATE) {
        return Err(r.error(format!(
            "chromosome length {} is not a positive multiple of {BITS_PER_TEMPLATE}",
            bits.len()
        )));
    }
    if bits.len() / BITS_PER_TEMPLATE > 10 {
        return Err(r.error(format!(
            "chromosome has {} templates, the cap is 10",
            bits.len() / BITS_PER_TEMPLATE
        )));
    }
    Ok(bits)
}

/// The checkpoint body, unsealed. The population count is stored, not
/// inferred from the configuration, so [`Checkpoint::decode`] can report
/// a disagreement between the two.
impl Codec for Checkpoint {
    fn encode(&self, w: &mut Writer) {
        w.record(CHECKPOINT_MAGIC);
        w.record("config").put(&self.config);
        w.record("rng").put(&self.rng_state);
        w.record("gen").put(&self.generation);
        w.record("evals").put(&self.evaluations);
        w.record("best").put(&self.best_error);
        write_chromosome(w, &self.best);
        w.record("hist").put(&self.error_history);
        w.record("resumes").put(&self.resumes);
        w.record("pop").put(&self.population.len());
        for c in &self.population {
            write_chromosome(w.record("pop"), c);
        }
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Checkpoint, CodecError> {
        r.record(CHECKPOINT_MAGIC)?;
        let config = r.record("config")?.get()?;
        let rng_state = r.record("rng")?.get()?;
        let generation = r.record("gen")?.get()?;
        let evaluations = r.record("evals")?.get()?;
        let best_error = r.record("best")?.get()?;
        let best = read_chromosome(r)?;
        let error_history = r.record("hist")?.get()?;
        let resumes = r.record("resumes")?.get()?;
        let n: usize = r.record("pop")?.get()?;
        let population = (0..n)
            .map(|_| read_chromosome(r.record("pop")?))
            .collect::<Result<_, _>>()?;
        Ok(Checkpoint {
            config,
            generation,
            evaluations,
            rng_state,
            best_error,
            best,
            error_history,
            resumes,
            population,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(gen: usize, pop: usize) -> Checkpoint {
        let mut rng = Rng64::seed_from_u64(gen as u64 * 31 + pop as u64);
        let chromo = |rng: &mut Rng64| -> Chromosome {
            let k = 1 + rng.gen_index(10);
            (0..k * BITS_PER_TEMPLATE)
                .map(|_| rng.gen_bool(0.5))
                .collect()
        };
        let population: Vec<Chromosome> = (0..pop).map(|_| chromo(&mut rng)).collect();
        Checkpoint {
            config: ConfigFingerprint {
                population: pop,
                elitism: 2,
                mutation_rate: 0.01,
                f_min: 1.0,
                seed: 0xCA15_7EAD,
                seeds_hash: 0xABCD,
            },
            generation: gen,
            evaluations: gen * pop,
            rng_state: rng.state(),
            best_error: 12.5 + gen as f64,
            best: population[0].clone(),
            error_history: (0..gen).map(|g| 20.0 - g as f64 * 0.25).collect(),
            resumes: gen as u64 % 3,
            population,
        }
    }

    #[test]
    fn encode_decode_is_identity() {
        let ck = sample(7, 12);
        let back = Checkpoint::decode(&ck.encode()).expect("round trip");
        assert_eq!(ck, back);
    }

    #[test]
    fn save_load_round_trips_atomically() {
        let dir = std::env::temp_dir().join("qpredict_ckpt_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = Checkpoint::path_in(&dir);
        let ck = sample(3, 6);
        ck.save_atomic(&path).expect("save");
        // No stray temp file left behind.
        assert!(!path.with_extension("ckpt.tmp").exists());
        assert_eq!(Checkpoint::load(&path).expect("load"), ck);
        // Overwriting is atomic too.
        let ck2 = sample(4, 6);
        ck2.save_atomic(&path).expect("save over");
        assert_eq!(Checkpoint::load(&path).expect("reload"), ck2);
        // The streamed file is `encode`'s text byte for byte, also past
        // the writer's 64 KiB drains.
        for ck in [ck2, sample(2, 3000)] {
            ck.save_atomic(&path).expect("save");
            let text = std::fs::read_to_string(&path).expect("read");
            assert!(text == ck.encode(), "{} bytes", text.len());
        }
        assert!(std::fs::metadata(&path).unwrap().len() > 128 * 1024);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample(5, 8).encode();
        for cut in [1, text.len() / 3, text.len() / 2, text.len() - 2] {
            let err = Checkpoint::decode(&text[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::ChecksumMismatch { .. }
                        | CheckpointError::Malformed { .. }
                        | CheckpointError::BadMagic { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let text = sample(5, 8).encode();
        let mut rng = Rng64::seed_from_u64(99);
        for _ in 0..40 {
            let mut bytes = text.as_bytes().to_vec();
            let i = rng.gen_index(bytes.len());
            bytes[i] ^= 1 << rng.gen_index(7);
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue; // non-UTF8 would be an I/O-layer rejection
            };
            if mutated == text {
                continue;
            }
            assert!(
                Checkpoint::decode(&mutated).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_is_typed() {
        let err = Checkpoint::decode("not a checkpoint\n").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err}");
        let err = Checkpoint::decode("").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err}");
        // The body of a checkpoint a v3 build wrote (`qpredict search toy
        // --jobs 60 --nodes 32 --generations 1 --population 4 --seed 3`),
        // sealed with the current checksum: its seal verifies, and its
        // magic line refuses it.
        let v3 = "qpredict-ga-checkpoint v3
config 4 2 3F847AE147AE147B 3FF0000000000000 3 6926972435584903807
rng 126364088271606891 13939889295554753703 8982626495152763545 852753059676640241
gen 1
evals 4
best 4047AACBC4021195 0000110010101111000111
hist 1 4047AACBC4021195
health 4 0 0 0 0 0 0 0 0 396
pop 4
pop 0000110110101111010110
pop 0000110000011110001101
pop 0000110010101111000111
pop 0000110000011110001100
sum 71EAF42961CB6212
";
        assert!(check_frame(v3).is_ok(), "the v3 literal is intact");
        let err = Checkpoint::decode(v3).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::BadMagic { found } if found == "qpredict-ga-checkpoint v3"),
            "{err}"
        );
    }

    #[test]
    fn fnv_sealed_v4_checkpoint_is_refused_by_its_version() {
        // What a v4 build wrote for the same command: sealed with FNV-1a,
        // so the seal does not verify under the current checksum, and
        // the refusal names the version instead of calling it corrupt.
        let v4 = "qpredict-ga-checkpoint v4
config 4 2 3F847AE147AE147B 3FF0000000000000 3 6926972435584903807
rng 126364088271606891 13939889295554753703 8982626495152763545 852753059676640241
gen 1
evals 4
best 4047AACBC4021195 0000110010101111000111
hist 1 4047AACBC4021195
resumes 0
pop 4
pop 0000110110101111010110
pop 0000110000011110001101
pop 0000110010101111000111
pop 0000110000011110001100
sum A5CAB7B58DBAEB20
";
        assert!(matches!(
            check_frame(v4),
            Err(FrameError::Mismatch {
                stored: 0xA5CA_B7B5_8DBA_EB20,
                ..
            })
        ));
        let err = Checkpoint::decode(v4).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::BadMagic { found } if found == "qpredict-ga-checkpoint v4"),
            "{err}"
        );
        // The same body under the current magic and seal is a checkpoint
        // again (its seeds hash is v4's, which no configuration checks
        // here): only the version and the seal changed.
        let body = &v4[..v4.find("sum ").unwrap()];
        let v5 = seal(body.replacen(" v4\n", " v5\n", 1));
        Checkpoint::decode(&v5).expect("a v5 body decodes");
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/qpredict/ga.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
        assert!(err.to_string().contains("ga.ckpt"));
    }

    #[test]
    fn semantic_inconsistencies_are_rejected() {
        // A checkpoint whose history length disagrees with its
        // generation counter re-encodes with a valid checksum but must
        // still be rejected.
        let mut ck = sample(4, 6);
        ck.error_history.pop();
        let err = Checkpoint::decode(&ck.encode()).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err}");

        let mut ck = sample(4, 6);
        ck.population.pop();
        let err = Checkpoint::decode(&ck.encode()).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err}");
    }

    #[test]
    fn fingerprint_mismatch_reports_first_differing_field() {
        let cfg = GaConfig::quick(5);
        let a = ConfigFingerprint::of(&cfg);
        let b = ConfigFingerprint::of(&GaConfig {
            population: cfg.population + 2,
            ..cfg.clone()
        });
        let (field, stored, current) = a.mismatch(&b).expect("differs");
        assert_eq!(field, "population");
        assert_ne!(stored, current);
        assert!(a.mismatch(&a.clone()).is_none());
    }

    #[test]
    fn nan_and_infinity_round_trip_bitwise() {
        let mut ck = sample(2, 4);
        ck.error_history = vec![f64::INFINITY, f64::NAN];
        ck.best_error = f64::NAN;
        let back = Checkpoint::decode(&ck.encode()).expect("round trip");
        assert_eq!(
            ck.error_history
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            back.error_history
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(ck.best_error.to_bits(), back.best_error.to_bits());
    }
}
