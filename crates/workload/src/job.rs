//! The job model: one batch request to a space-shared parallel machine.
//!
//! Mirrors the paper's Table 2. A job carries up to eight *categorical
//! characteristics* (type, queue, class, user, LoadLeveler script,
//! executable, arguments, network adaptor), a requested node count, a
//! submission time, an actual run time, and an optional user-supplied
//! maximum run time. Which characteristics are populated depends on the
//! originating site — e.g. the ANL trace records executables and arguments
//! but has no queues, while SDSC records queues but no executables.

use qpredict_durable::{Codec, CodecError, Reader, Writer};

use crate::symbols::Sym;
use crate::time::{Dur, Time};

/// Dense identifier of a job within a [`crate::Workload`]; equal to its
/// index in the workload's job vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// The job's index into `Workload::jobs`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The categorical job characteristics of the paper's Table 2, in the
/// paper's order. The numeric characteristics (node count, maximum run
/// time) are separate fields on [`Job`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Characteristic {
    /// Job type: e.g. `batch`/`interactive` (ANL) or
    /// `serial`/`parallel`/`pvm3` (CTC).
    Type = 0,
    /// Submission queue (SDSC records 29–35 queues).
    Queue = 1,
    /// Job class, e.g. `DSI`/`PIOFS` (CTC).
    Class = 2,
    /// Submitting user.
    User = 3,
    /// LoadLeveler script name (CTC).
    Script = 4,
    /// Executable name (ANL).
    Executable = 5,
    /// Executable arguments (ANL).
    Arguments = 6,
    /// Network adaptor requested (CTC).
    NetworkAdaptor = 7,
}

/// All characteristics, in declaration order. Index `i` holds the variant
/// with discriminant `i`.
pub const CHARACTERISTICS: [Characteristic; 8] = [
    Characteristic::Type,
    Characteristic::Queue,
    Characteristic::Class,
    Characteristic::User,
    Characteristic::Script,
    Characteristic::Executable,
    Characteristic::Arguments,
    Characteristic::NetworkAdaptor,
];

impl Characteristic {
    /// The abbreviation used in the paper's Table 2 and in template
    /// notation like `(u, e, n=4)`.
    pub fn abbrev(self) -> &'static str {
        match self {
            Characteristic::Type => "t",
            Characteristic::Queue => "q",
            Characteristic::Class => "c",
            Characteristic::User => "u",
            Characteristic::Script => "s",
            Characteristic::Executable => "e",
            Characteristic::Arguments => "a",
            Characteristic::NetworkAdaptor => "na",
        }
    }

    /// The characteristic with abbreviation `abbrev`.
    pub fn from_abbrev(abbrev: &str) -> Option<Characteristic> {
        CHARACTERISTICS
            .iter()
            .copied()
            .find(|c| c.abbrev() == abbrev)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Characteristic::Type => "Type",
            Characteristic::Queue => "Queue",
            Characteristic::Class => "Class",
            Characteristic::User => "User",
            Characteristic::Script => "Loadleveler script",
            Characteristic::Executable => "Executable",
            Characteristic::Arguments => "Arguments",
            Characteristic::NetworkAdaptor => "Network adaptor",
        }
    }

    /// Dense index (0..8).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Stored as its [`abbrev`](Characteristic::abbrev).
impl Codec for Characteristic {
    fn encode(&self, w: &mut Writer) {
        w.word(self.abbrev());
    }
    fn decode(r: &mut Reader<'_>, _: &()) -> Result<Characteristic, CodecError> {
        let word = r.word()?;
        Characteristic::from_abbrev(word)
            .ok_or_else(|| r.error(format!("unknown characteristic {word:?}")))
    }
}

/// One request to run an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Dense identifier; equals the index in the owning workload.
    pub id: JobId,
    /// Categorical characteristics, indexed by [`Characteristic::index`].
    /// `None` means the originating trace does not record that field.
    pub chars: [Option<Sym>; 8],
    /// Number of nodes requested (and used — the traces record one value).
    pub nodes: u32,
    /// Submission instant.
    pub submit: Time,
    /// Actual run time once started. Always at least one second.
    pub runtime: Dur,
    /// User-supplied maximum run time (wall-clock limit), when the trace
    /// records one. For SDSC-style workloads this is derived per queue; see
    /// [`crate::Workload::derive_queue_max_runtimes`].
    pub max_runtime: Option<Dur>,
}

impl Job {
    /// The value of one categorical characteristic, if recorded.
    #[inline]
    pub fn characteristic(&self, c: Characteristic) -> Option<Sym> {
        self.chars[c.index()]
    }

    /// Node-seconds of work this job performs (`nodes x runtime`).
    #[inline]
    pub fn work(&self) -> f64 {
        self.nodes as f64 * self.runtime.seconds() as f64
    }
}

/// Builder for [`Job`] used by trace parsers and synthetic generators.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    chars: [Option<Sym>; 8],
    nodes: u32,
    submit: Time,
    runtime: Dur,
    max_runtime: Option<Dur>,
}

impl Default for JobBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl JobBuilder {
    /// A builder for a 1-node, 1-second job submitted at the epoch.
    pub fn new() -> Self {
        JobBuilder {
            chars: [None; 8],
            nodes: 1,
            submit: Time::ZERO,
            runtime: Dur::SECOND,
            max_runtime: None,
        }
    }

    /// Set a categorical characteristic.
    pub fn with(mut self, c: Characteristic, v: Sym) -> Self {
        self.chars[c.index()] = Some(v);
        self
    }

    /// Set a categorical characteristic from an optional value.
    pub fn with_opt(mut self, c: Characteristic, v: Option<Sym>) -> Self {
        self.chars[c.index()] = v;
        self
    }

    /// Set the node count (clamped to at least 1).
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n.max(1);
        self
    }

    /// Set the submission instant.
    pub fn submit(mut self, t: Time) -> Self {
        self.submit = t;
        self
    }

    /// Set the actual run time (clamped to at least one second).
    pub fn runtime(mut self, d: Dur) -> Self {
        self.runtime = d.max(Dur::SECOND);
        self
    }

    /// Set the user-supplied maximum run time. Clamped to at least the
    /// run time set so far? No — limits in real traces are sometimes
    /// exceeded slightly; the value is stored as given (but at least 1 s).
    pub fn max_runtime(mut self, d: Dur) -> Self {
        self.max_runtime = Some(d.max(Dur::SECOND));
        self
    }

    /// Finish building; `id` must be the index the job will occupy in its
    /// workload.
    pub fn build(self, id: JobId) -> Job {
        Job {
            id,
            chars: self.chars,
            nodes: self.nodes,
            submit: self.submit,
            runtime: self.runtime,
            max_runtime: self.max_runtime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;

    #[test]
    fn builder_defaults_are_sane() {
        let j = JobBuilder::new().build(JobId(0));
        assert_eq!(j.nodes, 1);
        assert_eq!(j.runtime, Dur::SECOND);
        assert_eq!(j.max_runtime, None);
        assert!(j.chars.iter().all(|c| c.is_none()));
    }

    #[test]
    fn builder_sets_fields() {
        let mut syms = SymbolTable::new();
        let u = syms.intern("wsmith");
        let j = JobBuilder::new()
            .with(Characteristic::User, u)
            .nodes(16)
            .submit(Time(50))
            .runtime(Dur::mins(10))
            .max_runtime(Dur::hours(1))
            .build(JobId(3));
        assert_eq!(j.characteristic(Characteristic::User), Some(u));
        assert_eq!(j.characteristic(Characteristic::Queue), None);
        assert_eq!(j.nodes, 16);
        assert_eq!(j.submit, Time(50));
        assert_eq!(j.runtime, Dur(600));
        assert_eq!(j.max_runtime, Some(Dur(3600)));
        assert_eq!(j.id, JobId(3));
    }

    #[test]
    fn clamps_degenerate_values() {
        let j = JobBuilder::new()
            .nodes(0)
            .runtime(Dur(0))
            .max_runtime(Dur(-5))
            .build(JobId(0));
        assert_eq!(j.nodes, 1);
        assert_eq!(j.runtime, Dur(1));
        assert_eq!(j.max_runtime, Some(Dur(1)));
    }

    #[test]
    fn work_is_nodes_times_runtime() {
        let j = JobBuilder::new().nodes(8).runtime(Dur(100)).build(JobId(0));
        assert_eq!(j.work(), 800.0);
    }

    #[test]
    fn characteristic_metadata() {
        assert_eq!(Characteristic::User.abbrev(), "u");
        assert_eq!(Characteristic::NetworkAdaptor.abbrev(), "na");
        assert_eq!(Characteristic::Queue.index(), 1);
        for (i, c) in CHARACTERISTICS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
