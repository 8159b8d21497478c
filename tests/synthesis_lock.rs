//! Regression lock for the synthetic site models: every generated
//! workload must stay **bit-identical** for fixed specs and seeds.
//!
//! Each fingerprint is FNV-1a over the little-endian bytes of explicit
//! job fields — `submit`, `runtime`, `nodes`, `max_runtime` and the
//! symbol name of every recorded characteristic — plus the workload's
//! name, machine size and job count. `Debug` output is not hashed, so a
//! formatting change cannot move a fingerprint and a field change cannot
//! hide behind one.
//!
//! The constants were captured before arrivals were drawn by certified
//! Newton steps (DESIGN.md, "Synthesis: arrivals by certified Newton"),
//! from the 50-step bisection that is still the fallback. They are never
//! re-captured: a failure here means generation changed. The ignored
//! `print_synthesis_lock` test prints the table in the same layout:
//!
//! ```text
//! cargo test --release --test synthesis_lock print_synthesis_lock -- --ignored --nocapture
//! ```

use qpredict_workload::synthetic::{by_name, toy, ALL_SITES};
use qpredict_workload::{Workload, CHARACTERISTICS};

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn int(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.int(s.len() as i64);
        self.bytes(s.as_bytes());
    }
}

fn fingerprint(w: &Workload) -> u64 {
    let mut h = Fnv1a::new();
    h.text(&w.name);
    h.int(i64::from(w.machine_nodes));
    h.int(w.jobs.len() as i64);
    for j in &w.jobs {
        h.int(j.submit.seconds());
        h.int(j.runtime.seconds());
        h.int(i64::from(j.nodes));
        match j.max_runtime {
            Some(d) => {
                h.bytes(&[1]);
                h.int(d.seconds());
            }
            None => h.bytes(&[0]),
        }
        for c in CHARACTERISTICS {
            match j.characteristic(c) {
                Some(sym) => {
                    h.bytes(&[1]);
                    h.text(w.symbols.resolve(sym));
                }
                None => h.bytes(&[0]),
            }
        }
    }
    h.0
}

/// `(site, jobs, fingerprint)`; `jobs == 0` is the site's default size.
const SITE_LOCK: [(&str, usize, u64); 12] = [
    ("ANL", 0, 0x37250c006666d2fc),
    ("ANL", 800, 0xb7d3bf11fd595ff7),
    ("ANL", 16000, 0x751fb372ce0c3e26),
    ("CTC", 0, 0x5a1ef389003f6a3c),
    ("CTC", 800, 0xc747935818a0567e),
    ("CTC", 16000, 0x4878b8ed3381ebbf),
    ("SDSC95", 0, 0x2b6fa26e4b98d2b5),
    ("SDSC95", 800, 0x0ca6b6ef7d2b312b),
    ("SDSC95", 16000, 0x96e50e98127f5272),
    ("SDSC96", 0, 0xf7f2ea2aa23ee101),
    ("SDSC96", 800, 0xf043f6bfc0167b30),
    ("SDSC96", 16000, 0xc4dcdfe00d1aa414),
];

/// Fingerprint of `toy(2000, 64, 42)`.
const TOY_LOCK: u64 = 0x9b245d365be45407;

fn site(name: &str, jobs: usize) -> Workload {
    by_name(name, (jobs > 0).then_some(jobs)).expect("known site")
}

#[test]
fn site_models_are_bit_identical() {
    for &(name, jobs, want) in &SITE_LOCK {
        let got = fingerprint(&site(name, jobs));
        assert_eq!(
            got, want,
            "{name} at {jobs} jobs (0 = default) generated a different workload"
        );
    }
}

#[test]
fn toy_is_bit_identical() {
    assert_eq!(fingerprint(&toy(2000, 64, 42)), TOY_LOCK);
}

#[test]
fn lock_covers_every_site() {
    for name in ALL_SITES {
        assert_eq!(
            SITE_LOCK.iter().filter(|(n, ..)| *n == name).count(),
            3,
            "{name}"
        );
    }
}

/// Re-capture tool: prints the lock table ready to paste (see the module
/// docs). The constants above must not be re-captured.
#[test]
#[ignore = "re-capture tool: prints the lock table, asserts nothing"]
fn print_synthesis_lock() {
    println!(
        "const SITE_LOCK: [(&str, usize, u64); {}] = [",
        SITE_LOCK.len()
    );
    for &(name, jobs, _) in &SITE_LOCK {
        let fp = fingerprint(&site(name, jobs));
        println!("    ({name:?}, {jobs}, {fp:#018x}),");
    }
    println!("];");
    println!(
        "const TOY_LOCK: u64 = {:#018x};",
        fingerprint(&toy(2000, 64, 42))
    );
}
