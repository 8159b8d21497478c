//! Durable writes take bounded memory: on the end state of an ANL
//! stream of 8,000 jobs, served by Smith, by Gibbons and by Downey
//! (conditional average), a state fingerprint and a base snapshot each
//! grow the heap by at most 208 KiB — the streaming writer's 68 KiB
//! buffer, which no record outgrows, plus the sort of the job table's
//! 8,001 entry references (125 KiB) — where building the encoded state
//! whole took 2.5–3 MB. Measured, fingerprint and base snapshot: Smith
//! 197,376 and 197,551 B (1.64 MB encoded), Gibbons 197,376 and 197,559 B
//! (1.82 MB), Downey 197,376 and 197,571 B (0.77 MB), so the bound leaves
//! a margin of about 15 KB (7.8%) over each.
//!
//! The test binary counts every allocation, so it holds this one test
//! alone: another test running beside it would count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qpredict_serve::{FsyncPolicy, PredictorKind, ServeConfig, Service};

/// Heap growth bound of one fingerprint or one base snapshot.
const BOUND: usize = 208 * 1024;

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            // Old and new blocks may both be live during the move.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most the heap grew, above what was live before, while `f` ran.
fn growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let value = f();
    (value, PEAK.load(Ordering::Relaxed) - before)
}

#[test]
fn fingerprint_and_base_snapshot_grow_the_heap_by_at_most_208_kib() {
    let wl = qpredict_workload::synthetic::sites::by_name("ANL", Some(8000)).expect("a site");
    let lines: Vec<String> = qpredict_sim::realized_events(&wl, 5)
        .iter()
        .map(|e| e.encode())
        .collect();
    for predictor in [
        PredictorKind::Smith,
        PredictorKind::Gibbons,
        PredictorKind::DowneyAverage,
    ] {
        let name = predictor.name();
        let dir = std::env::temp_dir().join(format!(
            "qpredict-serve-alloc-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            machine_nodes: wl.machine_nodes,
            predictor,
            snapshot_every: 0,
            fsync: FsyncPolicy::Never,
            ..ServeConfig::default()
        };
        let mut svc = Service::open(cfg, Some(&dir), None, false).unwrap();
        for l in &lines {
            svc.feed_line(l).unwrap();
        }
        let encoded = qpredict_durable::codec::encode(svc.state()).len();
        assert!(encoded > 3 * BOUND, "{name}: end state of {encoded} bytes");

        let (_, fingerprint) = growth(|| svc.state().fingerprint());
        // The process's first segment is a base: the whole state.
        let (written, snapshot) = growth(|| svc.snapshot_now());
        written.unwrap();
        assert_eq!(svc.snapshots_written(), 1);
        eprintln!(
            "{name}: {encoded} B encoded; heap growth: fingerprint {fingerprint} B, \
             base snapshot {snapshot} B"
        );
        assert!(
            fingerprint <= BOUND,
            "{name}: fingerprint grew the heap {fingerprint} B"
        );
        assert!(
            snapshot <= BOUND,
            "{name}: base snapshot grew the heap {snapshot} B"
        );
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
