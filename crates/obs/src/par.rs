//! The workspace's one parallel fan-out.
//!
//! The paper's grids (workload x algorithm x predictor) and the GA's
//! fitness evaluations are embarrassingly parallel and wildly uneven in
//! cost (ANL backfill wait-prediction dwarfs SDSC FCFS scheduling), so
//! items are pulled from a shared cursor by a fixed pool of scoped
//! workers rather than partitioned up front.

use std::sync::Mutex;

/// Map `f` over `items` on up to `threads` scoped workers, returning the
/// results in input order. `f` receives each item's input index.
///
/// Workers pull items from a shared cursor, so uneven items balance
/// dynamically. A panic in `f` propagates to the caller with its
/// original payload. With `threads <= 1` or at most one item everything
/// runs inline on the caller's thread, so spans and counters recorded by
/// `f` land in the caller's registry. With more threads, while recording
/// is on, each worker's registry is merged into the caller's when it
/// joins, under the caller's open spans: the same report either way.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let recording = crate::recording();
    let cursor = Mutex::new(items.into_iter().enumerate());
    // Only `next` runs under the lock, and it cannot panic.
    let next = || cursor.lock().expect("cursor lock is never poisoned").next();
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while let Some((i, item)) = next() {
                        out.push((i, f(i, item)));
                    }
                    (out, recording.then(crate::take_registry))
                })
            })
            .collect();
        let mut results = Vec::new();
        for w in workers {
            let (out, registry) = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            results.extend(out);
            if let Some(registry) = registry {
                crate::absorb(registry);
            }
        }
        results
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Default worker count: the machine's parallelism (4 when unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..50).collect(), 8, |_, i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        assert_eq!(
            par_map((0..5).collect(), 1, |_, i| i + 1),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn empty_grid() {
        let items: Vec<i32> = vec![];
        assert!(par_map(items, 4, |_, i| i).is_empty());
    }

    #[test]
    fn uneven_work_balances() {
        let out = par_map((0..16).collect(), 4, |_, i: usize| {
            // Uneven busy loops.
            let mut acc = 0u64;
            for k in 0..(i as u64 * 10_000) {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (i, (j, _)) in out.iter().enumerate() {
            assert_eq!(i, *j);
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_map((0..12).collect(), 3, |idx, i: u32| {
                if idx == 7 {
                    std::panic::panic_any(format!("item {i} failed"));
                }
                i
            })
        })
        .expect_err("the panic must reach the caller");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("item 7 failed")
        );
    }

    #[test]
    fn workers_merge_into_the_callers_registry_only_while_recording() {
        let _g = crate::tests::locked();
        let run = || {
            crate::reset();
            let _outer = crate::span("outer");
            par_map(vec![(); 6], 3, |_, ()| {
                let _s = crate::span("par.worker");
                crate::counter_add("par.items", 1);
            });
        };
        crate::set_recording(true);
        run();
        crate::set_recording(false);
        let snap = crate::snapshot();
        assert_eq!(snap.span("outer/par.worker").map(|s| s.count), Some(6));
        assert_eq!(snap.counter("par.items"), 6);
        run();
        assert_eq!(crate::snapshot(), crate::ObsSnapshot::default());
    }

    #[test]
    fn one_thread_records_into_the_callers_registry() {
        let _g = crate::tests::locked();
        crate::set_recording(true);
        par_map(vec![(); 3], 1, |_, ()| {
            let _s = crate::span("par.inline");
        });
        crate::set_recording(false);
        let snap = crate::snapshot();
        assert_eq!(snap.span("par.inline").map(|s| s.count), Some(3));
    }
}
