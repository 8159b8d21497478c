//! Oracle test: the max-runtime predictor's dense limit table answers
//! exactly what a lookup in `Workload::derive_queue_max_runtimes` does.
//!
//! The reference is the derived map itself: a job's own limit when it
//! has one, else its queue's maximum, else (no queue, or a queue the map
//! never saw) the global maximum stored under `None`. It runs on every
//! site model, on each job as recorded, on each job stripped of its
//! limit (so the queue table answers on ANL and CTC too), stripped of its
//! queue as well, and given queue symbols the workload never ran: a user
//! name already interned, and symbols interned after the table was built.

use qpredict_predict::{MaxRuntimePredictor, RunTimePredictor};
use qpredict_workload::synthetic::sites;
use qpredict_workload::{Characteristic, Dur, Job};

#[test]
fn limit_table_matches_the_derived_map() {
    for site in ["ANL", "CTC", "SDSC95", "SDSC96"] {
        let wl = sites::by_name(site, Some(3_000)).expect("site model");
        let derived = wl.derive_queue_max_runtimes();
        let global = derived[&None];
        let reference = |job: &Job| {
            job.max_runtime.unwrap_or_else(|| {
                let q = job.characteristic(Characteristic::Queue);
                derived.get(&q).copied().unwrap_or(global)
            })
        };
        let mut p = MaxRuntimePredictor::from_workload(&wl);
        let mut symbols = wl.symbols.clone();
        let unseen = [
            symbols.intern("queue-never-run-a"),
            symbols.intern("queue-never-run-b"),
        ];
        let queue = Characteristic::Queue.index();
        let mut checked = 0;
        for (k, job) in wl.jobs.iter().enumerate() {
            let mut no_limit = job.clone();
            no_limit.max_runtime = None;
            let mut no_queue = no_limit.clone();
            no_queue.chars[queue] = None;
            let mut user_as_queue = no_limit.clone();
            user_as_queue.chars[queue] = job.characteristic(Characteristic::User);
            let mut never_run = no_limit.clone();
            never_run.chars[queue] = Some(unseen[k % 2]);
            for j in [job, &no_limit, &no_queue, &user_as_queue, &never_run] {
                assert_eq!(p.limit_for(j), reference(j), "{site} job {}", job.id.0);
                assert_eq!(
                    p.predict(j, Dur::ZERO).estimate,
                    reference(j),
                    "{site} job {}",
                    job.id.0
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 5 * wl.len());
    }
}
