//! Parallel parameter sweeps: one deterministic simulation per work item.
//!
//! Simulations are seeded and single-threaded, so a sweep over node counts,
//! seeds, or ablation configs is embarrassingly parallel. [`parallel_map`]
//! runs a fixed worker pool over the item list with a shared atomic cursor
//! (work stealing by index); each result lands in the slot of its input
//! index, so the merged output order — and every report in it — is
//! bit-identical to a sequential `items.iter().map(f)` regardless of thread
//! scheduling.

use dsi_core::{run_experiment, worker_count, ExperimentConfig, SystemReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Runs `f` over `items` on a `std::thread::scope` worker pool, returning
/// results in input order. Deterministic for deterministic `f`: the output
/// slot of item `i` depends only on `items[i]`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    if items.is_empty() {
        return Vec::new();
    }
    let slots = Mutex::new(slots);
    let cursor = AtomicUsize::new(0);
    // No more workers than items (there is at least one).
    let workers = worker_count().min(items.len());
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                slots.lock().expect("no worker panics while holding the slot lock")[i] = Some(r);
            });
        }
    });
    let slots = slots.into_inner().expect("scope already propagated any worker panic");
    slots.into_iter().map(|r| r.expect("every slot filled")).collect()
}

/// Runs one experiment per node count, in parallel, returning reports in
/// input order.
pub fn parallel_reports<F>(node_counts: &[usize], make_cfg: F) -> Vec<SystemReport>
where
    F: Fn(usize) -> ExperimentConfig + Sync,
{
    parallel_map(node_counts, |&n| run_experiment(&make_cfg(n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::with_nodes(n);
        cfg.workload.window_len = 16;
        cfg.warmup_ms = 6_000;
        cfg.measure_ms = 6_000;
        cfg
    }

    fn seeded(seed: u64) -> ExperimentConfig {
        let mut cfg = tiny(8);
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn reports_come_back_in_input_order() {
        let reports = parallel_reports(&[12, 6, 9], tiny);
        assert_eq!(reports.iter().map(|r| r.num_nodes).collect::<Vec<_>>(), vec![12, 6, 9]);
    }

    #[test]
    fn parallel_equals_sequential() {
        let par = parallel_reports(&[8, 10], tiny);
        let seq: Vec<_> = [8, 10].iter().map(|&n| run_experiment(&tiny(n))).collect();
        for (a, b) in par.iter().zip(seq.iter()) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "parallel sweep must not change results"
            );
        }
    }

    #[test]
    fn seed_sweep_is_bit_identical_to_sequential() {
        // More items than a typical core count, so the worker pool actually
        // multiplexes and the index-slotted merge is exercised.
        let seeds: Vec<u64> = (0..6).map(|i| 1000 + i * 37).collect();
        let par = parallel_map(&seeds, |&s| run_experiment(&seeded(s)));
        for (s, report) in seeds.iter().zip(par.iter()) {
            let seq = run_experiment(&seeded(*s));
            assert_eq!(
                serde_json::to_string(report).unwrap(),
                serde_json::to_string(&seq).unwrap(),
                "seed {s}: parallel report must be bit-identical to sequential"
            );
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, |x| *x).is_empty());
        assert_eq!(parallel_map(&[41], |x| x + 1), vec![42]);
    }
}
