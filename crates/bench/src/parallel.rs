//! Scenario-parallel sweep driver.
//!
//! Every figure and table point is an independent deterministic simulation,
//! so a sweep is embarrassingly parallel — as long as the merge preserves
//! scenario order, the output is byte-identical to a serial run. [`par_map`]
//! is exactly that: scoped worker threads pull indices off a shared counter,
//! each result lands in its input's slot, and the caller gets the rows back
//! in input order regardless of which worker finished when.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for sweep parallelism: every available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` on up to `workers` scoped threads, returning results
/// in input order.
///
/// The output is guaranteed identical to `items.iter().map(f).collect()`:
/// scheduling decides only wall time, never content. With `workers <= 1`
/// (or a single item) no threads are spawned at all.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("no panics hold slot locks") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("worker did not panic").expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 4, 16] {
            assert_eq!(par_map(&items, workers, |x| x * x), serial, "workers={workers}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map::<u32, u32, _>(&[], 4, |x| *x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(par_map(&[1u32, 2, 3], 64, |x| x * 10), vec![10, 20, 30]);
    }
}
