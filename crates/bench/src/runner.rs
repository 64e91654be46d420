//! Parallel seed sweeps: every figure averages several workload seeds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(seed)` for every seed, in parallel across available cores,
/// returning results in seed order.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn run_seeds<R, F>(seeds: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(seeds.len().max(1));
    if threads <= 1 || seeds.len() <= 1 {
        return seeds.iter().map(|&s| f(s)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = seeds.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            #[expect(
                clippy::disallowed_methods,
                reason = "fans out whole independent experiments, not solver work"
            )]
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= seeds.len() {
                    break;
                }
                let r = f(seeds[i]);
                *slots[i].lock().expect("slot lock poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock poisoned")
                .expect("every seed produced a result")
        })
        .collect()
}

/// The default seed set used by the figure harnesses.
pub fn default_seeds(n: usize) -> Vec<u64> {
    (1..=n as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_seed_order() {
        let seeds: Vec<u64> = (0..17).collect();
        let out = run_seeds(&seeds, |s| s * 2);
        assert_eq!(out, seeds.iter().map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_seed_runs_inline() {
        assert_eq!(run_seeds(&[7], |s| s + 1), vec![8]);
        assert_eq!(run_seeds::<u64, _>(&[], |s| s), Vec::<u64>::new());
    }

    #[test]
    fn default_seeds_are_distinct() {
        let s = default_seeds(5);
        assert_eq!(s, vec![1, 2, 3, 4, 5]);
    }
}
