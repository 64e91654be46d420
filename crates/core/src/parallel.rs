//! Deterministic fan-out used by the parallel MAA rounding trials and the
//! parallel TAA candidate evaluation.
//!
//! Parallelism here is an *execution* detail, never a *semantic* one:
//! every parallel site computes an indexed family of independent values
//! (`f(0), …, f(n-1)`), each from its own explicitly-seeded RNG stream or
//! from read-only state, and the results are always consumed in index
//! order. Outputs are therefore bit-identical whether the family is
//! evaluated inline, on 2 threads, or on 8.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How much the solve pipeline is allowed to fan out.
///
/// # Examples
///
/// ```
/// use metis_core::ParallelConfig;
///
/// let serial = ParallelConfig::default();
/// assert_eq!(serial.effective_threads(), 1);
/// let auto = ParallelConfig { threads: 0 };
/// assert!(auto.effective_threads() >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for rounding trials and candidate evaluation.
    /// `0` means "use all available cores"; `1` (the default) runs
    /// everything inline.
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { threads: 1 }
    }
}

impl ParallelConfig {
    /// The actual worker count: `threads`, with `0` resolved to the number
    /// of available cores.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Evaluates `f(0), …, f(n-1)` across up to `threads` workers and returns
/// the results in index order.
///
/// Each index is computed exactly once; work is handed out by an atomic
/// counter, so which *thread* computes which index varies, but the output
/// vector never does. With `threads <= 1` (or a single item) the loop runs
/// inline with no thread or lock overhead.
///
/// # Panics
///
/// Propagates panics from `f`.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned thread fan-out; results are reduced in index order"
)]
#[expect(
    clippy::expect_used,
    reason = "a poisoned lock means a worker already panicked; the scope loop covers every index"
)]
pub(crate) fn run_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().expect("slot lock poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock poisoned")
                .expect("every index produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_threaded_agree() {
        let inline = run_indexed(37, 1, |i| i * i);
        for threads in [2, 3, 8] {
            assert_eq!(run_indexed(37, threads, |i| i * i), inline);
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(run_indexed::<usize, _>(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        let auto = ParallelConfig { threads: 0 };
        assert!(auto.effective_threads() >= 1);
        let fixed = ParallelConfig { threads: 5 };
        assert_eq!(fixed.effective_threads(), 5);
    }
}
