//! Scoped-thread fan-out for the serve path.
//!
//! [`parallel_map`] is an order-preserving map over a slice using
//! `std::thread::scope` workers pulling indices from an atomic counter.
//! The service benchmark fans request batches across cores with it, each
//! served through [`wire::serve_request`](crate::wire::serve_request),
//! and the experiment harness fans figure panels the same way:
//! [`Session`](crate::Session) and [`Service`](crate::Service) are
//! `Sync`, so every expensive artifact still derives exactly once under
//! the [`crate::PlanCache`] locks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Applies `f` to every element of `items` across scoped worker threads
/// (at most `available_parallelism`, at most one per item), preserving
/// input order in the returned vector. Falls back to a plain serial map
/// when only one thread is available. A panic in any worker is propagated
/// to the caller.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(part) => indexed.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<usize>>());
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, |_, &v| v).is_empty());
    }
}
