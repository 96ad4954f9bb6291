//! A hermetic work-stealing thread pool.
//!
//! The repository takes no external dependencies (DESIGN.md §8), so this
//! is a minimal std-only pool: scoped worker threads, one mutex-guarded
//! [`StealDeque`] per worker seeded round-robin, owners popping LIFO from
//! the back while idle workers steal FIFO from the front. Results land in
//! index-ordered slots, so the output of [`parallel_map`] is identical to
//! a serial map regardless of worker count or interleaving — the figure
//! binaries rely on this for byte-identical tables at any `--jobs`.
//!
//! This crate depends on nothing. The sweep harness re-exports it as
//! `polyflow_bench::pool`, through which serve reaches it too; the
//! benchmark (`perfbench/`) calls it directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::ffi::OsStr;
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// A work-stealing deque: the owning worker pushes and pops at the back
/// (LIFO, keeping its recently seeded work warm), thieves steal from the
/// front (FIFO, taking the oldest work). A single mutex guards both ends;
/// the grain of pool work (one full cycle-simulation, or one workload's
/// preparation) dwarfs the lock cost.
#[derive(Debug, Default)]
pub struct StealDeque<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> StealDeque<T> {
    /// An empty deque.
    pub fn new() -> StealDeque<T> {
        StealDeque {
            items: Mutex::new(VecDeque::new()),
        }
    }

    /// Pushes work at the owner's end.
    pub fn push(&self, item: T) {
        self.items.lock().unwrap().push_back(item);
    }

    /// Pops the most recently pushed item (owner's end).
    pub fn pop(&self) -> Option<T> {
        self.items.lock().unwrap().pop_back()
    }

    /// Steals the oldest item (thief's end).
    pub fn steal(&self) -> Option<T> {
        self.items.lock().unwrap().pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.lock().unwrap().len()
    }

    /// True if no work is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The worker count when the command line names none: the
/// `POLYFLOW_JOBS` environment variable, else the number of CPUs the
/// process may run on. A set variable that is not a count is an error
/// naming the variable and its value; `0` counts as 1.
pub fn default_jobs() -> Result<usize, String> {
    match std::env::var_os("POLYFLOW_JOBS") {
        Some(v) if !v.is_empty() => parse_jobs(&v),
        _ => Ok(std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)),
    }
}

fn parse_jobs(v: &OsStr) -> Result<usize, String> {
    v.to_str()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
        .ok_or_else(|| format!("POLYFLOW_JOBS must be a worker count, got {v:?}"))
}

/// Maps `f` over `items` on `jobs` worker threads, returning results in
/// input order.
///
/// Items are seeded round-robin across per-worker deques; a worker drains
/// its own deque LIFO and steals FIFO from the others when it runs dry.
/// Each item is executed exactly once (removal from a deque is atomic
/// under its mutex), and results are written into index-ordered slots, so
/// the returned vector is identical to `items.map(f)` for every `jobs`.
/// With `jobs <= 1` no threads are spawned at all.
pub fn parallel_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let queues: Vec<StealDeque<(usize, T)>> = (0..jobs).map(|_| StealDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % jobs].push((i, item));
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                // Own work first, then scan the other deques for prey.
                // No work is ever added after seeding, so an all-empty
                // scan means the map is complete.
                let next = queues[w]
                    .pop()
                    .or_else(|| (1..jobs).find_map(|d| queues[(w + d) % jobs].steal()));
                let Some((i, item)) = next else { break };
                *slots[i].lock().unwrap() = Some(f(i, item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every item executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_counts_parse_or_name_the_variable() {
        assert_eq!(parse_jobs(OsStr::new(" 3 ")), Ok(3));
        assert_eq!(parse_jobs(OsStr::new("0")), Ok(1), "at least one worker");
        let e = parse_jobs(OsStr::new("abc")).unwrap_err();
        assert!(e.contains("POLYFLOW_JOBS") && e.contains("abc"), "{e}");
    }
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn steal_from_empty_returns_none() {
        let d: StealDeque<u32> = StealDeque::new();
        assert!(d.is_empty());
        assert_eq!(d.steal(), None);
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn owner_pops_lifo_thieves_steal_fifo() {
        let d = StealDeque::new();
        for i in 0..4 {
            d.push(i);
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.pop(), Some(3), "owner takes the newest item");
        assert_eq!(d.steal(), Some(0), "thief takes the oldest item");
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.steal(), Some(1));
        assert!(d.is_empty());
    }

    #[test]
    fn single_producer_items_stolen_exactly_once_under_contention() {
        const ITEMS: usize = 10_000;
        const THIEVES: usize = 4;
        let d: StealDeque<usize> = StealDeque::new();
        let seen: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
        let produced = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let d = &d;
            let seen = &seen;
            let produced = &produced;
            // One producer pushes while consuming its own end...
            scope.spawn(move || {
                for i in 0..ITEMS {
                    d.push(i);
                    produced.store(i + 1, Ordering::Release);
                    if i % 3 == 0 {
                        if let Some(j) = d.pop() {
                            seen[j].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                while let Some(j) = d.pop() {
                    seen[j].fetch_add(1, Ordering::Relaxed);
                }
            });
            // ...and thieves hammer the other end until everything was
            // produced and the deque is drained.
            for _ in 0..THIEVES {
                scope.spawn(move || loop {
                    match d.steal() {
                        Some(j) => {
                            seen[j].fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if produced.load(Ordering::Acquire) == ITEMS && d.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} executed once");
        }
    }

    #[test]
    fn parallel_map_matches_serial_and_runs_each_item_once() {
        let items: Vec<u64> = (0..257).collect();
        let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [1, 2, 4, 7] {
            let got = parallel_map(items.clone(), jobs, |i, x| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                x * x + 1
            });
            assert_eq!(got, expect, "jobs={jobs} must match the serial map");
        }
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                4,
                "item {i}: once per jobs value"
            );
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_oversubscribed_inputs() {
        let empty: Vec<u32> = parallel_map(Vec::new(), 8, |_, x: u32| x);
        assert!(empty.is_empty());
        let tiny = parallel_map(vec![41u32], 8, |_, x| x + 1);
        assert_eq!(tiny, vec![42]);
    }
}
