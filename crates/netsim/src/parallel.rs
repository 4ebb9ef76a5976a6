//! Host thread pool for executing real compute closures in parallel.
//!
//! The simulator's split between *real execution* (closures genuinely run,
//! [`crate::clock::measure`] times them) and *simulated placement* (measured
//! durations land on virtual per-core timelines) means independent task
//! closures can run on any host core without affecting virtual-time
//! semantics — as long as engines merge the measured results back in a
//! deterministic order. This module provides that pool; the engines own the
//! merge discipline (pre-reserved task ids, scheduling passes that consume
//! results in submission order).
//!
//! Shape: a self-scheduling shared work queue. [`run_indexed`] spawns
//! `degree − 1` scoped workers plus the caller; each claims the next
//! un-started index from a shared atomic counter (every idle worker "steals"
//! from the one global queue — the degenerate but contention-optimal form of
//! work stealing for a flat bag of tasks) and sends `(index, result)` over a
//! channel. Results are re-assembled into input order, so the caller sees
//! `Vec<T>` exactly as the serial loop would have produced it.
//!
//! Degree resolution, outermost first:
//! 1. inside a pool worker → 1 (no nested parallelism);
//! 2. a scoped [`with_degree`] override (how `RunConfig::threads` applies);
//! 3. the process default, set by [`set_default_threads`] or the
//!    `MDTASK_THREADS` env var (`1`, `auto`, or a number). Unset → serial,
//!    i.e. exactly the pre-pool behavior.

use crate::lock;
use std::cell::Cell;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Requested host-parallelism degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// One task at a time on the calling thread (the default).
    Serial,
    /// Exactly `n` concurrent host threads (caller included).
    Fixed(usize),
    /// One thread per available host core.
    Auto,
}

impl Threads {
    /// Resolve to a concrete degree (≥ 1) on this host.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Serial => 1,
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl FromStr for Threads {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" | "0" => Ok(Threads::Auto),
            "1" => Ok(Threads::Serial),
            other => other
                .parse::<usize>()
                .map(Threads::Fixed)
                .map_err(|_| format!("invalid thread count {other:?} (want 1, N, or `auto`)")),
        }
    }
}

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Threads::Serial => write!(f, "1"),
            Threads::Fixed(n) => write!(f, "{n}"),
            Threads::Auto => write!(f, "auto"),
        }
    }
}

/// Process-wide default degree: 0 = not yet initialized (read env on first
/// use), otherwise the resolved degree.
static DEFAULT_DEGREE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_degree`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread is executing work *inside* a pool, so nested
    /// `run_indexed` calls degrade to serial instead of oversubscribing.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Set the process-wide default degree (what `--threads` and the
/// `MDTASK_THREADS` env var feed).
pub fn set_default_threads(threads: Threads) {
    DEFAULT_DEGREE.store(threads.resolve().max(1), Ordering::Relaxed);
}

fn default_degree() -> usize {
    let d = DEFAULT_DEGREE.load(Ordering::Relaxed);
    if d != 0 {
        return d;
    }
    let resolved = std::env::var("MDTASK_THREADS")
        .ok()
        .and_then(|v| v.parse::<Threads>().ok())
        .map(Threads::resolve)
        .unwrap_or(1)
        .max(1);
    DEFAULT_DEGREE.store(resolved, Ordering::Relaxed);
    resolved
}

/// The degree a pool started *right now* on this thread would use.
pub fn current_degree() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    OVERRIDE.with(Cell::get).unwrap_or_else(default_degree)
}

/// Run `f` with the degree overridden on this thread (restored after,
/// also when `f` unwinds). This is how a per-run `threads` knob scopes:
/// engine handles constructed inside capture the override via
/// [`current_degree`].
pub fn with_degree<T>(threads: Threads, f: impl FnOnce() -> T) -> T {
    let _restore = Restore {
        cell: &OVERRIDE,
        prev: OVERRIDE.with(|o| o.replace(Some(threads.resolve().max(1)))),
    };
    f()
}

/// Puts a thread-local back to its previous value on drop, so a closure
/// that unwinds cannot leave this thread's degree changed for good.
struct Restore<T: Copy + 'static> {
    cell: &'static std::thread::LocalKey<Cell<T>>,
    prev: T,
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.cell.with(|c| c.set(self.prev));
    }
}

/// Evaluate `f(0..n)` across up to `degree` host threads and return the
/// results **in index order** — byte-for-byte the `Vec` the serial loop
/// `(0..n).map(f).collect()` yields, which is what keeps engine merge
/// order deterministic. Degree ≤ 1 (or a nested call from inside a pool)
/// runs serially on the caller with zero threading overhead.
///
/// A panic in `f` reaches the caller with its own payload once every
/// worker has stopped.
pub fn run_indexed_with<T, F>(degree: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if degree <= 1 || n <= 1 || IN_POOL.with(Cell::get) {
        return (0..n).map(f).collect();
    }
    let workers = degree.min(n);
    let next = AtomicUsize::new(0);
    // Claim indices until none is left.
    let work = |tx: &std::sync::mpsc::Sender<(usize, T)>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = f(i);
        // A send only fails if the receiver is gone, which means the
        // caller is already unwinding.
        if tx.send((i, out)).is_err() {
            break;
        }
    };
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    // No index starts before every worker thread has: a thread's start-up
    // was seen to stall the closure running beside it by 1–4 ms on a
    // loaded two-core host, and closures are measured. The caller holds
    // `gate` until each worker has said it is up; dropping the guard, on
    // unwind too, lets them claim.
    let gate = std::sync::RwLock::new(());
    let (up_tx, up_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let closed = gate.write();
        let handles: Vec<_> = (0..workers - 1)
            .map(|_| {
                let (tx, up_tx) = (tx.clone(), up_tx.clone());
                let (work, gate) = (&work, &gate);
                s.spawn(move || {
                    IN_POOL.with(|p| p.set(true));
                    let _ = up_tx.send(());
                    // A poisoned gate only means the caller unwound.
                    drop(gate.read());
                    work(&tx);
                })
            })
            .collect();
        for _ in 1..workers {
            let _ = up_rx.recv();
        }
        drop(closed);
        {
            // The caller is the final worker; flag nested calls serial
            // for the duration (the caller thread outlives this pool).
            let _restore = Restore {
                cell: &IN_POOL,
                prev: IN_POOL.with(|p| p.replace(true)),
            };
            work(&tx);
        }
        // Join by hand: the scope's own panic would replace a worker's
        // payload with "a scoped thread panicked".
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    drop(tx);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in rx {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced a result"))
        .collect()
}

/// [`run_indexed_with`] at [`current_degree`].
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(current_degree(), n, f)
}

/// Distribute owned items (e.g. `FnOnce` task closures) across the pool:
/// each item is claimed exactly once, `f(index, item)` runs on some worker,
/// results come back in input order. Serial when `degree ≤ 1`.
pub fn run_owned_with<I, T, F>(degree: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    if degree <= 1 || items.len() <= 1 || IN_POOL.with(Cell::get) {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    run_indexed_with(degree, slots.len(), |i| {
        let item = lock(&slots[i]).take().expect("each item claimed once");
        f(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn threads_parse_and_resolve() {
        assert_eq!("1".parse::<Threads>().unwrap(), Threads::Serial);
        assert_eq!("4".parse::<Threads>().unwrap(), Threads::Fixed(4));
        assert_eq!("auto".parse::<Threads>().unwrap(), Threads::Auto);
        assert!("four".parse::<Threads>().is_err());
        assert_eq!(Threads::Serial.resolve(), 1);
        assert_eq!(Threads::Fixed(6).resolve(), 6);
        assert!(Threads::Auto.resolve() >= 1);
        assert_eq!(Threads::Fixed(0).resolve(), 1);
    }

    #[test]
    fn results_arrive_in_index_order() {
        for degree in [1, 2, 3, 8] {
            let got = run_indexed_with(degree, 37, |i| i * i);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "degree {degree}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counts: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        run_indexed_with(8, 100, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(run_indexed_with(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed_with(8, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn owned_items_each_claimed_once() {
        let items: Vec<String> = (0..20).map(|i| format!("item-{i}")).collect();
        let got = run_owned_with(4, items, |i, s| format!("{i}:{s}"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("{i}:item-{i}"));
        }
    }

    #[test]
    fn nested_calls_run_serial() {
        let depth = run_indexed_with(4, 8, |_| {
            // Inside the pool, a nested pool must degrade to serial.
            assert_eq!(current_degree(), 1);
            run_indexed_with(4, 4, |j| j).len()
        });
        assert_eq!(depth, vec![4; 8]);
    }

    #[test]
    fn with_degree_scopes_override() {
        let outer = current_degree();
        let inner = with_degree(Threads::Fixed(5), current_degree);
        assert_eq!(inner, 5);
        assert_eq!(current_degree(), outer);
    }

    #[test]
    fn with_degree_is_restored_when_its_closure_unwinds() {
        with_degree(Threads::Fixed(3), || {
            let r = std::panic::catch_unwind(|| with_degree(Threads::Fixed(5), || panic!("inner")));
            assert!(r.is_err());
            assert_eq!(current_degree(), 3);
        });
    }

    /// The caller's own index panics inside a two-thread pool; afterwards
    /// the caller is no longer flagged as a pool worker.
    #[test]
    fn the_callers_pool_flag_is_restored_when_its_index_unwinds() {
        let caller = std::thread::current().id();
        let caller_claimed = std::sync::atomic::AtomicBool::new(false);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed_with(2, 8, |i| {
                if std::thread::current().id() == caller {
                    caller_claimed.store(true, Ordering::SeqCst);
                    panic!("the caller's index {i}");
                }
                // Hold the worker on its first index until the caller
                // has claimed one of its own.
                while !caller_claimed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                i
            })
        }));
        assert!(r.is_err());
        assert_eq!(with_degree(Threads::Fixed(2), current_degree), 2);
    }

    // Whichever thread runs index 7, the caller gets that panic's own
    // payload, not the scope's "a scoped thread panicked".
    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        run_indexed_with(4, 16, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }
}
