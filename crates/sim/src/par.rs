//! Persistent worker-thread pool for the rack-sharded parallel phase.
//!
//! A tick's parallel phase is short (tens of microseconds on paper-size
//! fleets), so spawning scoped threads per tick would dominate the work.
//! Instead the pool spawns its workers once and hands them one *job* at
//! a time: a closure invoked with each shard index exactly once. Each
//! participant (the workers plus the calling thread) owns a persistent
//! deque seeded with a contiguous block of shard indices; a participant
//! drains its own deque front-first and, once empty, **steals** from the
//! back of a sibling's deque. On balanced fleets every shard runs from
//! its owner's deque (good locality, zero steals); on lopsided fleets
//! the fast participants absorb the slow one's backlog instead of idling
//! at the barrier. [`WorkerPool::execute`] does not return until every
//! shard of the job has finished, which is the barrier the deterministic
//! reduction phase relies on — shard execution order is free, so
//! stealing cannot perturb bit-identity.
//!
//! A pool of one participant is the inline case: `execute` is a plain
//! loop on the caller, with no lock, no condvar, no deque and no
//! thread. Every layer therefore has one sharded body, and the thread
//! count only decides how many participants run it.
//!
//! Every sharded phase uses one idiom on top of the pool: carve the
//! phase's state into one owned record per shard with [`split_ranges`]
//! (a dense, ascending, covering partition), run the records through
//! [`WorkerPool::for_each_mut`], then fold each record's buffered side
//! effects back in ascending shard order on the caller.
//!
//! This module is the only place in the workspace that uses `unsafe`:
//! a single lifetime erasure that lets workers borrow the caller's
//! stack-scoped closure for the duration of one `execute` call. The
//! rest of the crate remains `deny(unsafe_code)`.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The type-erased job: a borrow of the caller's `Fn(usize)` closure
/// with its lifetime erased to a raw pointer so it can sit in shared
/// state. Soundness rests on `execute` blocking until `done_shards ==
/// num_shards`, i.e. until every dereference of this pointer has
/// completed — the pointee (on the caller's stack) outlives all uses.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared `&`-calls from many threads are
// fine) and is only dereferenced within the dynamic extent of the
// `execute` call that published it, which keeps the borrow alive.
unsafe impl Send for Job {}

/// Shard-claiming state shared between the caller and the workers.
struct State {
    /// The active job, if any. Cleared by whichever thread finishes the
    /// last shard, which is also the "job done" signal.
    job: Option<Job>,
    /// Total shards in the active job.
    num_shards: usize,
    /// Shards that have finished running.
    done_shards: usize,
    /// Shards not yet claimed from any deque (fast availability check).
    unclaimed: usize,
    /// One persistent deque per participant (index 0 is the caller,
    /// 1..threads are the workers), reseeded with contiguous shard
    /// blocks on each publish.
    deques: Vec<VecDeque<usize>>,
    /// True once any shard closure panicked (the panic is re-raised on
    /// the calling thread after the barrier).
    panicked: bool,
    /// Tells workers to exit their loop.
    shutdown: bool,
}

impl State {
    /// Claims one shard for participant `me`: front of its own deque,
    /// else the back of the first non-empty sibling deque scanning
    /// round-robin from `me + 1` (a steal). Returns the shard index and
    /// whether it was stolen.
    fn claim(&mut self, me: usize) -> Option<(usize, bool)> {
        if self.unclaimed == 0 {
            return None;
        }
        if let Some(i) = self.deques[me].pop_front() {
            self.unclaimed -= 1;
            return Some((i, false));
        }
        let n = self.deques.len();
        for d in 1..n {
            let victim = (me + d) % n;
            if let Some(i) = self.deques[victim].pop_back() {
                self.unclaimed -= 1;
                return Some((i, true));
            }
        }
        None
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a new job is published (or on shutdown).
    cv_job: Condvar,
    /// Signalled when the last shard of a job completes.
    cv_done: Condvar,
    /// Shards claimed from a sibling's deque rather than the owner's,
    /// accumulated over the pool's lifetime (`busy_ns`-style counter).
    steals: AtomicU64,
}

impl Shared {
    /// Claims and runs shards of the active job until none remain to
    /// claim, then returns (releasing the lock). Shared by workers and
    /// the caller so the calling thread contributes a full worker's
    /// throughput; `me` selects the participant's own deque.
    fn run_shards<'a>(
        &'a self,
        me: usize,
        mut st: std::sync::MutexGuard<'a, State>,
        f: &dyn Fn(usize),
    ) {
        loop {
            if st.job.is_none() {
                return;
            }
            let Some((i, stolen)) = st.claim(me) else {
                return;
            };
            drop(st);
            if stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            let ok = catch_unwind(AssertUnwindSafe(|| f(i))).is_ok();
            st = self.state.lock().unwrap();
            st.done_shards += 1;
            if !ok {
                st.panicked = true;
            }
            if st.done_shards == st.num_shards {
                st.job = None;
                self.cv_done.notify_all();
            }
        }
    }
}

/// A fixed-size pool of persistent worker threads executing shard jobs
/// via per-participant deques with work stealing.
///
/// Created once per run; each call to [`WorkerPool::execute`] fans one
/// closure out over shard indices `0..num_shards` and blocks until all
/// have completed. A pool of one participant spawns nothing and runs
/// every job inline on the caller. The pool itself carries no job state
/// between calls, so it is irrelevant to checkpointing: snapshots taken
/// at one thread count restore bit-exactly at any other.
pub struct WorkerPool {
    /// The spawned workers; `None` when the caller is the only
    /// participant.
    workers: Option<Workers>,
    threads: usize,
    /// Wall-clock nanoseconds spent inside [`WorkerPool::execute`] by a
    /// multi-participant pool, accumulated over the pool's lifetime.
    /// Because every parallel span in a run goes through `execute`, this
    /// is the run's total parallel-phase time, which the `scale` bench
    /// reports per configuration. An inline pool records none.
    busy_ns: AtomicU64,
}

/// The worker threads of a multi-participant pool and the state they
/// share with the caller. Dropping it shuts the workers down and joins
/// them.
struct Workers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool delivering `threads`-way parallelism: the calling
    /// thread participates in every job, so `threads - 1` workers are
    /// spawned. `threads` is clamped to at least 1, the inline pool.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = (threads > 1).then(|| {
            let shared = Arc::new(Shared {
                state: Mutex::new(State {
                    job: None,
                    num_shards: 0,
                    done_shards: 0,
                    unclaimed: 0,
                    deques: (0..threads).map(|_| VecDeque::new()).collect(),
                    panicked: false,
                    shutdown: false,
                }),
                cv_job: Condvar::new(),
                cv_done: Condvar::new(),
                steals: AtomicU64::new(0),
            });
            let handles = (1..threads)
                .map(|me| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        let mut st = shared.state.lock().unwrap();
                        loop {
                            if st.shutdown {
                                return;
                            }
                            if let Some(job) = st.job {
                                if st.unclaimed > 0 {
                                    // SAFETY: see `Job` — the pointee lives
                                    // until `execute` returns, and `execute`
                                    // blocks until this shard is done.
                                    let f = unsafe { &*job.0 };
                                    shared.run_shards(me, st, f);
                                    st = shared.state.lock().unwrap();
                                    continue;
                                }
                            }
                            st = shared.cv_job.wait(st).unwrap();
                        }
                    })
                })
                .collect();
            Workers { shared, handles }
        });
        Self {
            workers,
            threads,
            busy_ns: AtomicU64::new(0),
        }
    }

    /// The parallelism this pool delivers (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total wall-clock nanoseconds spent inside [`WorkerPool::execute`]
    /// since the pool was created (the run's parallel-phase time). Zero
    /// for an inline pool.
    pub fn busy_nanos(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Shards executed by a participant other than the one whose deque
    /// they were seeded into, since the pool was created. Zero on a
    /// perfectly balanced job and for an inline pool; grows when
    /// lopsided shard costs leave some participants idle while others
    /// still hold a backlog.
    pub fn steal_count(&self) -> u64 {
        self.workers
            .as_ref()
            .map_or(0, |w| w.shared.steals.load(Ordering::Relaxed))
    }

    /// Runs `f(i, &mut items[i])` exactly once for every item, spread
    /// across the pool like [`WorkerPool::execute`], and returns only
    /// after all have completed. Each participant gets exclusive access
    /// to the items it claims, so a shard record can own `&mut` slices
    /// of the caller's state. The inline pool runs the items in order on
    /// the caller. Panics (on the calling thread) if any call panicked.
    pub fn for_each_mut<T: Send>(&self, items: &mut [T], f: &(dyn Fn(usize, &mut T) + Sync)) {
        if self.workers.is_none() {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        // One uncontended cell per item: `execute` claims each index
        // exactly once, so each cell is locked once and never seen
        // poisoned; a panicking item is re-raised after the barrier.
        let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        self.execute(cells.len(), &|i| {
            let mut item = cells[i]
                .lock()
                .expect("each item is claimed once, so its cell is unpoisoned");
            f(i, &mut item);
        });
    }

    /// Runs `f(i)` exactly once for every `i in 0..num_shards`, spread
    /// across the pool plus the calling thread, and returns only after
    /// all invocations have completed. Panics (on the calling thread)
    /// if any shard closure panicked.
    pub fn execute(&self, num_shards: usize, f: &(dyn Fn(usize) + Sync)) {
        let Some(workers) = &self.workers else {
            for i in 0..num_shards {
                f(i);
            }
            return;
        };
        if num_shards == 0 {
            return;
        }
        let shared = &workers.shared;
        let span = std::time::Instant::now();
        // SAFETY: the only unsafe act in the workspace — erasing the
        // closure's borrow lifetime so workers can hold it in shared
        // state. Sound because this function blocks (below) until every
        // invocation has completed, so no dereference outlives `f`.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut st = shared.state.lock().unwrap();
            debug_assert!(st.job.is_none(), "execute is not reentrant");
            st.job = Some(Job(erased));
            st.num_shards = num_shards;
            st.done_shards = 0;
            st.unclaimed = num_shards;
            st.panicked = false;
            // Seed each participant's deque with a contiguous block —
            // neighbouring shards share cache lines in the runner's
            // dense per-server arrays, and stealing from the *back*
            // keeps the owner on its own block as long as possible.
            let n = self.threads;
            for (p, dq) in st.deques.iter_mut().enumerate() {
                debug_assert!(dq.is_empty(), "stale shards left in a deque");
                dq.clear();
                dq.extend(p * num_shards / n..(p + 1) * num_shards / n);
            }
        }
        shared.cv_job.notify_all();
        let st = shared.state.lock().unwrap();
        shared.run_shards(0, st, f);
        let mut st = shared.state.lock().unwrap();
        while st.job.is_some() {
            st = shared.cv_done.wait(st).unwrap();
        }
        let panicked = st.panicked;
        drop(st);
        self.busy_ns
            .fetch_add(span.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if panicked {
            panic!("a worker panicked during the parallel shard phase");
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.cv_job.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Splits `data` into one `&mut` sub-slice per range, in order, lazily
/// (the partition is checked up front; no allocation).
///
/// # Panics
///
/// Panics unless `ranges` is a dense, ascending partition covering
/// `0..data.len()`: each range starts where the previous one ended (the
/// first at 0), none runs backwards, and the last ends at `data.len()`.
/// Empty ranges are allowed.
pub fn split_ranges<'a: 'r, 'r, T>(
    data: &'a mut [T],
    ranges: &'r [Range<usize>],
) -> impl Iterator<Item = &'a mut [T]> + 'r {
    let mut cursor = 0usize;
    for r in ranges {
        assert!(
            r.start == cursor && r.start <= r.end,
            "shard ranges must be dense and ascending: {r:?} after {cursor}"
        );
        cursor = r.end;
    }
    assert_eq!(cursor, data.len(), "shard ranges must cover the slice");
    let mut rest = data;
    ranges.iter().map(move |r| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        rest = tail;
        head
    })
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_shard_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for shards in [1usize, 2, 3, 16, 257] {
            let counts: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            pool.execute(shards, &|i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.execute(5, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 2500);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.workers.is_none(), "one participant spawns no thread");
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        pool.execute(7, &|i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), (0..7).collect::<Vec<_>>());
        assert_eq!(pool.steal_count(), 0, "a lone participant cannot steal");
        // No busy time either, so a one-thread run reports no parallel
        // phase (the `scale` bench's sequential rows read 1.0).
        assert_eq!(pool.busy_nanos(), 0);
    }

    #[test]
    fn single_thread_pool_panic_reaches_the_caller() {
        let pool = WorkerPool::new(1);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.execute(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(err.is_err());
        let total = AtomicUsize::new(0);
        pool.execute(3, &|_| {
            total.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn zero_shards_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.execute(0, &|_| panic!("must not run"));
    }

    #[test]
    fn more_participants_than_shards_still_covers_every_shard() {
        // Some deques get an empty block; their owners must steal or
        // idle without deadlocking the barrier.
        let pool = WorkerPool::new(8);
        for shards in [1usize, 2, 3, 5] {
            let counts: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            pool.execute(shards, &|i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn lopsided_shard_costs_trigger_steals() {
        // Two participants, four shards: the caller's block {0, 1}
        // starts with a slow shard, so the worker drains its own block
        // {2, 3} and then steals the caller's backlog.
        let pool = WorkerPool::new(2);
        let slow_ms = if cfg!(miri) { 5 } else { 25 };
        let ran: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.execute(4, &|i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(slow_ms));
            }
            ran[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(ran.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert!(
            pool.steal_count() >= 1,
            "the idle worker should have stolen from the slow caller's deque"
        );
    }

    #[test]
    fn split_ranges_partitions_densely_including_empty_shards() {
        let mut data: Vec<usize> = (0..10).collect();
        let parts: Vec<_> =
            split_ranges(&mut data, &[0..0, 0..3, 3..3, 3..9, 9..10, 10..10]).collect();
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(lens, [0, 3, 0, 6, 1, 0]);
        assert_eq!(parts[3], &[3, 4, 5, 6, 7, 8]);
        for p in parts {
            for x in p.iter_mut() {
                *x *= 2;
            }
        }
        assert_eq!(data, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
        let mut empty: [u8; 0] = [];
        assert_eq!(split_ranges(&mut empty, &[]).count(), 0);
        assert_eq!(split_ranges(&mut empty, &[0..0, 0..0]).count(), 2);
    }

    #[test]
    #[should_panic(expected = "dense and ascending")]
    fn split_ranges_rejects_a_gap() {
        let mut data = [0u8; 6];
        let _ = split_ranges(&mut data, &[0..2, 3..6]);
    }

    #[test]
    #[should_panic(expected = "dense and ascending")]
    fn split_ranges_rejects_an_overlap() {
        let mut data = [0u8; 6];
        let _ = split_ranges(&mut data, &[0..4, 3..6]);
    }

    #[test]
    #[should_panic(expected = "cover the slice")]
    fn split_ranges_rejects_a_short_cover() {
        let mut data = [0u8; 6];
        let _ = split_ranges(&mut data, &[0..2, 2..5]);
    }

    #[test]
    fn for_each_mut_runs_every_item_once_with_its_own_index() {
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            for len in [0usize, 1, 2, 5, 16] {
                let mut items: Vec<(usize, usize)> = (0..len).map(|i| (i, 0)).collect();
                pool.for_each_mut(&mut items, &|i, item| {
                    assert_eq!(item.0, i, "item handed to the wrong index");
                    item.1 += 1;
                });
                assert!(
                    items.iter().all(|&(_, runs)| runs == 1),
                    "{threads} participants, {len} items: {items:?}"
                );
            }
        }
    }

    #[test]
    fn inline_for_each_mut_runs_in_order_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let mut items = [10usize, 11, 12, 13];
        pool.for_each_mut(&mut items, &|i, item| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push((i, *item));
        });
        assert_eq!(
            order.into_inner().unwrap(),
            [(0, 10), (1, 11), (2, 12), (3, 13)]
        );
    }

    #[test]
    fn for_each_mut_panic_reaches_the_caller_and_the_pool_survives() {
        for threads in [1usize, 2, 3] {
            let pool = WorkerPool::new(threads);
            let mut items = [0u32; 6];
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.for_each_mut(&mut items, &|i, _| {
                    if i == 4 {
                        panic!("boom");
                    }
                });
            }));
            assert!(err.is_err(), "{threads} participants");
            let mut items = [0u32; 5];
            pool.for_each_mut(&mut items, &|_, x| *x += 1);
            assert_eq!(items, [1; 5], "{threads} participants");
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.execute(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(err.is_err());
        // The pool stays usable after a panicked job (any shards left
        // unclaimed by the aborted job must not leak into the next).
        let total = AtomicUsize::new(0);
        pool.execute(3, &|_| {
            total.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 3);
    }
}
