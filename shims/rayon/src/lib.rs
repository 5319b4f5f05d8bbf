//! Vendored offline stand-in for `rayon`.
//!
//! Covers the slice of the rayon API this workspace uses:
//! `slice.par_iter().map(f).collect::<C>()` plus the global-pool sizing
//! entry points (`ThreadPoolBuilder::new().num_threads(n).build_global()`,
//! [`current_num_threads`]).
//!
//! Parallelism is real. A map splits its input into chunks; the calling
//! thread and up to `current_num_threads() - 1` helpers of one
//! process-wide pool claim them through a shared atomic cursor. The pool
//! starts empty, grows the first time a call wants more helpers than it
//! has, and its helpers sleep on a condvar between calls, so a map
//! spawns no OS thread once the pool has grown. Each output slot is
//! indexed by input position, so results are identical for any thread
//! count.
//!
//! A call never waits behind another caller's work: once the cursor is
//! exhausted the caller withdraws its helper tickets that no helper has
//! picked up yet and waits only for chunks already in flight. A map
//! issued from a pool helper runs inline. A panic in any chunk is
//! re-raised in the caller after every started chunk has finished.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

/// 0 = unset; fall back to available parallelism.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The number of worker threads the global pool would use.
pub fn current_num_threads() -> usize {
    let n = GLOBAL_THREADS.load(Ordering::Relaxed);
    if n > 0 {
        n
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }
}

#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("global thread pool already initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder` for global-pool sizing.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` keeps the default (available parallelism), matching rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Install the thread count globally. Unlike real rayon this shim
    /// allows re-initialization; the last call wins. Shrinking leaves
    /// surplus helpers asleep: a call queues work for at most
    /// `current_num_threads() - 1` of them.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// `&'a collection -> parallel iterator` entry point (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { items: self }
    }
}

/// Minimal parallel-iterator trait: only the adaptors the workspace uses.
pub trait ParallelIterator: Sized {
    type Item: Send;

    /// Execute the pipeline, producing items in input order.
    fn run(self) -> Vec<Self::Item>;

    fn map<O, F>(self, f: F) -> ParMap<Self, F>
    where
        O: Send,
        F: Fn(Self::Item) -> O + Sync,
    {
        ParMap { base: self, f }
    }

    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.run().into_iter().collect()
    }
}

pub struct ParSlice<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;
    fn run(self) -> Vec<&'a T> {
        self.items.iter().collect()
    }
}

pub struct ParMap<B, F> {
    base: B,
    f: F,
}

impl<'a, T, O, F> ParallelIterator for ParMap<ParSlice<'a, T>, F>
where
    T: Sync,
    O: Send,
    F: Fn(&'a T) -> O + Sync,
{
    type Item = O;

    fn run(self) -> Vec<O> {
        map_in(&POOL, current_num_threads(), self.base.items, &self.f)
    }
}

/// Chunks per participating thread: more than one lets a helper that
/// wakes late still take a fair share.
const CHUNKS_PER_THREAD: usize = 4;

type Panic = Box<dyn Any + Send>;

/// One call's claim loop: run chunks until none remain, returning the
/// panic that stopped it, if any.
type Work<'a> = dyn Fn() -> Option<Panic> + Sync + 'a;

/// `f` over `items` on the calling thread plus up to `threads - 1`
/// helpers of `pool`, in input order.
fn map_in<'a, T, O, F>(pool: &'static Pool, threads: usize, items: &'a [T], f: &F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&'a T) -> O + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 || IS_HELPER.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads.saturating_mul(CHUNKS_PER_THREAD));
    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    {
        // Each chunk's lock is taken once, by whichever thread claims it.
        let chunks: Vec<Mutex<_>> = items
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .map(Mutex::new)
            .collect();
        let cursor = AtomicUsize::new(0);
        // The cursor hands out indices and publishes nothing: each
        // chunk's data is published by its own lock and by the job's.
        let work = || {
            panic::catch_unwind(AssertUnwindSafe(|| {
                while let Some(c) = chunks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let (input, output) = &mut *lock(c);
                    for (slot, item) in output.iter_mut().zip(input.iter()) {
                        *slot = Some(f(item));
                    }
                }
            }))
            .err()
            .inspect(|_| cursor.store(chunks.len(), Ordering::Relaxed))
        };
        if let Some(p) = pool.run(threads - 1, &work) {
            panic::resume_unwind(p);
        }
    }
    out.into_iter()
        .map(|o| o.expect("every chunk ran"))
        .collect()
}

thread_local! {
    /// Set on pool helpers: a map they issue runs inline.
    static IS_HELPER: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide pool behind every `par_iter` map.
static POOL: Pool = Pool::new();

/// Helper threads fed from one ticket queue.
struct Pool {
    state: Mutex<PoolState>,
    /// Signaled once per ticket queued.
    ready: Condvar,
}

struct PoolState {
    tickets: VecDeque<Ticket>,
    /// Helpers spawned so far; they never exit.
    helpers: usize,
}

/// One helper's share of a call: run the call's claim loop.
struct Ticket {
    job: Arc<Job>,
    work: &'static Work<'static>,
}

/// Completion state of one call, shared with the helpers that took its
/// tickets. A helper holds its own `Arc`, so it can still signal here
/// after the caller has returned.
#[derive(Default)]
struct Job {
    state: Mutex<JobState>,
    /// Signaled when the last running helper finishes.
    idle: Condvar,
}

#[derive(Default)]
struct JobState {
    /// Helpers that took a ticket and have not finished it.
    running: usize,
    /// The first panic a helper caught.
    panic: Option<Panic>,
}

/// Pool and job state change only in steps that cannot panic, and a
/// chunk's lock is taken once, so a poisoned guard never exposes
/// half-updated data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            state: Mutex::new(PoolState {
                tickets: VecDeque::new(),
                helpers: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Run `work` on the calling thread and on up to `helpers` pool
    /// threads at once; return the first panic any of them caught.
    /// `work` must catch its own panics.
    fn run(&'static self, helpers: usize, work: &Work<'_>) -> Option<Panic> {
        let job = Arc::new(Job::default());
        // SAFETY: a helper calls `work` only through a ticket it took
        // from the queue, and it registers on `job` (`running += 1`)
        // under the pool lock it took the ticket under. Below, `withdraw`
        // removes every ticket still queued, under that same lock, and
        // `wait_idle` then blocks until no registered helper is running.
        // Neither `work` (it catches panics) nor the steps between can
        // unwind, so no helper touches `work` or the chunks it borrows
        // after this function returns.
        let work: &'static Work<'static> = unsafe { std::mem::transmute(work) };
        self.submit(&job, work, helpers);
        let own = work();
        self.withdraw(&job);
        let helper = job.wait_idle();
        own.or(helper)
    }

    /// Queue `count` tickets for `job`, first growing the pool to
    /// `count` helpers. A failed spawn leaves the work to the caller.
    fn submit(&'static self, job: &Arc<Job>, work: &'static Work<'static>, count: usize) {
        let mut s = lock(&self.state);
        while s.helpers < count {
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-{}", s.helpers))
                .spawn(move || self.helper_loop());
            // Helpers run until the process exits and catch every chunk
            // panic, so dropping the handle hides nothing.
            if spawned.is_err() {
                break;
            }
            s.helpers += 1;
        }
        for _ in 0..count {
            s.tickets.push_back(Ticket {
                job: Arc::clone(job),
                work,
            });
        }
        drop(s);
        for _ in 0..count {
            self.ready.notify_one();
        }
    }

    /// Drop `job`'s tickets that no helper has taken.
    fn withdraw(&self, job: &Arc<Job>) {
        lock(&self.state)
            .tickets
            .retain(|t| !Arc::ptr_eq(&t.job, job));
    }

    fn helper_loop(&self) {
        IS_HELPER.with(|h| h.set(true));
        let mut s = lock(&self.state);
        loop {
            let Some(Ticket { job, work }) = s.tickets.pop_front() else {
                s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            // Registered before the pool lock is released, so a caller's
            // `withdraw` either removed this ticket or sees it running.
            lock(&job.state).running += 1;
            drop(s);
            let panic = work();
            job.finish(panic);
            s = lock(&self.state);
        }
    }
}

impl Job {
    fn finish(&self, panic: Option<Panic>) {
        let mut s = lock(&self.state);
        s.running -= 1;
        if s.panic.is_none() {
            s.panic = panic;
        }
        if s.running == 0 {
            self.idle.notify_one();
        }
    }

    /// Block until no helper runs this job; take a helper's panic.
    fn wait_idle(&self) -> Option<Panic> {
        let mut s = lock(&self.state);
        while s.running > 0 {
            s = self.idle.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.panic.take()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{map_in, Pool, IS_HELPER};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    /// A pool of its own, so a test controls how many helpers exist.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn on_helper() -> bool {
        IS_HELPER.with(|h| h.get())
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let v: Vec<u64> = (0..257).collect();
        let base: Vec<u64> = v.par_iter().map(|&x| x.wrapping_mul(2654435761)).collect();
        // 7 grows the pool past 2; the trailing 2 re-initialises to a
        // smaller count with the surplus helpers still alive.
        for n in [1usize, 2, 7, 2] {
            crate::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .unwrap();
            let got: Vec<u64> = v.par_iter().map(|&x| x.wrapping_mul(2654435761)).collect();
            assert_eq!(got, base);
        }
        crate::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    #[test]
    fn empty_input() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn concurrent_callers_get_exact_in_order_results() {
        let pool = private_pool();
        std::thread::scope(|s| {
            for caller in 0..4u64 {
                s.spawn(move || {
                    let v: Vec<u64> = (0..1000).map(|x| x * 4 + caller).collect();
                    let want: Vec<u64> = v.iter().map(|&x| x * x + 1).collect();
                    for _ in 0..200 {
                        assert_eq!(map_in(pool, 3, &v, &|&x: &u64| x * x + 1), want);
                    }
                });
            }
        });
    }

    #[test]
    fn map_inside_a_map_completes() {
        let pool = private_pool();
        let outer: Vec<u64> = (0..64).collect();
        let got = map_in(pool, 2, &outer, &|&x: &u64| {
            let inner: Vec<u64> = (0..x).collect();
            map_in(pool, 2, &inner, &|&y: &u64| y + 1)
                .into_iter()
                .sum::<u64>()
        });
        let want: Vec<u64> = outer.iter().map(|&x| x * (x + 1) / 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn panic_reaches_the_caller_after_started_chunks_finish() {
        let pool = private_pool();
        let held = Barrier::new(2);
        let helper_done = AtomicBool::new(false);
        let v = [0u32, 1];
        // One chunk per item; the caller's chunk panics only once the
        // helper has started the other one.
        let err = std::panic::catch_unwind(|| {
            map_in(pool, 2, &v, &|_: &u32| {
                held.wait();
                if on_helper() {
                    helper_done.store(true, Ordering::SeqCst);
                    0
                } else {
                    panic!("chunk failed")
                }
            })
        })
        .expect_err("the panic is re-raised");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"chunk failed"));
        assert!(helper_done.load(Ordering::SeqCst));
        // A panic on the helper's side reaches the caller too.
        let err = std::panic::catch_unwind(|| {
            map_in(pool, 2, &v, &|_: &u32| {
                held.wait();
                if on_helper() {
                    panic!("helper chunk failed")
                }
                0
            })
        })
        .expect_err("the helper's panic is re-raised");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"helper chunk failed"));
        // The pool still works.
        let w: Vec<u32> = (0..100).collect();
        assert_eq!(
            map_in(pool, 2, &w, &|&x: &u32| x + 1),
            (1..101).collect::<Vec<_>>()
        );
    }

    #[test]
    fn caller_finishes_while_the_only_helper_is_held() {
        let pool = private_pool();
        // A's caller, the helper and this thread meet at `held`.
        let held = Barrier::new(3);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                // Two one-item chunks: the caller's waits until the
                // helper holds the other, which waits for `release`.
                map_in(pool, 2, &[1u32, 2], &|&x: &u32| {
                    held.wait();
                    if on_helper() {
                        release.wait();
                    }
                    x * 10
                })
            });
            held.wait();
            // The pool's only helper is now held by A's chunk.
            let v: Vec<u32> = (0..100).collect();
            assert_eq!(
                map_in(pool, 2, &v, &|&x: &u32| x * 3),
                (0..100).map(|x| x * 3).collect::<Vec<_>>()
            );
            release.wait();
            assert_eq!(a.join().unwrap(), vec![10, 20]);
        });
    }
}
