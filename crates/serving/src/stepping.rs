//! The cluster's step workers: persistent threads that run the compute
//! phase of each stepping shard's engine tick ([`StepWork::compute`])
//! while the cluster's own thread keeps every plan and every commit.
//!
//! One [`crate::Cluster::tick`] plans every shard's engine tick in shard
//! order on the calling thread, hands each plan to its thread, computes
//! its own share, collects the rest and then commits shard by shard, in
//! index order, on the calling thread again. A plan crosses threads as an
//! owned [`StepWork`] and comes back the same way; the compute phase emits
//! no trace event and touches nothing outside its work, so every report,
//! token stream and trace byte is identical for any thread count.
//!
//! * **Worker count.** The pool spawns `min(available_parallelism,
//!   shards) − 1` workers at the first tick on which two shards step —
//!   never at construction, so a cluster that is only built (or only ever
//!   steps one shard) starts no thread — and joins them when the cluster
//!   is dropped. The calling thread is the pool's thread 0.
//! * **Placement.** Each tick deals the planned works heaviest first, by
//!   the rows their forward passes carry ([`StepWork::rows`]), to the
//!   thread with the fewest rows so far. Balancing every tick beats a
//!   fixed shard → thread map: the load of a shard swings from tick to
//!   tick, and a fixed map leaves one thread waiting on the other. A
//!   shard's sessions do not move when it changes thread (the engine
//!   keeps them in place across ticks), so a change costs only the cache
//!   misses of the data its forward pass reads.
//! * **Hand-off.** A waiting side spins a bounded number of iterations,
//!   yielding its core on each, then parks. A tick's compute phase is
//!   tens of microseconds, so a worker between two ticks is normally
//!   still spinning when the next plan arrives; an idle cluster parks it.
//! * **Panics.** A worker catches a compute phase's panic and hands it
//!   back; the calling thread re-raises it once every worker is collected.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};

use veda::StepWork;

/// Iterations a waiting side spins before it parks its thread, each one
/// a `yield_now`. Counted in iterations because the library reads no
/// clock: at ≈ 0.35 µs per yield on an otherwise idle core this is
/// ≈ 0.35 ms, a few cluster ticks of the serving workloads, so a worker
/// waiting for the next tick's plan is not parked (waking a parked thread
/// costs more than a tick's hand-off should), while a cluster with
/// nothing to step parks it soon. Yielding instead of a busy spin hint
/// matters when threads outnumber cores — two clusters stepping at once
/// — because the spinner then hands its core to the thread it waits for;
/// a busy spin made two concurrent 4-shard clusters ≈ 7× slower on two
/// cores.
const SPIN_LIMIT: u32 = 1 << 10;

/// Slot states. A slot starts `DONE` (nothing outstanding). The job
/// itself sits behind its mutex; the state only says whose turn it is.
/// The caller's `Release` store of `READY` pairs with the worker's
/// `Acquire` load, and the worker's `AcqRel` exchange to `DONE` with the
/// caller's `Acquire` load, so each side sees the other's job once its
/// turn comes.
const READY: u8 = 0;
const DONE: u8 = 1;
const EXIT: u8 = 2;

/// What crosses between the calling thread and one worker.
#[derive(Default)]
struct Job {
    /// `(shard, work)` pairs: planned on the way out, computed on the way
    /// back.
    works: Vec<(usize, StepWork)>,
    /// A compute phase's panic, for the calling thread to re-raise.
    panic: Option<Box<dyn Any + Send>>,
    /// The thread to wake once the works are computed.
    caller: Option<Thread>,
}

/// One worker's mailbox: the job, and the state that says whose turn it
/// is (`READY`: the worker's; `DONE`: the caller's; `EXIT`: stop).
struct Slot {
    state: AtomicU8,
    job: Mutex<Job>,
}

struct Worker {
    slot: Arc<Slot>,
    handle: JoinHandle<()>,
}

/// The cluster's persistent step workers (see the [module docs](self)).
#[derive(Default)]
pub(crate) struct StepPool {
    /// Thread count to use instead of `available_parallelism`.
    threads: Option<usize>,
    workers: Vec<Worker>,
    spawned: bool,
}

impl StepPool {
    /// A pool that steps on `threads` threads (the caller's included)
    /// instead of one per available core.
    #[cfg(test)]
    pub(crate) fn with_threads(threads: usize) -> Self {
        Self { threads: Some(threads), workers: Vec::new(), spawned: false }
    }

    /// Workers spawned so far.
    #[cfg(test)]
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Computes every planned work of `works` (indexed by shard) and puts
    /// it back in place. The works are dealt heaviest first (by
    /// [`StepWork::rows`], ties to the lower shard) to the thread with the
    /// fewest rows so far (ties to the lower thread; thread 0 is the
    /// caller), so a tick with one stepping shard never leaves the calling
    /// thread.
    pub(crate) fn compute(&mut self, works: &mut [Option<StepWork>]) {
        if !self.spawned && works.iter().flatten().count() >= 2 {
            self.spawn(works.len());
        }
        let threads = self.workers.len() + 1;
        let mut heaviest: Vec<(usize, usize)> = works
            .iter()
            .enumerate()
            .filter_map(|(shard, work)| Some((work.as_ref()?.rows(), shard)))
            .collect();
        heaviest.sort_unstable_by_key(|&(rows, shard)| (std::cmp::Reverse(rows), shard));
        let mut load = vec![0; threads];
        let mut owner = vec![0; works.len()];
        for (rows, shard) in heaviest {
            // `min_by_key` keeps the first minimum: ties go to the lower thread.
            if let (Some((thread, least)), Some(owner)) =
                (load.iter_mut().enumerate().min_by_key(|(_, load)| **load), owner.get_mut(shard))
            {
                *least += rows;
                *owner = thread;
            }
        }
        for (t, worker) in self.workers.iter().enumerate() {
            let mut job = lock(&worker.slot.job);
            let theirs = works.iter_mut().zip(&owner).enumerate().filter(|(_, (_, &thread))| thread == t + 1);
            job.works.extend(theirs.filter_map(|(shard, (work, _))| Some((shard, work.take()?))));
            if job.works.is_empty() {
                continue;
            }
            job.caller = Some(thread::current());
            drop(job);
            worker.slot.state.store(READY, Ordering::Release);
            worker.handle.thread().unpark();
        }
        for work in works.iter_mut().flatten() {
            work.compute();
        }
        let mut panicked = None;
        for worker in &self.workers {
            wait(&worker.slot.state, |state| state == DONE);
            let mut job = lock(&worker.slot.job);
            for (shard, work) in job.works.drain(..) {
                if let Some(place) = works.get_mut(shard) {
                    *place = Some(work);
                }
            }
            panicked = panicked.or(job.panic.take());
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }

    /// Starts the workers for a cluster of `shards` shards. A worker the
    /// host refuses to start leaves the pool smaller, never wrong.
    fn spawn(&mut self, shards: usize) {
        self.spawned = true;
        let threads = self
            .threads
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
            .min(shards);
        for t in 1..threads {
            let slot = Arc::new(Slot { state: AtomicU8::new(DONE), job: Mutex::default() });
            let mailbox = Arc::clone(&slot);
            let spawned = thread::Builder::new().name(format!("veda-step-{t}")).spawn(move || loop {
                if wait(&mailbox.state, |state| state != DONE) == EXIT {
                    break;
                }
                let mut job = std::mem::take(&mut *lock(&mailbox.job));
                let computed = panic::catch_unwind(AssertUnwindSafe(|| {
                    for (_, work) in &mut job.works {
                        work.compute();
                    }
                }));
                job.panic = computed.err();
                let caller = job.caller.take();
                *lock(&mailbox.job) = job;
                if mailbox.state.compare_exchange(READY, DONE, Ordering::AcqRel, Ordering::Acquire).is_err() {
                    break;
                }
                if let Some(caller) = caller {
                    caller.unpark();
                }
            });
            match spawned {
                Ok(handle) => self.workers.push(Worker { slot, handle }),
                Err(_) => break,
            }
        }
    }
}

impl Drop for StepPool {
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.slot.state.store(EXIT, Ordering::Release);
            worker.handle.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            // A worker never panics outside its caught compute phase.
            let _ = worker.handle.join();
        }
    }
}

/// Spins (yielding the core on each turn), then parks, until `state`
/// satisfies `until`; returns the state it saw. The thread that changes `state` unparks the waiter afterwards,
/// and a park returns at once if that unpark came first, so no wake-up
/// is lost.
fn wait(state: &AtomicU8, until: impl Fn(u8) -> bool) -> u8 {
    let mut spins = 0;
    loop {
        let seen = state.load(Ordering::Acquire);
        if until(seen) {
            return seen;
        }
        if spins < SPIN_LIMIT {
            spins += 1;
            thread::yield_now();
        } else {
            thread::park();
        }
    }
}

/// Locks a job. A job's lock is never held across a compute phase, so a
/// poisoned lock still holds consistent data.
fn lock(job: &Mutex<Job>) -> MutexGuard<'_, Job> {
    job.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use veda::{EngineBuilder, PrefixCacheConfig, Request};
    use veda_eviction::PolicyKind;
    use veda_model::ModelConfig;

    use crate::{
        Cluster, ClusterConfig, ClusterReport, FaultConfig, FaultPlan, MigrationConfig, RouterKind,
        SchedKind, ServingRequest, SinkHandle, TraceEvent, Workload,
    };

    /// One cell of the matrix: which planes are on.
    #[derive(Debug, Clone, Copy)]
    struct Cell {
        shards: usize,
        migrate: bool,
        faults: bool,
        spill: bool,
        decode_threads: usize,
    }

    /// Two arrivals per tick for twelve ticks, alternating large and small
    /// so that round-robin loads the even shards hot (migration), over
    /// three shared prefixes (prefix hits, spill and fill), three
    /// priorities and every eviction policy.
    fn workload() -> Workload {
        let arrivals = (0..24usize)
            .map(|i| {
                let (suffix, max_new_tokens) = if i % 2 == 0 { (18, 10) } else { (2, 4) };
                let mut prompt: Vec<usize> = (0..12).map(|j| (i % 3) * 12 + j + 1).collect();
                prompt.extend((0..suffix).map(|j| (i * 5 + 3 * j) % 50 + 1));
                let policy = PolicyKind::ALL[i % PolicyKind::ALL.len()];
                let request = Request::new(prompt, max_new_tokens).policy(policy);
                ((i / 2) as u64, ServingRequest { request, priority: (i % 3) as u8 })
            })
            .collect();
        Workload::trace(arrivals)
    }

    fn run(cell: Cell, step_threads: usize) -> (ClusterReport, Vec<TraceEvent>, usize) {
        let engines = (0..cell.shards)
            .map(|_| {
                let mut builder = EngineBuilder::new()
                    .model(ModelConfig::tiny())
                    .prefill_chunk(4)
                    .decode_threads(cell.decode_threads);
                if cell.spill {
                    builder = builder.prefix_cache(PrefixCacheConfig {
                        min_match_tokens: 4,
                        max_entries: 8,
                        max_bytes: 13 << 10,
                        ttl_ticks: 10,
                        spill: true,
                    });
                }
                builder.build().expect("valid engine")
            })
            .collect();
        let faults = cell.faults.then(|| FaultConfig {
            plan: FaultPlan::parse("crash@6:shard=1:recover=30").expect("valid plan"),
            ttft_deadline: Some(40),
            e2e_deadline: Some(120),
            shed_watermark: Some(0.3),
            ..FaultConfig::default()
        });
        let (sink, recorder) = SinkHandle::recording();
        let config = ClusterConfig {
            shards: cell.shards,
            per_shard_capacity_bytes: 20 << 10,
            max_queue_depth: 8,
            router: RouterKind::RoundRobin,
            sched: SchedKind::Priority,
            migration: cell.migrate.then_some(MigrationConfig {
                hot_fraction: 0.5,
                cold_fraction: 0.5,
                max_per_tick: 1,
            }),
            trace: Some(sink),
            faults,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(engines, workload(), config);
        cluster.set_step_threads(step_threads);
        while !cluster.is_done() && cluster.now() < 100_000 {
            cluster.tick();
        }
        let workers = cluster.step_workers();
        let report = cluster.run();
        let events = recorder.lock().expect("recorder lock").take_events();
        (report, events, workers)
    }

    /// Thread-count invariance of the cluster's step workers: the same
    /// cluster stepped on one thread, on two and on one per shard produces
    /// the same `ClusterReport` and the same trace event sequence, with
    /// every plane the commit phase serves switched on and off.
    #[test]
    fn cluster_runs_are_identical_at_any_step_thread_count() {
        let (mut migrations, mut retries, mut timeouts, mut shed, mut spills) = (0, 0, 0, 0, 0);
        for shards in [2, 4] {
            for migrate in [false, true] {
                for faults in [false, true] {
                    for spill in [false, true] {
                        for decode_threads in [1, 2] {
                            let cell = Cell { shards, migrate, faults, spill, decode_threads };
                            let (report, events, workers) = run(cell, 1);
                            assert_eq!(workers, 0, "{cell:?}: one step thread spawns no worker");
                            // Two threads, and one per shard.
                            for threads in if shards > 2 { vec![2, shards] } else { vec![2] } {
                                let (other, other_events, workers) = run(cell, threads);
                                assert_eq!(workers, threads - 1, "{cell:?}");
                                assert!(
                                    report == other,
                                    "{cell:?}: report differs at {threads} step threads"
                                );
                                assert!(
                                    events == other_events,
                                    "{cell:?}: trace differs at {threads} step threads"
                                );
                            }
                            migrations += report.migrations;
                            retries += report.retries;
                            timeouts += report.timeouts;
                            shed += report.shed;
                            spills += report.prefix_churn().2;
                        }
                    }
                }
            }
        }
        // The matrix reaches every path it claims to cover.
        assert!(
            migrations > 0 && retries > 0 && timeouts > 0 && shed > 0 && spills > 0,
            "{:?}",
            (migrations, retries, timeouts, shed, spills)
        );
    }
}
