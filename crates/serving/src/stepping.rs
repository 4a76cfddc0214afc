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
//! * **Hand-off.** Each worker has two `std::sync::mpsc` channels: its
//!   works go out on one and come back computed on the other. A waiting
//!   side polls its channel a bounded number of times, yielding its core
//!   on each, then blocks in `recv`. A tick's compute phase is tens of
//!   microseconds, so a worker between two ticks is normally still
//!   polling when the next plan arrives; an idle cluster blocks it.
//!   Dropping the pool closes the job channels, which ends the workers.
//! * **Panics.** A compute phase's panic, on a worker or on the calling
//!   thread, is caught; the calling thread re-raises the first once every
//!   worker has handed its works back, so the pool is ready for the next
//!   tick.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, RecvError, Sender, TryRecvError};
use std::thread::{self, JoinHandle};

use veda::StepWork;

/// Times a waiting side polls its channel before it blocks, yielding its
/// core after each empty poll. Counted in polls because the library reads
/// no clock: at ≈ 0.35 µs per yield on an otherwise idle core this is
/// ≈ 0.35 ms, a few cluster ticks of the serving workloads, so a worker
/// waiting for the next tick's plan does not block (waking a blocked
/// thread costs more than a tick's hand-off should), while a cluster with
/// nothing to step blocks it soon. Yielding instead of a busy spin hint
/// matters when threads outnumber cores — two clusters stepping at once
/// — because the poller then hands its core to the thread it waits for;
/// a busy spin made two concurrent 4-shard clusters ≈ 7× slower on two
/// cores.
const SPIN_LIMIT: u32 = 1 << 10;

/// What the pool computes: a shard's planned engine tick ([`StepWork`]),
/// or a stand-in in the pool's tests.
pub(crate) trait Work: Send + 'static {
    /// The host cost of computing the work, to the first order.
    fn rows(&self) -> usize;
    /// Computes the work in place.
    fn compute(&mut self);
}

impl Work for StepWork {
    fn rows(&self) -> usize {
        StepWork::rows(self)
    }

    fn compute(&mut self) {
        StepWork::compute(self);
    }
}

/// `(shard, work)` pairs: planned on the way out, computed on the way
/// back.
type Batch<W> = Vec<(usize, W)>;

/// A compute phase's panic payload.
type Panic = Box<dyn Any + Send>;

struct Worker<W> {
    jobs: Sender<Batch<W>>,
    /// The worker's computed batches, each with its compute phase's panic.
    done: Receiver<(Batch<W>, Option<Panic>)>,
    handle: JoinHandle<()>,
}

/// The cluster's persistent step workers (see the [module docs](self)).
pub(crate) struct StepPool<W = StepWork> {
    /// Thread count to use instead of `available_parallelism`.
    threads: Option<usize>,
    workers: Vec<Worker<W>>,
    spawned: bool,
}

impl<W> Default for StepPool<W> {
    fn default() -> Self {
        Self { threads: None, workers: Vec::new(), spawned: false }
    }
}

impl<W: Work> StepPool<W> {
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
    /// [`Work::rows`], ties to the lower shard) to the thread with the
    /// fewest rows so far (ties to the lower thread; thread 0 is the
    /// caller), so a tick with one stepping shard never leaves the calling
    /// thread.
    pub(crate) fn compute(&mut self, works: &mut [Option<W>]) {
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
        let mut busy = Vec::with_capacity(self.workers.len());
        for (t, worker) in self.workers.iter().enumerate() {
            let theirs = works.iter_mut().zip(&owner).enumerate().filter(|(_, (_, &thread))| thread == t + 1);
            let batch: Batch<W> =
                theirs.filter_map(|(shard, (work, _))| Some((shard, work.take()?))).collect();
            if batch.is_empty() {
                continue;
            }
            match worker.jobs.send(batch) {
                Ok(()) => busy.push(worker),
                // A worker that is gone leaves its works to the caller.
                Err(mpsc::SendError(batch)) => restore(works, batch),
            }
        }
        let mut panicked = compute_all(works.iter_mut().flatten());
        for worker in busy {
            // A worker catches its works' panics, so it answers every
            // batch it takes while the pool lives.
            if let Ok((batch, panic)) = recv(&worker.done) {
                restore(works, batch);
                panicked = panicked.or(panic);
            }
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
            let (jobs, inbox) = mpsc::channel::<Batch<W>>();
            let (outbox, done) = mpsc::channel();
            let spawned = thread::Builder::new().name(format!("veda-step-{t}")).spawn(move || {
                while let Ok(mut batch) = recv(&inbox) {
                    let panicked = compute_all(batch.iter_mut().map(|(_, work)| work));
                    if outbox.send((batch, panicked)).is_err() {
                        break;
                    }
                }
            });
            match spawned {
                Ok(handle) => self.workers.push(Worker { jobs, done, handle }),
                Err(_) => break,
            }
        }
    }
}

impl<W> Drop for StepPool<W> {
    fn drop(&mut self) {
        for Worker { jobs, handle, .. } in self.workers.drain(..) {
            // Closing its job channel ends the worker's loop; a worker
            // never panics outside its caught compute phase.
            drop(jobs);
            let _ = handle.join();
        }
    }
}

/// Computes `works` in turn. A panic stops the run: its payload is
/// returned, and the works after it stay uncomputed.
fn compute_all<'a, W: Work>(works: impl Iterator<Item = &'a mut W>) -> Option<Panic> {
    panic::catch_unwind(AssertUnwindSafe(|| works.for_each(W::compute))).err()
}

/// Puts each computed work of `batch` back in its shard's place.
fn restore<W>(works: &mut [Option<W>], batch: Batch<W>) {
    for (shard, work) in batch {
        if let Some(place) = works.get_mut(shard) {
            *place = Some(work);
        }
    }
}

/// The next message on `channel`: polls it up to [`SPIN_LIMIT`] times,
/// yielding the core after each empty poll, then blocks. An error once
/// the other side has hung up and nothing is left to take.
fn recv<T>(channel: &Receiver<T>) -> Result<T, RecvError> {
    for _ in 0..SPIN_LIMIT {
        match channel.try_recv() {
            Err(TryRecvError::Empty) => thread::yield_now(),
            received => return received.map_err(|_| RecvError),
        }
    }
    channel.recv()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    use veda::{EngineBuilder, PrefixCacheConfig, Request};
    use veda_eviction::PolicyKind;
    use veda_model::ModelConfig;

    use super::{StepPool, Work};
    use crate::{
        Cluster, ClusterConfig, ClusterReport, FaultConfig, FaultPlan, MigrationConfig, RouterKind,
        SchedKind, ServingRequest, SinkHandle, TraceEvent, Workload,
    };

    /// A stand-in work: it remembers its shard and the threads that
    /// computed it, and panics with its shard in the message if asked to.
    #[derive(Debug)]
    struct Fake {
        shard: usize,
        rows: usize,
        panics: bool,
        computed_on: Vec<ThreadId>,
    }

    impl Work for Fake {
        fn rows(&self) -> usize {
            self.rows
        }

        fn compute(&mut self) {
            self.computed_on.push(thread::current().id());
            if self.panics {
                panic!("fake work {} panicked", self.shard);
            }
        }
    }

    /// One tick's works: shard `s` is idle where `rows[s]` is `None` and
    /// planned with that many rows otherwise.
    fn plan(rows: &[Option<usize>]) -> Vec<Option<Fake>> {
        let fake = |(shard, rows): (usize, &Option<usize>)| {
            Some(Fake { shard, rows: (*rows)?, panics: false, computed_on: Vec::new() })
        };
        rows.iter().enumerate().map(fake).collect()
    }

    /// Asserts that every planned work came back to its own slot computed
    /// exactly once and that every idle slot stayed idle; returns the
    /// threads that computed the works.
    fn check(rows: &[Option<usize>], works: &[Option<Fake>]) -> HashSet<ThreadId> {
        assert_eq!(works.len(), rows.len());
        let mut threads = HashSet::new();
        for (shard, (rows, work)) in rows.iter().zip(works).enumerate() {
            match (rows, work) {
                (None, None) => {}
                (Some(_), Some(work)) => {
                    assert_eq!(work.shard, shard, "a work came back to another shard's slot");
                    assert_eq!(work.computed_on.len(), 1, "shard {shard}: computed {:?}", work.computed_on);
                    threads.extend(&work.computed_on);
                }
                _ => panic!("shard {shard}: planned {rows:?}, got back {work:?}"),
            }
        }
        threads
    }

    /// Every planned work is computed exactly once and comes back to its
    /// own slot, idle shards stay idle, and each tick uses as many threads
    /// as it has works, up to the pool's, the caller's always among them.
    #[test]
    fn pool_computes_every_work_once_in_its_own_slot() {
        let ticks: [&[Option<usize>]; 6] = [
            &[None, None, Some(4), None, None, None],
            &[None; 6],
            &[Some(3), None, Some(1), Some(2), None, Some(5)],
            &[Some(1); 6],
            &[Some(7), Some(2), None, None, Some(9), None],
            &[None, Some(1), None, None, None, None],
        ];
        for threads in 1..=4 {
            let mut pool = StepPool::with_threads(threads);
            for (tick, rows) in ticks.into_iter().enumerate() {
                let mut works = plan(rows);
                pool.compute(&mut works);
                let used = check(rows, &works);
                let planned = rows.iter().flatten().count();
                // Spawned at the first tick on which two shards step.
                assert_eq!(pool.workers(), if tick < 2 { 0 } else { threads - 1 }, "tick {tick}");
                assert_eq!(used.len(), planned.min(threads), "{threads} threads, tick {tick}");
                assert!(planned == 0 || used.contains(&thread::current().id()), "tick {tick}");
            }
        }
    }

    /// A panic in a compute phase — on a worker or on the caller — is
    /// re-raised on the caller with its own payload, once, after every
    /// worker has handed its works back; the next tick is clean.
    #[test]
    fn a_compute_panic_is_re_raised_once_after_every_work_is_back() {
        // At four threads these rows deal shard `s` to thread `s`.
        let rows = [Some(4), Some(3), Some(2), Some(1)];
        let mut pool = StepPool::with_threads(4);
        for panicking in [&[2][..], &[1, 3], &[0], &[0, 2]] {
            let mut works = plan(&rows);
            for work in works.iter_mut().flatten().filter(|work| panicking.contains(&work.shard)) {
                work.panics = true;
            }
            let payload = panic::catch_unwind(AssertUnwindSafe(|| pool.compute(&mut works)))
                .expect_err("a work panicked");
            // The caller's panic first, then the workers' in thread order.
            let first = format!("fake work {} panicked", panicking[0]);
            assert_eq!(payload.downcast_ref::<String>(), Some(&first));
            assert_eq!(check(&rows, &works).len(), 4);

            let mut works = plan(&rows);
            pool.compute(&mut works);
            assert_eq!(check(&rows, &works).len(), 4, "after panics in {panicking:?}");
        }
    }

    /// Dropping the pool joins every worker, whether the last tick
    /// panicked or not and whether the workers still poll or already
    /// block.
    #[test]
    fn the_pool_drops_without_hanging() {
        for (panics, idle) in [(false, false), (true, false), (false, true), (true, true)] {
            let (dropped, done) = mpsc::channel();
            thread::spawn(move || {
                let rows = [Some(2), Some(1), Some(1)];
                let mut pool = StepPool::with_threads(3);
                let mut works = plan(&rows);
                for work in works.iter_mut().flatten().skip(1) {
                    work.panics = panics;
                }
                let ticked = panic::catch_unwind(AssertUnwindSafe(|| pool.compute(&mut works)));
                assert_eq!((ticked.is_err(), pool.workers()), (panics, 2));
                if idle {
                    // Long past the polls: the workers block in `recv`.
                    thread::sleep(Duration::from_millis(50));
                }
                drop(pool);
                dropped.send(()).expect("the test waits");
            });
            let outcome = done.recv_timeout(Duration::from_secs(30));
            assert_eq!(outcome, Ok(()), "panicking tick: {panics}, idle workers: {idle}");
        }
    }

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
