//! The request-batching core: concurrent generation requests for one
//! model are coalesced into a single fused
//! [`generate_batch`](tsgb_methods::TsgMethod::generate_batch) call,
//! which runs on the thread of one of the requests it serves. The
//! batcher owns no thread.
//!
//! Correctness rests on the `generate_batch` contract (bit-exact
//! equivalence with one serial `generate` per request), so batching is
//! *invisible* to clients: the response for `(n, seed)` is identical
//! at every batch size. Batching is natural. A submit that finds the
//! model idle runs its job at once, alone, on the submitting thread;
//! one that finds a batch running queues its job and waits. When a
//! batch ends, its thread answers the batch's jobs and wakes exactly
//! one more submitter, the oldest still queued, which runs every queued
//! job up to `max_batch` (a [`ServeConfig`] field), its own first, as
//! the next batch. So the jobs that queue during one forward pass form
//! the next batch, batches grow with the load, and no batch ever waits
//! for a job that may not come.
//!
//! A panic in a model is isolated to the request that causes it. The
//! fused forward pass runs under `catch_unwind`; when it panics, each
//! job of the batch is re-run alone, and a job that still panics is
//! answered with [`JobOutcome::Failed`] (HTTP 500) and counted in the
//! `serve.panics` counter. The other jobs get exactly what they would
//! have got unbatched. Whatever way a batch's thread leaves it, a
//! drop guard hands the batcher on or marks it idle, so no panic can
//! wedge it.
//!
//! Backpressure is explicit: the pending queue is bounded
//! (`queue_cap`), a full queue rejects at submit time
//! ([`SubmitError::QueueFull`] → HTTP 503), and jobs whose deadline
//! passed while queued are expired *before* the forward pass runs
//! ([`JobOutcome::Expired`] → HTTP 504) so a late client never costs
//! model compute.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tsgb_linalg::Tensor3;
use tsgb_methods::common::GenSpec;

use crate::registry::ModelEntry;
use crate::ServeConfig;

/// Terminal state of one submitted job.
#[derive(Debug)]
pub enum JobOutcome {
    /// The generated windows.
    Done(Tensor3),
    /// The job's deadline expired before its batch ran.
    Expired,
    /// The model panicked on this job, run alone.
    Failed,
}

/// Why a submit was rejected synchronously.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue is at capacity (HTTP 503).
    QueueFull {
        /// Jobs currently queued.
        depth: usize,
    },
    /// The batcher is draining for shutdown (HTTP 503).
    Draining,
}

/// What a queued job's submitter is woken with.
enum Wake {
    /// The job's outcome.
    Done(JobOutcome),
    /// Run the next batch, this job first.
    Lead,
}

struct Job {
    spec: GenSpec,
    deadline: Option<Instant>,
    tx: mpsc::Sender<Wake>,
}

struct Queue {
    jobs: VecDeque<Job>,
    /// A thread runs a batch, or has been woken to run the next one.
    /// While it is false the queue is empty.
    busy: bool,
    draining: bool,
}

/// A per-model request batcher.
pub struct Batcher {
    q: Mutex<Queue>,
    /// Signalled when the batcher goes idle while draining.
    idle: Condvar,
    cfg: ServeConfig,
    entry: Arc<ModelEntry>,
}

impl Batcher {
    /// A batcher for one model. It reads the batching fields of `cfg`:
    /// `max_batch`, `queue_cap` and `fwd_delay_ms`.
    pub fn new(entry: Arc<ModelEntry>, cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        Self {
            q: Mutex::new(Queue {
                jobs: VecDeque::new(),
                busy: false,
                draining: false,
            }),
            idle: Condvar::new(),
            cfg,
            entry,
        }
    }

    /// Runs one generation request, batched with the model's other
    /// requests, and returns its outcome. The job may run on the
    /// calling thread, with the jobs queued behind it, or on the thread
    /// of another job's submitter. Rejects synchronously when the queue
    /// is full or the batcher is draining.
    pub fn submit(
        &self,
        spec: GenSpec,
        deadline: Option<Instant>,
    ) -> Result<JobOutcome, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let lead = {
            let mut q = self.lock();
            if q.draining {
                return Err(SubmitError::Draining);
            }
            if q.jobs.len() >= self.cfg.queue_cap {
                return Err(SubmitError::QueueFull {
                    depth: q.jobs.len(),
                });
            }
            q.jobs.push_back(Job { spec, deadline, tx });
            tsgb_obs::gauge_set("serve.queue_depth", q.jobs.len() as f64);
            !std::mem::replace(&mut q.busy, true)
        };
        if lead {
            self.run_batch();
        }
        loop {
            match rx.recv() {
                Ok(Wake::Done(outcome)) => return Ok(outcome),
                Ok(Wake::Lead) => self.run_batch(),
                // the thread running this job's batch unwound before
                // answering it
                Err(_) => return Ok(JobOutcome::Failed),
            }
        }
    }

    /// Current pending-queue depth (introspection).
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Rejects every later submit and waits until every job already
    /// accepted has run (or expired per its own deadline) and been
    /// answered — none are dropped. Idempotent.
    pub fn drain(&self) {
        let mut q = self.lock();
        q.draining = true;
        while q.busy {
            q = self.idle.wait(q).expect("batch queue poisoned");
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.q.lock().expect("batch queue poisoned")
    }

    /// Runs the oldest queued job, on the thread that submitted it,
    /// together with the jobs behind it up to `max_batch`, and answers
    /// them all.
    fn run_batch(&self) {
        let _handoff = Handoff(self);
        let batch: Vec<Job> = {
            let mut q = self.lock();
            let take = q.jobs.len().min(self.cfg.max_batch);
            let batch = q.jobs.drain(..take).collect();
            tsgb_obs::gauge_set("serve.queue_depth", q.jobs.len() as f64);
            batch
        };
        let now = Instant::now();
        let (live, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|j| j.deadline.map(|d| now < d).unwrap_or(true));
        for job in expired {
            tsgb_obs::counter_add("serve.rejected", 1);
            let _ = job.tx.send(Wake::Done(JobOutcome::Expired));
        }
        let outcomes = if live.is_empty() {
            Vec::new()
        } else {
            self.forward(&live)
        };
        for (job, outcome) in live.into_iter().zip(outcomes) {
            // a submitter waits on `recv` until it is answered
            let _ = job.tx.send(Wake::Done(outcome));
        }
    }

    /// Runs one batch's fused forward pass, isolating panics: when the
    /// fused pass panics, each job is re-run alone, and only a job that
    /// panics on its own is [`JobOutcome::Failed`]. A model holds no
    /// state a panic can leave half-written (its sampling tapes are
    /// taken off a free list for the run and dropped on unwind), which
    /// is what makes re-running it sound.
    fn forward(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        tsgb_obs::observe("serve.batch_size", jobs.len() as f64);
        // fault injection (`TSGB_SERVE_FWD_DELAY_MS`; zero in production)
        if self.cfg.fwd_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.cfg.fwd_delay_ms));
        }
        let model = &self.entry.model;
        let run =
            |specs: &[GenSpec]| catch_unwind(AssertUnwindSafe(|| model.generate_batch(specs)));
        let specs: Vec<GenSpec> = jobs.iter().map(|j| j.spec).collect();
        let fwd = Instant::now();
        let fused = run(&specs);
        tsgb_obs::observe("serve.forward_ms", fwd.elapsed().as_secs_f64() * 1e3);
        if let Ok(outputs) = fused {
            debug_assert_eq!(outputs.len(), specs.len());
            return outputs.into_iter().map(JobOutcome::Done).collect();
        }
        specs
            .iter()
            .map(|spec| {
                let alone = if specs.len() > 1 {
                    run(std::slice::from_ref(spec)).ok()
                } else {
                    None
                };
                match alone.and_then(|mut out| out.pop()) {
                    Some(tensor) => JobOutcome::Done(tensor),
                    None => {
                        tsgb_obs::counter_add("serve.panics", 1);
                        JobOutcome::Failed
                    }
                }
            })
            .collect()
    }
}

/// Ends a batch however its thread leaves [`Batcher::run_batch`], a
/// panic included: wakes the oldest queued job's submitter to run the
/// next batch, or marks the batcher idle.
struct Handoff<'a>(&'a Batcher);

impl Drop for Handoff<'_> {
    fn drop(&mut self) {
        let batcher = self.0;
        let mut q = batcher.q.lock().unwrap_or_else(PoisonError::into_inner);
        match q.jobs.front() {
            // its submitter waits on `recv`, so the wake-up lands
            Some(next) => {
                let _ = next.tx.send(Wake::Lead);
            }
            None => {
                q.busy = false;
                if q.draining {
                    batcher.idle.notify_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelInfo, Registry};
    use std::thread::{self, ThreadId};
    use tsgb_linalg::rng::seeded;
    use tsgb_linalg::Tensor3;
    use tsgb_methods::common::serial_generate_batch;
    use tsgb_methods::persist::PersistError;
    use tsgb_methods::{MethodId, TrainConfig, TrainReport, TsgMethod};
    use tsgb_rand::rngs::SmallRng;

    fn entry() -> Arc<ModelEntry> {
        let data = Tensor3::from_fn(10, 8, 2, |s, t, f| {
            0.5 + 0.3 * ((t as f64) * 0.8 + s as f64 * 0.4 + f as f64).sin()
        });
        let mut m = MethodId::TimeVae.create(8, 2);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::fast()
        };
        m.fit(&data, &cfg, &mut seeded(5));
        let mut r = Registry::new();
        r.insert("m", m).unwrap();
        Arc::clone(r.get("m").unwrap())
    }

    fn cfg(max_batch: usize, queue_cap: usize) -> ServeConfig {
        ServeConfig {
            max_batch,
            queue_cap,
            ..ServeConfig::default()
        }
    }

    fn is_done(outcome: Result<JobOutcome, SubmitError>) -> bool {
        matches!(outcome, Ok(JobOutcome::Done(_)))
    }

    #[test]
    fn coalesced_output_matches_direct_generate() {
        let entry = entry();
        // the forward delay holds each batch while the others queue
        let b = Batcher::new(
            Arc::clone(&entry),
            ServeConfig {
                fwd_delay_ms: 20,
                ..cfg(8, 16)
            },
        );
        thread::scope(|scope| {
            for seed in 100..104 {
                let (b, entry) = (&b, &entry);
                scope.spawn(move || match b.submit(GenSpec { n: 2, seed }, None) {
                    Ok(JobOutcome::Done(t)) => {
                        let want = entry.model.generate(2, &mut seeded(seed));
                        assert_eq!(t.as_slice(), want.as_slice(), "request {seed}");
                    }
                    other => panic!("request {seed}: {other:?}"),
                });
            }
        });
        b.drain();
    }

    #[test]
    fn queue_overflow_rejects_synchronously() {
        let entry = entry();
        // capacity 0: every submit must bounce
        let b = Batcher::new(entry, cfg(1, 0));
        let err = b.submit(GenSpec { n: 1, seed: 1 }, None).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { depth: 0 });
        b.drain();
        assert_eq!(
            b.submit(GenSpec { n: 1, seed: 1 }, None).unwrap_err(),
            SubmitError::Draining
        );
    }

    #[test]
    fn expired_deadline_is_reported_not_executed() {
        let entry = entry();
        let b = Batcher::new(entry, cfg(4, 16));
        let outcome = b.submit(
            GenSpec { n: 1, seed: 9 },
            Some(Instant::now() - Duration::from_millis(1)),
        );
        assert!(matches!(outcome, Ok(JobOutcome::Expired)));
        b.drain();
    }

    /// The seed [`Recorder`] panics on whenever it is in a batch.
    const POISON: u64 = 13;

    /// The size of each batch the model ran, with its thread.
    type BatchLog = Arc<Mutex<Vec<(usize, ThreadId)>>>;

    /// A stub model that logs the size and the thread of every batch
    /// it runs, panics on [`POISON`], and can hold its first batch
    /// until the test releases it.
    struct Recorder {
        batches: BatchLog,
        gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl TsgMethod for Recorder {
        fn id(&self) -> MethodId {
            MethodId::Rgan
        }
        fn fit(&mut self, _: &Tensor3, _: &TrainConfig, _: &mut SmallRng) -> TrainReport {
            unreachable!("Recorder is never fitted")
        }
        fn generate(&self, n: usize, _: &mut SmallRng) -> Tensor3 {
            Tensor3::zeros(n, 2, 1)
        }
        fn generate_batch(&self, specs: &[GenSpec]) -> Vec<Tensor3> {
            let gate = self.gate.lock().unwrap().take();
            if let Some((entered, release)) = gate {
                entered.send(()).unwrap();
                release.recv().unwrap();
            }
            let log = (specs.len(), thread::current().id());
            self.batches.lock().unwrap().push(log);
            assert!(specs.iter().all(|s| s.seed != POISON), "poisoned batch");
            serial_generate_batch(self, specs)
        }
        fn save(&self) -> Option<Vec<u8>> {
            None
        }
        fn load(&mut self, _: &[u8]) -> Result<(), PersistError> {
            Ok(())
        }
    }

    /// A gated [`Recorder`] batcher (`max_batch` 4), its batch log, and
    /// the channels that tell when its first batch entered the model
    /// and let that batch go on.
    struct Gated {
        batcher: Batcher,
        batches: BatchLog,
        entered: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    fn gated(queue_cap: usize) -> Gated {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let model = Recorder {
            batches: Arc::clone(&batches),
            gate: Mutex::new(Some((entered_tx, release_rx))),
        };
        let entry = Arc::new(ModelEntry {
            info: ModelInfo {
                name: "rec".into(),
                method: "RGAN",
                seq_len: 2,
                features: 1,
            },
            model: Box::new(model),
        });
        Gated {
            batcher: Batcher::new(entry, cfg(4, queue_cap)),
            batches,
            entered,
            release,
        }
    }

    impl Gated {
        fn sizes(&self) -> Vec<usize> {
            self.batches.lock().unwrap().iter().map(|b| b.0).collect()
        }
    }

    /// Submits from a thread of its own each of `seeds`, one at a time
    /// in order, once the previous one has queued; returns the threads
    /// with their outcome checks.
    fn queue_up<'s>(
        scope: &'s thread::Scope<'s, '_>,
        b: &'s Batcher,
        seeds: std::ops::Range<u64>,
    ) -> Vec<thread::ScopedJoinHandle<'s, JobOutcome>> {
        seeds
            .map(|seed| {
                let depth = b.depth();
                let handle = scope.spawn(move || b.submit(GenSpec { n: 1, seed }, None).unwrap());
                while b.depth() == depth {
                    thread::yield_now();
                }
                handle
            })
            .collect()
    }

    /// Runs the gated batcher's first job, held in the model while four
    /// more queue behind it, then lets it go: the four run as one batch.
    /// Returns the threads that submitted the four.
    fn run_a_coalesced_batch(g: &Gated) -> Vec<ThreadId> {
        thread::scope(|scope| {
            let b = &g.batcher;
            let first = scope.spawn(move || b.submit(GenSpec { n: 1, seed: 0 }, None));
            g.entered.recv().unwrap();
            let queued = queue_up(scope, b, 1..5);
            let threads = queued.iter().map(|h| h.thread().id()).collect();
            g.release.send(()).unwrap();
            assert!(is_done(first.join().unwrap()));
            for h in queued {
                assert!(matches!(h.join().unwrap(), JobOutcome::Done(_)));
            }
            threads
        })
    }

    /// Submits one job, waits for it, and returns how long that took.
    fn run_alone(b: &Batcher, seed: u64) -> Duration {
        let started = Instant::now();
        assert!(is_done(b.submit(GenSpec { n: 1, seed }, None)));
        started.elapsed()
    }

    #[test]
    fn a_lone_job_runs_on_its_submitting_thread() {
        let g = gated(32);
        g.release.send(()).unwrap();
        run_alone(&g.batcher, 0);
        assert_eq!(
            *g.batches.lock().unwrap(),
            vec![(1, thread::current().id())]
        );
    }

    #[test]
    fn queued_jobs_run_as_one_batch_on_one_of_their_threads() {
        let g = gated(32);
        let submitters = run_a_coalesced_batch(&g);
        assert_eq!(g.sizes(), vec![1, 4]);
        let ran_on = g.batches.lock().unwrap()[1].1;
        assert!(
            submitters.contains(&ran_on),
            "the coalesced batch ran on a thread none of its jobs came from"
        );
        g.batcher.drain();
    }

    #[test]
    fn job_after_a_coalesced_batch_runs_at_once() {
        let g = gated(32);
        run_a_coalesced_batch(&g);
        let waited = run_alone(&g.batcher, 5);
        assert!(
            waited < Duration::from_millis(250),
            "a job submitted after a coalesced batch took {waited:?}"
        );
        g.batcher.drain();
    }

    #[test]
    fn queued_jobs_coalesce_and_lone_jobs_run_alone() {
        let g = gated(32);
        run_a_coalesced_batch(&g);
        for seed in 5..9 {
            run_alone(&g.batcher, seed);
        }
        g.batcher.drain();
        assert_eq!(g.sizes(), vec![1, 4, 1, 1, 1, 1]);
        let here = thread::current().id();
        assert!(g.batches.lock().unwrap()[2..].iter().all(|b| b.1 == here));
    }

    #[test]
    fn drain_with_a_batch_in_flight_answers_every_job() {
        // five queued jobs fill the queue, so a submit bounces at once,
        // with `QueueFull` until the drain has begun and `Draining` after
        let g = gated(5);
        thread::scope(|scope| {
            let b = &g.batcher;
            let first = scope.spawn(move || b.submit(GenSpec { n: 1, seed: 0 }, None));
            g.entered.recv().unwrap();
            let queued = queue_up(scope, b, 1..6);
            let drain = scope.spawn(move || b.drain());
            loop {
                match b.submit(GenSpec { n: 1, seed: 9 }, None) {
                    Err(SubmitError::Draining) => break,
                    Err(SubmitError::QueueFull { depth: 5 }) => thread::yield_now(),
                    other => panic!("a submit to a full queue: {other:?}"),
                }
            }
            assert!(!drain.is_finished(), "drain returned with jobs in flight");
            g.release.send(()).unwrap();
            assert!(is_done(first.join().unwrap()));
            for h in queued {
                assert!(matches!(h.join().unwrap(), JobOutcome::Done(_)));
            }
            drain.join().unwrap();
        });
        assert_eq!(g.sizes(), vec![1, 4, 1]);
    }

    #[test]
    fn a_fused_panic_fails_only_its_job_and_the_next_submit_runs() {
        let g = gated(32);
        thread::scope(|scope| {
            let b = &g.batcher;
            let first = scope.spawn(move || b.submit(GenSpec { n: 1, seed: 0 }, None));
            g.entered.recv().unwrap();
            let queued = queue_up(scope, b, 11..15);
            g.release.send(()).unwrap();
            assert!(is_done(first.join().unwrap()));
            for (seed, h) in (11..15).zip(queued) {
                let outcome = h.join().unwrap();
                if seed == POISON {
                    assert!(matches!(outcome, JobOutcome::Failed), "{outcome:?}");
                } else {
                    assert!(matches!(outcome, JobOutcome::Done(_)), "seed {seed}");
                }
            }
        });
        // the fused batch of four, then each of its jobs alone
        assert_eq!(g.sizes(), vec![1, 4, 1, 1, 1, 1]);
        run_alone(&g.batcher, 15);
        g.batcher.drain();
    }
}
