//! The request-batching core: one worker thread per model coalesces
//! concurrent generation requests into a single fused
//! [`generate_batch`](tsgb_methods::TsgMethod::generate_batch) call.
//!
//! Correctness rests on the `generate_batch` contract (bit-exact
//! equivalence with one serial `generate` per request), so batching is
//! *invisible* to clients: the response for `(n, seed)` is identical
//! at every batch size. Batching is natural: whenever the worker is
//! free it takes every queued job, up to `max_batch` (a
//! [`ServeConfig`] field), and runs them at once. The jobs that queue
//! during one forward pass form the next batch, so batches grow with
//! the load, and no batch ever waits for a job that may not come.
//!
//! A panic in a model is isolated to the request that causes it. The
//! fused forward pass runs under `catch_unwind`; when it panics, each
//! job of the batch is re-run alone, and a job that still panics is
//! answered with [`JobOutcome::Failed`] (HTTP 500) and counted in the
//! `serve.panics` counter. The other jobs get exactly what they would
//! have got unbatched, and the worker lives on.
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
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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
    /// The job's deadline expired before a worker reached it.
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

struct Job {
    spec: GenSpec,
    deadline: Option<Instant>,
    tx: mpsc::Sender<JobOutcome>,
}

struct Queue {
    jobs: VecDeque<Job>,
    draining: bool,
}

struct State {
    q: Mutex<Queue>,
    cv: Condvar,
    cfg: ServeConfig,
    entry: Arc<ModelEntry>,
}

/// A per-model batching worker.
pub struct Batcher {
    state: Arc<State>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Spawns the worker thread for one model. It reads the batching
    /// fields of `cfg`: `max_batch`, `queue_cap` and `fwd_delay_ms`.
    pub fn start(entry: Arc<ModelEntry>, cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let state = Arc::new(State {
            q: Mutex::new(Queue {
                jobs: VecDeque::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            cfg,
            entry,
        });
        let worker_state = Arc::clone(&state);
        let name = worker_state.entry.info.name.clone();
        let worker = std::thread::Builder::new()
            .name(format!("tsgb-serve-batch-{name}"))
            .spawn(move || worker_loop(&worker_state))
            .expect("spawn batch worker");
        Self {
            state,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Enqueues one generation request; the receiver resolves to its
    /// outcome. Rejects synchronously when the queue is full or the
    /// batcher is draining.
    pub fn submit(
        &self,
        spec: GenSpec,
        deadline: Option<Instant>,
    ) -> Result<mpsc::Receiver<JobOutcome>, SubmitError> {
        let mut q = self.state.q.lock().expect("batch queue poisoned");
        if q.draining {
            return Err(SubmitError::Draining);
        }
        if q.jobs.len() >= self.state.cfg.queue_cap {
            return Err(SubmitError::QueueFull {
                depth: q.jobs.len(),
            });
        }
        let (tx, rx) = mpsc::channel();
        q.jobs.push_back(Job { spec, deadline, tx });
        tsgb_obs::gauge_set("serve.queue_depth", q.jobs.len() as f64);
        drop(q);
        self.state.cv.notify_all();
        Ok(rx)
    }

    /// Current pending-queue depth (introspection).
    pub fn depth(&self) -> usize {
        self.state
            .q
            .lock()
            .expect("batch queue poisoned")
            .jobs
            .len()
    }

    /// Drains the queue and stops the worker: every job already
    /// accepted is still executed (or expired per its own deadline) —
    /// none are dropped — and new submits are rejected. Idempotent.
    pub fn drain(&self) {
        {
            let mut q = self.state.q.lock().expect("batch queue poisoned");
            q.draining = true;
        }
        self.state.cv.notify_all();
        let handle = self.worker.lock().expect("worker handle poisoned").take();
        if let Some(worker) = handle {
            worker.join().expect("batch worker panicked");
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(state: &State) {
    loop {
        let mut q = state.q.lock().expect("batch queue poisoned");
        while q.jobs.is_empty() && !q.draining {
            q = state.cv.wait(q).expect("batch queue poisoned");
        }
        if q.jobs.is_empty() && q.draining {
            return;
        }
        let take = q.jobs.len().min(state.cfg.max_batch);
        let batch: Vec<Job> = q.jobs.drain(..take).collect();
        tsgb_obs::gauge_set("serve.queue_depth", q.jobs.len() as f64);
        drop(q);

        let now = Instant::now();
        let (live, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|j| j.deadline.map(|d| now < d).unwrap_or(true));
        for job in expired {
            tsgb_obs::counter_add("serve.rejected", 1);
            let _ = job.tx.send(JobOutcome::Expired);
        }
        let outcomes = if live.is_empty() {
            Vec::new()
        } else {
            forward(state, &live)
        };
        for (job, outcome) in live.into_iter().zip(outcomes) {
            // a disconnected receiver just means the client went away
            let _ = job.tx.send(outcome);
        }
    }
}

/// Runs one batch's fused forward pass, isolating panics: when the
/// fused pass panics, each job is re-run alone, and only a job that
/// panics on its own is [`JobOutcome::Failed`]. A model holds no state
/// a panic can leave half-written (its sampling tapes are taken off a
/// free list for the run and dropped on unwind), which is what makes
/// re-running it sound.
fn forward(state: &State, jobs: &[Job]) -> Vec<JobOutcome> {
    tsgb_obs::observe("serve.batch_size", jobs.len() as f64);
    // fault injection (`TSGB_SERVE_FWD_DELAY_MS`; zero in production)
    if state.cfg.fwd_delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(state.cfg.fwd_delay_ms));
    }
    let model = &state.entry.model;
    let run = |specs: &[GenSpec]| catch_unwind(AssertUnwindSafe(|| model.generate_batch(specs)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelInfo, Registry};
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

    #[test]
    fn coalesced_output_matches_direct_generate() {
        let entry = entry();
        let b = Batcher::start(Arc::clone(&entry), cfg(8, 16));
        let rxs: Vec<_> = (0..4)
            .map(|i| {
                b.submit(
                    GenSpec {
                        n: 2,
                        seed: 100 + i,
                    },
                    None,
                )
                .unwrap()
            })
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            match rx.recv().unwrap() {
                JobOutcome::Done(t) => {
                    let want = entry.model.generate(2, &mut seeded(100 + i as u64));
                    assert_eq!(t.as_slice(), want.as_slice(), "request {i}");
                }
                other => panic!("request {i}: {other:?}"),
            }
        }
        b.drain();
    }

    #[test]
    fn queue_overflow_rejects_synchronously() {
        let entry = entry();
        // capacity 0: every submit must bounce
        let b = Batcher::start(entry, cfg(1, 0));
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
        let b = Batcher::start(entry, cfg(4, 16));
        let rx = b
            .submit(
                GenSpec { n: 1, seed: 9 },
                Some(Instant::now() - Duration::from_millis(1)),
            )
            .unwrap();
        assert!(matches!(rx.recv().unwrap(), JobOutcome::Expired));
        b.drain();
    }

    #[test]
    fn drain_completes_accepted_jobs() {
        let entry = entry();
        let b = Batcher::start(entry, cfg(2, 32));
        let rxs: Vec<_> = (0..6)
            .map(|i| b.submit(GenSpec { n: 1, seed: i }, None).unwrap())
            .collect();
        b.drain();
        for rx in rxs {
            assert!(matches!(rx.recv().unwrap(), JobOutcome::Done(_)));
        }
    }

    /// A stub model that logs the size of every batch it runs and can
    /// hold its first batch until the test releases it.
    struct Recorder {
        batches: Arc<Mutex<Vec<usize>>>,
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
            self.batches.lock().unwrap().push(specs.len());
            serial_generate_batch(self, specs)
        }
        fn save(&self) -> Option<Vec<u8>> {
            None
        }
        fn load(&mut self, _: &[u8]) -> Result<(), PersistError> {
            Ok(())
        }
    }

    /// A [`Recorder`] batcher (`max_batch` 4) that has run one lone
    /// job and then one coalesced batch: the lone job is held in its
    /// forward pass while four more queue behind it, and the worker,
    /// once free, takes all four. Returns the batcher and its batch log.
    fn after_a_coalesced_batch() -> (Batcher, Arc<Mutex<Vec<usize>>>) {
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
        let b = Batcher::start(entry, cfg(4, 32));
        let submit = |seed| b.submit(GenSpec { n: 1, seed }, None).unwrap();
        let first = submit(0);
        entered.recv().unwrap();
        let queued: Vec<_> = (1..5).map(submit).collect();
        release.send(()).unwrap();
        for rx in std::iter::once(first).chain(queued) {
            assert!(matches!(rx.recv().unwrap(), JobOutcome::Done(_)));
        }
        assert_eq!(*batches.lock().unwrap(), vec![1, 4]);
        (b, batches)
    }

    /// Submits one job, waits for it, and returns how long that took.
    fn run_alone(b: &Batcher, seed: u64) -> Duration {
        let started = Instant::now();
        let rx = b.submit(GenSpec { n: 1, seed }, None).unwrap();
        assert!(matches!(rx.recv().unwrap(), JobOutcome::Done(_)));
        started.elapsed()
    }

    #[test]
    fn job_after_a_coalesced_batch_runs_at_once() {
        let (b, _) = after_a_coalesced_batch();
        let waited = run_alone(&b, 5);
        assert!(
            waited < Duration::from_millis(250),
            "a job submitted after a coalesced batch took {waited:?}"
        );
        b.drain();
    }

    #[test]
    fn queued_jobs_coalesce_and_lone_jobs_run_alone() {
        let (b, batches) = after_a_coalesced_batch();
        for seed in 5..9 {
            run_alone(&b, seed);
        }
        b.drain();
        assert_eq!(*batches.lock().unwrap(), vec![1, 4, 1, 1, 1, 1]);
    }
}
