//! The analysis service: worker pool, admission, caching, batching.
//!
//! A [`Service`] owns a persistent pool of worker threads fed by the
//! bounded [`JobQueue`](crate::queue::JobQueue). Submission is
//! non-blocking: [`Service::submit`] checks the result cache, applies
//! admission control, and hands back a [`Ticket`] the caller resolves
//! at its leisure. Workers drain the queue in priority/FIFO order,
//! coalesce same-model steady solves into one multi-RHS call, reject
//! jobs whose deadline lapsed while queued, and publish results both
//! to the ticket and to the content-addressed cache.
//!
//! Every stage is instrumented through `aeropack-obs`: `serve.*`
//! counters for admissions, completions, cache traffic, coalescing and
//! rejections, plus a `serve.latency_ms` histogram of queue-to-result
//! latency. The registry active when [`Service::start`] is called is
//! captured and attached inside each worker, so test-scoped and
//! env-scoped registries both see worker-side events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use aeropack_obs::{counter, histogram};

use crate::cache::ResultCache;
use crate::error::Error;
use crate::queue::{Job, JobQueue, Priority};
use crate::request::{AnalysisRequest, AnalysisResponse};
use crate::workload::{run_coalesced, run_request, Workload, Workspace};

/// Service configuration (builder style, sensible defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    coalesce_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 256,
            cache_capacity: 128,
            coalesce_limit: 16,
        }
    }
}

impl ServeConfig {
    /// Default configuration: 2 workers, 256-job queue, 128-entry
    /// cache, coalesced batches of up to 16.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (minimum 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the bounded queue capacity (minimum 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Sets the result-cache capacity; 0 disables caching.
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// Sets the maximum coalesced batch size (minimum 1 = disabled).
    pub fn coalesce_limit(mut self, n: usize) -> Self {
        self.coalesce_limit = n.max(1);
        self
    }
}

/// Per-job service-side timing, delivered with the result.
#[derive(Debug, Clone, Copy)]
pub struct ServiceTiming {
    /// Submission-to-completion latency as measured by the worker.
    pub latency: Duration,
    /// Global completion sequence number (strictly increasing across
    /// the whole service; exposes scheduling order to tests).
    pub completed_seq: u64,
}

/// What a worker sends back through a ticket's channel.
#[derive(Debug)]
pub(crate) struct Reply {
    pub result: Result<AnalysisResponse, Error>,
    pub timing: ServiceTiming,
}

/// Handle to a submitted request's eventual result.
///
/// Cache hits and admission rejections resolve immediately; queued
/// jobs resolve when a worker completes (or rejects) them.
#[derive(Debug)]
pub struct Ticket(TicketState);

#[derive(Debug)]
enum TicketState {
    Ready(Result<AnalysisResponse, Error>),
    Pending(Receiver<Reply>),
}

impl Ticket {
    /// A ticket resolved at submission time (cache hit or admission
    /// error).
    pub(crate) fn ready(result: Result<AnalysisResponse, Error>) -> Self {
        Self(TicketState::Ready(result))
    }

    fn pending(rx: Receiver<Reply>) -> Self {
        Self(TicketState::Pending(rx))
    }

    /// Whether the ticket resolved at submission time (no queue trip).
    pub fn is_ready(&self) -> bool {
        matches!(self.0, TicketState::Ready(_))
    }

    /// Blocks until the result is available.
    pub fn wait(self) -> Result<AnalysisResponse, Error> {
        self.wait_timed().0
    }

    /// Blocks until the result is available, also returning the
    /// service-side timing when the job went through the queue
    /// (`None` for submission-time resolutions).
    pub fn wait_timed(self) -> (Result<AnalysisResponse, Error>, Option<ServiceTiming>) {
        match self.0 {
            TicketState::Ready(result) => (result, None),
            TicketState::Pending(rx) => match rx.recv() {
                Ok(reply) => (reply.result, Some(reply.timing)),
                // The worker pool died without replying — only
                // possible during teardown.
                Err(_) => (Err(Error::ShuttingDown), None),
            },
        }
    }
}

/// Snapshot of the service's cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Jobs completed by workers (success or analysis error).
    pub completed: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Requests that missed the cache.
    pub cache_misses: u64,
    /// Cache entries displaced by LRU eviction.
    pub cache_evictions: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected_queue_full: u64,
    /// Jobs rejected because their deadline lapsed while queued.
    pub rejected_deadline: u64,
    /// Multi-RHS batches executed (each covers ≥ 2 jobs).
    pub coalesced_batches: u64,
    /// Jobs served through coalesced batches.
    pub coalesced_jobs: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_jobs: AtomicU64,
    completion_seq: AtomicU64,
}

struct Inner {
    queue: JobQueue,
    cache: ResultCache,
    counters: Counters,
}

impl Inner {
    fn finish(&self, job: Job, result: Result<AnalysisResponse, Error>) {
        if let Ok(ref response) = result {
            if self.cache.insert(job.cache_key, response.clone()) {
                self.counters
                    .cache_evictions
                    .fetch_add(1, Ordering::Relaxed);
                counter!("serve.cache.evictions");
            }
        }
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        counter!("serve.completed");
        let latency = job.submitted.elapsed();
        histogram!("serve.latency_ms", latency.as_secs_f64() * 1e3);
        let timing = ServiceTiming {
            latency,
            completed_seq: self.counters.completion_seq.fetch_add(1, Ordering::Relaxed),
        };
        // A dropped ticket just means the caller stopped listening.
        let _ = job.reply.send(Reply { result, timing });
    }

    fn reject_expired(&self, job: Job) {
        self.counters
            .rejected_deadline
            .fetch_add(1, Ordering::Relaxed);
        counter!("serve.rejected.deadline");
        let timing = ServiceTiming {
            latency: job.submitted.elapsed(),
            completed_seq: self.counters.completion_seq.fetch_add(1, Ordering::Relaxed),
        };
        let _ = job.reply.send(Reply {
            result: Err(Error::DeadlineExpired),
            timing,
        });
    }

    fn worker_loop(&self, workspace: &mut Workspace) {
        while let Some(batch) = self.queue.next_batch() {
            for job in batch.expired {
                self.reject_expired(job);
            }
            if batch.jobs.is_empty() {
                continue;
            }
            if batch.jobs.len() == 1 {
                let job = batch.jobs.into_iter().next().expect("singleton batch");
                // Another worker may have computed this key while the
                // job sat in the queue.
                if let Some(hit) = self.cache.get(job.cache_key) {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    counter!("serve.cache.hits");
                    self.finish(job, Ok(hit));
                    continue;
                }
                let result = run_request(&job.request, workspace);
                self.finish(job, result);
            } else {
                self.counters
                    .coalesced_batches
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .coalesced_jobs
                    .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
                counter!("serve.coalesce.batches");
                counter!("serve.coalesce.jobs", batch.jobs.len() as u64);
                let requests: Vec<AnalysisRequest> =
                    batch.jobs.iter().map(|j| j.request.clone()).collect();
                match run_coalesced(&requests, workspace) {
                    Ok(responses) => {
                        for (job, response) in batch.jobs.into_iter().zip(responses) {
                            self.finish(job, Ok(response));
                        }
                    }
                    Err(e) => {
                        for job in batch.jobs {
                            self.finish(job, Err(e.clone()));
                        }
                    }
                }
            }
        }
    }
}

/// The batched co-design analysis service.
///
/// Start one with [`Service::start`], submit [`AnalysisRequest`]s, and
/// resolve the returned [`Ticket`]s. Dropping the service performs a
/// graceful drain: queued jobs complete, then workers exit.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Service {
    /// Spawns the worker pool and returns the running service.
    pub fn start(config: ServeConfig) -> Self {
        let inner = Arc::new(Inner {
            queue: JobQueue::new(config.queue_capacity, config.coalesce_limit),
            cache: ResultCache::new(config.cache_capacity),
            counters: Counters::default(),
        });
        // Capture the submitting context's registry so worker-side
        // events land in the same (possibly scoped) sink.
        let obs_sink = aeropack_obs::propagation_handle();
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let sink = obs_sink.clone();
                thread::Builder::new()
                    .name(format!("aeropack-serve-{i}"))
                    .spawn(move || {
                        let _sink = sink.map(aeropack_obs::attach);
                        let mut workspace = Workspace::new();
                        inner.worker_loop(&mut workspace);
                    })
                    .expect("failed to spawn service worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a request at [`Priority::Normal`] with no deadline.
    pub fn submit(&self, request: AnalysisRequest) -> Ticket {
        self.submit_with(request, Priority::Normal, None)
    }

    /// Submits a request with an explicit priority and optional
    /// deadline (relative to now). Resolution order: result cache,
    /// admission control, queue.
    pub fn submit_with(
        &self,
        request: AnalysisRequest,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Ticket {
        // A zero deadline can only expire: it would be admitted, swept
        // on the next worker wake-up and rejected as `DeadlineExpired`
        // after occupying a queue slot. Refuse it at the door instead,
        // with a code that tells the caller the *request* was wrong,
        // not that the service was slow.
        if deadline == Some(Duration::ZERO) {
            return Ticket::ready(Err(Error::invalid(
                "deadline_ms must be positive (a zero deadline expires on admission)",
            )));
        }
        if let Err(e) = request.validate() {
            return Ticket::ready(Err(e));
        }
        let cache_key = Workload::fingerprint(&request);
        if let Some(hit) = self.inner.cache.get(cache_key) {
            self.inner
                .counters
                .cache_hits
                .fetch_add(1, Ordering::Relaxed);
            counter!("serve.cache.hits");
            return Ticket::ready(Ok(hit));
        }
        self.inner
            .counters
            .cache_misses
            .fetch_add(1, Ordering::Relaxed);
        counter!("serve.cache.misses");
        let (tx, rx): (Sender<Reply>, Receiver<Reply>) = mpsc::channel();
        let job = Job {
            cache_key,
            coalesce_key: request.coalesce_key(),
            request,
            priority,
            deadline: deadline.map(|d| Instant::now() + d),
            submitted: Instant::now(),
            reply: tx,
        };
        match self.inner.queue.push(job) {
            Ok(()) => {
                self.inner
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                counter!("serve.submitted");
                Ticket::pending(rx)
            }
            Err(e) => {
                if matches!(e, Error::QueueFull { .. }) {
                    self.inner
                        .counters
                        .rejected_queue_full
                        .fetch_add(1, Ordering::Relaxed);
                    counter!("serve.rejected.queue_full");
                }
                Ticket::ready(Err(e))
            }
        }
    }

    /// A snapshot of the cumulative service counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            cache_evictions: c.cache_evictions.load(Ordering::Relaxed),
            rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: c.rejected_deadline.load(Ordering::Relaxed),
            coalesced_batches: c.coalesced_batches.load(Ordering::Relaxed),
            coalesced_jobs: c.coalesced_jobs.load(Ordering::Relaxed),
            queue_depth: self.inner.queue.len() as u64,
            cache_entries: self.inner.cache.len() as u64,
        }
    }

    /// Gracefully drains the service: stops accepting work, lets the
    /// workers finish every queued job, and joins them. Idempotent.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Cloneable in-process client over a shared [`Service`].
///
/// This is the interface experiments use: same request/response
/// vocabulary as the socket transport, no serialisation.
#[derive(Clone)]
pub struct Client {
    service: Arc<Service>,
}

impl Client {
    /// Starts a fresh service and wraps it.
    pub fn start(config: ServeConfig) -> Self {
        Self {
            service: Arc::new(Service::start(config)),
        }
    }

    /// Wraps an already-running service.
    pub fn with_service(service: Arc<Service>) -> Self {
        Self { service }
    }

    /// The underlying service (for stats or shutdown).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Submits at normal priority; resolve the ticket when convenient.
    pub fn submit(&self, request: AnalysisRequest) -> Ticket {
        self.service.submit(request)
    }

    /// Submits with explicit priority and optional deadline.
    pub fn submit_with(
        &self,
        request: AnalysisRequest,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Ticket {
        self.service.submit_with(request, priority, deadline)
    }

    /// Synchronous convenience: submit and wait.
    pub fn call(&self, request: AnalysisRequest) -> Result<AnalysisResponse, Error> {
        self.submit(request).wait()
    }
}
