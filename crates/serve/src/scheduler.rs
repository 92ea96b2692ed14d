//! Dedup/caching job scheduler over a dispatcher thread.
//!
//! Every Run/Sweep request decomposes into per-spec *jobs* keyed by
//! [`CustomSpec::canonical`] — the spec's full serialized content,
//! pattern by value, so map-key equality *is* spec equality (a 64-bit
//! hash key would let two different specs collide, and a crafted
//! FNV-1a collision would then serve one client another simulation's
//! report). At submit time each job is classified:
//!
//! - **cache hit** — a completed result for this exact spec is in the
//!   bounded LRU (fingerprint-verified when it was inserted) and is
//!   delivered without simulating. A hit costs the cache one stamp
//!   bump and allocates nothing the cache keeps: recency lives in the
//!   entries, and the one insert that finds the cache full scans them
//!   for the oldest.
//! - **dedup join** — an identical job is already queued or running;
//!   the request attaches as a waiter and shares the one execution.
//! - **new** — the job enters the queue for the lanes.
//!
//! A finished job is kept in one form: a [`RunResult`] holding the
//! report as the escaped JSON string literal a frame carries, at its
//! exact size, beside its fingerprint. The lane that ran the job checks
//! the fingerprint against the report text and escapes it once; the raw
//! text is dropped there. Every answer that uses the result, a `Result`
//! frame or a `SweepResult` frame, is assembled around that literal by
//! the connection's writer ([`Outgoing::payload`]), so a waiter or a
//! hit clones an `Arc`, never the report.
//!
//! Queued jobs run on *lanes*: scoped threads of the dispatcher, each of
//! which pops the oldest queued job, runs it, pops again, and parks only
//! while the queue is empty. The dispatcher starts a lane whenever a job
//! is queued while every lane is busy, up to [`SchedulerConfig::threads`],
//! and runs no job itself unless no lane could start at all. Each lane
//! lives until shutdown, so a job starts the moment a lane is free, not
//! when some earlier group of jobs has finished. A job whose simulation panics is answered with
//! `code: "internal"`; its lane runs on. Admission control happens before
//! any of this: a client past its in-flight request quota gets
//! `code: "quota"`, and a full job queue gets `code: "backpressure"`;
//! both are typed rejections, never hangs.
//!
//! Shutdown is a drain: pending jobs finish, their waiters are answered,
//! then the lanes and the dispatcher are joined. Submissions racing the
//! shutdown get `code: "shutting_down"`.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;
use wormsim_engine::ConfigError;
use wormsim_experiments::{fnv1a, run_custom, CustomSpec};
use wormsim_obs::ProgressFrame;

use crate::metrics::ServeMetrics;
use crate::protocol::{Emit, Outgoing, Response, RunResult, ServerStats};

/// Scheduler knobs; [`SchedulerConfig::default`] suits tests and small
/// deployments.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// The most jobs that run at once, each on a lane started on demand
    /// (0 = available parallelism).
    pub threads: usize,
    /// Jobs queued-or-running before new requests are rejected with
    /// `backpressure`.
    pub max_queue: usize,
    /// In-flight Run/Sweep requests per client before `quota` rejects.
    pub per_client_quota: usize,
    /// Bounded LRU result-cache entries.
    pub cache_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            threads: 0,
            max_queue: 4096,
            per_client_quota: 256,
            cache_capacity: 1024,
        }
    }
}

impl SchedulerConfig {
    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            thread::available_parallelism().map_or(4, |n| n.get())
        }
    }
}

/// What one finished job hands each of its waiters.
#[derive(Clone)]
enum SlotResult {
    Ok {
        result: Arc<RunResult>,
        cached: bool,
        deduped: bool,
    },
    Failed,
}

/// One client request (Run or Sweep) being assembled from its job slots.
struct RequestState {
    id: u64,
    client: u64,
    is_sweep: bool,
    emit: Emit,
    /// Admission stamp; the request-latency histogram measures from
    /// here to the final emitted response.
    started: Instant,
    inner: Mutex<RequestProgress>,
}

struct RequestProgress {
    slots: Vec<Option<SlotResult>>,
    remaining: usize,
    /// First failure wins; the whole request is answered with it.
    failure: Option<(String, String)>,
}

/// A waiter on a job: which request, and which of its slots.
type Waiter = (Arc<RequestState>, usize);

struct JobEntry {
    waiters: Vec<Waiter>,
}

/// Dedup/cache key: the spec's full canonical form (see the module
/// docs), stored at its exact length; the shared `Arc` keeps the dedup
/// map, queue, and cache from cloning the string.
type SpecKey = Arc<str>;

struct QueuedJob {
    key: SpecKey,
    spec: CustomSpec,
    /// Queue-entry stamp; the queue-wait histogram measures from here
    /// to worker pickup.
    admitted: Instant,
}

struct CacheEntry {
    result: Arc<RunResult>,
    /// `cache_stamp` at the last insert or hit; the minimum is the LRU
    /// entry.
    stamp: u64,
}

#[derive(Default)]
struct SchedState {
    queue: VecDeque<QueuedJob>,
    /// Queued or running jobs by canonical spec; waiters share the
    /// execution.
    jobs: HashMap<SpecKey, JobEntry>,
    /// Jobs admitted but not yet resolved (queued + running on a lane).
    pending_jobs: usize,
    /// Lanes started. A lane runs one job at a time and lives until
    /// shutdown, so `pending_jobs > lanes` means a queued job has no free
    /// lane to take it.
    lanes: usize,
    cache: HashMap<SpecKey, CacheEntry>,
    cache_stamp: u64,
    client_load: HashMap<u64, usize>,
    stop: bool,
}

struct Inner {
    cfg: SchedulerConfig,
    /// `cfg.threads` resolved: the most lanes the dispatcher starts.
    max_lanes: usize,
    state: Mutex<SchedState>,
    /// Parked lanes wait here for a queued job.
    work_ready: Condvar,
    /// The dispatcher waits here for a job no free lane can take.
    lane_wanted: Condvar,
    /// The full metric surface (counters, gauges, latency histograms);
    /// `ServerStats` is derived from it, so this is the one source of
    /// truth for every count.
    metrics: Arc<ServeMetrics>,
}

/// The scheduler: owns its dispatcher thread. See the module docs for the
/// job lifecycle.
pub struct Scheduler {
    inner: Arc<Inner>,
    dispatcher: Mutex<Option<thread::JoinHandle<()>>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Scheduler {
    /// Start a scheduler (and its dispatcher thread) with `cfg`.
    pub fn new(cfg: SchedulerConfig) -> Self {
        let inner = Arc::new(Inner {
            cfg,
            max_lanes: cfg.resolved_threads(),
            state: Mutex::new(SchedState::default()),
            work_ready: Condvar::new(),
            lane_wanted: Condvar::new(),
            metrics: Arc::new(ServeMetrics::new()),
        });
        let dispatcher = {
            let inner = inner.clone();
            thread::Builder::new()
                .name("wsim-dispatch".into())
                .spawn(move || inner.dispatch())
                .expect("spawn dispatcher")
        };
        Scheduler {
            inner,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// Submit one request. On `Ok`, every response (progress frames and
    /// the final result/error) arrives through `emit`, possibly before
    /// this call returns (pure cache hits resolve synchronously). On
    /// `Err`, nothing was scheduled and the caller owns the reply.
    pub fn submit(
        &self,
        client: u64,
        id: u64,
        specs: Vec<CustomSpec>,
        is_sweep: bool,
        emit: Emit,
    ) -> Result<(), (&'static str, String)> {
        let inner = &self.inner;
        if specs.is_empty() {
            return Err(("bad_spec", "empty spec list".into()));
        }
        // Canonical keys involve serializing the specs — do it outside
        // the lock.
        let keys: Vec<SpecKey> = specs.iter().map(|s| Arc::from(s.canonical())).collect();
        let req = Arc::new(RequestState {
            id,
            client,
            is_sweep,
            emit,
            started: Instant::now(),
            inner: Mutex::new(RequestProgress {
                slots: vec![None; specs.len()],
                remaining: specs.len(),
                failure: None,
            }),
        });

        enum Plan {
            CacheHit(SlotResult),
            Join,
            New,
        }

        let mut immediate: Vec<(usize, SlotResult)> = Vec::new();
        {
            let mut s = lock(&inner.state);
            if s.stop {
                return Err(("shutting_down", "server is draining".into()));
            }
            let load = s.client_load.get(&client).copied().unwrap_or(0);
            if load >= inner.cfg.per_client_quota {
                inner.metrics.quota_rejects.inc();
                return Err((
                    "quota",
                    format!(
                        "client has {load} requests in flight (quota {})",
                        inner.cfg.per_client_quota
                    ),
                ));
            }
            // Classify each slot without mutating, so a backpressure
            // rejection leaves no trace. Duplicates *within* the request
            // join the slot that will create the job. A hit's entry was
            // fingerprint-verified at insert and is immutable behind its
            // `Arc`, so delivery is a pointer clone — no O(report) work
            // under this lock.
            let mut plans: Vec<Plan> = Vec::with_capacity(specs.len());
            let mut claimed: std::collections::HashSet<SpecKey> = std::collections::HashSet::new();
            let mut new_jobs = 0usize;
            for key in &keys {
                let plan = match s.cache.get(key) {
                    Some(entry) => Plan::CacheHit(SlotResult::Ok {
                        result: entry.result.clone(),
                        cached: true,
                        deduped: false,
                    }),
                    None => {
                        if s.jobs.contains_key(key) || !claimed.insert(key.clone()) {
                            Plan::Join
                        } else {
                            new_jobs += 1;
                            Plan::New
                        }
                    }
                };
                plans.push(plan);
            }
            if new_jobs > 0 && s.pending_jobs + new_jobs > inner.cfg.max_queue {
                inner.metrics.backpressure_rejects.inc();
                return Err((
                    "backpressure",
                    format!(
                        "{} jobs in flight + {new_jobs} new exceeds queue bound {}",
                        s.pending_jobs, inner.cfg.max_queue
                    ),
                ));
            }
            // Admitted: apply the plan. Plans were built in slot order, so
            // the enumeration index *is* the request slot.
            inner.metrics.requests.inc();
            *s.client_load.entry(client).or_insert(0) += 1;
            for (slot, ((plan, key), spec)) in plans.into_iter().zip(&keys).zip(specs).enumerate() {
                match plan {
                    Plan::CacheHit(result) => {
                        inner.metrics.cache_hits.inc();
                        touch_cache(&mut s, key);
                        immediate.push((slot, result));
                    }
                    Plan::Join => {
                        inner.metrics.dedup_joins.inc();
                        s.jobs
                            .get_mut(key)
                            .expect("joined job exists")
                            .waiters
                            .push((req.clone(), slot));
                    }
                    Plan::New => {
                        s.jobs.insert(
                            key.clone(),
                            JobEntry {
                                waiters: vec![(req.clone(), slot)],
                            },
                        );
                        s.queue.push_back(QueuedJob {
                            key: key.clone(),
                            spec,
                            admitted: Instant::now(),
                        });
                        s.pending_jobs += 1;
                        inner.metrics.jobs_in_flight.inc();
                    }
                }
            }
            // One wake per queued job, up to one per lane: a parked lane
            // takes each, and the jobs no free lane can take wake the
            // dispatcher for new lanes.
            for _ in 0..new_jobs.min(s.lanes) {
                inner.work_ready.notify_one();
            }
            if s.pending_jobs > s.lanes && s.lanes < inner.max_lanes {
                inner.lane_wanted.notify_one();
            }
        }
        for (slot, result) in immediate {
            inner.fill_slot(&req, slot, result, None);
        }
        Ok(())
    }

    /// Count a malformed spec rejected before scheduling (the server's
    /// protocol layer calls this so the stat lives with the others).
    pub fn note_bad_spec(&self) {
        self.inner.metrics.bad_spec_rejects.inc();
    }

    /// Snapshot the counters (derived from the metric registry).
    pub fn stats(&self) -> ServerStats {
        self.inner.metrics.server_stats()
    }

    /// The scheduler's metric surface (share with emitters / the
    /// `Metrics` wire handler).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        self.inner.metrics.clone()
    }

    /// Drain the queue (answering every waiter) and join the lanes and the
    /// dispatcher. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut s = lock(&self.inner.state);
            s.stop = true;
        }
        self.inner.work_ready.notify_all();
        self.inner.lane_wanted.notify_all();
        if let Some(h) = lock(&self.dispatcher).take() {
            let _ = h.join();
        }
    }

    /// How many records the scheduler state holds in all: cached results,
    /// queued and running jobs, and per-client load entries. Idle, that is
    /// the cache population — whatever the number of hits served.
    #[cfg(test)]
    fn bookkeeping_records(&self) -> usize {
        let s = lock(&self.inner.state);
        s.cache.len() + s.jobs.len() + s.queue.len() + s.client_load.len()
    }

    /// How many lanes have started; none stops before shutdown.
    #[cfg(test)]
    fn lanes_started(&self) -> usize {
        lock(&self.inner.state).lanes
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Mark `key` most-recently-used.
fn touch_cache(s: &mut SchedState, key: &SpecKey) {
    s.cache_stamp += 1;
    if let Some(e) = s.cache.get_mut(key) {
        e.stamp = s.cache_stamp;
    }
}

impl Inner {
    /// Fill one slot of a request; when it is the last, finalize and emit.
    fn fill_slot(
        self: &Arc<Self>,
        req: &Arc<RequestState>,
        slot: usize,
        result: SlotResult,
        failure: Option<(String, String)>,
    ) {
        let finished = {
            let mut p = lock(&req.inner);
            if p.slots[slot].is_some() {
                return; // already resolved (defensive; should not happen)
            }
            p.slots[slot] = Some(result);
            if let Some(f) = failure {
                if p.failure.is_none() {
                    p.failure = Some(f);
                }
            }
            p.remaining -= 1;
            if req.is_sweep {
                let total = p.slots.len() as u64;
                let done = total - p.remaining as u64;
                (req.emit)(Outgoing::Message(Response::Progress {
                    id: req.id,
                    frame: ProgressFrame::new(format!("sweep-{}", req.id), done, total),
                }));
            }
            p.remaining == 0
        };
        if finished {
            self.finalize(req);
        }
    }

    fn finalize(self: &Arc<Self>, req: &Arc<RequestState>) {
        let response = {
            let p = lock(&req.inner);
            if let Some((code, message)) = &p.failure {
                Outgoing::Message(Response::Error {
                    id: req.id,
                    code: code.clone(),
                    message: message.clone(),
                })
            } else if req.is_sweep {
                let results = p
                    .slots
                    .iter()
                    .map(
                        |slot| match slot.as_ref().expect("finalized request has all slots") {
                            SlotResult::Ok { result, .. } => result.clone(),
                            SlotResult::Failed => {
                                unreachable!("failed slot without failure record")
                            }
                        },
                    )
                    .collect();
                Outgoing::Sweep {
                    id: req.id,
                    results,
                }
            } else {
                match p.slots[0].as_ref().expect("finalized request has slot 0") {
                    SlotResult::Ok {
                        result,
                        cached,
                        deduped,
                    } => Outgoing::Result {
                        id: req.id,
                        result: result.clone(),
                        cached: *cached,
                        deduped: *deduped,
                    },
                    SlotResult::Failed => unreachable!("failed slot without failure record"),
                }
            }
        };
        // Latency and the completion count are recorded *before* the
        // final emit: a client that has its answer in hand must find
        // the request already counted when it scrapes metrics.
        self.metrics
            .request_latency
            .record_duration(req.started.elapsed());
        self.metrics.completed.inc();
        (req.emit)(response);
        {
            let mut s = lock(&self.state);
            if let Some(load) = s.client_load.get_mut(&req.client) {
                *load = load.saturating_sub(1);
                if *load == 0 {
                    s.client_load.remove(&req.client);
                }
            }
        }
    }

    /// Resolve one executed job: cache the result, detach the waiters,
    /// and fill their slots. The job leaves `pending_jobs` before any
    /// waiter is answered, so its lane counts as free from then on: a
    /// client that submits again on its answer finds that lane, not the
    /// dispatcher.
    fn resolve_job(self: &Arc<Self>, key: &SpecKey, outcome: Result<Finished, JobError>) {
        self.metrics.jobs_run.inc();
        // Fingerprint integrity is verified once, here at insert time,
        // over the report text before it is escaped, and outside the
        // state lock. The escaped entry is immutable behind its `Arc`
        // afterwards, so cache hits never rehash it while holding the
        // lock, and the raw text is dropped here.
        let (outcome, cacheable) = match outcome {
            Ok(Finished { json, fingerprint }) => {
                let verified = fingerprint == fnv1a(json.as_bytes());
                if !verified {
                    self.metrics.integrity_drops.inc();
                }
                (Ok(Arc::new(RunResult::new(&json, fingerprint))), verified)
            }
            Err(err) => (Err(err), false),
        };
        let waiters = {
            let mut s = lock(&self.state);
            s.pending_jobs = s.pending_jobs.saturating_sub(1);
            self.metrics.jobs_in_flight.dec();
            if cacheable {
                if let Ok(result) = &outcome {
                    let evicted =
                        cache_insert(&mut s, self.cfg.cache_capacity, key, result.clone());
                    self.metrics.cache_evictions.add(evicted);
                }
            }
            // The gauge mirrors the cache population under the same
            // lock that mutates it (inserts may also evict).
            self.metrics.cached_results.set(s.cache.len() as i64);
            s.jobs.remove(key).map(|e| e.waiters).unwrap_or_default()
        };
        match outcome {
            Ok(result) => {
                for (k, (req, slot)) in waiters.into_iter().enumerate() {
                    self.fill_slot(
                        &req,
                        slot,
                        SlotResult::Ok {
                            result: result.clone(),
                            cached: false,
                            // The first waiter is the submitter that
                            // created the job; the rest joined it.
                            deduped: k > 0,
                        },
                        None,
                    );
                }
            }
            Err(err) => {
                let (code, message) = err.wire();
                match err {
                    JobError::Config(_) => self.metrics.config_rejects.inc(),
                    JobError::Panicked => self.metrics.internal_errors.inc(),
                };
                for (req, slot) in waiters {
                    self.fill_slot(
                        &req,
                        slot,
                        SlotResult::Failed,
                        Some((code.to_string(), message.clone())),
                    );
                }
            }
        }
    }

    /// Start a lane whenever a job is queued while every lane is busy, up
    /// to `max_lanes`, and keep the lanes in one scope until shutdown.
    fn dispatch(self: Arc<Self>) {
        thread::scope(|scope| {
            let mut s = lock(&self.state);
            loop {
                if s.lanes < self.max_lanes.min(s.pending_jobs) {
                    // Counted before it runs, so a submit racing the
                    // spawn does not ask for a second lane for this job.
                    s.lanes += 1;
                    drop(s);
                    let started = thread::Builder::new()
                        .name("wsim-lane".into())
                        .spawn_scoped(scope, || self.lane());
                    s = lock(&self.state);
                    if started.is_ok() {
                        continue;
                    }
                    // The job stays queued for the lanes that exist; the
                    // next wake tries again.
                    s.lanes -= 1;
                }
                if s.stop {
                    break;
                }
                s = self.lane_wanted.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            // Only when no lane could ever start does the dispatcher drain
            // the queue itself, so shutdown still answers every waiter.
            let none_started = s.lanes == 0;
            drop(s);
            if none_started {
                self.lane();
            }
        });
    }

    /// One lane: pop the oldest queued job, run it, and pop again; park
    /// while the queue is empty, and return once it is empty at shutdown.
    fn lane(self: &Arc<Self>) {
        let mut s = lock(&self.state);
        loop {
            if let Some(job) = s.queue.pop_front() {
                drop(s);
                self.run_job(job);
                s = lock(&self.state);
            } else if s.stop {
                return;
            } else {
                s = self.work_ready.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    fn run_job(self: &Arc<Self>, job: QueuedJob) {
        // Pickup: the job's queue wait ends here and its execution span
        // begins. Both histograms are stamped for failed jobs too, so
        // their counts stay equal to the number of jobs dequeued.
        self.metrics
            .queue_wait
            .record_duration(job.admitted.elapsed());
        let exec_start = Instant::now();
        // A panic is a simulator bug: it fails this job alone.
        let run = catch_unwind(AssertUnwindSafe(|| run_custom(&job.spec)));
        self.metrics.execution.record_duration(exec_start.elapsed());
        let outcome = match run {
            Ok(Ok(report)) => {
                let json = serde_json::to_string(&report).expect("report serializes");
                let fingerprint = fnv1a(json.as_bytes());
                Ok(Finished { json, fingerprint })
            }
            Ok(Err(e)) => Err(JobError::Config(e)),
            Err(_) => Err(JobError::Panicked),
        };
        self.resolve_job(&job.key, outcome);
    }
}

/// An executed job's report, as compact JSON, and the fingerprint the
/// lane took of it.
struct Finished {
    json: String,
    fingerprint: u64,
}

/// Why an admitted job failed.
enum JobError {
    /// The engine rejected the configuration (typed, expected path).
    Config(ConfigError),
    /// The simulation panicked (a bug; the request gets `internal`).
    Panicked,
}

impl JobError {
    fn wire(&self) -> (&'static str, String) {
        match self {
            JobError::Config(e) => ("config", e.to_string()),
            JobError::Panicked => ("internal", "simulation worker panicked".into()),
        }
    }
}

/// Insert into the bounded LRU and return how many entries that
/// evicted. A full cache gives up its least-recently-used entry, found by
/// one scan for the minimum stamp: this runs once per executed job,
/// beside a simulation that cost milliseconds, so hits keep no order
/// records for it.
fn cache_insert(s: &mut SchedState, cap: usize, key: &SpecKey, result: Arc<RunResult>) -> u64 {
    if cap == 0 {
        return 0;
    }
    let mut evicted = 0;
    while s.cache.len() >= cap {
        let oldest = s
            .cache
            .iter()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| k.clone())
            .expect("a full cache has an entry");
        s.cache.remove(&oldest);
        evicted += 1;
    }
    s.cache_stamp += 1;
    let stamp = s.cache_stamp;
    s.cache.insert(key.clone(), CacheEntry { result, stamp });
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};
    use wormsim_engine::SimConfig;
    use wormsim_routing::{AlgorithmKind, VcConfig};
    use wormsim_traffic::Workload;

    fn tiny_spec(seed: u64) -> CustomSpec {
        let interner = crate::intern::PatternInterner::default();
        let pattern = interner.intern(6, &[]).unwrap();
        let mut sim = SimConfig::quick().with_seed(seed);
        sim.warmup_cycles = 100;
        sim.measure_cycles = 300;
        CustomSpec {
            mesh_size: 6,
            vc: VcConfig::paper(),
            sim,
            kind: AlgorithmKind::Xy,
            pattern,
            workload: Workload::paper_uniform(0.002),
        }
    }

    /// Collects what a client would read: every emitted frame's payload,
    /// parsed back through `Response`'s derive.
    fn collect_emit() -> (Emit, Arc<Mutex<Vec<Response>>>) {
        let sink: Arc<Mutex<Vec<Response>>> = Arc::new(Mutex::new(Vec::new()));
        let s = sink.clone();
        let emit = move |out: Outgoing| {
            let payload = out.payload().expect("frame serializes");
            lock(&s).push(serde_json::from_str(&payload).expect("frame parses as a Response"));
        };
        (Arc::new(emit), sink)
    }

    fn wait_for<F: Fn() -> bool>(cond: F, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn run_then_cache_hit_then_config_error() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let (emit, sink) = collect_emit();
        sched
            .submit(1, 10, vec![tiny_spec(1)], false, emit.clone())
            .unwrap();
        wait_for(|| !lock(&sink).is_empty(), "first result");
        let first = lock(&sink).remove(0);
        let fp = match &first {
            Response::Result {
                id,
                cached,
                fingerprint,
                ..
            } => {
                assert_eq!(*id, 10);
                assert!(!cached);
                fingerprint.clone()
            }
            other => panic!("expected Result, got {other:?}"),
        };
        // Same identity again: answered from cache, same fingerprint.
        sched
            .submit(1, 11, vec![tiny_spec(1)], false, emit.clone())
            .unwrap();
        wait_for(|| !lock(&sink).is_empty(), "cached result");
        match lock(&sink).remove(0) {
            Response::Result {
                cached,
                fingerprint,
                ..
            } => {
                assert!(cached);
                assert_eq!(fingerprint, fp);
            }
            other => panic!("expected cached Result, got {other:?}"),
        }
        // An engine-rejected spec comes back as a typed config error.
        let mut bad = tiny_spec(2);
        bad.vc.total = 40;
        sched.submit(1, 12, vec![bad], false, emit).unwrap();
        wait_for(|| !lock(&sink).is_empty(), "config error");
        match lock(&sink).remove(0) {
            Response::Error { id, code, .. } => {
                assert_eq!(id, 12);
                assert_eq!(code, "config");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        let stats = sched.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.config_rejects, 1);
        sched.shutdown();
    }

    #[test]
    fn a_panicking_job_gets_internal_and_the_scheduler_runs_on() {
        // A 6×6 pattern on an 8×8 mesh panics while the routing context
        // is built. The wire cannot express it (the pattern is interned
        // from the spec's own mesh size); in-process it can.
        let sched = Scheduler::new(SchedulerConfig::default());
        let (emit, sink) = collect_emit();
        let mut mismatched = tiny_spec(1);
        mismatched.mesh_size = 8;
        sched
            .submit(1, 20, vec![mismatched], false, emit.clone())
            .unwrap();
        wait_for(|| !lock(&sink).is_empty(), "internal error");
        match lock(&sink).remove(0) {
            Response::Error { id, code, .. } => {
                assert_eq!(id, 20);
                assert_eq!(code, "internal");
            }
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(sched.stats().internal_errors, 1);
        sched
            .submit(1, 21, vec![tiny_spec(1)], false, emit)
            .unwrap();
        wait_for(|| !lock(&sink).is_empty(), "the next result");
        match lock(&sink).remove(0) {
            Response::Result { id, cached, .. } => {
                assert_eq!(id, 21);
                assert!(!cached);
            }
            other => panic!("expected Result, got {other:?}"),
        }
        sched.shutdown();
    }

    #[test]
    fn sweep_streams_progress_and_dedups_intra_request() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let (emit, sink) = collect_emit();
        // Slot 2 duplicates slot 0: one execution, two slots.
        let specs = vec![tiny_spec(5), tiny_spec(6), tiny_spec(5)];
        sched.submit(2, 30, specs, true, emit).unwrap();
        wait_for(
            || {
                lock(&sink)
                    .iter()
                    .any(|r| matches!(r, Response::SweepResult { .. }))
            },
            "sweep result",
        );
        let frames = lock(&sink);
        let progress: Vec<_> = frames
            .iter()
            .filter_map(|r| match r {
                Response::Progress { frame, .. } => Some((frame.done, frame.total)),
                _ => None,
            })
            .collect();
        assert_eq!(progress.len(), 3);
        assert!(progress.iter().all(|&(_, t)| t == 3));
        assert_eq!(progress.last(), Some(&(3, 3)));
        match frames.last().unwrap() {
            Response::SweepResult {
                report_jsons,
                fingerprints,
                ..
            } => {
                assert_eq!(report_jsons.len(), 3);
                assert_eq!(report_jsons[0], report_jsons[2], "dup slots share a result");
                assert_eq!(fingerprints[0], fingerprints[2]);
                assert_ne!(report_jsons[0], report_jsons[1]);
            }
            other => panic!("expected SweepResult last, got {other:?}"),
        }
        drop(frames);
        let stats = sched.stats();
        assert!(stats.dedup_joins >= 1, "intra-sweep duplicate joins");
        assert_eq!(stats.jobs_run, 2, "two unique specs, two executions");
        sched.shutdown();
    }

    #[test]
    fn quota_and_backpressure_reject_typed() {
        // Quota of one: a second concurrent request from the same client
        // is rejected while the first is still unresolved. Use a queue the
        // dispatcher cannot drain instantly.
        let sched = Scheduler::new(SchedulerConfig {
            threads: 1,
            max_queue: 2,
            per_client_quota: 1,
            cache_capacity: 16,
        });
        let (emit, sink) = collect_emit();
        let mut slow = tiny_spec(100);
        slow.sim.measure_cycles = 20_000;
        sched.submit(7, 1, vec![slow], false, emit.clone()).unwrap();
        let err = sched
            .submit(7, 2, vec![tiny_spec(101)], false, emit.clone())
            .unwrap_err();
        assert_eq!(err.0, "quota");
        // A different client is admitted until the queue bound trips.
        let mut slow2 = tiny_spec(102);
        slow2.sim.measure_cycles = 20_000;
        sched
            .submit(8, 3, vec![slow2], false, emit.clone())
            .unwrap();
        let err = sched
            .submit(9, 4, vec![tiny_spec(103), tiny_spec(104)], false, emit)
            .unwrap_err();
        assert_eq!(err.0, "backpressure");
        let stats = sched.stats();
        assert_eq!(stats.quota_rejects, 1);
        assert_eq!(stats.backpressure_rejects, 1);
        // Shutdown drains: both admitted requests still get answers.
        sched.shutdown();
        let responses = lock(&sink);
        let results = responses
            .iter()
            .filter(|r| matches!(r, Response::Result { .. }))
            .count();
        assert_eq!(results, 2, "drain answered every admitted request");
    }

    #[test]
    fn in_flight_returns_to_zero_after_a_burst_drains() {
        // Submit a burst of distinct jobs on two threads, watch the
        // gauge go up, then assert it returns to *exactly* zero once
        // every response has arrived — the gauge is incremented and
        // decremented under the same lock sections that maintain
        // `pending_jobs`, so any off-by-one would stick permanently.
        let sched = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..SchedulerConfig::default()
        });
        let (emit, sink) = collect_emit();
        let burst = 12u64;
        for i in 0..burst {
            sched
                .submit(1, i, vec![tiny_spec(200 + i)], false, emit.clone())
                .unwrap();
        }
        assert!(
            sched.stats().in_flight > 0,
            "burst should have jobs in flight"
        );
        wait_for(|| lock(&sink).len() as u64 == burst, "burst drain");
        // All responses are emitted strictly after their job's in-flight
        // decrement, so by now the gauge must read exactly zero.
        let stats = sched.stats();
        assert_eq!(stats.in_flight, 0, "drained burst left a phantom job");
        assert_eq!(stats.completed, burst);
        assert_eq!(stats.jobs_run, burst);
        // Latency histograms saw every request and every job.
        let m = sched.metrics();
        assert_eq!(m.request_latency.count(), burst);
        assert_eq!(m.queue_wait.count(), burst);
        assert_eq!(m.execution.count(), burst);
        // A cache hit resolves without touching the in-flight gauge.
        sched
            .submit(1, 99, vec![tiny_spec(200)], false, emit)
            .unwrap();
        wait_for(|| lock(&sink).len() as u64 == burst + 1, "cached reply");
        let stats = sched.stats();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cached_results, burst);
        sched.shutdown();
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let key = |name: &str| -> SpecKey { Arc::from(name) };
        let result = |i: u32| Arc::new(RunResult::new(&format!("r{i}"), i.into()));
        let mut s = SchedState::default();
        for i in 0..3 {
            let evicted = cache_insert(&mut s, 3, &key(&format!("k{i}")), result(i));
            assert_eq!(evicted, 0, "room left");
        }
        // Touch k0 so k1 becomes the LRU entry.
        touch_cache(&mut s, &key("k0"));
        assert_eq!(cache_insert(&mut s, 3, &key("k9"), result(9)), 1);
        assert!(s.cache.contains_key(&key("k0")), "touched entry survives");
        assert!(!s.cache.contains_key(&key("k1")), "LRU entry evicted");
        assert!(s.cache.contains_key(&key("k2")));
        assert!(s.cache.contains_key(&key("k9")));
        // Recency is by hit, not by insert: k2 is now the oldest insert,
        // but a hit on it makes k0 (touched before that hit) the victim.
        touch_cache(&mut s, &key("k2"));
        assert_eq!(cache_insert(&mut s, 3, &key("k10"), result(10)), 1);
        assert!(s.cache.contains_key(&key("k2")), "hit entry survives");
        assert!(!s.cache.contains_key(&key("k0")), "second-oldest evicted");
        assert!(s.cache.contains_key(&key("k9")));
        assert!(s.cache.contains_key(&key("k10")));
        assert_eq!(s.cache.len(), 3);
    }

    #[test]
    fn hits_leave_nothing_behind_and_evictions_count_inserts_past_capacity() {
        let sched = Scheduler::new(SchedulerConfig {
            cache_capacity: 4,
            ..SchedulerConfig::default()
        });
        let answered = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let emit: Emit = {
            let answered = answered.clone();
            Arc::new(move |out| {
                assert!(
                    matches!(out, Outgoing::Result { .. }),
                    "every request here succeeds: {out:?}"
                );
                answered.fetch_add(1, Ordering::SeqCst);
            })
        };
        let run = |id: u64, seed: u64| {
            sched
                .submit(1, id, vec![tiny_spec(seed)], false, emit.clone())
                .unwrap();
            wait_for(|| answered.load(Ordering::SeqCst) == id, "an answer");
        };
        let mut id = 0;
        for seed in 0..4 {
            id += 1;
            run(id, 300 + seed);
        }
        let hits = 10_000;
        for k in 0..hits {
            id += 1;
            run(id, 300 + k % 4);
        }
        let stats = sched.stats();
        assert_eq!(stats.jobs_run, 4);
        assert_eq!(stats.cache_hits, hits);
        assert_eq!(stats.cached_results, 4);
        // Everything the scheduler keeps between requests, after 10 000
        // hits: the four cached keys and no record per hit.
        assert_eq!(sched.bookkeeping_records(), 4);
        let evictions = || sched.metrics().cache_evictions.get();
        assert_eq!(evictions(), 0, "the cache only just filled");
        // Three more inserts on the full cache: each evicts exactly one.
        for seed in 4..7 {
            id += 1;
            run(id, 300 + seed);
        }
        let stats = sched.stats();
        assert_eq!(stats.jobs_run, 7);
        assert_eq!(evictions(), stats.jobs_run - 4, "inserts past capacity");
        assert_eq!(stats.cached_results, 4);
        assert_eq!(sched.bookkeeping_records(), 4);
        sched.shutdown();
    }

    /// `tiny_spec` run for `measure_cycles`: about a microsecond a cycle.
    fn spec_of_length(seed: u64, measure_cycles: u64) -> CustomSpec {
        let mut spec = tiny_spec(seed);
        spec.sim.measure_cycles = measure_cycles;
        spec
    }

    fn position_of_result(sink: &Mutex<Vec<Response>>, want: u64) -> Option<usize> {
        lock(sink)
            .iter()
            .position(|r| matches!(r, Response::Result { id, .. } if *id == want))
    }

    #[test]
    fn a_job_queued_behind_a_running_one_starts_on_the_free_core() {
        let sched = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..SchedulerConfig::default()
        });
        let (emit, sink) = collect_emit();
        let m = sched.metrics();
        sched
            .submit(
                1,
                1,
                vec![spec_of_length(500, 300_000)],
                false,
                emit.clone(),
            )
            .unwrap();
        wait_for(|| m.queue_wait.count() == 1, "the slow job's pickup");
        sched
            .submit(2, 2, vec![spec_of_length(501, 300)], false, emit)
            .unwrap();
        wait_for(|| lock(&sink).len() == 2, "both results");
        let (slow, fast) = (position_of_result(&sink, 1), position_of_result(&sink, 2));
        assert!(
            fast.unwrap() < slow.unwrap(),
            "the fast job waited for the slow one to finish"
        );
        assert_eq!(sched.lanes_started(), 2);
        sched.shutdown();
    }

    #[test]
    fn both_jobs_of_a_sweep_start_on_parked_lanes() {
        let sched = Scheduler::new(SchedulerConfig {
            threads: 2,
            ..SchedulerConfig::default()
        });
        let (emit, sink) = collect_emit();
        let m = sched.metrics();
        let sweep_done = |n: usize| {
            lock(&sink)
                .iter()
                .filter(|r| matches!(r, Response::SweepResult { .. }))
                .count()
                == n
        };
        // Two jobs at once start both lanes; they then park.
        let warm = vec![spec_of_length(600, 100_000), spec_of_length(601, 100_000)];
        sched.submit(1, 1, warm, true, emit.clone()).unwrap();
        wait_for(|| sweep_done(1), "the warm-up sweep");
        assert_eq!(sched.lanes_started(), 2);
        let slow = vec![spec_of_length(602, 200_000), spec_of_length(603, 200_000)];
        sched.submit(1, 2, slow, true, emit).unwrap();
        // Pickups are read before completions: four pickups while two
        // jobs have run means both slow jobs started before either ended.
        wait_for(
            || {
                let picked = m.queue_wait.count();
                let finished = sched.stats().jobs_run;
                assert_eq!(finished, 2, "a slow job finished before both started");
                picked == 4
            },
            "both slow jobs' pickups",
        );
        wait_for(|| sweep_done(2), "the slow sweep");
        assert_eq!(sched.lanes_started(), 2);
        sched.shutdown();
    }

    #[test]
    fn one_request_at_a_time_runs_on_one_lane() {
        let sched = Scheduler::new(SchedulerConfig {
            threads: 8,
            ..SchedulerConfig::default()
        });
        let (emit, sink) = collect_emit();
        for id in 1..=6u64 {
            sched
                .submit(1, id, vec![tiny_spec(700 + id)], false, emit.clone())
                .unwrap();
            wait_for(|| lock(&sink).len() as u64 == id, "the answer");
        }
        assert_eq!(sched.stats().jobs_run, 6);
        assert_eq!(sched.lanes_started(), 1, "a free lane was passed over");
        sched.shutdown();
    }
}
