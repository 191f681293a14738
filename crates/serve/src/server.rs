//! The TCP daemon: event-loop front end, worker pool, drain.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!   I/O thread (event loop) ──────────────► bounded MPMC queue
//!   (accept, read, parse, answer ops,          │
//!    cache hits and overloaded in place)       ▼
//!        ▲                               fixed worker pool
//!        │ outbox + wake byte            (deadline check, solve,
//!        └─────────────────────────────── cache fill, respond)
//! ```
//!
//! The I/O thread owns every socket (see `evloop`). Answers it makes itself
//! go straight into the connection's write buffer; workers hand theirs back
//! through the event loop's outbox, so no two threads ever write one socket.
//!
//! ## Request lifecycle timestamps
//!
//! Every request is stamped at the points DESIGN.md §12 names: `t_recv`
//! (full line read), `t_enqueue` (queue push), `t_dequeue` (worker pop) and
//! completion (response recorded). The derived phases feed the per-op
//! latency histograms and the access log:
//!
//! * `queue_wait = t_dequeue − t_enqueue` (0 for I/O-thread answers),
//! * `service   = done − t_dequeue` (platform build + solve),
//! * `total     = done − t_recv`.
//!
//! All three come from one monotone clock, so
//! `queue_wait + service ≤ total` always holds (the M070 lint checks it on
//! the access log). When [`ServeBuilder::access_log`] is set, every
//! completed request appends one JSONL line; requests whose `total` is at
//! least [`ServeBuilder::slow_threshold`] additionally carry the solver's
//! span tree captured via [`mosc_obs::SpanCapture`].
//!
//! Shutdown is a protocol op, not a signal: the workspace forbids `unsafe`
//! outside the poller, so no signal handler is installed, and
//! `{"op":"shutdown"}` plays the role SIGTERM would. On shutdown the daemon
//! stops accepting connections and new requests, closes the queue, lets the
//! workers drain every queued job (each still gets its response), and joins
//! all threads before returning from [`Server::run`].

use crate::cache::{cache_key, cache_key_parts, fnv1a, CacheKey, CachedSolve, LruCache};
use crate::evloop::Outbox;
use crate::metrics::ServeMetrics;
use crate::proto::{
    batch_response_to_json, canonical_json, error_to_json, fresh_span_id, fresh_trace_id,
    overloaded_to_json, parse_request, value_to_json, BatchRequest, ErrorKind, HelloResponse,
    ProtoError, Request, Response, SolveRequest,
};
use crate::queue::{BoundedQueue, QueueFull};
use mosc_analyze::json::{ObjectWriter, Value};
use mosc_core::{BatchVariant, KernelDelta, Platform, SolveOptions, SolveReport, SolverKind};
use mosc_obs::{
    bucket_upper, FlightKind, FlightRecorder, SpanCapture, SpanStats, TimelineWindow, LOG_BUCKETS,
};
use std::fs::File;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub use crate::proto::ServeStats;

/// Daemon configuration, assembled by [`ServeBuilder`].
#[derive(Debug, Clone)]
pub(crate) struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads solving queued requests (`0` = all available cores).
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it answer `overloaded`.
    pub queue_capacity: usize,
    /// LRU solution-cache capacity (`0` disables caching).
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Structured JSONL access log path (`None` disables it). The file is
    /// truncated at bind time: one run, one log.
    pub access_log: Option<String>,
    /// Requests whose total latency reaches this threshold get their solver
    /// span tree attached to the access-log line (needs the `mosc-obs`
    /// recorder enabled for the spans to exist).
    pub slow_threshold: Duration,
    /// Windowed timeline JSONL path (`None` disables it). Every completed
    /// request lands in a [`mosc_obs::Timeline`] window; closed windows are
    /// appended as `{"type":"timeline",...}` lines. Unlike the latency
    /// histograms this is not gated on the `mosc-obs` recorder — the
    /// timeline is explicitly opted into by setting the path.
    pub timeline: Option<String>,
    /// Width of one timeline window.
    pub timeline_window: Duration,
    /// Close connections that have been idle (no bytes received, no
    /// responses pending) for this long. `None` keeps them forever — the
    /// historical behavior, and the default.
    pub idle_timeout: Option<Duration>,
    /// Flight-recorder dump path (`None` disables the recorder entirely).
    /// When set, every request milestone lands in a fixed-size in-memory
    /// ring, and each anomaly — deadline exceeded, queue saturation, a
    /// request over [`Self::slow_threshold`], a worker panic — snapshots
    /// the ring into one `{"type":"flight_dump"}` JSONL line here. The
    /// file is truncated at bind time, like the access log.
    pub flight_dump: Option<String>,
    /// Flight-recorder ring capacity in entries (rounded up to a power of
    /// two; ignored unless [`Self::flight_dump`] is set).
    pub flight_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7070".into(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 128,
            default_deadline: None,
            access_log: None,
            slow_threshold: Duration::from_millis(100),
            timeline: None,
            timeline_window: Duration::from_secs(1),
            idle_timeout: None,
            flight_dump: None,
            flight_capacity: mosc_obs::DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// Fluent configuration for a [`Server`]: the blessed construction API.
///
/// ```no_run
/// use mosc_serve::Server;
/// use std::time::Duration;
///
/// let server = Server::builder()
///     .addr("127.0.0.1:0")
///     .workers(4)
///     .queue_capacity(256)
///     .cache_capacity(1024)
///     .default_deadline(Duration::from_secs(5))
///     .idle_timeout(Duration::from_secs(300))
///     .bind()
///     .expect("bind");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServeBuilder {
    opts: ServeOptions,
}

impl ServeBuilder {
    /// Starts from the defaults: `127.0.0.1:7070`, one worker per core, a
    /// 64-slot queue, a 128-entry cache, no deadline or idle timeout, and no
    /// access log, timeline or flight dump.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Listen address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.opts.addr = addr.into();
        self
    }

    /// Worker threads solving queued requests (`0` = all available cores).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.opts.workers = workers;
        self
    }

    /// Bounded queue capacity; pushes beyond it answer `overloaded`.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.opts.queue_capacity = capacity;
        self
    }

    /// LRU solution-cache capacity (`0` disables caching).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.opts.cache_capacity = capacity;
        self
    }

    /// Deadline applied to requests that do not carry their own.
    #[must_use]
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.opts.default_deadline = Some(deadline);
        self
    }

    /// Structured JSONL access-log sink (truncated at bind: one run, one
    /// log).
    #[must_use]
    pub fn access_log(mut self, path: impl Into<String>) -> Self {
        self.opts.access_log = Some(path.into());
        self
    }

    /// Requests at least this slow get their span tree attached to the
    /// access-log line.
    #[must_use]
    pub fn slow_threshold(mut self, threshold: Duration) -> Self {
        self.opts.slow_threshold = threshold;
        self
    }

    /// Windowed timeline JSONL sink.
    #[must_use]
    pub fn timeline(mut self, path: impl Into<String>) -> Self {
        self.opts.timeline = Some(path.into());
        self
    }

    /// Width of one timeline window.
    #[must_use]
    pub fn timeline_window(mut self, window: Duration) -> Self {
        self.opts.timeline_window = window;
        self
    }

    /// Close connections idle (no bytes, no pending responses) this long.
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.opts.idle_timeout = Some(timeout);
        self
    }

    /// Flight-recorder dump sink: anomalies snapshot the milestone ring
    /// into `{"type":"flight_dump"}` JSONL lines at this path.
    #[must_use]
    pub fn flight_dump(mut self, path: impl Into<String>) -> Self {
        self.opts.flight_dump = Some(path.into());
        self
    }

    /// Flight-recorder ring capacity in entries (rounded up to a power of
    /// two).
    #[must_use]
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.opts.flight_capacity = capacity;
        self
    }

    /// Binds the listen socket and creates the configured sinks; the
    /// server only starts serving on [`Server::run`].
    ///
    /// # Errors
    /// I/O errors from binding, inspecting the socket, or creating the
    /// access-log/timeline files.
    pub fn bind(self) -> std::io::Result<Server> {
        Server::bind_with(self.opts)
    }
}

/// The distributed-tracing identity of one server-side unit of work: which
/// trace it belongs to, the span the server minted for it, and the span it
/// descends from (`0` = a root the server originated itself). Every access
/// log entry carries all three, so `mosc-cli trace` can join client, queue
/// and solver views of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceIds {
    pub(crate) trace_id: u128,
    pub(crate) span_id: u64,
    pub(crate) parent_id: u64,
}

impl TraceIds {
    /// Continues a wire trace context (the v2 `trace` member) under a fresh
    /// server span, or originates a new root trace when the client sent
    /// none — either way every request ends up traceable.
    fn continue_from(wire: Option<&crate::proto::TraceContext>) -> Self {
        match wire {
            Some(t) => {
                Self { trace_id: t.trace_id, span_id: fresh_span_id(), parent_id: t.parent_id }
            }
            None => Self { trace_id: fresh_trace_id(), span_id: fresh_span_id(), parent_id: 0 },
        }
    }

    /// A child span of `self` in the same trace (batch variants hang off
    /// their dispatch span this way).
    fn child(self) -> Self {
        Self { trace_id: self.trace_id, span_id: fresh_span_id(), parent_id: self.span_id }
    }
}

/// One queued unit of work, stamped at receipt and at enqueue.
pub(crate) struct Job {
    payload: Payload,
    conn: u64,
    /// First per-connection sequence number of this line. A batch line
    /// consumes one seq per variant (variant `i` logs as `seq + i`), so the
    /// per-connection sequence stays collision-free for the M093 lint.
    seq: u64,
    /// Where the answer goes: the event loop's outbox, tagged with `conn`.
    outbox: Arc<Outbox>,
    deadline_at: Option<Instant>,
    t_recv: Instant,
    t_enqueue: Instant,
    /// The server span for this line (the dispatch span for a batch, whose
    /// variants each get a child span).
    trace: TraceIds,
}

/// What a queued line asks for.
enum Payload {
    /// One solver on one platform, keyed for the solution cache.
    Single(SolveRequest, CacheKey),
    /// Many variants of one shared platform. The second field is the
    /// canonical platform serialization — the interning-registry preimage —
    /// computed once on the I/O thread.
    Batch(BatchRequest, String),
}

/// One framed (newline-terminated) response line. Only [`respond_proto`]
/// mints one, and only by spending a [`Stamped`] receipt, so every line
/// that reaches a socket had its completion recorded first.
pub(crate) struct Reply(String);

impl Reply {
    /// The framed bytes, ready for the connection's write buffer.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

/// State shared by the event loop and the workers.
pub(crate) struct Shared {
    pub(crate) opts: ServeOptions,
    addr: SocketAddr,
    pub(crate) queue: BoundedQueue<Job>,
    cache: Mutex<LruCache>,
    pub(crate) metrics: ServeMetrics,
    access: Option<Mutex<File>>,
    /// Windowed completion timeline plus its output file; closed windows
    /// are appended as they fill, the in-progress window at drain.
    timeline: Option<(mosc_obs::Timeline, Mutex<File>)>,
    /// Flight recorder plus its dump file: request milestones ring-buffer
    /// in memory, anomalies snapshot the ring as `flight_dump` JSONL lines.
    flight: Option<(FlightRecorder, Mutex<File>)>,
    start: Instant,
    pub(crate) shutdown: AtomicBool,
    /// Connection-id allocator; ids start at 1 so `conn` is never falsy in
    /// log-processing tools.
    pub(crate) conns: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let merged = self.metrics.solve_total();
        let q = |p: f64| merged.quantile(p).map_or(0.0, |s| s * 1e3);
        ServeStats {
            requests: self.metrics.requests.get(),
            responses: self.metrics.responses.get(),
            cache_hits: self.metrics.cache_hits.get(),
            cache_misses: self.metrics.cache_misses.get(),
            cache_evictions: self.metrics.cache_evictions.get(),
            rejected: self.metrics.rejected.get(),
            deadline_exceeded: self.metrics.deadline_exceeded.get(),
            malformed: self.metrics.malformed.get(),
            queue_depth: self.queue.len() as u64,
            queue_peak: self.metrics.queue_peak.get(),
            cache_len: self.lock_cache().len() as u64,
            uptime_s: self.start.elapsed().as_secs_f64(),
            req_per_s: self.metrics.rate.per_sec(),
            p50_ms: q(0.5),
            p90_ms: q(0.9),
            p99_ms: q(0.99),
            p999_ms: q(0.999),
            max_ms: if merged.count > 0 { merged.max * 1e3 } else { 0.0 },
            slow_exemplar: self.metrics.slow_exemplar().map_or(0, |e| e.trace_id),
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, LruCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured worker-pool size (`0` = all available cores).
    fn worker_count(&self) -> usize {
        mosc_core::thread_count(self.opts.workers)
    }

    /// Flags shutdown and wakes the accept loop with a throwaway
    /// connection (the pure-std replacement for signalling the thread).
    fn initiate_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A cloneable remote control for a bound server; lets tests and the CLI
/// trigger the same drain-then-exit path as the wire `shutdown` op.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Begins drain-then-exit, as if `{"op":"shutdown"}` had arrived.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Current service counters and latency summary.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }
}

/// A bound (but not yet running) solve service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Starts a fluent configuration; finish with [`ServeBuilder::bind`].
    #[must_use]
    pub fn builder() -> ServeBuilder {
        ServeBuilder::new()
    }

    /// Binds the listen socket and (when configured) creates the access
    /// log. The server only starts serving on [`run`](Self::run).
    fn bind_with(opts: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let access = match &opts.access_log {
            None => None,
            Some(path) => Some(Mutex::new(File::create(path)?)),
        };
        let timeline = match &opts.timeline {
            None => None,
            Some(path) => Some((
                mosc_obs::Timeline::new(opts.timeline_window.as_secs_f64()),
                Mutex::new(File::create(path)?),
            )),
        };
        let flight = match &opts.flight_dump {
            None => None,
            Some(path) => {
                let recorder = FlightRecorder::new(opts.flight_capacity);
                recorder.enable();
                Some((recorder, Mutex::new(File::create(path)?)))
            }
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(opts.queue_capacity),
            cache: Mutex::new(LruCache::new(opts.cache_capacity)),
            metrics: ServeMetrics::new(),
            access,
            timeline,
            flight,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            conns: AtomicU64::new(0),
            addr,
            opts,
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (useful with `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A remote control for this server.
    #[must_use]
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: self.shared.clone() }
    }

    /// Serves until a shutdown is requested (wire op or [`ServeHandle`]),
    /// then drains: queued jobs all get responses, every thread is joined,
    /// and the access log (if any) gets its `hist_snapshot` and
    /// `serve_summary` trailer lines.
    ///
    /// # Errors
    /// Fatal accept-loop / event-loop I/O errors only; per-connection
    /// errors are contained to their connection.
    pub fn run(self) -> std::io::Result<()> {
        let shared = &self.shared;
        let result = std::thread::scope(|scope| {
            for _ in 0..shared.worker_count() {
                scope.spawn(|| worker_loop(shared));
            }
            let result = crate::evloop::run(&self.listener, shared);
            // The event loop closes the queue when its drain starts; an
            // early error must still release the blocked workers.
            shared.queue.close();
            result
        });
        write_access_trailer(shared);
        write_timeline_trailer(shared);
        result
    }
}

/// The worker side: pop, enforce the deadline, consult the cache, solve,
/// respond. A panicking solve must not shrink the worker pool for the rest
/// of the process lifetime, so each job runs under `catch_unwind`; a panic
/// is recorded as a flight anomaly (with a ring dump), answered with an
/// `internal` error, and the worker moves on. Every job gets exactly one
/// answer either way — the event loop retires a connection only once each
/// dispatched line is answered. The poisoned-mutex consequences are already
/// handled everywhere via `PoisonError::into_inner`.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let t_dequeue = Instant::now();
        shared.metrics.on_queue_depth(shared.queue.len() as u64);
        let wait_us = t_dequeue.saturating_duration_since(job.t_enqueue).as_micros() as u64;
        flight_record(shared, FlightKind::Dequeue, job.trace, wait_us);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &job.payload {
                Payload::Single(req, key) => process_job(shared, &job, req, key, t_dequeue),
                Payload::Batch(req, canonical_platform) => {
                    process_batch(shared, &job, req, canonical_platform, t_dequeue)
                }
            }));
        let reply = outcome.unwrap_or_else(|_| {
            flight_record(shared, FlightKind::Panic, job.trace, 0);
            flight_dump(shared, "panic");
            answer_panic(shared, &job, t_dequeue)
        });
        job.outbox.push(job.conn, reply);
    }
}

/// The answer to a job whose processing panicked: one `internal` error line
/// for the solve or the whole batch, recorded like any other completion and
/// never cached.
fn answer_panic(shared: &Shared, job: &Job, t_dequeue: Instant) -> Reply {
    let c = Completion::of_job(job, "error", Some(t_dequeue));
    finish(shared, error_to_json(c.id, ErrorKind::Internal.id(), "the solver panicked"), &c)
}

/// Everything [`finish`] needs to close out one request: identity, timing
/// anchors, and (for solved requests) the kernel-counter deltas and the
/// captured span tree.
struct Completion<'a> {
    id: &'a str,
    /// `"solve"` for solver requests, else the protocol op (or `"parse"`).
    op: &'a str,
    solver: Option<SolverKind>,
    /// `"ok"`, `"error"` or `"overloaded"`.
    status: &'a str,
    cached: bool,
    /// Connection id and per-connection line sequence number — the join
    /// fields the M093 lint orders the log by.
    conn: u64,
    seq: u64,
    /// Canonical cache key for solve ops (the M082 lint joins hits to
    /// fills on it); `None` for protocol ops.
    key: Option<u64>,
    t_recv: Instant,
    /// Queue-push time; I/O-thread answers never queue, so it equals
    /// `t_recv` for them.
    t_enqueue: Instant,
    queue_wait: f64,
    service_start: Instant,
    deadline_at: Option<Instant>,
    kernel: KernelDelta,
    spans: Option<Vec<SpanStats>>,
    /// The enclosing `solve_batch` request id when this completion is one
    /// variant of a batch (the M110/M111 lints group entries on it);
    /// `None` for single solves and protocol ops.
    batch: Option<&'a str>,
    /// Distributed-trace identity: continued from the client's wire trace
    /// when one arrived, originated by the server otherwise.
    ids: TraceIds,
}

impl<'a> Completion<'a> {
    /// A protocol op or parse error: never queued, no solver attached.
    fn proto(
        id: &'a str,
        op: &'a str,
        status: &'a str,
        t_recv: Instant,
        conn: u64,
        seq: u64,
    ) -> Self {
        Self {
            id,
            op,
            solver: None,
            status,
            cached: false,
            conn,
            seq,
            key: None,
            t_recv,
            t_enqueue: t_recv,
            queue_wait: 0.0,
            service_start: t_recv,
            deadline_at: None,
            kernel: KernelDelta::default(),
            spans: None,
            batch: None,
            ids: TraceIds::continue_from(None),
        }
    }

    /// A solve or `solve_batch` line's completion, identified by its
    /// payload. `t_dequeue` is when a worker popped the job; `None` marks a
    /// line the I/O thread answered itself (a cache hit or `overloaded`),
    /// which never queued, so its enqueue and dequeue anchors collapse onto
    /// `t_recv` and the logged pipeline order stays monotone.
    fn of_job(job: &'a Job, status: &'a str, t_dequeue: Option<Instant>) -> Self {
        let (id, op, solver, key, batch) = match &job.payload {
            Payload::Single(req, key) => {
                (req.id.as_str(), "solve", Some(req.kind), Some(key.hash), None)
            }
            Payload::Batch(req, _) => {
                (req.id.as_str(), "solve_batch", None, None, Some(req.id.as_str()))
            }
        };
        let (t_enqueue, service_start) = match t_dequeue {
            Some(t_dequeue) => (job.t_enqueue, t_dequeue),
            None => (job.t_recv, job.t_recv),
        };
        Self {
            id,
            op,
            solver,
            status,
            cached: false,
            conn: job.conn,
            seq: job.seq,
            key,
            t_recv: job.t_recv,
            t_enqueue,
            queue_wait: service_start.saturating_duration_since(t_enqueue).as_secs_f64(),
            service_start,
            deadline_at: job.deadline_at,
            kernel: KernelDelta::default(),
            spans: None,
            batch,
            ids: job.trace,
        }
    }
}

/// Proof that [`record_completion`] ran for a request. The response
/// writers ([`respond`], [`respond_proto`]) each consume one to mint the
/// [`Reply`], so "stamp the histograms/timeline/access log, **then** write
/// the bytes" is the only order the code can express. The guarantee this
/// buys: a client that reads its response and immediately scrapes `stats`,
/// `metrics`, or the access log is certain to see its own request already
/// recorded — including the cache-hit fast path on the I/O thread.
#[must_use = "a completion stamp exists to be spent on the response write"]
struct Stamped(());

/// Records the request's phase latencies into the per-op histograms,
/// appends the access-log line, then frames the response. The single exit
/// path for every request, so no completion can miss a histogram or log
/// entry — and because recording happens *before* the bytes land, a client
/// that reads its response and immediately scrapes `metrics` (or `stats`)
/// is guaranteed to see its own request counted. The phases therefore
/// exclude the socket write itself, which is microseconds against
/// millisecond solves.
fn finish(shared: &Shared, line: String, c: &Completion<'_>) -> Reply {
    let stamped = record_completion(shared, c, Instant::now());
    // Solve and batch lines were announced by a `serve.request` event;
    // protocol ops and parse errors were not.
    if c.solver.is_some() || c.batch.is_some() {
        respond(shared, c.id, line, stamped)
    } else {
        respond_proto(shared, line, stamped)
    }
}

/// The recording half of [`finish`]: histograms, timeline and access log
/// for one completion, without writing any response bytes. The batch path
/// calls this once per variant and then frames a single response line.
/// Returns the [`Stamped`] receipt the response writers demand.
fn record_completion(shared: &Shared, c: &Completion<'_>, done: Instant) -> Stamped {
    let service = done.saturating_duration_since(c.service_start).as_secs_f64();
    let total = done.saturating_duration_since(c.t_recv).as_secs_f64();
    match c.solver {
        Some(kind) => {
            shared.metrics.record_solve(kind, c.queue_wait, service, total, c.ids.trace_id);
        }
        None => shared.metrics.record_proto(total),
    }
    let total_us = (total * 1e6) as u64;
    flight_record(shared, FlightKind::Done, c.ids, total_us);
    if total >= shared.opts.slow_threshold.as_secs_f64() {
        flight_record(shared, FlightKind::Slow, c.ids, total_us);
        flight_dump(shared, "slow");
    }
    record_timeline(shared, total, c.cached);
    log_access(shared, c, done, service, total);
    Stamped(())
}

/// Lands one completion in the windowed timeline (when configured) and
/// appends any windows that closed. Writing here, on the completion path,
/// keeps the output ordered without a sampler thread; an idle server
/// simply flushes its backlog of empty windows on the next request.
fn record_timeline(shared: &Shared, total_s: f64, cached: bool) {
    let Some((timeline, file)) = &shared.timeline else { return };
    timeline.record(total_s, cached);
    timeline.note_depth(shared.queue.len() as u64);
    append_windows(file, &timeline.drain_closed());
}

/// Flushes the in-progress timeline window at drain.
fn write_timeline_trailer(shared: &Shared) {
    let Some((timeline, file)) = &shared.timeline else { return };
    append_windows(file, &timeline.finish());
}

/// Appends timeline windows as `{"type":"timeline"}` lines, all in one
/// append.
fn append_windows(file: &Mutex<File>, windows: &[TimelineWindow]) {
    if !windows.is_empty() {
        let lines: Vec<String> = windows.iter().map(TimelineWindow::to_json_line).collect();
        append_line(file, lines.join("\n"));
    }
}

/// Appends `line` plus its newline to a JSONL sink in one `write_all` —
/// one `write(2)` per line, where `writeln!` on an unbuffered `File` makes
/// two — under the file's mutex, so concurrent writers never interleave.
/// Write errors (disk full, a log on a vanished mount) are dropped: they
/// must not take the request path down with them.
fn append_line(file: &Mutex<File>, mut line: String) {
    line.push('\n');
    let _ = file.lock().unwrap_or_else(PoisonError::into_inner).write_all(line.as_bytes());
}

/// Lands one milestone in the flight ring (no-op without `--flight-dump`).
fn flight_record(shared: &Shared, kind: FlightKind, ids: TraceIds, value: u64) {
    if let Some((recorder, _)) = &shared.flight {
        recorder.record(kind, ids.trace_id, ids.span_id, value);
    }
}

/// Snapshots the flight ring into one `{"type":"flight_dump"}` JSONL line —
/// the "what led up to this" record an anomaly leaves behind. Torn entries
/// (overwritten mid-copy) are counted, never emitted, so every entry in the
/// dump is internally consistent; the M123 lint checks the accounting.
fn flight_dump(shared: &Shared, reason: &str) {
    let Some((recorder, file)) = &shared.flight else { return };
    let snap = recorder.snapshot();
    let num = Value::Number;
    let entries: Vec<Value> = snap
        .entries
        .iter()
        .map(|e| {
            Value::Object(vec![
                ("seq".to_owned(), num(e.seq as f64)),
                ("t_us".to_owned(), num(e.t_us as f64)),
                (
                    "kind".to_owned(),
                    e.kind.map_or(Value::Null, |k| Value::String(k.as_str().to_owned())),
                ),
                ("trace_id".to_owned(), Value::String(format!("{:032x}", e.trace_id))),
                ("span_id".to_owned(), Value::String(format!("{:016x}", e.span_id))),
                ("value".to_owned(), num(e.value as f64)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("type".to_owned(), Value::String("flight_dump".to_owned())),
        ("reason".to_owned(), Value::String(reason.to_owned())),
        ("t_s".to_owned(), num(shared.start.elapsed().as_secs_f64())),
        ("head".to_owned(), num(snap.head as f64)),
        ("capacity".to_owned(), num(snap.capacity as f64)),
        ("dropped".to_owned(), num(snap.dropped as f64)),
        ("torn".to_owned(), num(snap.torn as f64)),
        ("entries".to_owned(), Value::Array(entries)),
    ]);
    append_line(file, value_to_json(&doc));
}

/// Most spans one access-log line may carry; anything beyond is dropped
/// and accounted in `spans_truncated`.
const MAX_ACCESS_SPANS: usize = 256;

/// Bytes an access-log line without spans takes, with room for its newline.
const ACCESS_LINE_BYTES: usize = 768;

/// Appends one `{"type":"access",...}` JSONL line for a completed request,
/// written member by member into one buffer: the line is on the response
/// path, so it builds no [`Value`] tree (only a slow request's span
/// attachment does).
fn log_access(shared: &Shared, c: &Completion<'_>, done: Instant, service: f64, total: f64) {
    let Some(access) = &shared.access else { return };
    let mut line = String::with_capacity(ACCESS_LINE_BYTES + c.id.len());
    let mut w = ObjectWriter::new(&mut line);
    w.str("type", "access")
        .num("t_s", shared.start.elapsed().as_secs_f64())
        .str("id", c.id)
        .str("op", c.op);
    match c.solver {
        Some(kind) => w.str("solver", kind.id()),
        None => w.null("solver"),
    };
    w.str("status", c.status)
        .bool("cached", c.cached)
        .num("queue_wait_s", c.queue_wait)
        .num("service_s", service)
        .num("total_s", total);
    match c.deadline_at {
        Some(at) => w.num("deadline_slack_s", signed_slack(at, done)),
        None => w.null("deadline_slack_s"),
    };
    let k = &c.kernel;
    w.num("expm_calls", k.expm_calls as f64)
        .num("period_map_matmuls", k.period_map_matmuls as f64)
        .num("steady_state_calls", k.steady_state_calls as f64)
        .num("linalg_matmuls", k.linalg_matmuls as f64)
        .num("eigen_calls", k.eigen_calls as f64)
        .num("registry_hits", k.registry_hits as f64)
        .num("registry_misses", k.registry_misses as f64)
        .num("conn", c.conn as f64)
        .num("seq", c.seq as f64)
        // Distributed-trace identity, hex like the wire form: JSON numbers
        // are f64 and cannot carry 64/128 bits losslessly. A null parent
        // marks a server-originated root (the client sent no trace).
        .hex("trace_id", c.ids.trace_id, 32)
        .hex("span_id", c.ids.span_id.into(), 16);
    match c.ids.parent_id {
        0 => w.null("parent_id"),
        parent => w.hex("parent_id", parent.into(), 16),
    };
    // The cache key travels as a hex string for the same reason.
    match c.key {
        Some(key) => w.hex("key", key.into(), 16),
        None => w.null("key"),
    };
    w.num("t_recv_s", since_start(shared, c.t_recv))
        .num("t_enqueue_s", since_start(shared, c.t_enqueue))
        .num("t_dequeue_s", since_start(shared, c.service_start))
        .num("t_done_s", since_start(shared, done));
    if let Some(batch) = c.batch {
        w.str("batch", batch);
    }
    if total >= shared.opts.slow_threshold.as_secs_f64() {
        if let Some(captured) = c.spans.as_ref().filter(|t| !t.is_empty()) {
            // A pathological solve can open thousands of distinct span
            // paths; cap the attachment so one bad request cannot balloon
            // the log line, and say how much was cut (the M091 span lint
            // skips containment checks on truncated entries).
            let num = Value::Number;
            let spans: Vec<Value> = captured
                .iter()
                .take(MAX_ACCESS_SPANS)
                .map(|s| {
                    Value::Object(vec![
                        ("path".to_owned(), Value::String(s.path.clone())),
                        ("depth".to_owned(), num(s.depth as f64)),
                        ("calls".to_owned(), num(s.calls as f64)),
                        ("total_s".to_owned(), num(s.total.as_secs_f64())),
                        ("self_s".to_owned(), num(s.self_time.as_secs_f64())),
                    ])
                })
                .collect();
            w.value("spans", &Value::Array(spans));
            if captured.len() > MAX_ACCESS_SPANS {
                let cut = captured.len() - MAX_ACCESS_SPANS;
                w.num("spans_truncated", cut as f64);
            }
        }
    }
    w.finish();
    append_line(access, line);
}

/// Seconds since server start on the one monotone clock every lifecycle
/// timestamp shares — the clock the M090/M092 lints assume.
fn since_start(shared: &Shared, at: Instant) -> f64 {
    at.saturating_duration_since(shared.start).as_secs_f64()
}

/// Seconds from `now` until `at`: positive when the deadline is still
/// ahead, negative when it has already passed.
fn signed_slack(at: Instant, now: Instant) -> f64 {
    match at.checked_duration_since(now) {
        Some(left) => left.as_secs_f64(),
        None => -now.saturating_duration_since(at).as_secs_f64(),
    }
}

/// Drain-time access-log trailer: one `hist_snapshot` line per non-empty
/// latency histogram (elided empty buckets, `+Inf` last) and one
/// `serve_summary` line with the final counters — the inputs to the M072
/// and M073 lints.
fn write_access_trailer(shared: &Shared) {
    let Some(access) = &shared.access else { return };
    let num = Value::Number;
    for (name, snap, exemplars) in shared.metrics.latency_snapshots() {
        let cumulative = snap.cumulative();
        let mut buckets = Vec::new();
        let mut prev = 0u64;
        for (i, &(le, cum)) in cumulative.iter().enumerate() {
            let last = i == cumulative.len() - 1;
            if cum == prev && !last {
                continue;
            }
            prev = cum;
            let le_value = if last { Value::String("+Inf".to_owned()) } else { Value::Number(le) };
            buckets.push(Value::Object(vec![
                ("le".to_owned(), le_value),
                ("cum".to_owned(), num(cum as f64)),
            ]));
        }
        let mut doc = vec![
            ("type".to_owned(), Value::String("hist_snapshot".to_owned())),
            ("name".to_owned(), Value::String(name.to_owned())),
            ("count".to_owned(), num(snap.count as f64)),
            ("sum".to_owned(), num(snap.sum)),
            ("buckets".to_owned(), Value::Array(buckets)),
        ];
        if !exemplars.is_empty() {
            let list: Vec<Value> = exemplars
                .iter()
                .map(|&(i, e)| {
                    let le = if i == LOG_BUCKETS - 1 {
                        Value::String("+Inf".to_owned())
                    } else {
                        Value::Number(bucket_upper(i))
                    };
                    Value::Object(vec![
                        ("le".to_owned(), le),
                        ("trace_id".to_owned(), Value::String(format!("{:032x}", e.trace_id))),
                        ("value".to_owned(), num(e.value)),
                    ])
                })
                .collect();
            doc.push(("exemplars".to_owned(), Value::Array(list)));
        }
        append_line(access, value_to_json(&Value::Object(doc)));
    }
    let s = shared.stats();
    let doc = Value::Object(vec![
        ("type".to_owned(), Value::String("serve_summary".to_owned())),
        ("requests".to_owned(), num(s.requests as f64)),
        ("responses".to_owned(), num(s.responses as f64)),
        ("cache_hits".to_owned(), num(s.cache_hits as f64)),
        ("cache_misses".to_owned(), num(s.cache_misses as f64)),
        ("cache_evictions".to_owned(), num(s.cache_evictions as f64)),
        ("rejected".to_owned(), num(s.rejected as f64)),
        ("deadline_exceeded".to_owned(), num(s.deadline_exceeded as f64)),
        ("malformed".to_owned(), num(s.malformed as f64)),
        ("queue_peak".to_owned(), num(s.queue_peak as f64)),
        ("uptime_s".to_owned(), num(s.uptime_s)),
    ]);
    append_line(access, value_to_json(&doc));
}

fn process_job(
    shared: &Shared,
    job: &Job,
    req: &SolveRequest,
    key: &CacheKey,
    t_dequeue: Instant,
) -> Reply {
    let id = &req.id;
    let base = Completion::of_job(job, "ok", Some(t_dequeue));
    // Deadline may already have burned off while queued.
    let remaining = match job.deadline_at {
        None => None,
        Some(at) => match at.checked_duration_since(Instant::now()) {
            Some(left) if left > Duration::ZERO => Some(left),
            _ => {
                shared.metrics.on_deadline_exceeded();
                flight_record(shared, FlightKind::Deadline, job.trace, 0);
                flight_dump(shared, "deadline");
                return finish(
                    shared,
                    error_to_json(id, "deadline", "deadline expired while queued"),
                    &Completion { status: "error", ..base },
                );
            }
        },
    };
    // A duplicate may have filled the cache while this job waited. The
    // lookup is its own statement so the cache lock drops before the answer.
    let hit = shared.lock_cache().get(key);
    if let Some(hit) = hit {
        shared.metrics.on_cache_hit();
        let line = hit.response_line(id, req.want_schedule, true);
        return finish(shared, line, &Completion { cached: true, ..base });
    }
    shared.metrics.on_cache_miss();

    let doc = Value::Object(vec![("platform".to_owned(), req.platform.clone())]);
    let platform = match mosc_analyze::platform_from_doc(&doc) {
        Ok(p) => p,
        Err(e) => {
            return finish(
                shared,
                error_to_json(id, "usage", &e.to_string()),
                &Completion { status: "error", ..base },
            );
        }
    };
    let opts = SolveOptions { deadline: remaining, ..req.options };
    // The solver's root span tree recorded on this thread lands in the
    // snapshot attached to the access-log line; kernel counters travel as
    // the report's `KernelDelta`, which also sees EXS's partition threads.
    let capture = SpanCapture::new();
    let result = capture.observe(|| mosc_core::solve(req.kind, &platform, &opts));
    let spans = Some(capture.snapshot());
    // The deadline must hold when the response is written, not just at
    // dequeue: the polynomial solvers run to completion by contract, so a
    // slow solve can sail past it. Answer the deadline error the client
    // asked for, and do NOT cache the late result — a cache fill logged as
    // an error would leave later hits' keys unannounced for the M082 lint.
    if let (Ok(report), Some(at)) = (&result, job.deadline_at) {
        let now = Instant::now();
        if now > at {
            shared.metrics.on_deadline_exceeded();
            let late_us = now.saturating_duration_since(at).as_micros() as u64;
            flight_record(shared, FlightKind::Deadline, job.trace, late_us);
            flight_dump(shared, "deadline");
            return finish(
                shared,
                error_to_json(id, "deadline", "deadline expired during solve"),
                &Completion { status: "error", kernel: report.kernel, spans, ..base },
            );
        }
    }
    let o = answer_solve(shared, id, req.want_schedule, &platform, key, req.kind, result);
    finish(shared, o.line, &Completion { status: o.status, kernel: o.kernel, spans, ..base })
}

/// One solve's answer: the rendered result line plus what its access-log
/// entry must say.
struct Outcome {
    line: String,
    status: &'static str,
    cached: bool,
    kernel: KernelDelta,
}

/// Turns a solver result into its answer under `id` — the one step single
/// and batch solves share. A success becomes a [`CachedSolve`], is rendered,
/// and fills the cache under `key` (counting a capacity eviction); an error
/// is classified for the wire, and a solver that ran out of its budget
/// bumps the deadline counter. Never answers from the cache.
fn answer_solve(
    shared: &Shared,
    id: &str,
    want_schedule: bool,
    platform: &Platform,
    key: &CacheKey,
    kind: SolverKind,
    result: mosc_core::Result<SolveReport>,
) -> Outcome {
    match result {
        Ok(report) => {
            let solved = CachedSolve {
                solver: kind,
                throughput: report.solution.throughput,
                peak_c: report.solution.peak_c(platform),
                feasible: report.solution.feasible,
                m: report.solution.m,
                wall_ms: report.wall.as_secs_f64() * 1e3,
                stats: report.stats,
                schedule_text: mosc_sched::text::to_text(&report.solution.schedule),
            };
            let line = solved.response_line(id, want_schedule, false);
            if shared.lock_cache().insert(key, solved) {
                shared.metrics.on_cache_eviction();
            }
            Outcome { line, status: "ok", cached: false, kernel: report.kernel }
        }
        Err(e) => {
            let kind = ErrorKind::of_algo(&e);
            if kind == ErrorKind::Deadline {
                shared.metrics.on_deadline_exceeded();
            }
            Outcome {
                line: error_to_json(id, kind.id(), &e.to_string()),
                status: "error",
                cached: false,
                kernel: KernelDelta::default(),
            }
        }
    }
}

/// The worker side of `solve_batch`: resolve the shared platform once
/// through the interning registry, consult the solution cache per variant,
/// solve the misses in order on this worker ([`mosc_core::solve_batch`]
/// with 1 thread: the worker pool is the daemon's parallelism, and a
/// per-batch fan-out only adds thread spawns), fill the cache, record one
/// access entry per variant (op `"solve"`, ids `"<batch id>#<i>"`,
/// sequence numbers `job.seq + i`), and answer with a single framed line.
fn process_batch(
    shared: &Shared,
    job: &Job,
    req: &BatchRequest,
    canonical_platform: &str,
    t_dequeue: Instant,
) -> Reply {
    let bid = &req.id;
    // Resolve the platform once. Eigendecomposition work across the resolve
    // is measured so the access log can prove a warm batch did none — the
    // M110 lint joins `registry_hits > 0` against `eigen_calls`.
    let eigs = || mosc_obs::counter_value("eigen.calls").unwrap_or(0);
    let eigs_before = eigs();
    let resolved = mosc_core::registry::intern_with(canonical_platform, || {
        let doc = Value::Object(vec![("platform".to_owned(), req.platform.clone())]);
        mosc_analyze::platform_from_doc(&doc)
    });
    let resolve_eigs = eigs().saturating_sub(eigs_before);
    let (platform, warm) = match resolved {
        Ok(resolved) => resolved,
        Err(e) => {
            // Every variant shares the broken platform: one error line for
            // the whole batch, logged under the batch's first seq.
            return finish(
                shared,
                error_to_json(bid, "usage", &e.to_string()),
                &Completion::of_job(job, "error", Some(t_dequeue)),
            );
        }
    };
    let ids: Vec<String> = (0..req.variants.len()).map(|i| format!("{bid}#{i}")).collect();
    let keys: Vec<CacheKey> = req
        .variants
        .iter()
        .map(|v| cache_key_parts(canonical_platform, v.kind, &v.options))
        .collect();
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(req.variants.len());
    let mut misses: Vec<usize> = Vec::new();
    for (i, v) in req.variants.iter().enumerate() {
        let hit = shared.lock_cache().get(&keys[i]);
        if let Some(hit) = hit {
            shared.metrics.on_cache_hit();
            outcomes.push(Some(Outcome {
                line: hit.response_line(&ids[i], v.want_schedule, true),
                status: "ok",
                cached: true,
                kernel: KernelDelta::default(),
            }));
        } else {
            shared.metrics.on_cache_miss();
            misses.push(i);
            outcomes.push(None);
        }
    }
    let variants: Vec<BatchVariant> = misses
        .iter()
        .map(|&i| BatchVariant { kind: req.variants[i].kind, options: req.variants[i].options })
        .collect();
    let results = mosc_core::solve_batch(&platform, &variants, 1);
    for (&i, result) in misses.iter().zip(results) {
        let v = &req.variants[i];
        outcomes[i] = Some(answer_solve(
            shared,
            &ids[i],
            v.want_schedule,
            &platform,
            &keys[i],
            v.kind,
            result,
        ));
    }
    // Record every variant, then answer once. Registry attribution is
    // deterministic: each variant reports the batch's resolve outcome, and
    // the resolve's eigendecomposition work lands on the first variant.
    let done = Instant::now();
    let mut lines = Vec::with_capacity(outcomes.len());
    let mut stamped = None;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let Some(mut o) = outcome else { continue };
        o.kernel.registry_hits = u64::from(warm);
        o.kernel.registry_misses = u64::from(!warm);
        if i == 0 {
            o.kernel.eigen_calls = o.kernel.eigen_calls.saturating_add(resolve_eigs);
        }
        let c = Completion {
            id: &ids[i],
            op: "solve",
            solver: Some(req.variants[i].kind),
            cached: o.cached,
            seq: job.seq + i as u64,
            key: Some(keys[i].hash),
            kernel: o.kernel,
            // Every variant is a child span of the batch's dispatch span:
            // one shared trace id, one shared parent, a fresh span each —
            // the containment the M122 lint asserts.
            ids: job.trace.child(),
            ..Completion::of_job(job, o.status, Some(t_dequeue))
        };
        stamped = Some(record_completion(shared, &c, done));
        lines.push(o.line);
    }
    let stamped = stamped.expect("the parser guarantees at least one variant");
    respond(shared, bid, batch_response_to_json(bid, warm, &lines), stamped)
}

/// Frames one solve-response line: response metrics plus the
/// `serve.response` event the M062 lint pairs against `serve.request`.
/// Demands the caller's [`Stamped`] receipt: no response without its
/// completion recorded first.
fn respond(shared: &Shared, id: &str, line: String, stamped: Stamped) -> Reply {
    let reply = respond_proto(shared, line, stamped);
    mosc_obs::event("serve.response", &[("id", id_hash(id).into())]);
    reply
}

/// Frames one response line and records the response metrics, without the
/// request/response event pairing — protocol ops (ping/stats/metrics/
/// shutdown) and parse errors answer lines that no `serve.request` event
/// announced. The [`Stamped`] receipt proves the completion was recorded
/// before any byte lands.
// Taking `Stamped` by value (not reference) is the whole point of the
// receipt: a moved-in token cannot be spent on two responses.
#[allow(clippy::needless_pass_by_value)]
fn respond_proto(shared: &Shared, mut line: String, stamped: Stamped) -> Reply {
    let Stamped(()) = stamped; // spent: the record precedes the write.
                               // Count before the bytes land: a client may read them and query
                               // `stats`, and the response it just received must already be counted.
    shared.metrics.on_response();
    // The newline goes into the line's own buffer; the hit path sizes it
    // with room to spare, so framing copies nothing.
    line.push('\n');
    Reply(line)
}

/// 32-bit id hash for obs events: event fields travel through JSON numbers
/// (f64), so a full 64-bit hash would not survive the round trip.
fn id_hash(id: &str) -> u64 {
    fnv1a(id.as_bytes()) & 0xFFFF_FFFF
}

/// The answer to a line that is not a request: counted as malformed and
/// logged as a `parse` protocol op.
pub(crate) fn malformed(
    shared: &Shared,
    e: &ProtoError,
    t_recv: Instant,
    conn: u64,
    seq: u64,
) -> Reply {
    shared.metrics.on_malformed();
    let line = error_to_json(&e.id, e.kind.id(), &e.message);
    finish(shared, line, &Completion::proto(&e.id, "parse", "error", t_recv, conn, seq))
}

/// Dispatches the `seq`-th request line of connection `conn`, received at
/// `t_recv`, on the I/O thread. Returns how many sequence numbers the line
/// consumed (one per logged completion: 1 for everything except
/// `solve_batch`, which claims one per variant) and the answer when the
/// I/O thread made it itself: parse errors, protocol ops, cache hits and
/// `overloaded` rejections. A queued line returns `None`; its worker
/// answers through `outbox`. Every non-empty line gets **exactly one**
/// response line either way — the event loop's close-when-drained
/// accounting depends on that invariant.
pub(crate) fn handle_line(
    line: &str,
    shared: &Shared,
    outbox: &Arc<Outbox>,
    t_recv: Instant,
    conn: u64,
    seq: u64,
) -> (u64, Option<Reply>) {
    let proto = |id: &str, op: &str, status: &str, line: String| {
        Some(finish(shared, line, &Completion::proto(id, op, status, t_recv, conn, seq)))
    };
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return (1, Some(malformed(shared, &e, t_recv, conn, seq))),
    };
    match request {
        Request::Ping { id } => {
            let pong = Response::Pong { id: id.clone() }.to_json();
            (1, proto(&id, "ping", "ok", pong))
        }
        Request::Stats { id } => {
            let line = Response::Stats { id: id.clone(), stats: shared.stats() }.to_json();
            (1, proto(&id, "stats", "ok", line))
        }
        Request::Metrics { id } => {
            let text = shared.metrics.render_prometheus(
                shared.queue.len() as u64,
                shared.lock_cache().len() as u64,
                shared.start.elapsed().as_secs_f64(),
            );
            let line = Response::Metrics { id: id.clone(), text }.to_json();
            (1, proto(&id, "metrics", "ok", line))
        }
        Request::Hello { id, max_version } => {
            let (line, status) = match HelloResponse::negotiate(&id, max_version) {
                Ok(hello) => (Response::Hello(hello).to_json(), "ok"),
                Err(message) => (error_to_json(&id, ErrorKind::Usage.id(), &message), "error"),
            };
            (1, proto(&id, "hello", status, line))
        }
        Request::Shutdown { id } => {
            let bye = Response::ShuttingDown { id: id.clone() }.to_json();
            let reply = proto(&id, "shutdown", "ok", bye);
            shared.initiate_shutdown();
            (1, reply)
        }
        Request::Solve(req) => {
            shared.metrics.on_request();
            let ids = TraceIds::continue_from(req.trace.as_ref());
            flight_record(shared, FlightKind::Recv, ids, 0);
            let key = cache_key(&req);
            mosc_obs::event(
                "serve.request",
                &[("id", id_hash(&req.id).into()), ("key", (key.hash & 0xFFFF_FFFF).into())],
            );
            // A deadline no `Instant` can hold is no deadline at all.
            let deadline_at = req
                .options
                .deadline
                .or(shared.opts.default_deadline)
                .and_then(|d| Instant::now().checked_add(d));
            let job = Job {
                payload: Payload::Single(req, key),
                conn,
                seq,
                outbox: Arc::clone(outbox),
                deadline_at,
                t_recv,
                t_enqueue: t_recv,
                trace: ids,
            };
            (1, dispatch(shared, job))
        }
        Request::SolveBatch(req) => {
            shared.metrics.on_request();
            let consumed = req.variants.len() as u64;
            // The dispatch span: one server span for the whole batch line,
            // minted here so every variant (a child span solved later by a
            // worker) shares it as parent.
            let ids = TraceIds::continue_from(req.trace.as_ref());
            flight_record(shared, FlightKind::Recv, ids, consumed);
            // The registry preimage doubles as the request-event key, so
            // repeated-platform batch traffic is visible in telemetry.
            let canonical_platform = canonical_json(&req.platform);
            mosc_obs::event(
                "serve.request",
                &[
                    ("id", id_hash(&req.id).into()),
                    ("key", (fnv1a(canonical_platform.as_bytes()) & 0xFFFF_FFFF).into()),
                ],
            );
            let job = Job {
                payload: Payload::Batch(req, canonical_platform),
                conn,
                seq,
                outbox: Arc::clone(outbox),
                deadline_at: None,
                t_recv,
                t_enqueue: t_recv,
                trace: ids,
            };
            (consumed, dispatch(shared, job))
        }
    }
}

/// Hands a solve or batch line to the worker pool, unless the I/O thread
/// answers it in place: a single solve whose key is cached is answered
/// from the cache without occupying a queue slot or a worker, and a full
/// queue answers `overloaded`. Returns that in-place answer, or `None` once
/// the job is queued (stamped `t_enqueue` at the push).
fn dispatch(shared: &Shared, mut job: Job) -> Option<Reply> {
    if let Payload::Single(req, key) = &job.payload {
        let hit = shared.lock_cache().get(key);
        if let Some(hit) = hit {
            shared.metrics.on_cache_hit();
            let line = hit.response_line(&req.id, req.want_schedule, true);
            let c = Completion {
                cached: true,
                deadline_at: None,
                ..Completion::of_job(&job, "ok", None)
            };
            return Some(finish(shared, line, &c));
        }
    }
    let ids = job.trace;
    job.t_enqueue = Instant::now();
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared.metrics.on_queue_depth(depth as u64);
            flight_record(shared, FlightKind::Enqueue, ids, depth as u64);
            None
        }
        Err(QueueFull(job)) => {
            shared.metrics.on_rejected();
            flight_record(shared, FlightKind::Overload, ids, shared.queue.len() as u64);
            flight_dump(shared, "overload");
            let c = Completion::of_job(&job, "overloaded", None);
            Some(finish(shared, overloaded_to_json(c.id), &c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the old hand-rolled `format!` serializer: ids with
    /// JSON metacharacters must escape, and every field must round-trip
    /// through the parser.
    #[test]
    fn stats_json_escapes_and_round_trips() {
        let stats = ServeStats {
            requests: 7,
            responses: 7,
            cache_hits: 2,
            cache_misses: 5,
            cache_evictions: 1,
            rejected: 0,
            deadline_exceeded: 0,
            malformed: 3,
            queue_depth: 0,
            queue_peak: 4,
            cache_len: 5,
            uptime_s: 1.25,
            req_per_s: 2.5,
            p50_ms: 10.0,
            p90_ms: 20.0,
            p99_ms: 30.0,
            p999_ms: 31.0,
            max_ms: 31.5,
            slow_exemplar: 0xdead_beef,
        };
        let line = stats.to_json("quote\"and\nnewline");
        let doc = Value::parse(&line).expect("stats line must be valid JSON");
        assert_eq!(doc.get("id").and_then(Value::as_str), Some("quote\"and\nnewline"));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        let payload = doc.get("stats").expect("stats member");
        assert_eq!(payload.get("requests").and_then(Value::as_usize), Some(7));
        assert_eq!(payload.get("malformed").and_then(Value::as_usize), Some(3));
        assert_eq!(payload.get("queue_peak").and_then(Value::as_usize), Some(4));
        assert_eq!(payload.get("p99_ms").and_then(Value::as_f64), Some(30.0));
        assert_eq!(payload.get("p999_ms").and_then(Value::as_f64), Some(31.0));
        assert_eq!(payload.get("req_per_s").and_then(Value::as_f64), Some(2.5));
        assert_eq!(
            payload.get("slow_exemplar").and_then(Value::as_str),
            Some("000000000000000000000000deadbeef"),
            "the slow exemplar travels as a 32-hex trace id"
        );
    }

    /// One JSONL append is one `write(2)`: the helper writes exactly the
    /// line and its newline, and moves this thread's `syscw` by exactly 1.
    #[cfg(target_os = "linux")]
    #[test]
    fn append_line_is_one_write_of_the_line_and_its_newline() {
        fn syscw() -> u64 {
            std::fs::read_to_string("/proc/thread-self/io")
                .expect("per-thread I/O accounting")
                .lines()
                .find_map(|l| l.strip_prefix("syscw:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("a syscw field")
        }
        let path = std::env::temp_dir()
            .join(format!("mosc-serve-append-line-{}.jsonl", std::process::id()));
        let file = Mutex::new(File::create(&path).expect("temp file"));
        let before = syscw();
        append_line(&file, r#"{"type":"access","id":"x"}"#.to_owned());
        let after = syscw();
        let written = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        assert_eq!(written, "{\"type\":\"access\",\"id\":\"x\"}\n");
        assert_eq!(after - before, 1, "one write(2) per appended line");
    }

    #[test]
    fn signed_slack_has_both_signs() {
        let now = Instant::now();
        let ahead = now + Duration::from_millis(250);
        assert!(signed_slack(ahead, now) > 0.2);
        assert!(signed_slack(now, ahead) < -0.2);
    }
}
