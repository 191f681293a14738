//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in any order across
//! requests (responses carry the request's `id`). Requests are parsed with
//! the `mosc-analyze` JSON reader; responses are written by the canonical
//! serializer in this module, which emits object members in a fixed order
//! and floats via Rust's shortest-round-trip formatting, so a response can
//! be parsed back into the exact same values (the property tests pin this).
//!
//! ## Requests
//!
//! ```json
//! {"id":"r1","op":"solve","solver":"ao","platform":{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0},"options":{"threads":2,"deadline_ms":5000},"want_schedule":false}
//! {"id":"b1","op":"solve_batch","platform":{...},"variants":[{"solver":"ao"},{"solver":"pco","options":{"max_m":8}}]}
//! {"id":"p1","op":"ping"}
//! {"id":"s1","op":"stats"}
//! {"id":"m1","op":"metrics"}
//! {"id":"q1","op":"shutdown"}
//! {"id":"h1","op":"hello","max_version":1}
//! ```
//!
//! `op` defaults to `"solve"`. The `platform` object uses the same schema
//! as the `mosc-cli analyze`/`profile` spec files' `"platform"` section.
//! Every `options` member is optional and defaults to
//! [`SolveOptions::default`]; `deadline_ms` maps to
//! [`SolveOptions::deadline`].
//!
//! `solve_batch` solves many option-variants of **one** platform in a
//! single dispatch: the platform is resolved (and its thermal kernel
//! interned) once, the variants fan out over the worker's threads, and the
//! response is one line carrying a `results` array — per-variant objects in
//! request order, each shaped exactly like a single-solve `ok`/`error`
//! response with id `"<batch id>#<index>"`. The batch line also reports
//! whether the platform came from the interning registry
//! (`"registry":"warm"`) or had to be built (`"cold"`).
//!
//! ## Responses
//!
//! ```json
//! {"id":"r1","status":"ok","solver":"ao","throughput":1.05,"peak_c":54.2,"feasible":true,"m":3,"wall_ms":12.5,"cached":false,"stats":{...}}
//! {"id":"r2","status":"error","kind":"infeasible","message":"..."}
//! {"id":"r3","status":"overloaded","message":"queue full"}
//! ```
//!
//! `status` is `"ok"`, `"error"`, or `"overloaded"`; error responses
//! classify themselves through `kind` (see [`ErrorKind`]). Both directions
//! of the wire are typed: [`Request`] and [`Response`] each have exactly
//! one parse/serialize pair, and the property tests pin that a value
//! round-trips through its own lines bit-identically.
//!
//! ## Versioning
//!
//! The `hello` op negotiates a protocol version. Version **1** is the line
//! protocol this module documents; a client sends its newest understood
//! version as `max_version` (optional — absent means "newest you have")
//! and the daemon answers with the version both sides will speak plus its
//! full supported range and op list:
//!
//! | version | contents |
//! |---------|----------|
//! | 1       | `solve`, `solve_batch`, `ping`, `stats`, `metrics`, `shutdown`, `hello`; responses `ok`/`error`/`overloaded` |
//! | 2       | v1 plus distributed tracing: `solve`/`solve_batch` accept an optional `trace` member (`"<128-bit trace id>-<64-bit parent span id>"`, lower-case hex) that the daemon continues through worker handoff and batch fan-out into the access log, flight dumps and histogram exemplars |
//!
//! Unknown ops never drop the connection: they answer a structured
//! `{"status":"error","kind":"unsupported",...}` line naming the op, so a
//! newer client degrades gracefully against an older daemon. The v2 `trace`
//! member degrades the same way downward: a v1 daemon ignores unknown
//! request members, so a v2 client that sends trace context to an old
//! daemon still gets its solve answered — only the trace is dropped.

use mosc_analyze::json::{write_canonical, write_string, Value};
use mosc_core::{AlgoError, SolveOptions, SolverKind, SolverStats};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Oldest protocol version this build can still speak.
pub const PROTO_VERSION_MIN: u32 = 1;
/// Newest protocol version this build speaks (and prefers).
pub const PROTO_VERSION_MAX: u32 = 2;

/// Every op name the daemon understands, sorted; advertised by `hello`.
pub const OPS: &[&str] = &["hello", "metrics", "ping", "shutdown", "solve", "solve_batch", "stats"];

/// Picks the protocol version for a session from the client's advertised
/// `max_version` (`None` = "newest you have"): the newest version both
/// sides understand.
///
/// # Errors
/// A human-readable message when the client's newest version predates
/// everything this build can speak.
pub fn negotiate_version(client_max: Option<u32>) -> Result<u32, String> {
    let client_max = client_max.unwrap_or(PROTO_VERSION_MAX);
    if client_max < PROTO_VERSION_MIN {
        return Err(format!(
            "protocol version {client_max} is no longer spoken (oldest supported: {PROTO_VERSION_MIN})"
        ));
    }
    Ok(client_max.min(PROTO_VERSION_MAX))
}

/// Wire trace context (protocol v2): the 128-bit trace id naming one
/// end-to-end operation plus the 64-bit id of the span that dispatched this
/// request — W3C-traceparent-style, spelled `"<32 hex>-<16 hex>"` on the
/// wire. A daemon that receives one continues the trace: it mints a fresh
/// span id for its own work, records the client's span as the parent, and
/// stamps all three ids on the access-log entry, so a cross-process hop is
/// one more parent/child edge in the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 128-bit id shared by every span of one distributed operation.
    /// Never zero on a well-formed wire line.
    pub trace_id: u128,
    /// The 64-bit id of the client-side span that issued this request.
    pub parent_id: u64,
}

impl TraceContext {
    /// Mints a fresh root context: a new trace id and a new origin span id.
    #[must_use]
    pub fn root() -> Self {
        Self { trace_id: fresh_trace_id(), parent_id: fresh_span_id() }
    }

    /// The canonical wire spelling: `"<trace_id:032x>-<parent_id:016x>"`.
    #[must_use]
    pub fn to_wire(&self) -> String {
        format!("{:032x}-{:016x}", self.trace_id, self.parent_id)
    }

    /// Parses the wire spelling written by [`Self::to_wire`]: exactly 32
    /// lower-case hex digits, a dash, exactly 16 lower-case hex digits,
    /// with a nonzero trace id.
    #[must_use]
    pub fn parse_wire(s: &str) -> Option<Self> {
        let (t, p) = s.split_once('-')?;
        if t.len() != 32 || p.len() != 16 {
            return None;
        }
        let lower_hex =
            |s: &str| s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        if !lower_hex(t) || !lower_hex(p) {
            return None;
        }
        let trace_id = u128::from_str_radix(t, 16).ok()?;
        let parent_id = u64::from_str_radix(p, 16).ok()?;
        if trace_id == 0 {
            return None;
        }
        Some(Self { trace_id, parent_id })
    }
}

/// A process-global splitmix64 stream for span/trace ids: seeded once from
/// the wall clock and address-space entropy, stepped with an atomic
/// counter. Not cryptographic — ids only need to be unique enough that two
/// concurrent requests never collide in one trace store.
fn id_entropy() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEED: AtomicU64 = AtomicU64::new(0);
    let mut seed = SEED.load(Ordering::Relaxed);
    if seed == 0 {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x9e37_79b9_7f4a_7c15, |d| d.as_nanos() as u64);
        // The address of a static differs across ASLR'd processes, so two
        // daemons started the same nanosecond still diverge.
        let aslr = std::ptr::addr_of!(COUNTER) as u64;
        seed = (nanos ^ aslr.rotate_left(32)) | 1;
        let _ = SEED.compare_exchange(0, seed, Ordering::Relaxed, Ordering::Relaxed);
        seed = SEED.load(Ordering::Relaxed);
    }
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mints a fresh nonzero 128-bit trace id.
#[must_use]
pub fn fresh_trace_id() -> u128 {
    loop {
        let id = (u128::from(id_entropy()) << 64) | u128::from(id_entropy());
        if id != 0 {
            return id;
        }
    }
}

/// Mints a fresh nonzero 64-bit span id.
#[must_use]
pub fn fresh_span_id() -> u64 {
    loop {
        let id = id_entropy();
        if id != 0 {
            return id;
        }
    }
}

/// What went wrong, as carried on the wire in an error response's `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a well-formed request.
    Parse,
    /// The line parsed but named an op this daemon does not implement.
    Unsupported,
    /// The request was well-formed but semantically wrong (bad platform,
    /// invalid option combination, unspeakable protocol version).
    Usage,
    /// No schedule satisfies the thermal constraint.
    Infeasible,
    /// The per-request deadline expired before the response was ready.
    Deadline,
    /// An internal invariant failed; the request was not at fault.
    Internal,
}

impl ErrorKind {
    /// The wire spelling of this kind.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Self::Parse => "parse",
            Self::Unsupported => "unsupported",
            Self::Usage => "usage",
            Self::Infeasible => "infeasible",
            Self::Deadline => "deadline",
            Self::Internal => "internal",
        }
    }

    /// Classifies a solver failure for the wire.
    #[must_use]
    pub fn of_algo(e: &AlgoError) -> Self {
        match e {
            AlgoError::Infeasible { .. } => Self::Infeasible,
            AlgoError::DeadlineExceeded => Self::Deadline,
            AlgoError::InvalidOptions { .. } => Self::Usage,
            AlgoError::Sched(_) => Self::Internal,
        }
    }
}

impl std::str::FromStr for ErrorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "parse" => Ok(Self::Parse),
            "unsupported" => Ok(Self::Unsupported),
            "usage" => Ok(Self::Usage),
            "infeasible" => Ok(Self::Infeasible),
            "deadline" => Ok(Self::Deadline),
            "internal" => Ok(Self::Internal),
            other => Err(format!("unknown error kind '{other}'")),
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// A malformed request line: the human-readable reason, echoed back in the
/// error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong with the line.
    pub message: String,
    /// The request id, when one could be recovered before the failure.
    pub id: String,
    /// How the error response should classify itself: [`ErrorKind::Parse`]
    /// for malformed lines, [`ErrorKind::Unsupported`] for well-formed
    /// lines naming an op this daemon does not implement.
    pub kind: ErrorKind,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a solver (the default op).
    Solve(SolveRequest),
    /// Run several option-variants against one shared platform.
    SolveBatch(BatchRequest),
    /// Liveness probe.
    Ping {
        /// Request id to echo.
        id: String,
    },
    /// Service counter snapshot (JSON `stats` payload).
    Stats {
        /// Request id to echo.
        id: String,
    },
    /// Prometheus text exposition: the response's `metrics` member is the
    /// full scrape body (counters, gauges, per-op latency histograms) as
    /// one JSON-escaped string.
    Metrics {
        /// Request id to echo.
        id: String,
    },
    /// Drain in-flight work, then exit. Replaces a signal handler: the
    /// workspace forbids `unsafe`, so POSIX signals cannot be caught and
    /// graceful shutdown is a protocol op instead.
    Shutdown {
        /// Request id to echo.
        id: String,
    },
    /// Version handshake: advertise the newest protocol version the client
    /// understands, get back the negotiated session version plus the
    /// daemon's supported range and op list.
    Hello {
        /// Request id to echo.
        id: String,
        /// Newest protocol version the client speaks; `None` means "the
        /// newest you have".
        max_version: Option<u32>,
    },
}

impl Request {
    /// The request's correlation id (empty when the client sent none).
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            Self::Solve(r) => &r.id,
            Self::SolveBatch(r) => &r.id,
            Self::Ping { id }
            | Self::Stats { id }
            | Self::Metrics { id }
            | Self::Shutdown { id }
            | Self::Hello { id, .. } => id,
        }
    }

    /// Serializes to one canonical request line (no trailing newline) that
    /// [`parse_request`] maps back to this exact value. Every in-repo
    /// client (the CLI, `perfbench`) composes request lines through this,
    /// so the wire has one writer for each direction.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            Self::Solve(r) => request_to_json(r),
            Self::SolveBatch(r) => batch_request_to_json(r),
            Self::Ping { id } => simple_op_to_json(id, "ping"),
            Self::Stats { id } => simple_op_to_json(id, "stats"),
            Self::Metrics { id } => simple_op_to_json(id, "metrics"),
            Self::Shutdown { id } => simple_op_to_json(id, "shutdown"),
            Self::Hello { id, max_version } => {
                let mut out = format!("{{\"id\":{},\"op\":\"hello\"", json_string(id));
                if let Some(v) = max_version {
                    out.push_str(&format!(",\"max_version\":{v}"));
                }
                out.push('}');
                out
            }
        }
    }
}

fn simple_op_to_json(id: &str, op: &str) -> String {
    format!("{{\"id\":{},\"op\":\"{op}\"}}", json_string(id))
}

/// A solve request: which solver, on what platform, with what options.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Which solver to run.
    pub kind: SolverKind,
    /// The platform description (the spec-file `"platform"` object).
    pub platform: Value,
    /// Solver options (wire-absent members take the defaults).
    pub options: SolveOptions,
    /// Whether the response should carry the schedule in
    /// `mosc-sched::text` form.
    pub want_schedule: bool,
    /// Distributed trace context (protocol v2); v1 clients leave it out
    /// and the wire form is byte-identical to v1.
    pub trace: Option<TraceContext>,
}

/// A `solve_batch` request: one platform, many solver/option variants.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Client-chosen correlation id; variant `i`'s result answers as
    /// `"<id>#<i>"`.
    pub id: String,
    /// The shared platform description.
    pub platform: Value,
    /// The variants, in request (and response) order.
    pub variants: Vec<BatchVariantRequest>,
    /// Distributed trace context (protocol v2), shared by every variant of
    /// the dispatch; v1 clients leave it out.
    pub trace: Option<TraceContext>,
}

/// One variant of a [`BatchRequest`]: everything of a solve request except
/// the platform, which the batch shares.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchVariantRequest {
    /// Which solver to run.
    pub kind: SolverKind,
    /// Solver options (wire-absent members take the defaults).
    pub options: SolveOptions,
    /// Whether this variant's result should carry the schedule text.
    pub want_schedule: bool,
}

/// The most variants one `solve_batch` line may carry: bounds worst-case
/// work a single dispatch can pin on the worker pool.
pub const MAX_BATCH_VARIANTS: usize = 256;

/// The longest request line the daemon buffers, excluding its `\n`. A
/// longer line is answered with a `parse` error and its connection closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

pub(crate) fn proto_err(id: &str, message: impl Into<String>) -> ProtoError {
    ProtoError { message: message.into(), id: id.to_owned(), kind: ErrorKind::Parse }
}

/// Parses one request line.
///
/// # Errors
/// [`ProtoError`] for malformed JSON, a non-object line, an unknown op or
/// solver, or a mistyped member. The error carries whatever `id` could be
/// recovered, so the caller can still address its error response.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let mut doc = Value::parse(line).map_err(|e| proto_err("", format!("invalid JSON: {e}")))?;
    if !doc.is_object() {
        return Err(proto_err("", "request must be a JSON object"));
    }
    // The parsed document is ours: its members move into the request
    // instead of being copied out.
    let id = match doc.take("id") {
        None => String::new(),
        Some(Value::String(s)) => s,
        Some(_) => return Err(proto_err("", "'id' must be a string")),
    };
    let op = match doc.get("op") {
        None => "solve",
        Some(Value::String(s)) => s.as_str(),
        Some(_) => return Err(proto_err(&id, "'op' must be a string")),
    };
    match op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "hello" => {
            let max_version = match doc.get("max_version") {
                None => None,
                Some(v) => {
                    Some(v.as_usize().and_then(|n| u32::try_from(n).ok()).ok_or_else(|| {
                        proto_err(&id, "'max_version' must be a non-negative integer")
                    })?)
                }
            };
            Ok(Request::Hello { id, max_version })
        }
        "solve" => parse_solve(doc, id).map(Request::Solve),
        "solve_batch" => parse_solve_batch(doc, id).map(Request::SolveBatch),
        other => Err(ProtoError {
            message: format!("unknown op '{other}' (supported: {})", OPS.join(", ")),
            id,
            kind: ErrorKind::Unsupported,
        }),
    }
}

fn parse_solve(mut doc: Value, id: String) -> Result<SolveRequest, ProtoError> {
    let solver = match doc.get("solver") {
        None => return Err(proto_err(&id, "solve request needs a 'solver' member")),
        Some(Value::String(s)) => {
            s.parse::<SolverKind>().map_err(|e| proto_err(&id, e.to_string()))?
        }
        Some(_) => return Err(proto_err(&id, "'solver' must be a string")),
    };
    let platform = match doc.take("platform") {
        Some(p @ Value::Object(_)) => p,
        Some(_) => return Err(proto_err(&id, "'platform' must be an object")),
        None => return Err(proto_err(&id, "solve request needs a 'platform' object")),
    };
    let options = match doc.get("options") {
        None => SolveOptions::default(),
        Some(o @ Value::Object(_)) => parse_options(o, &id)?,
        Some(_) => return Err(proto_err(&id, "'options' must be an object")),
    };
    let want_schedule = match doc.get("want_schedule") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err(proto_err(&id, "'want_schedule' must be a boolean")),
    };
    let trace = parse_trace(&doc, &id)?;
    Ok(SolveRequest { id, kind: solver, platform, options, want_schedule, trace })
}

/// Parses the optional v2 `trace` member of a solve/`solve_batch` line.
fn parse_trace(doc: &Value, id: &str) -> Result<Option<TraceContext>, ProtoError> {
    match doc.get("trace") {
        None => Ok(None),
        Some(Value::String(s)) => TraceContext::parse_wire(s).map(Some).ok_or_else(|| {
            proto_err(id, "'trace' must be '<32 hex trace id>-<16 hex parent span id>'")
        }),
        Some(_) => Err(proto_err(id, "'trace' must be a string")),
    }
}

fn parse_solve_batch(mut doc: Value, id: String) -> Result<BatchRequest, ProtoError> {
    let platform = match doc.take("platform") {
        Some(p @ Value::Object(_)) => p,
        Some(_) => return Err(proto_err(&id, "'platform' must be an object")),
        None => return Err(proto_err(&id, "solve_batch request needs a 'platform' object")),
    };
    let raw = match doc.get("variants") {
        Some(Value::Array(items)) => items,
        Some(_) => return Err(proto_err(&id, "'variants' must be an array")),
        None => return Err(proto_err(&id, "solve_batch request needs a 'variants' array")),
    };
    if raw.is_empty() {
        return Err(proto_err(&id, "'variants' must not be empty"));
    }
    if raw.len() > MAX_BATCH_VARIANTS {
        return Err(proto_err(
            &id,
            format!("'variants' is capped at {MAX_BATCH_VARIANTS} entries, got {}", raw.len()),
        ));
    }
    let mut variants = Vec::with_capacity(raw.len());
    for (i, v) in raw.iter().enumerate() {
        if !v.is_object() {
            return Err(proto_err(&id, format!("variants[{i}] must be an object")));
        }
        let kind = match v.get("solver") {
            None => return Err(proto_err(&id, format!("variants[{i}] needs a 'solver' member"))),
            Some(Value::String(s)) => s
                .parse::<SolverKind>()
                .map_err(|e| proto_err(&id, format!("variants[{i}]: {e}")))?,
            Some(_) => {
                return Err(proto_err(&id, format!("variants[{i}].solver must be a string")))
            }
        };
        let options = match v.get("options") {
            None => SolveOptions::default(),
            Some(o @ Value::Object(_)) => parse_options(o, &id)?,
            Some(_) => {
                return Err(proto_err(&id, format!("variants[{i}].options must be an object")))
            }
        };
        let want_schedule = match v.get("want_schedule") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => {
                return Err(proto_err(
                    &id,
                    format!("variants[{i}].want_schedule must be a boolean"),
                ))
            }
        };
        variants.push(BatchVariantRequest { kind, options, want_schedule });
    }
    let trace = parse_trace(&doc, &id)?;
    Ok(BatchRequest { id, platform, variants, trace })
}

fn parse_options(o: &Value, id: &str) -> Result<SolveOptions, ProtoError> {
    let mut opts = SolveOptions::default();
    let usize_field = |name: &str, into: &mut usize| -> Result<(), ProtoError> {
        if let Some(v) = o.get(name) {
            *into = v.as_usize().ok_or_else(|| {
                proto_err(id, format!("options.{name} must be a non-negative integer"))
            })?;
        }
        Ok(())
    };
    usize_field("threads", &mut opts.threads)?;
    usize_field("max_m", &mut opts.max_m)?;
    usize_field("m_patience", &mut opts.m_patience)?;
    usize_field("t_unit_divisor", &mut opts.t_unit_divisor)?;
    usize_field("phase_steps", &mut opts.phase_steps)?;
    usize_field("samples", &mut opts.samples)?;
    usize_field("refill_divisor", &mut opts.refill_divisor)?;
    if let Some(v) = o.get("deadline_ms") {
        let ms = v
            .as_f64()
            .filter(|ms| ms.is_finite() && *ms >= 0.0)
            .ok_or_else(|| proto_err(id, "options.deadline_ms must be a non-negative number"))?;
        // A deadline must both fit a `Duration` (`from_secs_f64` panics past
        // about 1.8e22 ms) and land on an `Instant` (`Instant + Duration`
        // panics far sooner, past about 9.2e21 ms on Linux).
        let deadline = Duration::try_from_secs_f64(ms / 1e3)
            .ok()
            .filter(|d| Instant::now().checked_add(*d).is_some())
            .ok_or_else(|| proto_err(id, "options.deadline_ms is too large"))?;
        opts.deadline = Some(deadline);
    }
    let f64_field = |name: &str, into: &mut f64| -> Result<(), ProtoError> {
        if let Some(v) = o.get(name) {
            *into = v
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| proto_err(id, format!("options.{name} must be a number")))?;
        }
        Ok(())
    };
    f64_field("base_period", &mut opts.base_period)?;
    f64_field("governor_control_period", &mut opts.governor.control_period)?;
    f64_field("governor_guard_band", &mut opts.governor.guard_band)?;
    f64_field("governor_upgrade_band", &mut opts.governor.upgrade_band)?;
    f64_field("governor_horizon", &mut opts.governor.horizon)?;
    f64_field("governor_warmup", &mut opts.governor.warmup)?;
    Ok(opts)
}

/// A successful solve response.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// The request's correlation id.
    pub id: String,
    /// Which solver produced the result.
    pub solver: SolverKind,
    /// Chip-wide throughput per eq. (5).
    pub throughput: f64,
    /// Stable-status peak temperature in °C.
    pub peak_c: f64,
    /// Whether the peak respects `T_max`.
    pub feasible: bool,
    /// Oscillation factor used.
    pub m: usize,
    /// Solver wall time in milliseconds (the original solve's time when the
    /// response came from the cache).
    pub wall_ms: f64,
    /// Whether the response was served from the solution cache.
    pub cached: bool,
    /// Cross-solver search statistics.
    pub stats: SolverStats,
    /// The schedule in `mosc-sched::text` form, when the request asked.
    pub schedule: Option<String>,
}

impl SolveResponse {
    /// Serializes to one canonical response line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        SolveOk {
            id: &self.id,
            solver: self.solver,
            throughput: self.throughput,
            peak_c: self.peak_c,
            feasible: self.feasible,
            m: self.m,
            wall_ms: self.wall_ms,
            cached: self.cached,
            stats: &self.stats,
            schedule: self.schedule.as_deref(),
        }
        .to_line()
    }

    /// Parses a response line produced by [`Self::to_json`].
    ///
    /// # Errors
    /// [`ProtoError`] when the line is not an ok-status response or a member
    /// is missing/mistyped.
    pub fn from_value(doc: &Value) -> Result<Self, ProtoError> {
        let id = match doc.get("id") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(proto_err("", "response 'id' must be a string")),
        };
        if doc.get("status").and_then(Value::as_str) != Some("ok") {
            return Err(proto_err(&id, "not an ok-status response"));
        }
        let solver = doc
            .get("solver")
            .and_then(Value::as_str)
            .ok_or_else(|| proto_err(&id, "response 'solver' must be a string"))?
            .parse::<SolverKind>()
            .map_err(|e| proto_err(&id, e.to_string()))?;
        let num = |name: &str| -> Result<f64, ProtoError> {
            doc.get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| proto_err(&id, format!("response '{name}' must be a number")))
        };
        let stats_doc =
            doc.get("stats").ok_or_else(|| proto_err(&id, "response is missing 'stats'"))?;
        let stat = |name: &str| -> Result<u64, ProtoError> {
            stats_doc
                .get(name)
                .and_then(Value::as_f64)
                .filter(|v| *v >= 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| proto_err(&id, format!("stats.{name} must be a count")))
        };
        let stats = SolverStats {
            explored: stat("explored")?,
            thermal_prunes: stat("thermal_prunes")?,
            throughput_prunes: stat("throughput_prunes")?,
            transitions: stat("transitions")?,
            violation_time: stats_doc
                .get("violation_time")
                .and_then(Value::as_f64)
                .ok_or_else(|| proto_err(&id, "stats.violation_time must be a number"))?,
        };
        let schedule = match doc.get("schedule") {
            None => None,
            Some(Value::String(s)) => Some(s.clone()),
            Some(_) => return Err(proto_err(&id, "response 'schedule' must be a string")),
        };
        Ok(Self {
            solver,
            throughput: num("throughput")?,
            peak_c: num("peak_c")?,
            feasible: doc
                .get("feasible")
                .and_then(Value::as_bool)
                .ok_or_else(|| proto_err(&id, "response 'feasible' must be a boolean"))?,
            m: doc
                .get("m")
                .and_then(Value::as_usize)
                .ok_or_else(|| proto_err(&id, "response 'm' must be an integer"))?,
            wall_ms: num("wall_ms")?,
            cached: doc
                .get("cached")
                .and_then(Value::as_bool)
                .ok_or_else(|| proto_err(&id, "response 'cached' must be a boolean"))?,
            stats,
            schedule,
            id,
        })
    }
}

/// The members of one `ok` solve line, borrowed from wherever the answer
/// lives: a [`SolveResponse`], or a cached entry answering a hit without
/// copying its schedule. [`Self::to_line`] is the one writer of the line.
pub(crate) struct SolveOk<'a> {
    pub(crate) id: &'a str,
    pub(crate) solver: SolverKind,
    pub(crate) throughput: f64,
    pub(crate) peak_c: f64,
    pub(crate) feasible: bool,
    pub(crate) m: usize,
    pub(crate) wall_ms: f64,
    pub(crate) cached: bool,
    pub(crate) stats: &'a SolverStats,
    pub(crate) schedule: Option<&'a str>,
}

impl SolveOk<'_> {
    /// Bytes a line takes beyond its id and schedule: the fixed members,
    /// numbers, escapes and a trailing newline all fit.
    const HEADROOM: usize = 320;

    /// The line (no trailing newline), in a buffer with room for the
    /// newline that frames it. Floats keep Rust's shortest-round-trip
    /// `{:?}` spelling.
    pub(crate) fn to_line(&self) -> String {
        // A schedule's newlines escape to two bytes each.
        let schedule_bytes = self.schedule.map_or(0, |s| s.len() + s.len() / 8);
        let mut line = String::with_capacity(Self::HEADROOM + self.id.len() + schedule_bytes);
        let s = self.stats;
        line.push_str("{\"id\":");
        write_string(&mut line, self.id);
        line.push_str(",\"status\":\"ok\",\"solver\":");
        write_string(&mut line, self.solver.id());
        // Formatting into a `String` cannot fail.
        let _ = write!(
            line,
            ",\"throughput\":{:?},\"peak_c\":{:?},\"feasible\":{},\"m\":{},\"wall_ms\":{:?},\"cached\":{}\
             ,\"stats\":{{\"explored\":{},\"thermal_prunes\":{},\"throughput_prunes\":{},\"transitions\":{},\"violation_time\":{:?}}}",
            self.throughput,
            self.peak_c,
            self.feasible,
            self.m,
            self.wall_ms,
            self.cached,
            s.explored,
            s.thermal_prunes,
            s.throughput_prunes,
            s.transitions,
            s.violation_time
        );
        if let Some(schedule) = self.schedule {
            line.push_str(",\"schedule\":");
            write_string(&mut line, schedule);
        }
        line.push('}');
        line
    }
}

/// A point-in-time snapshot of the service counters plus the latency
/// summary (milliseconds) of the merged per-op solve histograms — the
/// payload of a `stats` response.
///
/// The latency quantiles come from the `mosc-obs` latency histograms,
/// which record only while the global recorder is enabled; a server run
/// without `--obs` reports them as `0`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field names mirror the serve.* metrics one-to-one
pub struct ServeStats {
    pub requests: u64,
    pub responses: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub rejected: u64,
    pub deadline_exceeded: u64,
    pub malformed: u64,
    pub queue_depth: u64,
    pub queue_peak: u64,
    pub cache_len: u64,
    pub uptime_s: f64,
    pub req_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub max_ms: f64,
    /// Trace id of the slowest recently exemplified solve (the exemplar of
    /// the highest non-empty latency bucket); `0` when no traced solve has
    /// been recorded. Travels as a 32-hex-digit string and is omitted from
    /// the wire entirely while zero, so stats lines from untraced runs stay
    /// byte-identical to v1.
    pub slow_exemplar: u128,
}

impl ServeStats {
    /// Renders the `stats` response payload (one line, no newline) through
    /// the shared protocol serializer.
    #[must_use]
    pub fn to_json(&self, id: &str) -> String {
        let n = |v: u64| Value::Number(v as f64);
        let mut stats = Value::Object(vec![
            ("requests".to_owned(), n(self.requests)),
            ("responses".to_owned(), n(self.responses)),
            ("cache_hits".to_owned(), n(self.cache_hits)),
            ("cache_misses".to_owned(), n(self.cache_misses)),
            ("cache_evictions".to_owned(), n(self.cache_evictions)),
            ("rejected".to_owned(), n(self.rejected)),
            ("deadline_exceeded".to_owned(), n(self.deadline_exceeded)),
            ("malformed".to_owned(), n(self.malformed)),
            ("queue_depth".to_owned(), n(self.queue_depth)),
            ("queue_peak".to_owned(), n(self.queue_peak)),
            ("cache_len".to_owned(), n(self.cache_len)),
            ("uptime_s".to_owned(), Value::Number(self.uptime_s)),
            ("req_per_s".to_owned(), Value::Number(self.req_per_s)),
            ("p50_ms".to_owned(), Value::Number(self.p50_ms)),
            ("p90_ms".to_owned(), Value::Number(self.p90_ms)),
            ("p99_ms".to_owned(), Value::Number(self.p99_ms)),
            ("p999_ms".to_owned(), Value::Number(self.p999_ms)),
            ("max_ms".to_owned(), Value::Number(self.max_ms)),
        ]);
        if self.slow_exemplar != 0 {
            if let Value::Object(members) = &mut stats {
                members.push((
                    "slow_exemplar".to_owned(),
                    Value::String(format!("{:032x}", self.slow_exemplar)),
                ));
            }
        }
        let doc = Value::Object(vec![
            ("id".to_owned(), Value::String(id.to_owned())),
            ("status".to_owned(), Value::String("ok".to_owned())),
            ("stats".to_owned(), stats),
        ]);
        value_to_json(&doc)
    }

    /// Parses the `stats` member of a stats response line.
    ///
    /// # Errors
    /// [`ProtoError`] when a member is missing or mistyped.
    pub fn from_value(doc: &Value) -> Result<Self, ProtoError> {
        let count = |name: &str| -> Result<u64, ProtoError> {
            doc.get(name)
                .and_then(Value::as_f64)
                .filter(|v| *v >= 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| proto_err("", format!("stats.{name} must be a count")))
        };
        let num = |name: &str| -> Result<f64, ProtoError> {
            doc.get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| proto_err("", format!("stats.{name} must be a number")))
        };
        Ok(Self {
            requests: count("requests")?,
            responses: count("responses")?,
            cache_hits: count("cache_hits")?,
            cache_misses: count("cache_misses")?,
            cache_evictions: count("cache_evictions")?,
            rejected: count("rejected")?,
            deadline_exceeded: count("deadline_exceeded")?,
            malformed: count("malformed")?,
            queue_depth: count("queue_depth")?,
            queue_peak: count("queue_peak")?,
            cache_len: count("cache_len")?,
            uptime_s: num("uptime_s")?,
            req_per_s: num("req_per_s")?,
            p50_ms: num("p50_ms")?,
            p90_ms: num("p90_ms")?,
            p99_ms: num("p99_ms")?,
            p999_ms: num("p999_ms")?,
            max_ms: num("max_ms")?,
            slow_exemplar: match doc.get("slow_exemplar") {
                None => 0,
                Some(Value::String(s)) => u128::from_str_radix(s, 16)
                    .map_err(|_| proto_err("", "stats.slow_exemplar must be a hex trace id"))?,
                Some(_) => return Err(proto_err("", "stats.slow_exemplar must be a hex trace id")),
            },
        })
    }
}

/// A `solve_batch` response: per-variant results in request order, plus
/// whether the shared platform came from the interning registry.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResponse {
    /// The batch request's correlation id.
    pub id: String,
    /// Whether the platform was interned (`"registry":"warm"` on the wire)
    /// or had to be built (`"cold"`).
    pub registry_warm: bool,
    /// Per-variant results: each an [`Response::Ok`] or [`Response::Error`]
    /// with id `"<batch id>#<index>"`.
    pub results: Vec<Response>,
}

/// A `hello` response: the negotiated session version plus what else the
/// daemon could speak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloResponse {
    /// The request's correlation id.
    pub id: String,
    /// The server implementation name (`"mosc-serve"`).
    pub server: String,
    /// The negotiated session version (see [`negotiate_version`]).
    pub version: u32,
    /// Every protocol version this daemon can speak, ascending.
    pub versions: Vec<u32>,
    /// Every op name this daemon understands, sorted.
    pub ops: Vec<String>,
}

impl HelloResponse {
    /// The handshake answer this build gives for a client's `max_version`.
    ///
    /// # Errors
    /// A human-readable message when no common version exists (the caller
    /// wraps it in an [`ErrorKind::Usage`] error response).
    pub fn negotiate(id: &str, client_max: Option<u32>) -> Result<Self, String> {
        Ok(Self {
            id: id.to_owned(),
            server: "mosc-serve".to_owned(),
            version: negotiate_version(client_max)?,
            versions: (PROTO_VERSION_MIN..=PROTO_VERSION_MAX).collect(),
            ops: OPS.iter().map(|&s| s.to_owned()).collect(),
        })
    }
}

/// One parsed (or to-be-serialized) response line: the typed mirror of
/// every line the daemon writes. [`Response::to_json`] and
/// [`Response::parse`] are the single serialize/parse pair for the
/// response direction; the property tests pin the round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful solve.
    Ok(SolveResponse),
    /// A `solve_batch` answer: one line, per-variant results inside.
    Batch(BatchResponse),
    /// The request failed; `kind` classifies how.
    Error {
        /// The request's correlation id (empty when none was recovered).
        id: String,
        /// What went wrong.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The bounded queue was full: immediate load-shed, try again later.
    Overloaded {
        /// The request's correlation id.
        id: String,
    },
    /// Liveness answer.
    Pong {
        /// The request's correlation id.
        id: String,
    },
    /// Service counters and latency summary.
    Stats {
        /// The request's correlation id.
        id: String,
        /// The counter snapshot.
        stats: ServeStats,
    },
    /// Prometheus text exposition, JSON-escaped into one member.
    Metrics {
        /// The request's correlation id.
        id: String,
        /// The full scrape body.
        text: String,
    },
    /// Acknowledges a `shutdown` op; the daemon drains and exits after.
    ShuttingDown {
        /// The request's correlation id.
        id: String,
    },
    /// The version-handshake answer.
    Hello(HelloResponse),
}

impl Response {
    /// The correlation id this response answers.
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            Self::Ok(r) => &r.id,
            Self::Batch(r) => &r.id,
            Self::Hello(r) => &r.id,
            Self::Error { id, .. }
            | Self::Overloaded { id }
            | Self::Pong { id }
            | Self::Stats { id, .. }
            | Self::Metrics { id, .. }
            | Self::ShuttingDown { id } => id,
        }
    }

    /// Serializes to one canonical response line (no trailing newline),
    /// byte-identical to what the daemon writes on the wire.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            Self::Ok(r) => r.to_json(),
            Self::Batch(b) => {
                let results: Vec<String> = b.results.iter().map(Self::to_json).collect();
                batch_response_to_json(&b.id, b.registry_warm, &results)
            }
            Self::Error { id, kind, message } => error_to_json(id, kind.id(), message),
            Self::Overloaded { id } => overloaded_to_json(id),
            Self::Pong { id } => {
                format!("{{\"id\":{},\"status\":\"ok\",\"pong\":true}}", json_string(id))
            }
            Self::Stats { id, stats } => stats.to_json(id),
            Self::Metrics { id, text } => format!(
                "{{\"id\":{},\"status\":\"ok\",\"metrics\":{}}}",
                json_string(id),
                json_string(text)
            ),
            Self::ShuttingDown { id } => {
                format!("{{\"id\":{},\"status\":\"ok\",\"shutting_down\":true}}", json_string(id))
            }
            Self::Hello(h) => {
                let mut out = format!(
                    "{{\"id\":{},\"status\":\"ok\",\"server\":{},\"version\":{}",
                    json_string(&h.id),
                    json_string(&h.server),
                    h.version
                );
                out.push_str(",\"versions\":[");
                for (i, v) in h.versions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&v.to_string());
                }
                out.push_str("],\"ops\":[");
                for (i, op) in h.ops.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(op));
                }
                out.push_str("]}");
                out
            }
        }
    }

    /// Parses one response line produced by [`Self::to_json`].
    ///
    /// # Errors
    /// [`ProtoError`] for malformed JSON or a line that matches no known
    /// response shape.
    pub fn parse(line: &str) -> Result<Self, ProtoError> {
        let doc = Value::parse(line).map_err(|e| proto_err("", format!("invalid JSON: {e}")))?;
        Self::from_value(&doc)
    }

    /// Classifies and parses an already-parsed response document.
    ///
    /// # Errors
    /// [`ProtoError`] when the document matches no known response shape.
    pub fn from_value(doc: &Value) -> Result<Self, ProtoError> {
        if !doc.is_object() {
            return Err(proto_err("", "response must be a JSON object"));
        }
        let id = match doc.get("id") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(proto_err("", "response 'id' must be a string")),
        };
        match doc.get("status").and_then(Value::as_str) {
            Some("overloaded") => Ok(Self::Overloaded { id }),
            Some("error") => {
                let kind = doc
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or_else(|| proto_err(&id, "error response 'kind' must be a string"))?
                    .parse::<ErrorKind>()
                    .map_err(|e| proto_err(&id, e))?;
                let message = doc
                    .get("message")
                    .and_then(Value::as_str)
                    .ok_or_else(|| proto_err(&id, "error response 'message' must be a string"))?
                    .to_owned();
                Ok(Self::Error { id, kind, message })
            }
            Some("ok") => {
                if doc.get("pong").is_some() {
                    return Ok(Self::Pong { id });
                }
                if doc.get("shutting_down").is_some() {
                    return Ok(Self::ShuttingDown { id });
                }
                // Solve responses carry their own `stats` member (the
                // solver counters), so the `solver` marker must be
                // checked before the stats-response shape.
                if doc.get("solver").is_some() {
                    return SolveResponse::from_value(doc).map(Self::Ok);
                }
                if let Some(stats) = doc.get("stats") {
                    return Ok(Self::Stats { id, stats: ServeStats::from_value(stats)? });
                }
                if let Some(text) = doc.get("metrics") {
                    let Value::String(text) = text else {
                        return Err(proto_err(&id, "response 'metrics' must be a string"));
                    };
                    return Ok(Self::Metrics { id, text: text.clone() });
                }
                if doc.get("server").is_some() {
                    return Ok(Self::Hello(parse_hello(doc, id)?));
                }
                if doc.get("registry").is_some() {
                    return Ok(Self::Batch(parse_batch_response(doc, id)?));
                }
                SolveResponse::from_value(doc).map(Self::Ok)
            }
            Some(other) => Err(proto_err(&id, format!("unknown response status '{other}'"))),
            None => Err(proto_err(&id, "response 'status' must be a string")),
        }
    }
}

fn parse_hello(doc: &Value, id: String) -> Result<HelloResponse, ProtoError> {
    let server = doc
        .get("server")
        .and_then(Value::as_str)
        .ok_or_else(|| proto_err(&id, "hello response 'server' must be a string"))?
        .to_owned();
    let version = doc
        .get("version")
        .and_then(Value::as_usize)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| proto_err(&id, "hello response 'version' must be an integer"))?;
    let versions = match doc.get("versions") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| v.as_usize().and_then(|n| u32::try_from(n).ok()))
            .collect::<Option<Vec<u32>>>()
            .ok_or_else(|| proto_err(&id, "hello response 'versions' must hold integers"))?,
        _ => return Err(proto_err(&id, "hello response 'versions' must be an array")),
    };
    let ops = match doc.get("ops") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| v.as_str().map(str::to_owned))
            .collect::<Option<Vec<String>>>()
            .ok_or_else(|| proto_err(&id, "hello response 'ops' must hold strings"))?,
        _ => return Err(proto_err(&id, "hello response 'ops' must be an array")),
    };
    Ok(HelloResponse { id, server, version, versions, ops })
}

fn parse_batch_response(doc: &Value, id: String) -> Result<BatchResponse, ProtoError> {
    let registry_warm = match doc.get("registry").and_then(Value::as_str) {
        Some("warm") => true,
        Some("cold") => false,
        _ => return Err(proto_err(&id, "batch response 'registry' must be 'warm' or 'cold'")),
    };
    let Some(Value::Array(raw)) = doc.get("results") else {
        return Err(proto_err(&id, "batch response 'results' must be an array"));
    };
    let mut results = Vec::with_capacity(raw.len());
    for item in raw {
        let r = Response::from_value(item)?;
        if !matches!(r, Response::Ok(_) | Response::Error { .. }) {
            return Err(proto_err(&id, "batch results must be solve ok/error objects"));
        }
        results.push(r);
    }
    Ok(BatchResponse { id, registry_warm, results })
}

/// Serializes a solve request to one canonical line (no trailing newline).
/// Clients — the CLI `client` subcommand, the serve bench — compose request
/// lines through this, so both directions of the wire share one writer.
#[must_use]
pub fn request_to_json(req: &SolveRequest) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"id\":");
    out.push_str(&json_string(&req.id));
    out.push_str(",\"op\":\"solve\",\"solver\":");
    out.push_str(&json_string(req.kind.id()));
    out.push_str(",\"platform\":");
    write_canonical(&mut out, &req.platform);
    out.push_str(",\"options\":");
    write_options(&mut out, &req.options);
    out.push_str(&format!(",\"want_schedule\":{}", req.want_schedule));
    if let Some(trace) = &req.trace {
        out.push_str(&format!(",\"trace\":\"{}\"", trace.to_wire()));
    }
    out.push('}');
    out
}

/// Serializes a `solve_batch` request to one canonical line (no trailing
/// newline).
#[must_use]
pub fn batch_request_to_json(req: &BatchRequest) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"id\":");
    out.push_str(&json_string(&req.id));
    out.push_str(",\"op\":\"solve_batch\",\"platform\":");
    write_canonical(&mut out, &req.platform);
    out.push_str(",\"variants\":[");
    for (i, v) in req.variants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"solver\":");
        out.push_str(&json_string(v.kind.id()));
        out.push_str(",\"options\":");
        write_options(&mut out, &v.options);
        out.push_str(&format!(",\"want_schedule\":{}}}", v.want_schedule));
    }
    out.push(']');
    if let Some(trace) = &req.trace {
        out.push_str(&format!(",\"trace\":\"{}\"", trace.to_wire()));
    }
    out.push('}');
    out
}

/// One `solve_batch` response line: the per-variant result objects (each
/// already rendered as a single-solve `ok`/`error` object) in request
/// order, plus whether the platform was interned (`"warm"`) or built
/// (`"cold"`).
#[must_use]
pub fn batch_response_to_json(id: &str, registry_warm: bool, results: &[String]) -> String {
    let mut out = String::with_capacity(64 + results.iter().map(String::len).sum::<usize>());
    out.push_str("{\"id\":");
    out.push_str(&json_string(id));
    out.push_str(",\"status\":\"ok\",\"registry\":");
    out.push_str(if registry_warm { "\"warm\"" } else { "\"cold\"" });
    out.push_str(",\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r);
    }
    out.push_str("]}");
    out
}

/// Room for a typical [`write_options`] serialization: with default
/// options it is about 260 bytes.
pub(crate) const OPTIONS_JSON_BYTES: usize = 320;

/// Appends the options to `out` as one JSON object with every member
/// present, in canonical order (`deadline_ms` only when a deadline is set).
pub fn write_options(out: &mut String, o: &SolveOptions) {
    // Formatting into a `String` cannot fail.
    let _ = write!(
        out,
        "{{\"threads\":{},\"max_m\":{},\"base_period\":{:?},\"m_patience\":{},\"t_unit_divisor\":{},\"phase_steps\":{},\"samples\":{},\"refill_divisor\":{}",
        o.threads,
        o.max_m,
        o.base_period,
        o.m_patience,
        o.t_unit_divisor,
        o.phase_steps,
        o.samples,
        o.refill_divisor
    );
    if let Some(d) = o.deadline {
        let _ = write!(out, ",\"deadline_ms\":{:?}", d.as_secs_f64() * 1e3);
    }
    let _ = write!(
        out,
        ",\"governor_control_period\":{:?},\"governor_guard_band\":{:?},\"governor_upgrade_band\":{:?},\"governor_horizon\":{:?},\"governor_warmup\":{:?}}}",
        o.governor.control_period,
        o.governor.guard_band,
        o.governor.upgrade_band,
        o.governor.horizon,
        o.governor.warmup
    );
}

/// One error response line (no trailing newline). `kind` classifies the
/// failure: `"parse"`, `"usage"`, `"infeasible"`, `"deadline"`,
/// `"internal"`.
#[must_use]
pub fn error_to_json(id: &str, kind: &str, message: &str) -> String {
    format!(
        "{{\"id\":{},\"status\":\"error\",\"kind\":{},\"message\":{}}}",
        json_string(id),
        json_string(kind),
        json_string(message)
    )
}

/// One overloaded (backpressure) response line.
#[must_use]
pub fn overloaded_to_json(id: &str) -> String {
    format!("{{\"id\":{},\"status\":\"overloaded\",\"message\":\"queue full\"}}", json_string(id))
}

// The serializers this protocol writes with — order-preserving
// `value_to_json`, key-sorted `canonical_json` (the cache-key preimage) and
// `json_string` quoting — live in `mosc_analyze::json` next to the parser,
// so the workspace has exactly one JSON read+write module. Re-exported here
// because they are part of this module's public wire-format API.
pub use mosc_analyze::json::{canonical_json, json_string, value_to_json};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_wire() {
        let platform =
            Value::parse(r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#).unwrap();
        let req = SolveRequest {
            id: "r-1".into(),
            kind: SolverKind::Ao,
            platform,
            options: SolveOptions {
                threads: 2,
                deadline: Some(Duration::from_millis(1500)),
                ..SolveOptions::default()
            },
            want_schedule: true,
            trace: None,
        };
        let line = request_to_json(&req);
        let parsed = match parse_request(&line).unwrap() {
            Request::Solve(r) => r,
            other => panic!("expected solve, got {other:?}"),
        };
        assert_eq!(parsed.id, req.id);
        assert_eq!(parsed.kind, req.kind);
        assert_eq!(parsed.options, req.options);
        assert_eq!(parsed.want_schedule, req.want_schedule);
        // The wire form canonicalizes the platform (sorted keys), so
        // compare canonical serializations rather than member order.
        assert_eq!(canonical_json(&parsed.platform), canonical_json(&req.platform));
    }

    #[test]
    fn out_of_range_numbers_and_deadlines_are_parse_errors() {
        let base =
            r#""solver":"ao","platform":{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#;
        for (options, id) in [
            (r#"{"base_period":1e999}"#, ""),
            (r#"{"governor_horizon":-1e400}"#, ""),
            (r#"{"deadline_ms":1e300}"#, "o"),
            (r#"{"deadline_ms":1e22}"#, "o"),
            (r#"{"deadline_ms":-1}"#, "o"),
            (r#"{"base_period":"x"}"#, "o"),
        ] {
            let err =
                parse_request(&format!(r#"{{"id":"o",{base},"options":{options}}}"#)).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Parse, "{options}");
            assert_eq!(err.id, id, "{options}");
        }
        // At the edges of what is accepted, a parsed request's own line
        // parses back to the same request and the same line.
        let line = format!(
            r#"{{"id":"o",{base},"options":{{"base_period":1.7976931348623157e308,"governor_warmup":-5e-324,"deadline_ms":1e15}}}}"#
        );
        let Request::Solve(first) = parse_request(&line).unwrap() else { panic!("a solve") };
        assert_eq!(first.options.base_period, f64::MAX);
        let wire = request_to_json(&first);
        let Request::Solve(again) = parse_request(&wire).unwrap() else { panic!("a solve") };
        assert_eq!(again.options, first.options);
        assert_eq!(request_to_json(&again), wire);
    }

    #[test]
    fn batch_request_round_trips_through_the_wire() {
        let platform =
            Value::parse(r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#).unwrap();
        let req = BatchRequest {
            id: "b-1".into(),
            platform,
            variants: vec![
                BatchVariantRequest {
                    kind: SolverKind::Ao,
                    options: SolveOptions::default(),
                    want_schedule: false,
                },
                BatchVariantRequest {
                    kind: SolverKind::Pco,
                    options: SolveOptions { max_m: 8, ..SolveOptions::default() },
                    want_schedule: true,
                },
            ],
            trace: Some(TraceContext { trace_id: 0xfeed_beef, parent_id: 7 }),
        };
        let line = batch_request_to_json(&req);
        let parsed = match parse_request(&line).unwrap() {
            Request::SolveBatch(r) => r,
            other => panic!("expected solve_batch, got {other:?}"),
        };
        assert_eq!(parsed.id, req.id);
        assert_eq!(parsed.variants, req.variants);
        assert_eq!(parsed.trace, req.trace);
        assert_eq!(canonical_json(&parsed.platform), canonical_json(&req.platform));
    }

    #[test]
    fn trace_contexts_round_trip_and_malformed_ones_are_rejected() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
            parent_id: 0xdead_beef,
        };
        assert_eq!(TraceContext::parse_wire(&ctx.to_wire()), Some(ctx));
        let root = TraceContext::root();
        assert_ne!(root.trace_id, 0);
        assert_ne!(root.parent_id, 0);
        assert_ne!(TraceContext::root().trace_id, root.trace_id, "trace ids must be unique");
        for bad in [
            "",
            "abc",
            "0123456789abcdef0123456789abcdef", // no parent
            "0123456789abcdef0123456789abcdef-00000000000000", // parent too short
            "0123456789ABCDEF0123456789abcdef-0000000000000001", // upper-case hex
            "00000000000000000000000000000000-0000000000000001", // zero trace id
            "0123456789abcdef0123456789abcdeg-0000000000000001", // non-hex
        ] {
            assert_eq!(TraceContext::parse_wire(bad), None, "{bad:?} must be rejected");
        }
        // On the wire: a malformed trace member is a parse error that still
        // recovers the id; an absent one parses as None.
        let base = r#""op":"solve","solver":"ao","platform":{"rows":1,"cols":1,"levels":[0.6,1.3],"t_max_c":55.0}"#;
        let err = parse_request(&format!(r#"{{"id":"t","trace":"nope",{base}}}"#)).unwrap_err();
        assert_eq!(err.id, "t");
        assert!(err.message.contains("trace"));
        match parse_request(&format!(r#"{{"id":"t",{base}}}"#)).unwrap() {
            Request::Solve(r) => assert_eq!(r.trace, None),
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn batch_requests_are_validated() {
        let base = r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#;
        // Missing variants.
        let err = parse_request(&format!(r#"{{"id":"b","op":"solve_batch","platform":{base}}}"#))
            .unwrap_err();
        assert_eq!(err.id, "b");
        assert!(err.message.contains("variants"));
        // Empty variants.
        let err = parse_request(&format!(
            r#"{{"id":"b","op":"solve_batch","platform":{base},"variants":[]}}"#
        ))
        .unwrap_err();
        assert!(err.message.contains("empty"));
        // Variant without a solver.
        let err = parse_request(&format!(
            r#"{{"id":"b","op":"solve_batch","platform":{base},"variants":[{{}}]}}"#
        ))
        .unwrap_err();
        assert!(err.message.contains("variants[0]"));
        // Too many variants.
        let many: Vec<String> =
            (0..=MAX_BATCH_VARIANTS).map(|_| r#"{"solver":"ao"}"#.to_owned()).collect();
        let err = parse_request(&format!(
            r#"{{"id":"b","op":"solve_batch","platform":{base},"variants":[{}]}}"#,
            many.join(",")
        ))
        .unwrap_err();
        assert!(err.message.contains("capped"));
    }

    #[test]
    fn batch_response_lines_parse_as_json() {
        let results = vec![
            r#"{"id":"b#0","status":"ok"}"#.to_owned(),
            error_to_json("b#1", "infeasible", "too hot"),
        ];
        let line = batch_response_to_json("b", true, &results);
        let doc = Value::parse(&line).unwrap();
        assert_eq!(doc.get("registry").and_then(Value::as_str), Some("warm"));
        match doc.get("results") {
            Some(Value::Array(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].get("id").and_then(Value::as_str), Some("b#0"));
                assert_eq!(items[1].get("kind").and_then(Value::as_str), Some("infeasible"));
            }
            other => panic!("results must be an array, got {other:?}"),
        }
        let cold = batch_response_to_json("b", false, &[]);
        let doc = Value::parse(&cold).unwrap();
        assert_eq!(doc.get("registry").and_then(Value::as_str), Some("cold"));
    }

    #[test]
    fn ops_parse_and_ids_are_recovered() {
        assert_eq!(
            parse_request(r#"{"id":"a","op":"ping"}"#).unwrap(),
            Request::Ping { id: "a".into() }
        );
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { id: String::new() }
        );
        assert_eq!(
            parse_request(r#"{"id":"m","op":"metrics"}"#).unwrap(),
            Request::Metrics { id: "m".into() }
        );
        assert_eq!(
            parse_request(r#"{"id":"z","op":"shutdown"}"#).unwrap(),
            Request::Shutdown { id: "z".into() }
        );
        // The id survives into the error for bad members after it.
        let err = parse_request(r#"{"id":"q","op":"warp"}"#).unwrap_err();
        assert_eq!(err.id, "q");
        assert!(err.message.contains("warp"));
        // Structurally broken lines cannot recover an id.
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
    }

    #[test]
    fn canonical_json_sorts_keys_at_every_level() {
        let a = Value::parse(r#"{"b":{"y":1,"x":2},"a":[1,2]}"#).unwrap();
        let b = Value::parse(r#"{"a":[1,2],"b":{"x":2,"y":1}}"#).unwrap();
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(canonical_json(&a), r#"{"a":[1.0,2.0],"b":{"x":2.0,"y":1.0}}"#);
    }

    #[test]
    fn value_to_json_preserves_member_order() {
        let doc = Value::Object(vec![
            ("z".to_owned(), Value::Number(1.0)),
            ("a".to_owned(), Value::String("x\"y".to_owned())),
            ("nested".to_owned(), Value::Object(vec![("b".to_owned(), Value::Bool(true))])),
        ]);
        assert_eq!(value_to_json(&doc), r#"{"z":1.0,"a":"x\"y","nested":{"b":true}}"#);
        // Round-trips through the parser with values intact.
        let back = Value::parse(&value_to_json(&doc)).unwrap();
        assert_eq!(canonical_json(&back), canonical_json(&doc));
    }

    #[test]
    fn error_and_overloaded_lines_parse_as_json() {
        for line in [error_to_json("r\"1", "usage", "bad\nthing"), overloaded_to_json("")] {
            let doc = Value::parse(&line).unwrap();
            assert!(doc.is_object(), "{line}");
        }
    }
}
