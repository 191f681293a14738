//! Load generation: the closed loops (`hit`, `miss`, `batch`) and the
//! open loop (`mixed`), plus the client-side wire spans of a traced window.

use crate::daemon::Conn;
use crate::gen::Req;
use mosc_serve::cache::fnv1a;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A response as kept for the checks after the window.
#[derive(Debug, Clone)]
pub enum Answer {
    /// The whole line.
    Line(String),
    /// Only the line's FNV-1a hash: `hit` answers tens of thousands of
    /// requests per run, and each must be byte-identical to a line the
    /// checks can rebuild from the priming answer.
    Digest(u64),
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in the pool.
    pub req: usize,
    /// Response arrival minus due time. A closed loop's request is due
    /// when it is sent; an open loop's at its scheduled instant.
    pub lat: Duration,
    /// Actual send time minus due time: in a closed loop, the generator's
    /// own gap between a response and the next request.
    pub late: Duration,
    /// Response arrival, since the window started.
    pub done: Duration,
    /// The response.
    pub answer: Answer,
}

/// One client-side span: name, start, end and parent, in nanoseconds since
/// the run's epoch. Parent `0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer or wire call this span times.
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The span that caused it, or `0`.
    pub parent: u64,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// The pool index of the request this span belongs to.
    pub req: usize,
}

/// The outcome of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Answered requests.
    pub samples: Vec<Sample>,
    /// Requests sent or due that got no response line.
    pub unanswered: usize,
    /// Why the window stopped early, if it did.
    pub error: Option<String>,
    /// Wall time of the window in seconds.
    pub elapsed_s: f64,
    /// One wire span per answered request when the window was traced.
    pub spans: Vec<Span>,
    /// Pool index the next window should continue from.
    pub next: usize,
}

impl Window {
    /// Requests attempted: answered plus unanswered.
    pub fn attempted(&self) -> usize {
        self.samples.len() + self.unanswered
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

fn wire_span_name(req: &Req) -> &'static str {
    match req.kind {
        crate::gen::Kind::Batch => "wire.solve_batch",
        _ => "wire.solve",
    }
}

/// Options of one window.
pub struct WindowSpec {
    /// How long to measure.
    pub seconds: f64,
    /// First pool index to send.
    pub start: usize,
    /// Wrap around the pool (`hit`) instead of stopping at its end.
    pub cycle: bool,
    /// Keep answers as [`Answer::Digest`] instead of whole lines.
    pub digest: bool,
    /// Record a wire span per request.
    pub trace: bool,
    /// Clock origin of span times.
    pub epoch: Instant,
}

/// A closed loop: one request in flight at a time, sent round-robin over
/// `conns`, each sent as soon as the previous response has arrived.
pub fn closed_loop(conns: &mut [Conn], pool: &[Req], spec: &WindowSpec) -> Window {
    let mut w = Window::default();
    let mut buf = String::new();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(spec.seconds);
    let mut prev = start;
    let mut n = 0;
    loop {
        let mut idx = spec.start + n;
        if spec.cycle {
            idx %= pool.len();
        } else if idx >= pool.len() {
            w.error = Some(format!("request pool of {} exhausted", pool.len()));
            break;
        }
        let conn = &mut conns[n % conns.len()];
        n += 1;
        let sent = Instant::now();
        let result = conn.send(&pool[idx].line).and_then(|()| conn.recv(&mut buf));
        let done = Instant::now();
        if let Err(e) = result {
            w.unanswered += 1;
            w.error = Some(e);
            break;
        }
        if spec.trace {
            let id = w.spans.len() as u64 + 1;
            w.spans.push(Span {
                name: wire_span_name(&pool[idx]),
                id,
                parent: 0,
                start_ns: ns_since(spec.epoch, sent),
                end_ns: ns_since(spec.epoch, done),
                req: idx,
            });
        }
        let answer = if spec.digest {
            Answer::Digest(fnv1a(buf.trim_end().as_bytes()))
        } else {
            Answer::Line(buf.trim_end().to_owned())
        };
        w.samples.push(Sample {
            req: idx,
            lat: done - sent,
            late: sent - prev,
            done: done - start,
            answer,
        });
        prev = done;
        if done >= until {
            break;
        }
    }
    w.elapsed_s = prev.duration_since(start).as_secs_f64();
    w.next = spec.start + n;
    w
}

/// The response's `id` member; every daemon response line starts with it.
fn response_id(line: &[u8]) -> Option<&[u8]> {
    let rest = line.strip_prefix(b"{\"id\":\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    Some(&rest[..end])
}

/// An open loop: request `i` of `pool` is due at `arrivals[i]` seconds after
/// the start, whether or not earlier answers are back. Arrivals are dealt
/// round-robin over `conns`. The calling thread is the sender: it sleeps to
/// each due time and writes the request. Each connection has a reader
/// thread blocked on its socket. (Socket read timeouts are kept in
/// scheduler ticks, several milliseconds, so one thread cannot both wait
/// for answers and wake on time to send.)
pub fn open_loop(conns: Vec<Conn>, pool: &[Req], arrivals: &[f64], spec: &WindowSpec) -> Window {
    let nconn = conns.len();
    // In flight per connection: response id -> (pool index, due, sent).
    let pending: Vec<Mutex<InFlight>> = conns.iter().map(|_| Mutex::default()).collect();
    // A short lead so every reader is parked before the first arrival.
    let start = Instant::now() + Duration::from_millis(20);
    let mut writers = Vec::with_capacity(nconn);
    let mut w = Window { elapsed_s: spec.seconds, next: arrivals.len(), ..Window::default() };
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nconn);
        for (c, conn) in conns.into_iter().enumerate() {
            let expected = (c..arrivals.len()).step_by(nconn).count();
            let pending = &pending[c];
            writers.push(conn.stream);
            let reader = conn.reader;
            handles.push(
                scope.spawn(move || read_answers(reader, pool, pending, expected, start, spec)),
            );
        }
        for (i, &at) in arrivals.iter().enumerate() {
            let due = start + Duration::from_secs_f64(at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let c = i % nconn;
            let id = pool[i].request.id().as_bytes().to_vec();
            lock(&pending[c]).insert(id, (i, due, Instant::now()));
            if let Err(e) = writers[c].write_all(pool[i].line.as_bytes()) {
                w.error = Some(format!("send: {e}"));
                break;
            }
        }
        handles.into_iter().map(|h| h.join().expect("open-loop reader panicked")).collect()
    });
    for part in parts {
        w.samples.extend(part.samples);
        w.unanswered += part.unanswered;
        w.error = w.error.or(part.error);
        w.spans.extend(part.spans);
    }
    w.samples.sort_by_key(|s| s.req);
    w.spans.sort_by_key(|s| s.req);
    for (i, span) in w.spans.iter_mut().enumerate() {
        span.id = i as u64 + 1;
    }
    w
}

type InFlight = HashMap<Vec<u8>, (usize, Instant, Instant)>;

fn lock(m: &Mutex<InFlight>) -> std::sync::MutexGuard<'_, InFlight> {
    m.lock().expect("no thread panics while holding the in-flight map")
}

/// Reads `expected` answers from one connection (or until it fails or
/// times out), matching each to its request by id.
fn read_answers(
    mut reader: BufReader<TcpStream>,
    pool: &[Req],
    pending: &Mutex<InFlight>,
    expected: usize,
    start: Instant,
    spec: &WindowSpec,
) -> Window {
    let mut w = Window::default();
    let mut buf: Vec<u8> = Vec::new();
    while w.samples.len() < expected {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                w.error = Some("daemon closed the connection".into());
                break;
            }
            Ok(_) => {}
            Err(e) => {
                w.error = Some(format!("recv: {e}"));
                break;
            }
        }
        let done = Instant::now();
        let line = String::from_utf8_lossy(&buf).trim_end().to_owned();
        let Some((idx, due, sent)) =
            response_id(line.as_bytes()).and_then(|id| lock(pending).remove(id))
        else {
            w.error = Some(format!("unexpected response: {line}"));
            break;
        };
        if spec.trace {
            w.spans.push(Span {
                name: wire_span_name(&pool[idx]),
                id: 0,
                parent: 0,
                start_ns: ns_since(spec.epoch, sent),
                end_ns: ns_since(spec.epoch, done),
                req: idx,
            });
        }
        w.samples.push(Sample {
            req: idx,
            lat: done - due,
            late: sent - due,
            done: done.saturating_duration_since(start),
            answer: Answer::Line(line),
        });
    }
    w.unanswered = expected - w.samples.len();
    w
}
