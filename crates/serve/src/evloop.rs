//! The daemon's front end: one nonblocking I/O thread owns every client
//! socket, multiplexed through [`crate::poller::Poller`], while the worker
//! pool executes solves behind it.
//!
//! ## Connection state machine
//!
//! Each accepted socket becomes a [`Conn`] that moves bytes through four
//! stages: **read** (fill `rbuf` until `WouldBlock`), **reassemble**
//! (after every read, split `rbuf` on `\n`, scanning only the new bytes;
//! a trailing fragment is dispatched at EOF, `BufRead::read_line`'s
//! behavior), **dispatch** (each non-empty line goes through
//! [`handle_line`]), and **write** (framed response lines are appended to
//! `wbuf` and flushed while the socket accepts them, with write interest
//! registered only while a backlog exists).
//!
//! A line may be at most [`MAX_LINE_BYTES`] long. An unterminated fragment
//! past that is answered once with a `parse` error and the connection
//! stops reading and closes once the answer is flushed, so one client
//! cannot grow `rbuf` without bound.
//!
//! Answers reach `wbuf` two ways. Those the I/O thread makes itself —
//! parse errors, protocol ops, cache hits, `overloaded` — come back from
//! [`handle_line`] and are appended in place, so a cache hit never touches
//! the outbox or the wake socket. Solves go to the worker queue, and their
//! answers come back through the [`Outbox`].
//!
//! Accounting closes a connection at the right moment without tracking
//! request identity: [`handle_line`] and the workers guarantee exactly one
//! response line per non-empty request line, so `dispatched == responded
//! && wbuf empty` means the connection is fully answered. EOF plus that
//! condition — or a fatal socket error at any point — retires the `Conn`.
//!
//! ## Backpressure
//!
//! A client that sends faster than it reads grows `wbuf`; past
//! [`WBUF_MAX`] the loop drops the connection's read interest until the
//! backlog flushes below the limit, so one slow reader bounds its own
//! memory instead of the daemon's.
//!
//! ## Waking
//!
//! Workers finish on their own threads, so the loop parks in
//! [`Poller::wait`] with a self-wake channel registered alongside the
//! sockets: a loopback socket pair (pure std — an ephemeral listener,
//! connect, accept) whose read end lives in the poll set. [`Outbox::push`]
//! enqueues the framed line and writes one byte to the other end unless a
//! wake is already pending. The loop clears the pending flag *before*
//! draining the queue, so a push that races the drain either lands in the
//! current batch or raises a fresh wake — never lost.
//!
//! ## Shutdown
//!
//! The wire `shutdown` op (or [`crate::ServeHandle::shutdown`]) sets the
//! shared flag and pokes the listener with a throwaway connect. The loop
//! then closes the worker queue (drain-then-exit), deregisters the
//! listener, stops reading, and keeps flushing until every dispatched line
//! has its response delivered.

use crate::poller::{Interest, PollEvent, Poller, Token};
use crate::proto::{proto_err, MAX_LINE_BYTES};
use crate::server::{handle_line, malformed, Reply, Shared};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Write-backlog bound per connection; past this the loop stops reading
/// from the socket until the backlog drains below it again.
const WBUF_MAX: usize = 1 << 20;

/// Read scratch size per `read(2)` call.
const SCRATCH: usize = 16 * 1024;

/// Poll-timeout cap while draining: a safety net so delivery re-checks
/// even if a wake were somehow missed.
const DRAIN_POLL: Duration = Duration::from_millis(200);

const TOKEN_LISTENER: Token = 0;
const TOKEN_WAKE: Token = 1;
/// Connection ids (allocated from 1) map to tokens as `id + CONN_BASE`.
const CONN_BASE: Token = 2;

/// Completed responses in flight from worker threads to the I/O thread.
/// Framed lines, tagged with the connection they answer; pushing wakes the
/// loop if it is parked.
pub(crate) struct Outbox {
    queue: Mutex<VecDeque<(u64, Reply)>>,
    /// Collapses wake bytes: set by the first push after a drain, cleared
    /// by the loop before it drains.
    wake_pending: AtomicBool,
    wake_tx: Mutex<TcpStream>,
}

impl Outbox {
    fn new(wake_tx: TcpStream) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            wake_pending: AtomicBool::new(false),
            wake_tx: Mutex::new(wake_tx),
        }
    }

    /// Queues one framed response line for `conn` and wakes the loop.
    pub(crate) fn push(&self, conn: u64, reply: Reply) {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).push_back((conn, reply));
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            // A failed write means the wake pipe's buffer already holds
            // unread bytes, which is itself a pending wake.
            let _ = self.wake_tx.lock().unwrap_or_else(PoisonError::into_inner).write_all(&[1]);
        }
    }

    /// Takes the whole pending batch. Callers clear `wake_pending` first;
    /// see the module docs for why that order cannot lose a wake.
    fn drain(&self) -> VecDeque<(u64, Reply)> {
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Per-connection state owned by the I/O thread.
struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes (at most one partial line after
    /// reassembly).
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned and known to hold no `\n`.
    scanned: usize,
    /// Framed response bytes not yet accepted by the socket; `wpos` marks
    /// how far the kernel has taken them.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next per-connection sequence number (batch lines consume several).
    seq: u64,
    /// Non-empty lines handed to `handle_line` / response lines appended to
    /// `wbuf`. Equal ⇒ nothing is in flight for this connection.
    dispatched: u64,
    responded: u64,
    last_activity: Instant,
    /// No more request bytes will be read: the client closed its write
    /// half (trailing partial line already dispatched) or sent an
    /// over-long line.
    eof: bool,
    /// Fatal socket error or invalid UTF-8: retire without waiting.
    dead: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Every dispatched line answered and every answer on the wire.
    fn settled(&self) -> bool {
        self.dispatched == self.responded && self.backlog() == 0
    }
}

/// Runs the event loop until shutdown completes its drain. See the module
/// docs for the architecture.
pub(crate) fn run(listener: &TcpListener, shared: &Shared) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    // Self-wake channel from pure std: an ephemeral loopback pair.
    let wake_listener = TcpListener::bind(("127.0.0.1", 0))?;
    let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
    let (mut wake_rx, _) = wake_listener.accept()?;
    drop(wake_listener);
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let outbox = Arc::new(Outbox::new(wake_tx));

    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH];
    let mut draining = false;

    loop {
        if !draining && shared.shutdown.load(Ordering::SeqCst) {
            draining = true;
            poller.deregister(listener.as_raw_fd());
            // Everything already queued gets a response; nothing new is
            // read.
            shared.queue.close();
        }
        if draining && conns.is_empty() {
            return Ok(());
        }

        poller.wait(&mut events, poll_timeout(shared, &conns, draining))?;
        let now = Instant::now();

        let batch = std::mem::take(&mut events);
        for ev in &batch {
            match ev.token {
                TOKEN_LISTENER => {
                    if !draining {
                        accept_ready(listener, shared, &mut poller, &mut conns, now);
                    }
                }
                TOKEN_WAKE => {
                    // Discard wake bytes; the outbox drain below does the
                    // actual work.
                    while let Ok(n) = wake_rx.read(&mut scratch) {
                        if n == 0 {
                            break;
                        }
                    }
                }
                token => {
                    let id = token - CONN_BASE;
                    let Some(c) = conns.get_mut(&id) else { continue };
                    if ev.closed {
                        c.dead = true;
                        continue;
                    }
                    if ev.readable && !draining {
                        read_ready(c, id, shared, &outbox, &mut scratch, now);
                    }
                    if ev.writable {
                        flush(c);
                    }
                }
            }
        }
        events = batch;

        // Clear-then-drain: a push racing this drain either joins the
        // batch or leaves a fresh wake byte behind.
        outbox.wake_pending.store(false, Ordering::SeqCst);
        for (id, reply) in outbox.drain() {
            // A retired connection's late responses are dropped: the
            // client is gone.
            if let Some(c) = conns.get_mut(&id) {
                c.responded += 1;
                c.wbuf.extend_from_slice(reply.as_bytes());
            }
        }

        // Flush fresh backlogs, retire finished connections, refresh
        // registered interest where it changed.
        let idle_limit = shared.opts.idle_timeout;
        let mut done: Vec<u64> = Vec::new();
        for (&id, c) in &mut conns {
            if c.backlog() > 0 {
                flush(c);
            }
            let idled = idle_limit
                .is_some_and(|limit| now.saturating_duration_since(c.last_activity) >= limit);
            if c.dead
                || (c.eof && c.settled())
                || (draining && c.settled())
                || (idled && c.settled())
            {
                done.push(id);
                continue;
            }
            let want = Interest {
                readable: !draining && !c.eof && c.backlog() < WBUF_MAX,
                writable: c.backlog() > 0,
            };
            if want != c.interest {
                if poller.modify(c.stream.as_raw_fd(), id + CONN_BASE, want).is_err() {
                    c.dead = true;
                    done.push(id);
                } else {
                    c.interest = want;
                }
            }
        }
        for id in done {
            if let Some(c) = conns.remove(&id) {
                poller.deregister(c.stream.as_raw_fd());
            }
        }
    }
}

/// Accepts every pending connection (edge-to-level safe: loops until
/// `WouldBlock`) and registers each with read interest.
fn accept_ready(
    listener: &TcpListener,
    shared: &Shared,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    now: Instant,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        // Responses are single small writes; Nagle + delayed ACK would add
        // tens of milliseconds per request on an otherwise idle link.
        let _ = stream.set_nodelay(true);
        let id = shared.conns.fetch_add(1, Ordering::Relaxed) + 1;
        if poller.register(stream.as_raw_fd(), id + CONN_BASE, Interest::READ).is_err() {
            continue;
        }
        conns.insert(
            id,
            Conn {
                stream,
                rbuf: Vec::new(),
                scanned: 0,
                wbuf: Vec::new(),
                wpos: 0,
                seq: 0,
                dispatched: 0,
                responded: 0,
                last_activity: now,
                eof: false,
                dead: false,
                interest: Interest::READ,
            },
        );
    }
}

/// Reads until `WouldBlock`/EOF, reassembling and dispatching lines after
/// every read.
fn read_ready(
    c: &mut Conn,
    id: u64,
    shared: &Shared,
    outbox: &Arc<Outbox>,
    scratch: &mut [u8],
    now: Instant,
) {
    loop {
        match c.stream.read(scratch) {
            Ok(0) => {
                c.eof = true;
                break;
            }
            Ok(n) => {
                c.last_activity = now;
                c.rbuf.extend_from_slice(&scratch[..n]);
                dispatch_lines(c, id, shared, outbox);
                if c.dead || c.eof {
                    return;
                }
                if c.backlog() >= WBUF_MAX {
                    // Stop pulling more until the client reads its
                    // responses.
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    if c.eof && !c.rbuf.is_empty() {
        // `read_line` hands out an unterminated trailing line at EOF; the
        // reassembly path matches it so a client that sends a final
        // request without `\n` and half-closes still gets its answer.
        let line = std::mem::take(&mut c.rbuf);
        dispatch(c, id, shared, outbox, &line);
    }
}

/// Dispatches every complete line in `rbuf`, scanning only the bytes no
/// earlier call has seen, then refuses a remaining fragment longer than
/// [`MAX_LINE_BYTES`].
fn dispatch_lines(c: &mut Conn, id: u64, shared: &Shared, outbox: &Arc<Outbox>) {
    let mut buf = std::mem::take(&mut c.rbuf);
    let mut start = 0;
    let mut scan = c.scanned;
    while let Some(off) = buf[scan..].iter().position(|&b| b == b'\n') {
        scan += off + 1;
        dispatch(c, id, shared, outbox, &buf[start..scan]);
        if c.dead {
            return;
        }
        start = scan;
    }
    if buf.len() - start > MAX_LINE_BYTES {
        let e = proto_err("", format!("request line exceeds {MAX_LINE_BYTES} bytes"));
        c.dispatched += 1;
        c.responded += 1;
        c.wbuf.extend_from_slice(malformed(shared, &e, Instant::now(), id, c.seq).as_bytes());
        c.seq += 1;
        c.scanned = 0;
        c.eof = true;
        return;
    }
    buf.drain(..start);
    c.scanned = buf.len();
    c.rbuf = buf;
}

/// Dispatches one reassembled line and appends the answer when the I/O
/// thread made it in place. Invalid UTF-8 kills the connection, as
/// `read_line` would by failing with `InvalidData`.
fn dispatch(c: &mut Conn, id: u64, shared: &Shared, outbox: &Arc<Outbox>, line: &[u8]) {
    let Ok(text) = std::str::from_utf8(line) else {
        c.dead = true;
        return;
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return;
    }
    c.dispatched += 1;
    let (consumed, reply) = handle_line(trimmed, shared, outbox, Instant::now(), id, c.seq);
    c.seq += consumed;
    if let Some(reply) = reply {
        c.responded += 1;
        c.wbuf.extend_from_slice(reply.as_bytes());
    }
}

/// Writes backlog until the socket stops accepting; compacts the buffer
/// when fully flushed.
fn flush(c: &mut Conn) {
    while c.wpos < c.wbuf.len() {
        match c.stream.write(&c.wbuf[c.wpos..]) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    if c.wpos == c.wbuf.len() {
        c.wbuf.clear();
        c.wpos = 0;
    }
}

/// How long the next wait may park. Wakes bound it from the side, so this
/// only needs to cover timers: the next idle deadline when idle timeouts
/// are configured, a drain re-check cap while draining, else forever.
fn poll_timeout(shared: &Shared, conns: &HashMap<u64, Conn>, draining: bool) -> Option<Duration> {
    let mut timeout = if draining { Some(DRAIN_POLL) } else { None };
    if let Some(limit) = shared.opts.idle_timeout {
        let now = Instant::now();
        for c in conns.values() {
            let deadline = c.last_activity + limit;
            let wait = deadline.saturating_duration_since(now);
            timeout = Some(timeout.map_or(wait, |t| t.min(wait)));
        }
    }
    timeout
}
