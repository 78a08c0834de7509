//! The readiness reactor: one thread multiplexing every connection over
//! `poll(2)`, with request execution handed to a worker pool.
//!
//! Life of a connection:
//!
//! ```text
//!   accept ── over budget? ──> write busy response, close (rejected)
//!     │
//!     v                 bytes arrive            frame complete
//!   [reading] ────────────────────────────> Protocol::frame
//!     │  ^                                      │        │
//!     │  │ response flushed, keep-alive         │inline  │dispatch
//!     │  └──────────────[idle]<───┐             v        v
//!     │                           │        reactor   worker pool
//!     │ header/idle deadline      │        thread    (--jobs threads)
//!     v                           │             │        │
//!   close <── write deadline ── [writing] <─────┴────────┘ (via waker)
//! ```
//!
//! Invariants the loop maintains:
//!
//! * The reactor thread never blocks on anything but `poll`: sockets are
//!   nonblocking, execution happens on workers, completions come back
//!   through a mutex-guarded vector plus a loopback-socket waker.
//! * At most one frame per connection is in flight. Pipelined requests stay
//!   buffered until the current response is queued, which preserves response
//!   ordering without any per-connection queueing of replies.
//! * A partial frame is not re-framed on every read: the connection keeps
//!   the protocol's last `Framed::Incomplete` `need` and offers the buffer
//!   again only once that many bytes are buffered, handing back the
//!   `scanned` length the protocol reported, so framing work is linear in
//!   the bytes received.
//! * Framed bytes are not moved out of the read buffer one request at a
//!   time: a consumed offset advances instead, and the buffer is compacted
//!   only once that offset passes half of it, so requests pipelined ahead
//!   of a large body do not each copy it.
//! * Reads are backpressured: once the buffer holds `max_frame_bytes`
//!   unframed bytes (only possible while a frame is executing —
//!   `Protocol::frame` must resolve any buffer that large), the socket is
//!   deregistered from `POLLIN` until the response drains the buffer below
//!   the cap.
//! * Every armed deadline lives in the timer wheel as `(token, generation)`;
//!   expiry is validated against both the generation and the currently armed
//!   deadline, so re-arming and connection reuse never fire stale timers.

use crate::stats::NetStats;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::timer::{Expired, Wheel};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Result of attempting to frame a request out of buffered bytes.
pub enum Framed<F> {
    /// Not enough bytes yet; keep reading. `need` is the buffer length
    /// below which framing cannot succeed: the reactor does not offer the
    /// buffer to [`Protocol::frame`] again until that many bytes are
    /// buffered. A `need` at or below the current length means "one more
    /// byte". `scanned` is handed back to the next `frame` call for this
    /// frame (e.g. how far a delimiter search got without a match).
    Incomplete { need: usize, scanned: usize },
    /// A complete frame of the first `consumed` bytes of the buffer.
    Frame { consumed: usize, frame: F },
    /// The bytes are unsalvageable. `response` is written, then the
    /// connection closes. The whole buffer is considered consumed.
    Reject { response: Vec<u8> },
}

/// A serialized response plus whether the connection survives it.
pub struct Reply {
    pub bytes: Vec<u8>,
    pub keep_alive: bool,
}

/// The embedding protocol. Implementations must be cheap to share
/// (`Arc<Self>` is cloned into every worker).
pub trait Protocol: Send + Sync + 'static {
    /// A parsed request, moved to a worker thread for execution.
    type Frame: Send + 'static;

    /// Try to frame one request from `buf`. `served` counts requests already
    /// framed on this connection (0 for the first). `scanned` is 0 for a
    /// new frame and otherwise the last [`Framed::Incomplete`] `scanned`
    /// for it, so a delimiter search can resume where it stopped. An exact
    /// `need` (e.g. head plus declared body length) keeps framing linear
    /// in the bytes received: a body arriving in many reads is framed
    /// once, when its last byte lands. `need` must not exceed
    /// [`ReactorOptions::max_frame_bytes`], or the connection stalls until
    /// its read deadline.
    fn frame(&self, buf: &[u8], served: usize, scanned: usize) -> Framed<Self::Frame>;

    /// Execute a frame. Runs on a worker thread. `served` is the 1-based
    /// index of this request on its connection.
    fn execute(&self, frame: Self::Frame, served: usize) -> Reply;

    /// Fast path: execute on the reactor thread if trivially cheap (e.g. a
    /// health check). Return the frame back to have it dispatched instead.
    fn try_inline(&self, frame: Self::Frame, _served: usize) -> Result<Reply, Self::Frame> {
        Err(frame)
    }

    /// Response written to connections rejected over budget (e.g. a 503
    /// with `Retry-After`). Always followed by a close.
    fn busy_response(&self) -> Vec<u8>;

    /// Response written when a read deadline expires mid-request (e.g. 408
    /// for a slow-loris client). `None` closes silently. Idle connections
    /// (empty buffer) always close silently.
    fn timeout_response(&self) -> Option<Vec<u8>> {
        None
    }

    /// The peer half-closed while `buf` holds an unframeable partial
    /// request. Return a final response (e.g. 400) or `None` to just close.
    fn eof_response(&self, _buf: &[u8], _served: usize) -> Option<Vec<u8>> {
        None
    }
}

#[derive(Clone, Copy, Debug)]
pub struct ReactorOptions {
    /// Worker threads executing frames.
    pub workers: usize,
    /// Connection budget; accepts beyond it get the busy response.
    pub max_connections: usize,
    /// Deadline for reading one full request (covers the slow-loris case:
    /// the clock starts at accept / first byte of a new request).
    pub read_deadline: Duration,
    /// Deadline for an idle keep-alive connection between requests.
    pub idle_deadline: Duration,
    /// Deadline for draining a queued response to a stalled reader.
    pub write_deadline: Duration,
    /// How long shutdown waits for in-flight requests before force-closing.
    pub drain_deadline: Duration,
    /// Timer wheel granularity.
    pub tick: Duration,
    /// Largest buffer `Protocol::frame` must resolve (frame or reject);
    /// reads are backpressured at this size while a frame executes.
    pub max_frame_bytes: usize,
}

impl Default for ReactorOptions {
    fn default() -> ReactorOptions {
        ReactorOptions {
            workers: 1,
            max_connections: 10_240,
            read_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(5),
            write_deadline: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            tick: Duration::from_millis(50),
            max_frame_bytes: 16 * 1024 + 8 * 1024 * 1024 + 4096,
        }
    }
}

/// Wakes the reactor from another thread. Backed by a loopback socket pair
/// so it registers with `poll` like any other fd (no `eventfd`, no unix
/// specifics). Writes are nonblocking: a full pipe already means a wakeup
/// is pending, which is all we need.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<TcpStream>,
}

impl Waker {
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

fn waker_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, rx))
}

/// Stops a running reactor: flips the flag and wakes the loop so the drain
/// starts immediately rather than at the next tick.
#[derive(Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    waker: Waker,
}

impl StopHandle {
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DeadlineKind {
    Read,
    Idle,
    Write,
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Bytes read; the first `consumed` of them are already framed.
    read_buf: Vec<u8>,
    consumed: usize,
    /// Unframed length below which `Protocol::frame` is not called (the
    /// last `Framed::Incomplete::need`; 1 between requests).
    need: usize,
    /// The last `Framed::Incomplete::scanned` (0 between requests).
    scanned: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    served: usize,
    executing: bool,
    read_closed: bool,
    close_after_write: bool,
    entered_keepalive: bool,
    deadline: Option<(u64, DeadlineKind)>,
    /// Bytes moved since the deadline was last armed. Idle/write deadlines
    /// refresh on progress; spurious wakeups must not refresh anything.
    activity: bool,
}

impl Conn {
    /// The bytes read and not yet framed.
    fn unframed(&self) -> &[u8] {
        &self.read_buf[self.consumed..]
    }

    /// Mark `n` more bytes framed. The buffer is cleared once everything
    /// is framed and compacted once the framed prefix passes half of it,
    /// so each byte moves at most once per doubling.
    fn consume(&mut self, n: usize) {
        self.consumed += n;
        if self.consumed == self.read_buf.len() {
            self.read_buf.clear();
            self.consumed = 0;
        } else if self.consumed > self.read_buf.len() / 2 {
            self.read_buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

struct Job<F> {
    token: usize,
    gen: u64,
    frame: F,
    served: usize,
}

struct Done {
    token: usize,
    gen: u64,
    bytes: Vec<u8>,
    keep_alive: bool,
}

enum PollSlot {
    Waker,
    Listener,
    Conn(usize),
}

pub struct Reactor<P: Protocol> {
    listener: TcpListener,
    proto: Arc<P>,
    opts: ReactorOptions,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    waker_rx: TcpStream,
    stop_handle: StopHandle,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
    wheel: Wheel,
    jobs_tx: Option<mpsc::Sender<Job<P::Frame>>>,
    done: Arc<Mutex<Vec<Done>>>,
    workers: Vec<JoinHandle<()>>,
}

impl<P: Protocol> Reactor<P> {
    pub fn new(
        listener: TcpListener,
        proto: Arc<P>,
        opts: ReactorOptions,
        stats: Arc<NetStats>,
        stop: Arc<AtomicBool>,
    ) -> io::Result<Reactor<P>> {
        listener.set_nonblocking(true)?;
        let (waker, waker_rx) = waker_pair()?;
        let stop_handle = StopHandle {
            stop: stop.clone(),
            waker,
        };
        let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));

        let (jobs_tx, jobs_rx) = mpsc::channel::<Job<P::Frame>>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let mut workers = Vec::new();
        for i in 0..opts.workers.max(1) {
            let rx = jobs_rx.clone();
            let proto = proto.clone();
            let done = done.clone();
            let waker = stop_handle.waker();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("net-worker-{i}"))
                    .spawn(move || loop {
                        let job = { rx.lock().unwrap().recv() };
                        let Ok(job) = job else { return };
                        let reply = proto.execute(job.frame, job.served);
                        done.lock().unwrap().push(Done {
                            token: job.token,
                            gen: job.gen,
                            bytes: reply.bytes,
                            keep_alive: reply.keep_alive,
                        });
                        waker.wake();
                    })
                    .expect("spawn net worker"),
            );
        }

        let tick = opts.tick.max(Duration::from_millis(1));
        Ok(Reactor {
            listener,
            proto,
            opts,
            stats,
            stop,
            waker_rx,
            stop_handle,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_gen: 1,
            wheel: Wheel::new(256, tick),
            jobs_tx: Some(jobs_tx),
            done,
            workers,
        })
    }

    pub fn stop_handle(&self) -> StopHandle {
        self.stop_handle.clone()
    }

    /// Run the event loop until stopped, then drain and join the workers.
    pub fn run(mut self) {
        let start = Instant::now();
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut slots: Vec<PollSlot> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let mut expired: Vec<Expired> = Vec::new();
        let mut draining = false;
        let mut drain_until = Instant::now();

        loop {
            if !draining && self.stop.load(Ordering::SeqCst) {
                draining = true;
                drain_until = Instant::now() + self.opts.drain_deadline;
                // Close everything not mid-request; in-flight work finishes.
                for token in 0..self.conns.len() {
                    let idle = match &self.conns[token] {
                        Some(c) => !c.executing && c.write_pos >= c.write_buf.len(),
                        None => false,
                    };
                    if idle {
                        self.close(token);
                    }
                }
            }
            if draining && (self.live == 0 || Instant::now() >= drain_until) {
                break;
            }

            pollfds.clear();
            slots.clear();
            pollfds.push(PollFd::new(sys::socket_fd(&self.waker_rx), POLLIN));
            slots.push(PollSlot::Waker);
            if !draining {
                pollfds.push(PollFd::new(sys::socket_fd(&self.listener), POLLIN));
                slots.push(PollSlot::Listener);
            }
            for (token, conn) in self.conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events = 0i16;
                if !c.read_closed && c.unframed().len() < self.opts.max_frame_bytes {
                    events |= POLLIN;
                }
                if c.write_pos < c.write_buf.len() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    pollfds.push(PollFd::new(sys::socket_fd(&c.stream), events));
                    slots.push(PollSlot::Conn(token));
                }
            }

            // Wake at the next tick boundary so timers stay coarse but honest.
            let elapsed = start.elapsed();
            let tick = self.wheel.tick();
            let into_tick = Duration::from_nanos((elapsed.as_nanos() % tick.as_nanos()) as u64);
            let timeout = (tick - into_tick).max(Duration::from_millis(1));
            let _ = sys::poll(&mut pollfds, timeout);
            self.stats.poll_wakeups.fetch_add(1, Ordering::Relaxed);

            // Readiness, in registration order: waker, listener, connections.
            for (i, slot) in slots.iter().enumerate() {
                match slot {
                    PollSlot::Waker => {
                        if pollfds[i].readable() {
                            while let Ok(n) = (&self.waker_rx).read(&mut scratch[..64]) {
                                if n == 0 {
                                    break;
                                }
                            }
                        }
                    }
                    PollSlot::Listener => {
                        if pollfds[i].readable() {
                            self.accept_ready(start);
                        }
                    }
                    PollSlot::Conn(token) => {
                        let token = *token;
                        if pollfds[i].readable() {
                            self.read_ready(token, start, &mut scratch);
                        }
                        if self.conns[token].is_some() && pollfds[i].writable() {
                            self.write_ready(token, start);
                        }
                    }
                }
            }

            // Completions from the worker pool.
            let finished: Vec<Done> = std::mem::take(&mut *self.done.lock().unwrap());
            for done in finished {
                self.complete(done, start);
            }

            // Deadlines.
            expired.clear();
            let now_tick = self.wheel.tick_at(start.elapsed());
            self.wheel.advance(now_tick, &mut expired);
            for e in std::mem::take(&mut expired) {
                self.deadline_fired(e);
            }
        }

        // Workers exit when the job channel closes.
        drop(self.jobs_tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for token in 0..self.conns.len() {
            if self.conns[token].is_some() {
                self.close(token);
            }
        }
    }

    fn accept_ready(&mut self, start: Instant) {
        loop {
            let (stream, _addr) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE, ECONNABORTED, ...):
                // give up until the next readiness event.
                Err(_) => break,
            };
            if self.live >= self.opts.max_connections {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let busy = self.proto.busy_response();
                let _ = (&stream).write(&busy);
                // Drain whatever the client already sent and half-close:
                // closing a socket with unread input turns into an RST,
                // which would destroy the busy response before the client
                // reads it.
                let _ = stream.set_nonblocking(true);
                let mut scratch = [0u8; 4096];
                while matches!((&stream).read(&mut scratch), Ok(n) if n > 0) {}
                let _ = stream.shutdown(std::net::Shutdown::Write);
                continue; // drop: close
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            self.stats.open.fetch_add(1, Ordering::Relaxed);

            let gen = self.next_gen;
            self.next_gen += 1;
            let conn = Conn {
                stream,
                gen,
                read_buf: Vec::new(),
                consumed: 0,
                need: 1,
                scanned: 0,
                write_buf: Vec::new(),
                write_pos: 0,
                served: 0,
                executing: false,
                read_closed: false,
                close_after_write: false,
                entered_keepalive: false,
                deadline: None,
                activity: false,
            };
            let token = match self.free.pop() {
                Some(t) => {
                    self.conns[t] = Some(conn);
                    t
                }
                None => {
                    self.conns.push(Some(conn));
                    self.conns.len() - 1
                }
            };
            self.live += 1;
            // The read deadline starts at accept: a connection that never
            // sends a full request is a slow-loris by definition.
            self.arm(token, start, DeadlineKind::Read);
        }
    }

    fn read_ready(&mut self, token: usize, start: Instant, scratch: &mut [u8]) {
        let mut closed = false;
        {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            loop {
                if conn.unframed().len() >= self.opts.max_frame_bytes {
                    break; // backpressure; POLLIN deregistered next loop
                }
                match (&conn.stream).read(scratch) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                        conn.activity = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        if closed {
            self.close(token);
            return;
        }
        self.pump(token, start);
    }

    /// Frame as many requests as can be answered right now. At most one
    /// frame may be executing; everything else stays buffered. A buffer
    /// shorter than the connection's `need` is not offered to the protocol.
    fn pump(&mut self, token: usize, start: Instant) {
        loop {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            if conn.executing || conn.close_after_write {
                break;
            }
            let framed = if conn.unframed().len() < conn.need {
                Framed::Incomplete {
                    need: conn.need,
                    scanned: conn.scanned,
                }
            } else {
                self.proto.frame(conn.unframed(), conn.served, conn.scanned)
            };
            match framed {
                Framed::Incomplete { need, scanned } => {
                    // This buffer cannot frame, whatever `need` says, so
                    // at least one more byte must arrive first.
                    conn.need = need.max(conn.unframed().len() + 1);
                    conn.scanned = scanned;
                    if conn.read_closed {
                        if conn.unframed().is_empty() {
                            self.close(token);
                            return;
                        }
                        // Peer hung up mid-request: give the protocol a
                        // chance to answer (e.g. HTTP's 400).
                        let resp = self.proto.eof_response(conn.unframed(), conn.served);
                        conn.consume(conn.unframed().len());
                        if let Some(bytes) = resp {
                            conn.write_buf.extend_from_slice(&bytes);
                        }
                        conn.close_after_write = true;
                    }
                    break;
                }
                Framed::Frame { consumed, frame } => {
                    conn.consume(consumed);
                    conn.need = 1;
                    conn.scanned = 0;
                    conn.served += 1;
                    let (served, gen) = (conn.served, conn.gen);
                    match self.proto.try_inline(frame, served) {
                        Ok(reply) => {
                            self.stats.inline_served.fetch_add(1, Ordering::Relaxed);
                            conn.write_buf.extend_from_slice(&reply.bytes);
                            if !reply.keep_alive {
                                conn.close_after_write = true;
                            }
                        }
                        Err(frame) => {
                            self.stats.dispatched.fetch_add(1, Ordering::Relaxed);
                            conn.executing = true;
                            if let Some(tx) = &self.jobs_tx {
                                let _ = tx.send(Job {
                                    token,
                                    gen,
                                    frame,
                                    served,
                                });
                            }
                        }
                    }
                }
                Framed::Reject { response } => {
                    conn.consume(conn.unframed().len());
                    conn.write_buf.extend_from_slice(&response);
                    conn.close_after_write = true;
                }
            }
        }
        self.flush(token, start);
    }

    fn write_ready(&mut self, token: usize, start: Instant) {
        self.flush(token, start);
    }

    /// Push queued response bytes out, then settle the connection's next
    /// state: close, keep framing pipelined input, or go idle.
    fn flush(&mut self, token: usize, start: Instant) {
        let mut closed = false;
        {
            let Some(conn) = self.conns[token].as_mut() else {
                return;
            };
            while conn.write_pos < conn.write_buf.len() {
                match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        conn.activity = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            if !closed && conn.write_pos >= conn.write_buf.len() && !conn.write_buf.is_empty() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                if conn.close_after_write {
                    closed = true;
                } else if conn.served > 0 && !conn.entered_keepalive {
                    conn.entered_keepalive = true;
                    self.stats.keepalive.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if closed {
            self.close(token);
            return;
        }
        self.settle(token, start);
    }

    /// Re-derive the armed deadline from the connection's state and try to
    /// make progress on buffered pipelined input.
    fn settle(&mut self, token: usize, start: Instant) {
        let draining = self.stop.load(Ordering::SeqCst);
        let (executing, pending_write, buf_len, read_closed, closing) = {
            let Some(conn) = self.conns[token].as_ref() else {
                return;
            };
            (
                conn.executing,
                conn.write_pos < conn.write_buf.len(),
                conn.unframed().len(),
                conn.read_closed,
                conn.close_after_write,
            )
        };
        if executing {
            self.disarm(token);
            return;
        }
        if pending_write {
            self.arm(token, start, DeadlineKind::Write);
            return;
        }
        if closing || draining {
            // Nothing pending (any final response was flushed by `flush`),
            // or the server is draining and this connection just went quiet.
            self.close(token);
            return;
        }
        if buf_len > 0 {
            // A pipelined request may already be complete in the buffer.
            self.pump_if_frameable(token, start);
            return;
        }
        if read_closed {
            self.close(token);
            return;
        }
        let kind = if self.conns[token].as_ref().map_or(0, |c| c.served) > 0 {
            DeadlineKind::Idle
        } else {
            DeadlineKind::Read
        };
        self.arm(token, start, kind);
    }

    /// `settle` → `pump` without recursing through `flush` → `settle`
    /// forever: every `Incomplete` raises `need` past the buffer, so a
    /// buffer that `pump` could not frame is not offered again until more
    /// bytes (or EOF) arrive; until then only the read deadline is armed.
    fn pump_if_frameable(&mut self, token: usize, start: Instant) {
        let Some(conn) = self.conns[token].as_ref() else {
            return;
        };
        if conn.unframed().len() >= conn.need || conn.read_closed {
            self.pump(token, start); // also handles the mid-request EOF path
        } else {
            self.arm(token, start, DeadlineKind::Read);
        }
    }

    fn complete(&mut self, done: Done, start: Instant) {
        let Some(conn) = self.conns[done.token].as_mut() else {
            return;
        };
        if conn.gen != done.gen {
            return; // connection was closed and the slot reused
        }
        conn.executing = false;
        conn.write_buf.extend_from_slice(&done.bytes);
        if !done.keep_alive {
            conn.close_after_write = true;
        }
        self.flush(done.token, start);
    }

    fn deadline_fired(&mut self, e: Expired) {
        let kind = {
            let Some(conn) = self.conns[e.token].as_ref() else {
                return;
            };
            if conn.gen != e.gen {
                return;
            }
            match conn.deadline {
                Some((at, kind)) if at == e.at => kind,
                _ => return, // re-armed since; stale entry
            }
        };
        self.stats.timer_expirations.fetch_add(1, Ordering::Relaxed);
        let mid_request = {
            let conn = self.conns[e.token].as_ref().unwrap();
            kind == DeadlineKind::Read && !conn.unframed().is_empty()
        };
        if mid_request {
            if let Some(bytes) = self.proto.timeout_response() {
                // Best effort: one write, then close regardless.
                let conn = self.conns[e.token].as_ref().unwrap();
                let _ = (&conn.stream).write(&bytes);
            }
        }
        self.close(e.token);
    }

    fn arm(&mut self, token: usize, start: Instant, kind: DeadlineKind) {
        let dur = match kind {
            DeadlineKind::Read => self.opts.read_deadline,
            DeadlineKind::Idle => self.opts.idle_deadline,
            DeadlineKind::Write => self.opts.write_deadline,
        };
        let at = self.wheel.tick_at(start.elapsed() + dur).max(1);
        let Some(conn) = self.conns[token].as_mut() else {
            return;
        };
        let rearm = match conn.deadline {
            None => true,
            // A different state: the old entry goes stale, arm fresh.
            Some((_, armed)) if armed != kind => true,
            // The read deadline covers the *whole* request — a slow-loris
            // dribbling bytes must not extend it, and neither may a
            // spurious wakeup.
            Some(_) if kind == DeadlineKind::Read => false,
            // Idle/write deadlines refresh only on real progress.
            Some(_) => conn.activity,
        };
        if !rearm {
            return;
        }
        conn.activity = false;
        conn.deadline = Some((at, kind));
        let gen = conn.gen;
        self.wheel.insert(at, token, gen);
    }

    fn disarm(&mut self, token: usize) {
        if let Some(conn) = self.conns[token].as_mut() {
            conn.deadline = None; // wheel entry turns stale, dropped on expiry
        }
    }

    fn close(&mut self, token: usize) {
        let Some(conn) = self.conns[token].take() else {
            return;
        };
        self.free.push(token);
        self.live -= 1;
        self.stats.open.fetch_sub(1, Ordering::Relaxed);
        if conn.entered_keepalive {
            self.stats.keepalive.fetch_sub(1, Ordering::Relaxed);
        }
        // Drop closes the socket; an executing frame for this gen may still
        // complete later and is discarded by the gen check.
    }
}
