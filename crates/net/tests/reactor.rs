//! Reactor behavior pinned against a toy newline-framed protocol, so the
//! event loop's contracts (framing, pipelining, budget, deadlines, drain)
//! are tested without any HTTP in the way.

use adds_net::reactor::{Framed, Protocol, Reactor, ReactorOptions, Reply, StopHandle};
use adds_net::stats::NetStats;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Lines in, uppercased lines out. `quit` closes after responding, `!x` is
/// served inline on the reactor thread, `slow` sleeps in execute.
struct LineProto;

impl Protocol for LineProto {
    type Frame = String;

    fn frame(&self, buf: &[u8], _served: usize, _scanned: usize) -> Framed<String> {
        match buf.iter().position(|&b| b == b'\n') {
            None => Framed::Incomplete {
                need: buf.len() + 1,
                scanned: 0,
            },
            Some(i) => {
                let line = String::from_utf8_lossy(&buf[..i]).into_owned();
                if line == "bad" {
                    Framed::Reject {
                        response: b"REJECT\n".to_vec(),
                    }
                } else {
                    Framed::Frame {
                        consumed: i + 1,
                        frame: line,
                    }
                }
            }
        }
    }

    fn execute(&self, frame: String, _served: usize) -> Reply {
        if frame == "slow" {
            thread::sleep(Duration::from_millis(300));
        }
        let keep_alive = frame != "quit";
        Reply {
            bytes: format!("{}\n", frame.to_uppercase()).into_bytes(),
            keep_alive,
        }
    }

    fn try_inline(&self, frame: String, _served: usize) -> Result<Reply, String> {
        if let Some(rest) = frame.strip_prefix('!') {
            Ok(Reply {
                bytes: format!("INLINE:{rest}\n").into_bytes(),
                keep_alive: true,
            })
        } else {
            Err(frame)
        }
    }

    fn busy_response(&self) -> Vec<u8> {
        b"BUSY\n".to_vec()
    }

    fn timeout_response(&self) -> Option<Vec<u8>> {
        Some(b"TIMEOUT\n".to_vec())
    }

    fn eof_response(&self, _buf: &[u8], _served: usize) -> Option<Vec<u8>> {
        Some(b"EOF\n".to_vec())
    }
}

struct TestServer {
    addr: std::net::SocketAddr,
    stop: StopHandle,
    stats: Arc<NetStats>,
    join: Option<thread::JoinHandle<()>>,
}

impl TestServer {
    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(j) = self.join.take() {
            j.join().unwrap();
        }
    }
}

/// Length-prefixed frames (`<len>\n<len body bytes>`) answered with the
/// body length. Counts its `frame` calls and the bytes offered to them, so
/// tests can see how often the reactor re-frames a partial request.
#[derive(Default)]
struct CountingProto {
    frame_calls: AtomicUsize,
    bytes_offered: AtomicUsize,
}

impl Protocol for CountingProto {
    type Frame = usize;

    fn frame(&self, buf: &[u8], _served: usize, _scanned: usize) -> Framed<usize> {
        self.frame_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_offered.fetch_add(buf.len(), Ordering::Relaxed);
        let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
            return Framed::Incomplete {
                need: buf.len() + 1,
                scanned: 0,
            };
        };
        let len: usize = String::from_utf8_lossy(&buf[..nl]).parse().unwrap();
        let consumed = nl + 1 + len;
        if buf.len() < consumed {
            return Framed::Incomplete {
                need: consumed,
                scanned: 0,
            };
        }
        Framed::Frame {
            consumed,
            frame: len,
        }
    }

    fn execute(&self, len: usize, _served: usize) -> Reply {
        Reply {
            bytes: format!("{len}\n").into_bytes(),
            keep_alive: true,
        }
    }

    fn busy_response(&self) -> Vec<u8> {
        b"BUSY\n".to_vec()
    }
}

fn spawn(opts: ReactorOptions) -> TestServer {
    spawn_proto(opts, Arc::new(LineProto))
}

fn spawn_proto<P: Protocol>(opts: ReactorOptions, proto: Arc<P>) -> TestServer {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stats = Arc::new(NetStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let reactor = Reactor::new(listener, proto, opts, stats.clone(), stop).unwrap();
    let handle = reactor.stop_handle();
    let join = thread::spawn(move || reactor.run());
    TestServer {
        addr,
        stop: handle,
        stats,
        join: Some(join),
    }
}

fn fast_opts() -> ReactorOptions {
    ReactorOptions {
        workers: 2,
        tick: Duration::from_millis(10),
        ..ReactorOptions::default()
    }
}

fn read_line(r: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    line
}

#[test]
fn round_trip_and_pipelining() {
    let srv = spawn(fast_opts());
    let mut s = srv.connect();
    // Three pipelined requests in a single write, one dispatched, one
    // inline, one dispatched: responses must come back in order.
    s.write_all(b"hello\n!ping\nworld\n").unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    assert_eq!(read_line(&mut r), "HELLO\n");
    assert_eq!(read_line(&mut r), "INLINE:ping\n");
    assert_eq!(read_line(&mut r), "WORLD\n");
    assert!(
        srv.stats
            .dispatched
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 2
    );
    assert!(
        srv.stats
            .inline_served
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
}

#[test]
fn one_byte_dribble_writes_still_frame() {
    let srv = spawn(fast_opts());
    let mut s = srv.connect();
    for b in b"dribble\n" {
        s.write_all(&[*b]).unwrap();
        s.flush().unwrap();
        thread::sleep(Duration::from_millis(2));
    }
    let mut r = BufReader::new(s);
    assert_eq!(read_line(&mut r), "DRIBBLE\n");
}

#[test]
fn reject_answers_then_closes() {
    let srv = spawn(fast_opts());
    let mut s = srv.connect();
    s.write_all(b"bad\nignored\n").unwrap();
    let mut r = BufReader::new(s);
    assert_eq!(read_line(&mut r), "REJECT\n");
    let mut rest = String::new();
    r.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "connection must close after a reject");
}

#[test]
fn quit_closes_after_response() {
    let srv = spawn(fast_opts());
    let mut s = srv.connect();
    s.write_all(b"quit\n").unwrap();
    let mut r = BufReader::new(s);
    assert_eq!(read_line(&mut r), "QUIT\n");
    let mut rest = String::new();
    r.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "");
}

#[test]
fn budget_exhaustion_gets_busy_response() {
    let opts = ReactorOptions {
        max_connections: 1,
        ..fast_opts()
    };
    let srv = spawn(opts);
    let mut first = srv.connect();
    first.write_all(b"a\n").unwrap();
    let mut r1 = BufReader::new(first.try_clone().unwrap());
    assert_eq!(read_line(&mut r1), "A\n"); // first conn is in and serving
    let second = srv.connect();
    let mut r2 = BufReader::new(second);
    let mut got = String::new();
    r2.read_to_string(&mut got).unwrap();
    assert_eq!(
        got, "BUSY\n",
        "over-budget connection gets the busy response"
    );
    assert_eq!(
        srv.stats
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // The first connection is unaffected.
    first.write_all(b"b\n").unwrap();
    assert_eq!(read_line(&mut r1), "B\n");
}

#[test]
fn idle_connections_are_reaped() {
    let opts = ReactorOptions {
        idle_deadline: Duration::from_millis(80),
        read_deadline: Duration::from_millis(500),
        ..fast_opts()
    };
    let srv = spawn(opts);
    let mut s = srv.connect();
    s.write_all(b"a\n").unwrap();
    let mut r = BufReader::new(s);
    assert_eq!(read_line(&mut r), "A\n");
    // Now idle: the server should close us within the idle deadline + slack.
    let mut rest = String::new();
    let begin = Instant::now();
    r.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "");
    assert!(
        begin.elapsed() < Duration::from_secs(3),
        "idle reap took too long"
    );
    assert!(
        srv.stats
            .timer_expirations
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
}

#[test]
fn slow_loris_hits_read_deadline() {
    let opts = ReactorOptions {
        read_deadline: Duration::from_millis(120),
        idle_deadline: Duration::from_secs(30),
        ..fast_opts()
    };
    let srv = spawn(opts);
    let mut s = srv.connect();
    // Dribble a request that never completes.
    s.write_all(b"lo").unwrap();
    s.flush().unwrap();
    let mut r = BufReader::new(s);
    let mut got = String::new();
    r.read_to_string(&mut got).unwrap();
    assert_eq!(
        got, "TIMEOUT\n",
        "mid-request deadline answers before closing"
    );
    assert!(
        srv.stats
            .timer_expirations
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
}

#[test]
fn eof_mid_request_gets_final_response() {
    let srv = spawn(fast_opts());
    let mut s = srv.connect();
    s.write_all(b"partial-no-newline").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut r = BufReader::new(s);
    let mut got = String::new();
    r.read_to_string(&mut got).unwrap();
    assert_eq!(got, "EOF\n");
}

#[test]
fn drain_finishes_in_flight_work() {
    let srv = spawn(fast_opts());
    let mut s = srv.connect();
    s.write_all(b"slow\n").unwrap();
    thread::sleep(Duration::from_millis(50)); // let the frame reach a worker
    srv.stop.stop();
    let mut r = BufReader::new(s);
    let mut got = String::new();
    r.read_to_string(&mut got).unwrap();
    assert_eq!(got, "SLOW\n", "in-flight request completes during drain");
}

#[test]
fn stop_reaps_idle_connections_immediately() {
    let srv = spawn(fast_opts());
    let s = srv.connect();
    thread::sleep(Duration::from_millis(50));
    srv.stop.stop();
    let mut r = BufReader::new(s);
    let mut got = String::new();
    let begin = Instant::now();
    match r.read_to_string(&mut got) {
        Ok(_) => assert_eq!(got, ""),
        Err(e) => assert_ne!(e.kind(), ErrorKind::WouldBlock),
    }
    assert!(
        begin.elapsed() < Duration::from_secs(3),
        "drain hung on an idle conn"
    );
}

/// Send one length-prefixed request whose body arrives in `writes`
/// separate writes (paced so they land as separate reads), and return how
/// many `frame` calls and offered bytes it cost.
fn frame_cost(writes: usize) -> (usize, usize) {
    const BODY: usize = 64 * 1024;
    let proto = Arc::new(CountingProto::default());
    let srv = spawn_proto(fast_opts(), proto.clone());
    let mut s = srv.connect();
    s.write_all(format!("{BODY}\n").as_bytes()).unwrap();
    let body = vec![b'x'; BODY];
    for chunk in body.chunks(BODY / writes) {
        thread::sleep(Duration::from_millis(2));
        s.write_all(chunk).unwrap();
    }
    let mut r = BufReader::new(s);
    assert_eq!(read_line(&mut r), format!("{BODY}\n"));
    (
        proto.frame_calls.load(Ordering::Relaxed),
        proto.bytes_offered.load(Ordering::Relaxed),
    )
}

#[test]
fn frame_calls_do_not_grow_with_body_writes() {
    // Once the head names the body length, the reactor waits for the
    // whole body: one call when the head lands, one when the body does.
    for writes in [1, 64] {
        let (calls, offered) = frame_cost(writes);
        assert!(calls <= 2, "{writes} body writes cost {calls} frame calls");
        assert!(
            offered <= 2 * (64 * 1024 + 8),
            "{writes} body writes offered {offered} bytes to frame"
        );
    }
}

#[test]
fn pipelined_requests_are_framed_once_each() {
    // Three requests in one write: each is framed exactly once, including
    // the ones left buffered behind an executing request.
    let proto = Arc::new(CountingProto::default());
    let srv = spawn_proto(fast_opts(), proto.clone());
    let mut s = srv.connect();
    s.write_all(b"1\na2\nbb3\nccc").unwrap();
    let mut r = BufReader::new(s);
    for want in ["1\n", "2\n", "3\n"] {
        assert_eq!(read_line(&mut r), want);
    }
    assert_eq!(proto.frame_calls.load(Ordering::Relaxed), 3);
}
