//! A std-only HTTP/1.1 keep-alive client. Requests are pre-built byte
//! strings and responses are framed by `Content-Length`. It shares no code
//! with the server's crates, so a change to the server's network layer
//! cannot change the load.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Requests sent on one connection before the client reconnects: below
/// the server's keep-alive cap of 256, so the server never has to close.
pub const RECONNECT_AFTER: usize = 250;

/// How long a blocking read may wait before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The request bytes for `method target` with `body`.
pub fn wire(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// The body of a request built by [`wire`].
pub fn wire_body(wire: &[u8]) -> &[u8] {
    let head = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("wire() writes a blank line");
    &wire[head + 4..]
}

/// The target of a request built by [`wire`].
pub fn wire_target(wire: &[u8]) -> &str {
    let line = &wire[..wire.iter().position(|&b| b == b'\r').unwrap_or(wire.len())];
    std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split(' ').nth(1))
        .unwrap_or("?")
}

/// One parsed response.
pub struct Response {
    pub status: u16,
    /// The server announced `Connection: close`.
    pub close: bool,
    /// `X-Adds-Cache` (`hit`, `miss`, `coalesced`, `disk`) or empty.
    pub cache: String,
    /// `X-Adds-Sha256` or empty.
    pub sha: String,
    pub body: Vec<u8>,
}

/// Parse one complete response from the head of `buf`: `Ok(None)` while
/// more bytes are needed, else the response and the bytes it used.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("bad status line `{status_line}`"))?;
    let mut resp = Response {
        status,
        close: false,
        cache: String::new(),
        sha: String::new(),
        body: Vec::new(),
    };
    let mut length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse().map_err(|_| "bad content-length")?,
            "connection" => resp.close = value.eq_ignore_ascii_case("close"),
            "x-adds-cache" => resp.cache = value.to_string(),
            "x-adds-sha256" => resp.sha = value.to_string(),
            _ => {}
        }
    }
    let total = head_len + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    resp.body = buf[head_len + 4..total].to_vec();
    Ok(Some((resp, total)))
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests written on this connection.
    pub sent: usize,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // Head and body go out in one write, but a pipelined request may
        // follow before the reply: never let Nagle hold it back.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            sent: 0,
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.sent += 1;
        self.stream.write_all(wire)
    }

    /// Send and block for the reply.
    pub fn roundtrip(&mut self, wire: &[u8]) -> io::Result<Response> {
        self.send(wire)?;
        loop {
            if let Some(resp) = self.take()? {
                return Ok(resp);
            }
            self.fill()?;
        }
    }

    /// The next reply if it is complete by `deadline`, else `None`.
    pub fn recv_until(&mut self, deadline: Instant) -> io::Result<Option<Response>> {
        loop {
            if let Some(resp) = self.take()? {
                return Ok(Some(resp));
            }
            let now = Instant::now();
            if now >= deadline || !wait_readable(&self.stream, deadline - now)? {
                return Ok(None);
            }
            self.fill()?;
        }
    }

    fn take(&mut self) -> io::Result<Option<Response>> {
        match parse_response(&self.buf) {
            Ok(Some((resp, used))) => {
                self.buf.drain(..used);
                Ok(Some(resp))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

// `PollFd` and `Timespec` mirror `struct pollfd` and `struct timespec` of
// 64-bit Linux, where `nfds_t`, `time_t` and `long` are 64 bits wide.
const _: () = assert!(cfg!(target_os = "linux") && usize::BITS == 64);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
const PR_SET_TIMERSLACK: i32 = 29;

/// End this thread's timed waits on time. Linux lets a timed wait overrun
/// by the thread's timer slack (50 µs by default) so that it can batch
/// wakeups; an open-loop generator would then write every request late,
/// and latency timed from the due time would include the overrun. Best
/// effort: where the call is refused the default slack stays, and the
/// generator lag shows it.
pub fn exact_timers() {
    // SAFETY: `prctl` is variadic and declared so; PR_SET_TIMERSLACK reads
    // one `unsigned long` argument, the slack in nanoseconds, and changes
    // only the calling thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// Wait until `stream` is readable or `timeout` passes. `ppoll` takes a
/// nanosecond timeout; a socket read timeout is rounded up to a scheduler
/// tick, which would make an open-loop generator send late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd` and
    // `struct timespec` values for the duration of the call, `nfds` is 1 to
    // match the single descriptor, and a null signal mask is allowed.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}
