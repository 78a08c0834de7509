//! The reactor over real sockets, against an in-process oracle:
//!
//! * **byte-identity** — a request sequence sent to a fresh server must
//!   be answered byte for byte as a fresh [`ServerState`] answers the same
//!   sequence in process (`read_request` → `ServerState::handle` →
//!   `serialize_response`, or the 400/413 error document for an
//!   unreadable request), across every corpus program and stage, the GET
//!   endpoints, and the error paths;
//! * **partial I/O torture** — requests dribbled a byte at a time and
//!   pipelined requests split at arbitrary packet boundaries must
//!   reassemble to the same responses;
//! * **slow-loris defense** — a client that trickles headers forever is
//!   answered `408` and reaped by the timer wheel, not parked on a worker;
//! * **connection budget** — connections over `--max-conns` get
//!   `503` + `Retry-After` and are counted, while established
//!   connections keep working;
//! * **`/v1/stats` v8** — the `net` section counts the reactor's work.

use adds_query::json::Json;
use adds_serve::http::{read_request, serialize_response, BadRequest, Response};
use adds_serve::server::{ServeOptions, Server, ServerHandle, ServerState};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn spawn_server() -> ServerHandle {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        ..ServeOptions::default()
    };
    Server::bind(&opts).expect("bind").spawn().expect("spawn")
}

/// The expected bytes: a fresh [`ServerState`] answering whole requests in
/// process, with no sockets, framing, or worker pool in the way. Feed it
/// the same sequence as the server under test so cache outcomes
/// (`X-Adds-Cache: miss` then `hit`) line up.
struct Oracle(ServerState);

impl Oracle {
    fn new() -> Oracle {
        Oracle(ServerState::default())
    }

    fn answer(&self, request: &[u8]) -> Vec<u8> {
        match read_request(&mut BufReader::new(request)) {
            Ok(req) => serialize_response(&self.0.handle(&req), req.keep_alive),
            Err(e) => {
                let status = match e {
                    BadRequest::TooLarge(_) => 413,
                    _ => 400,
                };
                serialize_response(&Response::error(status, &e.to_string()), false)
            }
        }
    }
}

/// Read exactly one `Content-Length`-framed response as raw bytes,
/// leaving the connection usable. (Byte-level framing on purpose: the
/// parity tests compare entire responses, headers included.)
fn read_raw_response(conn: &mut TcpStream) -> Vec<u8> {
    let mut raw = read_raw_head(conn);
    let head = String::from_utf8_lossy(&raw).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(": ")?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.parse().ok())?
        })
        .expect("Content-Length");
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body).expect("body");
    raw.extend_from_slice(&body);
    raw
}

/// Read one response head, through its blank line: all there is of an
/// answer to `HEAD`.
fn read_raw_head(conn: &mut TcpStream) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    // Head: read byte-wise until the blank line (responses are small).
    while !raw.ends_with(b"\r\n\r\n") {
        match conn.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            Ok(_) => panic!(
                "EOF inside response head: {:?}",
                String::from_utf8_lossy(&raw)
            ),
            Err(e) => panic!("read head: {e}"),
        }
    }
    raw
}

/// One request on a fresh connection; returns the complete raw response.
fn raw_request(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.write_all(request).expect("write");
    if request.starts_with(b"HEAD ") {
        return read_raw_head(&mut conn);
    }
    read_raw_response(&mut conn)
}

fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n").into_bytes()
}

fn status_of(raw: &[u8]) -> u16 {
    String::from_utf8_lossy(raw)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status")
}

#[test]
fn served_bytes_match_the_oracle_across_the_corpus() {
    let server = spawn_server();
    let oracle = Oracle::new();

    // Stats/metrics are excluded: connection gauges, event-loop counters
    // and latency histograms only move on the server.
    let mut requests: Vec<Vec<u8>> = Vec::new();
    for entry in adds_serve::corpus::CORPUS {
        for stage in ["analyze", "parallelize", "check", "parse"] {
            requests.push(post(
                &format!("/v1/{stage}?name={}", entry.name),
                entry.source,
            ));
        }
    }
    // Cache hits (repeat of the first analyze), report fetch by digest,
    // corpus endpoints, health, and the error paths.
    let first = adds_serve::corpus::CORPUS[0];
    requests.push(post(
        &format!("/v1/analyze?name={}", first.name),
        first.source,
    ));
    let digest = adds_query::sha::sha256(first.source.as_bytes()).hex();
    requests.push(get(&format!("/v1/report/{digest}?stage=analyze")));
    requests.push(get("/v1/corpus"));
    requests.push(get("/v1/corpus/barnes_hut"));
    requests.push(get("/healthz"));
    requests.push(get("/v1/nope"));
    requests.push(b"BOGUS /x HTTP/0.9\r\nHost: t\r\n\r\n".to_vec());
    requests.push(
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx"
            .to_vec(),
    );
    // An over-limit body is refused from its head alone: no body is sent.
    requests.push(
        b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nContent-Length: 9999999999\r\n\r\n".to_vec(),
    );
    // HEAD: the GET's head, Content-Length included, and no body.
    requests.push(b"HEAD /v1/corpus/barnes_hut HTTP/1.1\r\nHost: t\r\n\r\n".to_vec());

    for (i, req) in requests.iter().enumerate() {
        let got = raw_request(server.addr(), req);
        let want = oracle.answer(req);
        assert_eq!(
            got,
            want,
            "request #{i} diverged:\nserved: {:?}\noracle: {:?}",
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want)
        );
    }
    server.stop();
}

#[test]
fn truncated_request_matches_the_oracle() {
    // A client that sends half a request and half-closes: reading those
    // bytes to their end fails with a parse error, and the reactor's EOF
    // path must answer exactly that 400.
    let server = spawn_server();
    let truncated: &[u8] = b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nContent-Le";
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.write_all(truncated).expect("write");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = Vec::new();
    conn.read_to_end(&mut got).expect("read");
    assert_eq!(status_of(&got), 400);
    assert_eq!(
        got,
        Oracle::new().answer(truncated),
        "truncated-request response diverged"
    );
    server.stop();
}

#[test]
fn one_byte_writes_reassemble_to_the_same_response() {
    let server = spawn_server();
    let entry = adds_serve::corpus::find("list_scale_adds").unwrap();
    let req = post("/v1/analyze", entry.source);
    let want = Oracle::new().answer(&req);

    // Torture: the request bytes, one write syscall per byte.
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).unwrap();
    for chunk in req.chunks(1) {
        conn.write_all(chunk).expect("write byte");
    }
    let got = read_raw_response(&mut conn);

    assert_eq!(status_of(&got), 200);
    assert_eq!(got, want, "dribbled request produced different bytes");
    server.stop();
}

#[test]
fn pipelined_requests_split_at_odd_boundaries_stay_ordered() {
    let server = spawn_server();
    let sum = adds_serve::corpus::find("list_sum").unwrap();
    let scale = adds_serve::corpus::find("list_scale_adds").unwrap();
    let small = vec![
        post("/v1/check", sum.source),
        post("/v1/analyze", scale.source),
        get("/healthz"),
        post("/v1/check", sum.source), // cache hit on its own prior item
    ];
    // Pool-dispatched requests ahead of a ~1 MiB body, and one behind it.
    let big = format!("{}// {}\n", sum.source, "x".repeat(1 << 20));
    let mut burst = vec![get("/v1/corpus/list_sum"); 8];
    burst.push(post("/v1/check", &big));
    burst.push(get("/v1/corpus/list_sum"));

    // Reference responses from the oracle, same order.
    let oracle = Oracle::new();
    // One connection per input, all its requests pipelined back-to-back:
    // the small ones written in 7-byte slices with pauses every 64 slices
    // so the frames land split across reads in many different places, the
    // burst in one write.
    for (parts, slice) in [(small, 7), (burst, usize::MAX)] {
        let want: Vec<Vec<u8>> = parts.iter().map(|r| oracle.answer(r)).collect();
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.set_nodelay(true).unwrap();
        for (i, chunk) in parts.concat().chunks(slice).enumerate() {
            conn.write_all(chunk).expect("write chunk");
            if i % 64 == 63 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for (i, want) in want.iter().enumerate() {
            let got = read_raw_response(&mut conn);
            assert_eq!(
                &got, want,
                "pipelined response #{i} diverged from the oracle"
            );
        }
    }
    server.stop();
}

#[test]
fn slow_loris_is_answered_408_and_reaped() {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        read_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind").spawn().expect("spawn");

    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let started = std::time::Instant::now();
    let mut resp = Vec::new();
    // Dribble one header byte at a time, forever — each byte is activity,
    // but the read deadline is absolute: it must NOT extend.
    'dribble: for byte in b"GET /healthz HTTP/1.1\r\nHost: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
        .iter()
        .cycle()
    {
        if conn.write_all(&[*byte]).is_err() {
            break; // server already closed on us
        }
        std::thread::sleep(Duration::from_millis(20));
        let mut chunk = [0u8; 256];
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => break 'dribble, // closed: done
                Ok(n) => resp.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    break
                }
                Err(_) => break 'dribble,
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "loris connection survived past the read deadline"
        );
    }
    // Reaped within the deadline (plus wheel granularity), with a 408.
    assert!(
        started.elapsed() >= Duration::from_millis(250),
        "closed before the read deadline could have fired"
    );
    let text = String::from_utf8_lossy(&resp);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected 408, got: {text:?}"
    );
    let net = server.state().net.snapshot();
    assert!(
        net.timer_expirations >= 1,
        "timer wheel never fired: {net:?}"
    );
    server.stop();
}

#[test]
fn connection_budget_rejects_with_503_and_counts() {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        max_connections: 2,
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind").spawn().expect("spawn");

    // Two established connections fill the budget...
    let mut a = TcpStream::connect(server.addr()).expect("connect a");
    a.write_all(&get("/healthz")).unwrap();
    let first = read_raw_response(&mut a);
    assert_eq!(status_of(&first), 200);
    let _b = TcpStream::connect(server.addr()).expect("connect b");
    // ...wait until both are registered with the reactor.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.state().net.snapshot().accepted < 2 {
        assert!(std::time::Instant::now() < deadline, "b never accepted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // ...so the third is answered 503 + Retry-After and closed.
    let mut c = TcpStream::connect(server.addr()).expect("connect c");
    c.write_all(&get("/healthz")).unwrap();
    let mut rejected = Vec::new();
    c.read_to_end(&mut rejected).expect("read rejection");
    let text = String::from_utf8_lossy(&rejected);
    assert!(
        text.starts_with("HTTP/1.1 503"),
        "expected 503, got: {text:?}"
    );
    assert!(
        text.contains("Retry-After: 1\r\n"),
        "missing Retry-After: {text:?}"
    );

    // The established connection is unaffected, and the rejection is
    // visible in both the stats snapshot and the Prometheus text.
    a.write_all(&get("/v1/metrics")).unwrap();
    let metrics = read_raw_response(&mut a);
    assert_eq!(status_of(&metrics), 200);
    let metrics = String::from_utf8_lossy(&metrics).into_owned();
    assert!(
        metrics.contains("adds_net_rejected_total 1"),
        "metrics missing rejection: {metrics}"
    );
    assert_eq!(server.state().net.snapshot().rejected, 1);
    server.stop();
}

#[test]
fn stats_v8_net_section_reports_the_reactor() {
    let server = spawn_server();
    // One inline-served probe and one pool-dispatched request.
    let h = raw_request(server.addr(), &get("/healthz"));
    assert_eq!(status_of(&h), 200);
    let entry = adds_serve::corpus::find("list_sum").unwrap();
    let c = raw_request(server.addr(), &post("/v1/check", entry.source));
    assert_eq!(status_of(&c), 200);

    // Asked on a connection that already had a response: it is open and
    // kept alive.
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.write_all(&get("/healthz")).unwrap();
    assert_eq!(status_of(&read_raw_response(&mut conn)), 200);
    conn.write_all(&get("/v1/stats")).unwrap();
    let raw = read_raw_response(&mut conn);
    let body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let doc = Json::parse(&String::from_utf8_lossy(&raw[body_at..])).expect("stats JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("adds.serve-stats/v8")
    );
    let net = doc.get("net").expect("net section");
    let at = |key: &str| net.get(key).and_then(Json::as_usize).unwrap();
    assert!(at("accepted") >= 3);
    assert!(at("dispatched") >= 1);
    assert!(at("inline") >= 2);
    assert!(at("open") >= 1);
    assert!(at("keepalive") >= 1);
    assert!(at("keepalive") <= at("open"));
    server.stop();
}
