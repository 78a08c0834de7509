//! Integration tests driving a real `adds-serve` server over TCP: routing,
//! cache semantics (hit/miss/single-flight), byte-identity with the CLI
//! report path, keep-alive connection reuse, the batch endpoint, the
//! `/v1/stats` document shape, and its agreement with `/v1/metrics`.

use adds_query::cache::{Cache, CacheStats, Outcome};
use adds_query::json::Json;
use adds_query::session::{Session, Stage, StageRequest};
use adds_query::sha::sha256;
use adds_serve::http::{read_request, KEEPALIVE_MAX_REQUESTS};
use adds_serve::server::{ServeOptions, Server, ServerHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

fn spawn_server(jobs: usize) -> ServerHandle {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        ..ServeOptions::default()
    };
    Server::bind(&opts).expect("bind").spawn().expect("spawn")
}

/// Read exactly one `Content-Length`-framed response off `conn`, leaving
/// the socket usable for the next request. Returns (status, headers, body).
fn read_response(conn: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let (status, headers, content_length) = read_response_head(conn);
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body).expect("body");
    (status, headers, body)
}

/// Read one response head off `conn`: (status, headers, Content-Length).
/// The answer to a `HEAD` request ends here.
fn read_response_head(conn: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, usize) {
    let mut status_line = String::new();
    conn.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(": ") {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.parse().expect("length");
            }
            headers.push((k.to_string(), v.to_string()));
        }
    }
    (status, headers, content_length)
}

/// Minimal HTTP client: one request on a fresh connection, framed by
/// `Content-Length` (a `HEAD` response by its head alone). No
/// `Connection` header is sent — the server keeps HTTP/1.1 connections
/// alive by default, so reading to EOF here would stall on the idle
/// timeout; instead the socket is simply dropped. Returns (status,
/// headers, body).
fn http(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = BufReader::new(stream);
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    conn.get_mut()
        .write_all(head.as_bytes())
        .expect("write head");
    conn.get_mut().write_all(body).expect("write body");
    if method == "HEAD" {
        let (status, headers, _) = read_response_head(&mut conn);
        return (status, headers, Vec::new());
    }
    read_response(&mut conn)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Send one request with an explicit `Connection` header over an existing
/// connection and read exactly one response. Returns (status, headers,
/// body).
fn http_keepalive(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    target: &str,
    body: &[u8],
    close: bool,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    conn.get_mut().write_all(head.as_bytes()).expect("write");
    conn.get_mut().write_all(body).expect("write body");
    read_response(conn)
}

#[test]
fn healthz_and_unknown_routes() {
    let server = spawn_server(2);
    let (status, _, body) = http(server.addr(), "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");

    // A declared path under another method is a 405 naming the allowed
    // ones, prefix routes included, and HEAD wherever GET is allowed; an
    // undeclared path is a 404.
    for (method, target, status, allow) in [
        ("GET", "/nope", 404, None),
        ("GET", "/v1/corpusX", 404, None),
        ("GET", "/v1/corpus/", 404, None),
        ("GET", "/v1/report/", 400, None),
        ("GET", "/v1/analyze", 405, Some("POST")),
        ("GET", "/v1/batch", 405, Some("POST")),
        ("POST", "/healthz", 405, Some("GET, HEAD")),
        ("POST", "/v1/corpus", 405, Some("GET, HEAD")),
        ("POST", "/v1/corpus/list_sum", 405, Some("GET, HEAD")),
        ("POST", "/v1/report/abc", 405, Some("GET, HEAD")),
        ("HEAD", "/healthz", 200, None),
        ("HEAD", "/v1/corpus/list_sum", 200, None),
        ("HEAD", "/nope", 404, None),
        ("HEAD", "/v1/analyze", 405, Some("POST")),
        ("HEAD", "/v1/batch", 405, Some("POST")),
    ] {
        let (got, headers, _) = http(server.addr(), method, target, b"");
        let got = (got, header(&headers, "Allow"));
        assert_eq!(got, (status, allow), "{method} {target}");
    }
    // HEAD answers a GET endpoint with the GET's status and headers, its
    // Content-Length included, and no body (RFC 9110 §9.3.2, §8.6).
    for target in ["/healthz", "/v1/corpus", "/v1/corpus/barnes_hut"] {
        let (get_status, get_headers, get_body) = http(server.addr(), "GET", target, b"");
        let (status, headers, _) = http(server.addr(), "HEAD", target, b"");
        assert_eq!(status, get_status, "HEAD {target}");
        let length = get_body.len().to_string();
        assert_eq!(header(&headers, "Content-Length"), Some(length.as_str()));
        assert_eq!(headers.len(), get_headers.len(), "HEAD {target}");
    }
    let (_, headers, _) = http(server.addr(), "HEAD", "/healthz", b"");
    assert_eq!(header(&headers, "Content-Length"), Some("3"));
    let (_, _, body) = http(server.addr(), "GET", "/v1/corpus/", b"");
    let body = String::from_utf8_lossy(&body);
    assert!(body.contains("unknown corpus program ``"), "{body}");
    server.stop();
}

#[test]
fn analyze_is_byte_identical_to_the_cli_report_path() {
    let server = spawn_server(2);
    let src = adds_serve::corpus::find("list_scale_adds").unwrap().source;

    // What `adds-cli analyze x.il --format json` renders: the same
    // session + wrapper path the batch executor uses.
    let report = Session::new()
        .stage(src, StageRequest::new(Stage::Analyze))
        .named("x.il", "file");
    let expected = Json::obj([
        ("schema", Json::str(Stage::Analyze.schema())),
        ("ok", Json::Bool(report.ok)),
        ("programs", Json::Arr(vec![report.to_json()])),
    ])
    .pretty();

    let (status, headers, body) = http(
        server.addr(),
        "POST",
        "/v1/analyze?name=x.il",
        src.as_bytes(),
    );
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8_lossy(&body), expected, "byte-identical");
    assert_eq!(header(&headers, "X-Adds-Cache"), Some("miss"));
    assert_eq!(
        header(&headers, "X-Adds-Sha256"),
        Some(sha256(src.as_bytes()).hex().as_str())
    );
    server.stop();
}

#[test]
fn repeated_request_is_served_from_cache_byte_identically() {
    let server = spawn_server(2);
    let src = adds_serve::corpus::find("orth_row_scale").unwrap().source;

    let (s1, h1, b1) = http(server.addr(), "POST", "/v1/analyze", src.as_bytes());
    let (s2, h2, b2) = http(server.addr(), "POST", "/v1/analyze", src.as_bytes());
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2, "same bytes in, byte-identical report out");
    assert_eq!(header(&h1, "X-Adds-Cache"), Some("miss"));
    assert_eq!(header(&h2, "X-Adds-Cache"), Some("hit"));

    let state = server.state();
    let stats = state.service.stats();
    assert_eq!(stats.get(&stats.misses), 1, "computed once");
    assert_eq!(stats.get(&stats.hits), 1, "second request hit");
    server.stop();
}

#[test]
fn dependent_stage_reuses_upstream_artifacts() {
    // The tentpole property, observed over real HTTP: a warm
    // `parallelize` after an `analyze` of the same bytes re-parses and
    // re-checks nothing — it starts from the cached analysis artifacts.
    let server = spawn_server(2);
    let src = adds_serve::corpus::find("barnes_hut").unwrap().source;
    let digest = sha256(src.as_bytes());

    let (s1, _, _) = http(server.addr(), "POST", "/v1/analyze", src.as_bytes());
    assert_eq!(s1, 200);
    let state = server.state();
    let db = state.service.db();
    use adds_query::QueryKind;
    assert_eq!(db.computes(QueryKind::Parsed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Typed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Analyzed, &digest), 1);

    let (s2, h2, _) = http(server.addr(), "POST", "/v1/parallelize", src.as_bytes());
    assert_eq!(s2, 200);
    assert_eq!(
        header(&h2, "X-Adds-Cache"),
        Some("miss"),
        "different document"
    );
    assert_eq!(db.computes(QueryKind::Parsed, &digest), 1, "no re-parse");
    assert_eq!(db.computes(QueryKind::Typed, &digest), 1, "no re-check");
    assert_eq!(
        db.computes(QueryKind::Analyzed, &digest),
        1,
        "no re-analysis"
    );
    assert_eq!(db.computes(QueryKind::Transformed, &digest), 1);
    server.stop();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = spawn_server(2);
    let src = adds_serve::corpus::find("list_scale_adds").unwrap().source;
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = BufReader::new(stream);

    // Several requests over the same socket; persistence is the default,
    // and an explicit Connection: keep-alive is honored the same way.
    for i in 0..5 {
        let (status, headers, body) =
            http_keepalive(&mut conn, "POST", "/v1/analyze", src.as_bytes(), false);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(header(&headers, "Connection"), Some("keep-alive"));
        assert!(!body.is_empty());
    }
    let (status, headers, _) = http_keepalive(&mut conn, "GET", "/healthz", b"", false);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "Connection"), Some("keep-alive"));

    // An explicit close ends the conversation: response says close, then
    // EOF.
    let (status, headers, _) = http_keepalive(&mut conn, "GET", "/healthz", b"", true);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "Connection"), Some("close"));
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("EOF after close");
    assert!(rest.is_empty());

    // All of it was served by one worker pass over one socket; the cache
    // saw one miss and the rest hits.
    let state = server.state();
    let stats = state.service.stats();
    assert_eq!(stats.get(&stats.misses), 1);
    assert_eq!(stats.get(&stats.hits), 4);
    server.stop();
}

#[test]
fn persistent_connections_are_the_default() {
    let server = spawn_server(1);

    // HTTP/1.1 with no Connection header: the server answers keep-alive
    // and the same socket serves further requests.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = BufReader::new(stream);
    for i in 0..3 {
        let req = "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
        conn.get_mut().write_all(req.as_bytes()).expect("write");
        let (status, headers, body) = read_response(&mut conn);
        assert_eq!(status, 200, "request {i}");
        assert_eq!(header(&headers, "Connection"), Some("keep-alive"));
        assert_eq!(body, b"ok\n");
    }
    drop(conn);

    // HTTP/1.0 with no Connection header: exactly one response, then EOF.
    let mut conn = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));
    let req = "GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n";
    conn.get_mut().write_all(req.as_bytes()).expect("write");
    let (status, headers, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "Connection"), Some("close"));
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("EOF after HTTP/1.0");
    assert!(rest.is_empty());

    // HTTP/1.0 opting into keep-alive is still honored.
    let mut conn = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));
    let req = "GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n";
    conn.get_mut().write_all(req.as_bytes()).expect("write");
    let (status, headers, _) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "Connection"), Some("keep-alive"));
    conn.get_mut().write_all(req.as_bytes()).expect("write");
    let (status, _, _) = read_response(&mut conn);
    assert_eq!(status, 200, "socket stayed usable");
    server.stop();
}

#[test]
fn pipelined_keep_alive_requests_all_get_answered() {
    // Two requests written back-to-back before reading anything (legal
    // HTTP/1.1 pipelining): the server's per-connection reader must not
    // drop the read-ahead containing request 2.
    let server = spawn_server(1);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = BufReader::new(stream);
    let one =
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n";
    conn.get_mut()
        .write_all(format!("{one}{one}").as_bytes())
        .expect("write both");
    let mut ok = 0;
    for _ in 0..2 {
        let mut status_line = String::new();
        conn.read_line(&mut status_line).expect("status");
        assert!(status_line.contains("200"), "{status_line}");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            conn.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(": ") {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.parse().expect("length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        conn.read_exact(&mut body).expect("body");
        ok += 1;
    }
    assert_eq!(ok, 2, "both pipelined responses arrive");
    server.stop();
}

#[test]
fn keep_alive_honors_the_per_connection_request_cap() {
    let server = spawn_server(1);
    let mut conn = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));
    for i in 1..=KEEPALIVE_MAX_REQUESTS {
        let (status, headers, _) = http_keepalive(&mut conn, "GET", "/healthz", b"", false);
        assert_eq!(status, 200, "request {i}");
        let expect = if i < KEEPALIVE_MAX_REQUESTS {
            "keep-alive"
        } else {
            "close"
        };
        assert_eq!(
            header(&headers, "Connection"),
            Some(expect),
            "request {i} of {KEEPALIVE_MAX_REQUESTS}"
        );
    }
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("EOF at cap");
    assert!(rest.is_empty());
    server.stop();
}

#[test]
fn batch_request_runs_many_stages_through_one_session() {
    let server = spawn_server(2);
    let src = adds_serve::corpus::find("list_scale_adds").unwrap().source;
    let body = format!(
        r#"{{"items": [
            {{"stage": "analyze", "program": "list_scale_adds"}},
            {{"stage": "parallelize", "program": "list_scale_adds"}},
            {{"stage": "check", "source": {src_json}, "name": "inline.il"}},
            {{"stage": "analyze", "program": "list_scale_adds"}}
        ]}}"#,
        src_json = Json::str(src).compact(),
    );
    let (status, _, resp) = http(server.addr(), "POST", "/v1/batch", body.as_bytes());
    assert_eq!(status, 200);
    let doc = Json::parse(&String::from_utf8_lossy(&resp)).expect("valid batch response");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("adds.batch/v1"));
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
    let results = doc.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(
        results[0].get("name").unwrap().as_str(),
        Some("list_scale_adds")
    );
    assert_eq!(results[0].get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(
        results[3].get("cache").unwrap().as_str(),
        Some("hit"),
        "repeated item served from cache"
    );
    assert_eq!(results[2].get("name").unwrap().as_str(), Some("inline.il"));
    // The embedded doc is the same document the single endpoint emits.
    let inner = results[0].get("doc").unwrap();
    assert_eq!(
        inner.get("schema").unwrap().as_str(),
        Some("adds.analyze/v2")
    );

    // The items shared one session: corpus source and inline source are
    // the same bytes, so the parse happened once for them.
    let state = server.state();
    use adds_query::QueryKind;
    let digest = sha256(src.as_bytes());
    assert_eq!(state.service.db().computes(QueryKind::Parsed, &digest), 1);

    // Malformed bodies are a 400, not a crash.
    let (status, _, _) = http(server.addr(), "POST", "/v1/batch", b"{nope");
    assert_eq!(status, 400);
    let (status, _, _) = http(server.addr(), "POST", "/v1/batch", b"{\"items\": 3}");
    assert_eq!(status, 400);

    // A batch may carry only a few `run` items (each can be heavy and
    // the batch runs synchronously on one worker).
    let run_item = r#"{"stage": "run", "program": "barnes_hut"}"#;
    let too_many = format!(r#"{{"items": [{}]}}"#, [run_item; 5].join(","));
    let (status, _, resp) = http(server.addr(), "POST", "/v1/batch", too_many.as_bytes());
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&resp).contains("run"));

    // Item-level failures embed an error and flip `ok`.
    let (status, _, resp) = http(
        server.addr(),
        "POST",
        "/v1/batch",
        br#"{"items": [{"stage": "analyze", "program": "no_such_program"}]}"#,
    );
    assert_eq!(status, 200);
    let doc = Json::parse(&String::from_utf8_lossy(&resp)).expect("valid");
    assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
    let results = doc.get("results").unwrap().as_arr().unwrap();
    assert!(results[0].get("error").unwrap().as_str().is_some());
    server.stop();
}

#[test]
fn report_lookup_round_trips_and_misses_cleanly() {
    let server = spawn_server(2);
    let src = adds_serve::corpus::find("list_sum").unwrap().source;
    let sha = sha256(src.as_bytes()).hex();

    // Not computed yet: 404 with a pointer to the POST endpoint.
    let (status, _, body) = http(server.addr(), "GET", &format!("/v1/report/{sha}"), b"");
    assert_eq!(status, 404);
    assert!(String::from_utf8_lossy(&body).contains("/v1/analyze"));

    let (_, _, posted) = http(server.addr(), "POST", "/v1/analyze", src.as_bytes());
    let (status, headers, looked_up) =
        http(server.addr(), "GET", &format!("/v1/report/{sha}"), b"");
    assert_eq!(status, 200);
    assert_eq!(looked_up, posted, "lookup returns the cached document");
    assert_eq!(header(&headers, "X-Adds-Cache"), Some("hit"));

    // A different stage for the same bytes is a different cache entry.
    let (status, _, _) = http(
        server.addr(),
        "GET",
        &format!("/v1/report/{sha}?stage=parallelize"),
        b"",
    );
    assert_eq!(status, 404);

    let (status, _, _) = http(server.addr(), "GET", "/v1/report/nothex", b"");
    assert_eq!(status, 400);
    server.stop();
}

#[test]
fn corpus_endpoints_serve_the_builtin_programs() {
    let server = spawn_server(2);
    let (status, _, body) = http(server.addr(), "GET", "/v1/corpus", b"");
    assert_eq!(status, 200);
    let listing = String::from_utf8_lossy(&body).into_owned();
    assert!(listing.contains("\"schema\": \"adds.corpus/v1\""));
    for e in adds_serve::corpus::CORPUS {
        assert!(listing.contains(e.name), "{} listed", e.name);
    }

    let (status, _, body) = http(server.addr(), "GET", "/v1/corpus/barnes_hut", b"");
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8_lossy(&body),
        adds_serve::corpus::find("barnes_hut").unwrap().source
    );

    let (status, _, _) = http(server.addr(), "GET", "/v1/corpus/nope", b"");
    assert_eq!(status, 404);
    server.stop();
}

#[test]
fn bad_requests_are_4xx_not_crashes() {
    let server = spawn_server(2);
    let (status, _, _) = http(server.addr(), "POST", "/v1/analyze", b"");
    assert_eq!(status, 400, "empty body");
    let (status, _, _) = http(server.addr(), "POST", "/v1/analyze", &[0xff, 0xfe]);
    assert_eq!(status, 400, "invalid UTF-8");
    let (status, _, _) = http(
        server.addr(),
        "POST",
        "/v1/run?pes=zero",
        b"proc main() { }",
    );
    assert_eq!(status, 400, "bad run params");

    // A syntactically broken program is still a well-formed report
    // (ok=false with diagnostics), matching the CLI.
    let (status, _, body) = http(server.addr(), "POST", "/v1/analyze", b"type T {");
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"ok\": false"));
    assert!(text.contains("\"diagnostics\""));

    // A checkable program without a `simulate` entry can't `run`: 422.
    let src = adds_serve::corpus::find("list_sum").unwrap().source;
    let (status, _, body) = http(server.addr(), "POST", "/v1/run", src.as_bytes());
    assert_eq!(status, 422);
    assert!(String::from_utf8_lossy(&body).contains("simulate"));

    // The error message honors ?name= like the Ok path (the cached
    // canonical error names the program by its content hash).
    let (status, _, body) = http(
        server.addr(),
        "POST",
        "/v1/run?name=mylist.il",
        src.as_bytes(),
    );
    assert_eq!(status, 422);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("mylist.il"), "{text}");
    assert!(!text.contains(&sha256(src.as_bytes()).hex()), "{text}");

    // Non-finite run parameters are rejected before they can poison the
    // cache.
    let bh = adds_serve::corpus::find("barnes_hut").unwrap().source;
    let (status, _, _) = http(server.addr(), "POST", "/v1/run?theta=NaN", bh.as_bytes());
    assert_eq!(status, 400, "NaN theta");
    let (status, _, _) = http(server.addr(), "POST", "/v1/run?dt=-1", bh.as_bytes());
    assert_eq!(status, 400, "negative dt");
    let (status, _, _) = http(
        server.addr(),
        "POST",
        "/v1/run?bodies=999999999",
        bh.as_bytes(),
    );
    assert_eq!(status, 400, "absurd bodies");

    // Ambiguous or unsupported framing is refused, not guessed at.
    let raw = |head: &str| {
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(head.as_bytes()).expect("write");
        let mut resp = Vec::new();
        conn.read_to_end(&mut resp).expect("read");
        String::from_utf8_lossy(&resp).into_owned()
    };
    let dup =
        raw("GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n");
    assert!(dup.starts_with("HTTP/1.1 400"), "duplicate CL: {dup}");
    let te = raw("GET /healthz HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n");
    assert!(te.starts_with("HTTP/1.1 400"), "transfer-encoding: {te}");
    server.stop();
}

#[test]
fn stats_document_shape_is_golden_on_a_fresh_server() {
    // Asked in process, before the reactor starts, so the `net` section
    // is deterministic (all zeros): a live reactor's poll-wakeup count
    // depends on timing. The live `net` section is covered structurally
    // in the `reactor_parity` suite.
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind");
    let req = read_request(&mut BufReader::new(
        &b"GET /v1/stats HTTP/1.1\r\nHost: test\r\n\r\n"[..],
    ))
    .expect("request");
    let resp = server.state().handle(&req);
    assert_eq!(resp.status, 200);
    // The full `adds.serve-stats/v8` document for one `/v1/stats` request
    // on a fresh single-worker server: all counters zero except the stats
    // request itself (latency for the stats route records *after* the
    // handler, so its histogram is still empty here). No connection is
    // open; `metrics_endpoint_serves_prometheus_text` checks the live
    // connection gauge.
    // `REGEN_GOLDEN=1 cargo test -p adds-serve stats_document` rewrites it.
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/stats_fresh.json");
        std::fs::write(path, &resp.body).expect("write golden");
    }
    let expected = include_str!("golden/stats_fresh.json");
    assert_eq!(String::from_utf8_lossy(&resp.body), expected);
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let server = spawn_server(1);
    // One analyze populates the request counter, its route latency
    // histogram, and the per-layer query duration histograms.
    let src = adds_serve::corpus::find("list_scale_adds").unwrap().source;
    let (status, _, _) = http(server.addr(), "POST", "/v1/analyze", src.as_bytes());
    assert_eq!(status, 200);
    let (status, headers, body) = http(server.addr(), "GET", "/v1/metrics", b"");
    assert_eq!(status, 200);
    assert!(header(&headers, "Content-Type")
        .unwrap_or_default()
        .starts_with("text/plain"));
    let text = String::from_utf8_lossy(&body);
    assert!(text.starts_with("# adds.metrics/v2\n"), "{text}");
    assert!(text.contains("adds_requests_total{route=\"analyze\"} 1"));
    assert!(text.contains("adds_requests_total{route=\"metrics\"} 1"));
    assert!(text.contains("adds_request_duration_us_count{route=\"analyze\"} 1"));
    assert!(text.contains("adds_query_computes_total{layer=\"parsed\"} 1"));
    assert!(text.contains("adds_query_duration_us_count{layer=\"analyzed\"} 1"));
    assert!(text.contains("adds_cache_misses_total 1"));
    assert!(text.contains("adds_net_open 1"), "{text}");
    // The analyze body was counted.
    assert!(text.contains(&format!("adds_request_body_bytes_total {}", src.len())));
    // Stats and metrics agree on the analyze latency count.
    let (_, _, stats) = http(server.addr(), "GET", "/v1/stats", b"");
    let doc = Json::parse(&String::from_utf8_lossy(&stats)).expect("stats JSON");
    let analyze = doc
        .get("latency")
        .and_then(|l| l.get("routes"))
        .and_then(|r| r.get("analyze"))
        .expect("latency.routes.analyze");
    assert_eq!(analyze.get("count").unwrap().as_usize(), Some(1));
    assert!(analyze.get("p50_us").unwrap().as_usize().unwrap() > 0);
    server.stop();
}

/// Parsed Prometheus text: each sample's value and family by series
/// (`name{labels}`), and each family's type. Asserts that every family
/// has exactly one `# TYPE` line, placed before its first sample.
struct Exposition {
    samples: BTreeMap<String, (String, String)>,
    types: BTreeMap<String, String>,
}

impl Exposition {
    fn parse(text: &str) -> Exposition {
        let mut samples = BTreeMap::new();
        let mut types = BTreeMap::new();
        for line in text.lines().skip(1) {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let (name, kind) = decl.split_once(' ').expect("# TYPE name kind");
                let again = types.insert(name.to_string(), kind.to_string());
                assert!(again.is_none(), "second # TYPE line for {name}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("series value");
            let name = series.split('{').next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|suffix| name.strip_suffix(suffix))
                .find(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                .unwrap_or(name);
            assert!(
                types.contains_key(family),
                "`{series}` comes before any # TYPE line of {family}"
            );
            samples.insert(series.to_string(), (family.to_string(), value.to_string()));
        }
        Exposition { samples, types }
    }
}

#[test]
fn stats_and_metrics_agree_on_every_value() {
    let dir = std::env::temp_dir().join(format!("adds_serve_agree_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind").spawn().expect("spawn");
    let scale = adds_serve::corpus::find("list_scale_adds").unwrap().source;
    let bh = adds_serve::corpus::find("barnes_hut").unwrap().source;
    for (target, src) in [
        ("/v1/analyze", scale),
        ("/v1/parallelize", scale),
        ("/v1/analyze", bh),
        ("/v1/run?pes=2&bodies=16&steps=1", bh),
    ] {
        let (status, _, _) = http(server.addr(), "POST", target, src.as_bytes());
        assert_eq!(status, 200, "{target}");
    }
    let report = format!("/v1/report/{}", sha256(scale.as_bytes()).hex());
    let (status, _, _) = http(server.addr(), "GET", &report, b"");
    assert_eq!(status, 200);
    // Stopped, so nothing moves between the two renderings.
    let state = server.state();
    server.stop();
    let (doc, text) = (state.stats_doc(), state.metrics_text());
    let _ = std::fs::remove_dir_all(&dir);

    let exp = Exposition::parse(&text);
    let mut matched = BTreeSet::new();
    let mut check = |series: &str, want: u64| {
        let (family, got) = exp
            .samples
            .get(series)
            .unwrap_or_else(|| panic!("no `{series}` sample"));
        assert_eq!(got, &want.to_string(), "`{series}`");
        let counter = exp.types[family] == "counter";
        assert_eq!(counter, family.ends_with("_total"), "`{family}`: _total");
        matched.insert(family.clone());
    };
    let fields = |doc: &Json, path: &[&str]| -> Vec<(String, Json)> {
        let node = path.iter().fold(doc, |node, key| node.get(key).expect(key));
        match node {
            Json::Obj(fields) => fields.clone(),
            other => panic!("{path:?} is not an object: {other:?}"),
        }
    };
    let count = |summary: &Json| summary.get("count").and_then(Json::as_usize).unwrap() as u64;
    // A stats leaf `section.key` is `{prefix}{key}_total` (counter) or
    // `{prefix}{key}` (gauge), or a member of the section's labelled family.
    for (section, prefix, family) in [
        ("cache", "adds_cache_", None),
        (
            "queries",
            "adds_query_",
            Some("adds_query_computes_total{layer"),
        ),
        (
            "requests",
            "adds_request_",
            Some("adds_requests_total{route"),
        ),
        ("parallel", "adds_par_", None),
        ("net", "adds_net_", None),
        ("store", "adds_store_", None),
    ] {
        for (key, value) in fields(&doc, &[section]) {
            match value {
                Json::UInt(n) => {
                    let names = [
                        Some(format!("{prefix}{key}_total")),
                        Some(format!("{prefix}{key}")),
                        family.map(|f| format!("{f}=\"{key}\"}}")),
                    ];
                    let found: Vec<String> = names
                        .into_iter()
                        .flatten()
                        .filter(|name| exp.samples.contains_key(name))
                        .collect();
                    assert_eq!(found.len(), 1, "{section}.{key}: {found:?}");
                    check(&found[0], n);
                }
                Json::Bool(b) => check(&format!("{prefix}{key}"), b as u64),
                summary => check(&format!("{prefix}{key}_count"), count(&summary)),
            }
        }
    }
    for (path, family) in [
        (
            ["latency", "routes"],
            "adds_request_duration_us_count{route",
        ),
        (["latency", "layers"], "adds_query_duration_us_count{layer"),
    ] {
        for (key, summary) in fields(&doc, &path) {
            check(&format!("{family}=\"{key}\"}}"), count(&summary));
        }
    }
    // Every family carries a stats value, and the traffic above reached
    // the layers it drives, so the values compared are not all zero.
    let typed: BTreeSet<String> = exp.types.keys().cloned().collect();
    assert_eq!(matched, typed, "families without a /v1/stats value");
    let at = |section: &str, key: &str| doc.get(section).and_then(|s| s.get(key)).unwrap();
    for (section, key) in [
        ("cache", "misses"),
        ("queries", "runs"),
        ("requests", "report"),
        ("requests", "body_bytes"),
        ("store", "puts"),
        ("net", "accepted"),
    ] {
        assert!(at(section, key).as_usize() > Some(0), "{section}.{key}");
    }
}

#[test]
fn trace_endpoint_returns_spans_when_tracing() {
    // Tracing state is process-global, so this test owns its whole
    // enable→serve→disable window.
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        trace_path: Some("/dev/null".to_string()),
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind").spawn().expect("spawn");
    let src = adds_serve::corpus::find("list_sum").unwrap().source;
    let (status, _, _) = http(server.addr(), "POST", "/v1/check", src.as_bytes());
    assert_eq!(status, 200);
    let (status, _, body) = http(server.addr(), "GET", "/v1/trace", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&body);
    let doc = Json::parse(&text).expect("trace JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("adds.trace/v1")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"serve.request"), "{names:?}");
    assert!(names.contains(&"serve.parse-body"), "{names:?}");
    assert!(names.contains(&"serve.execute"), "{names:?}");
    assert!(names.contains(&"serve.serialize"), "{names:?}");
    assert!(names.contains(&"query.typed"), "{names:?}");
    server.stop();
    adds_obs::trace::disable();
    adds_obs::trace::clear();
}

#[test]
fn bounded_server_cache_reports_evictions() {
    // A tiny capacity forces report-cache evictions; `/v1/stats` counts
    // them. (Capacity is approximate — per shard — so drive enough
    // distinct sources through to overflow any shard.)
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        cache_capacity: 16, // one report per shard
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind").spawn().expect("spawn");
    for i in 0..24 {
        let src = format!("type T{i} [X] {{ int v; }};");
        let (status, _, _) = http(server.addr(), "POST", "/v1/parse", src.as_bytes());
        assert_eq!(status, 200);
    }
    let state = server.state();
    let stats = state.service.stats();
    assert!(
        stats.get(&stats.evicted) > 0,
        "24 distinct sources through a 16-entry cache must evict"
    );
    // The artifact caches evict under the same cap and surface their own
    // counter in the `queries` section.
    let qs = state.service.query_stats();
    assert!(qs.get(&qs.evicted) > 0, "artifact caches evict too");
    let (_, _, body) = http(server.addr(), "GET", "/v1/stats", b"");
    let text = String::from_utf8_lossy(&body);
    assert_eq!(
        text.matches("\"evicted\"").count(),
        2,
        "both cache sections report evictions: {text}"
    );
    server.stop();
}

#[test]
fn single_flight_under_concurrent_identical_requests() {
    // Drive the cache directly with real threads: the first caller
    // computes (slowly), everyone else coalesces onto its flight.
    let cache: Arc<Cache<String>> = Arc::new(Cache::new(Arc::new(CacheStats::default())));
    let digest = sha256(b"the source");
    const THREADS: usize = 8;
    let start = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                cache.get_or_compute(digest, "analyze/v2", || {
                    // Slow compute: give every other thread time to arrive
                    // and park on the flight.
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    "the report".to_string()
                })
            })
        })
        .collect();
    let results: Vec<(Arc<String>, Outcome)> = handles
        .into_iter()
        .map(|h| h.join().expect("joins"))
        .collect();

    let misses = results.iter().filter(|(_, o)| *o == Outcome::Miss).count();
    assert_eq!(misses, 1, "exactly one computation");
    for (v, _) in &results {
        assert!(Arc::ptr_eq(v, &results[0].0), "everyone shares one Arc");
    }
    let stats = cache.stats();
    assert_eq!(stats.get(&stats.misses), 1);
    assert_eq!(
        stats.get(&stats.hits) + stats.get(&stats.coalesced),
        (THREADS - 1) as u64
    );
    assert_eq!(stats.get(&stats.in_flight), 0);
    assert_eq!(cache.len(), 1);
}

#[test]
fn single_flight_through_the_service_computes_once() {
    // Same property at the session level, with a real analysis as the
    // payload: concurrent identical requests share one canonical report.
    let svc = Arc::new(Session::new());
    let src = adds_serve::corpus::find("barnes_hut").unwrap().source;
    const THREADS: usize = 6;
    let start = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                svc.analyze(src, false)
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("joins"))
        .collect();

    let stats = svc.stats();
    assert_eq!(stats.get(&stats.misses), 1, "one compute across threads");
    for out in &results {
        assert!(Arc::ptr_eq(&out.report, &results[0].report));
    }
    assert_eq!(svc.entries(), 1);
}

#[test]
fn concurrent_distinct_requests_spread_over_workers() {
    // Sanity: a multi-worker server answers interleaved distinct posts
    // correctly (each becomes its own cache entry).
    let server = spawn_server(4);
    let names: Vec<&str> = adds_serve::corpus::CORPUS.iter().map(|e| e.name).collect();
    let addr = server.addr();
    let handles: Vec<_> = names
        .iter()
        .map(|&name| {
            let src = adds_serve::corpus::find(name).unwrap().source;
            std::thread::spawn(move || http(addr, "POST", "/v1/check", src.as_bytes()))
        })
        .collect();
    for h in handles {
        let (status, _, _) = h.join().expect("joins");
        assert_eq!(status, 200);
    }
    let state = server.state();
    let stats = state.service.stats();
    assert_eq!(stats.get(&stats.misses), names.len() as u64);
    assert_eq!(state.service.entries(), names.len());
    server.stop();
}
