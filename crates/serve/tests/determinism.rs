//! Corpus-wide determinism pins for the parallel executor: every report
//! — per-stage documents, CLI-style batch renders, and `/v1/batch`
//! responses over real HTTP — must be **byte-identical** at `--jobs 1`,
//! `2`, and `8`. Results merge in canonical input order, never
//! completion order, and parallelism never participates in a
//! fingerprint, so thread count cannot leak into any output byte.

use adds_query::json::Json;
use adds_query::session::{Session, Stage, StageRequest};
use adds_serve::server::{ServeOptions, Server, ServerHandle};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Render the whole corpus through one shared session at the given
/// worker count, reports concatenated in input order.
fn render_corpus(jobs: usize, stage: Stage, matrices: bool) -> String {
    let session = Session::with_jobs(jobs);
    let entries: Vec<_> = adds_serve::corpus::CORPUS.iter().collect();
    let reports = session.par_map(&entries, |e| {
        session
            .stage(e.source, StageRequest::with_matrices(stage, matrices))
            .named(e.name, "builtin")
    });
    reports.iter().map(|r| r.to_json().pretty()).collect()
}

#[test]
fn corpus_reports_are_byte_identical_across_jobs() {
    for (stage, matrices) in [
        (Stage::Analyze, true),
        (Stage::Parallelize, false),
        (Stage::Check, false),
    ] {
        let baseline = render_corpus(1, stage, matrices);
        for jobs in [2, 8] {
            assert_eq!(
                render_corpus(jobs, stage, matrices),
                baseline,
                "{stage:?} output drifted at jobs={jobs}"
            );
        }
    }
}

/// One request on a fresh connection, framed by Content-Length (the
/// server holds HTTP/1.1 sockets open by default). Returns (status, body).
fn http_req(addr: std::net::SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = BufReader::new(stream);
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    conn.get_mut().write_all(head.as_bytes()).expect("write");
    conn.get_mut().write_all(body).expect("write body");
    let mut status_line = String::new();
    conn.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
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
        }
    }
    let mut resp = vec![0u8; content_length];
    conn.read_exact(&mut resp).expect("body");
    (status, resp)
}

fn http_post(addr: std::net::SocketAddr, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    http_req(addr, "POST", target, body)
}

fn spawn_server(jobs: usize) -> ServerHandle {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        ..ServeOptions::default()
    };
    Server::bind(&opts).expect("bind").spawn().expect("spawn")
}

#[test]
fn batch_responses_are_byte_identical_across_jobs() {
    // A batch exercising every interesting shape at once: the whole
    // corpus, duplicate items (cache-label pins), an inline source, and
    // an item-level error — against fresh servers at three widths.
    let inline = adds_serve::corpus::find("list_sum").unwrap().source;
    let mut items: Vec<String> = adds_serve::corpus::CORPUS
        .iter()
        .map(|e| format!(r#"{{"stage": "analyze", "program": "{}"}}"#, e.name))
        .collect();
    items.push(r#"{"stage": "parallelize", "program": "barnes_hut"}"#.to_string());
    items.push(format!(
        r#"{{"stage": "check", "source": {}, "name": "inline.il"}}"#,
        Json::str(inline).compact()
    ));
    // Duplicates of earlier items: must re-render byte-identically (and
    // keep their serial cache labels) no matter which worker meets them.
    items.push(format!(
        r#"{{"stage": "analyze", "program": "{}"}}"#,
        adds_serve::corpus::CORPUS[0].name
    ));
    items.push(r#"{"stage": "analyze", "program": "no_such_program"}"#.to_string());
    let body = format!(r#"{{"items": [{}]}}"#, items.join(","));

    let mut baseline: Option<Vec<u8>> = None;
    for jobs in [1usize, 2, 8] {
        let server = spawn_server(jobs);
        let (status, resp) = http_post(server.addr(), "/v1/batch", body.as_bytes());
        assert_eq!(status, 200, "jobs={jobs}");
        match &baseline {
            None => baseline = Some(resp),
            Some(b) => assert_eq!(
                &resp, b,
                "batch response bytes drifted between jobs=1 and jobs={jobs}"
            ),
        }
        server.stop();
    }
}

/// Cross-restart determinism: run the full corpus through a store-backed
/// server, stop it cleanly, start a second server over the same
/// directory, and require (a) `GET /v1/report/{sha}` answers — documents
/// the second life never computed — byte-identical to the first life's
/// POST bytes, and (b) warm `POST /v1/analyze` responses byte-identical
/// to the cold ones. Persistence must be invisible in every output byte.
#[test]
fn store_backed_server_is_byte_identical_across_restarts() {
    let dir = std::env::temp_dir().join(format!(
        "adds_serve_restart_determinism_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeOptions::default()
    };

    // First life: cold-compute analyze + parallelize over the corpus.
    let mut cold: Vec<(String, String, Vec<u8>, Vec<u8>)> = Vec::new();
    {
        let server = Server::bind(&opts).expect("bind").spawn().expect("spawn");
        for e in adds_serve::corpus::CORPUS {
            let sha = adds_query::sha::sha256(e.source.as_bytes()).hex();
            let target = format!("/v1/analyze?name={}&matrices=1", e.name);
            let (status, analyze) = http_post(server.addr(), &target, e.source.as_bytes());
            assert_eq!(status, 200, "{}", e.name);
            let target = format!("/v1/parallelize?name={}", e.name);
            let (status, par) = http_post(server.addr(), &target, e.source.as_bytes());
            assert_eq!(status, 200, "{}", e.name);
            cold.push((e.name.to_string(), sha, analyze, par));
        }
        server.stop(); // clean stop = final commit
    }

    // Second life, same directory: recovery must hand every report back.
    let server = Server::bind(&opts)
        .expect("rebind")
        .spawn()
        .expect("respawn");
    for (name, sha, analyze, par) in &cold {
        // Documents this server never computed, served by content hash.
        let target = format!("/v1/report/{sha}?stage=analyze&matrices=1&name={name}");
        let (status, body) = http_req(server.addr(), "GET", &target, b"");
        assert_eq!(status, 200, "{name} not on disk");
        assert_eq!(
            &body, analyze,
            "{name}: GET /v1/report drifted across restart"
        );
        let target = format!("/v1/report/{sha}?stage=parallelize&name={name}");
        let (status, body) = http_req(server.addr(), "GET", &target, b"");
        assert_eq!(status, 200, "{name} parallelize not on disk");
        assert_eq!(
            &body, par,
            "{name}: parallelize report drifted across restart"
        );
        // Warm POST: answered from the disk tier, byte-identical to cold.
        let target = format!("/v1/analyze?name={name}&matrices=1");
        let (status, body) = http_post(server.addr(), &target, cold_source(name));
        assert_eq!(status, 200);
        assert_eq!(&body, analyze, "{name}: warm POST drifted across restart");
    }
    // The warm traffic really came from the store, not recomputes.
    let (status, stats) = http_req(server.addr(), "GET", "/v1/stats", b"");
    assert_eq!(status, 200);
    let doc = Json::parse(&String::from_utf8_lossy(&stats)).expect("stats JSON");
    let store = doc.get("store").expect("store section");
    assert_eq!(store.get("enabled").and_then(Json::as_bool), Some(true));
    assert!(
        store.get("hits").and_then(Json::as_usize).unwrap_or(0) >= cold.len(),
        "store hits missing: {}",
        String::from_utf8_lossy(&stats)
    );
    let disk_hits = doc
        .get("cache")
        .and_then(|c| c.get("disk_hits"))
        .and_then(Json::as_usize)
        .unwrap_or(0);
    assert!(disk_hits >= cold.len(), "disk_hits = {disk_hits}");
    assert_eq!(
        doc.get("queries")
            .and_then(|q| q.get("reports"))
            .and_then(Json::as_usize),
        Some(0),
        "the second life must not recompute any report"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

fn cold_source(name: &str) -> &'static [u8] {
    adds_serve::corpus::find(name)
        .expect("corpus entry")
        .source
        .as_bytes()
}

// A randomized sweep over thread counts and batch shapes: any mix of
// corpus programs and stages, with duplicates, must render byte-for-byte
// the same through a parallel session as through a serial one.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_batch_shapes_are_deterministic(
        jobs in 2usize..9,
        shape in proptest::collection::vec(
            (0usize..adds_serve::corpus::CORPUS.len(), 0usize..4),
            1..8,
        ),
    ) {
        let stages = [Stage::Parse, Stage::Check, Stage::Analyze, Stage::Parallelize];
        let units: Vec<(usize, usize)> = shape;
        let render = |jobs: usize| -> String {
            let session = Session::with_jobs(jobs);
            let reports = session.par_map(&units, |&(p, s)| {
                let entry = &adds_serve::corpus::CORPUS[p];
                session
                    .stage(entry.source, StageRequest::new(stages[s]))
                    .named(entry.name, "builtin")
            });
            reports.iter().map(|r| r.to_json().pretty()).collect()
        };
        prop_assert_eq!(render(1), render(jobs));
    }
}
