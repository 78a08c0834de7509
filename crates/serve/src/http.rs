//! A minimal HTTP/1.1 subset: enough to read requests (request line,
//! headers, `Content-Length` body) and serialize responses, with hard
//! limits on header and body size.
//!
//! ## Connection lifetime
//!
//! HTTP/1.1 connections are **persistent by default**, per the spec: the
//! server answers `Connection: keep-alive` and reads the next request off
//! the same socket, up to a per-connection request cap
//! ([`KEEPALIVE_MAX_REQUESTS`]) and an idle timeout
//! ([`KEEPALIVE_IDLE_TIMEOUT`]) between requests. A client that sends
//! `Connection: close` (or speaks HTTP/1.0 without asking for
//! keep-alive) gets exactly one response followed by a close, so
//! close-mode clients and benches still get the one-shot framing by
//! asking for it. (Earlier revisions inverted this default to keep
//! read-to-EOF test clients working; those clients now frame responses by
//! `Content-Length`, so the spec default is back.)

use adds_query::json::Json;
use std::io::{BufRead, BufReader, Read};

/// Largest accepted header block.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body (IL sources are a few KB; batch
/// documents a few MB at most).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Most requests served over one keep-alive connection before the server
/// forces a close (bounds per-connection resource pinning; clients
/// reconnect transparently).
pub const KEEPALIVE_MAX_REQUESTS: usize = 256;

/// How long an idle keep-alive connection may sit between requests before
/// the server drops it.
pub const KEEPALIVE_IDLE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Query parameters, percent-decoded, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this one:
    /// true for HTTP/1.1 unless the client sent `Connection: close`,
    /// false for HTTP/1.0 unless it sent `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read (mapped to 4xx responses).
#[derive(Debug)]
pub enum BadRequest {
    /// Malformed request line or headers.
    Malformed(String),
    /// Header block or body over the size limits.
    TooLarge(String),
    /// Socket error mid-request.
    Io(std::io::Error),
    /// Clean close before any request byte (end of a keep-alive
    /// conversation, or a probe); not an error to report.
    Closed,
}

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BadRequest::Malformed(m) => write!(f, "malformed request: {m}"),
            BadRequest::TooLarge(m) => write!(f, "request too large: {m}"),
            BadRequest::Io(e) => write!(f, "io error: {e}"),
            BadRequest::Closed => write!(f, "connection closed"),
        }
    }
}

/// Read one request off a **persistent** buffered reader. The reader must
/// live as long as the connection: read-ahead from one request (e.g. a
/// pipelined next request) stays buffered for the next call instead of
/// being dropped with a per-request reader.
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> Result<Request, BadRequest> {
    let head = read_head(reader)?;
    let mut body = vec![0u8; head.content_length];
    reader.read_exact(&mut body).map_err(BadRequest::Io)?;
    Ok(head.into_request(body))
}

/// A request line plus the headers that shape it: everything of a request
/// but its body.
pub(crate) struct Head {
    method: String,
    target: String,
    /// Declared body length, already checked against [`MAX_BODY_BYTES`].
    pub(crate) content_length: usize,
    keep_alive: bool,
}

impl Head {
    /// The request with this head and `body`.
    pub(crate) fn into_request(self, body: Vec<u8>) -> Request {
        let (path, query) = match self.target.split_once('?') {
            Some((p, q)) => (p, parse_query(q)),
            None => (self.target.as_str(), Vec::new()),
        };
        Request {
            method: self.method,
            path: percent_decode(path),
            query,
            body,
            keep_alive: self.keep_alive,
        }
    }
}

/// Read a request head, up to and including its blank line. An
/// over-limit `Content-Length` is [`BadRequest::TooLarge`] here, before
/// any body byte is read.
pub(crate) fn read_head(reader: &mut impl BufRead) -> Result<Head, BadRequest> {
    let mut header_bytes = 0usize;
    let line = read_header_line(reader, &mut header_bytes, true)?;
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(BadRequest::Malformed(format!("request line `{line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(BadRequest::Malformed(format!("version `{version}`")));
    }
    // Persistence follows the spec default for the protocol version;
    // an explicit Connection header below overrides it either way.
    let mut keep_alive = version != "HTTP/1.0";
    let (method, target) = (method.to_string(), target.to_string());

    let mut content_length: Option<usize> = None;
    loop {
        let h = read_header_line(reader, &mut header_bytes, false)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // Exactly one Content-Length: accepting duplicates
                // (last-wins) would let a front proxy and this parser
                // frame the same bytes differently — the CL.CL flavor of
                // the desync the transfer-encoding rejection below closes.
                if content_length.is_some() {
                    return Err(BadRequest::Malformed(
                        "duplicate content-length header".into(),
                    ));
                }
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| BadRequest::Malformed(format!("content-length `{value}`")))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Only Content-Length framing is implemented. Silently
                // ignoring a chunked body would desync a keep-alive
                // connection (the chunk bytes would parse as the next
                // request) — request-smuggling territory behind a
                // coalescing proxy — so refuse it outright.
                return Err(BadRequest::Malformed(
                    "transfer-encoding is not supported; send a Content-Length body".into(),
                ));
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(BadRequest::TooLarge(format!(
            "body of {content_length} bytes"
        )));
    }
    Ok(Head {
        method,
        target,
        content_length,
        keep_alive,
    })
}

/// Read one `\n`-terminated line via `fill_buf`/`consume`, capping the
/// whole header block at [`MAX_HEADER_BYTES`] so a client streaming an
/// endless line cannot grow the buffer without bound. Clean EOF before
/// the first byte of a request line reads as [`BadRequest::Closed`] (the
/// client finished its keep-alive conversation); EOF anywhere else is a
/// malformed request.
fn read_header_line(
    reader: &mut impl BufRead,
    used: &mut usize,
    request_line: bool,
) -> Result<String, BadRequest> {
    let mut line = Vec::new();
    loop {
        let (consumed, done) = {
            let chunk = reader.fill_buf().map_err(BadRequest::Io)?;
            if chunk.is_empty() {
                if request_line && line.is_empty() && *used == 0 {
                    return Err(BadRequest::Closed);
                }
                if request_line {
                    // Partial request line at EOF: report it like any
                    // other malformed first line.
                    break;
                }
                return Err(BadRequest::Malformed(
                    "connection closed mid-headers".into(),
                ));
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    line.extend_from_slice(&chunk[..=i]);
                    (i + 1, true)
                }
                None => {
                    line.extend_from_slice(chunk);
                    (chunk.len(), false)
                }
            }
        };
        reader.consume(consumed);
        *used += consumed;
        if *used >= MAX_HEADER_BYTES {
            return Err(BadRequest::TooLarge(
                if request_line {
                    "request line"
                } else {
                    "header block"
                }
                .into(),
            ));
        }
        if done {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&line).into_owned())
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Decode `%XX` escapes and `+`-as-space; invalid escapes pass through.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response about to be written.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Serialize the head alone, as the answer to a `HEAD` request: its
    /// `Content-Length` is still the body's length (RFC 9110 §8.6).
    pub head_only: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
            head_only: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
            head_only: false,
        }
    }

    /// A JSON error document `{"error": ...}`.
    pub fn error(status: u16, message: &str) -> Response {
        let doc = Json::obj([("error", Json::str(message))]);
        Response::json(status, doc.pretty())
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_string(), value));
        self
    }

    /// First value of an extra header (case-insensitive name match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reason phrases for the statuses the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Serialize `resp` to wire bytes, leaving the body out when
/// [`Response::head_only`]. With `keep_alive` the connection header
/// invites the client to reuse the socket; otherwise it announces the
/// close that follows. Head and body share **one** buffer: the server sets
/// `TCP_NODELAY`, so a separately written small head would become its own
/// segment (and its own syscall) on every response.
pub fn serialize_response(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
    .into_bytes();
    for (name, value) in &resp.headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    if !resp.head_only {
        out.extend_from_slice(&resp.body);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_percent_and_plus() {
        assert_eq!(percent_decode("a%2Fb+c"), "a/b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trunc%2"), "trunc%2");
    }

    #[test]
    fn parses_query_pairs() {
        let q = parse_query("name=%2Ftmp%2Fx.il&matrices&pes=2,4");
        assert_eq!(
            q,
            vec![
                ("name".to_string(), "/tmp/x.il".to_string()),
                ("matrices".to_string(), String::new()),
                ("pes".to_string(), "2,4".to_string()),
            ]
        );
    }
}
