//! Structured access logs: with `adds-cli serve --log`, the server emits
//! **one JSON line per request** on stdout. The shape is golden-tested
//! and byte-stable given the same inputs — fixed key order, no
//! timestamps beyond the duration — so log pipelines can parse it with a
//! one-line schema:
//!
//! ```json
//! {"method":"POST","path":"/v1/analyze","sha":"9c0b…","cache":"hit","status":200,"duration_us":412,"bytes_in":120}
//! ```
//!
//! `sha` is `null` and `cache` is `"bypass"` for requests that never
//! touch the cache (`/healthz`, corpus reads, 4xx rejections).
//! `bytes_in` is the request body length in bytes.

use adds_query::json::Json;

/// Render one access-log line (no trailing newline). `sha` is the
/// request body's content address and `cache` the `hit|miss|coalesced`
/// disposition when the route produced them (`bypass` otherwise).
pub fn access_line(
    method: &str,
    path: &str,
    sha: Option<&str>,
    cache: Option<&str>,
    status: u16,
    duration_us: u64,
    bytes_in: u64,
) -> String {
    let opt = |v: Option<&str>| v.map(Json::str).unwrap_or(Json::Null);
    Json::obj([
        ("method", Json::str(method)),
        ("path", Json::str(path)),
        ("sha", opt(sha)),
        ("cache", Json::str(cache.unwrap_or("bypass"))),
        ("status", Json::UInt(status as u64)),
        ("duration_us", Json::UInt(duration_us)),
        ("bytes_in", Json::UInt(bytes_in)),
    ])
    .compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_line_shape_is_golden() {
        assert_eq!(
            access_line(
                "POST",
                "/v1/analyze",
                Some("abc123"),
                Some("miss"),
                200,
                412,
                120
            ),
            r#"{"method":"POST","path":"/v1/analyze","sha":"abc123","cache":"miss","status":200,"duration_us":412,"bytes_in":120}"#
        );
        assert_eq!(
            access_line("GET", "/healthz", None, None, 200, 3, 0),
            r#"{"method":"GET","path":"/healthz","sha":null,"cache":"bypass","status":200,"duration_us":3,"bytes_in":0}"#
        );
    }

    #[test]
    fn access_line_is_parseable_json() {
        let line = access_line("GET", "/v1/stats", None, None, 200, 17, 0);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("path").unwrap().as_str(), Some("/v1/stats"));
        assert_eq!(v.get("status").unwrap().as_usize(), Some(200));
        assert_eq!(v.get("sha"), Some(&Json::Null));
        assert_eq!(v.get("cache").unwrap().as_str(), Some("bypass"));
        assert_eq!(v.get("bytes_in").unwrap().as_usize(), Some(0));
    }
}
