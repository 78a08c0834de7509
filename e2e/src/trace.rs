//! The benchmark's own span recorder. Spans live in memory and are written
//! once, as Chrome `trace_event` JSON (chrome://tracing, Perfetto), when
//! the run ends. They are recorded from the benchmark's side of each call:
//! the program itself is not instrumented by them.

use adds_query::json::Json;
use std::time::Instant;

/// Thread id of the replay track; generator threads use their index.
pub const REPLAY_TID: u64 = 100;

pub struct Spans {
    origin: Instant,
    events: Vec<Json>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            events: Vec::new(),
        }
    }

    /// Record a complete span; `id` is the request id the span belongs to.
    pub fn push(
        &mut self,
        name: &str,
        tid: u64,
        start: Instant,
        end: Instant,
        id: &str,
        args: Vec<(&'static str, Json)>,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut all = vec![("id", Json::str(id))];
        all.extend(args);
        self.events.push(Json::obj([
            ("name", Json::str(name)),
            ("cat", Json::str("bench")),
            ("ph", Json::str("X")),
            ("ts", Json::Float(us(start))),
            ("dur", Json::Float(us(end) - us(start))),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(tid)),
            ("args", Json::obj(all)),
        ]));
    }

    pub fn write(self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let doc = Json::obj([
            ("traceEvents", Json::Arr(self.events)),
            ("displayTimeUnit", Json::str("ms")),
        ]);
        std::fs::write(path, doc.compact())
    }
}
