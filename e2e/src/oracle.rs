//! What a correct answer looks like: each request carries its expectation,
//! and every response is checked against it.

use crate::client::{wire_body, wire_target};
use crate::gen::{loop_verdicts, ReqId, Verdicts};
use adds_query::json::Json;
use adds_query::runner::RunOptions;
use adds_query::session::{RunRequest, Session, Stage, StageRequest};
use std::sync::Arc;

/// A request as sent: its id, its exact bytes, and the expected answer.
pub struct Request {
    pub id: ReqId,
    pub wire: Vec<u8>,
    pub expect: Expect,
}

pub enum Expect {
    /// A warm read: the body must equal the bytes captured while priming.
    Body(Arc<Vec<u8>>),
    /// A cold `analyze`: each procedure's loop verdicts.
    Analyze(Verdicts),
    /// A cold `parallelize`: the output re-parses, and each procedure has
    /// one strip-mined loop per licensed loop.
    Parallelize(Verdicts),
    /// A cold `run`: every PE row is conflict-free and matches the
    /// sequential physics.
    Run(RunOptions),
}

impl Request {
    pub fn body(&self) -> &str {
        std::str::from_utf8(wire_body(&self.wire)).expect("generated sources are UTF-8")
    }

    pub fn target(&self) -> &str {
        wire_target(&self.wire)
    }

    /// Whether the response is also recomputed in a fresh in-process
    /// session after the window: one cold request in sixteen.
    pub fn recomputed(&self) -> bool {
        !matches!(self.expect, Expect::Body(_)) && self.id.index.is_multiple_of(16)
    }
}

/// Check one 2xx response body against the request's expectation.
pub fn check(req: &Request, body: &[u8]) -> Result<(), String> {
    let fail = |what: String| Err(format!("{} {}: {what}", req.id.label(), req.target()));
    if let Expect::Body(want) = &req.expect {
        return if body == want.as_slice() {
            Ok(())
        } else {
            fail("body differs from the primed bytes".into())
        };
    }
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return fail("body is not JSON".into());
    };
    match &req.expect {
        Expect::Body(_) => unreachable!("handled above"),
        Expect::Analyze(want) => {
            let got = loop_verdicts(&doc);
            let want: Vec<(String, Vec<bool>)> =
                want.iter().map(|(f, v)| (f.clone(), v.to_vec())).collect();
            if got.as_ref() != Some(&want) {
                return fail(format!("verdicts {got:?}, expected {want:?}"));
            }
        }
        Expect::Parallelize(want) => {
            let section = doc
                .get("programs")
                .and_then(Json::as_arr)
                .and_then(|p| p.first())
                .and_then(|p| p.get("parallelize"));
            let Some(section) = section else {
                return fail("no parallelize section".into());
            };
            if section.get("reparses").and_then(Json::as_bool) != Some(true) {
                return fail("transformed source does not re-parse".into());
            }
            let done = section
                .get("parallelized")
                .and_then(Json::as_arr)
                .unwrap_or_default();
            for (func, verdicts) in want {
                let licensed = verdicts.iter().filter(|&&v| v).count();
                let applied = done
                    .iter()
                    .filter(|d| d.get("function").and_then(Json::as_str) == Some(func))
                    .count();
                if applied != licensed {
                    return fail(format!(
                        "{func}: {applied} loops strip-mined, {licensed} licensed"
                    ));
                }
            }
        }
        Expect::Run(opts) => {
            let rows = doc
                .get("parallel")
                .and_then(Json::as_arr)
                .unwrap_or_default();
            if rows.len() != opts.pes.len() {
                return fail(format!(
                    "{} PE rows, expected {}",
                    rows.len(),
                    opts.pes.len()
                ));
            }
            for row in rows {
                let conflicts = row.get("conflicts").and_then(Json::as_f64);
                let physics = row.get("physics_matches").and_then(Json::as_bool);
                if conflicts != Some(0.0) || physics != Some(true) {
                    return fail(format!(
                        "PE row {}: conflicts {conflicts:?}, physics_matches {physics:?}",
                        row.get("pes").and_then(Json::as_f64).unwrap_or(-1.0)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Recompute one cold request in a fresh in-process session and render it
/// exactly as the server does (no display name: the canonical document).
pub fn recompute(session: &Session, req: &Request) -> Vec<u8> {
    let src = req.body();
    let doc = match &req.expect {
        Expect::Run(opts) => {
            let out = session.run(src, &RunRequest { opts: opts.clone() });
            match &*out.result {
                Ok(report) => Session::run_doc(report, None),
                Err(e) => Json::obj([("error", Json::str(e))]),
            }
        }
        Expect::Parallelize(_) => stage_doc(session, src, Stage::Parallelize),
        _ => stage_doc(session, src, Stage::Analyze),
    };
    doc.pretty().into_bytes()
}

fn stage_doc(session: &Session, src: &str, stage: Stage) -> Json {
    let out = session.stage(src, StageRequest::new(stage));
    Session::stage_doc(stage, &out.report, None)
}
