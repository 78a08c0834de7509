//! `adds-cli` — the end-to-end driver for the ADDS pipeline.
//!
//! One binary takes loop-based pointer programs from IL source to analysis
//! verdicts, transformed source, and simulated-MIMD execution stats:
//!
//! ```text
//! adds-cli analyze --all --jobs 4 --format json   # whole corpus, parallel
//! adds-cli parallelize --program barnes_hut       # emit strip-mined source
//! adds-cli run --pes 2,4,7 --bodies 96            # §4 speedup experiment
//! adds-cli ladder --format json                   # §2 precision ladder
//! adds-cli profile --program barnes_hut           # VM hot-opcode/parfor table
//! adds-cli serve --addr 127.0.0.1:8199 --jobs 4   # long-running HTTP server
//! adds-cli serve --store .adds-store              # + crash-safe disk cache
//! adds-cli store stats --store .adds-store        # disk-cache counters
//! ```
//!
//! Every command accepts `--trace FILE` to record spans across the query,
//! machine, and serve layers and write Chrome `trace_event` JSON on exit
//! (load in chrome://tracing or Perfetto).
//!
//! The report model and the demand-driven, content-addressed analysis
//! session live in the `adds-query` crate (`adds::query`), shared with the
//! server mode and library consumers; this binary is argument parsing,
//! batch fan-out, and rendering.
//!
//! Exit codes: 0 = success, 1 = at least one program failed its stage,
//! 2 = usage error.

mod args;
mod batch;
mod ladder;
mod profile;

pub(crate) use adds::query::{json, report};
pub(crate) use adds_serve::corpus;

use adds::query::runner;
use adds_serve::metrics::{visit_store, JsonSink};
use adds_serve::server::{ServeOptions, Server};
use args::{Command, Format, ParsedArgs};
use json::Json;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(real_main(&argv));
}

/// Print to stderr, tolerating a vanished reader.
fn emit_err(s: &str) {
    use std::io::Write;
    // Ignore write errors entirely: the exit code still reports the failure
    // even when the stderr reader is gone.
    let _ = std::io::stderr().write_all(s.as_bytes());
}

/// Print to stdout, exiting quietly if the reader went away (`| head`):
/// Rust ignores SIGPIPE, so an unchecked `print!` would panic instead.
fn emit(s: &str) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_all(s.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed writing to stdout: {e}");
    }
}

fn real_main(argv: &[String]) -> i32 {
    let args = match args::parse(argv) {
        Ok(ParsedArgs::Run(a)) => a,
        Ok(ParsedArgs::ListCorpus) => {
            emit(&corpus::list_table());
            return 0;
        }
        Err(e) if e.help_requested => {
            emit(args::USAGE);
            return 0;
        }
        Err(e) => {
            emit_err(&format!("{e}\n"));
            return 2;
        }
    };

    // `serve` owns its trace lifecycle (enable at bind, dump at
    // shutdown); every other command traces around its whole run here.
    let trace_here = args.command != Command::Serve && args.trace.is_some();
    if trace_here {
        adds::obs::trace::enable();
    }
    let code = run_command(&args);
    if trace_here {
        let path = args.trace.as_deref().expect("checked");
        if let Err(e) = adds::obs::trace::dump_to_file(path) {
            emit_err(&format!("error: cannot write trace `{path}`: {e}\n"));
            return 1;
        }
    }
    code
}

fn run_command(args: &args::Args) -> i32 {
    match args.command {
        Command::Parse | Command::Check | Command::Analyze | Command::Parallelize => {
            let units = match batch::collect_inputs(args) {
                Ok(u) => u,
                Err(msg) => {
                    emit_err(&format!("error: {msg}\n"));
                    return 2;
                }
            };
            let started = std::time::Instant::now();
            let reports = batch::run_batch(&units, args);
            let all_ok = reports.iter().all(|r| r.ok);
            match args.format {
                Format::Json => {
                    let doc = Json::obj([
                        (
                            "schema",
                            Json::str(args.command.stage().expect("batch command").schema()),
                        ),
                        ("ok", Json::Bool(all_ok)),
                        (
                            "programs",
                            Json::Arr(reports.iter().map(|r| r.to_json()).collect()),
                        ),
                    ]);
                    emit(&doc.pretty());
                }
                Format::Text => {
                    for r in &reports {
                        emit(&r.to_text());
                    }
                    let failed = reports.iter().filter(|r| !r.ok).count();
                    emit(&format!(
                        "{} program(s), {} failed, {:.1} ms\n",
                        reports.len(),
                        failed,
                        started.elapsed().as_secs_f64() * 1e3
                    ));
                }
            }
            if all_ok {
                0
            } else {
                1
            }
        }
        Command::Run => {
            let (name, source) = match run_input(args) {
                Ok(pair) => pair,
                Err(msg) => {
                    emit_err(&format!("error: {msg}\n"));
                    return 2;
                }
            };
            let opts = runner::RunOptions {
                pes: args.pes.clone(),
                bodies: args.bodies,
                steps: args.steps,
                theta: args.theta,
                dt: args.dt,
            };
            // One-shot through the query session (run_workload builds a
            // throwaway db and restores the display name).
            match runner::run_workload(&name, &source, &opts) {
                Ok(r) => {
                    match args.format {
                        Format::Json => emit(&runner::to_json(&r).pretty()),
                        Format::Text => emit(&runner::to_text(&r)),
                    }
                    let clean = r
                        .parallel
                        .iter()
                        .all(|p| p.conflicts == 0 && p.physics_matches);
                    if clean {
                        0
                    } else {
                        1
                    }
                }
                Err(msg) => {
                    emit_err(&format!("error: {msg}\n"));
                    1
                }
            }
        }
        Command::Ladder => {
            if args.all || !args.programs.is_empty() || !args.files.is_empty() {
                emit_err(
                    "error: `ladder` runs its own fixed program set; \
                     --all/--program/files are not supported here\n",
                );
                return 2;
            }
            let rows = ladder::run_ladder(&args.klimits);
            match args.format {
                Format::Json => emit(&ladder::to_json(&rows).pretty()),
                Format::Text => emit(&ladder::to_text(&rows)),
            }
            0
        }
        Command::Profile => profile::run_profile(args),
        Command::Serve => {
            if args.all || !args.programs.is_empty() || !args.files.is_empty() {
                emit_err(
                    "error: `serve` takes sources over HTTP; \
                     --all/--program/files are not supported here\n",
                );
                return 2;
            }
            let opts = ServeOptions {
                addr: args.addr.clone(),
                jobs: args.jobs,
                cache_capacity: args.cache_cap,
                log: args.log,
                store_dir: args.store.clone(),
                trace_path: args.trace.clone(),
                max_connections: args.max_conns,
                ..ServeOptions::default()
            };
            let server = match Server::bind(&opts) {
                Ok(s) => s,
                Err(e) => {
                    emit_err(&format!("error: cannot bind `{}`: {e}\n", opts.addr));
                    return 1;
                }
            };
            // With --log, stdout is the JSON access-log stream (one
            // parseable line per request) — keep the banner off it.
            let banner: fn(&str) = if args.log { emit_err } else { emit };
            match server.local_addr() {
                Ok(addr) => banner(&format!("adds-serve listening on http://{addr}\n")),
                Err(_) => banner(&format!("adds-serve listening on {}\n", opts.addr)),
            }
            match server.run() {
                Ok(()) => 0,
                Err(e) => {
                    emit_err(&format!("error: server failed: {e}\n"));
                    1
                }
            }
        }
        Command::Store => run_store(args),
    }
}

/// `store stats|compact|export|import` over a `--store` directory: the
/// same crash-safe segment store the server mounts, driven offline for
/// inspection, maintenance, and pre-warmed corpus snapshots.
fn run_store(args: &args::Args) -> i32 {
    use args::StoreAction;
    let dir = args.store.as_deref().expect("validated by args::parse");
    let store = match adds::store::Store::open(dir) {
        Ok(s) => s,
        Err(e) => {
            emit_err(&format!("error: cannot open store `{dir}`: {e}\n"));
            return 1;
        }
    };
    let action = args.store_action.expect("validated by args::parse");
    match action {
        StoreAction::Stats => {
            let s = store.stats();
            match args.format {
                Format::Json => {
                    let mut sink = JsonSink::new("adds.store-stats/v1");
                    visit_store(&mut sink, &s);
                    emit(&sink.finish().pretty())
                }
                Format::Text => {
                    emit(&format!(
                        "store {dir}\n\
                           entries:             {}\n\
                           segments:            {}\n\
                           live bytes:          {}\n\
                           recovered records:   {}\n\
                           truncated bytes:     {}\n\
                           quarantined records: {}\n\
                           rotations:           {}\n\
                           compactions:         {}\n",
                        s.entries,
                        s.segments,
                        s.live_bytes,
                        s.recovered_records,
                        s.truncated_bytes,
                        s.quarantined_records,
                        s.rotations,
                        s.compactions,
                    ));
                }
            }
            0
        }
        StoreAction::Compact => match store.compact() {
            Ok(o) => {
                match args.format {
                    Format::Json => emit(
                        &Json::obj([
                            ("schema", Json::str("adds.store-compact/v1")),
                            ("segments_before", Json::UInt(o.segments_before)),
                            ("segments_after", Json::UInt(o.segments_after)),
                            ("live_records", Json::UInt(o.live_records)),
                            ("reclaimed_bytes", Json::UInt(o.reclaimed_bytes)),
                        ])
                        .pretty(),
                    ),
                    Format::Text => emit(&format!(
                        "compacted {dir}: {} -> {} segment(s), {} live record(s), \
                         {} byte(s) reclaimed\n",
                        o.segments_before, o.segments_after, o.live_records, o.reclaimed_bytes
                    )),
                }
                0
            }
            Err(e) => {
                emit_err(&format!("error: compact failed: {e}\n"));
                1
            }
        },
        StoreAction::Export | StoreAction::Import => {
            let file = args.files.first().expect("validated by args::parse");
            let result = if action == StoreAction::Export {
                std::fs::File::create(file)
                    .and_then(|mut f| store.export(&mut f))
                    .map(|n| format!("exported {n} entr(ies) to {file}\n"))
            } else {
                std::fs::File::open(file)
                    .and_then(|mut f| store.import(&mut f))
                    .map(|n| format!("imported {n} record(s) from {file}\n"))
            };
            match result {
                Ok(line) => {
                    emit(&line);
                    0
                }
                Err(e) => {
                    emit_err(&format!("error: snapshot {file}: {e}\n"));
                    1
                }
            }
        }
    }
}

/// `run` takes exactly one input; default is the built-in Barnes–Hut.
fn run_input(args: &args::Args) -> Result<(String, String), String> {
    if args.all {
        return Err("`run` executes one program; --all is not supported here".to_string());
    }
    let mut named: Vec<(String, String)> = Vec::new();
    for p in &args.programs {
        let e = corpus::find(p).ok_or_else(|| format!("unknown corpus program `{p}`"))?;
        named.push((e.name.to_string(), e.source.to_string()));
    }
    for f in &args.files {
        let src = std::fs::read_to_string(f).map_err(|e| format!("cannot read `{f}`: {e}"))?;
        named.push((f.clone(), src));
    }
    match named.len() {
        0 => {
            let e = corpus::find("barnes_hut").expect("corpus has barnes_hut");
            Ok((e.name.to_string(), e.source.to_string()))
        }
        1 => Ok(named.pop().expect("len checked")),
        n => Err(format!("`run` takes one program, got {n}")),
    }
}
