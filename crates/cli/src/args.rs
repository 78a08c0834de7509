//! Hand-rolled argument parsing (no `clap` available offline).
//!
//! Grammar: `adds-cli <command> [flags] [FILE...]`. Flags take their value
//! as the following argument (`--jobs 4`) or inline (`--jobs=4`).

use std::fmt;

/// Output format selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Human-readable text.
    Text,
    /// Machine-readable JSON (byte-stable; golden-tested).
    Json,
}

/// The CLI subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Parse and pretty-print, verifying the print→parse round trip.
    Parse,
    /// ADDS well-formedness + type check.
    Check,
    /// Path-matrix analysis with per-loop dependence verdicts.
    Analyze,
    /// Strip-mine parallelizable loops and emit transformed source.
    Parallelize,
    /// Execute on the simulated MIMD machine (sequential vs parallel).
    Run,
    /// Precision ladder: §2.1 baselines vs ADDS+GPM.
    Ladder,
    /// VM profiling: ranked hot-opcode / hot-parfor tables per workload.
    Profile,
    /// Long-running HTTP server over the batch executor.
    Serve,
    /// Inspect or maintain a persistent `--store` directory.
    Store,
}

/// Maintenance action for the `store` command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreAction {
    /// Print the store's counters and index shape.
    Stats,
    /// Rewrite live records into a fresh segment, dropping dead bytes.
    Compact,
    /// Write every committed entry to a snapshot file.
    Export,
    /// Load a snapshot file into the store.
    Import,
}

impl StoreAction {
    fn parse(s: &str) -> Option<StoreAction> {
        Some(match s {
            "stats" => StoreAction::Stats,
            "compact" => StoreAction::Compact,
            "export" => StoreAction::Export,
            "import" => StoreAction::Import,
            _ => return None,
        })
    }
}

impl Command {
    fn parse(s: &str) -> Option<Command> {
        Some(match s {
            "parse" => Command::Parse,
            "check" => Command::Check,
            "analyze" => Command::Analyze,
            "parallelize" => Command::Parallelize,
            "run" => Command::Run,
            "ladder" => Command::Ladder,
            "profile" => Command::Profile,
            "serve" => Command::Serve,
            "store" => Command::Store,
            _ => return None,
        })
    }

    /// The report-producing pipeline stage behind this command, if any
    /// (`run`/`ladder`/`serve` have their own drivers).
    pub fn stage(self) -> Option<Stage> {
        Some(match self {
            Command::Parse => Stage::Parse,
            Command::Check => Stage::Check,
            Command::Analyze => Stage::Analyze,
            Command::Parallelize => Stage::Parallelize,
            Command::Run | Command::Ladder | Command::Profile | Command::Serve | Command::Store => {
                return None
            }
        })
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The subcommand to run.
    pub command: Command,
    /// Run over the whole built-in corpus.
    pub all: bool,
    /// Selected built-in corpus programs (by name).
    pub programs: Vec<String>,
    /// IL source files.
    pub files: Vec<String>,
    /// Parallel batch workers (0 = one per core).
    pub jobs: usize,
    /// Output format.
    pub format: Format,
    /// Include per-loop fixpoint path matrices in reports.
    pub matrices: bool,
    /// `run`: PE counts to simulate.
    pub pes: Vec<usize>,
    /// `run`: particle count.
    pub bodies: usize,
    /// `run`: simulated steps.
    pub steps: i64,
    /// `run`: opening angle.
    pub theta: f64,
    /// `run`: time step.
    pub dt: f64,
    /// `ladder`: k values for the k-limited baseline.
    pub klimits: Vec<usize>,
    /// `serve`: bind address.
    pub addr: String,
    /// `serve`: per-cache entry bound (0 = unbounded, CLOCK eviction).
    pub cache_cap: usize,
    /// `serve`: emit one JSON access-log line per request on stdout.
    pub log: bool,
    /// `serve`: connection budget (over it: `503 Retry-After`).
    pub max_conns: usize,
    /// `serve`/`store`: crash-safe disk cache directory.
    pub store: Option<String>,
    /// `store`: the maintenance action.
    pub store_action: Option<StoreAction>,
    /// Record spans and write a Chrome `trace_event` JSON file on exit.
    pub trace: Option<String>,
    /// `profile`: validate the profile invariants instead of printing
    /// tables (CI smoke).
    pub check: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            command: Command::Check,
            all: false,
            programs: Vec::new(),
            files: Vec::new(),
            jobs: 0,
            format: Format::Text,
            matrices: false,
            pes: vec![4],
            bodies: 64,
            steps: 2,
            theta: 0.7,
            dt: 0.001,
            klimits: vec![1, 2],
            addr: "127.0.0.1:8199".to_string(),
            cache_cap: 0,
            log: false,
            max_conns: adds_serve::server::DEFAULT_MAX_CONNECTIONS,
            store: None,
            store_action: None,
            trace: None,
            check: false,
        }
    }
}

/// A usage error: message plus whether help was explicitly requested.
#[derive(Debug)]
pub struct UsageError {
    /// What went wrong (empty for an explicit `--help`).
    pub message: String,
    /// `--help` / `help` was requested; exit 0, not 2.
    pub help_requested: bool,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.message.is_empty() {
            f.write_str(USAGE)
        } else {
            write!(f, "error: {}\n\n{}", self.message, USAGE)
        }
    }
}

/// The help text.
pub const USAGE: &str = "\
adds-cli — drive the ADDS pipeline end to end

USAGE:
    adds-cli <COMMAND> [OPTIONS] [FILE...]

COMMANDS:
    parse        parse IL and pretty-print (verifies the print->parse round trip)
    check        parse + ADDS well-formedness + type check
    analyze      path-matrix analysis; per-loop dependence verdicts
    parallelize  strip-mine parallelizable loops, emit transformed source
    run          execute Barnes-Hut on the simulated MIMD machine, seq vs par
    ladder       precision ladder: prior-work baselines vs ADDS+GPM
    profile      run corpus workloads on the VM with profiling; ranked
                 hot-opcode, superblock, and parfor tables (adds.profile/v2 in JSON)
    serve        long-running HTTP server: POST /v1/{analyze,parallelize,run}
    store        inspect or maintain a persistent --store directory:
                 store stats|compact --store DIR
                 store export|import --store DIR FILE   (snapshot file)

INPUT SELECTION (parse/check/analyze/parallelize):
    --all             all built-in corpus programs
    --program NAME    one built-in program (repeatable); see --list
    --list            print corpus program names and exit
    FILE...           IL source files

OPTIONS:
    --jobs N          parallel workers for batch/serve and query fan-out
                      (default: one per core; output is byte-identical
                      at every value)
    --addr HOST:PORT  serve: bind address            [default: 127.0.0.1:8199]
    --cache-cap N     serve: bound each cache to ~N entries (0 = unbounded)
    --store DIR       serve/store: crash-safe disk cache directory; survives
                      restarts and kill -9 (committed entries are never lost)
    --log             serve: one JSON access-log line per request on stdout
    --max-conns N     serve: connection budget; connections over it get
                      503 + Retry-After [default: 10240]
    --format FMT      text | json                      [default: text]
    --matrices        include exit path matrices in analyze reports
    --pes LIST        run: comma-separated PE counts   [default: 4]
    --bodies N        run: particle count              [default: 64]
    --steps N         run: simulated steps             [default: 2]
    --theta X         run: opening angle               [default: 0.7]
    --dt X            run: time step                   [default: 0.001]
    --klimit LIST     ladder: comma-separated k values [default: 1,2]
    --trace FILE      write a Chrome trace_event JSON file on exit
                      (load in chrome://tracing or Perfetto)
    --check           profile: validate invariants instead of printing
    -h, --help        show this help
";

fn usage(message: impl Into<String>) -> UsageError {
    UsageError {
        message: message.into(),
        help_requested: false,
    }
}

fn take_value<'a>(
    flag: &str,
    inline: Option<String>,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<String, UsageError> {
    if let Some(v) = inline {
        return Ok(v);
    }
    it.next()
        .cloned()
        .ok_or_else(|| usage(format!("{flag} requires a value")))
}

/// Parse `argv[1..]`. `Err` carries the usage text.
pub fn parse(argv: &[String]) -> Result<ParsedArgs, UsageError> {
    let mut it = argv.iter();
    let Some(first) = it.next() else {
        return Err(usage("missing command"));
    };
    if first == "-h" || first == "--help" || first == "help" {
        return Err(UsageError {
            message: String::new(),
            help_requested: true,
        });
    }
    if first == "--list" {
        return Ok(ParsedArgs::ListCorpus);
    }
    let Some(command) = Command::parse(first) else {
        return Err(usage(format!("unknown command `{first}`")));
    };
    let mut args = Args {
        command,
        ..Args::default()
    };
    let mut list = false;

    while let Some(raw) = it.next() {
        let (flag, inline) = match raw.split_once('=') {
            Some((f, v)) if raw.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (raw.clone(), None),
        };
        match flag.as_str() {
            "-h" | "--help" => {
                return Err(UsageError {
                    message: String::new(),
                    help_requested: true,
                })
            }
            "--all" | "--list" | "--matrices" | "--log" | "--check" => {
                if inline.is_some() {
                    return Err(usage(format!("{flag} takes no value")));
                }
                match flag.as_str() {
                    "--all" => args.all = true,
                    "--list" => list = true,
                    "--log" => args.log = true,
                    "--check" => args.check = true,
                    _ => args.matrices = true,
                }
            }
            "--program" => {
                let v = take_value("--program", inline, &mut it)?;
                args.programs.push(v);
            }
            "--addr" => {
                args.addr = take_value("--addr", inline, &mut it)?;
            }
            "--store" => {
                args.store = Some(take_value("--store", inline, &mut it)?);
            }
            "--trace" => {
                args.trace = Some(take_value("--trace", inline, &mut it)?);
            }
            "--max-conns" => {
                let v = take_value("--max-conns", inline, &mut it)?;
                args.max_conns = v
                    .parse()
                    .map_err(|_| usage(format!("--max-conns expects an integer, got `{v}`")))?;
            }
            "--cache-cap" => {
                let v = take_value("--cache-cap", inline, &mut it)?;
                args.cache_cap = v
                    .parse()
                    .map_err(|_| usage(format!("--cache-cap expects an integer, got `{v}`")))?;
            }
            "--jobs" => {
                let v = take_value("--jobs", inline, &mut it)?;
                args.jobs = v
                    .parse()
                    .map_err(|_| usage(format!("--jobs expects an integer, got `{v}`")))?;
            }
            "--format" => {
                let v = take_value("--format", inline, &mut it)?;
                args.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    _ => return Err(usage(format!("--format expects text|json, got `{v}`"))),
                };
            }
            "--pes" => {
                let v = take_value("--pes", inline, &mut it)?;
                args.pes = parse_usize_list(&v)
                    .ok_or_else(|| usage(format!("--pes expects e.g. 2,4,7 — got `{v}`")))?;
            }
            "--klimit" => {
                let v = take_value("--klimit", inline, &mut it)?;
                args.klimits = parse_usize_list(&v)
                    .ok_or_else(|| usage(format!("--klimit expects e.g. 1,3 — got `{v}`")))?;
            }
            "--bodies" => {
                let v = take_value("--bodies", inline, &mut it)?;
                args.bodies = v
                    .parse()
                    .map_err(|_| usage(format!("--bodies expects an integer, got `{v}`")))?;
            }
            "--steps" => {
                let v = take_value("--steps", inline, &mut it)?;
                args.steps = v
                    .parse()
                    .map_err(|_| usage(format!("--steps expects an integer, got `{v}`")))?;
            }
            "--theta" => {
                let v = take_value("--theta", inline, &mut it)?;
                args.theta = v
                    .parse()
                    .map_err(|_| usage(format!("--theta expects a number, got `{v}`")))?;
            }
            "--dt" => {
                let v = take_value("--dt", inline, &mut it)?;
                args.dt = v
                    .parse()
                    .map_err(|_| usage(format!("--dt expects a number, got `{v}`")))?;
            }
            f if f.starts_with('-') => {
                return Err(usage(format!("unknown option `{f}`")));
            }
            _ if args.command == Command::Store && args.store_action.is_none() => {
                args.store_action = Some(StoreAction::parse(raw).ok_or_else(|| {
                    usage(format!(
                        "unknown store action `{raw}`; expected stats|compact|export|import"
                    ))
                })?);
            }
            _ => args.files.push(raw.clone()),
        }
    }

    if list {
        return Ok(ParsedArgs::ListCorpus);
    }
    if args.command == Command::Store {
        let Some(action) = args.store_action else {
            return Err(usage(
                "store requires an action: stats|compact|export|import",
            ));
        };
        if args.store.is_none() {
            return Err(usage("store requires --store DIR"));
        }
        let needs_file = matches!(action, StoreAction::Export | StoreAction::Import);
        match (needs_file, args.files.len()) {
            (true, 1) | (false, 0) => {}
            (true, _) => {
                return Err(usage(format!(
                    "store {} takes exactly one snapshot FILE",
                    if action == StoreAction::Export {
                        "export"
                    } else {
                        "import"
                    }
                )))
            }
            (false, _) => return Err(usage("store stats/compact take no FILE arguments")),
        }
    }
    Ok(ParsedArgs::Run(Box::new(args)))
}

/// Result of argument parsing.
#[derive(Debug)]
pub enum ParsedArgs {
    /// Run the command.
    Run(Box<Args>),
    /// `--list`: print corpus names and exit.
    ListCorpus,
}

use adds::query::session::Stage;
use adds_serve::server::parse_usize_list;

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_analyze_batch() {
        let ParsedArgs::Run(a) = parse(&argv("analyze --all --jobs 4 --format json")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(a.command, Command::Analyze);
        assert!(a.all);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.format, Format::Json);
    }

    #[test]
    fn parses_inline_values_and_lists() {
        let ParsedArgs::Run(a) = parse(&argv("run --pes=2,4,7 --bodies=32 --steps 1")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(a.pes, vec![2, 4, 7]);
        assert_eq!(a.bodies, 32);
        assert_eq!(a.steps, 1);
    }

    #[test]
    fn rejects_unknown_command_and_flag() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("check --wat")).is_err());
        assert!(parse(&argv("check --jobs nope")).is_err());
    }

    #[test]
    fn files_and_programs_collect() {
        let ParsedArgs::Run(a) = parse(&argv("check --program barnes_hut a.il b.il")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(a.programs, vec!["barnes_hut"]);
        assert_eq!(a.files, vec!["a.il", "b.il"]);
    }

    #[test]
    fn parses_profile_and_trace() {
        let ParsedArgs::Run(a) = parse(&argv(
            "profile --program barnes_hut --check --trace out.json",
        ))
        .unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(a.command, Command::Profile);
        assert_eq!(a.programs, vec!["barnes_hut"]);
        assert!(a.check);
        assert_eq!(a.trace.as_deref(), Some("out.json"));
        assert!(parse(&argv("profile --trace")).is_err());
        assert!(parse(&argv("profile --check=1")).is_err());
    }

    #[test]
    fn parses_serve_with_addr() {
        let ParsedArgs::Run(a) = parse(&argv(
            "serve --addr 0.0.0.0:9000 --jobs 8 --cache-cap 4096 --log",
        ))
        .unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(a.command, Command::Serve);
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.jobs, 8);
        assert_eq!(a.cache_cap, 4096);
        assert!(a.log);
        assert!(parse(&argv("serve --cache-cap nope")).is_err());
        assert!(a.command.stage().is_none());
        assert_eq!(Command::Analyze.stage(), Some(Stage::Analyze));
    }

    #[test]
    fn parses_serve_connection_budget() {
        let ParsedArgs::Run(a) = parse(&argv("serve --max-conns=512")).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(a.max_conns, 512);
        // Default: the stock budget.
        let ParsedArgs::Run(a) = parse(&argv("serve")).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(a.max_conns, adds_serve::server::DEFAULT_MAX_CONNECTIONS);
        assert!(parse(&argv("serve --max-conns many")).is_err());
    }

    #[test]
    fn parses_store_subcommand() {
        let ParsedArgs::Run(a) = parse(&argv("store stats --store /tmp/cache")).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(a.command, Command::Store);
        assert_eq!(a.store_action, Some(StoreAction::Stats));
        assert_eq!(a.store.as_deref(), Some("/tmp/cache"));

        let ParsedArgs::Run(a) = parse(&argv("store export --store=/tmp/cache snap.bin")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(a.store_action, Some(StoreAction::Export));
        assert_eq!(a.files, vec!["snap.bin"]);

        // Serve accepts the same flag.
        let ParsedArgs::Run(a) = parse(&argv("serve --store /tmp/cache")).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(a.store.as_deref(), Some("/tmp/cache"));
    }

    #[test]
    fn store_usage_errors() {
        // Unknown action, missing action, missing --store DIR.
        assert!(parse(&argv("store frobnicate --store d")).is_err());
        assert!(parse(&argv("store --store d")).is_err());
        assert!(parse(&argv("store stats")).is_err());
        // export/import need exactly one FILE; stats/compact take none.
        assert!(parse(&argv("store export --store d")).is_err());
        assert!(parse(&argv("store import --store d a.snap b.snap")).is_err());
        assert!(parse(&argv("store compact --store d stray.snap")).is_err());
    }

    #[test]
    fn help_is_not_an_error_exit() {
        let e = parse(&argv("--help")).unwrap_err();
        assert!(e.help_requested);
        let e = parse(&argv("analyze --help")).unwrap_err();
        assert!(e.help_requested);
    }
}
