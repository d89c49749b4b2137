//! Command-line driver logic.
//!
//! The `xtalk` binary is a thin wrapper around [`run`]; keeping the logic
//! here makes it unit-testable. Supported commands:
//!
//! ```text
//! xtalk report <netlist.(bench|v)> [--spef FILE] [--mode MODE] [--period NS] [--glitch] [--threads N]
//! xtalk flow <netlist.(bench|v)> --out DIR
//! xtalk convert <input.(bench|v)> <output.(bench|v)>
//! xtalk generate --preset NAME [--seed N] <output.(bench|v)>
//! xtalk liberty <output.lib> [--cells A,B,...]
//! xtalk sdf <netlist.(bench|v)> <output.sdf> [--mode MODE] [--spef FILE] [--threads N]
//! xtalk eco <netlist.(bench|v)> <edits.eco> [--mode MODE] [--spef FILE] [--check] [--threads N]
//! xtalk serve --socket PATH [--store FILE] [--threads N]
//! xtalk client --socket PATH <load|analyze|eco|what-if|query|stats|shutdown> ...
//! ```
//!
//! Modes: `best`, `doubled`, `worst`, `onestep`, `iterative` (default),
//! `esperance`, `min`.
//!
//! `--threads N` sizes the wavefront scheduler's worker pool (`1` forces
//! the serial engine); it overrides the `XTALK_THREADS` environment
//! variable. `XTALK_CACHE=0` disables the stage-solve cache;
//! `--cache-admission=all|cost` (or `XTALK_CACHE_ADMISSION`) picks the
//! cache admission policy (default `cost`: only solves whose measured
//! Newton-iteration cost clears the adaptive floor are inserted).
//!
//! Recoverable analysis faults degrade to conservative bounds and are
//! listed as diagnostics; [`run_with_code`] keys the exit code to the worst
//! severity (0 clean, 2 warnings, 3 substituted bounds). `--strict` (or
//! `XTALK_STRICT=1`) fails fast on the first fault instead.
//!
//! `eco` replays an edit script (one edit per line: `resize <gate> <cell>`,
//! `reroute <net> <scale>`, `buffer <net> [cell]`, `uncouple <a> <b>`;
//! `#` comments) through the incremental analyzer, re-timing the dirty cone
//! after each edit. `--check` verifies the result against a fresh batch
//! analysis.

use std::fmt::Write as _;
use std::path::Path;

use xtalk_netlist::{GeneratorConfig, Netlist};
use xtalk_sta::{
    AnalysisMode, CacheAdmission, CharSummary, ExecConfig, IncrementalSta, ModeReport, Severity,
    Sta,
};
use xtalk_tech::{Library, Process};

/// A CLI failure, printed to stderr by the binary.
#[derive(Debug)]
pub struct CliError {
    /// User-facing message.
    pub message: String,
    /// Process exit code: 1 for fatal errors, 2 for configuration errors
    /// (bad `--corners`/`XTALK_CORNERS` and friends), matching the
    /// warning tier of the severity map so scripts can branch on it.
    pub code: u8,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        code: 1,
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        err(format!("i/o error: {e}"))
    }
}

impl From<xtalk_sta::ConfigError> for CliError {
    fn from(e: xtalk_sta::ConfigError) -> Self {
        CliError {
            message: e.to_string(),
            code: 2,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
xtalk — crosstalk-aware static timing analysis (DATE 2000 reproduction)

USAGE:
  xtalk report <netlist.(bench|v)> [--spef FILE] [--mode MODE] [--period NS] [--glitch] [--bits] [--threads N] [--strict] [--signoff]
               [--corners ss,tt,ff] [--no-seed] [--characterize=prewarm|lazy|off] [--char-store FILE]
               (`analyze` is an alias for `report`)
  xtalk flow <netlist.(bench|v)> --out DIR
  xtalk convert <input.(bench|v)> <output.(bench|v)>
  xtalk generate --preset small|medium|s35932|s38417|s38584 [--seed N] <output.(bench|v)>
  xtalk liberty <output.lib> [--cells A,B,...] [--char-store FILE]
  xtalk sdf <netlist.(bench|v)> <output.sdf> [--mode MODE] [--spef FILE] [--threads N] [--strict] [--signoff]
  xtalk eco <netlist.(bench|v)> <edits.eco> [--mode MODE] [--spef FILE] [--check] [--threads N] [--strict] [--signoff]
  xtalk serve --socket PATH [--store FILE] [--request-timeout MS] [--store-sync always|interval|never]
              [--compact-threshold BYTES] [--max-connections N] [--max-inflight N]
              [--threads N] [--cache-admission=all|cost] [--strict] [--signoff]
              [--characterize=prewarm|lazy|off] [--char-store FILE]
  xtalk client --socket PATH [--deadline MS] <action>

CLIENT ACTIONS (against a running `xtalk serve`):
  load <design> <netlist.(bench|v)> [--spef FILE]
  analyze <design> [--mode MODE] [--corner NAME]
  eco <design> <edits.eco> [--corner NAME]
  what-if <design> <edits.eco> [--mode MODE] [--corner NAME]
  query <design> <net> [--mode MODE] [--period NS]
  compact | stats | shutdown

CORNERS: --corners ss,tt,ff (or XTALK_CORNERS) runs `report`/`analyze` as a
scenario matrix: every named PVT corner analyzed over one shared engine,
each corner's result bit-identical to a standalone single-corner run.
Corner-to-corner warm seeding spends strictly fewer Newton iterations than
independent runs; --no-seed disables it (results unchanged either way).
`client` actions take a single --corner NAME addressing that corner's
per-session analyzer on the daemon. An unknown corner name is a
configuration error (exit 2).

SERVICE: --request-timeout (or XTALK_SERVE_TIMEOUT, ms) bounds every request;
a request may override it with --deadline. An expired deadline cancels the
analysis cooperatively, rolls the session back, and exits 4 (retryable).
Admission control answers overload with a typed busy response, exit 5
(retryable). A panicked request quarantines only that design's session;
re-load rebuilds it from the solve store. --store-sync picks append
durability (default interval: fsync at most once/second); --compact-threshold
auto-compacts the store log past a size; `client compact` does it on demand.

MODES: best | doubled | worst | onestep | iterative (default) | esperance | min

PARALLELISM: --threads N sizes the wavefront worker pool (1 = serial engine);
overrides XTALK_THREADS. XTALK_CACHE=0 disables the stage-solve cache.

CACHING: --cache-admission=all|cost (or XTALK_CACHE_ADMISSION) picks the
stage-solve cache admission policy. The default `cost` caches only solves
whose measured Newton-iteration cost clears an adaptive floor, keeping the
cache out of the way of cheap shallow stages; `all` caches every solve.
Either way, results are bit-identical — admission changes what is reused,
never what is computed.

FAST PATH: stage solves whose query falls inside the characterized
macromodel grid are answered by table interpolation with a certified,
conservative error bound (DESIGN.md D12). --signoff (or XTALK_SIGNOFF=1)
disables the tables so every solve runs the full transistor-level Newton
iteration, bit-identical to the pre-macromodel engine.

CHARACTERIZATION: --characterize (or XTALK_CHARACTERIZE) picks when the
macromodel tables are built: `prewarm` (default) characterizes every
sensitizable arc up front on the worker pool; `lazy` characterizes an arc
on its first in-grid query; `off` builds nothing (already-stored tables
still answer). Served results are bit-identical in every mode — only the
build schedule changes. --char-store FILE (or XTALK_CHAR_STORE) persists
characterized tables to a checksummed on-disk store, replayed on the next
run so repeat invocations, daemon restarts and extra corners pay zero
characterization Newton solves; corrupt or stale records are skipped and
rebuilt (DESIGN.md D15).

ROBUSTNESS: recoverable solver faults degrade the affected node to a
conservative bound and are listed as diagnostics; the exit code is 0 for a
clean run, 2 when warnings were contained, 3 when conservative bounds were
substituted. --strict (or XTALK_STRICT=1) fails fast on the first fault
instead (exit 1).

ECO EDITS (one per line, `#` comments):
  resize <gate> <cell> | reroute <net> <scale> | buffer <net> [cell] | uncouple <a> <b>
";

/// A finished CLI run: the stdout text plus the process exit code keyed to
/// the worst contained-fault severity (see `USAGE`'s ROBUSTNESS note).
#[derive(Debug)]
pub struct CliOutcome {
    /// Text for stdout.
    pub text: String,
    /// Process exit code: 0 clean, 2 warnings contained, 3 bounds
    /// substituted.
    pub exit_code: i32,
}

/// Exit code for the worst severity of a completed (degraded) run.
fn exit_code_for(severity: Option<Severity>) -> i32 {
    match severity {
        None | Some(Severity::Info) => 0,
        Some(Severity::Warning) => 2,
        Some(Severity::Error) => 3,
    }
}

/// Runs the CLI on `args` (without the program name); returns the text to
/// print on stdout.
///
/// # Errors
///
/// [`CliError`] with a user-facing message.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_with_code(args).map(|outcome| outcome.text)
}

/// Runs the CLI on `args`, also reporting the exit code a completed run
/// should terminate with (degraded analyses complete with a conservative
/// answer but a nonzero code). Fatal errors are still [`CliError`]s.
///
/// # Errors
///
/// [`CliError`] with a user-facing message.
pub fn run_with_code(args: &[String]) -> Result<CliOutcome, CliError> {
    let (text, severity) = match args.first().map(String::as_str) {
        // `analyze` is an alias for `report` (the scenario-matrix docs use
        // `xtalk analyze --corners ...`; both spellings work everywhere).
        Some("report") | Some("analyze") => cmd_report(&args[1..])?,
        Some("flow") => (cmd_flow(&args[1..])?, None),
        Some("convert") => (cmd_convert(&args[1..])?, None),
        Some("generate") => (cmd_generate(&args[1..])?, None),
        Some("liberty") => (cmd_liberty(&args[1..])?, None),
        Some("sdf") => (cmd_sdf(&args[1..])?, None),
        Some("eco") => cmd_eco(&args[1..])?,
        Some("serve") => (cmd_serve(&args[1..])?, None),
        // Client actions carry their own exit code: typed degradation
        // responses (busy, deadline) use codes beyond the severity map.
        Some("client") => {
            let (text, exit_code) = cmd_client(&args[1..])?;
            return Ok(CliOutcome { text, exit_code });
        }
        Some("help") | None => (USAGE.to_string(), None),
        Some(other) => return Err(err(format!("unknown command `{other}`\n\n{USAGE}"))),
    };
    Ok(CliOutcome {
        text,
        exit_code: exit_code_for(severity),
    })
}

fn parse_mode(name: &str) -> Result<AnalysisMode, CliError> {
    Ok(match name {
        "best" => AnalysisMode::BestCase,
        "doubled" => AnalysisMode::StaticDoubled,
        "worst" => AnalysisMode::WorstCase,
        "onestep" => AnalysisMode::OneStep,
        "iterative" => AnalysisMode::Iterative { esperance: false },
        "esperance" => AnalysisMode::Iterative { esperance: true },
        "min" => AnalysisMode::MinDelay,
        other => return Err(err(format!("unknown mode `{other}`"))),
    })
}

fn load_netlist(path: &str, library: &Library) -> Result<Netlist, CliError> {
    let text = std::fs::read_to_string(path)?;
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    match ext {
        "bench" => {
            xtalk_netlist::bench::parse(&text, library).map_err(|e| err(format!("{path}: {e}")))
        }
        "v" => {
            xtalk_netlist::verilog::parse(&text, library).map_err(|e| err(format!("{path}: {e}")))
        }
        other => Err(err(format!(
            "unsupported netlist extension `.{other}` (use .bench or .v)"
        ))),
    }
}

fn save_netlist(path: &str, netlist: &Netlist, library: &Library) -> Result<(), CliError> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let text = match ext {
        "bench" => xtalk_netlist::bench::write(netlist, library)
            .map_err(|e| err(format!("{path}: {e}")))?,
        "v" => xtalk_netlist::verilog::write(netlist, library)
            .map_err(|e| err(format!("{path}: {e}")))?,
        other => {
            return Err(err(format!(
                "unsupported output extension `.{other}` (use .bench or .v)"
            )))
        }
    };
    std::fs::write(path, text)?;
    Ok(())
}

/// Simple flag scanner: returns (positional args, flag lookup).
fn split_flags(args: &[String]) -> (Vec<&str>, Vec<(&str, Option<&str>)>) {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            // `--flag=value` and `--flag value` are equivalent.
            if let Some((n, v)) = name.split_once('=') {
                flags.push((n, Some(v)));
            } else {
                let value = args
                    .get(i + 1)
                    .map(String::as_str)
                    .filter(|v| !v.starts_with("--"));
                if value.is_some() {
                    i += 1;
                }
                flags.push((name, value));
            }
        } else {
            pos.push(a);
        }
        i += 1;
    }
    (pos, flags)
}

fn flag<'a>(flags: &[(&'a str, Option<&'a str>)], name: &str) -> Option<Option<&'a str>> {
    flags.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// Builds the execution config from the environment, letting `--threads`
/// override `XTALK_THREADS` and `--strict` force fail-fast mode.
fn exec_config(flags: &[(&str, Option<&str>)]) -> Result<ExecConfig, CliError> {
    let mut config = ExecConfig::from_env()?;
    if let Some(threads) = flag(flags, "threads") {
        let threads: usize = threads
            .and_then(|t| t.parse().ok())
            .filter(|&t| t >= 1)
            .ok_or_else(|| err("--threads expects an integer >= 1"))?;
        config = config.with_threads(threads);
    }
    if let Some(admission) = flag(flags, "cache-admission") {
        let admission = match admission {
            Some("all") => CacheAdmission::All,
            Some("cost") => CacheAdmission::Cost,
            _ => return Err(err("--cache-admission expects `all` or `cost`")),
        };
        config = config.with_cache_admission(admission);
    }
    if let Some(mode) = flag(flags, "characterize") {
        let mode = mode.ok_or_else(|| err("--characterize expects prewarm, lazy or off"))?;
        config = config.with_characterize(xtalk_sta::exec::CharacterizeMode::parse(
            "--characterize",
            mode,
        )?);
    }
    if let Some(path) = flag(flags, "char-store") {
        let path = path.ok_or_else(|| err("--char-store expects a file path"))?;
        config = config.with_char_store(Some(std::path::PathBuf::from(path)));
    }
    if flag(flags, "strict").is_some() {
        config = config.with_strict(true);
    }
    if flag(flags, "signoff").is_some() {
        config = config.with_signoff(true);
    }
    if let Some(spec) = flag(flags, "corners") {
        let spec = spec.ok_or_else(|| err("--corners expects a comma-separated corner list"))?;
        // `--corners` wins over XTALK_CORNERS; an unknown name is a
        // configuration error (exit 2) through the same typed path.
        config = config.with_corners(Some(xtalk_sta::exec::parse_corners("--corners", spec)?));
    }
    Ok(config)
}

/// Test hook, compiled only in fault-injection builds: `--inject
/// CLASS:SEED:DENOM` installs a deterministic fault plan on the analyzer so
/// the degrade-don't-die path can be driven end to end from the CLI.
#[cfg(feature = "fault-injection")]
fn fault_plan_from_flags(
    flags: &[(&str, Option<&str>)],
) -> Result<Option<xtalk_sta::FaultPlan>, CliError> {
    let Some(spec) = flag(flags, "inject").flatten() else {
        return Ok(None);
    };
    let parts: Vec<&str> = spec.split(':').collect();
    let [class, seed, denom] = parts.as_slice() else {
        return Err(err("--inject expects CLASS:SEED:DENOM"));
    };
    let fault = match *class {
        "nan-load" => xtalk_sta::Fault::NanLoad,
        "truncated-table" => xtalk_sta::Fault::TruncatedTable,
        "divergent-stage" => xtalk_sta::Fault::DivergentStage,
        "mid-job-panic" => xtalk_sta::Fault::MidJobPanic,
        "poisoned-cache" => xtalk_sta::Fault::PoisonedCache,
        other => return Err(err(format!("unknown fault class `{other}`"))),
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| err("--inject seed must be an integer"))?;
    let denom: u64 = denom
        .parse()
        .map_err(|_| err("--inject denom must be an integer"))?;
    Ok(Some(xtalk_sta::FaultPlan::new(fault, seed, denom)))
}

/// The diagnostics section of a degraded run (empty text for a clean one,
/// keeping clean output byte-identical to earlier releases).
fn diagnostics_block(report: &ModeReport) -> String {
    let mut out = String::new();
    if report.degraded() {
        let _ = writeln!(
            out,
            "diagnostics: {} fault(s) contained, worst severity {}",
            report.diagnostics.len(),
            report.worst_severity().unwrap_or(Severity::Info)
        );
        for d in &report.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
    }
    out
}

/// One-line solver-work summary: logical calls, Newton integrations
/// actually run (with their total iteration count), and reuse-layer hits
/// (warm = the per-stage memo subset).
fn solver_summary(report: &ModeReport) -> String {
    let mut line = format!(
        "solver: {} calls, {} newton solves, {} newton iters",
        report.stage_solves, report.newton_solves, report.newton_iters
    );
    if report.cache_hits > 0 {
        let ratio = 100.0 * report.cache_hits as f64 / report.stage_solves.max(1) as f64;
        let _ = write!(
            line,
            ", {} cache hits ({ratio:.0}%, {} warm)",
            report.cache_hits, report.warm_hits
        );
    }
    if report.table_hits > 0 {
        let _ = write!(
            line,
            ", {} table hits ({} fallbacks, residual <= {:.1} ps)",
            report.table_hits,
            report.table_fallbacks,
            report.table_residual * 1e12
        );
    }
    line
}

/// One-line characterization summary, printed by every report. The `grid
/// solves` count is the number of characterization Newton sweeps this
/// process ran — CI greps the `^characterization: N grid solves` prefix to
/// prove a store-warm run paid zero. The line also names the analyzer's
/// characterization universe (the named arcs of the combinational cells
/// the netlist instantiates, against the library's cells; twin arcs share
/// a model, so the model count is smaller) and the build-time
/// characterization wall time, which the analysis runtime excludes. The
/// mode reads `signoff` when tables are disabled.
fn characterization_summary(
    config: &ExecConfig,
    summary: CharSummary,
    library: &Library,
) -> String {
    let m = xtalk_wave::macromodel::stats();
    let library_cells = library.iter().filter(|c| !c.is_sequential()).count();
    let mode = if config.signoff {
        "signoff".to_string()
    } else {
        config.characterize.to_string()
    };
    let store = config
        .char_store
        .as_ref()
        .map_or_else(|| "none".to_string(), |p| p.display().to_string());
    format!(
        "characterization: {} grid solves, {} models ({} usable) for {} arcs of {} of \
         {library_cells} cells in {:.2} s, mode {}, store {}\n",
        m.char_solves,
        m.models,
        m.usable,
        summary.arcs,
        summary.cells,
        summary.wall.as_secs_f64(),
        mode,
        store
    )
}

struct LoadedDesign {
    process: Process,
    library: Library,
    netlist: Netlist,
    parasitics: xtalk_layout::Parasitics,
}

fn load_design(netlist_path: &str, spef: Option<&str>) -> Result<LoadedDesign, CliError> {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = load_netlist(netlist_path, &library)?;
    netlist
        .validate(&library)
        .map_err(|e| err(format!("{netlist_path}: {e}")))?;
    let parasitics = match spef {
        Some(spef_path) => {
            let text = std::fs::read_to_string(spef_path)?;
            // SPEF carries no per-sink resistances; recover them from a
            // fresh routing of the same netlist.
            let mut para = xtalk_layout::spef::parse(&text, &netlist)
                .map_err(|e| err(format!("{spef_path}: {e}")))?;
            let placement = xtalk_layout::place::place(&netlist, &library, &process);
            let routes = xtalk_layout::route::route(&netlist, &placement, &process);
            let routed = xtalk_layout::extract::extract(&netlist, &routes, &process);
            for (a, b) in para.nets.iter_mut().zip(&routed.nets) {
                a.sinks = b.sinks.clone();
            }
            para
        }
        None => {
            let placement = xtalk_layout::place::place(&netlist, &library, &process);
            let routes = xtalk_layout::route::route(&netlist, &placement, &process);
            xtalk_layout::extract::extract(&netlist, &routes, &process)
        }
    };
    Ok(LoadedDesign {
        process,
        library,
        netlist,
        parasitics,
    })
}

fn cmd_report(args: &[String]) -> Result<(String, Option<Severity>), CliError> {
    let (pos, flags) = split_flags(args);
    let [netlist_path] = pos.as_slice() else {
        return Err(err(format!("report needs one netlist file\n\n{USAGE}")));
    };
    let mode = parse_mode(flag(&flags, "mode").flatten().unwrap_or("iterative"))?;
    let config = exec_config(&flags)?;
    let d = load_design(netlist_path, flag(&flags, "spef").flatten())?;
    if let Some(corners) = config.corners.clone() {
        return report_scenario(&d, mode, corners, config, &flags);
    }
    let sta = Sta::with_config(&d.netlist, &d.library, &d.process, &d.parasitics, config)
        .map_err(|e| err(e.to_string()))?;
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = fault_plan_from_flags(&flags)? {
        sta.set_fault_plan(Some(plan));
    }
    let report = sta.analyze(mode).map_err(|e| err(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} gates, {} nets, {} coupling caps",
        d.netlist.name,
        d.netlist.gate_count(),
        d.netlist.net_count(),
        d.parasitics.coupling_count() / 2
    );
    let _ = writeln!(
        out,
        "{mode}: {} path delay {:.3} ns ({} passes, {:.2} s)",
        if mode == AnalysisMode::MinDelay {
            "shortest"
        } else {
            "longest"
        },
        report.longest_delay * 1e9,
        report.passes,
        report.runtime.as_secs_f64()
    );
    let _ = writeln!(out, "{}", solver_summary(&report));
    if let Some(line) = xtalk_sta::fallback_reason_line(&report) {
        let _ = writeln!(out, "{line}");
    }
    let _ = write!(
        out,
        "{}",
        characterization_summary(sta.exec_config(), sta.characterization(), &d.library)
    );
    let _ = write!(out, "{}", xtalk_sta::report::solver_table(&report));
    if flag(&flags, "bits").is_some() {
        // Bit-exact transport of the delay for cross-process identity
        // checks (decimal ns rounds; the IEEE-754 bits do not).
        let _ = writeln!(out, "delay bits: {:016x}", report.longest_delay.to_bits());
    }
    let _ = write!(out, "{}", diagnostics_block(&report));
    let _ = writeln!(out, "critical path:");
    for step in &report.critical_path {
        let _ = writeln!(
            out,
            "  {:>9.3} ns  {:<10} {:<12} -> {} ({})",
            step.arrival * 1e9,
            step.cell,
            d.netlist.gate(step.gate).name,
            d.netlist.net(step.net).name,
            if step.rising { "rise" } else { "fall" }
        );
    }
    if let Some(period) = flag(&flags, "period").flatten() {
        let period: f64 = period
            .parse::<f64>()
            .map_err(|_| err("--period expects a number (ns)"))?
            * 1e-9;
        let _ = writeln!(out);
        let _ = write!(
            out,
            "{}",
            xtalk_sta::report::slack_table(&d.netlist, &report, period, 10)
        );
    }
    if flag(&flags, "glitch").is_some() {
        let g = xtalk_sta::glitch_report(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            Some(&report),
            0.3 * d.process.vdd,
        );
        let _ = writeln!(out);
        let _ = write!(out, "{}", g.to_table(&d.netlist, 10));
    }
    Ok((out, report.worst_severity()))
}

/// The `--corners` path of `report`/`analyze`: a scenario-matrix run over
/// the named PVT corners, printing the per-corner summary and the
/// cross-corner worst-endpoint table. Each corner's numbers are bitwise
/// identical to a standalone single-corner run (`--no-seed` disables the
/// cross-corner warm seeding, which never changes results either way).
fn report_scenario(
    d: &LoadedDesign,
    mode: AnalysisMode,
    corners: Vec<xtalk_tech::Corner>,
    config: ExecConfig,
    flags: &[(&str, Option<&str>)],
) -> Result<(String, Option<Severity>), CliError> {
    let mut matrix = xtalk_sta::ScenarioMatrix::new(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        corners,
        config.clone(),
    )
    .map_err(|e| err(e.to_string()))?;
    if flag(flags, "no-seed").is_some() {
        matrix = matrix.with_seeding(false);
    }
    let report = matrix.run(&[mode]).map_err(|e| err(e.to_string()))?;

    let mut out = String::new();
    let corner_names: Vec<&str> = report.corners.iter().map(|c| c.corner.as_str()).collect();
    let _ = writeln!(
        out,
        "{}: {} gates, {} nets, {} coupling caps; corners {}",
        d.netlist.name,
        d.netlist.gate_count(),
        d.netlist.net_count(),
        d.parasitics.coupling_count() / 2,
        corner_names.join(",")
    );
    out.push_str(&xtalk_sta::corner_summary_table(&report));
    out.push_str(&characterization_summary(
        &config,
        matrix.characterization(),
        &d.library,
    ));
    let _ = writeln!(out);
    out.push_str(&xtalk_sta::scenario_table(&d.netlist, &report, 10));
    if flag(flags, "bits").is_some() {
        // Bit-exact transport per corner, for identity checks against a
        // standalone `xtalk report --bits` of the same corner.
        for run in &report.corners {
            let _ = writeln!(
                out,
                "delay bits {}: {:016x}",
                run.corner,
                run.reports[0].longest_delay.to_bits()
            );
        }
    }
    let severity = report
        .corners
        .iter()
        .flat_map(|c| &c.reports)
        .filter_map(ModeReport::worst_severity)
        .max();
    for run in &report.corners {
        for r in &run.reports {
            if r.degraded() {
                let _ = write!(out, "[{}] {}", run.corner, diagnostics_block(r));
            }
        }
    }
    Ok((out, severity))
}

fn cmd_flow(args: &[String]) -> Result<String, CliError> {
    let (pos, flags) = split_flags(args);
    let [netlist_path] = pos.as_slice() else {
        return Err(err(format!("flow needs one netlist file\n\n{USAGE}")));
    };
    let out_dir = flag(&flags, "out")
        .flatten()
        .ok_or_else(|| err("flow requires --out DIR"))?;
    std::fs::create_dir_all(out_dir)?;
    let d = load_design(netlist_path, None)?;
    let base = Path::new(out_dir).join(&d.netlist.name);
    let verilog =
        xtalk_netlist::verilog::write(&d.netlist, &d.library).map_err(|e| err(e.to_string()))?;
    let spef = xtalk_layout::spef::write(&d.netlist, &d.parasitics);
    let v_path = base.with_extension("v");
    let spef_path = base.with_extension("spef");
    std::fs::write(&v_path, verilog)?;
    std::fs::write(&spef_path, spef)?;
    Ok(format!(
        "wrote {} and {} ({} coupling caps)\n",
        v_path.display(),
        spef_path.display(),
        d.parasitics.coupling_count() / 2
    ))
}

fn cmd_convert(args: &[String]) -> Result<String, CliError> {
    let (pos, _) = split_flags(args);
    let [input, output] = pos.as_slice() else {
        return Err(err(format!(
            "convert needs input and output files\n\n{USAGE}"
        )));
    };
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = load_netlist(input, &library)?;
    save_netlist(output, &netlist, &library)?;
    Ok(format!(
        "converted {input} -> {output} ({} gates)\n",
        netlist.gate_count()
    ))
}

fn cmd_generate(args: &[String]) -> Result<String, CliError> {
    let (pos, flags) = split_flags(args);
    let [output] = pos.as_slice() else {
        return Err(err(format!("generate needs one output file\n\n{USAGE}")));
    };
    let seed: u64 = flag(&flags, "seed")
        .flatten()
        .map(|s| s.parse().map_err(|_| err("--seed expects an integer")))
        .transpose()?
        .unwrap_or(1);
    let preset = flag(&flags, "preset").flatten().unwrap_or("small");
    let config = match preset {
        "small" => GeneratorConfig::small(seed),
        "medium" => GeneratorConfig::medium(seed),
        "s35932" => GeneratorConfig::s35932_like(),
        "s38417" => GeneratorConfig::s38417_like(),
        "s38584" => GeneratorConfig::s38584_like(),
        other => return Err(err(format!("unknown preset `{other}`"))),
    };
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist =
        xtalk_netlist::generator::generate(&config, &library).map_err(|e| err(e.to_string()))?;
    save_netlist(output, &netlist, &library)?;
    Ok(format!(
        "generated `{}`: {} gates, {} flip-flops -> {output}\n",
        netlist.name,
        netlist.gate_count(),
        netlist.flip_flop_count()
    ))
}

fn cmd_liberty(args: &[String]) -> Result<String, CliError> {
    let (pos, flags) = split_flags(args);
    let [output] = pos.as_slice() else {
        return Err(err(format!("liberty needs one output file\n\n{USAGE}")));
    };
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let wanted: Option<Vec<&str>> = flag(&flags, "cells")
        .flatten()
        .map(|s| s.split(',').collect());
    // One characterization pass on the macromodel fast path's grid
    // (DESIGN.md D12): the `.lib` writer consumes the quiet slice and the
    // coupled (active-aggressor) tables ride along for crosstalk-aware
    // consumers, instead of sweeping a second, private grid.
    let slews = xtalk_wave::macromodel::GRID_SLEWS;
    let loads = xtalk_wave::macromodel::GRID_LOADS;
    let ratios = xtalk_wave::macromodel::GRID_RATIOS;
    // A `--char-store` replays previously characterized cell tables instead
    // of re-sweeping the grid; sweeps it does run are appended for the next
    // invocation. The store cannot change the `.lib` bits — records are
    // bit-exact captures of the same deterministic sweep.
    let store = match flag(&flags, "char-store").flatten() {
        Some(path) => {
            let store = xtalk_sta::open_char_store(std::path::Path::new(path))
                .map_err(|e| err(format!("{path}: {e}")))?;
            store.load().map_err(|e| err(format!("{path}: {e}")))?;
            Some(store)
        }
        None => None,
    };
    let cell_key = |name: &str| {
        let mut h = xtalk_wave::signature::StableHasher::default();
        h.write_u64(xtalk_wave::macromodel::process_sig(&process));
        h.write_bytes(name.as_bytes());
        for v in slews.iter().chain(&loads).chain(&ratios) {
            h.write_u64(v.to_bits());
        }
        h.finish()
    };
    let mut tables = Vec::new();
    let mut reused = 0usize;
    for cell in &library {
        if let Some(w) = &wanted {
            if !w.contains(&cell.name.as_str()) {
                continue;
            }
        }
        let key = cell_key(&cell.name);
        if let Some(t) = store.as_ref().and_then(|s| s.liberty_tables(key)) {
            reused += 1;
            tables.push(t);
            continue;
        }
        let t = xtalk_wave::characterize::characterize_cell_coupled(
            &process, cell, &slews, &loads, &ratios,
        )
        .map_err(|e| err(format!("{}: {e}", cell.name)))?;
        if let Some(s) = &store {
            s.append_liberty(key, &t)
                .map_err(|e| err(format!("char store append: {e}")))?;
        }
        tables.push(t);
    }
    let lib_text = xtalk_wave::liberty::write(&process, &library, &tables);
    std::fs::write(output, lib_text)?;
    Ok(format!(
        "characterized {} cells ({} reused from store) -> {output}\n",
        tables.len(),
        reused
    ))
}

fn cmd_sdf(args: &[String]) -> Result<String, CliError> {
    let (pos, flags) = split_flags(args);
    let [netlist_path, output] = pos.as_slice() else {
        return Err(err(format!(
            "sdf needs a netlist and an output file\n\n{USAGE}"
        )));
    };
    let mode = parse_mode(flag(&flags, "mode").flatten().unwrap_or("iterative"))?;
    let config = exec_config(&flags)?;
    let d = load_design(netlist_path, flag(&flags, "spef").flatten())?;
    let sta = Sta::with_config(&d.netlist, &d.library, &d.process, &d.parasitics, config)
        .map_err(|e| err(e.to_string()))?;
    let sdf = xtalk_sta::write_sdf(&sta, mode).map_err(|e| err(e.to_string()))?;
    std::fs::write(output, &sdf)?;
    Ok(format!(
        "wrote {output} ({} IOPATH entries, mode {mode})\n",
        sdf.matches("(IOPATH").count()
    ))
}

fn cmd_eco(args: &[String]) -> Result<(String, Option<Severity>), CliError> {
    let (pos, flags) = split_flags(args);
    let [netlist_path, script_path] = pos.as_slice() else {
        return Err(err(format!(
            "eco needs a netlist and an edit script\n\n{USAGE}"
        )));
    };
    let mode = parse_mode(flag(&flags, "mode").flatten().unwrap_or("iterative"))?;
    let config = exec_config(&flags)?;
    let d = load_design(netlist_path, flag(&flags, "spef").flatten())?;
    let script = std::fs::read_to_string(script_path)?;

    let mut eco =
        IncrementalSta::with_config(d.netlist, &d.library, &d.process, d.parasitics, config)
            .map_err(|e| err(e.to_string()))?;
    let baseline = eco.analyze(mode).map_err(|e| err(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline {mode}: {:.3} ns ({} stage solves, {:.2} s)",
        baseline.longest_delay * 1e9,
        baseline.stage_solves,
        baseline.runtime.as_secs_f64()
    );
    let outcomes = eco
        .apply_script(&script)
        .map_err(|e| err(format!("{script_path}: {e}")))?;
    let _ = writeln!(out, "applied {} edits from {script_path}", outcomes.len());

    let report = eco.analyze(mode).map_err(|e| err(e.to_string()))?;
    let stats = eco.last_stats();
    let _ = writeln!(
        out,
        "eco {mode}: {:.3} ns ({:+.3} ns, re-evaluated {} of {} stage evals, \
         {} solves, {:.2} s)",
        report.longest_delay * 1e9,
        (report.longest_delay - baseline.longest_delay) * 1e9,
        stats.stages_evaluated,
        eco.graph().stages.len() * stats.passes,
        stats.stage_solves,
        report.runtime.as_secs_f64()
    );
    let cache = eco.cache_stats();
    let _ = writeln!(
        out,
        "cache: {} hits, {} misses, {} evictions ({:.0}% hit; \
         admission {} admitted, {} skipped)",
        cache.hits,
        cache.misses,
        cache.evictions,
        100.0 * cache.hit_ratio(),
        cache.admitted,
        cache.skipped
    );
    let _ = write!(out, "{}", xtalk_sta::report::solver_table(&report));
    let _ = write!(out, "{}", diagnostics_block(&report));

    if flag(&flags, "check").is_some() {
        let fresh = eco
            .fresh_sta()
            .analyze(mode)
            .map_err(|e| err(e.to_string()))?;
        if fresh.longest_delay.to_bits() != report.longest_delay.to_bits()
            || fresh.endpoint_net != report.endpoint_net
        {
            return Err(err(format!(
                "check FAILED: incremental {:.6} ns != batch {:.6} ns",
                report.longest_delay * 1e9,
                fresh.longest_delay * 1e9
            )));
        }
        let _ = writeln!(out, "check: incremental result matches batch re-analysis");
    }
    Ok((out, report.worst_severity()))
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    use xtalk_sta::serve::{Daemon, ServeConfig, SyncPolicy};
    let (pos, flags) = split_flags(args);
    if !pos.is_empty() {
        return Err(err(format!("serve takes only flags\n\n{USAGE}")));
    }
    let socket = flag(&flags, "socket")
        .flatten()
        .ok_or_else(|| err("serve requires --socket PATH"))?;
    let store = flag(&flags, "store")
        .flatten()
        .map(std::path::PathBuf::from);
    // --request-timeout MS wins over XTALK_SERVE_TIMEOUT; absent both,
    // requests are unbounded.
    let timeout_ms = match flag(&flags, "request-timeout") {
        Some(v) => Some(
            v.and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| err("--request-timeout expects milliseconds"))?,
        ),
        None => match std::env::var("XTALK_SERVE_TIMEOUT") {
            Ok(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| err("XTALK_SERVE_TIMEOUT expects milliseconds"))?,
            ),
            Err(_) => None,
        },
    };
    let store_sync = match flag(&flags, "store-sync") {
        Some(v) => v
            .and_then(SyncPolicy::parse)
            .ok_or_else(|| err("--store-sync expects always|interval|never"))?,
        None => SyncPolicy::default(),
    };
    let compact_threshold = match flag(&flags, "compact-threshold") {
        Some(v) => Some(
            v.and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| err("--compact-threshold expects bytes"))?,
        ),
        None => None,
    };
    let parse_cap = |name: &str| -> Result<Option<usize>, CliError> {
        match flag(&flags, name) {
            Some(v) => Ok(Some(
                v.and_then(|t| t.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err(format!("--{name} expects an integer >= 1")))?,
            )),
            None => Ok(None),
        }
    };
    let mut config = ServeConfig::new(socket)
        .with_store(store)
        .with_exec(exec_config(&flags)?)
        .with_request_timeout(timeout_ms.map(std::time::Duration::from_millis))
        .with_store_sync(store_sync)
        .with_compact_threshold(compact_threshold);
    if let Some(n) = parse_cap("max-connections")? {
        config = config.with_max_connections(n);
    }
    if let Some(n) = parse_cap("max-inflight")? {
        config = config.with_max_inflight(n);
    }
    let daemon = Daemon::bind(config).map_err(|e| err(format!("serve: {e}")))?;
    // The ready signal goes to stderr immediately — stdout text is only
    // returned once the daemon exits.
    eprintln!("xtalk serve: listening on {socket}");
    let summary = daemon.run().map_err(|e| err(format!("serve: {e}")))?;
    Ok(format!(
        "served {} requests, {} sessions resident at shutdown\n",
        summary.requests, summary.sessions
    ))
}

/// The worst severity a client action's response reported, mapped back
/// from the protocol token so `xtalk client` exits like the batch CLI.
fn client_severity(resp: &xtalk_sta::serve::Json) -> Option<Severity> {
    match resp.str_field("severity") {
        Some("warning") => Some(Severity::Warning),
        Some("error") => Some(Severity::Error),
        _ => None,
    }
}

fn cmd_client(args: &[String]) -> Result<(String, i32), CliError> {
    use xtalk_sta::serve::{Client, Json};
    let (pos, flags) = split_flags(args);
    let socket = flag(&flags, "socket")
        .flatten()
        .ok_or_else(|| err("client requires --socket PATH"))?;
    let mode = flag(&flags, "mode").flatten();
    if let Some(m) = mode {
        // Validate locally for a friendly error before shipping it.
        parse_mode(m)?;
    }
    let corner = match flag(&flags, "corner") {
        Some(c) => {
            let c = c.ok_or_else(|| err("--corner expects a corner name"))?;
            if c != "base" {
                // Validate locally through the typed configuration path
                // (unknown corner = exit 2) before dialing the daemon.
                xtalk_sta::exec::parse_corners("--corner", c)?;
            }
            Some(c)
        }
        None => None,
    };
    let mut client = Client::connect(std::path::Path::new(socket))
        .map_err(|e| err(format!("client: cannot reach daemon at {socket}: {e}")))?;
    if let Some(v) = flag(&flags, "deadline") {
        let ms: u64 = v
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err("--deadline expects milliseconds"))?;
        client.set_deadline_ms(Some(ms));
    }
    if let Some(c) = corner {
        client.set_corner(Some(c));
    }
    let io = |e: std::io::Error| err(format!("client: {e}"));
    let resp = match pos.as_slice() {
        ["load", design, netlist] => client
            .load(design, netlist, flag(&flags, "spef").flatten())
            .map_err(io)?,
        ["analyze", design] => client.analyze(design, mode).map_err(io)?,
        ["eco", design, script] | ["what-if", design, script] => {
            let text = std::fs::read_to_string(script)?;
            let lines: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            if pos[0] == "eco" {
                client.eco(design, &lines).map_err(io)?
            } else {
                client.what_if(design, &lines, mode).map_err(io)?
            }
        }
        ["query", design, net] => {
            let period = flag(&flags, "period")
                .flatten()
                .map(|p| {
                    p.parse::<f64>()
                        .map_err(|_| err("--period expects a number (ns)"))
                })
                .transpose()?;
            client.query(design, net, mode, period).map_err(io)?
        }
        ["compact"] => client.compact().map_err(io)?,
        ["stats"] => client.stats().map_err(io)?,
        ["shutdown"] => client.shutdown().map_err(io)?,
        _ => return Err(err(format!("unknown client action\n\n{USAGE}"))),
    };
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        let message = resp
            .str_field("error")
            .unwrap_or("malformed daemon response");
        // Typed degradation responses are reported (not fatal errors) with
        // their own exit codes, so scripts can branch on retryability.
        return match resp.str_field("kind") {
            Some(kind @ ("busy" | "deadline")) => {
                let code = resp
                    .get("exit_code")
                    .and_then(Json::as_u64)
                    .map_or(1, |c| c as i32);
                Ok((format!("daemon {kind}: {message}\n"), code))
            }
            _ => Err(err(format!("daemon: {message}"))),
        };
    }
    let severity = client_severity(&resp);
    Ok((
        render_client_response(pos[0], &resp),
        exit_code_for(severity),
    ))
}

/// Renders a successful client response as human-readable text. Every
/// analysis-like action also prints the bit-exact `delay bits` line so
/// scripts can assert identity against `xtalk report --bits`.
fn render_client_response(action: &str, resp: &xtalk_sta::serve::Json) -> String {
    use xtalk_sta::serve::Json;
    let mut out = String::new();
    let num = |key: &str| resp.get(key).and_then(Json::as_u64).unwrap_or(0);
    let fnum = |key: &str| resp.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    match action {
        "load" => {
            let _ = writeln!(
                out,
                "loaded: {} gates, {} nets, {} coupling caps \
                 (store: {} replayed, {} corrupt skipped)",
                num("gates"),
                num("nets"),
                num("coupling_caps"),
                num("store_replayed"),
                num("store_corrupt_skipped")
            );
        }
        "analyze" | "what-if" => {
            let _ = writeln!(
                out,
                "{}{}: delay {:.3} ns ({} passes, {} stage solves, \
                 {} newton solves, {} newton iters, {} cache hits, {:.2} s)",
                resp.str_field("mode").unwrap_or("?"),
                if action == "what-if" {
                    " what-if (rolled back)"
                } else {
                    ""
                },
                fnum("delay_ns"),
                num("passes"),
                num("stage_solves"),
                num("newton_solves"),
                num("newton_iters"),
                num("cache_hits"),
                fnum("runtime_s")
            );
            let _ = writeln!(
                out,
                "delay bits: {}",
                resp.str_field("delay_bits").unwrap_or("?")
            );
            if let Some(endpoint) = resp.str_field("endpoint") {
                let _ = writeln!(out, "endpoint: {endpoint}");
            }
            if let Some(diags) = resp.get("diagnostics").and_then(Json::as_arr) {
                let _ = writeln!(out, "diagnostics: {} fault(s) contained", diags.len());
                for d in diags {
                    let _ = writeln!(out, "  {}", d.as_str().unwrap_or("?"));
                }
            }
        }
        "eco" => {
            let _ = writeln!(
                out,
                "applied {} edits ({} new gates, {} total on session)",
                num("applied"),
                num("new_gates"),
                num("edits_total")
            );
        }
        "query" => {
            let _ = writeln!(
                out,
                "{} ({}): arrival {:.3} ns [bits {}]",
                resp.str_field("net").unwrap_or("?"),
                resp.str_field("mode").unwrap_or("?"),
                fnum("arrival_ns"),
                resp.str_field("arrival_bits").unwrap_or("?")
            );
            if let Some(slack) = resp.get("slack_ns").and_then(Json::as_f64) {
                let _ = writeln!(
                    out,
                    "slack: {slack:.3} ns{}",
                    if resp.get("violated").and_then(Json::as_bool) == Some(true) {
                        "  VIOLATED"
                    } else {
                        ""
                    }
                );
            }
        }
        "compact" => {
            let _ = writeln!(
                out,
                "compacted: {} live records kept, {} dropped, {} -> {} bytes",
                num("live"),
                num("dropped"),
                num("bytes_before"),
                num("bytes_after")
            );
        }
        "stats" => {
            let counters = xtalk_sta::ServiceCounters {
                requests: num("requests"),
                inflight: num("inflight"),
                max_inflight: num("max_inflight"),
                deadline_hits: num("deadline_hits"),
                busy_rejections: num("busy_rejections"),
                store_write_failures: num("store_write_failures"),
                quarantined: resp
                    .get("quarantined")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|d| d.as_str().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default(),
            };
            out.push_str(&xtalk_sta::service_table(&counters));
            if let Some(sessions) = resp.get("sessions").and_then(Json::as_arr) {
                for s in sessions {
                    let n = |key: &str| s.get(key).and_then(Json::as_u64).unwrap_or(0);
                    let _ = writeln!(
                        out,
                        "session {}: {} gates, {} edits, cache {} hits / {} misses \
                         ({} admitted, {} skipped)",
                        s.str_field("design").unwrap_or("?"),
                        n("gates"),
                        n("edits"),
                        n("cache_hits"),
                        n("cache_misses"),
                        n("cache_admitted"),
                        n("cache_skipped")
                    );
                    // The per-session corner matrix: only worth a line
                    // once a corner replica beyond `base` is resident.
                    if let Some(corners) = s.get("corners").and_then(Json::as_arr) {
                        if corners.len() > 1 {
                            for c in corners {
                                let cn = |key: &str| c.get(key).and_then(Json::as_u64).unwrap_or(0);
                                let _ = writeln!(
                                    out,
                                    "  corner {}: {} edits, cache {} hits / {} misses",
                                    c.str_field("corner").unwrap_or("?"),
                                    cn("edits"),
                                    cn("cache_hits"),
                                    cn("cache_misses")
                                );
                            }
                        }
                    }
                }
            }
            if let Some(mm) = resp.get("macromodel") {
                let n = |key: &str| mm.get(key).and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "macromodel: {} models ({} usable), {} table hits, {} fallbacks",
                    n("models"),
                    n("usable"),
                    n("table_hits"),
                    n("table_fallbacks")
                );
            }
            if let Some(store) = resp.get("store") {
                let n = |key: &str| store.get(key).and_then(Json::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "store {}: {} replayed, {} corrupt skipped, {} stale skipped, \
                     {} appended, {} deduped, {} compactions ({} records dropped)",
                    store.str_field("path").unwrap_or("?"),
                    n("replayed"),
                    n("corrupt_skipped"),
                    n("stale_skipped"),
                    n("appended"),
                    n("deduped"),
                    n("compactions"),
                    n("compact_dropped")
                );
            }
        }
        "shutdown" => {
            let _ = writeln!(out, "daemon shutting down");
        }
        _ => {
            let _ = writeln!(out, "{resp}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("xtalk_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).expect("help works");
        assert!(out.contains("USAGE"));
        let out = run(&[]).expect("no args = help");
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let e = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        // Unknown commands are fatal (exit 1), not configuration errors.
        assert_eq!(e.code, 1);
    }

    #[test]
    fn unknown_corner_is_a_config_error_with_exit_2() {
        let bench = tmp("corners_cfg.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "8", &bench,
        ]))
        .expect("generate");
        let e = run(&argv(&["report", &bench, "--corners", "ss,zz"])).unwrap_err();
        assert_eq!(e.code, 2, "config errors exit 2: {e}");
        assert!(
            e.to_string().contains("zz") && e.to_string().contains("--corners"),
            "typed message names the flag and the bad token: {e}"
        );
        // The same parser guards the client-side flag.
        let e = run(&argv(&[
            "client",
            "analyze",
            "d",
            "--socket",
            "/nonexistent.sock",
            "--corner",
            "zz",
        ]))
        .unwrap_err();
        assert_eq!(e.code, 2, "client --corner uses the same typed path: {e}");
        // An empty list is rejected rather than silently running nothing.
        let e = run(&argv(&["report", &bench, "--corners", ""])).unwrap_err();
        assert_eq!(e.code, 2, "empty corner list is a config error: {e}");
    }

    #[test]
    fn analyze_is_an_alias_for_report() {
        let bench = tmp("alias.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "9", &bench,
        ]))
        .expect("generate");
        let a = run(&argv(&["analyze", &bench, "--mode", "best", "--bits"])).expect("analyze");
        let r = run(&argv(&["report", &bench, "--mode", "best", "--bits"])).expect("report");
        assert_eq!(
            mask_timing(&a),
            mask_timing(&r),
            "alias output must be identical"
        );
    }

    /// Masks what differs between two runs of one command in one test
    /// process: the wall-clock tokens (the analysis runtime in `(N passes,
    /// X.XX s)` and the characterization seconds) and the characterization
    /// line's process-lifetime counters, which other tests in the process
    /// move. Everything else — analysis text, delay bits, critical path,
    /// the characterized cell universe — stays compared exactly.
    fn mask_timing(out: &str) -> String {
        let seconds = |line: &str, open: &str, close: &str| -> String {
            match line.rfind(open) {
                Some(at) => {
                    let rest = &line[at + open.len()..];
                    let end = rest.find(close).map_or(rest.len(), |e| e);
                    format!("{}{open}_{}", &line[..at], &rest[end..])
                }
                None => line.to_string(),
            }
        };
        out.lines()
            .map(|line| {
                if line.contains(" passes, ") {
                    seconds(line, " passes, ", " s)")
                } else if let Some(universe) = line
                    .strip_prefix("characterization: ")
                    .and_then(|l| l.find(" for ").map(|at| &l[at..]))
                {
                    format!("characterization: _{}", seconds(universe, " in ", " s,"))
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn mask_timing_hides_only_clock_and_lifetime_tokens() {
        let a = "d: iterative: longest path delay 1.234 ns (2 passes, 0.05 s)\n\
                 characterization: 10 grid solves, 4 models (4 usable) for 8 arcs of 2 of 24 cells \
                 in 1.50 s, mode prewarm, store none\n\
                 delay bits: 00ff";
        let b = "d: iterative: longest path delay 1.234 ns (2 passes, 0.03 s)\n\
                 characterization: 90 grid solves, 9 models (8 usable) for 8 arcs of 2 of 24 cells \
                 in 0.00 s, mode prewarm, store none\n\
                 delay bits: 00ff";
        assert_eq!(mask_timing(a), mask_timing(b));
        for changed in [
            a.replace("1.234 ns", "1.235 ns"),
            a.replace("2 passes", "3 passes"),
            a.replace("for 8 arcs", "for 9 arcs"),
            a.replace("of 2 of", "of 3 of"),
            a.replace("mode prewarm", "mode lazy"),
            a.replace("00ff", "00fe"),
        ] {
            assert_ne!(mask_timing(a), mask_timing(&changed), "{changed}");
        }
    }

    #[test]
    fn corners_run_reports_every_corner_with_stable_bits() {
        let bench = tmp("corners_run.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "11", &bench,
        ]))
        .expect("generate");
        let out = run(&argv(&[
            "report",
            &bench,
            "--mode",
            "onestep",
            "--corners",
            "ss,tt,ff",
            "--bits",
            "--threads",
            "1",
        ]))
        .expect("corner run");
        let bits_of = |corner: &str, text: &str| {
            let prefix = format!("delay bits {corner}: ");
            text.lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()).map(str::to_string))
                .unwrap_or_else(|| panic!("missing bits line for {corner}: {text}"))
        };
        let ss = bits_of("ss", &out);
        assert_ne!(ss, bits_of("ff", &out), "derates must separate corners");
        // Each corner inside the matrix is bit-identical to its own
        // standalone single-corner run.
        let solo = run(&argv(&[
            "report",
            &bench,
            "--mode",
            "onestep",
            "--corners",
            "ss",
            "--bits",
            "--threads",
            "1",
        ]))
        .expect("solo ss");
        assert_eq!(ss, bits_of("ss", &solo));
    }

    #[test]
    fn generate_convert_report_roundtrip() {
        let bench = tmp("t1.bench");
        let out = run(&argv(&[
            "generate", "--preset", "small", "--seed", "5", &bench,
        ]))
        .expect("generate");
        assert!(out.contains("generated"));

        let v = tmp("t1.v");
        let out = run(&argv(&["convert", &bench, &v])).expect("convert");
        assert!(out.contains("converted"));

        let out = run(&argv(&[
            "report", &v, "--mode", "onestep", "--period", "30",
        ]))
        .expect("report");
        assert!(out.contains("critical path:"), "{out}");
        assert!(out.contains("Slack"), "{out}");
    }

    #[test]
    fn report_with_glitch_and_min_mode() {
        let bench = tmp("t2.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "6", &bench,
        ]))
        .expect("generate");
        let out = run(&argv(&["report", &bench, "--mode", "min"])).expect("min report");
        assert!(out.contains("shortest path delay"), "{out}");
        let out =
            run(&argv(&["report", &bench, "--mode", "best", "--glitch"])).expect("glitch report");
        assert!(out.contains("victims above"), "{out}");
    }

    #[test]
    fn flow_writes_verilog_and_spef_then_report_consumes_spef() {
        let bench = tmp("t3.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "7", &bench,
        ]))
        .expect("generate");
        let dir = tmp("flow_out");
        let out = run(&argv(&["flow", &bench, "--out", &dir])).expect("flow");
        assert!(out.contains("wrote"));
        let v = format!("{dir}/synth_small_7.v");
        let spef = format!("{dir}/synth_small_7.spef");
        assert!(std::path::Path::new(&v).exists());
        assert!(std::path::Path::new(&spef).exists());
        let out = run(&argv(&["report", &v, "--spef", &spef, "--mode", "best"]))
            .expect("report with spef");
        assert!(out.contains("critical path:"));
    }

    #[test]
    fn sdf_command_writes_file() {
        let bench = tmp("t5.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "9", &bench,
        ]))
        .expect("generate");
        let sdf = tmp("t5.sdf");
        let out = run(&argv(&["sdf", &bench, &sdf, "--mode", "onestep"])).expect("sdf");
        assert!(out.contains("IOPATH entries"));
        let text = std::fs::read_to_string(&sdf).expect("sdf file");
        assert!(text.starts_with("(DELAYFILE"));
    }

    #[test]
    fn liberty_writes_selected_cells() {
        let lib = tmp("cells.lib");
        let out = run(&argv(&["liberty", &lib, "--cells", "INVX1,NAND2X1"])).expect("liberty");
        assert!(out.contains("characterized 2 cells"));
        let text = std::fs::read_to_string(&lib).expect("lib file");
        assert!(text.contains("cell (INVX1)"));
        assert!(text.contains("cell_rise"));
    }

    #[test]
    fn eco_replays_edit_script_and_checks() {
        let bench = tmp("t6.bench");
        std::fs::write(
            &bench,
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nw1 = NOT(a)\nw2 = NAND(w1, b)\ny = NOT(w2)\n",
        )
        .expect("write bench");
        let script = tmp("t6.eco");
        std::fs::write(
            &script,
            "# lengthen w1, then split w2\nreroute w1 2.5\nbuffer w2\n",
        )
        .expect("write script");
        let out = run(&argv(&[
            "eco", &bench, &script, "--mode", "onestep", "--check",
        ]))
        .expect("eco");
        assert!(out.contains("baseline One step:"), "{out}");
        assert!(out.contains("applied 2 edits"), "{out}");
        assert!(out.contains("matches batch"), "{out}");

        let bad = tmp("t6bad.eco");
        std::fs::write(&bad, "resize no_such_gate INVX4\n").expect("write script");
        let e = run(&argv(&["eco", &bench, &bad])).unwrap_err();
        assert!(e.to_string().contains("unknown gate"), "{e}");
    }

    #[test]
    fn report_threads_flag_matches_serial_and_prints_solver_line() {
        let bench = tmp("t7.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "11", &bench,
        ]))
        .expect("generate");
        let serial = run(&argv(&[
            "report",
            &bench,
            "--mode",
            "onestep",
            "--threads",
            "1",
        ]))
        .expect("serial report");
        let par = run(&argv(&[
            "report",
            &bench,
            "--mode",
            "onestep",
            "--threads",
            "2",
        ]))
        .expect("parallel report");
        assert!(serial.contains("solver:"), "{serial}");
        // The timing lines must agree exactly between a serial and a
        // 2-thread run (runtime differs, so compare up to the parenthesis).
        let delay = |s: &str| {
            s.lines()
                .find(|l| l.contains("path delay"))
                .and_then(|l| l.split('(').next())
                .map(str::to_string)
        };
        assert_eq!(delay(&serial), delay(&par));
        assert!(run(&argv(&["report", &bench, "--threads", "0"])).is_err());
        assert!(run(&argv(&["report", &bench, "--threads"])).is_err());
    }

    #[test]
    fn cache_admission_flag_parses_and_never_changes_results() {
        let bench = tmp("t9.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "13", &bench,
        ]))
        .expect("generate");
        let cost = run(&argv(&[
            "report",
            &bench,
            "--mode",
            "iterative",
            "--cache-admission",
            "cost",
        ]))
        .expect("cost admission");
        // `--flag=value` spelling must parse identically.
        let all = run(&argv(&[
            "report",
            &bench,
            "--mode",
            "iterative",
            "--cache-admission=all",
        ]))
        .expect("admit-all");
        let delay = |s: &str| {
            s.lines()
                .find(|l| l.contains("path delay"))
                .and_then(|l| l.split('(').next())
                .map(str::to_string)
        };
        assert_eq!(
            delay(&cost),
            delay(&all),
            "admission changes reuse, never results"
        );
        assert!(cost.contains("newton iters"), "{cost}");
        assert!(run(&argv(&["report", &bench, "--cache-admission", "sometimes"])).is_err());
    }

    #[test]
    fn clean_run_exits_zero_also_under_strict() {
        let bench = tmp("t8.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "12", &bench,
        ]))
        .expect("generate");
        let outcome = run_with_code(&argv(&["report", &bench, "--mode", "best"])).expect("report");
        assert_eq!(outcome.exit_code, 0, "clean run must exit 0");
        assert!(
            !outcome.text.contains("diagnostics:"),
            "clean output mentions no diagnostics: {}",
            outcome.text
        );
        let strict = run_with_code(&argv(&["report", &bench, "--mode", "best", "--strict"]))
            .expect("a clean design passes strict mode");
        assert_eq!(strict.exit_code, 0);
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(run(&argv(&["report"])).is_err());
        assert!(run(&argv(&["report", "/nonexistent.bench"])).is_err());
        assert!(run(&argv(&["generate", "--preset", "nope", "x.bench"])).is_err());
        assert!(run(&argv(&["convert", "a.txt", "b.txt"])).is_err());
        let bench = tmp("t4.bench");
        run(&argv(&[
            "generate", "--preset", "small", "--seed", "8", &bench,
        ]))
        .expect("generate");
        assert!(run(&argv(&["report", &bench, "--mode", "warp"])).is_err());
    }
}
