//! One repetition of each workload, run in a fresh child process.
//!
//! Every repetition makes the calls a user's command makes, in the same
//! order, through the crates' public functions, and times them from the
//! outside: no program code is changed. A repetition returns its samples
//! as a [`Sample`]; its output checks count against the operations it
//! attempted.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xtalk::layout::{extract, place, route};
use xtalk::netlist::bench;
use xtalk::prelude::*;
use xtalk::sim::align::coordinate_ascent;
use xtalk::sim::path::simulate_path;
use xtalk::sim::SimOptions;
use xtalk::sta::graph::TimingGraph;
use xtalk::sta::serve::{Client, Daemon, Json, ServeConfig};
use xtalk::wave::macromodel;

use crate::gen::{Request, Workload};
use crate::trace::Tracer;

/// Worker threads of every analyzer and daemon the benchmark starts.
pub const THREADS: usize = 2;

/// The analysis mode of every workload.
const MODE: AnalysisMode = AnalysisMode::Iterative { esperance: false };

/// The corner matrix of `block_corners`.
const CORNERS: &str = "ss,tt,ff";

/// Aggressors placed on the simulated critical path (paper §6).
const SIM_AGGRESSORS: usize = 3;

/// What one child process measured.
///
/// An operation fails when it errors, gets a non-`ok` response, returns a
/// degraded (diagnostic-carrying) result or fails an output check. Only
/// errors and failed checks make the output wrong: a degraded result is
/// still the analyzer's certified conservative bound, and it must pass
/// every output check like any other.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    /// Metric name to samples.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, for any of the reasons above.
    pub failed: u64,
    /// Failed operations whose output was wrong or missing.
    pub wrong: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Sample {
    /// Records one value of `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_string()).or_default().push(value);
    }

    /// Counts one operation with the verdict of its output checks.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.op_degraded(verdict, None);
    }

    /// Counts one operation with its check verdict and, if its result was
    /// degraded, the diagnostic.
    pub fn op_degraded(&mut self, verdict: Result<(), String>, degraded: Option<String>) {
        self.attempted += 1;
        match (verdict, degraded) {
            (Err(e), _) => self.fail(e),
            (Ok(()), Some(d)) => {
                self.failed += 1;
                self.errors.push(format!("degraded: {d}"));
            }
            (Ok(()), None) => {}
        }
    }

    /// Marks one already counted operation as failed with a wrong output.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.wrong += 1;
        self.errors.push(error);
    }

    /// Appends everything `other` measured.
    pub fn merge(&mut self, other: Sample) {
        for (k, v) in other.values {
            self.values.entry(k).or_default().extend(v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.errors.extend(other.errors);
    }

    /// Serializes for the parent process.
    pub fn to_json(&self) -> Json {
        let values = self
            .values
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::Arr(v.iter().map(|&x| Json::num(x)).collect()),
                )
            })
            .collect();
        Json::obj(vec![
            ("values", Json::Obj(values)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("wrong", Json::num(self.wrong as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::str(e.clone())).collect()),
            ),
        ])
    }

    /// Parses [`to_json`](Self::to_json) output.
    pub fn from_json(doc: &Json) -> Option<Sample> {
        let mut sample = Sample::default();
        let Some(Json::Obj(values)) = doc.get("values") else {
            return None;
        };
        for (k, v) in values {
            let list = v
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<f64>>>()?;
            sample.values.insert(k.clone(), list);
        }
        sample.attempted = doc.get("attempted")?.as_u64()?;
        sample.failed = doc.get("failed")?.as_u64()?;
        sample.wrong = doc.get("wrong")?.as_u64()?;
        sample.errors = doc
            .get("errors")?
            .as_arr()?
            .iter()
            .filter_map(|e| e.as_str().map(str::to_string))
            .collect();
        Some(sample)
    }
}

/// One child's job description.
#[derive(Debug, Clone)]
pub struct Job {
    /// The workload.
    pub workload: Workload,
    /// Work directory holding the generated inputs.
    pub dir: PathBuf,
    /// Record spans and write them to `trace_path`.
    pub traced: bool,
    /// Run the expensive output checks (once per run).
    pub check: bool,
    /// Repetition index within the run (names per-repetition files).
    pub index: usize,
    /// Number of generated designs.
    pub designs: usize,
    /// Where a traced repetition writes its Chrome trace.
    pub trace_path: PathBuf,
    /// Run metadata, embedded in the trace file.
    pub meta: Json,
}

impl Job {
    /// The generated netlist of design `d`.
    pub fn netlist_path(&self, d: usize) -> PathBuf {
        self.dir.join(format!("design{d}.bench"))
    }

    /// The generated ECO service request stream.
    pub fn stream_path(&self) -> PathBuf {
        self.dir.join("stream.txt")
    }

    fn char_store_path(&self) -> PathBuf {
        self.dir.join("char.store")
    }

    fn seed_solves_path(&self) -> PathBuf {
        self.dir.join("seed.solves")
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The CLI's execution configuration with `--threads 2`.
fn exec_config() -> Result<ExecConfig, String> {
    Ok(ExecConfig::from_env().map_err(err)?.with_threads(THREADS))
}

/// Peak resident memory of this process so far, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first diagnostic of a degraded report.
fn degraded(report: &ModeReport) -> Option<String> {
    report.degraded().then(|| {
        format!(
            "{} diagnostic(s), first: {}",
            report.diagnostics.len(),
            report
                .diagnostics
                .first()
                .map(ToString::to_string)
                .unwrap_or_default()
        )
    })
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The design as a user's command loads it: the c05um technology, the
/// netlist file parsed and validated, then place, route and extract.
struct Loaded {
    process: Process,
    library: Library,
    netlist: Netlist,
    parasitics: xtalk::layout::Parasitics,
    wirelength: f64,
}

fn load(path: &Path, t: &mut Tracer, s: &mut Sample) -> Result<Loaded, String> {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let open = t.begin("netlist.parse", None);
    let text = std::fs::read_to_string(path).map_err(err)?;
    let netlist = bench::parse(&text, &library).map_err(err)?;
    netlist.validate(&library).map_err(err)?;
    s.put("netlist.parse_s", t.end(open, &[]));
    let (placement, secs) = t.time("layout.place", || {
        place::place(&netlist, &library, &process)
    });
    s.put("layout.place_s", secs);
    let (routes, secs) = t.time("layout.route", || {
        route::route(&netlist, &placement, &process)
    });
    s.put("layout.route_s", secs);
    let (parasitics, secs) = t.time("layout.extract", || {
        extract::extract(&netlist, &routes, &process)
    });
    s.put("layout.extract_s", secs);
    Ok(Loaded {
        process,
        library,
        netlist,
        parasitics,
        wirelength: routes.total_wirelength(),
    })
}

/// Puts the analysis-pass counters of `reports`.
fn put_passes<'r>(s: &mut Sample, reports: impl IntoIterator<Item = &'r ModeReport>) {
    let (mut passes, mut calls, mut solves, mut iters) = (0, 0, 0, 0);
    let (mut hits, mut fallbacks, mut cache_hits) = (0, 0, 0);
    for r in reports {
        passes += r.passes;
        calls += r.stage_solves;
        solves += r.newton_solves;
        iters += r.newton_iters;
        hits += r.table_hits;
        fallbacks += r.table_fallbacks;
        cache_hits += r.cache_hits;
    }
    s.put("kernel.passes", passes as f64);
    s.put("kernel.stage_solves", calls as f64);
    s.put("kernel.newton_solves", solves as f64);
    s.put("kernel.newton_iters", iters as f64);
    s.put("macromodel.table_hits", hits as f64);
    s.put("macromodel.table_fallbacks", fallbacks as f64);
    s.put("macromodel.table_hit_ratio", ratio(hits, hits + fallbacks));
    s.put("exec.cache_hit_ratio", ratio(cache_hits, calls));
}

/// Puts the characterization counters that moved between two snapshots.
fn put_characterization(s: &mut Sample, before: &macromodel::StoreStats) {
    let after = macromodel::stats();
    s.put(
        "macromodel.char_solves",
        after.char_solves.saturating_sub(before.char_solves) as f64,
    );
    s.put(
        "macromodel.models",
        after.models.saturating_sub(before.models) as f64,
    );
}

/// The text `xtalk report` prints for one analysis (header, summary,
/// solver table, delay bits, critical path).
fn report_text(d: &Loaded, report: &ModeReport) -> String {
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
        "{}: longest path delay {:.3} ns ({} passes, {:.2} s)",
        report.mode,
        report.longest_delay * 1e9,
        report.passes,
        report.runtime.as_secs_f64()
    );
    if let Some(line) = xtalk::sta::fallback_reason_line(report) {
        let _ = writeln!(out, "{line}");
    }
    out.push_str(&xtalk::sta::report::solver_table(report));
    let _ = writeln!(out, "delay bits: {:016x}", report.longest_delay.to_bits());
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
    out
}

/// Runs one repetition of `job`'s workload.
pub fn rep(job: &Job) -> Sample {
    let mut s = Sample::default();
    let result = match job.workload {
        Workload::ChipIterative => chip(job, &mut s),
        Workload::BlockCorners => corners(job, &mut s),
        Workload::EcoService => eco_session(job, &mut s, true),
    };
    if let Err(e) = result {
        s.op(Err(e));
    }
    s
}

/// A set-up-only repetition of the ECO service: bind, load, shut down.
pub fn eco_setup(job: &Job) -> Sample {
    let mut s = Sample::default();
    if let Err(e) = eco_session(job, &mut s, false) {
        s.op(Err(e));
    }
    s
}

fn write_trace(job: &Job, t: &Tracer, s: &mut Sample) -> Result<(), String> {
    if !t.on() {
        return Ok(());
    }
    for (layer, secs) in t.self_times() {
        s.put(&format!("self.{layer}_s"), secs);
    }
    s.put("trace.spans", t.spans().len() as f64);
    std::fs::write(&job.trace_path, t.to_chrome_json(job.meta.clone()).write()).map_err(err)
}

// ---------------------------------------------------------------------
// chip_iterative: the calls `xtalk report <netlist> --threads 2 --bits`
// makes, on an s38417-scale design.

fn chip(job: &Job, s: &mut Sample) -> Result<(), String> {
    let mut t = Tracer::new(job.traced);
    let root = t.begin("run", None);
    let start = Instant::now();
    let d = load(&job.netlist_path(0), &mut t, s)?;
    let before = macromodel::stats();
    let open = t.begin("sta.with_config", None);
    let sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        exec_config()?,
    )
    .map_err(err)?;
    let with_config_s = t.end(open, &[]);
    put_characterization(s, &before);
    let setup_s = start.elapsed().as_secs_f64();
    let open = t.begin("sta.analyze", None);
    let report = sta.analyze(MODE).map_err(err)?;
    s.put(
        "sta.analyze_s",
        t.end(open, &[("newton_iters", report.newton_iters as f64)]),
    );
    let (text, _) = t.time("report.text", || report_text(&d, &report));
    std::hint::black_box(&text);
    let wall_s = start.elapsed().as_secs_f64();
    t.end(root, &[]);
    s.put("setup_s", setup_s);
    s.put("wall_s", wall_s);
    s.put("longest_ns", report.longest_delay * 1e9);
    s.put("peak_rss_mb", peak_rss_mb());
    put_passes(s, [&report]);
    drop(sta);

    // Untimed from here on. The graph build `Sta::with_config` performs,
    // timed on its own: characterization is the rest of that call.
    let (graph, graph_s) = t.time("graph.build", || {
        TimingGraph::build(&d.netlist, &d.library, &d.process, &d.parasitics)
    });
    graph.map_err(err)?;
    s.put("graph.build_s", graph_s);
    s.put("macromodel.prewarm_s", (with_config_s - graph_s).max(0.0));

    let mut verdict = Ok(());
    if job.check {
        let open = t.begin("check.cli", None);
        verdict = check_cli_bits(&job.netlist_path(0), &report);
        t.end(open, &[]);
    }
    if verdict.is_ok() && job.check {
        let open = t.begin("check.sim", None);
        verdict = check_simulation(d, &report);
        t.end(open, &[]);
    }
    s.op_degraded(verdict, degraded(&report));
    write_trace(job, &t, s)
}

/// The benchmark's delay bits equal those `xtalk report --bits` prints for
/// the same netlist file, so the benchmark measures the CLI's path.
fn check_cli_bits(path: &Path, report: &ModeReport) -> Result<(), String> {
    let args: Vec<String> = [
        "report",
        path.to_str().ok_or("netlist path is not UTF-8")?,
        "--mode",
        "iterative",
        "--threads",
        "2",
        "--bits",
    ]
    .iter()
    .map(|a| a.to_string())
    .collect();
    let out = xtalk::cli::run(&args).map_err(|e| format!("xtalk report failed: {e}"))?;
    let want = format!("{:016x}", report.longest_delay.to_bits());
    let got = out
        .lines()
        .find_map(|l| l.strip_prefix("delay bits: "))
        .ok_or("xtalk report printed no delay bits")?;
    if got != want {
        return Err(format!(
            "delay bits {want} differ from `xtalk report --bits` {got}"
        ));
    }
    Ok(())
}

/// Paper §6: an aligned-aggressor transient simulation of the critical
/// path must not exceed the reported longest path.
///
/// The path comes from `xtalk_bench::to_sim_spec` and is simulated the way
/// `xtalk_bench::simulate_spec` does (quiet run, aggressors anchored on its
/// crossings, coordinate ascent). `simulate_spec` lets the simulator guess
/// a stop time of 0.6 ns per gate, which ends before the output of the
/// longest s38417-scale paths switches; here the stop time covers the
/// analyzed span instead.
fn check_simulation(d: Loaded, report: &ModeReport) -> Result<(), String> {
    let design = xtalk_bench::Design {
        process: d.process,
        library: d.library,
        netlist: d.netlist,
        parasitics: d.parasitics,
        wirelength: d.wirelength,
        prep_seconds: 0.0,
    };
    let spec = xtalk_bench::to_sim_spec(&design, report, SIM_AGGRESSORS)
        .ok_or("critical path has no combinational span to simulate")?;
    let options = SimOptions {
        t_stop: spec.spec.input_wave.end_time() + 1.5 * spec.sta_delay + 4e-9,
        ..SimOptions::default()
    };
    let simulate = |path: &xtalk::sim::PathSpec, times: &[f64]| {
        simulate_path(
            &design.netlist,
            &design.library,
            &design.process,
            &design.parasitics,
            path,
            times,
            Some(options.clone()),
        )
    };
    let mut quiet_spec = spec.spec.clone();
    quiet_spec.aggressors.clear();
    let quiet = simulate(&quiet_spec, &[]).map_err(|e| format!("quiet simulation: {e}"))?;
    let th = design.process.delay_threshold();
    let t0: Vec<f64> = spec
        .anchors
        .iter()
        .zip(&spec.t0)
        .map(|(&(step, rising), &fallback)| {
            quiet
                .net_nodes
                .get(step)
                .and_then(|&node| quiet.transient.last_crossing(node, th, rising))
                .unwrap_or(fallback)
        })
        .collect();
    let (aligned, _) = coordinate_ascent(
        |times| simulate(&spec.spec, times).ok().map(|r| r.delay),
        t0,
        0.12e-9,
        2,
    );
    let span_start = report.longest_delay - spec.sta_delay;
    let simulated = span_start + aligned.max(quiet.delay);
    if simulated.is_nan() || simulated > report.longest_delay {
        return Err(format!(
            "aligned simulation {:.4} ns exceeds the reported longest path {:.4} ns",
            simulated * 1e9,
            report.longest_delay * 1e9
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// block_corners: `xtalk analyze --corners ss,tt,ff --threads 2`, then the
// same matrix with `--signoff`.

fn corners(job: &Job, s: &mut Sample) -> Result<(), String> {
    let corners = xtalk::sta::exec::parse_corners("corners", CORNERS).map_err(err)?;
    let mut t = Tracer::new(job.traced);
    let root = t.begin("run", None);
    let start = Instant::now();
    let d = load(&job.netlist_path(0), &mut t, s)?;
    let (matrix, _) = t.time("scenario.new", || {
        ScenarioMatrix::new(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            corners.clone(),
            exec_config()?,
        )
        .map_err(err)
    });
    let matrix = matrix?;
    let before = macromodel::stats();
    let ((), prewarm_s) = t.time("scenario.prewarm", || matrix.prewarm());
    put_characterization(s, &before);
    s.put("scenario.prewarm_s", prewarm_s);
    s.put("macromodel.prewarm_s", prewarm_s);
    let setup_s = start.elapsed().as_secs_f64();
    let (fast, run_s) = t.time("scenario.run", || matrix.run(&[MODE]));
    let fast = fast.map_err(err)?;
    s.put("scenario.run_s", run_s);
    s.put("sta.analyze_s", run_s);
    let (text, _) = t.time("report.text", || scenario_text(&d, &fast));
    std::hint::black_box(&text);
    let wall_s = start.elapsed().as_secs_f64();

    let signoff_start = Instant::now();
    let (exact, _) = t.time("scenario.new", || {
        ScenarioMatrix::new(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            corners.clone(),
            exec_config()?.with_signoff(true),
        )
        .map_err(err)
    });
    let exact = exact?;
    let (signoff, signoff_run_s) = t.time("scenario.signoff_run", || exact.run(&[MODE]));
    let signoff = signoff.map_err(err)?;
    let (text, _) = t.time("report.text", || scenario_text(&d, &signoff));
    std::hint::black_box(&text);
    let signoff_wall_s = signoff_start.elapsed().as_secs_f64();
    t.end(root, &[]);
    s.put("peak_rss_mb", peak_rss_mb());

    let worst = |r: &ScenarioReport| {
        r.corners
            .iter()
            .map(|c| c.reports[0].longest_delay)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let longest = worst(&fast);
    s.put("setup_s", setup_s);
    s.put("wall_s", wall_s);
    s.put("longest_ns", longest * 1e9);
    s.put("signoff_wall_s", signoff_wall_s);
    s.put("scenario.signoff_run_s", signoff_run_s);
    s.put("signoff_gap_ns", (longest - worst(&signoff)) * 1e9);
    let reports = fast
        .corners
        .iter()
        .chain(&signoff.corners)
        .flat_map(|c| &c.reports);
    put_passes(s, reports);
    let iters: usize = fast.corner_iters.iter().chain(&signoff.corner_iters).sum();
    s.put("scenario.newton_iters", iters as f64);

    // Untimed: the graph builds `run` performs per corner.
    let mut graph_s = 0.0;
    for corner in &corners {
        let process = d.process.corner(corner);
        let (graph, secs) = t.time("graph.build", || {
            TimingGraph::build(&d.netlist, &d.library, &process, &d.parasitics)
        });
        graph.map_err(err)?;
        graph_s += secs;
    }
    s.put("graph.build_s", graph_s);

    // Two operations: the default matrix, which must never report less
    // than the exact engine in any corner, and the signoff matrix.
    let open = t.begin("check.corners", None);
    let mut fast_verdict = Ok(());
    let (mut fast_degraded, mut exact_degraded) = (None, None);
    for (f, x) in fast.corners.iter().zip(&signoff.corners) {
        let (fr, xr) = (&f.reports[0], &x.reports[0]);
        let corner = |d: String| format!("corner {}: {d}", f.corner);
        fast_degraded = fast_degraded.or(degraded(fr).map(corner));
        exact_degraded = exact_degraded.or(degraded(xr).map(|d| format!("signoff {}", corner(d))));
        if f.corner != x.corner || fr.longest_delay.is_nan() || fr.longest_delay < xr.longest_delay
        {
            fast_verdict = fast_verdict.and(Err(format!(
                "corner {}: default {:.4} ns below signoff {:.4} ns",
                f.corner,
                fr.longest_delay * 1e9,
                xr.longest_delay * 1e9
            )));
        }
    }
    t.end(open, &[]);
    s.op_degraded(fast_verdict, fast_degraded);
    s.op_degraded(Ok(()), exact_degraded);
    write_trace(job, &t, s)
}

/// The text `xtalk analyze --corners ... --bits` prints.
fn scenario_text(d: &Loaded, report: &ScenarioReport) -> String {
    let mut out = xtalk::sta::corner_summary_table(report);
    out.push_str(&xtalk::sta::scenario_table(&d.netlist, report, 10));
    for run in &report.corners {
        let _ = writeln!(
            out,
            "delay bits {}: {:016x}",
            run.corner,
            run.reports[0].longest_delay.to_bits()
        );
    }
    out
}

// ---------------------------------------------------------------------
// eco_service: one closed-loop client of an in-process daemon.

fn serve_config(job: &Job, socket: &Path, solves: PathBuf) -> Result<ServeConfig, String> {
    Ok(ServeConfig::new(socket)
        .with_store(Some(solves))
        .with_exec(exec_config()?.with_char_store(Some(job.char_store_path()))))
}

/// A daemon on its own thread, shut down and joined on drop if the
/// session did not get to shut it down itself.
struct Served {
    socket: PathBuf,
    handle: Option<std::thread::JoinHandle<std::io::Result<xtalk::sta::serve::ServeSummary>>>,
}

impl Served {
    fn start(config: ServeConfig, socket: &Path) -> Result<(Served, Client), String> {
        let daemon = Daemon::bind(config).map_err(|e| format!("bind: {e}"))?;
        let served = Served {
            socket: socket.to_path_buf(),
            handle: Some(std::thread::spawn(move || daemon.run())),
        };
        let client = Client::connect_retry(socket, Duration::from_secs(30))
            .map_err(|e| format!("connect: {e}"))?;
        Ok((served, client))
    }

    fn join(&mut self) -> Result<(), String> {
        match self.handle.take().map(|h| h.join()) {
            Some(Ok(Ok(_))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon: {e}")),
            Some(Err(_)) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if self.handle.is_some() {
            if let Ok(mut c) = Client::connect(&self.socket) {
                let _ = c.shutdown();
            }
            let _ = self.join();
        }
    }
}

/// The response says `ok: true`.
fn response_ok(resp: &Json) -> Result<(), String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "daemon answered: {}",
            resp.str_field("error").unwrap_or("malformed response")
        ));
    }
    Ok(())
}

/// The response carries a severity or diagnostics.
fn response_degraded(resp: &Json) -> Option<String> {
    (resp.get("severity").is_some() || resp.get("diagnostics").is_some()).then(|| resp.write())
}

/// Session name of design `d`.
fn session(d: usize) -> String {
    format!("block{d}")
}

/// Loads every design into the daemon; returns the summed load time.
fn load_designs(
    job: &Job,
    client: &mut Client,
    t: &mut Tracer,
    s: &mut Sample,
) -> Result<f64, String> {
    let mut load_s = 0.0;
    for d in 0..job.designs {
        let path = job.netlist_path(d);
        let path = path.to_str().ok_or("netlist path is not UTF-8")?;
        let open = t.begin("serve.load", Some(0));
        let loaded = client.load(&session(d), path, None).map_err(err)?;
        load_s += t.end(open, &[("store_replayed", num(&loaded, "store_replayed"))]);
        s.op_degraded(response_ok(&loaded), response_degraded(&loaded));
    }
    Ok(load_s)
}

/// Builds the characterization store and the seed solve store from this
/// code: a daemon loads the designs with both stores, analyzes each once
/// and shuts down. Untimed.
pub fn eco_prep(job: &Job) -> Result<(), String> {
    let socket = job.dir.join("prep.sock");
    let config = serve_config(job, &socket, job.seed_solves_path())?;
    let (mut served, mut client) = Served::start(config, &socket)?;
    let mut scratch = Sample::default();
    load_designs(job, &mut client, &mut Tracer::new(false), &mut scratch)?;
    if let Some(e) = scratch.errors.first() {
        return Err(e.clone());
    }
    for d in 0..job.designs {
        response_ok(&client.analyze(&session(d), None).map_err(err)?)?;
    }
    response_ok(&client.shutdown().map_err(err)?)?;
    served.join()
}

/// Reads the stream file: one `<design> <command> [arguments]` request per
/// line, edits separated by `;`.
pub fn parse_stream(text: &str) -> Result<Vec<(usize, Request)>, String> {
    text.lines()
        .map(|line| {
            let bad = || format!("bad stream line `{line}`");
            let (design, rest) = line.split_once(' ').ok_or_else(bad)?;
            let design: usize = design.parse().map_err(|_| bad())?;
            let (cmd, rest) = rest.split_once(' ').unwrap_or((rest, ""));
            let edits = || rest.split(';').map(str::to_string).collect::<Vec<_>>();
            let request = match cmd {
                "analyze" => Request::Analyze,
                "query" => Request::Query(rest.to_string()),
                "eco" => Request::Eco(edits()),
                "what-if" => Request::WhatIf(edits()),
                _ => return Err(bad()),
            };
            Ok((design, request))
        })
        .collect()
}

/// Writes a stream in [`parse_stream`]'s format.
pub fn format_stream(stream: &[(usize, Request)]) -> String {
    let mut out = String::new();
    for (d, r) in stream {
        let _ = match r {
            Request::Analyze => writeln!(out, "{d} analyze"),
            Request::Query(net) => writeln!(out, "{d} query {net}"),
            Request::Eco(e) => writeln!(out, "{d} eco {}", e.join(";")),
            Request::WhatIf(e) => writeln!(out, "{d} what-if {}", e.join(";")),
        };
    }
    out
}

fn num(resp: &Json, key: &str) -> f64 {
    resp.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// What the client checks along one design's requests.
#[derive(Default)]
struct Ledger {
    /// Edits committed so far, in order.
    committed: Vec<String>,
    /// Delay bits of the committed design, once analyzed.
    committed_bits: Option<String>,
    /// An edit was committed since the last analysis.
    dirty: bool,
    /// Arrival bits per endpoint in the current committed design.
    arrivals: HashMap<String, String>,
}

impl Ledger {
    fn check(&mut self, request: &Request, resp: &Json) -> Result<(), String> {
        response_ok(resp)?;
        match request {
            Request::Eco(lines) => {
                if resp.get("applied").and_then(Json::as_u64) != Some(lines.len() as u64) {
                    return Err(format!(
                        "eco applied {} of {}",
                        num(resp, "applied"),
                        lines.len()
                    ));
                }
                self.committed.extend(lines.iter().cloned());
                self.dirty = true;
                self.arrivals.clear();
            }
            Request::Analyze => {
                let bits = resp
                    .str_field("delay_bits")
                    .ok_or("analyze without delay bits")?;
                if self.dirty || self.committed_bits.is_none() {
                    self.committed_bits = Some(bits.to_string());
                    self.dirty = false;
                } else if self.committed_bits.as_deref() != Some(bits) {
                    return Err(format!(
                        "committed delay bits changed from {:?} to {bits} without a commit",
                        self.committed_bits
                    ));
                }
            }
            Request::WhatIf(_) => {
                if resp.get("rolled_back").and_then(Json::as_bool) != Some(true) {
                    return Err("what-if did not roll back".to_string());
                }
                resp.str_field("delay_bits")
                    .ok_or("what-if without delay bits")?;
            }
            Request::Query(net) => {
                let bits = resp
                    .str_field("arrival_bits")
                    .ok_or("query without arrival bits")?;
                let seen = self
                    .arrivals
                    .entry(net.clone())
                    .or_insert_with(|| bits.to_string());
                if seen != bits {
                    return Err(format!("arrival of {net} changed without a commit"));
                }
            }
        }
        Ok(())
    }
}

fn span_name(request: &Request) -> &'static str {
    match request {
        Request::Eco(_) => "serve.eco",
        Request::WhatIf(_) => "serve.what_if",
        Request::Analyze => "serve.analyze",
        Request::Query(_) => "serve.query",
    }
}

fn eco_session(job: &Job, s: &mut Sample, full: bool) -> Result<(), String> {
    let stream = if full {
        parse_stream(&std::fs::read_to_string(job.stream_path()).map_err(err)?)?
    } else {
        Vec::new()
    };
    let tag = if full { "rep" } else { "setup" };
    let solves = job.dir.join(format!("{tag}{}.solves", job.index));
    std::fs::copy(job.seed_solves_path(), &solves).map_err(err)?;
    let socket = job.dir.join(format!("{tag}{}.sock", job.index));
    let config = serve_config(job, &socket, solves)?;

    let mut t = Tracer::new(job.traced);
    let root = t.begin("run", None);
    let start = Instant::now();
    let open = t.begin("serve.bind", None);
    let (mut served, mut client) = Served::start(config, &socket)?;
    t.end(open, &[]);
    let load_s = load_designs(job, &mut client, &mut t, s)?;
    s.put("setup_s", start.elapsed().as_secs_f64());
    s.put("serve.load_s", load_s);
    if let Ok(store) = xtalk::sta::open_char_store(&job.char_store_path()) {
        s.put("charstore.replayed", store.stats().replayed as f64);
    }

    let mut ledgers: Vec<Ledger> = (0..job.designs).map(|_| Ledger::default()).collect();
    let (mut iters, mut calls, mut hits) = (0.0, 0.0, 0.0);
    let stream_start = Instant::now();
    for (i, (d, request)) in stream.iter().enumerate() {
        let ledger = ledgers
            .get_mut(*d)
            .ok_or("stream names an unknown design")?;
        let design = session(*d);
        let open = t.begin(span_name(request), Some(i as u64 + 1));
        let resp = match request {
            Request::Eco(lines) => {
                let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
                client.eco(&design, &lines)
            }
            Request::WhatIf(lines) => {
                let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
                client.what_if(&design, &lines, None)
            }
            Request::Analyze => client.analyze(&design, None),
            Request::Query(net) => client.query(&design, net, None, None),
        }
        .map_err(err)?;
        let secs = t.end(
            open,
            &[
                ("newton_iters", num(&resp, "newton_iters")),
                ("stage_solves", num(&resp, "stage_solves")),
                ("cache_hits", num(&resp, "cache_hits")),
            ],
        );
        iters += num(&resp, "newton_iters");
        calls += num(&resp, "stage_solves");
        hits += num(&resp, "cache_hits");
        s.put(
            &format!("lat.{}_ms", &span_name(request)["serve.".len()..]),
            secs * 1e3,
        );
        s.op_degraded(
            ledger
                .check(request, &resp)
                .map_err(|e| format!("request {}: {e}", i + 1)),
            response_degraded(&resp).map(|d| format!("request {}: {d}", i + 1)),
        );
    }
    let stream_s = stream_start.elapsed().as_secs_f64();

    let mut stats = Json::Null;
    if full {
        let open = t.begin("serve.stats", Some(stream.len() as u64 + 1));
        stats = client.stats().map_err(err)?;
        t.end(open, &[]);
        s.op(response_ok(&stats));
    }
    let open = t.begin("serve.shutdown", Some(stream.len() as u64 + 2));
    let bye = client.shutdown().map_err(err)?;
    t.end(open, &[]);
    s.op(response_ok(&bye));
    let wall_s = start.elapsed().as_secs_f64();
    t.end(root, &[]);
    served.join()?;
    if !full {
        return Ok(());
    }
    s.put("wall_s", wall_s);
    s.put("peak_rss_mb", peak_rss_mb());
    s.put("lat.stream_s", stream_s);
    s.put("serve.newton_iters", iters);
    s.put("serve.stage_solves", calls);
    s.put("serve.cache_hits", hits);
    let store = stats.get("store");
    for (key, metric) in [
        ("replayed", "store.replayed"),
        ("appended", "store.appended"),
        ("deduped", "store.deduped"),
    ] {
        s.put(
            metric,
            store
                .and_then(|x| x.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
    }
    let mm = stats.get("macromodel");
    let mm = |key: &str| {
        mm.and_then(|m| m.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    s.put("macromodel.char_solves", mm("char_solves"));
    s.put("macromodel.models", mm("models"));
    s.put("macromodel.table_hits", mm("table_hits"));
    s.put("macromodel.table_fallbacks", mm("table_fallbacks"));
    let (th, tf) = (mm("table_hits"), mm("table_fallbacks"));
    s.put(
        "macromodel.table_hit_ratio",
        if th + tf > 0.0 { th / (th + tf) } else { 0.0 },
    );
    if mm("char_solves") != 0.0 {
        s.fail(format!(
            "store-warm daemon ran {} characterization solves",
            mm("char_solves")
        ));
    }

    // Untimed: each design's final committed delay must equal a fresh batch
    // replay of its committed edits. The longest path reported is the
    // worst design's.
    let mut longest = f64::NEG_INFINITY;
    for (d, ledger) in ledgers.iter().enumerate() {
        let Some(bits) = ledger.committed_bits.clone() else {
            s.fail(format!("design {d} was never analyzed"));
            continue;
        };
        let delay = xtalk::sta::serve::proto::f64_from_bits_hex(&bits)
            .ok_or("final delay bits do not parse")?;
        longest = longest.max(delay);
        let open = t.begin("incremental.replay", None);
        let replay = replay_committed(&job.netlist_path(d), &ledger.committed);
        t.end(open, &[]);
        match replay {
            Ok(fresh) if fresh == bits => {}
            Ok(fresh) => s.fail(format!(
                "design {d}: committed delay bits {bits} differ from a batch replay's {fresh}"
            )),
            Err(e) => s.fail(format!("design {d}: batch replay: {e}")),
        }
    }
    s.put("longest_ns", longest * 1e9);
    write_trace(job, &t, s)
}

/// Delay bits of a fresh batch `IncrementalSta` that applies `edits` to the
/// design in `path`.
fn replay_committed(path: &Path, edits: &[String]) -> Result<String, String> {
    let mut t = Tracer::new(false);
    let mut scratch = Sample::default();
    let d = load(path, &mut t, &mut scratch)?;
    let mut sta = IncrementalSta::with_config(
        d.netlist,
        &d.library,
        &d.process,
        d.parasitics,
        exec_config()?,
    )
    .map_err(err)?;
    for line in edits {
        sta.apply(&Edit::parse_line(line, 1).map_err(err)?)
            .map_err(err)?;
    }
    let report = sta.analyze(MODE).map_err(err)?;
    Ok(format!("{:016x}", report.longest_delay.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_roundtrips_through_json() {
        let mut s = Sample::default();
        s.put("wall_s", 1.25);
        s.put("wall_s", 2.5);
        s.op(Ok(()));
        s.op(Err("bad".to_string()));
        s.op_degraded(Ok(()), Some("warning".to_string()));
        let back =
            Sample::from_json(&Json::parse(&s.to_json().write()).expect("json")).expect("sample");
        assert_eq!(back.values["wall_s"], vec![1.25, 2.5]);
        assert_eq!((back.attempted, back.failed, back.wrong), (3, 2, 1));
        assert_eq!(
            back.errors,
            vec!["bad".to_string(), "degraded: warning".to_string()]
        );
    }

    #[test]
    fn stream_file_roundtrips() {
        let stream = vec![
            (0, Request::Analyze),
            (
                2,
                Request::Eco(vec!["resize g_n1 INVX2".into(), "buffer n3".into()]),
            ),
            (1, Request::Query("n7".into())),
            (0, Request::WhatIf(vec!["uncouple n1 n2".into()])),
        ];
        assert_eq!(
            parse_stream(&format_stream(&stream)).expect("parses"),
            stream
        );
    }

    #[test]
    fn ledger_flags_changed_bits_without_commit() {
        let mut ledger = Ledger::default();
        let analyze = |bits: &str| {
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("delay_bits", Json::str(bits)),
            ])
        };
        assert!(ledger.check(&Request::Analyze, &analyze("aa")).is_ok());
        assert!(ledger.check(&Request::Analyze, &analyze("bb")).is_err());
        let eco = Json::obj(vec![("ok", Json::Bool(true)), ("applied", Json::num(1.0))]);
        assert!(ledger
            .check(&Request::Eco(vec!["buffer n1".into()]), &eco)
            .is_ok());
        assert!(ledger.check(&Request::Analyze, &analyze("bb")).is_ok());
        let warned = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("delay_bits", Json::str("bb")),
            ("severity", Json::str("warning")),
        ]);
        assert!(ledger.check(&Request::Analyze, &warned).is_ok());
        assert!(response_degraded(&warned).is_some());
        let refused = Json::obj(vec![("ok", Json::Bool(false))]);
        assert!(ledger.check(&Request::Analyze, &refused).is_err());
    }
}
