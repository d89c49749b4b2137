//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chip_iterative|block_corners|eco_service> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale small] [--out DIR]
//! ```
//!
//! Run from the repository root. The run generates its inputs from the
//! seed into a work directory under `--out` (default `perfbench/out`),
//! then runs each repetition in a fresh child process of this binary, so
//! every repetition starts with empty in-memory stores. It prints one line
//! per metric with its unit, median, tail percentile and sample count, a
//! `meta` line with the machine profile, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A traced run also writes a Chrome trace-event file next to the work
//! directory.

mod gen;
mod metrics;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use xtalk::prelude::*;
use xtalk::sta::serve::Json;

use gen::{Scale, Workload};
use work::{Job, Sample};

/// Each full 12 seconds of `--seconds` buy one repetition (at least one).
/// On a 2-core Xeon VM a `chip_iterative` repetition takes 10–15 s, a
/// `block_corners` one 13–19 s and an `eco_service` stream session 7–11 s
/// plus its replay checks, depending on how busy the host is.
const REP_SECONDS: u64 = 12;

/// Set-up-only repetitions of `eco_service` per untraced run; each stream
/// session sets up once more.
const ECO_SETUPS: usize = 6;

/// Rounds of the `eco_service` stream per design (about 13.5 requests
/// each): one session sends about 290 requests, so at least ten request
/// latencies lie beyond the 95th percentile.
const ECO_ROUNDS: usize = 7;

/// A run is abandoned (children killed) once it has taken this long.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Prefix of the line a child prints its [`Sample`] on.
const SAMPLE_TAG: &str = "SAMPLE ";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
    /// Set in child processes: `rep`, `setup` or `prep`.
    role: Option<String>,
    index: usize,
    traced: bool,
    check: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if name == "traced" || name == "check" {
                flags.insert(name, "1");
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name, value);
        }
        let get = |name: &str| flags.get(name).copied();
        let need = |name: &str| get(name).ok_or_else(|| format!("--{name} is required"));
        let number = |name: &str| -> Result<u64, String> {
            need(name)?
                .parse()
                .map_err(|_| format!("--{name} expects a whole number"))
        };
        let workload = need("workload")?;
        let options = Options {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload `{workload}`"))?,
            seed: number("seed")?,
            seconds: number("seconds")?.max(1),
            trace: match need("trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace expects 0 or 1, not `{other}`")),
            },
            scale: match get("scale").unwrap_or("full") {
                "full" => Scale::Full,
                "small" => Scale::Small,
                other => return Err(format!("--scale expects full or small, not `{other}`")),
            },
            out: PathBuf::from(get("out").unwrap_or("perfbench/out")),
            role: get("role").map(str::to_string),
            index: get("index").map_or(Ok(0), |v| v.parse().map_err(|_| "bad --index"))?,
            traced: get("traced").is_some(),
            check: get("check").is_some(),
        };
        for name in flags.keys() {
            if ![
                "workload", "seed", "seconds", "trace", "scale", "out", "role", "index", "traced",
                "check",
            ]
            .contains(name)
            {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(options)
    }

    fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }

    /// The run's work directory.
    fn dir(&self) -> PathBuf {
        self.out.join(format!(
            "{}-{}-{}",
            self.workload.name(),
            self.seed,
            self.scale_name()
        ))
    }

    fn job(&self, meta: Json) -> Job {
        Job {
            workload: self.workload,
            dir: self.dir(),
            traced: self.traced,
            check: self.check,
            index: self.index,
            designs: gen::design_seeds(self.workload, self.seed).len(),
            trace_path: self.out.join(format!(
                "trace-{}-{}-{}.json",
                self.workload.name(),
                self.seed,
                self.scale_name()
            )),
            meta,
        }
    }

    /// The arguments that start a child with `role`.
    fn child_args(&self, role: &str, index: usize, traced: bool, check: bool) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            self.workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            if self.trace { "1" } else { "0" }.to_string(),
            "--scale".to_string(),
            self.scale_name().to_string(),
            "--out".to_string(),
            self.out.display().to_string(),
            "--role".to_string(),
            role.to_string(),
            "--index".to_string(),
            index.to_string(),
        ];
        if traced {
            args.push("--traced".to_string());
        }
        if check {
            args.push("--check".to_string());
        }
        args
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Options::parse(&args).and_then(|o| match o.role.clone() {
        Some(role) => child(&o, &role),
        None => drive(&o),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A child process: one repetition, printed as a [`Sample`] line.
fn child(o: &Options, role: &str) -> Result<(), String> {
    let job = o.job(meta(o));
    let sample = match role {
        "rep" => work::rep(&job),
        "setup" => work::eco_setup(&job),
        "prep" => {
            let mut s = Sample::default();
            s.op(work::eco_prep(&job));
            s
        }
        other => return Err(format!("unknown role `{other}`")),
    };
    println!("{SAMPLE_TAG}{}", sample.to_json().write());
    Ok(())
}

/// Generates the inputs into a fresh work directory (untimed).
fn generate(o: &Options) -> Result<(), String> {
    let dir = o.dir();
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let job = o.job(Json::Null);
    let mut rounds = Vec::new();
    for (d, seed) in gen::design_seeds(o.workload, o.seed)
        .into_iter()
        .enumerate()
    {
        let text = gen::netlist_text(&gen::design_config(o.workload, seed, o.scale), &library)?;
        std::fs::write(job.netlist_path(d), &text).map_err(|e| e.to_string())?;
        if o.workload == Workload::EcoService {
            let netlist =
                xtalk::netlist::bench::parse(&text, &library).map_err(|e| e.to_string())?;
            let placement = xtalk::layout::place::place(&netlist, &library, &process);
            let routes = xtalk::layout::route::route(&netlist, &placement, &process);
            let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
            rounds.push(gen::eco_rounds(
                &netlist,
                &parasitics,
                &library,
                seed,
                ECO_ROUNDS,
            ));
        }
    }
    if o.workload == Workload::EcoService {
        let stream = gen::eco_stream(&rounds);
        std::fs::write(job.stream_path(), work::format_stream(&stream))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs one child to completion (killing it past `deadline`) and returns
/// what it measured.
fn run_child(o: &Options, role: &str, index: usize, traced: bool, deadline: Instant) -> Sample {
    let failed = |msg: String| {
        let mut s = Sample::default();
        s.op(Err(msg));
        s
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("current_exe: {e}")),
    };
    // The expensive output checks run once per run: in the traced
    // repetition of a traced run, else in the first repetition.
    let check = role == "rep" && (traced || (index == 0 && !o.trace));
    let spawned = Command::new(exe)
        .args(o.child_args(role, index, traced, check))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut proc = match spawned {
        Ok(p) => p,
        Err(e) => return failed(format!("spawn {role}: {e}")),
    };
    // Drain stdout on a thread so a chatty child never blocks on a full
    // pipe while we poll for its exit.
    let mut stdout = proc.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = proc.kill();
                let _ = proc.wait();
                break Err(format!("{role} {index} killed at the run deadline"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => break Err(format!("wait {role}: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    let sample = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(SAMPLE_TAG))
        .and_then(|l| Json::parse(l).ok())
        .and_then(|doc| Sample::from_json(&doc));
    match (status, sample) {
        (Ok(st), Some(s)) if st.success() => s,
        (Ok(st), _) => failed(format!("{role} {index} exited with {st} and no sample")),
        (Err(e), _) => failed(e),
    }
}

/// One run: generate inputs, run the repetitions, report.
fn drive(o: &Options) -> Result<(), String> {
    let run_start = Instant::now();
    let deadline = run_start + RUN_DEADLINE;
    generate(o)?;
    let reps = (o.seconds / REP_SECONDS).max(1) as usize;
    let mut untraced = Sample::default();
    let mut traced = Sample::default();
    let mut all = Sample::default();
    let mut prep_ok = true;
    if o.workload == Workload::EcoService {
        let prep = run_child(o, "prep", 0, false, deadline);
        prep_ok = prep.failed == 0;
        all.merge(prep);
    }
    // A traced run times one untraced repetition next to the traced one:
    // the difference of their walls is the tracing overhead.
    let untraced_reps = if o.trace { 1 } else { reps };
    for i in 0..untraced_reps {
        if !prep_ok {
            break;
        }
        // Set-up-only samples are spread between the stream sessions, so
        // their median spans the whole run, not one stretch of it.
        if o.workload == Workload::EcoService && !o.trace {
            let per_rep = ECO_SETUPS.div_ceil(untraced_reps);
            for j in i * per_rep..((i + 1) * per_rep).min(ECO_SETUPS) {
                untraced.merge(run_child(o, "setup", j, false, deadline));
            }
        }
        untraced.merge(run_child(o, "rep", i, false, deadline));
    }
    if o.trace && prep_ok {
        traced.merge(run_child(o, "rep", untraced_reps, true, deadline));
    }
    all.merge(untraced.clone());
    all.merge(traced.clone());
    // Every repetition of a run analyzes the same inputs: their results
    // must agree bit for bit.
    let longest: Vec<f64> = all.values.get("longest_ns").cloned().unwrap_or_default();
    if longest.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
        all.fail(format!(
            "repetitions disagree on the longest path: {longest:?}"
        ));
    }
    let wall = |s: &Sample| s.values.get("wall_s").and_then(|v| metrics::median(v));
    let overhead = match (wall(&traced), wall(&untraced)) {
        (Some(a), Some(b)) => a - b,
        _ => 0.0,
    };
    let mut source = if o.trace { traced } else { untraced };
    derive_service_metrics(&mut source, &all);

    let list = if o.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let meta = meta(o);
    println!(
        "perfbench {} seed {} ({} scale, {} s, trace {}): {} repetition(s) per {} s, {:.1} s",
        o.workload.name(),
        o.seed,
        o.scale_name(),
        o.seconds,
        u8::from(o.trace),
        reps,
        REP_SECONDS,
        run_start.elapsed().as_secs_f64()
    );
    println!("meta {}", meta.write());
    let mut values: Vec<(&metrics::Metric, f64)> = Vec::new();
    for metric in list {
        let samples: &[f64] = source.values.get(metric.name).map_or(&[], Vec::as_slice);
        let value = if metric.name == "trace.overhead_s" {
            overhead
        } else {
            metrics::median(samples).unwrap_or(0.0)
        };
        let tail =
            metrics::tail(samples).map_or(String::new(), |(label, v)| format!(", {label} {v:.6}"));
        println!(
            "{:<28} {:>16.6} {:<6} ({} is better; median of {}{tail})",
            metric.name,
            value,
            metric.unit,
            metric.better.word(),
            samples.len()
        );
        values.push((metric, value));
    }
    for e in all.errors.iter().take(10) {
        println!("failed: {}", e.chars().take(300).collect::<String>());
    }
    if all.errors.len() > 10 {
        println!("failed: ... {} more", all.errors.len() - 10);
    }
    println!(
        "operations: {} attempted, {} failed ({} with wrong or missing output)",
        all.attempted, all.failed, all.wrong
    );
    let attempted = all.attempted.max(1);
    let result = Json::obj(vec![
        ("correct", Json::Bool(all.wrong == 0 && all.attempted > 0)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(all.failed.min(attempted) as f64)),
        (
            "metrics",
            Json::Obj(
                values
                    .iter()
                    .map(|(m, v)| {
                        (
                            m.name.to_string(),
                            Json::obj(vec![("value", Json::num(*v)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    // The inputs and stores are large; the trace file stays.
    let _ = std::fs::remove_dir_all(o.dir());
    println!("{}", result.write());
    Ok(())
}

/// The service latency metrics, over every stream session of the run
/// (traced or not): per-command medians, the request p50/p95 and the
/// request rate.
fn derive_service_metrics(target: &mut Sample, all: &Sample) {
    let raw = |name: &str| all.values.get(name).cloned().unwrap_or_default();
    let mut every = Vec::new();
    for (cmd, metric) in [
        ("query", "serve.query_ms"),
        ("what_if", "serve.what_if_ms"),
        ("eco", "serve.eco_ms"),
        ("analyze", "serve.analyze_ms"),
    ] {
        let lat = raw(&format!("lat.{cmd}_ms"));
        if let Some(m) = metrics::median(&lat) {
            target.values.insert(metric.to_string(), vec![m]);
        }
        every.extend(lat);
    }
    for (metric, q) in [("req_p50_ms", 0.5), ("req_p95_ms", 0.95)] {
        if let Some(v) = metrics::quantile(&every, q) {
            target.values.insert(metric.to_string(), vec![v]);
        }
    }
    let secs: f64 = raw("lat.stream_s").iter().sum();
    if secs > 0.0 {
        target
            .values
            .insert("req_per_s".to_string(), vec![every.len() as f64 / secs]);
    }
}

/// Run metadata: workload, seed, machine and build profile.
fn meta(o: &Options) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        ("workload", Json::str(o.workload.name())),
        ("seed", Json::num(o.seed as f64)),
        ("seconds", Json::num(o.seconds as f64)),
        ("scale", Json::str(o.scale_name())),
        ("nproc", Json::num(nproc as f64)),
        ("threads", Json::num(work::THREADS as f64)),
        ("cpu", Json::str(cpu)),
        ("commit", Json::str(commit())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        (
            "timing",
            Json::str("value = median over repetitions; tail = highest percentile with >= 10 samples beyond it, else max"),
        ),
    ])
}

/// The repository commit: `.git/HEAD` resolved when the checkout is a git
/// repository, otherwise a digest of the crates' sources.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head.to_string();
        };
        if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
            return id.trim().to_string();
        }
        if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
            if let Some(id) = packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
            {
                return id.to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut h = xtalk::wave::signature::StableHasher::default();
    for f in &files {
        let relative = f.strip_prefix(&root).unwrap_or(f);
        h.write_bytes(relative.to_string_lossy().as_bytes());
        h.write_bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("src-{:016x}", h.finish())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
