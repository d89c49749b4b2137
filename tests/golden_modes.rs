//! Golden ModeReport snapshot: pins the analyzer's output bit-exactly.
//!
//! A fixed generated design is analyzed under every mode and the resulting
//! arrivals, slacks and work counters are serialized with full `f64` bit
//! patterns, then compared against the committed snapshot in
//! `tests/golden/modes_small_97.txt`. Any change to propagation, coupling
//! treatment, merging or sensitization — however small — flips at least one
//! bit here, so refactors of the engine are guarded step by step.
//!
//! The snapshot was recorded before the layered-engine refactor (CSR graph
//! + kernel/policy split) and must survive it unchanged.
//!
//! Since the macromodel fast path landed, the snapshot is taken under
//! *signoff* configuration (`ExecConfig::with_signoff(true)`, the same
//! switch `--signoff` / `XTALK_SIGNOFF` flips): every stage solve runs the
//! full transistor-level Newton iteration, so the output must stay
//! bit-identical to the pre-macromodel engine — serial and threaded alike.
//!
//! A second snapshot, `tests/golden/default_small_97.txt`, pins the
//! *default* engine (characterized macromodel tables, the configuration
//! a plain `xtalk report` runs) in the same format, serial and threaded.
//! The table answers are padded approximations, so this file differs from
//! the signoff one; it pins which arcs the tables answer and with which
//! bits, so a change to model keying or table eligibility shows here
//! even when the signoff snapshot cannot see it.
//!
//! Regenerate (only when an *intentional* numerical change lands) with:
//!
//! ```text
//! XTALK_BLESS=1 cargo test -p xtalk --test golden_modes
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xtalk::prelude::*;

/// Clock period used for the pinned slack column, seconds.
const PERIOD: f64 = 10e-9;

/// All analyses the snapshot covers: the paper's five plus the two
/// extensions (Esperance refinement and min-delay/hold).
const MODES: [AnalysisMode; 7] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
    AnalysisMode::Iterative { esperance: true },
    AnalysisMode::MinDelay,
];

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file)
}

/// Hex bit pattern of an `f64` (or `-` for an absent arrival).
fn bits(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:016x}", v.to_bits()),
        None => "-".to_string(),
    }
}

fn snapshot(config: ExecConfig) -> String {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = xtalk::netlist::generator::generate(&GeneratorConfig::small(97), &library)
        .expect("generate");
    let placement = xtalk::layout::place::place(&netlist, &library, &process);
    let routes = xtalk::layout::route::route(&netlist, &placement, &process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
    let sta = Sta::with_config(&netlist, &library, &process, &parasitics, config).expect("sta");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden mode snapshot: small(97), {} gates, {} nets, period {} ns",
        netlist.gate_count(),
        netlist.net_count(),
        PERIOD * 1e9
    );
    for mode in MODES {
        let r = sta.analyze(mode).expect("analysis");
        assert!(
            r.diagnostics.is_empty(),
            "golden run must be clean, got {:?}",
            r.diagnostics
        );
        let endpoint = r
            .endpoint_net
            .map(|n| netlist.net(n).name.clone())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "mode={mode} delay={} endpoint={endpoint} rising={} passes={} solves={}",
            bits(Some(r.longest_delay)),
            r.endpoint_rising,
            r.passes,
            r.stage_solves
        );
        for (i, d) in r.pass_delays.iter().enumerate() {
            let _ = writeln!(out, "  pass[{i}] delay={}", bits(Some(*d)));
        }
        for e in &r.endpoints {
            let slack = PERIOD - e.latest();
            let _ = writeln!(
                out,
                "  endpoint={} rise={} fall={} slack={}",
                netlist.net(e.net).name,
                bits(e.rise),
                bits(e.fall),
                bits(Some(slack))
            );
        }
        let _ = writeln!(out, "  path_len={}", r.critical_path.len());
        for step in &r.critical_path {
            let _ = writeln!(
                out,
                "  step gate={} cell={} pin={} net={} rising={} arrival={}",
                netlist.gate(step.gate).name,
                step.cell,
                step.pin as isize,
                netlist.net(step.net).name,
                step.rising,
                bits(Some(step.arrival))
            );
        }
    }
    out
}

/// Fails with the first diverging line rather than one giant string diff.
fn assert_matches_golden(golden: &str, current: &str, label: &str) {
    if golden == current {
        return;
    }
    for (i, (g, c)) in golden.lines().zip(current.lines()).enumerate() {
        assert_eq!(g, c, "[{label}] golden snapshot diverged at line {}", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        current.lines().count(),
        "[{label}] golden snapshot line count diverged"
    );
    panic!("[{label}] golden snapshot diverged");
}

/// Compares the serial snapshot of `config` with the committed `file`
/// (or records it under `XTALK_BLESS=1`), then checks that the threaded
/// wavefront reproduces the same bits: the schedule changes the order
/// stage solves land in, never their values.
fn check_golden(file: &str, config: ExecConfig, label: &str) {
    let serial = snapshot(config.clone().with_threads(1));
    let path = golden_path(file);
    if std::env::var("XTALK_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, &serial).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with XTALK_BLESS=1",
            path.display()
        )
    });
    assert_matches_golden(&golden, &serial, &format!("{label} serial"));
    let threaded = snapshot(config.with_threads(4).with_serial_cutoff(0));
    assert_matches_golden(&golden, &threaded, &format!("{label} threaded"));
}

#[test]
fn mode_reports_match_golden_snapshot() {
    check_golden(
        "modes_small_97.txt",
        ExecConfig::serial().with_signoff(true),
        "signoff",
    );
}

#[test]
fn default_engine_matches_golden_snapshot() {
    check_golden("default_small_97.txt", ExecConfig::serial(), "default");
}
