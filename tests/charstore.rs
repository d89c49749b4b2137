//! Characterization schedules and the on-disk characterization store
//! (`DESIGN.md` D15): however and whenever the macromodel tables get
//! built — prewarmed up front, demand-driven (lazy), serial or on the
//! worker pool, characterized fresh or replayed from disk — the served
//! bits must be identical, and a store-warm analyzer build must pay zero
//! characterization Newton solves. The same holds across characterization
//! universes: a batch analyzer characterizes only the cells its netlist
//! instantiates, an ECO-capable one the whole library, and both serve the
//! bits a full-library prewarm serves.
//!
//! The tests share the process-global model store and the process-wide
//! characterization counters, so they serialize on one mutex and reset
//! the in-memory store at each boundary.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use xtalk::prelude::*;
use xtalk::sta::{netlist_cells, CharacterizeMode};
use xtalk::tech::Cell;
use xtalk::wave::macromodel::{
    arc_universe, char_solves, clear_store, model_for, prewarm_library, stats,
};

/// Max-delay analyses where the fast path may engage (mirrors
/// `tests/macromodel.rs`).
const MAX_MODES: [AnalysisMode; 5] = [
    AnalysisMode::BestCase,
    AnalysisMode::StaticDoubled,
    AnalysisMode::WorstCase,
    AnalysisMode::OneStep,
    AnalysisMode::Iterative { esperance: false },
];

/// Serializes the tests: they all mutate the process-global model store.
fn store_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Design {
    netlist: xtalk::netlist::Netlist,
    library: Library,
    process: Process,
    parasitics: xtalk::layout::extract::Parasitics,
}

fn design(seed: u64) -> Design {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist = xtalk::netlist::generator::generate(&GeneratorConfig::small(seed), &library)
        .expect("generate");
    let placement = xtalk::layout::place::place(&netlist, &library, &process);
    let routes = xtalk::layout::route::route(&netlist, &placement, &process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
    Design {
        netlist,
        library,
        process,
        parasitics,
    }
}

/// Builds an analyzer from an emptied model store and runs every
/// max-delay mode, returning the per-mode reports.
fn run_all(d: &Design, config: ExecConfig) -> Vec<ModeReport> {
    clear_store();
    let sta =
        Sta::with_config(&d.netlist, &d.library, &d.process, &d.parasitics, config).expect("sta");
    MAX_MODES
        .iter()
        .map(|&mode| sta.analyze(mode).expect("analysis"))
        .collect()
}

/// Full-bit equality of two reports: the headline delay and every
/// endpoint arrival. Counters are deliberately not compared — a lazy run
/// legitimately characterizes fewer arcs than a prewarm run; it must not
/// *serve* different bits.
fn assert_bits_equal(a: &ModeReport, b: &ModeReport, what: &str) {
    assert_eq!(
        a.longest_delay.to_bits(),
        b.longest_delay.to_bits(),
        "{what}: longest delay diverged"
    );
    assert_eq!(a.endpoints.len(), b.endpoints.len(), "{what}: endpoints");
    for (ea, eb) in a.endpoints.iter().zip(&b.endpoints) {
        assert_eq!(ea.net, eb.net, "{what}: endpoint order");
        assert_eq!(
            ea.rise.map(f64::to_bits),
            eb.rise.map(f64::to_bits),
            "{what}: endpoint {:?} rise",
            ea.net
        );
        assert_eq!(
            ea.fall.map(f64::to_bits),
            eb.fall.map(f64::to_bits),
            "{what}: endpoint {:?} fall",
            ea.net
        );
    }
}

fn tmp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "xtalk_test_charstore_{tag}_{}.bin",
        std::process::id()
    ))
}

/// Lazy characterization must route and serve exactly as prewarm, mode by
/// mode, on the serial engine and on the worker pool: the schedules build
/// the same arc universe from the same deterministic sweep, so when a
/// model is built cannot show in the bits.
#[test]
fn lazy_matches_prewarm_bit_for_bit_serial_and_threaded() {
    let _guard = store_lock();
    let d = design(4242);
    let store = tmp_store("lazy");
    let _ = std::fs::remove_file(&store);

    // Reference arm: serial prewarm, persisted so the threaded prewarm
    // arm replays instead of paying a second full characterization.
    let prewarm_serial = run_all(
        &d,
        ExecConfig::serial().with_char_store(Some(store.clone())),
    );
    let prewarm_threaded = run_all(
        &d,
        ExecConfig::serial()
            .with_threads(4)
            .with_char_store(Some(store.clone())),
    );
    let lazy_serial = run_all(
        &d,
        ExecConfig::serial().with_characterize(CharacterizeMode::Lazy),
    );
    let lazy_threaded = run_all(
        &d,
        ExecConfig::serial()
            .with_threads(4)
            .with_characterize(CharacterizeMode::Lazy),
    );
    let _ = std::fs::remove_file(&store);

    let mut any_hits = 0usize;
    for (i, mode) in MAX_MODES.iter().enumerate() {
        any_hits += prewarm_serial[i].table_hits;
        for (arm, reports) in [
            ("prewarm threaded", &prewarm_threaded),
            ("lazy serial", &lazy_serial),
            ("lazy threaded", &lazy_threaded),
        ] {
            assert_bits_equal(&prewarm_serial[i], &reports[i], &format!("{mode} vs {arm}"));
        }
    }
    assert!(
        any_hits > 0,
        "tables never engaged; the schedule-identity assertions are vacuous"
    );
}

/// A second analyzer build against a populated store must replay every
/// table instead of characterizing — zero characterization Newton solves
/// — and report the same bits.
#[test]
fn store_warm_build_pays_zero_char_solves() {
    let _guard = store_lock();
    let d = design(97);
    let store = tmp_store("warm");
    let _ = std::fs::remove_file(&store);
    let mode = AnalysisMode::OneStep;

    clear_store();
    let cold_chars = {
        let before = char_solves();
        let sta = Sta::with_config(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            ExecConfig::serial().with_char_store(Some(store.clone())),
        )
        .expect("cold sta");
        let report = sta.analyze(mode).expect("cold analysis");
        (report, char_solves() - before)
    };
    assert!(
        cold_chars.1 > 0,
        "cold build characterized nothing; the replay test is vacuous"
    );

    clear_store();
    let before = char_solves();
    let sta = Sta::with_config(
        &d.netlist,
        &d.library,
        &d.process,
        &d.parasitics,
        ExecConfig::serial().with_char_store(Some(store.clone())),
    )
    .expect("warm sta");
    let warm = sta.analyze(mode).expect("warm analysis");
    assert_eq!(
        char_solves() - before,
        0,
        "store-warm build still ran characterization Newton solves"
    );
    assert_bits_equal(&cold_chars.0, &warm, "store-warm replay");
    let _ = std::fs::remove_file(&store);
}

/// Damaged store records — a flipped payload byte (checksum mismatch) and
/// a truncated tail (broken framing) — must be skipped on replay, never
/// served, and the affected arcs re-characterized to the same bits.
#[test]
fn corrupt_store_records_are_skipped_and_rebuilt() {
    let _guard = store_lock();
    let d = design(1234);
    let store = tmp_store("corrupt");
    let _ = std::fs::remove_file(&store);
    let mode = AnalysisMode::OneStep;

    clear_store();
    let analyze = |config: ExecConfig| {
        let sta = Sta::with_config(&d.netlist, &d.library, &d.process, &d.parasitics, config)
            .expect("sta");
        sta.analyze(mode).expect("analysis")
    };
    let reference = analyze(ExecConfig::serial().with_char_store(Some(store.clone())));

    // Flip a byte inside the first record's payload (after the 16-byte
    // magic, the 4-byte length and the 8-byte checksum) and drop the last
    // five bytes of the final record.
    let mut bytes = std::fs::read(&store).expect("read store");
    assert!(bytes.len() > 40, "store unexpectedly small");
    bytes[16 + 12 + 2] ^= 0x5a;
    bytes.truncate(bytes.len() - 5);
    std::fs::write(&store, &bytes).expect("rewrite store");

    clear_store();
    let rebuilt = analyze(ExecConfig::serial().with_char_store(Some(store.clone())));
    assert_bits_equal(&reference, &rebuilt, "corrupt-store rebuild");
    let _ = std::fs::remove_file(&store);
}

/// Runs every max-delay mode on an analyzer built over the current model
/// store (no clearing).
fn analyze_all(d: &Design, config: ExecConfig) -> Vec<ModeReport> {
    let sta =
        Sta::with_config(&d.netlist, &d.library, &d.process, &d.parasitics, config).expect("sta");
    MAX_MODES
        .iter()
        .map(|&mode| sta.analyze(mode).expect("analysis"))
        .collect()
}

/// Library cells by name.
fn cells<'l>(library: &'l Library, names: &[&str]) -> Vec<&'l Cell> {
    names
        .iter()
        .map(|n| library.cell(n).expect("library cell"))
        .collect()
}

/// Whether any gate of the netlist instantiates `cell`.
fn instantiates(d: &Design, cell: &str) -> bool {
    d.netlist.gates().iter().any(|g| g.cell == cell)
}

/// A batch build characterizes exactly the arcs of its netlist's cells —
/// no key of an uninstantiated, electrically distinct cell — and serves
/// the same bits, serial and threaded, as an analyzer over a full-library
/// prewarm.
#[test]
fn scoped_batch_build_matches_full_library_prewarm() {
    let _guard = store_lock();
    let d = design(4242);
    // Keys are content-addressed, so an uninstantiated cell built only
    // from stages the netlist does instantiate (AND3X1 = NAND3 + INV)
    // legitimately shares their models. The X2 drive strengths have
    // their own transistor widths.
    let absent = ["NAND2X2", "NOR2X2"];
    for cell in absent {
        assert!(!instantiates(&d, cell), "fixture instantiates {cell}");
    }

    let scoped_serial = run_all(&d, ExecConfig::serial());
    let universe = arc_universe(&d.process, &netlist_cells(&d.netlist, &d.library));
    assert_eq!(
        stats().models,
        universe.len(),
        "store holds more than the netlist's arcs"
    );
    assert!(
        universe.iter().all(|arc| model_for(arc.key).is_some()),
        "a netlist arc is missing from the store"
    );
    let netlist_keys: std::collections::HashSet<u64> = universe.iter().map(|arc| arc.key).collect();
    let unused: Vec<_> = arc_universe(&d.process, &cells(&d.library, &absent))
        .into_iter()
        .filter(|arc| !netlist_keys.contains(&arc.key))
        .collect();
    assert!(!unused.is_empty(), "every absent arc has a netlist twin");
    assert!(
        unused.iter().all(|arc| model_for(arc.key).is_none()),
        "an uninstantiated cell was characterized"
    );
    let scoped_threaded = run_all(&d, ExecConfig::serial().with_threads(4));

    clear_store();
    prewarm_library(&d.process, &d.library, 2);
    let full_serial = analyze_all(&d, ExecConfig::serial());
    let full_threaded = analyze_all(&d, ExecConfig::serial().with_threads(4));

    let mut any_hits = 0usize;
    for (i, mode) in MAX_MODES.iter().enumerate() {
        any_hits += scoped_serial[i].table_hits;
        for (arm, reports) in [
            ("scoped threaded", &scoped_threaded),
            ("full-library serial", &full_serial),
            ("full-library threaded", &full_threaded),
        ] {
            assert_bits_equal(&scoped_serial[i], &reports[i], &format!("{mode} vs {arm}"));
            assert_eq!(
                scoped_serial[i].table_hits, reports[i].table_hits,
                "{mode} vs {arm}: the tables answered different queries"
            );
        }
    }
    assert!(
        any_hits > 0,
        "tables never engaged; the universe assertions are vacuous"
    );
}

/// An ECO session characterizes the whole library at build, so resizing
/// an inverter to a cell the netlist never instantiated (INVX8) costs no
/// characterization mid-edit — and still matches a fresh batch analyzer
/// of the edited netlist, which characterizes INVX8 at its own build.
#[test]
fn eco_resize_to_an_uninstantiated_cell_never_characterizes() {
    let _guard = store_lock();
    let d = design(97);
    assert!(!instantiates(&d, "INVX8"), "fixture instantiates INVX8");
    let inverter = d
        .netlist
        .gates()
        .iter()
        .find(|g| g.cell == "INVX1")
        .expect("an INVX1 instance")
        .name
        .clone();

    clear_store();
    let mut eco = IncrementalSta::with_config(
        d.netlist.clone(),
        &d.library,
        &d.process,
        d.parasitics.clone(),
        ExecConfig::serial(),
    )
    .expect("incremental sta");
    for &mode in &MAX_MODES {
        eco.analyze(mode).expect("baseline analysis");
    }
    let before = char_solves();
    eco.apply(&Edit::ResizeCell {
        gate: inverter,
        cell: "INVX8".to_string(),
    })
    .expect("resize");
    let edited: Vec<ModeReport> = MAX_MODES
        .iter()
        .map(|&mode| eco.analyze(mode).expect("eco analysis"))
        .collect();
    assert_eq!(
        char_solves() - before,
        0,
        "the ECO characterized mid-request"
    );

    clear_store();
    let edited_design = Design {
        netlist: eco.netlist().clone(),
        library: Library::c05um(&d.process),
        process: d.process.clone(),
        parasitics: eco.parasitics().clone(),
    };
    let before = char_solves();
    let batch = analyze_all(&edited_design, ExecConfig::serial());
    assert!(
        char_solves() > before,
        "the batch build characterized nothing"
    );
    let invx8 = arc_universe(&d.process, &cells(&d.library, &["INVX8"]));
    assert!(
        invx8.iter().all(|arc| model_for(arc.key).is_some()),
        "the batch build of the edited netlist skipped INVX8"
    );
    for (i, mode) in MAX_MODES.iter().enumerate() {
        assert_bits_equal(&batch[i], &edited[i], &format!("{mode}: eco vs batch"));
    }
}

/// A store-warm scenario matrix replays every corner's netlist arcs and
/// pays zero characterization solves, with the cold run's bits.
#[test]
fn store_warm_scenario_matrix_pays_zero_char_solves() {
    let _guard = store_lock();
    let d = design(97);
    let store = tmp_store("matrix");
    let _ = std::fs::remove_file(&store);
    let corners = || vec![Corner::ss(), Corner::ff()];
    let modes = [AnalysisMode::OneStep];
    let matrix = || {
        ScenarioMatrix::new(
            &d.netlist,
            &d.library,
            &d.process,
            &d.parasitics,
            corners(),
            ExecConfig::serial().with_char_store(Some(store.clone())),
        )
        .expect("matrix")
    };

    clear_store();
    let before = char_solves();
    let cold_matrix = matrix();
    cold_matrix.prewarm();
    let cold = cold_matrix.run(&modes).expect("cold run");
    assert!(char_solves() > before, "cold matrix characterized nothing");
    let universe = arc_universe(&d.process, &netlist_cells(&d.netlist, &d.library));
    assert_eq!(
        stats().models,
        corners().len() * universe.len(),
        "the matrix characterized beyond its netlist's cells"
    );

    clear_store();
    let before = char_solves();
    let warm_matrix = matrix();
    warm_matrix.prewarm();
    let warm = warm_matrix.run(&modes).expect("warm run");
    assert_eq!(
        char_solves() - before,
        0,
        "store-warm matrix still ran characterization Newton solves"
    );
    assert_eq!(
        warm_matrix.characterization().cells,
        netlist_cells(&d.netlist, &d.library)
            .iter()
            .filter(|c| !c.is_sequential())
            .count()
    );
    for (c, w) in cold.corners.iter().zip(&warm.corners) {
        assert_bits_equal(
            &c.reports[0],
            &w.reports[0],
            &format!("corner {}", c.corner),
        );
    }
    let _ = std::fs::remove_file(&store);
}
