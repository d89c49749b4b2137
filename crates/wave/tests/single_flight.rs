//! Single-flight characterization: concurrent `ensure_model` calls for one
//! arc run one sweep between them.
//!
//! The characterization counter is process-global, so this check lives in
//! its own test binary with no other test moving the counter.

use std::sync::{Arc, Barrier};

use xtalk_tech::{Library, Process};
use xtalk_wave::macromodel::{
    arc_key, char_solves, characterize_arc, ensure_model, process_sig, stage_sig,
};
use xtalk_wave::sensitize;

#[test]
fn concurrent_ensure_model_characterizes_an_arc_once() {
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let stage = &library.cell("NAND2X1").expect("cell").stages[0];
    let (slot, out_rising) = (0, true);
    let side = sensitize::side_values(stage, slot, out_rising, process.vdd).expect("sensitizable");
    let key = arc_key(
        process_sig(&process),
        stage_sig(stage),
        slot,
        out_rising,
        &side,
    );

    // One arc's sweep, measured on a characterization that bypasses the
    // store.
    let before = char_solves();
    let reference = characterize_arc(&process, stage, slot, &side, out_rising);
    let one_sweep = char_solves() - before;
    assert!(one_sweep > 0, "the reference sweep ran no solves");

    let start = Barrier::new(2);
    let before = char_solves();
    let models: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    ensure_model(key, &process, stage, slot, &side, out_rising)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    });
    assert_eq!(
        char_solves() - before,
        one_sweep,
        "two concurrent callers must share one sweep"
    );
    assert!(
        Arc::ptr_eq(&models[0], &models[1]),
        "both see the stored model"
    );
    assert_eq!(models[0].to_bytes(), reference.to_bytes(), "same bits");
}
