//! Shared harness for the paper-reproduction binaries and benchmarks.
//!
//! Bridges the analyzer and the transient simulator: builds the full
//! physical flow for a circuit, runs the five analyses with timing, and
//! converts a reported critical path into a simulatable [`PathSpec`] with
//! adversarial aggressors — the methodology of the paper's §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::time::Instant;

use xtalk::prelude::*;
use xtalk::sim::align::coordinate_ascent;
use xtalk::sim::path::{simulate_path, stop_time, AggressorSpec, PathGateSpec, PathSpec};
use xtalk::sim::SimOptions;
use xtalk::sta::report::ModeReport;

/// Time offset applied to simulation stimuli (pre-roll so the circuit
/// settles to DC before the launch edge).
pub const SIM_OFFSET: f64 = 1.5e-9;

/// A fully prepared design: netlist + layout + parasitics.
pub struct Design {
    /// The process.
    pub process: Process,
    /// The cell library.
    pub library: Library,
    /// The netlist.
    pub netlist: Netlist,
    /// Extracted parasitics.
    pub parasitics: xtalk::layout::Parasitics,
    /// Total routed wirelength, metres.
    pub wirelength: f64,
    /// Seconds spent in generate/place/route/extract.
    pub prep_seconds: f64,
}

/// Builds the full physical flow for a generator config.
pub fn build_design(config: &GeneratorConfig) -> Design {
    let started = Instant::now();
    let process = Process::c05um();
    let library = Library::c05um(&process);
    let netlist =
        xtalk::netlist::generator::generate(config, &library).expect("generator configs are valid");
    netlist
        .validate(&library)
        .expect("generated netlists validate");
    let placement = xtalk::layout::place::place(&netlist, &library, &process);
    let routes = xtalk::layout::route::route(&netlist, &placement, &process);
    let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
    Design {
        process,
        library,
        netlist,
        wirelength: routes.total_wirelength(),
        parasitics,
        prep_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Elmore wire delay accumulated along a reported critical path, seconds —
/// the paper's "wire delay" comparison number.
pub fn path_wire_delay(design: &Design, report: &ModeReport) -> f64 {
    let mut total = 0.0;
    for w in report.critical_path.windows(2) {
        let net = w[0].net;
        let next_gate = w[1].gate;
        let next_pin = w[1].pin;
        let np = &design.parasitics.nets[net.index()];
        if let Some(k) = design
            .netlist
            .net(net)
            .loads
            .iter()
            .position(|&(g, p)| g == next_gate && p == next_pin)
        {
            let pin_c = design
                .library
                .cell(&design.netlist.gate(next_gate).cell)
                .and_then(|c| c.input_cap.get(next_pin).copied())
                .unwrap_or(0.0);
            total += np.elmore(k, pin_c);
        }
    }
    total
}

/// Conversion of a reported critical path into a simulatable spec.
pub struct SimSpec {
    /// The path specification (gates, stimulus, aggressors).
    pub spec: PathSpec,
    /// STA delay over the simulated span (input Vdd/2 crossing to endpoint).
    pub sta_delay: f64,
    /// Initial aggressor switching times (absolute, simulation time base).
    pub t0: Vec<f64>,
    /// Per aggressor: `(path step index it couples to, victim rising)` —
    /// used to re-anchor `t0` on the quiet simulation's measured crossings.
    pub anchors: Vec<(usize, bool)>,
}

/// Converts the *combinational suffix* of a critical path (everything after
/// the launching flip-flop, if any) into a [`PathSpec`] with up to
/// `n_aggressors` strongest aggressors.
///
/// Returns `None` when no combinational span remains.
pub fn to_sim_spec(design: &Design, report: &ModeReport, n_aggressors: usize) -> Option<SimSpec> {
    // Keep only the combinational suffix: everything after the last launch
    // step or sequential cell (the clock tree and flip-flop precede it).
    let is_seq_or_launch = |s: &xtalk::sta::PathStep| {
        s.pin == usize::MAX
            || design
                .library
                .cell(&s.cell)
                .map(|c| c.is_sequential())
                .unwrap_or(true)
    };
    let cut = report
        .critical_path
        .iter()
        .rposition(is_seq_or_launch)
        .map(|k| k + 1)
        .unwrap_or(0);
    let steps: Vec<_> = report.critical_path[cut..].to_vec();
    if steps.is_empty() {
        return None;
    }
    let gates: Vec<PathGateSpec> = steps
        .iter()
        .map(|s| PathGateSpec {
            gate: s.gate,
            switching_pin: s.pin,
            side_values: s.side_values.clone(),
        })
        .collect();

    // Stimulus: replicate the STA waveform arriving at the path head. The
    // head input's arrival is (first step arrival - first stage delay); we
    // approximate with a default-slew ramp whose Vdd/2 crossing matches the
    // STA arrival at the head input net.
    let first_cell = design.library.cell(&steps[0].cell)?;
    let first_inverting = first_cell
        .arc_inverting(steps[0].pin, &steps[0].side_values, design.process.vdd)
        .unwrap_or(first_cell.function.is_inverting());
    let in_rising = if first_inverting {
        !steps[0].rising
    } else {
        steps[0].rising
    };
    let head_net = design.netlist.gate(steps[0].gate).inputs[steps[0].pin];
    let _ = head_net;
    let slew = design.process.default_input_slew;
    let (v0, v1) = if in_rising {
        (0.0, design.process.vdd)
    } else {
        (design.process.vdd, 0.0)
    };
    let input_wave = Waveform::ramp(SIM_OFFSET, slew, v0, v1).expect("valid ramp");

    // The STA's arrival at the head input: endpoint arrival minus the path
    // delay of the simulated suffix. We measure the suffix delay directly:
    // the input crossing in the STA time base is the *first* step's arrival
    // minus that step's stage delay — unavailable per-step, so use the span
    // from the launch: endpoint arrival - (arrival before the suffix).
    let skipped = report.critical_path.len() - steps.len();
    let span_start = if skipped > 0 {
        report.critical_path[skipped - 1].arrival
    } else {
        // Path starts at a primary input: its Vdd/2 crossing is slew/2.
        0.5 * slew
    };
    let sta_delay = report.longest_delay - span_start;

    // Aggressors: strongest couplings onto the simulated nets.
    let on_path: HashSet<_> = steps.iter().map(|s| s.net).collect();
    let mut cands: Vec<(f64, AggressorSpec, f64, (usize, bool))> = Vec::new();
    for (step_idx, s) in steps.iter().enumerate() {
        for cc in &design.parasitics.nets[s.net.index()].couplings {
            if on_path.contains(&cc.other) {
                continue;
            }
            cands.push((
                cc.c,
                AggressorSpec {
                    net: cc.other,
                    rising: !s.rising,
                },
                // Fire near the victim's transition, mapped to sim time.
                s.arrival - span_start + SIM_OFFSET,
                (step_idx, s.rising),
            ));
        }
    }
    cands.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut seen = HashSet::new();
    cands.retain(|(_, spec, _, _)| seen.insert(spec.net));
    cands.truncate(n_aggressors);
    let t0 = cands.iter().map(|&(_, _, t, _)| t).collect();
    let anchors = cands.iter().map(|&(_, _, _, a)| a).collect();
    let aggressors = cands.iter().map(|&(_, s, _, _)| s).collect();

    Some(SimSpec {
        spec: PathSpec {
            gates,
            input_wave,
            aggressors,
        },
        sta_delay,
        t0,
        anchors,
    })
}

/// Simulated path delays: quiet and adversarially aligned.
pub struct SimResult {
    /// Delay with all aggressors quiet, seconds.
    pub quiet: f64,
    /// Delay at the worst aggressor alignment found, seconds.
    pub aligned: f64,
    /// Transient simulations performed.
    pub sims: usize,
}

/// Simulates the path quietly and with coordinate-ascent aggressor
/// alignment (`rounds` passes). Every simulation runs to a stop time
/// derived from the analyzed span ([`stop_time`]), so the output of a
/// long path switches before the simulation ends.
pub fn simulate_spec(design: &Design, spec: &SimSpec, rounds: usize) -> Option<SimResult> {
    let options = SimOptions {
        t_stop: stop_time(&spec.spec, spec.sta_delay),
        ..SimOptions::default()
    };
    let mut quiet_spec = spec.spec.clone();
    quiet_spec.aggressors.clear();
    let quiet_run = simulate_path(
        &design.netlist,
        &design.library,
        &design.process,
        &design.parasitics,
        &quiet_spec,
        &[],
        Some(options.clone()),
    )
    .ok()?;
    let quiet = quiet_run.delay;

    // Anchor each aggressor's initial switching time on the *simulated*
    // victim crossing at its coupling site (the STA arrival can drift by
    // integrator differences, and the worst-case window is only a few tens
    // of picoseconds wide).
    let th = design.process.delay_threshold();
    let t0: Vec<f64> = spec
        .anchors
        .iter()
        .zip(&spec.t0)
        .map(|(&(step_idx, rising), &fallback)| {
            quiet_run
                .net_nodes
                .get(step_idx)
                .and_then(|&node| quiet_run.transient.last_crossing(node, th, rising))
                .unwrap_or(fallback)
        })
        .collect();

    let mut sims = 1usize;
    let oracle = |times: &[f64]| -> Option<f64> {
        sims += 1;
        simulate_path(
            &design.netlist,
            &design.library,
            &design.process,
            &design.parasitics,
            &spec.spec,
            times,
            Some(options.clone()),
        )
        .ok()
        .map(|r| r.delay)
    };
    let (aligned, _) = coordinate_ascent(oracle, t0, 0.12e-9, rounds.max(2));
    Some(SimResult {
        quiet,
        aligned: aligned.max(quiet),
        sims,
    })
}

/// Runs one analysis mode with wall-clock timing.
pub fn run_mode(design: &Design, mode: AnalysisMode) -> ModeReport {
    let sta = Sta::new(
        &design.netlist,
        &design.library,
        &design.process,
        &design.parasitics,
    )
    .expect("timing graph builds");
    sta.analyze(mode).expect("analysis succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Design {
        let mut cfg = GeneratorConfig::small(7777);
        cfg.comb_gates = 80;
        cfg.depth = 6;
        build_design(&cfg)
    }

    #[test]
    fn build_design_produces_coupled_layout() {
        let d = design();
        assert!(d.parasitics.coupling_count() > 0);
        assert!(d.wirelength > 0.0);
        assert!(d.prep_seconds >= 0.0);
    }

    #[test]
    fn sim_spec_roundtrip() {
        let d = design();
        let report = run_mode(&d, AnalysisMode::OneStep);
        let spec = to_sim_spec(&d, &report, 3).expect("combinational suffix exists");
        assert!(!spec.spec.gates.is_empty());
        assert!(spec.sta_delay > 0.0);
        assert_eq!(spec.t0.len(), spec.spec.aggressors.len());
    }

    #[test]
    fn wire_delay_small_fraction_of_path() {
        let d = design();
        let report = run_mode(&d, AnalysisMode::BestCase);
        let wd = path_wire_delay(&d, &report);
        assert!(wd >= 0.0);
        assert!(
            wd < 0.5 * report.longest_delay,
            "wire {wd} vs path {}",
            report.longest_delay
        );
    }

    /// A two-inverter path under a heavy wire load: its analyzed span is
    /// longer than the simulator's per-gate stop-time guess, so the
    /// output only switches if the stop time follows the span.
    #[test]
    fn simulate_spec_covers_spans_beyond_the_per_gate_guess() {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let text = "INPUT(a)\nOUTPUT(y)\nw = NOT(a)\ny = NOT(w)\n";
        let netlist = xtalk::netlist::bench::parse(text, &library).expect("parse");
        let placement = xtalk::layout::place::place(&netlist, &library, &process);
        let routes = xtalk::layout::route::route(&netlist, &placement, &process);
        let mut parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
        for net in &mut parasitics.nets {
            net.cwire += 2e-12;
        }
        let d = Design {
            process,
            library,
            netlist,
            parasitics,
            wirelength: 0.0,
            prep_seconds: 0.0,
        };
        let report = run_mode(&d, AnalysisMode::BestCase);
        let spec = to_sim_spec(&d, &report, 0).expect("spec");
        let per_gate_guess = spec.spec.gates.len() as f64 * 0.6e-9 + 4e-9;
        assert!(
            spec.sta_delay > per_gate_guess,
            "span {} does not exceed the per-gate guess {per_gate_guess}",
            spec.sta_delay
        );
        let sim = simulate_spec(&d, &spec, 1).expect("output switches before the stop time");
        assert!(
            (sim.quiet - spec.sta_delay).abs() < 0.25 * spec.sta_delay,
            "simulated {} vs analyzed {}",
            sim.quiet,
            spec.sta_delay
        );
    }

    #[test]
    fn simulate_spec_bounds() {
        let d = design();
        let report = run_mode(&d, AnalysisMode::Iterative { esperance: false });
        let worst = run_mode(&d, AnalysisMode::WorstCase);
        let spec = to_sim_spec(&d, &report, 2).expect("spec");
        let sim = simulate_spec(&d, &spec, 1).expect("simulates");
        assert!(sim.aligned >= sim.quiet);
        // Safety: simulation respects the worst-case bound over the span.
        let span_start = report.longest_delay - spec.sta_delay;
        let worst_span = worst.longest_delay - span_start;
        assert!(
            sim.aligned <= worst_span * 1.05,
            "sim {} vs worst bound {}",
            sim.aligned,
            worst_span
        );
    }
}
