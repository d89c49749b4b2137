//! Longest-path subcircuit construction and delay measurement.
//!
//! Reproduces the paper's validation methodology (§6): the longest path is
//! simulated at transistor level "with lumped resistances and capacitances
//! extracted from the layout", while each aggressor is an ideal piecewise-
//! linear source switching in the direction opposite to the victim at an
//! adjustable time. Off-path side inputs are held at their sensitizing
//! values; coupling caps to nets not modelled as aggressors load the victim
//! as grounded caps.

use std::collections::HashMap;

use xtalk_layout::Parasitics;
use xtalk_netlist::{GateId, NetId, Netlist};
use xtalk_tech::{Library, Process};
use xtalk_wave::pwl::Waveform;

use crate::circuit::{Circuit, Drive, NodeId, NodeRef};
use crate::transient::{simulate, SimError, SimOptions, Transient};

/// One combinational gate on the path.
#[derive(Debug, Clone)]
pub struct PathGateSpec {
    /// The gate instance.
    pub gate: GateId,
    /// Which input pin the path enters through.
    pub switching_pin: usize,
    /// Per-pin side voltages (the switching pin's entry is ignored).
    pub side_values: Vec<f64>,
}

/// An aggressor net modelled as an ideal source.
#[derive(Debug, Clone, Copy)]
pub struct AggressorSpec {
    /// The aggressor net.
    pub net: NetId,
    /// `true` when the aggressor transition is rising.
    pub rising: bool,
}

/// A combinational path to simulate.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Gates from launch to capture, in order; gate `k+1`'s switching pin
    /// is driven by gate `k`'s output net.
    pub gates: Vec<PathGateSpec>,
    /// The waveform launched into the first gate's switching pin.
    pub input_wave: Waveform,
    /// Aggressor nets to model as switching sources.
    pub aggressors: Vec<AggressorSpec>,
}

/// Errors building or measuring a path.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PathError {
    /// The path is empty.
    Empty,
    /// A path gate references an unknown library cell.
    UnknownCell {
        /// The cell name.
        cell: String,
    },
    /// A sequential cell appeared on the combinational path.
    SequentialOnPath {
        /// The gate's instance name.
        gate: String,
    },
    /// The transient simulation failed.
    Sim(SimError),
    /// The output never crossed the measurement threshold.
    NoTransition,
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Empty => write!(f, "path has no gates"),
            PathError::UnknownCell { cell } => write!(f, "unknown cell `{cell}` on path"),
            PathError::SequentialOnPath { gate } => {
                write!(f, "sequential cell `{gate}` on a combinational path")
            }
            PathError::Sim(e) => write!(f, "transient simulation failed: {e}"),
            PathError::NoTransition => write!(f, "path output never transitioned"),
        }
    }
}

impl std::error::Error for PathError {}

impl From<SimError> for PathError {
    fn from(e: SimError) -> Self {
        PathError::Sim(e)
    }
}

/// Result of a path simulation.
#[derive(Debug, Clone)]
pub struct PathSimResult {
    /// Measured path delay: last Vdd/2 crossing of the output minus the
    /// input's Vdd/2 crossing, seconds.
    pub delay: f64,
    /// Node of the final output net (for trace inspection).
    pub output_node: NodeId,
    /// Node of the path input.
    pub input_node: NodeId,
    /// Per-path-net circuit nodes.
    pub net_nodes: Vec<NodeId>,
    /// The full transient (traces for plotting).
    pub transient: Transient,
}

/// A stop time long enough for the output of `spec` to switch when its
/// analyzed input-to-output span is `span` seconds: the stimulus, then the
/// larger of 1.5 times the span (room for a simulated delay above the
/// analyzed one) and 0.6 ns per gate, then 4 ns to settle. With no
/// analyzed span (`0.0`) this is the per-gate guess [`simulate_path`] uses
/// by default, which ends too early on long, slow paths.
pub fn stop_time(spec: &PathSpec, span: f64) -> f64 {
    let per_gate = spec.gates.len() as f64 * 0.6e-9;
    spec.input_wave.end_time() + (1.5 * span).max(per_gate) + 4e-9
}

/// Simulates `spec` with the given aggressor switching times (seconds,
/// same time base as `spec.input_wave`; one entry per aggressor).
///
/// # Errors
///
/// See [`PathError`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_path(
    netlist: &Netlist,
    library: &Library,
    process: &Process,
    parasitics: &Parasitics,
    spec: &PathSpec,
    aggressor_times: &[f64],
    options: Option<SimOptions>,
) -> Result<PathSimResult, PathError> {
    if spec.gates.is_empty() {
        return Err(PathError::Empty);
    }
    let vdd = process.vdd;
    let mut circuit = Circuit::new();

    // Transition direction at the input and after each gate.
    let mut dirs = Vec::with_capacity(spec.gates.len() + 1);
    dirs.push(spec.input_wave.is_rising());
    for pg in &spec.gates {
        let cell =
            library
                .cell(&netlist.gate(pg.gate).cell)
                .ok_or_else(|| PathError::UnknownCell {
                    cell: netlist.gate(pg.gate).cell.clone(),
                })?;
        if cell.is_sequential() {
            return Err(PathError::SequentialOnPath {
                gate: netlist.gate(pg.gate).name.clone(),
            });
        }
        let prev = *dirs.last().expect("nonempty");
        // Side-aware arc polarity: XOR/XNOR/MUX arcs invert or buffer
        // depending on the constant side values.
        let inverting = cell
            .arc_inverting(pg.switching_pin, &pg.side_values, process.vdd)
            .unwrap_or(cell.function.is_inverting());
        dirs.push(if inverting { !prev } else { prev });
    }

    // Input node.
    let input_node = circuit.add_node(
        "path_in",
        Drive::Pwl(spec.input_wave.clone()),
        0.0,
        spec.input_wave.initial_value(),
    );

    // Aggressor nodes.
    let mut aggressor_nodes: HashMap<NetId, NodeId> = HashMap::new();
    for (k, agg) in spec.aggressors.iter().enumerate() {
        let t = aggressor_times.get(k).copied().unwrap_or(0.0);
        let (v0, v1) = if agg.rising { (0.0, vdd) } else { (vdd, 0.0) };
        let wave = Waveform::step(t, v0, v1).expect("step waveform is valid");
        let id = circuit.add_node(
            format!("agg_{}", netlist.net(agg.net).name),
            Drive::Pwl(wave),
            0.0,
            v0,
        );
        aggressor_nodes.insert(agg.net, id);
    }

    // Path net nodes: one per gate output.
    let mut net_nodes = Vec::with_capacity(spec.gates.len());
    for (k, pg) in spec.gates.iter().enumerate() {
        let net = netlist.gate(pg.gate).output;
        let rising = dirs[k + 1];
        let node = circuit.add_node(
            format!("n_{}", netlist.net(net).name),
            Drive::Free,
            0.0,
            if rising { 0.0 } else { vdd },
        );
        net_nodes.push(node);
    }
    let path_net_of: HashMap<NetId, usize> = spec
        .gates
        .iter()
        .enumerate()
        .map(|(k, pg)| (netlist.gate(pg.gate).output, k))
        .collect();

    // Wire + off-circuit pin caps and coupling on each path net.
    for (k, pg) in spec.gates.iter().enumerate() {
        let net = netlist.gate(pg.gate).output;
        let node = NodeRef::Node(net_nodes[k]);
        let np = &parasitics.nets[net.index()];
        circuit.add_cap(node, np.cwire);
        // Pin caps of loads that are NOT instantiated in this subcircuit
        // (the next path gate adds its own gate caps through its devices).
        let next_gate = spec.gates.get(k + 1).map(|g| g.gate);
        for &(load, pin) in &netlist.net(net).loads {
            if Some(load) == next_gate {
                continue;
            }
            if let Some(cell) = library.cell(&netlist.gate(load).cell) {
                circuit.add_cap(node, cell.input_cap.get(pin).copied().unwrap_or(0.0));
            }
        }
        // Coupling caps: to aggressor sources as mutual caps, to everything
        // else as grounded caps (quiet neighbours).
        for cc in &np.couplings {
            if let Some(&agg_node) = aggressor_nodes.get(&cc.other) {
                circuit.add_mutual(node, NodeRef::Node(agg_node), cc.c);
            } else if path_net_of.contains_key(&cc.other) {
                // Path nets coupling to each other: real mutual cap.
                let other_k = path_net_of[&cc.other];
                if other_k > k {
                    circuit.add_mutual(node, NodeRef::Node(net_nodes[other_k]), cc.c);
                }
            } else {
                circuit.add_cap(node, cc.c);
            }
        }
    }

    // Instantiate the path gates.
    for (k, pg) in spec.gates.iter().enumerate() {
        let gate = netlist.gate(pg.gate);
        let cell = library.cell(&gate.cell).expect("checked above");
        let driver_node = if k == 0 {
            NodeRef::Node(input_node)
        } else {
            NodeRef::Node(net_nodes[k - 1])
        };
        let pins: Vec<NodeRef> = (0..cell.inputs.len())
            .map(|pin| {
                if pin == pg.switching_pin {
                    driver_node
                } else {
                    let v = pg.side_values.get(pin).copied().unwrap_or(0.0);
                    NodeRef::Node(circuit.add_node(
                        format!("{}_{}", gate.name, cell.inputs[pin]),
                        Drive::Const(v),
                        0.0,
                        v,
                    ))
                }
            })
            .collect();
        circuit.instantiate_cell(
            cell,
            &pins,
            NodeRef::Node(net_nodes[k]),
            None,
            library,
            process,
            &gate.name,
        );
    }

    // Without caller options, guess a stop time from the gate count.
    let options = options.unwrap_or(SimOptions {
        t_stop: stop_time(spec, 0.0),
        ..SimOptions::default()
    });
    let transient = simulate(&circuit, process, &options)?;

    let th = process.delay_threshold();
    let out_node = *net_nodes.last().expect("nonempty path");
    let out_rising = *dirs.last().expect("nonempty");
    let t_out = transient
        .last_crossing(out_node, th, out_rising)
        .ok_or(PathError::NoTransition)?;
    let t_in = spec
        .input_wave
        .crossing(th)
        .ok_or(PathError::NoTransition)?;
    Ok(PathSimResult {
        delay: t_out - t_in,
        output_node: out_node,
        input_node,
        net_nodes,
        transient,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_layout::{extract, place, route};
    use xtalk_netlist::bench;
    use xtalk_tech::{Library, Process};

    /// Builds a 3-inverter chain with layout parasitics.
    fn chain_setup() -> (Process, Library, Netlist, Parasitics) {
        let p = Process::c05um();
        let l = Library::c05um(&p);
        let text = "INPUT(a)\nOUTPUT(y)\nw1 = NOT(a)\nw2 = NOT(w1)\ny = NOT(w2)\n";
        let nl = bench::parse(text, &l).expect("parse");
        let pl = place::place(&nl, &l, &p);
        let r = route::route(&nl, &pl, &p);
        let para = extract::extract(&nl, &r, &p);
        (p, l, nl, para)
    }

    fn chain_spec(nl: &Netlist, p: &Process) -> PathSpec {
        let gates: Vec<PathGateSpec> = ["w1", "w2", "y"]
            .iter()
            .map(|n| {
                let net = nl.net_by_name(n).expect("net");
                PathGateSpec {
                    gate: nl.net(net).driver.expect("driver"),
                    switching_pin: 0,
                    side_values: vec![0.0],
                }
            })
            .collect();
        PathSpec {
            gates,
            input_wave: Waveform::ramp(1.5e-9, 0.2e-9, 0.0, p.vdd).expect("ramp"),
            aggressors: Vec::new(),
        }
    }

    #[test]
    fn inverter_chain_delay_positive_and_plausible() {
        let (p, l, nl, para) = chain_setup();
        let spec = chain_spec(&nl, &p);
        let r = simulate_path(&nl, &l, &p, &para, &spec, &[], None).expect("simulate");
        assert!(r.delay > 50e-12, "3-stage delay {}", r.delay);
        assert!(r.delay < 2e-9, "3-stage delay {}", r.delay);
    }

    #[test]
    fn aggressor_on_middle_net_adds_delay() {
        let (p, l, nl, para) = chain_setup();
        let mut spec = chain_spec(&nl, &p);
        let base = simulate_path(&nl, &l, &p, &para, &spec, &[], None)
            .expect("base")
            .delay;
        // Fake an aggressor coupled to w2 by injecting a coupling record.
        let w2 = nl.net_by_name("w2").expect("w2");
        let a = nl.net_by_name("a").expect("a"); // reuse a net id as aggressor handle
        let mut para2 = para.clone();
        para2.nets[w2.index()]
            .couplings
            .push(xtalk_layout::CouplingCap {
                other: a,
                c: 20e-15,
            });
        // w2 falls (a rises, w1 falls... w1 = NOT(a): falls? a rises =>
        // w1 falls => w2 rises => y falls). Aggressor must fall against a
        // rising w2.
        spec.aggressors = vec![AggressorSpec {
            net: a,
            rising: false,
        }];
        let t_mid = 2.2e-9; // roughly while w2 transitions
        let noisy = simulate_path(&nl, &l, &p, &para2, &spec, &[t_mid], None)
            .expect("noisy")
            .delay;
        assert!(
            noisy > base + 5e-12,
            "aggressor adds delay: {base} vs {noisy}"
        );
    }

    #[test]
    fn empty_path_rejected() {
        let (p, l, nl, para) = chain_setup();
        let spec = PathSpec {
            gates: Vec::new(),
            input_wave: Waveform::ramp(0.0, 1e-10, 0.0, 3.3).expect("ramp"),
            aggressors: Vec::new(),
        };
        assert_eq!(
            simulate_path(&nl, &l, &p, &para, &spec, &[], None).unwrap_err(),
            PathError::Empty
        );
    }

    #[test]
    fn nand_path_with_side_values() {
        let p = Process::c05um();
        let l = Library::c05um(&p);
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nw = NAND(a, b)\ny = NOT(w)\n";
        let nl = bench::parse(text, &l).expect("parse");
        let pl = place::place(&nl, &l, &p);
        let r = route::route(&nl, &pl, &p);
        let para = extract::extract(&nl, &r, &p);
        let w = nl.net_by_name("w").expect("w");
        let y = nl.net_by_name("y").expect("y");
        let spec = PathSpec {
            gates: vec![
                PathGateSpec {
                    gate: nl.net(w).driver.expect("driver"),
                    switching_pin: 0,
                    side_values: vec![0.0, p.vdd],
                },
                PathGateSpec {
                    gate: nl.net(y).driver.expect("driver"),
                    switching_pin: 0,
                    side_values: vec![0.0],
                },
            ],
            input_wave: Waveform::ramp(1.5e-9, 0.2e-9, 0.0, p.vdd).expect("ramp"),
            aggressors: Vec::new(),
        };
        let res = simulate_path(&nl, &l, &p, &para, &spec, &[], None).expect("simulate");
        assert!(res.delay > 0.0 && res.delay < 2e-9, "delay {}", res.delay);
    }

    #[test]
    fn stop_time_covers_the_span_and_keeps_the_per_gate_floor() {
        let (p, _, nl, _) = chain_setup();
        let spec = chain_spec(&nl, &p);
        let end = spec.input_wave.end_time();
        let floor = end + 3.0 * 0.6e-9 + 4e-9;
        assert_eq!(stop_time(&spec, 0.0), floor);
        assert_eq!(stop_time(&spec, 1e-9), floor);
        assert!((stop_time(&spec, 20e-9) - (end + 30e-9 + 4e-9)).abs() < 1e-18);
    }

    #[test]
    fn error_types_display() {
        assert!(PathError::Empty.to_string().contains("no gates"));
        assert!(PathError::NoTransition.to_string().contains("never"));
    }
}
