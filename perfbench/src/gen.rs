//! Seeded inputs: the workload designs and the ECO service request stream.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed always yields byte-identical netlist text and the same request
//! stream. The program under test only ever sees the generated files and
//! requests.

use std::collections::BTreeSet;

use xtalk::layout::Parasitics;
use xtalk::netlist::{GeneratorConfig, NetId, Netlist};
use xtalk::tech::Library;

/// Design size of a run: the workloads' own sizes, or `small` designs for
/// the benchmark's smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined with.
    Full,
    /// ~200-gate designs, for a quick end-to-end check of the harness.
    Small,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `xtalk report` of an s38417-scale chip, Iterative mode.
    ChipIterative,
    /// ss/tt/ff scenario matrix of a medium block, default then signoff.
    BlockCorners,
    /// One closed-loop client of a store-warm daemon holding a medium block.
    EcoService,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ChipIterative,
        Workload::BlockCorners,
        Workload::EcoService,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChipIterative => "chip_iterative",
            Workload::BlockCorners => "block_corners",
            Workload::EcoService => "eco_service",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Designs the `eco_service` daemon serves at once. Medium designs differ
/// by up to 1.7x in re-analysis work from seed to seed; serving three per
/// run keeps the run's total work, and so its wall time, steady.
const ECO_DESIGNS: usize = 3;

/// The generator seeds of the designs one run of `workload` uses.
pub fn design_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    let n = if workload == Workload::EcoService {
        ECO_DESIGNS as u64
    } else {
        1
    };
    (0..n).map(|i| seed.wrapping_add(i * 1_000_003)).collect()
}

/// The generator configuration of `workload`'s design for `seed`.
pub fn design_config(workload: Workload, seed: u64, scale: Scale) -> GeneratorConfig {
    match (scale, workload) {
        (Scale::Small, _) => GeneratorConfig::small(seed),
        (Scale::Full, Workload::ChipIterative) => {
            let mut config = GeneratorConfig::s38417_like();
            config.seed = seed;
            config
        }
        (Scale::Full, Workload::BlockCorners | Workload::EcoService) => {
            GeneratorConfig::medium(seed)
        }
    }
}

/// Generates the workload's netlist as `.bench` text.
pub fn netlist_text(config: &GeneratorConfig, library: &Library) -> Result<String, String> {
    let netlist =
        xtalk::netlist::generator::generate(config, library).map_err(|e| e.to_string())?;
    xtalk::netlist::bench::write(&netlist, library).map_err(|e| e.to_string())
}

/// SplitMix64: a tiny deterministic generator, so the request stream does
/// not depend on any RNG crate's stream staying the same.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, offset by `salt` so independent streams of
    /// one seed do not coincide.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// One request of the ECO service stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Commit these edit-script lines to the session.
    Eco(Vec<String>),
    /// Time these edits against the committed design, then roll back.
    WhatIf(Vec<String>),
    /// Report the committed design's longest path.
    Analyze,
    /// Arrival at one endpoint net of the committed design.
    Query(String),
}

/// Cell families the stream resizes within (same pins, other drive).
const RESIZE_FAMILIES: [&[&str]; 4] = [
    &["INVX1", "INVX2", "INVX4", "INVX8"],
    &["NAND2X1", "NAND2X2"],
    &["NOR2X1", "NOR2X2"],
    &["BUFX2", "BUFX4"],
];

/// Reroute scales: shorter and longer wires around the extracted route.
const REROUTE_SCALES: [&str; 6] = ["0.5", "0.7", "0.85", "1.2", "1.35", "1.5"];

/// What the stream may name: real gates, nets and coupled net pairs of the
/// design, away from the clock tree (a clock edit re-times every flop,
/// which is a different workload).
struct Targets {
    /// `(gate name, its resize family)`.
    resizable: Vec<(String, &'static [&'static str])>,
    /// Nets with a combinational driver and at least one load.
    nets: Vec<String>,
    /// Those of `nets` that are not endpoints: a buffer moves a net's
    /// loads to a new net, which would retire an endpoint the stream
    /// queries.
    bufferable: Vec<String>,
    /// Coupled net pairs, each once.
    couples: Vec<(String, String)>,
    /// Endpoint nets: flip-flop D inputs and primary outputs.
    endpoints: Vec<String>,
}

fn targets(netlist: &Netlist, parasitics: &Parasitics, library: &Library) -> Targets {
    let families: Vec<&'static [&'static str]> = RESIZE_FAMILIES
        .iter()
        .copied()
        .filter(|f| f.iter().all(|c| library.cell(c).is_some()))
        .collect();
    let combinational = |net: NetId| {
        let n = netlist.net(net);
        !n.is_clock
            && n.driver.is_some_and(|g| {
                library
                    .cell(&netlist.gate(g).cell)
                    .is_some_and(|c| !c.is_sequential())
            })
    };
    let mut resizable = Vec::new();
    for gate in netlist.gates() {
        if netlist.net(gate.output).is_clock {
            continue;
        }
        if let Some(family) = families.iter().find(|f| f.contains(&gate.cell.as_str())) {
            resizable.push((gate.name.clone(), *family));
        }
    }
    let nets: Vec<NetId> = (0..netlist.net_count())
        .map(|i| NetId(i as u32))
        .filter(|&n| combinational(n) && !netlist.net(n).loads.is_empty())
        .collect();
    let mut pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
    for (i, np) in parasitics.nets.iter().enumerate() {
        for cc in &np.couplings {
            let (a, b) = (i as u32, cc.other.0);
            if a < b && combinational(NetId(a)) && combinational(NetId(b)) {
                pairs.insert((a, b));
            }
        }
    }
    let couples = pairs
        .into_iter()
        .map(|(a, b)| {
            (
                netlist.net(NetId(a)).name.clone(),
                netlist.net(NetId(b)).name.clone(),
            )
        })
        .collect();
    let mut is_endpoint = vec![false; netlist.net_count()];
    for gate in netlist.gates() {
        if let Some(seq) = library.cell(&gate.cell).and_then(|c| c.seq.as_ref()) {
            is_endpoint[gate.inputs[seq.d_pin].index()] = true;
        }
    }
    for po in netlist.primary_outputs() {
        is_endpoint[po.index()] = true;
    }
    let endpoints = (0..netlist.net_count())
        .filter(|&i| is_endpoint[i] && combinational(NetId(i as u32)))
        .map(|i| netlist.net(NetId(i as u32)).name.clone())
        .collect();
    let name = |n: &NetId| netlist.net(*n).name.clone();
    Targets {
        resizable,
        bufferable: nets
            .iter()
            .filter(|n| !is_endpoint[n.index()])
            .map(name)
            .collect(),
        nets: nets.iter().map(name).collect(),
        couples,
        endpoints,
    }
}

fn edit_line(rng: &mut Rng, t: &Targets) -> String {
    loop {
        match rng.below(4) {
            0 if !t.resizable.is_empty() => {
                let (gate, family) = rng.pick(&t.resizable);
                return format!("resize {gate} {}", rng.pick(family));
            }
            1 if !t.nets.is_empty() => {
                return format!(
                    "reroute {} {}",
                    rng.pick(&t.nets),
                    rng.pick(&REROUTE_SCALES)
                );
            }
            2 if !t.bufferable.is_empty() => return format!("buffer {}", rng.pick(&t.bufferable)),
            3 if !t.couples.is_empty() => {
                let (a, b) = rng.pick(&t.couples);
                return format!("uncouple {a} {b}");
            }
            _ => {}
        }
    }
}

/// `rounds` seeded rounds of ECO service requests against one design.
///
/// Each round commits 1–2 edits and re-analyzes, reads 3–6 endpoint
/// arrivals, times a 1–2 edit what-if, re-analyzes the rolled-back design
/// and reads 3–6 more arrivals. A round thus holds three requests that
/// re-analyze against 7–13 cached reads and commits, so the median lands
/// among cached reads and the 95th percentile among re-analyses.
pub fn eco_rounds(
    netlist: &Netlist,
    parasitics: &Parasitics,
    library: &Library,
    seed: u64,
    rounds: usize,
) -> Vec<Vec<Request>> {
    let t = targets(netlist, parasitics, library);
    let mut rng = Rng::new(seed, 0xec0);
    let edits = |rng: &mut Rng| -> Vec<String> {
        (0..1 + rng.below(2)).map(|_| edit_line(rng, &t)).collect()
    };
    let queries = |rng: &mut Rng, round: &mut Vec<Request>| {
        for _ in 0..3 + rng.below(4) {
            round.push(Request::Query(rng.pick(&t.endpoints).clone()));
        }
    };
    (0..rounds)
        .map(|_| {
            let mut round = vec![Request::Eco(edits(&mut rng)), Request::Analyze];
            queries(&mut rng, &mut round);
            round.push(Request::WhatIf(edits(&mut rng)));
            round.push(Request::Analyze);
            queries(&mut rng, &mut round);
            round
        })
        .collect()
}

/// The service stream over several designs, as `(design index, request)`:
/// an `analyze` of every loaded design, then the designs' rounds taken in
/// turn, then a final `analyze` of every design's committed result.
pub fn eco_stream(per_design: &[Vec<Vec<Request>>]) -> Vec<(usize, Request)> {
    let designs = 0..per_design.len();
    let rounds = per_design.iter().map(Vec::len).max().unwrap_or(0);
    let mut stream: Vec<(usize, Request)> =
        designs.clone().map(|d| (d, Request::Analyze)).collect();
    for r in 0..rounds {
        for (d, design) in per_design.iter().enumerate() {
            if let Some(round) = design.get(r) {
                stream.extend(round.iter().map(|q| (d, q.clone())));
            }
        }
    }
    stream.extend(designs.map(|d| (d, Request::Analyze)));
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk::prelude::*;

    fn small_design(seed: u64) -> (Process, Library, Netlist, Parasitics) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let text = netlist_text(&GeneratorConfig::small(seed), &library).expect("generates");
        let netlist = xtalk::netlist::bench::parse(&text, &library).expect("parses");
        let placement = xtalk::layout::place::place(&netlist, &library, &process);
        let routes = xtalk::layout::route::route(&netlist, &placement, &process);
        let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
        (process, library, netlist, parasitics)
    }

    #[test]
    fn same_seed_same_netlist_bytes() {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        for workload in Workload::ALL {
            let config = design_config(workload, 11, Scale::Small);
            let a = netlist_text(&config, &library).expect("generates");
            let b = netlist_text(&config, &library).expect("generates");
            assert_eq!(a, b);
        }
        let a = netlist_text(
            &design_config(Workload::BlockCorners, 11, Scale::Full),
            &library,
        );
        let b = netlist_text(
            &design_config(Workload::BlockCorners, 12, Scale::Full),
            &library,
        );
        assert_ne!(a.expect("generates"), b.expect("generates"));
    }

    #[test]
    fn full_scale_designs_follow_their_presets() {
        let chip = design_config(Workload::ChipIterative, 5, Scale::Full);
        assert_eq!(chip.seed, 5);
        assert_eq!(
            chip.total_cells(),
            GeneratorConfig::s38417_like().total_cells()
        );
        let block = design_config(Workload::EcoService, 5, Scale::Full);
        assert_eq!(block, GeneratorConfig::medium(5));
    }

    #[test]
    fn same_seed_same_stream() {
        let (_, library, netlist, parasitics) = small_design(3);
        let a = eco_rounds(&netlist, &parasitics, &library, 3, 6);
        let b = eco_rounds(&netlist, &parasitics, &library, 3, 6);
        assert_eq!(a, b);
        let c = eco_rounds(&netlist, &parasitics, &library, 4, 6);
        assert_ne!(a, c);
        let requests = |rounds: &[Vec<Request>]| rounds.iter().map(Vec::len).sum::<usize>();
        let stream = eco_stream(&[a.clone(), c.clone()]);
        let kinds: std::collections::HashSet<_> = stream
            .iter()
            .map(|(_, r)| std::mem::discriminant(r))
            .collect();
        assert_eq!(kinds.len(), 4, "stream mixes every command");
        assert_eq!(stream.len(), 4 + requests(&a) + requests(&c));
        assert_eq!(stream.first(), Some(&(0, Request::Analyze)));
        assert_eq!(stream.last(), Some(&(1, Request::Analyze)));
    }

    #[test]
    fn every_generated_edit_and_query_applies() {
        for seed in 1u64..=4 {
            let (process, library, netlist, parasitics) = small_design(seed);
            let stream: Vec<Request> = eco_rounds(&netlist, &parasitics, &library, seed, 30)
                .into_iter()
                .flatten()
                .collect();
            let mut sta = IncrementalSta::with_config(
                netlist,
                &library,
                &process,
                parasitics,
                ExecConfig::serial().with_signoff(true),
            )
            .expect("analyzer builds");
            let mode = AnalysisMode::Iterative { esperance: false };
            for request in &stream {
                match request {
                    Request::Eco(lines) => {
                        for line in lines {
                            sta.apply(&Edit::parse_line(line, 1).expect("parses"))
                                .unwrap_or_else(|e| panic!("seed {seed}: `{line}`: {e}"));
                        }
                    }
                    Request::WhatIf(lines) => {
                        let checkpoint = sta.checkpoint();
                        for line in lines {
                            sta.apply(&Edit::parse_line(line, 1).expect("parses"))
                                .unwrap_or_else(|e| panic!("seed {seed}: `{line}`: {e}"));
                        }
                        sta.rollback(checkpoint).expect("rolls back");
                    }
                    Request::Analyze => {}
                    Request::Query(net) => {
                        let report = sta.analyze(mode).expect("analyzes");
                        assert!(
                            report
                                .endpoints
                                .iter()
                                .any(|e| sta.netlist().net(e.net).name == *net),
                            "seed {seed}: `{net}` is not an endpoint"
                        );
                    }
                }
            }
        }
    }
}
