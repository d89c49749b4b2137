//! The multi-corner scenario engine.
//!
//! A scenario run analyzes one design under a matrix of {PVT corner ×
//! analysis mode} over a single shared `Executor`: the wavefront worker
//! pool, the per-stage memo and the keyed stage-solve cache persist across
//! corners instead of being rebuilt per corner. Sharing is safe because
//! every reuse-layer identity carries the corner's signature
//! ([`xtalk_tech::Process::corner_sig`]) — a cached entry can only ever be
//! served back to the corner that produced it, so each corner's reports
//! are bit-identical to a standalone single-corner run (DESIGN.md D14).
//!
//! # Cross-corner warm seeding
//!
//! Corners of the same design solve structurally identical arc
//! populations, and the cost-aware cache admission
//! ([`crate::exec::CacheAdmission::Cost`]) declines cheap signatures —
//! including duplicated ones (the same cell, input waveform and load
//! recurring at different stage instances), which then re-run their Newton
//! integration at every occurrence. While a scenario runs, the cache
//! observes which admission signatures recur within a corner and hands the
//! *arc identities* (cell/stage/slot/direction — deliberately corner-
//! agnostic) to the next corner as a pre-admission plan: the next corner
//! stores those arcs' first solves unconditionally, so their repeats hit
//! the exact-match cache instead of re-integrating.
//!
//! The channel is admission-only. A stale or wrong plan changes which
//! solves get *stored*, never what is *served* — lookups remain exact
//! bitwise matches under corner-keyed identities — so warm-seeded results
//! are bitwise identical to cold ones while spending strictly fewer
//! Newton iterations whenever any duplicated arc was declined by the cost
//! policy.

use xtalk_layout::Parasitics;
use xtalk_netlist::Netlist;
use xtalk_tech::{Corner, Library, Process};
use xtalk_wave::macromodel;

use crate::engine::StaError;
use crate::exec::{netlist_cells, CharSummary, ExecConfig, Executor};
use crate::graph::TimingGraph;
use crate::kernel::PropagationCore;
use crate::mode::AnalysisMode;
use crate::report::{CornerRun, EndpointWorst, ScenarioReport};

/// Drives one design through a matrix of PVT corners over a shared
/// executor. See the module docs for the sharing and seeding invariants.
pub struct ScenarioMatrix<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
    base: &'a Process,
    parasitics: &'a Parasitics,
    corners: Vec<Corner>,
    exec: Executor,
    seed: bool,
}

impl<'a> ScenarioMatrix<'a> {
    /// Builds the scenario driver. `corners` come from the configuration
    /// ([`ExecConfig::corners`], `--corners`, `XTALK_CORNERS`) or
    /// [`Corner::default_matrix`]; the executor (pool, memo, cache) is
    /// built once here and shared by every corner.
    ///
    /// # Errors
    ///
    /// [`StaError::NoArrivals`] is never produced here; construction only
    /// fails with [`StaError::Netlist`] if the netlist cannot expand —
    /// checked per corner at [`run`](Self::run) time, since the timing
    /// graph is rebuilt against each corner's derived process.
    pub fn new(
        netlist: &'a Netlist,
        library: &'a Library,
        base: &'a Process,
        parasitics: &'a Parasitics,
        corners: Vec<Corner>,
        config: ExecConfig,
    ) -> Result<Self, StaError> {
        let corners = if corners.is_empty() {
            Corner::default_matrix()
        } else {
            corners
        };
        Ok(ScenarioMatrix {
            netlist,
            library,
            base,
            parasitics,
            corners,
            exec: Executor::new(config),
            seed: true,
        })
    }

    /// Enables or disables cross-corner warm seeding (on by default).
    /// Purely a performance lever: seeded and unseeded runs are bitwise
    /// identical (see the module docs).
    #[must_use]
    pub fn with_seeding(mut self, seed: bool) -> Self {
        self.seed = seed;
        self
    }

    /// The corner matrix this scenario runs, in run order.
    #[must_use]
    pub fn corners(&self) -> &[Corner] {
        &self.corners
    }

    /// Characterizes every corner's macromodel tables up front (each
    /// corner's [`Process::corner`] derivation is keyed separately), so a
    /// following [`ScenarioMatrix::run`] pays zero characterization.
    /// `run` performs the same per-corner prewarm itself; this method
    /// only exists to let callers measure or schedule the
    /// characterization phase apart from the solve phase. Results are
    /// identical either way.
    pub fn prewarm(&self) {
        let cells = netlist_cells(self.netlist, self.library);
        for corner in &self.corners {
            let process = self.base.corner(corner);
            self.exec.prewarm_tables(&process, &cells);
        }
    }

    /// What build-time characterization covered: the netlist's
    /// combinational cells and the wall time spent over every corner.
    #[must_use]
    pub fn characterization(&self) -> CharSummary {
        self.exec.char_summary()
    }

    /// Runs every corner through every requested analysis mode and
    /// assembles the cross-corner report. `modes` must be non-empty; the
    /// first mode is the *primary* one the per-endpoint worst table is
    /// built from.
    ///
    /// Corners run in matrix order; each corner derives its own scaled
    /// process ([`Process::corner`]), rebuilds the timing graph against it
    /// (side voltages scale with the corner's Vdd), characterizes its own
    /// macromodel tables (corner-keyed, never cross-served), and reuses
    /// the shared executor.
    ///
    /// # Errors
    ///
    /// See [`StaError`]; the first failing corner/mode aborts the run.
    pub fn run(&self, modes: &[AnalysisMode]) -> Result<ScenarioReport, StaError> {
        assert!(!modes.is_empty(), "a scenario needs at least one mode");
        let cache = self.exec.cache();
        let seeding = self.seed && cache.enabled();
        let mut plan: Vec<u64> = Vec::new();
        let mut corners_out: Vec<CornerRun> = Vec::with_capacity(self.corners.len());
        let cells = netlist_cells(self.netlist, self.library);
        let result: Result<(), StaError> = (|| {
            for (ci, corner) in self.corners.iter().enumerate() {
                let process = self.base.corner(corner);
                let graph =
                    TimingGraph::build(self.netlist, self.library, &process, self.parasitics)?;
                // Corner-keyed characterization of the netlist's cells
                // through the shared executor: the on-disk store replays
                // once per corner (later corners and later runs find
                // their tables) and the residual sweep runs on the worker
                // pool.
                self.exec.prewarm_tables(&process, &cells);
                if seeding {
                    if ci > 0 {
                        cache.seed_arcs(&plan);
                    }
                    cache.begin_seed_observation();
                }
                let core = PropagationCore {
                    netlist: self.netlist,
                    library: self.library,
                    process: &process,
                    parasitics: self.parasitics,
                    graph: &graph,
                    exec: &self.exec,
                    process_token: macromodel::process_sig(&process),
                };
                let mut reports = Vec::with_capacity(modes.len());
                for &mode in modes {
                    reports.push(core.analyze(mode)?);
                }
                if seeding {
                    plan = cache.harvest_seed_arcs();
                }
                corners_out.push(CornerRun {
                    corner: corner.name.clone(),
                    reports,
                });
            }
            Ok(())
        })();
        if seeding {
            // Always tear the seeding state down, success or not: the
            // executor may outlive this scenario.
            cache.end_seeding();
        }
        result?;

        let corner_iters = corners_out
            .iter()
            .map(|run| run.reports.iter().map(|r| r.newton_iters).sum())
            .collect();
        let worst_endpoints = cross_corner_worst(&corners_out, modes[0]);
        Ok(ScenarioReport {
            corners: corners_out,
            worst_endpoints,
            corner_iters,
            seeded: seeding,
        })
    }
}

/// Builds the per-endpoint cross-corner worst table from the primary
/// mode's reports: the latest arrival across corners (earliest for
/// min-delay), worst first.
fn cross_corner_worst(corners: &[CornerRun], primary: AnalysisMode) -> Vec<EndpointWorst> {
    let min_mode = primary == AnalysisMode::MinDelay;
    let Some(first) = corners.first() else {
        return Vec::new();
    };
    let template = &first.reports[0].endpoints;
    let mut rows: Vec<EndpointWorst> = Vec::with_capacity(template.len());
    for (ei, e) in template.iter().enumerate() {
        let mut per_corner = Vec::with_capacity(corners.len());
        for run in corners {
            // Same netlist, deterministic graph build: endpoint order is
            // identical across corners. Guard against a shape mismatch
            // anyway rather than misattributing arrivals.
            let arrival = run.reports[0]
                .endpoints
                .get(ei)
                .filter(|c| c.net == e.net)
                .map(|c| if min_mode { c.earliest() } else { c.latest() })
                .unwrap_or(f64::NAN);
            per_corner.push(arrival);
        }
        let mut worst = f64::NAN;
        let mut worst_corner = 0;
        for (ci, &a) in per_corner.iter().enumerate() {
            if a.is_nan() {
                continue;
            }
            let better = worst.is_nan() || if min_mode { a < worst } else { a > worst };
            if better {
                worst = a;
                worst_corner = ci;
            }
        }
        rows.push(EndpointWorst {
            net: e.net,
            worst,
            worst_corner,
            per_corner,
        });
    }
    // Worst first: latest arrivals on top (earliest for min-delay), NaN
    // rows (endpoints that never arrived anywhere) last.
    rows.sort_by(|a, b| match (a.worst.is_nan(), b.worst.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => {
            if min_mode {
                a.worst.total_cmp(&b.worst)
            } else {
                b.worst.total_cmp(&a.worst)
            }
        }
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_layout::{extract, place, route};
    use xtalk_netlist::data;

    struct Fixture {
        process: Process,
        library: Library,
        netlist: Netlist,
        parasitics: Parasitics,
    }

    fn fixture(text: &str) -> Fixture {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = xtalk_netlist::bench::parse(text, &library).expect("parse");
        let placement = place::place(&netlist, &library, &process);
        let routes = route::route(&netlist, &placement, &process);
        let parasitics = extract::extract(&netlist, &routes, &process);
        Fixture {
            process,
            library,
            netlist,
            parasitics,
        }
    }

    fn serial_config() -> ExecConfig {
        ExecConfig {
            threads: 1,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn scenario_matches_standalone_per_corner_bitwise() {
        let f = fixture(data::S27_BENCH);
        let corners = Corner::default_matrix();
        let scenario = ScenarioMatrix::new(
            &f.netlist,
            &f.library,
            &f.process,
            &f.parasitics,
            corners.clone(),
            serial_config(),
        )
        .expect("scenario");
        let report = scenario.run(&[AnalysisMode::OneStep]).expect("run");
        assert_eq!(report.corners.len(), 3);
        for (corner, run) in corners.iter().zip(&report.corners) {
            let process = f.process.corner(corner);
            let sta = crate::Sta::with_config(
                &f.netlist,
                &f.library,
                &process,
                &f.parasitics,
                serial_config(),
            )
            .expect("sta");
            let standalone = sta.analyze(AnalysisMode::OneStep).expect("standalone");
            let scen = &run.reports[0];
            assert_eq!(
                scen.longest_delay.to_bits(),
                standalone.longest_delay.to_bits(),
                "corner {} diverged from its standalone run",
                corner.name
            );
            for (a, b) in scen.endpoints.iter().zip(&standalone.endpoints) {
                assert_eq!(a.net, b.net);
                assert_eq!(a.rise.map(f64::to_bits), b.rise.map(f64::to_bits));
                assert_eq!(a.fall.map(f64::to_bits), b.fall.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn corners_order_delays_monotonically() {
        let f = fixture(data::S27_BENCH);
        let scenario = ScenarioMatrix::new(
            &f.netlist,
            &f.library,
            &f.process,
            &f.parasitics,
            Corner::default_matrix(),
            serial_config(),
        )
        .expect("scenario");
        let report = scenario.run(&[AnalysisMode::BestCase]).expect("run");
        let by_name = |n: &str| {
            report
                .corners
                .iter()
                .find(|c| c.corner == n)
                .expect("corner present")
                .reports[0]
                .longest_delay
        };
        // Slow/low-Vdd must be the latest, fast/high-Vdd the earliest.
        assert!(by_name("ss") > by_name("tt"));
        assert!(by_name("tt") > by_name("ff"));
    }

    #[test]
    fn worst_endpoint_table_tracks_the_slow_corner() {
        let f = fixture(data::C17_BENCH);
        let scenario = ScenarioMatrix::new(
            &f.netlist,
            &f.library,
            &f.process,
            &f.parasitics,
            Corner::default_matrix(),
            serial_config(),
        )
        .expect("scenario");
        let report = scenario.run(&[AnalysisMode::OneStep]).expect("run");
        assert!(!report.worst_endpoints.is_empty());
        let ss = report
            .corners
            .iter()
            .position(|c| c.corner == "ss")
            .expect("ss in matrix");
        for e in &report.worst_endpoints {
            assert_eq!(
                e.worst_corner, ss,
                "max-delay worst must be the slow corner"
            );
            let deltas = e.deltas();
            assert_eq!(deltas[ss], 0.0);
            assert!(deltas.iter().all(|&d| d <= 0.0));
        }
        // Rows are sorted worst-first.
        for w in report.worst_endpoints.windows(2) {
            assert!(w[0].worst >= w[1].worst);
        }
    }

    /// A duplicate-heavy pre-layout workload: a deep spine of inverters
    /// with varying side fanout (distinct loads, so distinct solve
    /// signatures — these exhaust the admission warm-up and set a high
    /// running cost mean), plus `slices` identical inverter chains of
    /// `depth` stages behind their own primary inputs. With uniform wire
    /// parasitics every slice presents the same solve signatures: cheap
    /// recurring work the cost policy declines, which is exactly what the
    /// cross-corner admission plan recovers (bit-sliced datapaths,
    /// wire-load-model flows).
    fn sliced_bench(spine: usize, slices: usize, depth: usize) -> String {
        let mut text = String::new();
        text.push_str("INPUT(h)\n");
        for s in 0..slices {
            text.push_str(&format!("INPUT(a{s})\n"));
        }
        text.push_str(&format!("OUTPUT(hz)\nOUTPUT(z{})\n", slices - 1));
        for s in 0..slices.saturating_sub(1) {
            text.push_str(&format!("OUTPUT(z{s})\n"));
        }
        let mut pads = Vec::new();
        let mut prev = "h".to_string();
        for k in 0..spine {
            let out = if k + 1 == spine {
                "hz".to_string()
            } else {
                format!("s{k}")
            };
            text.push_str(&format!("{out} = NOT({prev})\n"));
            // Side fanout varies the spine loads stage to stage.
            for f in 0..(k % 9) {
                let pad = format!("p{k}_{f}");
                text.push_str(&format!("{pad} = NOT({prev})\n"));
                pads.push(pad);
            }
            prev = out;
        }
        for pad in &pads {
            text.push_str(&format!("OUTPUT({pad})\n"));
        }
        for s in 0..slices {
            let mut prev = format!("a{s}");
            for d in 0..depth {
                let out = if d + 1 == depth {
                    format!("z{s}")
                } else {
                    format!("c{s}_{d}")
                };
                text.push_str(&format!("{out} = NOT({prev})\n"));
                prev = out;
            }
        }
        text
    }

    #[test]
    fn seeding_recovers_duplicate_solves_bitwise() {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let text = sliced_bench(60, 24, 8);
        let netlist = xtalk_netlist::bench::parse(&text, &library).expect("parse");
        let parasitics = Parasitics::empty(netlist.net_count());
        let corners = Corner::default_matrix();
        let modes = [AnalysisMode::OneStep];
        // Signoff: exact solves only, so recovered duplicates show up as
        // Newton iterations saved (the macromodel would otherwise answer
        // this grid-friendly fixture without integrating at all).
        let config = ExecConfig {
            signoff: true,
            ..serial_config()
        };
        let run = |seed: bool| {
            ScenarioMatrix::new(
                &netlist,
                &library,
                &process,
                &parasitics,
                corners.clone(),
                config.clone(),
            )
            .expect("scenario")
            .with_seeding(seed)
            .run(&modes)
            .expect("run")
        };
        let seeded = run(true);
        let cold = run(false);
        // Warm == cold bitwise: seeding only changes which solves are
        // served from the exact-match cache, never their bits.
        for (s, c) in seeded.corners.iter().zip(&cold.corners) {
            assert_eq!(s.corner, c.corner);
            for (sr, cr) in s.reports.iter().zip(&c.reports) {
                assert_eq!(
                    sr.longest_delay.to_bits(),
                    cr.longest_delay.to_bits(),
                    "corner {} bits diverged under seeding",
                    s.corner
                );
                for (a, b) in sr.endpoints.iter().zip(&cr.endpoints) {
                    assert_eq!(a.rise.map(f64::to_bits), b.rise.map(f64::to_bits));
                    assert_eq!(a.fall.map(f64::to_bits), b.fall.map(f64::to_bits));
                }
            }
        }
        // Corner 0 runs cold either way; the harvested plan must recover
        // the cross-slice duplicates in the later corners.
        assert_eq!(seeded.corner_iters[0], cold.corner_iters[0]);
        assert!(
            seeded.total_iters() < cold.total_iters(),
            "seeded matrix must spend strictly fewer Newton iterations \
             ({} vs {})",
            seeded.total_iters(),
            cold.total_iters()
        );
    }
}
