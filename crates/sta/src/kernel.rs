//! The shared propagation core.
//!
//! One kernel drives every analysis surface: the batch [`crate::Sta`]
//! facade, the wavefront scheduler (`exec::wavefront`) and the incremental
//! ECO engine (`crate::incremental`) all execute passes through
//! [`PropagationCore`]. The kernel owns the arrival store ([`NodeState`]
//! per timing node), stage evaluation (sensitization, wire adjustment,
//! launch mirroring, the solve cache and the degrade-don't-die fallbacks)
//! and the pass drivers (serial level loop, wavefront, incremental dirty
//! sweep). What it does *not* own is the coupling treatment: each arc's
//! load decision is delegated to a [`crate::policy::CouplingPolicy`], so
//! the five analysis modes differ only in the policy object they pass in.
//!
//! Propagation is the paper's §4 breadth-first scheme over the expanded
//! stage graph: one worst-case waveform per node and transition direction,
//! visited in topological order (linear in arcs).
//!
//! # Invariants the layers above rely on
//!
//! - **Single producer:** every timing node is written by exactly one
//!   stage, so a stage's merges fully rebuild its output node and parallel
//!   tasks never contend on a cell.
//! - **Static calculatedness:** whether a node may be read at a given
//!   dependency level is a function of the graph alone
//!   ([`TimingGraph::calculated_at`]), identical for the serial loop, the
//!   wavefront scheduler and the incremental sweep — the root of their
//!   bit-identical results.
//! - **Deterministic evaluation:** merges within a stage are applied in
//!   fixed arc order and stage evaluation is a pure function of its inputs,
//!   so identical inputs reproduce bit-identical outputs (which also makes
//!   the incremental sweep's exact early termination sound).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use xtalk_layout::Parasitics;
use xtalk_netlist::Netlist;
use xtalk_tech::cell::{Stage, StageSignal};
use xtalk_tech::{Library, Process};
use xtalk_wave::macromodel;
use xtalk_wave::pwl::Waveform;
use xtalk_wave::stage::{Load, SolvedWave, StageError, StageScratch, StageSolver};

use crate::diag::{Diagnostic, FaultClass, Severity};
use crate::engine::StaError;
use crate::exec::cache::{admission_sig, arc_sig, Lookup, SolveKey};
use crate::exec::pool::WorkerPool;
use crate::exec::{wavefront, Executor};
use crate::graph::{StageId, TNodeId, TNodeKind, TimingGraph};
use crate::mode::AnalysisMode;
use crate::policy::CouplingPolicy;
use crate::report::{build_path, ModeReport, PassStat};

/// Extra arrival-time penalty of a conservative fallback waveform, seconds.
/// Far beyond any real stage delay of the supported designs, so a degraded
/// arrival can never be optimistic — and is obvious in a report.
const FALLBACK_PENALTY: f64 = 1e-7;

/// Failure-taxonomy class of a stage error (DESIGN.md D8).
fn fault_class_of(e: &StageError) -> FaultClass {
    match e {
        StageError::MissingSideValue { .. } | StageError::BadSlot { .. } => {
            FaultClass::TruncatedModel
        }
        StageError::NonFiniteInput => FaultClass::NonFiniteValue,
        StageError::Waveform(_) => FaultClass::NonMonotoneWaveform,
        // DidNotConverge, NumericalBlowup, and any future variant of the
        // non_exhaustive enum: the solver failed to produce a result.
        _ => FaultClass::SolverDivergence,
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Arrival information for one node and direction.
#[derive(Debug, Clone)]
pub struct WaveInfo {
    /// The worst-case waveform.
    pub wave: Waveform,
    /// Crossing time of the delay threshold (Vdd/2), seconds.
    pub crossing: f64,
    /// Time after which the node is quiet in this direction (waveform has
    /// passed the coupling threshold band), seconds.
    pub quiescent: f64,
    /// Predecessor arc, for path reconstruction.
    pub pred: Option<Pred>,
}

/// Predecessor record of a worst-case arrival.
#[derive(Debug, Clone, Copy)]
pub struct Pred {
    /// Stage-instance index.
    pub stage: usize,
    /// Input slot within the stage.
    pub slot: usize,
    /// Direction of the input transition.
    pub input_rising: bool,
}

/// Per-node arrival state (index 0 = falling, 1 = rising).
#[derive(Debug, Clone, Default)]
pub struct NodeState {
    /// The worst arrival per direction (index 0 = falling, 1 = rising).
    pub dirs: [Option<WaveInfo>; 2],
}

impl NodeState {
    /// The arrival in the given direction, if any.
    pub fn get(&self, rising: bool) -> Option<&WaveInfo> {
        self.dirs[rising as usize].as_ref()
    }
}

/// Quiescence classification of a net in one direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quiet {
    /// The net never makes this transition.
    Never,
    /// The net is quiet after this time.
    Until(f64),
}

/// Work counters of one pass or stage evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveCounters {
    /// Logical stage-solver calls — the paper's work metric (its mode
    /// comparisons count solver invocations). A call answered by the
    /// stage-solve cache still counts here.
    pub calls: usize,
    /// Newton integrations actually performed (cache misses or cache off).
    pub solves: usize,
    /// Calls answered by a reuse layer (per-stage memo or global cache).
    pub hits: usize,
    /// Subset of `hits` answered by the per-stage warm-start memo (borrowed
    /// bitwise compare, no key allocation) rather than the keyed cache.
    pub memo_hits: usize,
    /// Total Newton iterations consumed by the `solves` integrations — the
    /// cost metric driving cache admission.
    pub iters: usize,
    /// Per-solve Newton-iteration histogram: bucket 0 holds solves that
    /// took `< 64` iterations, then doubling bands (`< 128`, `< 256`, ...)
    /// to the `>= 4096` tail in bucket 7.
    pub hist: [usize; 8],
    /// Subset of `hits` answered by the characterized macromodel tables
    /// (DESIGN.md D12) instead of a Newton integration or a cached wave.
    pub table_hits: usize,
    /// Calls where a usable macromodel existed but declined the query
    /// (out-of-grid, unclassifiable input shape, unfoldable load) and the
    /// solve fell through to the ordinary Newton path.
    pub table_fallbacks: usize,
    /// `table_fallbacks` split by decline reason, indexed by
    /// [`macromodel::FallbackReason`] discriminant — the histogram that
    /// says whether to grow a grid axis or admit a load family next.
    pub table_fb_reasons: [usize; macromodel::FALLBACK_REASONS],
    /// Largest certified interpolation-error bound among the table hits,
    /// seconds — the worst-case pessimism the macromodel may have added.
    pub table_residual: f64,
}

impl SolveCounters {
    /// Adds `other`'s counts into `self`.
    pub fn absorb(&mut self, other: SolveCounters) {
        self.calls += other.calls;
        self.solves += other.solves;
        self.hits += other.hits;
        self.memo_hits += other.memo_hits;
        self.iters += other.iters;
        for (mine, theirs) in self.hist.iter_mut().zip(other.hist) {
            *mine += theirs;
        }
        self.table_hits += other.table_hits;
        self.table_fallbacks += other.table_fallbacks;
        for (mine, theirs) in self.table_fb_reasons.iter_mut().zip(other.table_fb_reasons) {
            *mine += theirs;
        }
        self.table_residual = self.table_residual.max(other.table_residual);
    }

    /// Accounts one performed Newton integration of `newton_iters` total
    /// iterations.
    fn record_solve(&mut self, newton_iters: usize) {
        self.solves += 1;
        self.iters += newton_iters;
        self.hist[iter_bucket(newton_iters)] += 1;
    }
}

/// Histogram bucket of one solve's Newton-iteration count (see
/// [`SolveCounters::hist`]).
fn iter_bucket(iters: usize) -> usize {
    let mut bucket = 0;
    let mut t = iters / 64;
    while t > 0 && bucket < 7 {
        t >>= 1;
        bucket += 1;
    }
    bucket
}

std::thread_local! {
    /// Reusable per-worker solve scratch: one buffer set per thread for the
    /// whole analysis instead of five heap allocations per stage solve
    /// (DESIGN.md D10). Thread-local rather than per-pass because the
    /// wavefront scheduler runs stage tasks on a persistent pool.
    static SCRATCH: std::cell::RefCell<StageScratch> =
        std::cell::RefCell::new(StageScratch::new());
}

/// One stage solve through the thread-local scratch — the zero-allocation
/// integration path every cache miss takes.
fn solve_lean(
    solver: &StageSolver<'_>,
    stage: &Stage,
    slot: usize,
    in_wave: &Waveform,
    side: &[f64],
    load: &Load,
) -> Result<SolvedWave, StageError> {
    SCRATCH.with(|s| solver.solve_with(&mut s.borrow_mut(), stage, slot, in_wave, side, load))
}

/// Result of one full propagation pass.
pub struct PassOutput {
    /// Final per-node arrival states.
    pub states: Vec<NodeState>,
    /// Solver work consumed.
    pub counters: SolveCounters,
}

/// Result of evaluating one stage: waveforms to merge into its output.
pub(crate) struct StageEval {
    pub(crate) merges: Vec<(bool, WaveInfo)>,
    pub(crate) counters: SolveCounters,
}

/// Read-only view of in-flight pass state, shared by the serial level loop
/// (a plain slice) and the wavefront scheduler (write-once cells committed
/// by each node's unique producer task).
pub enum StateView<'x> {
    /// The serial/incremental representation.
    Slice(&'x [NodeState]),
    /// The wavefront representation.
    Cells(&'x [OnceLock<NodeState>]),
}

impl StateView<'_> {
    /// The arrival of `node` in the given direction, if finalized.
    pub fn get(&self, node: usize, rising: bool) -> Option<&WaveInfo> {
        match self {
            StateView::Slice(states) => states[node].get(rising),
            StateView::Cells(cells) => cells[node].get().and_then(|st| st.get(rising)),
        }
    }
}

/// Per-stage fault-injection decision. In builds without the harness this
/// is a zero-sized no-op the optimizer removes entirely; with it, the
/// active [`crate::fault::FaultPlan`] decides at construction.
pub(crate) struct Inject {
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<crate::fault::Fault>,
}

impl Inject {
    /// Forces a typed stage error (or panics, for the mid-job-panic class)
    /// at the solver choke point when the plan selects this stage.
    fn forced_error(&self, _slot: usize) -> Option<StageError> {
        #[cfg(any(test, feature = "fault-injection"))]
        match self.fault {
            Some(crate::fault::Fault::TruncatedTable) => {
                return Some(StageError::MissingSideValue { slot: _slot });
            }
            Some(crate::fault::Fault::DivergentStage) => {
                return Some(StageError::DidNotConverge);
            }
            Some(crate::fault::Fault::MidJobPanic) => {
                panic!("fault injection: mid-job panic");
            }
            _ => {}
        }
        None
    }

    /// Corrupts the load with NaN when the plan selects this stage.
    fn doctor_load(&self, load: Load) -> Load {
        #[cfg(any(test, feature = "fault-injection"))]
        if self.fault == Some(crate::fault::Fault::NanLoad) {
            return Load {
                cground: f64::NAN,
                ..load
            };
        }
        load
    }

    /// Whether the freshly solved cache entry should be poisoned.
    #[cfg(any(test, feature = "fault-injection"))]
    fn poisons_cache(&self) -> bool {
        self.fault == Some(crate::fault::Fault::PoisonedCache)
    }

    /// Whether this stage's solves must bypass the per-stage memo. Any
    /// injected fault does: the robustness tests observe the keyed cache
    /// layer directly, and a memoized answer would mask the injected path.
    fn skips_memo(&self) -> bool {
        #[cfg(any(test, feature = "fault-injection"))]
        {
            self.fault.is_some()
        }
        #[cfg(not(any(test, feature = "fault-injection")))]
        {
            false
        }
    }
}

/// Outcome of one incremental sweep (`PropagationCore::repropagate`).
pub struct SweepOutput {
    /// Per-node flag: the node's cached state was replaced.
    pub changed: Vec<bool>,
    /// Solver work consumed (logical calls, Newton solves, cache hits).
    pub counters: SolveCounters,
    /// Stages re-evaluated (of `graph.stages.len()` total).
    pub reevaluated: usize,
}

/// Borrowed view of one analysis's inputs and expanded graph: the shared
/// propagation core. The batch [`crate::Sta`] facade and the incremental
/// (ECO) engine — which owns its design data and graph and so cannot use
/// [`crate::Sta`]'s borrowed form directly — both drive propagation
/// exclusively through this type.
pub struct PropagationCore<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) library: &'a Library,
    pub(crate) process: &'a Process,
    pub(crate) parasitics: &'a Parasitics,
    pub(crate) graph: &'a TimingGraph,
    pub(crate) exec: &'a Executor,
    /// `macromodel::process_sig(process)`, computed once per core: every
    /// macromodel key of its analyses folds it in.
    pub(crate) process_token: u64,
}

impl PropagationCore<'_> {
    /// Runs the requested analysis and reports the longest path.
    ///
    /// # Errors
    ///
    /// See [`StaError`].
    pub(crate) fn analyze(&self, mode: AnalysisMode) -> Result<ModeReport, StaError> {
        let started = Instant::now();
        // Diagnostics accumulate per analysis; drop leftovers from an
        // earlier run that errored out before assembling its report.
        drop(self.exec.drain_diagnostics());
        let mut pass_stats: Vec<PassStat> = Vec::new();
        let final_states = self.compute_states(mode, &mut pass_stats)?;
        self.assemble_report(mode, final_states, pass_stats, started)
    }

    /// The fault-injection decision for the stage driven by `_gate`.
    fn inject_for(&self, _gate: &str) -> Inject {
        Inject {
            #[cfg(any(test, feature = "fault-injection"))]
            fault: self.exec.fault_for(_gate),
        }
    }

    /// The [`PassStat`] of a completed pass output.
    pub(crate) fn pass_stat(&self, out: &PassOutput, earliest: bool) -> PassStat {
        PassStat {
            delay: self
                .extreme(&out.states, earliest)
                .map(|(_, _, d)| d)
                .unwrap_or(0.0),
            solver_calls: out.counters.calls,
            newton_solves: out.counters.solves,
            cache_hits: out.counters.hits,
            warm_hits: out.counters.memo_hits,
            newton_iters: out.counters.iters,
            iter_hist: out.counters.hist,
            table_hits: out.counters.table_hits,
            table_fallbacks: out.counters.table_fallbacks,
            table_fb_reasons: out.counters.table_fb_reasons,
            table_residual: out.counters.table_residual,
        }
    }

    /// Builds a [`ModeReport`] from completed states.
    pub(crate) fn assemble_report(
        &self,
        mode: AnalysisMode,
        final_states: Vec<NodeState>,
        pass_stats: Vec<PassStat>,
        started: Instant,
    ) -> Result<ModeReport, StaError> {
        let earliest = mode == AnalysisMode::MinDelay;
        let (endpoint, rising, longest_delay) = self
            .extreme(&final_states, earliest)
            .ok_or(StaError::NoArrivals)?;
        let endpoints = self.endpoint_arrivals(&final_states);
        // Per-net quiescent times (fall, rise) for downstream analyses
        // (glitch/noise checks, window debugging).
        let net_quiet = (0..self.netlist.net_count())
            .map(|ni| {
                let node = self.graph.net_node[ni];
                let st = &final_states[node.index()];
                (
                    st.get(false).map(|i| i.quiescent),
                    st.get(true).map(|i| i.quiescent),
                )
            })
            .collect();
        let critical_path = build_path(
            self.netlist,
            self.library,
            self.graph,
            &final_states,
            endpoint,
            rising,
            self.process.vdd,
        );
        let diagnostics = self.exec.drain_diagnostics();
        Ok(ModeReport {
            mode,
            longest_delay,
            endpoints,
            net_quiet,
            endpoint_net: match self.graph.nodes[endpoint.index()].kind {
                TNodeKind::Net(n) => Some(n),
                TNodeKind::Internal { .. } => None,
            },
            endpoint_rising: rising,
            critical_path,
            passes: pass_stats.len(),
            pass_delays: pass_stats.iter().map(|p| p.delay).collect(),
            stage_solves: pass_stats.iter().map(|p| p.solver_calls).sum(),
            newton_solves: pass_stats.iter().map(|p| p.newton_solves).sum(),
            cache_hits: pass_stats.iter().map(|p| p.cache_hits).sum(),
            warm_hits: pass_stats.iter().map(|p| p.warm_hits).sum(),
            newton_iters: pass_stats.iter().map(|p| p.newton_iters).sum(),
            table_hits: pass_stats.iter().map(|p| p.table_hits).sum(),
            table_fallbacks: pass_stats.iter().map(|p| p.table_fallbacks).sum(),
            table_fb_reasons: pass_stats.iter().fold(
                [0usize; macromodel::FALLBACK_REASONS],
                |mut acc, p| {
                    for (slot, n) in acc.iter_mut().zip(p.table_fb_reasons) {
                        *slot += n;
                    }
                    acc
                },
            ),
            table_residual: pass_stats
                .iter()
                .map(|p| p.table_residual)
                .fold(0.0, f64::max),
            pass_stats,
            diagnostics,
            runtime: started.elapsed(),
        })
    }

    /// The latest endpoint arrival: `(node, rising, delay)`.
    pub(crate) fn longest(&self, states: &[NodeState]) -> Option<(TNodeId, bool, f64)> {
        self.extreme(states, false)
    }

    /// The latest (or, with `earliest`, the earliest) endpoint arrival.
    pub(crate) fn extreme(
        &self,
        states: &[NodeState],
        earliest: bool,
    ) -> Option<(TNodeId, bool, f64)> {
        let mut best: Option<(TNodeId, bool, f64)> = None;
        for node in self.graph.endpoints() {
            for rising in [false, true] {
                if let Some(info) = states[node.index()].get(rising) {
                    let better = best
                        .map(|(_, _, d)| {
                            if earliest {
                                info.crossing < d
                            } else {
                                info.crossing > d
                            }
                        })
                        .unwrap_or(true);
                    if better {
                        best = Some((node, rising, info.crossing));
                    }
                }
            }
        }
        best
    }

    /// Per-endpoint arrival summary from a completed pass.
    fn endpoint_arrivals(&self, states: &[NodeState]) -> Vec<crate::report::EndpointArrival> {
        self.graph
            .endpoints()
            .filter_map(|node| {
                let net = match self.graph.nodes[node.index()].kind {
                    TNodeKind::Net(n) => n,
                    TNodeKind::Internal { .. } => return None,
                };
                let st = &states[node.index()];
                if st.get(false).is_none() && st.get(true).is_none() {
                    return None;
                }
                Some(crate::report::EndpointArrival {
                    net,
                    rise: st.get(true).map(|i| i.crossing),
                    fall: st.get(false).map(|i| i.crossing),
                })
            })
            .collect()
    }

    /// Quiescent-time table per net and direction, from a completed pass.
    pub(crate) fn quiet_table(&self, states: &[NodeState]) -> Vec<[Quiet; 2]> {
        (0..self.netlist.net_count())
            .map(|ni| {
                let node = self.graph.net_node[ni];
                let mut entry = [Quiet::Never; 2];
                for rising in [false, true] {
                    if let Some(info) = states[node.index()].get(rising) {
                        entry[rising as usize] = Quiet::Until(info.quiescent);
                    }
                }
                entry
            })
            .collect()
    }

    /// Esperance: stages whose output can still lie on a long path.
    pub(crate) fn long_path_stages(&self, states: &[NodeState], longest: f64) -> Vec<bool> {
        // Remaining downstream delay per node and direction, reverse topo.
        let n = self.graph.nodes.len();
        let mut remaining = vec![[0.0f64; 2]; n];
        for &si in self.graph.topo.iter().rev() {
            let stage = &self.graph.stages[si.index()];
            let out = stage.output.index();
            for (slot, input) in stage.inputs.iter().enumerate() {
                let _ = slot;
                for in_rising in [false, true] {
                    let out_rising = !in_rising;
                    let (Some(wi), Some(wo)) = (
                        states[input.node.index()].get(in_rising),
                        states[out].get(out_rising),
                    ) else {
                        continue;
                    };
                    let arc_delay = (wo.crossing - wi.crossing).max(0.0);
                    let cand = arc_delay + remaining[out][out_rising as usize];
                    let slot_rem = &mut remaining[input.node.index()][in_rising as usize];
                    if cand > *slot_rem {
                        *slot_rem = cand;
                    }
                }
            }
        }
        // A stage must be recomputed when its output's potential path length
        // is within 10% of the current longest delay.
        let margin = 0.9 * longest;
        self.graph
            .stages
            .iter()
            .map(|stage| {
                let out = stage.output.index();
                [false, true].into_iter().any(|rising| {
                    states[out]
                        .get(rising)
                        .map(|wi| wi.crossing + remaining[out][rising as usize] >= margin)
                        .unwrap_or(false)
                })
            })
            .collect()
    }

    /// Runs one full propagation pass under `policy` (whose
    /// [`CouplingPolicy::earliest`] selects min-delay semantics: earliest
    /// merging, fastest sensitization). Dispatches to the wavefront
    /// scheduler when the configuration allows parallelism and the design
    /// is big enough; both paths are bit-identical (see the scheduler notes
    /// in `DESIGN.md`).
    pub(crate) fn run_pass(
        &self,
        policy: &dyn CouplingPolicy,
        prev: Option<&[NodeState]>,
        recompute: Option<&[bool]>,
    ) -> Result<PassOutput, StaError> {
        if self.exec.deadline_expired() {
            return Err(StaError::DeadlineExceeded);
        }
        self.exec.memo().ensure(self.graph.stages.len());
        match self.exec.pool_for(self.graph.stages.len()) {
            Some(pool) => self.run_pass_wavefront(pool, policy, prev, recompute),
            None => self.run_pass_serial(policy, prev, recompute),
        }
    }

    /// The serial (and small-design) pass: the paper's breadth-first level
    /// loop, one stage at a time.
    fn run_pass_serial(
        &self,
        policy: &dyn CouplingPolicy,
        prev: Option<&[NodeState]>,
        recompute: Option<&[bool]>,
    ) -> Result<PassOutput, StaError> {
        let solver = StageSolver::new(self.process);
        let earliest = policy.earliest();
        let n = self.graph.nodes.len();
        let mut states: Vec<NodeState> = vec![NodeState::default(); n];
        let mut counters = SolveCounters::default();

        self.init_start_states(&mut states);

        for lvl in 0..self.graph.level_count() {
            // Cooperative cancellation: between levels is the natural
            // yield point of the breadth-first loop.
            if self.exec.deadline_expired() {
                return Err(StaError::DeadlineExceeded);
            }
            let results = self.eval_stages(
                &solver,
                self.graph.level(lvl),
                policy,
                &StateView::Slice(&states),
                prev,
                recompute,
            )?;
            for (si, ev) in results {
                let out_idx = self.graph.stages[si.index()].output.index();
                counters.absorb(ev.counters);
                for (out_rising, info) in ev.merges {
                    merge_with(&mut states[out_idx], out_rising, info, earliest);
                }
            }
        }

        Ok(PassOutput { states, counters })
    }

    /// The parallel pass: dependency-counter wavefront propagation over the
    /// persistent worker pool. Every node has a unique producer stage, so
    /// each task commits exactly its own output cell and the result is
    /// bit-identical to the serial level loop.
    fn run_pass_wavefront(
        &self,
        pool: &WorkerPool,
        policy: &dyn CouplingPolicy,
        prev: Option<&[NodeState]>,
        recompute: Option<&[bool]>,
    ) -> Result<PassOutput, StaError> {
        let solver = StageSolver::new(self.process);
        let earliest = policy.earliest();
        let n = self.graph.nodes.len();
        let cells: Vec<OnceLock<NodeState>> =
            std::iter::repeat_with(OnceLock::new).take(n).collect();
        let proto = self.start_node_state();
        for (i, node) in self.graph.nodes.iter().enumerate() {
            if node.is_start {
                let _ = cells[i].set(proto.clone());
            }
        }
        // An aggressor-aware policy reads finalized aggressor states, so
        // those become dependency edges too (acyclic by the static level
        // rule).
        let deps = wavefront::DepGraph::build(self.graph, policy.aggressor_aware());

        let calls = AtomicUsize::new(0);
        let solves = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let memo_hits = AtomicUsize::new(0);
        let newton_iters = AtomicUsize::new(0);
        let hist: [AtomicUsize; 8] = Default::default();
        let table_hits = AtomicUsize::new(0);
        let table_fallbacks = AtomicUsize::new(0);
        let table_fb_reasons: [AtomicUsize; macromodel::FALLBACK_REASONS] = Default::default();
        // f64 max via bit-pattern fetch_max: valid because the residual is
        // always >= 0 and non-negative IEEE754 doubles order like their bits.
        let table_residual_bits = AtomicU64::new(0);
        let failed = AtomicBool::new(false);
        let first_error: Mutex<Option<(usize, StaError)>> = Mutex::new(None);
        let view = StateView::Cells(&cells);

        wavefront::execute(pool, &deps, &|si: usize| {
            // After a failure the pass result is discarded; remaining tasks
            // only tick the scheduler's counters down.
            if failed.load(Ordering::Relaxed) {
                return;
            }
            // Cooperative cancellation: an expired request deadline aborts
            // the wavefront through the same first-error channel a failed
            // stage does, so remaining tasks drain without solving.
            if self.exec.deadline_expired() {
                failed.store(true, Ordering::Relaxed);
                let mut slot = first_error.lock().unwrap_or_else(PoisonError::into_inner);
                match &*slot {
                    Some((prev_si, _)) if *prev_si <= si => {}
                    _ => *slot = Some((si, StaError::DeadlineExceeded)),
                }
                return;
            }
            let sid = StageId(si as u32);
            match self.eval_stage_contained(sid, &solver, policy, &view, prev, recompute) {
                Ok(ev) => {
                    calls.fetch_add(ev.counters.calls, Ordering::Relaxed);
                    solves.fetch_add(ev.counters.solves, Ordering::Relaxed);
                    hits.fetch_add(ev.counters.hits, Ordering::Relaxed);
                    memo_hits.fetch_add(ev.counters.memo_hits, Ordering::Relaxed);
                    newton_iters.fetch_add(ev.counters.iters, Ordering::Relaxed);
                    for (bucket, n) in ev.counters.hist.iter().enumerate() {
                        if *n > 0 {
                            hist[bucket].fetch_add(*n, Ordering::Relaxed);
                        }
                    }
                    table_hits.fetch_add(ev.counters.table_hits, Ordering::Relaxed);
                    table_fallbacks.fetch_add(ev.counters.table_fallbacks, Ordering::Relaxed);
                    for (slot, n) in table_fb_reasons.iter().zip(ev.counters.table_fb_reasons) {
                        if n > 0 {
                            slot.fetch_add(n, Ordering::Relaxed);
                        }
                    }
                    if ev.counters.table_residual > 0.0 {
                        table_residual_bits
                            .fetch_max(ev.counters.table_residual.to_bits(), Ordering::Relaxed);
                    }
                    let mut out = NodeState::default();
                    for (out_rising, info) in ev.merges {
                        merge_with(&mut out, out_rising, info, earliest);
                    }
                    // Unique producer: this task alone writes this cell.
                    let _ = cells[self.graph.stages[si].output.index()].set(out);
                }
                Err(err) => {
                    failed.store(true, Ordering::Relaxed);
                    let mut slot = first_error.lock().unwrap_or_else(PoisonError::into_inner);
                    // Keep the lowest stage index for a deterministic error.
                    match &*slot {
                        Some((prev_si, _)) if *prev_si <= si => {}
                        _ => *slot = Some((si, err)),
                    }
                }
            }
        });

        if let Some((_, err)) = first_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(err);
        }
        let states = cells
            .into_iter()
            .map(|c| c.into_inner().unwrap_or_default())
            .collect();
        Ok(PassOutput {
            states,
            counters: SolveCounters {
                calls: calls.into_inner(),
                solves: solves.into_inner(),
                hits: hits.into_inner(),
                memo_hits: memo_hits.into_inner(),
                iters: newton_iters.into_inner(),
                hist: hist.map(AtomicUsize::into_inner),
                table_hits: table_hits.into_inner(),
                table_fallbacks: table_fallbacks.into_inner(),
                table_fb_reasons: table_fb_reasons.map(AtomicUsize::into_inner),
                table_residual: f64::from_bits(table_residual_bits.into_inner()),
            },
        })
    }

    /// The state of every startpoint node: full-swing ramps at `t = 0`.
    fn start_node_state(&self) -> NodeState {
        let process = self.process;
        let vdd = process.vdd;
        let th = process.delay_threshold();
        let vth = process.coupling_vth;
        let slew = process.default_input_slew;
        let rise = Waveform::ramp(0.0, slew, 0.0, vdd).expect("valid ramp");
        let fall = Waveform::ramp(0.0, slew, vdd, 0.0).expect("valid ramp");
        NodeState {
            dirs: [
                Some(self.wave_info(fall, th, vth, vdd, None)),
                Some(self.wave_info(rise, th, vth, vdd, None)),
            ],
        }
    }

    /// Seeds startpoint nodes (primary-input nets) with full-swing ramps at
    /// `t = 0`.
    pub(crate) fn init_start_states(&self, states: &mut [NodeState]) {
        let proto = self.start_node_state();
        for (i, node) in self.graph.nodes.iter().enumerate() {
            if node.is_start {
                states[i] = proto.clone();
            }
        }
    }

    /// The batch propagation step: evaluates an explicit set of stages
    /// against a read-only snapshot of the pass state and returns their
    /// output merges, in input order. The caller guarantees every stage in
    /// the set is ready (its inputs final), so the set fans out over the
    /// worker pool without internal ordering; the caller applies the merges
    /// serially. The serial level loop and the incremental dirty sweep
    /// drive propagation through this function.
    fn eval_stages(
        &self,
        solver: &StageSolver<'_>,
        stage_ids: &[StageId],
        policy: &dyn CouplingPolicy,
        view: &StateView<'_>,
        prev: Option<&[NodeState]>,
        recompute: Option<&[bool]>,
    ) -> Result<Vec<(StageId, StageEval)>, StaError> {
        let results: Vec<(StageId, Result<StageEval, StaError>)> =
            match self.exec.pool_for(stage_ids.len()) {
                None => stage_ids
                    .iter()
                    .map(|&si| {
                        (
                            si,
                            self.eval_stage_contained(si, solver, policy, view, prev, recompute),
                        )
                    })
                    .collect(),
                Some(pool) => {
                    let slots: Vec<OnceLock<(StageId, Result<StageEval, StaError>)>> =
                        std::iter::repeat_with(OnceLock::new)
                            .take(stage_ids.len())
                            .collect();
                    wavefront::execute_flat(pool, stage_ids.len(), &|pos: usize| {
                        let si = stage_ids[pos];
                        let result =
                            self.eval_stage_contained(si, solver, policy, view, prev, recompute);
                        let _ = slots[pos].set((si, result));
                    });
                    slots
                        .into_iter()
                        .map(|slot| slot.into_inner().expect("every slot evaluated"))
                        .collect()
                }
            };
        results
            .into_iter()
            .map(|(si, result)| result.map(|ev| (si, ev)))
            .collect()
    }

    /// Evaluates one stage against the current (read-only) pass state,
    /// returning the output merges to apply.
    fn eval_stage(
        &self,
        si: StageId,
        solver: &StageSolver<'_>,
        policy: &dyn CouplingPolicy,
        view: &StateView<'_>,
        prev: Option<&[NodeState]>,
        recompute: Option<&[bool]>,
    ) -> Result<StageEval, StageError> {
        let process = self.process;
        let vdd = process.vdd;
        let th = process.delay_threshold();
        let vth = process.coupling_vth;
        let earliest = policy.earliest();
        let stage_inst = &self.graph.stages[si.index()];
        let out_idx = stage_inst.output.index();
        let mut ev = StageEval {
            merges: Vec::new(),
            counters: SolveCounters::default(),
        };

        // Esperance: reuse the previous pass's result for off-path stages
        // (still a safe upper bound).
        if let (Some(mask), Some(prev_states)) = (recompute, prev) {
            if !mask[si.index()] {
                for rising in [false, true] {
                    if let Some(pi) = prev_states[out_idx].get(rising) {
                        ev.merges.push((rising, pi.clone()));
                    }
                }
                return Ok(ev);
            }
        }

        let gate = self.netlist.gate(stage_inst.gate);
        let cell = self
            .library
            .cell(&gate.cell)
            .expect("graph construction verified cells");
        let stage: &Stage = &cell.stages[stage_inst.stage];
        let inject = self.inject_for(&gate.name);

        for (slot, input) in stage_inst.inputs.iter().enumerate() {
            let launch = stage_inst.is_launch && matches!(stage.inputs[slot], StageSignal::Launch);
            for in_rising in [false, true] {
                // Launch stages fire on the clock's rising edge only; the
                // falling launch transition is the mirrored clock rise
                // (Q falls at the same clock edge).
                let source_rising = if launch { true } else { in_rising };
                let Some(info) = view.get(input.node.index(), source_rising) else {
                    continue;
                };
                let out_rising = !in_rising;
                let side_table = if earliest {
                    &stage_inst.sides_fast
                } else {
                    &stage_inst.sides
                };
                let Some(side) = side_table[slot][out_rising as usize].as_ref() else {
                    continue;
                };

                // Wire-adjusted input waveform at this sink.
                let mut in_wave = self.wire_adjusted(info, input.node, input.sink, th);
                if launch && !in_rising {
                    in_wave = mirror(&in_wave, vdd);
                }

                // The arc's characterized macromodel, when the fast path
                // applies. Signoff forces the full solver; min-delay tables
                // are not characterized (a pessimistic table would be
                // *optimistic* for earliest-arrival merging); launch arcs
                // and fault-injected stages always take the ordinary path.
                // Sequential cells are outside every characterization
                // universe: models are keyed by the stage's transistors,
                // so without this guard a flip-flop's output inverter
                // would be served its combinational twin's padded table.
                let eligible = !(self.exec.config().signoff
                    || earliest
                    || launch
                    || cell.is_sequential()
                    || inject.skips_memo());
                let arc_key = eligible.then(|| {
                    macromodel::arc_key(self.process_token, stage_inst.sig, slot, out_rising, side)
                });
                let stored = arc_key.and_then(macromodel::model_for);
                // In lazy mode an arc with no model yet carries its key
                // down to the solve layer, which characterizes on the
                // first in-admission query (the only place the query load
                // exists). Only arcs in the prewarm universe qualify —
                // lazy must never build a model a prewarm pass would not,
                // or the two schedules would route queries differently.
                // An arc whose model is merely unusable is already
                // characterized — nothing lazy to do.
                let lazy_arc = if stored.is_none()
                    && self.exec.config().characterize == crate::exec::CharacterizeMode::Lazy
                    && macromodel::prewarm_member(
                        process,
                        cell,
                        stage_inst.stage,
                        slot,
                        out_rising,
                        side,
                    ) {
                    arc_key
                } else {
                    None
                };
                let model = stored.filter(|m| m.usable());

                // Coupling treatment is the policy's call; the kernel owns
                // the solver choke point behind the callback. A failed
                // solve degrades to the conservative fallback waveform
                // under a diagnostic unless strict mode asks for the error
                // itself.
                let arc = crate::policy::ArcCtx {
                    graph: self.graph,
                    view,
                    si,
                    out_rising,
                    vdd,
                    vth,
                };
                let solved = {
                    let counters = &mut ev.counters;
                    // Position of each solve within this arc evaluation
                    // (one-step policies solve an arc twice: grounded trial
                    // then active), part of the memo identity.
                    let mut arc_ordinal: u8 = 0;
                    let mut solve = |load: Load| {
                        let ordinal = arc_ordinal;
                        arc_ordinal = arc_ordinal.wrapping_add(1);
                        self.solve_cached(
                            solver,
                            si,
                            ordinal,
                            &gate.cell,
                            stage_inst.stage,
                            stage,
                            slot,
                            &in_wave,
                            side,
                            load,
                            out_rising,
                            earliest,
                            model.as_deref(),
                            lazy_arc,
                            counters,
                            &inject,
                        )
                    };
                    policy.solve_arc(&arc, &mut solve)
                };
                let wave = match solved {
                    Ok(wave) => wave,
                    Err(e) => {
                        if self.exec.config().strict {
                            return Err(e);
                        }
                        let fb = self.fallback_wave(&in_wave, out_rising, earliest);
                        let crossing = fb.crossing(th).unwrap_or_else(|| fb.end_time());
                        self.exec.push_diagnostic(Diagnostic {
                            severity: Severity::Error,
                            node: gate.name.clone(),
                            fault: fault_class_of(&e),
                            substituted_bound: Some(crossing),
                            detail: e.to_string(),
                        });
                        fb
                    }
                };
                let winfo = self.wave_info(
                    wave,
                    th,
                    vth,
                    vdd,
                    Some(Pred {
                        stage: si.index(),
                        slot,
                        input_rising: in_rising,
                    }),
                );
                ev.merges.push((out_rising, winfo));
            }
        }
        Ok(ev)
    }

    /// A conservative substitute waveform for a degraded arc: a full-swing
    /// ramp placed so the reported arrival can never be optimistic — for
    /// max-delay analyses far *later* than any real stage response (the
    /// input's end plus [`FALLBACK_PENALTY`]), and for min-delay at the
    /// input's start, *earlier* than any real response.
    fn fallback_wave(&self, in_wave: &Waveform, out_rising: bool, earliest: bool) -> Waveform {
        let vdd = self.process.vdd;
        let (v0, v1) = if out_rising { (0.0, vdd) } else { (vdd, 0.0) };
        let slew = self.process.default_input_slew;
        if earliest {
            Waveform::ramp(in_wave.start_time(), slew, v0, v1).expect("fallback ramp is finite")
        } else {
            Waveform::ramp(in_wave.end_time() + FALLBACK_PENALTY, 10.0 * slew, v0, v1)
                .expect("fallback ramp is finite")
        }
    }

    /// The whole-stage conservative substitute used when a stage task
    /// panics: every arc that would have been solved gets the fallback
    /// waveform instead. Mirrors `eval_stage`'s arc walk (Esperance reuse,
    /// launch mirroring, side-table gating) without touching the solver.
    fn fallback_eval(
        &self,
        si: StageId,
        policy: &dyn CouplingPolicy,
        view: &StateView<'_>,
        prev: Option<&[NodeState]>,
        recompute: Option<&[bool]>,
    ) -> StageEval {
        let process = self.process;
        let vdd = process.vdd;
        let th = process.delay_threshold();
        let vth = process.coupling_vth;
        let earliest = policy.earliest();
        let stage_inst = &self.graph.stages[si.index()];
        let out_idx = stage_inst.output.index();
        let mut ev = StageEval {
            merges: Vec::new(),
            counters: SolveCounters::default(),
        };
        if let (Some(mask), Some(prev_states)) = (recompute, prev) {
            if !mask[si.index()] {
                for rising in [false, true] {
                    if let Some(pi) = prev_states[out_idx].get(rising) {
                        ev.merges.push((rising, pi.clone()));
                    }
                }
                return ev;
            }
        }
        let gate = self.netlist.gate(stage_inst.gate);
        let cell = self
            .library
            .cell(&gate.cell)
            .expect("graph construction verified cells");
        let stage: &Stage = &cell.stages[stage_inst.stage];
        for (slot, input) in stage_inst.inputs.iter().enumerate() {
            let launch = stage_inst.is_launch && matches!(stage.inputs[slot], StageSignal::Launch);
            for in_rising in [false, true] {
                let source_rising = if launch { true } else { in_rising };
                let Some(info) = view.get(input.node.index(), source_rising) else {
                    continue;
                };
                let out_rising = !in_rising;
                let side_table = if earliest {
                    &stage_inst.sides_fast
                } else {
                    &stage_inst.sides
                };
                if side_table[slot][out_rising as usize].is_none() {
                    continue;
                }
                let fb = self.fallback_wave(&info.wave, out_rising, earliest);
                let winfo = self.wave_info(
                    fb,
                    th,
                    vth,
                    vdd,
                    Some(Pred {
                        stage: si.index(),
                        slot,
                        input_rising: in_rising,
                    }),
                );
                ev.merges.push((out_rising, winfo));
            }
        }
        ev
    }

    /// Evaluates one stage with panic containment: a panicking task is
    /// converted into a conservative fallback evaluation plus a
    /// [`FaultClass::WorkerPanic`] diagnostic (or, in strict mode, into
    /// [`StaError::Panic`]) instead of tearing down the pass. Solver errors
    /// are tagged with the gate name here.
    fn eval_stage_contained(
        &self,
        si: StageId,
        solver: &StageSolver<'_>,
        policy: &dyn CouplingPolicy,
        view: &StateView<'_>,
        prev: Option<&[NodeState]>,
        recompute: Option<&[bool]>,
    ) -> Result<StageEval, StaError> {
        match catch_unwind(AssertUnwindSafe(|| {
            self.eval_stage(si, solver, policy, view, prev, recompute)
        })) {
            Ok(Ok(ev)) => Ok(ev),
            Ok(Err(e)) => Err(StaError::Stage {
                gate: self
                    .netlist
                    .gate(self.graph.stages[si.index()].gate)
                    .name
                    .clone(),
                source: e,
            }),
            Err(payload) => {
                let gate = self
                    .netlist
                    .gate(self.graph.stages[si.index()].gate)
                    .name
                    .clone();
                if self.exec.config().strict {
                    return Err(StaError::Panic { gate });
                }
                let ev = self.fallback_eval(si, policy, view, prev, recompute);
                let bound = ev
                    .merges
                    .iter()
                    .map(|(_, info)| info.crossing)
                    .fold(f64::NEG_INFINITY, f64::max);
                self.exec.push_diagnostic(Diagnostic {
                    severity: Severity::Error,
                    node: gate,
                    fault: FaultClass::WorkerPanic,
                    substituted_bound: bound.is_finite().then_some(bound),
                    detail: panic_message(payload.as_ref()),
                });
                Ok(ev)
            }
        }
    }

    /// One stage solve routed through the reuse layers. `calls` counts the
    /// logical invocation either way; only a full miss (or a disabled
    /// cache) pays the Newton integration, through the thread-local scratch
    /// ([`solve_lean`]). Reuse is layered cheapest-first (DESIGN.md D10):
    ///
    /// 0. the arc's characterized macromodel tables, when the caller
    ///    resolved one (`model`) — interpolation plus certified pessimistic
    ///    padding instead of an exact answer, which is why signoff mode and
    ///    min-delay analyses never resolve a model (DESIGN.md D12);
    /// 1. the per-stage memo (`exec::memo`) — a borrowed bitwise compare
    ///    with no key allocation, which is what makes refinement re-solves
    ///    of unchanged arcs nearly free;
    /// 2. the keyed stage-solve cache (`exec::cache`) — probed only when
    ///    the admission policy admitted this signature, so cheap shallow
    ///    solves skip the allocating probe entirely;
    /// 3. the solve itself, whose measured Newton-iteration cost then
    ///    feeds the adaptive admission threshold.
    ///
    /// Layers 1–3 match exact inputs bitwise, so a hit there is
    /// bit-identical to the solve it replaces; only layer 0 substitutes a
    /// (bounded, conservative) approximation.
    ///
    /// This is the engine's solver choke point, so it also hosts the fault
    /// harness (`inject`) and the cache guardrails: a load that refuses a
    /// signature (non-finite capacitance) solves uncached under a
    /// diagnostic, a corrupt cache entry is reported, never served, and a
    /// fault-injected stage bypasses the memo so the injected path stays
    /// observable at the cache layer.
    #[allow(clippy::too_many_arguments)]
    fn solve_cached(
        &self,
        solver: &StageSolver<'_>,
        si: StageId,
        ordinal: u8,
        cell_name: &str,
        stage_in_cell: usize,
        stage: &Stage,
        slot: usize,
        in_wave: &Waveform,
        side: &[f64],
        load: Load,
        out_rising: bool,
        earliest: bool,
        model: Option<&macromodel::ArcModel>,
        lazy_arc: Option<u64>,
        counters: &mut SolveCounters,
        inject: &Inject,
    ) -> Result<Waveform, StageError> {
        counters.calls += 1;
        if let Some(e) = inject.forced_error(slot) {
            return Err(e);
        }
        let load = inject.doctor_load(load);
        // Demand-driven characterization: a lazy-mode arc with no model
        // yet builds its grid on the first in-admission query. The sweep
        // is a deterministic pure function of `(process, arc)` and the
        // model-store insert is first-wins, so *when* it happens cannot
        // change the table bits — lazy and prewarm serve identical
        // answers. Out-of-admission queries never trigger it (they would
        // fall back to the exact solver under a prewarmed model too).
        let lazy_model = match (model, lazy_arc) {
            (None, Some(key))
                if macromodel::query_admissible(self.process, in_wave, &load, out_rising) =>
            {
                let built =
                    macromodel::ensure_model(key, self.process, stage, slot, side, out_rising);
                if let Some(store) = self.exec.char_store() {
                    let identity = macromodel::arc_identity(
                        self.graph.stages[si.index()].sig,
                        slot,
                        out_rising,
                        side,
                    );
                    // Append failures degrade to characterize-again-next-
                    // process; the analysis itself is unaffected.
                    let _ = store.append_models(&[(key, identity, built.to_bytes())]);
                }
                Some(built)
            }
            _ => None,
        };
        let model = model.or_else(|| lazy_model.as_deref().filter(|m| m.usable()));
        // The macromodel fast path: answer from the arc's characterized
        // tables when the query folds into the grid (DESIGN.md D12). The
        // synthesized waveform carries the cell's certified pessimistic
        // padding, so a table answer is conservative, never optimistic; a
        // declined query (and every signoff-mode solve, which arrives here
        // with `model == None`) falls through to the exact layers below.
        if let Some(model) = model {
            match model.lookup_classified(in_wave, &load, out_rising) {
                Ok(wave) => {
                    counters.hits += 1;
                    counters.table_hits += 1;
                    counters.table_residual =
                        counters.table_residual.max(model.certified_delay_bound());
                    macromodel::note_hit();
                    return Ok(wave);
                }
                Err(reason) => {
                    counters.table_fallbacks += 1;
                    counters.table_fb_reasons[reason as usize] += 1;
                    macromodel::note_fallback_reason(reason);
                }
            }
        }
        let cache = self.exec.cache();
        if !cache.enabled() {
            let solved = solve_lean(solver, stage, slot, in_wave, side, &load)?;
            counters.record_solve(solved.newton_iters);
            return Ok(solved.wave);
        }
        // The reuse layers are corner-keyed: a scenario run shares one
        // executor (memo + cache) across PVT corners over the same graph,
        // so the same stage/slot/inputs at two corners must never serve
        // each other's bits. The base process carries signature 0, keeping
        // single-corner behavior byte-for-byte unchanged.
        let corner = self.process.corner_sig();
        // Probe the memo before hashing the admission signature: a memo hit
        // answers from the per-stage table alone, so the (waveform-length)
        // FNV hash would be pure overhead on the hit path. A non-finite load
        // can never hit (the memo only stores finite loads, and no finite
        // bit pattern equals a NaN/Inf pattern), so the diagnostic below is
        // reached exactly as before.
        let memo = self.exec.memo();
        if !inject.skips_memo() {
            if let Some(wave) = memo.get(
                si, slot, ordinal, out_rising, earliest, corner, in_wave, &load,
            ) {
                counters.hits += 1;
                counters.memo_hits += 1;
                return Ok(wave);
            }
        }
        let Some(sig) = admission_sig(
            cell_name,
            stage_in_cell,
            slot,
            out_rising,
            earliest,
            corner,
            in_wave,
            &load,
        ) else {
            // A non-finite load has no canonical signature; solve uncached
            // and let the stage solver's own input validation classify it.
            self.exec.push_diagnostic(Diagnostic {
                severity: Severity::Warning,
                node: cell_name.to_string(),
                fault: FaultClass::NonFiniteValue,
                substituted_bound: None,
                detail: "non-finite load capacitance rejected by the solve cache".to_string(),
            });
            let solved = solve_lean(solver, stage, slot, in_wave, side, &load)?;
            counters.record_solve(solved.newton_iters);
            return Ok(solved.wave);
        };
        // Cross-corner warm seeding (scenario runs only): while a seed
        // observation is active, record this solve identity so recurrent
        // arcs can be pre-admitted at the next corner, and honor the plan
        // the previous corner installed. Seeding only widens what the
        // exact-match cache *stores* — a served entry is always this
        // corner's own bits under the corner-keyed SolveKey — so it saves
        // Newton iterations without ever changing a result (DESIGN.md D14).
        let seeded_arc = if cache.seeding_active() {
            let arc = arc_sig(cell_name, stage_in_cell, slot, out_rising, earliest);
            cache.observe_sig(sig, arc);
            cache.arc_seeded(arc)
        } else {
            false
        };
        let mut key = None;
        if cache.wants(sig) || seeded_arc {
            key = SolveKey::new(
                cell_name,
                stage_in_cell,
                slot,
                out_rising,
                earliest,
                corner,
                in_wave,
                &load,
            );
            if let Some(k) = &key {
                match cache.get(k) {
                    Lookup::Hit(wave) => {
                        counters.hits += 1;
                        return Ok(wave);
                    }
                    Lookup::Corrupt => {
                        self.exec.push_diagnostic(Diagnostic {
                            severity: Severity::Warning,
                            node: cell_name.to_string(),
                            fault: FaultClass::CacheCorruption,
                            substituted_bound: None,
                            detail: "cache entry failed its integrity check; evicted and re-solved"
                                .to_string(),
                        });
                    }
                    Lookup::Miss => {}
                }
            }
        }
        let solved = solve_lean(solver, stage, slot, in_wave, side, &load)?;
        counters.record_solve(solved.newton_iters);
        let wave = solved.wave;
        #[cfg(any(test, feature = "fault-injection"))]
        if inject.poisons_cache() {
            // The poisoned entry must land in the keyed cache regardless of
            // the admission policy — the robustness tests corrupt it there.
            cache.force_admit(sig);
            let key = key.or_else(|| {
                SolveKey::new(
                    cell_name,
                    stage_in_cell,
                    slot,
                    out_rising,
                    earliest,
                    corner,
                    in_wave,
                    &load,
                )
            });
            if let Some(k) = key {
                cache.put_poisoned(k, wave.clone());
            }
            return Ok(wave);
        }
        if !inject.skips_memo() {
            memo.put(
                si,
                slot,
                ordinal,
                out_rising,
                earliest,
                corner,
                in_wave,
                &load,
                wave.clone(),
            );
        }
        let admitted = cache.admit_cost(sig, solved.newton_iters as u64);
        if admitted || seeded_arc {
            if !admitted {
                // The plan pre-admits this arc: store even a solve the cost
                // policy would decline, so the next occurrence of this exact
                // identity hits instead of re-integrating.
                cache.admit_seeded(sig);
            }
            let key = key.or_else(|| {
                SolveKey::new(
                    cell_name,
                    stage_in_cell,
                    slot,
                    out_rising,
                    earliest,
                    corner,
                    in_wave,
                    &load,
                )
            });
            if let Some(k) = key {
                cache.put(k, wave.clone());
            }
        }
        Ok(wave)
    }

    fn wave_info(
        &self,
        wave: Waveform,
        th: f64,
        vth: f64,
        vdd: f64,
        pred: Option<Pred>,
    ) -> WaveInfo {
        let crossing = wave.crossing(th).unwrap_or_else(|| wave.end_time());
        let quiescent = if wave.is_rising() {
            wave.crossing(vdd - vth).unwrap_or_else(|| wave.end_time())
        } else {
            wave.crossing(vth).unwrap_or_else(|| wave.end_time())
        };
        WaveInfo {
            wave,
            crossing,
            quiescent,
            pred,
        }
    }

    /// Applies Elmore delay and PERI slew degradation for the wire between
    /// a net's driver and the given sink.
    fn wire_adjusted(
        &self,
        info: &WaveInfo,
        node: TNodeId,
        sink: Option<usize>,
        th: f64,
    ) -> Waveform {
        let (TNodeKind::Net(net), Some(k)) = (self.graph.nodes[node.index()].kind, sink) else {
            return info.wave.clone();
        };
        let np = &self.parasitics.nets[net.index()];
        // Downstream pin cap of this sink.
        let pin_c = self
            .netlist
            .net(net)
            .loads
            .get(k)
            .and_then(|&(g, pin)| {
                self.library
                    .cell(&self.netlist.gate(g).cell)
                    .and_then(|c| c.input_cap.get(pin).copied())
            })
            .unwrap_or(0.0);
        let elmore = np.elmore(k, pin_c);
        if elmore < 1e-15 {
            return info.wave.clone();
        }
        let (lo, hi) = self.process.slew_thresholds();
        let wave = match info.wave.slew(lo, hi) {
            Some(s) if s > 1e-15 => {
                // PERI: slew_out^2 = slew_in^2 + (ln9 * elmore)^2.
                let ln9 = 9.0f64.ln();
                let out = (s * s + (ln9 * elmore).powi(2)).sqrt();
                info.wave.stretched_around(th, out / s)
            }
            _ => info.wave.clone(),
        };
        wave.shifted(elmore)
    }

    /// Re-propagates one cached pass in place: the incremental (ECO)
    /// engine's dirty-cone sweep. `seed` flags stages invalidated directly
    /// by edits; `quiet_dirty` (refinement passes only) flags nets whose
    /// quiet-table entry differs from the one the cached pass consumed.
    ///
    /// One batch pass walks the dependency levels in order and evaluates
    /// every stage. This sweep walks the same levels over a *cached* state
    /// vector and re-evaluates a stage only when its result can differ from
    /// the cache:
    ///
    /// - the stage is a **seed** (its gate was named dirty by an edit:
    ///   cell, load, wire or coupling data changed under it);
    /// - an **input node changed** during this sweep (the ordinary
    ///   electrical fan-out cone);
    /// - the policy's **coupling decision can differ**
    ///   ([`CouplingPolicy::coupling_dirty`]) — the crosstalk-specific part
    ///   of the dirty rule. Under the one-step policy a changed-and-
    ///   calculated aggressor net dirties the victim's stage even though no
    ///   timing arc connects them; during refinement the decision reads the
    ///   previous pass's quiet table instead. Uniform policies add no dirt.
    ///
    /// Early termination: a re-evaluated stage whose fresh output matches
    /// the cache within `epsilon` does not mark its output changed, so its
    /// clean fan-out is never visited. Because each timing node has exactly
    /// one producer stage and levels are applied in order, replaying the
    /// dirty subset over the cached states reproduces the batch pass
    /// exactly (at epsilon zero).
    pub(crate) fn repropagate(
        &self,
        policy: &dyn CouplingPolicy,
        states: &mut Vec<NodeState>,
        seed: &[bool],
        quiet_dirty: Option<&[bool]>,
        epsilon: f64,
    ) -> Result<SweepOutput, StaError> {
        if self.exec.deadline_expired() {
            return Err(StaError::DeadlineExceeded);
        }
        self.exec.memo().ensure(self.graph.stages.len());
        let solver = StageSolver::new(self.process);
        let earliest = policy.earliest();
        let n = self.graph.nodes.len();
        states.resize(n, NodeState::default());
        let mut out = SweepOutput {
            changed: vec![false; n],
            counters: SolveCounters::default(),
            reevaluated: 0,
        };

        // Start states depend only on the process, but re-derive and compare
        // them so a start node that fell out of the cache remap is repaired.
        let mut starts: Vec<NodeState> = vec![NodeState::default(); n];
        self.init_start_states(&mut starts);
        for i in 0..n {
            if self.graph.nodes[i].is_start && !state_eq(&states[i], &starts[i], epsilon) {
                states[i] = std::mem::take(&mut starts[i]);
                out.changed[i] = true;
            }
        }
        drop(starts);

        let mut dirty: Vec<StageId> = Vec::new();
        for lvl in 0..self.graph.level_count() {
            // Same per-level cancellation point as the batch level loop.
            if self.exec.deadline_expired() {
                return Err(StaError::DeadlineExceeded);
            }
            dirty.clear();
            for &si in self.graph.level(lvl) {
                let stage = &self.graph.stages[si.index()];
                let mut is_dirty = seed[si.index()]
                    || stage
                        .inputs
                        .iter()
                        .any(|input| out.changed[input.node.index()]);
                if !is_dirty && !self.graph.couplings_of(si).is_empty() {
                    is_dirty =
                        policy.coupling_dirty(self.graph, si, lvl, &out.changed, quiet_dirty);
                }
                if is_dirty {
                    dirty.push(si);
                }
            }

            if !dirty.is_empty() {
                let results = self.eval_stages(
                    &solver,
                    &dirty,
                    policy,
                    &StateView::Slice(states),
                    None,
                    None,
                )?;
                for (si, ev) in results {
                    out.counters.absorb(ev.counters);
                    out.reevaluated += 1;
                    let out_idx = self.graph.stages[si.index()].output.index();
                    // Rebuild the output from scratch: this stage is the
                    // node's only producer, so its merges are the complete
                    // state.
                    let mut fresh = NodeState::default();
                    for (out_rising, info) in ev.merges {
                        merge_with(&mut fresh, out_rising, info, earliest);
                    }
                    if !state_eq(&states[out_idx], &fresh, epsilon) {
                        states[out_idx] = fresh;
                        out.changed[out_idx] = true;
                    }
                }
            }
        }

        Ok(out)
    }
}

/// Keeps the worst waveform per direction: latest-crossing for max-delay
/// analysis, earliest-crossing when `earliest` is set (min-delay).
pub(crate) fn merge_with(state: &mut NodeState, rising: bool, info: WaveInfo, earliest: bool) {
    let slot = &mut state.dirs[rising as usize];
    match slot {
        Some(existing)
            if (!earliest && existing.crossing >= info.crossing)
                || (earliest && existing.crossing <= info.crossing) => {}
        _ => *slot = Some(info),
    }
}

/// Mirror a waveform across mid-rail (rising clock edge -> falling launch).
fn mirror(wave: &Waveform, vdd: f64) -> Waveform {
    let pts: Vec<(f64, f64)> = wave.points().iter().map(|&(t, v)| (t, vdd - v)).collect();
    Waveform::new(pts).expect("mirror of a monotone waveform is monotone")
}

/// Arrival-state equality within `epsilon` (seconds for times, volts for
/// waveform values). At the default `epsilon == 0.0` this is exact, which
/// still terminates early because re-evaluation is deterministic: a stage
/// whose inputs are bit-identical reproduces a bit-identical output.
/// Predecessor arcs are ignored — they are a function of the winning merge
/// and agree whenever the waveforms do.
pub(crate) fn state_eq(a: &NodeState, b: &NodeState, epsilon: f64) -> bool {
    for dir in 0..2 {
        match (&a.dirs[dir], &b.dirs[dir]) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                if !wave_info_eq(x, y, epsilon) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

fn wave_info_eq(a: &WaveInfo, b: &WaveInfo, epsilon: f64) -> bool {
    if !close(a.crossing, b.crossing, epsilon) || !close(a.quiescent, b.quiescent, epsilon) {
        return false;
    }
    let (pa, pb) = (a.wave.points(), b.wave.points());
    pa.len() == pb.len()
        && pa
            .iter()
            .zip(pb)
            .all(|(&(ta, va), &(tb, vb))| close(ta, tb, epsilon) && close(va, vb, epsilon))
}

#[inline]
fn close(a: f64, b: f64, epsilon: f64) -> bool {
    (a - b).abs() <= epsilon
}
