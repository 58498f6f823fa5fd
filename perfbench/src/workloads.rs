//! The four workloads: seeded input generation, session set-up, one timed
//! call into the program with its correctness gate, and the standalone
//! layer calls the traced pass times.

use crate::spans::Spans;
use orwl_cluster::{policy_placement, ClusterBackend, ClusterMachine};
use orwl_core::prelude::*;
use orwl_core::session::Report;
use orwl_lab::{ScenarioFamily, ScenarioSpec};
use orwl_lk23::blocks::BlockDecomposition;
use orwl_lk23::kernel::{reference_jacobi, Grid};
use orwl_lk23::openmp_like::run_openmp_like;
use orwl_lk23::orwl_impl::run_orwl;
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::{ObsConfig, RunTelemetry};
use orwl_proc::{ProcBackend, WorkerPool, CORR_TOLERANCE};
use orwl_topo::topology::Topology;
use orwl_treematch::policies::compute_placement;
use std::time::{Duration, Instant};

/// LK23 grid side (square grid of doubles).
const LK23_GRID: usize = 256;
/// LK23 block tasks per side (8 × 8 = 64 tasks).
const LK23_BLOCKS: usize = 8;
/// LK23 Jacobi sweeps per run.
const LK23_ITERATIONS: usize = 200;
/// Tasks of every proc workload.
const PROC_TASKS: usize = 32;
/// Worker processes (simulated cluster nodes) of every proc workload.
const PROC_NODES: usize = 2;
/// Per-step deadline handed to the proc backend and the standalone pool.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// The paper's LK23 kernel on the thread backend, TreeMatch ("Bind").
    Lk23Threads,
    /// `dense_stencil` on real processes, long schedule: bytes-bound.
    ProcStencil,
    /// `shuffle` (all-to-all, 2 KiB) on real processes: section-bound.
    ProcShuffle,
    /// `dense_stencil`, two iterations, many runs: control-plane-bound.
    ProcControl,
}

impl Name {
    /// Every workload, in documentation order.
    pub const ALL: [Name; 4] = [Name::Lk23Threads, Name::ProcStencil, Name::ProcShuffle, Name::ProcControl];

    /// The command-line name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Lk23Threads => "lk23_threads",
            Name::ProcStencil => "proc_stencil",
            Name::ProcShuffle => "proc_shuffle",
            Name::ProcControl => "proc_control",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    /// The scenario family and iteration count of a proc workload.
    fn proc_shape(self) -> Option<(ScenarioFamily, usize)> {
        match self {
            Name::Lk23Threads => None,
            Name::ProcStencil => Some((ScenarioFamily::DenseStencil, 2000)),
            Name::ProcShuffle => Some((ScenarioFamily::Shuffle, 100)),
            Name::ProcControl => Some((ScenarioFamily::DenseStencil, 2)),
        }
    }
}

/// What one timed call into the program yielded.
#[derive(Debug)]
pub struct Sample {
    /// The call's wall time as the caller waits for it (s).
    pub wall_s: f64,
    /// The run span: `Report::time` (Start→Done) on proc, the whole call
    /// on threads (s).
    pub span_s: f64,
    /// Iterations the run executed.
    pub iterations: usize,
    /// Bytes that crossed the placement boundary: measured inter-node
    /// payload on proc, the plan's off-PU bytes on threads.
    pub remote_bytes: f64,
    /// Longest task and max ÷ mean task time (threads only).
    pub tasks: Option<(f64, f64)>,
    /// The run's telemetry (traced runs only).
    pub telemetry: Option<RunTelemetry>,
}

/// Durations of one set-up, by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generation plus every build below (s).
    pub total_s: f64,
    /// `ScenarioSpec::workload` (proc only; 0 on threads).
    pub lab_build_s: f64,
    /// `Session::builder().build()` (s).
    pub session_build_s: f64,
}

/// One line, `total lab session` in seconds: how a fresh set-up process
/// hands its times back.
impl std::fmt::Display for SetupTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.total_s, self.lab_build_s, self.session_build_s)
    }
}

impl std::str::FromStr for SetupTimes {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, String> {
        let v: Vec<f64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("set-up times {line:?}: {e}"))?;
        match v[..] {
            [total_s, lab_build_s, session_build_s] => {
                Ok(SetupTimes { total_s, lab_build_s, session_build_s })
            }
            _ => Err(format!("set-up times {line:?}: expected three numbers")),
        }
    }
}

/// A set-up workload, ready to run.
pub enum Prepared {
    /// The LK23 kernel.
    Lk23(Box<Lk23>),
    /// A lab family on the proc backend.
    Proc(Box<Proc>),
}

/// LK23 inputs and sessions.
pub struct Lk23 {
    grid: Grid,
    decomposition: BlockDecomposition,
    topology: Topology,
    session: Session,
    traced: Option<Session>,
    reference: Option<Grid>,
}

/// Proc workload inputs and sessions.
pub struct Proc {
    seed: u64,
    spec: ScenarioSpec,
    workload: PhasedWorkload,
    machine: ClusterMachine,
    session: Session,
    traced: Option<Session>,
    predicted: Option<f64>,
    first_measured: Option<f64>,
}

/// SplitMix64: the benchmark's seeded generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The LK23 initial grid for `seed`: values uniform in `[0.9, 1.1)`.
#[must_use]
pub fn seeded_grid(seed: u64, side: usize) -> Grid {
    let mut state = seed;
    let mut grid = Grid::zeros(side, side);
    for v in grid.as_mut_slice() {
        *v = 0.9 + 0.2 * (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
    }
    grid
}

fn lk23_session(topology: &Topology, observe: bool) -> Result<Session, String> {
    let mut builder =
        Session::builder().topology(topology.clone()).policy(Policy::TreeMatch).backend(ThreadBackend);
    if observe {
        builder = builder.observe(ObsConfig::default());
    }
    builder.build().map_err(|e| format!("lk23 session: {e}"))
}

fn proc_session(machine: &ClusterMachine, seed: u64, observe: bool) -> Result<Session, String> {
    let backend = ProcBackend::new(machine.clone()).with_nobind_seed(seed).with_io_timeout(IO_TIMEOUT);
    let mut builder = Session::builder()
        .topology(machine.topology().clone())
        .policy(Policy::Hierarchical)
        .control_threads(0)
        .backend(backend);
    if observe {
        builder = builder.observe(ObsConfig::default());
    }
    builder.build().map_err(|e| format!("proc session: {e}"))
}

/// The plan's off-PU bytes per run of an LK23 report.
fn off_pu_bytes(report: &Report, iterations: usize) -> f64 {
    let b = &report.breakdown;
    (b.total() - b.same_pu) * iterations as f64
}

/// Sets `name` up from `seed`: generates the inputs, builds the lab
/// workload (proc) and the session.  Everything here counts as set-up.
pub fn setup(name: Name, seed: u64, spans: &mut Spans) -> Result<(Prepared, SetupTimes), String> {
    let started = Instant::now();
    spans.enter("setup");
    let out = match name.proc_shape() {
        None => {
            let (grid, _) = spans.time("input.generate", || seeded_grid(seed, LK23_GRID));
            let decomposition = BlockDecomposition::new(LK23_GRID, LK23_GRID, LK23_BLOCKS, LK23_BLOCKS)?;
            let topology = orwl_topo::discover::discover();
            let (session, build) = spans.time("core.session_build", || lk23_session(&topology, false));
            let prepared =
                Lk23 { grid, decomposition, topology, session: session?, traced: None, reference: None };
            let times = SetupTimes { session_build_s: build.as_secs_f64(), ..SetupTimes::default() };
            (Prepared::Lk23(Box::new(prepared)), times)
        }
        Some((family, iterations)) => {
            let spec = ScenarioSpec::new(family, PROC_TASKS, seed);
            let spec = {
                let phases = vec![iterations; spec.phase_iterations.len()];
                spec.with_phases(phases)
            };
            let (workload, lab) = spans.time("lab.workload_build", || spec.workload());
            let machine = ClusterMachine::paper(PROC_NODES);
            let (session, build) = spans.time("core.session_build", || proc_session(&machine, seed, false));
            let prepared = Proc {
                seed,
                spec,
                workload,
                machine,
                session: session?,
                traced: None,
                predicted: None,
                first_measured: None,
            };
            let times = SetupTimes {
                lab_build_s: lab.as_secs_f64(),
                session_build_s: build.as_secs_f64(),
                ..SetupTimes::default()
            };
            (Prepared::Proc(Box::new(prepared)), times)
        }
    };
    spans.exit();
    let (prepared, mut times) = out;
    times.total_s = started.elapsed().as_secs_f64();
    Ok((prepared, times))
}

impl Prepared {
    /// Computes what the correctness gates compare against (the
    /// sequential reference, the simulator's byte prediction) and builds
    /// the traced session when asked.  Not set-up: it is the benchmark's
    /// own verification.
    pub fn prepare_checks(&mut self, traced: bool, spans: &mut Spans) -> Result<(), String> {
        match self {
            Prepared::Lk23(w) => {
                let (reference, _) =
                    spans.time("verify.reference", || reference_jacobi(&w.grid, LK23_ITERATIONS));
                w.reference = Some(reference);
                if traced {
                    w.traced = Some(spans.time("core.session_build", || lk23_session(&w.topology, true)).0?);
                }
            }
            Prepared::Proc(w) => {
                let (predicted, _) =
                    spans.time("verify.reference", || predict_inter_node(w, Policy::Hierarchical));
                w.predicted = Some(predicted?);
                if traced {
                    w.traced =
                        Some(spans.time("core.session_build", || proc_session(&w.machine, w.seed, true)).0?);
                }
            }
        }
        Ok(())
    }

    /// One timed call into the program, gated for correctness.
    pub fn run(&mut self, traced: bool, spans: &mut Spans) -> Result<Sample, String> {
        match self {
            Prepared::Lk23(w) => {
                let session = if traced { w.traced.as_ref().ok_or("no traced session")? } else { &w.session };
                let (out, took) =
                    spans.time("run", || run_orwl(&w.grid, w.decomposition, LK23_ITERATIONS, session));
                let (result, report) = out.map_err(|e| format!("run_orwl: {e}"))?;
                let reference = w.reference.as_ref().ok_or("reference not prepared")?;
                let diff = spans.time("verify.check", || result.max_abs_diff(reference)).0;
                if diff != 0.0 {
                    return Err(format!("LK23 result differs from reference_jacobi: max|diff| = {diff:e}"));
                }
                let tasks = report.thread.as_ref().map(|t| {
                    let times: Vec<f64> = t.per_task_time.iter().map(Duration::as_secs_f64).collect();
                    let max = times.iter().copied().fold(0.0, f64::max);
                    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
                    (max, if mean > 0.0 { max / mean } else { 1.0 })
                });
                Ok(Sample {
                    wall_s: took.as_secs_f64(),
                    span_s: took.as_secs_f64(),
                    iterations: LK23_ITERATIONS,
                    remote_bytes: off_pu_bytes(&report, LK23_ITERATIONS),
                    tasks,
                    telemetry: report.obs,
                })
            }
            Prepared::Proc(w) => {
                let session = if traced { w.traced.as_ref().ok_or("no traced session")? } else { &w.session };
                let workload = w.workload.clone();
                let (report, took) = spans.time("run", || session.run(workload));
                let report = report.map_err(|e| format!("Session::run: {e}"))?;
                let measured =
                    report.fabric.as_ref().ok_or("proc report carries no fabric split")?.inter_node_bytes;
                let predicted = w.predicted.ok_or("prediction not prepared")?;
                spans.time("verify.check", || check_bytes(measured, predicted, &mut w.first_measured)).0?;
                Ok(Sample {
                    wall_s: took.as_secs_f64(),
                    span_s: report.time.seconds(),
                    iterations: w.spec.total_iterations(),
                    remote_bytes: measured,
                    tasks: None,
                    telemetry: report.obs,
                })
            }
        }
    }

    /// Times the placement function on the run's own matrix: TreeMatch on
    /// the host topology (threads), the two-level cluster placement
    /// (proc).
    pub fn placement_solve(&self, spans: &mut Spans) -> Duration {
        match self {
            Prepared::Lk23(w) => {
                let matrix = w.decomposition.comm_matrix(std::mem::size_of::<f64>());
                spans
                    .time("placement.solve", || {
                        std::hint::black_box(compute_placement(Policy::TreeMatch, &w.topology, &matrix, 0))
                    })
                    .1
            }
            Prepared::Proc(w) => {
                let matrix = w.workload.phases[0].graph.comm_matrix().symmetrized();
                spans
                    .time("placement.solve", || {
                        std::hint::black_box(policy_placement(
                            &w.machine,
                            Policy::Hierarchical,
                            0,
                            w.seed,
                            &matrix,
                        ))
                    })
                    .1
            }
        }
    }

    /// The placement's boundary-crossing bytes ÷ Scatter's: off-PU bytes
    /// of the TreeMatch plan (threads), `ClusterBackend`'s predicted
    /// inter-node bytes under Hierarchical (proc).  Deterministic.
    pub fn vs_scatter(&self, spans: &mut Spans) -> Result<f64, String> {
        match self {
            Prepared::Lk23(w) => {
                let matrix = w.decomposition.comm_matrix(std::mem::size_of::<f64>());
                let off_pu = |policy| {
                    let placement = compute_placement(policy, &w.topology, &matrix, 0);
                    let b = orwl_core::placement::PlacementPlan::new(policy, matrix.clone(), placement)
                        .breakdown(&w.topology);
                    b.total() - b.same_pu
                };
                let (ratio, _) = spans
                    .time("placement.vs_scatter", || off_pu(Policy::TreeMatch) / off_pu(Policy::Scatter));
                Ok(ratio)
            }
            Prepared::Proc(w) => {
                let (ratio, _) = spans.time("placement.vs_scatter", || {
                    Ok::<f64, String>(
                        predict_inter_node(w, Policy::Hierarchical)?
                            / predict_inter_node(w, Policy::Scatter)?,
                    )
                });
                ratio
            }
        }
    }

    /// `WorkerPool::spawn` + `accept_controls` for this workload's node
    /// count, then the pool is dropped (proc only).
    pub fn spawn_rendezvous(&self, spans: &mut Spans) -> Option<Result<Duration, String>> {
        let Prepared::Proc(w) = self else { return None };
        spans.enter("proc.pool");
        let (pool, took) = spans.time("proc.spawn_rendezvous", || {
            let mut pool = WorkerPool::spawn(w.machine.n_nodes(), &[], &[], IO_TIMEOUT)
                .map_err(|e| format!("spawning workers: {e}"))?;
            pool.accept_controls().map_err(|f| format!("rendezvous: {}", f.detail))?;
            Ok::<WorkerPool, String>(pool)
        });
        let result = pool.map(|pool| {
            spans.time("proc.pool_drop", || drop(pool));
            took
        });
        spans.exit();
        Some(result)
    }

    /// The sequential reference and the fork-join comparator on the same
    /// grid, with `threads` workers for the latter (LK23 only).  Returns
    /// their durations; the comparator's result is gated against the
    /// reference.
    pub fn lk23_baselines(
        &self,
        threads: usize,
        spans: &mut Spans,
    ) -> Option<Result<(Duration, Duration), String>> {
        let Prepared::Lk23(w) = self else { return None };
        let (reference, seq) =
            spans.time("lk23.seq_reference", || reference_jacobi(&w.grid, LK23_ITERATIONS));
        let (openmp, omp) =
            spans.time("lk23.openmp_like", || run_openmp_like(&w.grid, LK23_ITERATIONS, threads));
        let diff = openmp.max_abs_diff(&reference);
        Some(if diff == 0.0 {
            Ok((seq, omp))
        } else {
            Err(format!("run_openmp_like differs from reference_jacobi: max|diff| = {diff:e}"))
        })
    }
}

/// `ClusterBackend`'s predicted inter-node bytes for the workload under
/// `policy`.
fn predict_inter_node(w: &Proc, policy: Policy) -> Result<f64, String> {
    let report = Session::builder()
        .topology(w.machine.topology().clone())
        .policy(policy)
        .control_threads(0)
        .backend(ClusterBackend::new(w.machine.clone()).with_nobind_seed(w.seed))
        .build()
        .map_err(|e| format!("cluster session: {e}"))?
        .run(w.workload.clone())
        .map_err(|e| format!("ClusterBackend run: {e}"))?;
    Ok(report.fabric.ok_or("cluster report carries no fabric split")?.inter_node_bytes)
}

/// The proc byte gate: measured inter-node bytes within
/// [`CORR_TOLERANCE`] of the prediction, and identical to the first run's.
fn check_bytes(measured: f64, predicted: f64, first: &mut Option<f64>) -> Result<(), String> {
    let relative = (measured - predicted).abs() / predicted.max(1.0);
    if relative > CORR_TOLERANCE {
        return Err(format!(
            "measured inter-node bytes {measured} vs predicted {predicted}: relative error {relative:.4} > {CORR_TOLERANCE}"
        ));
    }
    match *first {
        None => *first = Some(measured),
        Some(f) if f != measured => {
            return Err(format!("inter-node bytes changed across repeats: {f} then {measured}"));
        }
        Some(_) => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_grid_is_deterministic_and_seed_dependent() {
        let a = seeded_grid(7, 16);
        assert_eq!(a, seeded_grid(7, 16));
        assert_ne!(a, seeded_grid(8, 16));
        assert!(a.as_slice().iter().all(|v| (0.9..1.1).contains(v)));
    }

    #[test]
    fn names_round_trip() {
        for n in Name::ALL {
            assert_eq!(Name::parse(n.as_str()), Some(n));
            assert!(crate::stats::valid_name(n.as_str()));
        }
        assert_eq!(Name::parse("nope"), None);
    }

    #[test]
    fn setup_times_round_trip_through_their_line() {
        let t = SetupTimes { total_s: 0.001_234_567, lab_build_s: 1e-5, session_build_s: 0.000_3 };
        let back: SetupTimes = t.to_string().parse().expect("parses");
        assert_eq!(
            (back.total_s, back.lab_build_s, back.session_build_s),
            (t.total_s, t.lab_build_s, t.session_build_s)
        );
        assert!("1 2".parse::<SetupTimes>().is_err());
        assert!("1 x 3".parse::<SetupTimes>().is_err());
    }

    #[test]
    fn byte_gate_tolerates_rounding_and_pins_repeats() {
        let mut first = None;
        assert!(check_bytes(1000.0, 1001.0, &mut first).is_ok());
        assert!(check_bytes(1000.0, 1001.0, &mut first).is_ok());
        assert!(
            check_bytes(1001.0, 1001.0, &mut first).is_err(),
            "a repeat must match the first run exactly"
        );
        assert!(check_bytes(500.0, 1000.0, &mut None).is_err());
    }
}
