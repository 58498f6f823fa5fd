//! # orwl-proc — multi-process cluster backend with the ORWL lock
//! protocol over the wire
//!
//! The other backends run in one address space (threads) or none at all
//! (discrete-event simulation).  This crate runs an ORWL program as
//! actual operating-system processes: a coordinator spawns one worker per
//! simulated cluster node, workers rendezvous over Unix-domain sockets,
//! and every remote ORWL section — request, FIFO grant, data payload,
//! release — travels as a versioned frame of the [`wire`] codec.  The
//! framing is plain length-prefixed bytes, so the same protocol runs over
//! TCP between real hosts; only the connect calls are socket-family
//! specific.
//!
//! The backend reuses the whole placement stack: node sharding comes from
//! [`orwl_cluster::policy_placement`] — the exact
//! function the cluster simulator uses, so `Policy::Hierarchical` lays
//! the same tasks on the same nodes in both worlds — and each worker
//! drives its local tasks through a real `orwl_core` session.  Reports
//! carry wall time, the plan's hop-bytes (identical to `ThreadBackend`
//! on the same communication matrix), and a
//! [`ClusterTraffic`] split whose inter-node component is *measured*
//! from transport accounting rather than modelled — the committed
//! `BENCH_proc_corr.json` artifact pins measured against predicted per
//! lab scenario family (see [`corr`]).
//!
//! Any binary or test harness that drives [`ProcBackend`] must call
//! [`maybe_worker`] as the first statement of `main` (or expose a test
//! named in [`ProcBackend::with_worker_args`]): workers are the current
//! executable re-exec'd with the worker-role environment.

pub mod assignment;
pub mod coordinator;
pub mod corr;
pub mod fault;
pub mod metrics;
pub mod transport;
pub mod wire;
pub mod worker;

pub use assignment::{Assignment, ReAssignment, REASSIGN_SCHEMA};
pub use coordinator::{WorkerFailure, WorkerPool};
pub use corr::{
    corr_document, deterministic_view, validate_corr, CorrRow, CORR_NONDETERMINISTIC, CORR_SCHEMA,
    CORR_TOLERANCE,
};
pub use fault::{Fault, FaultParseError, FaultPlan, ENV_FAULTS};
pub use metrics::{WorkerMetrics, METRICS_SCHEMA};
pub use worker::maybe_worker;

use crate::assignment::{ObsSpec, PhasePlan, ReadEdge};
use crate::coordinator::{Event, NodeState};
use crate::wire::Message;
use orwl_cluster::{
    inter_node_bytes, policy_placement, reshard_after_node_loss, split_hop_bytes, ClusterMachine,
};
use orwl_core::error::{ConfigError, OrwlError};
use orwl_core::placement::PlacementPlan;
use orwl_core::runtime::AdaptReport;
use orwl_core::session::{ClusterTraffic, ExecutionBackend, Mode, Report, RunTime, SessionConfig, Workload};
use orwl_numasim::workload::PhasedWorkload;
use orwl_obs::json::Json;
use orwl_obs::merge::merge_run;
use orwl_obs::{
    ClockKind, EventKind, FabricLane, IntervalStats, LiveAggregator, ObsConfig, Recorder, TelemetryDelta,
};
use orwl_treematch::mapping::Placement;
use orwl_treematch::policies::Policy;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of live telemetry: while the run executes, every worker
/// streams a heartbeat and an interval delta per `interval`, and the
/// coordinator's readiness loop folds the deltas a node ships before its
/// `Done` into a [`LiveAggregator`], surfaces each arrival through
/// `on_event`, and flags any node silent
/// for more than `straggler_intervals` intervals as a straggler — the
/// flag is one of the loop's deadlines, so it fires on time, *before*
/// the io timeout turns the silence into a hard failure.
///
/// Live streaming requires an observed run (`SessionConfig::observe`):
/// the deltas are drained from the worker's recorder, so a dark run has
/// nothing to stream and the config is ignored.
#[derive(Clone)]
pub struct LiveConfig {
    /// Streaming interval: one heartbeat (plus one delta, when anything
    /// happened) per worker per interval.
    pub interval: Duration,
    /// Heartbeat intervals a node may miss before it is flagged.
    pub straggler_intervals: u32,
    /// Observer invoked on the coordinator thread for every live event.
    pub on_event: Option<LiveObserver>,
}

/// The live-event observer callback: invoked on the coordinator thread
/// for every [`LiveEvent`] as it arrives.
pub type LiveObserver = Arc<dyn Fn(&LiveEvent) + Send + Sync>;

impl LiveConfig {
    /// Streams on `interval`, flagging after 4 missed intervals.
    #[must_use]
    pub fn new(interval: Duration) -> Self {
        LiveConfig { interval, straggler_intervals: 4, on_event: None }
    }

    /// Replaces the missed-interval budget before a straggler flag.
    #[must_use]
    pub fn with_straggler_intervals(mut self, straggler_intervals: u32) -> Self {
        self.straggler_intervals = straggler_intervals;
        self
    }

    /// Installs the live-event observer (the `--live` ticker, a test's
    /// heartbeat counter, ...).
    #[must_use]
    pub fn with_on_event(mut self, on_event: impl Fn(&LiveEvent) + Send + Sync + 'static) -> Self {
        self.on_event = Some(Arc::new(on_event));
        self
    }
}

impl std::fmt::Debug for LiveConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveConfig")
            .field("interval", &self.interval)
            .field("straggler_intervals", &self.straggler_intervals)
            .field("on_event", &self.on_event.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// One observation of the live monitor, as delivered to
/// [`LiveConfig::on_event`].
#[derive(Debug, Clone)]
pub enum LiveEvent {
    /// A worker's liveness beacon arrived.
    Heartbeat {
        /// The reporting node.
        node: usize,
        /// The worker's beat counter.
        seq: u64,
    },
    /// A running worker's interval delta arrived and was folded into the
    /// aggregator.  The deltas a node ships after its `Done` — its final
    /// delta above all — feed only the merged timeline.
    Delta {
        /// The reporting node.
        node: usize,
        /// Encoded size of the delta on the wire.
        bytes: usize,
        /// The delta's folded rates.
        stats: IntervalStats,
    },
    /// A node exceeded its missed-heartbeat budget — the typed warning
    /// that precedes the eventual `WorkerFailed` if the silence persists
    /// to the io timeout.
    Straggler {
        /// The silent node.
        node: usize,
        /// How long the node has been silent.
        silent_for: Duration,
        /// Whole heartbeat intervals that silence spans.
        missed: u64,
    },
    /// A previously-flagged straggler resumed heartbeating.
    Recovered {
        /// The recovered node.
        node: usize,
    },
    /// A worker reported all local tasks finished.
    Done {
        /// The finishing node.
        node: usize,
    },
}

/// The coordinator-side live monitor: consumes streaming frames from the
/// readiness loop, rebases deltas onto the coordinator clock (each delta
/// carries its track's NTP-midpoint offset), aggregates them and tracks
/// per-node liveness.
struct LiveMonitor<'a> {
    cfg: &'a LiveConfig,
    aggregator: LiveAggregator,
    /// Interval deltas seen: the deltas nodes shipped before their `Done`,
    /// a subset of what `Run` collects for the merge.
    interval_deltas: u64,
    last_beat: Vec<Instant>,
    flagged: Vec<bool>,
    heartbeats: u64,
    delta_bytes: u64,
    stragglers_flagged: u64,
}

impl<'a> LiveMonitor<'a> {
    fn new(n_nodes: usize, cfg: &'a LiveConfig) -> LiveMonitor<'a> {
        LiveMonitor {
            cfg,
            aggregator: LiveAggregator::new(cfg.interval.as_secs_f64().max(1e-3) * 1e6),
            interval_deltas: 0,
            last_beat: vec![Instant::now(); n_nodes],
            flagged: vec![false; n_nodes],
            heartbeats: 0,
            delta_bytes: 0,
            stragglers_flagged: 0,
        }
    }

    fn emit(&self, event: &LiveEvent) {
        if let Some(observer) = &self.cfg.on_event {
            observer(event);
        }
    }

    fn heartbeat(&mut self, node: usize, seq: u64) {
        self.heartbeats += 1;
        self.last_beat[node] = Instant::now();
        if std::mem::take(&mut self.flagged[node]) {
            self.emit(&LiveEvent::Recovered { node });
        }
        self.emit(&LiveEvent::Heartbeat { node, seq });
    }

    fn delta(&mut self, node: usize, delta: &TelemetryDelta, bytes: usize) {
        self.interval_deltas += 1;
        self.delta_bytes += bytes as u64;
        // Workers merge onto track node+1 (track 0 is the coordinator);
        // the aggregator's series use the same numbering.
        self.aggregator.ingest(node as u32 + 1, delta);
        self.emit(&LiveEvent::Delta { node, bytes, stats: IntervalStats::of_delta(delta) });
    }

    fn done(&mut self, node: usize) {
        self.emit(&LiveEvent::Done { node });
    }

    fn straggler_budget(&self) -> Duration {
        self.cfg.interval * self.cfg.straggler_intervals.max(1)
    }

    /// When the next watched, not yet flagged node turns straggler if it
    /// stays silent — a deadline for the readiness loop.
    fn next_flag(&self, watched: &[bool]) -> Option<Instant> {
        let budget = self.straggler_budget();
        (0..watched.len())
            .filter(|&n| watched[n] && !self.flagged[n])
            .map(|n| self.last_beat[n] + budget)
            .min()
    }

    /// Flags any watched node whose silence exceeds the budget; a node is
    /// flagged once per silence episode (a heartbeat clears it).
    fn check_stragglers(&mut self, watched: &[bool]) {
        let budget = self.straggler_budget();
        for (node, &watch) in watched.iter().enumerate() {
            if !watch || self.flagged[node] {
                continue;
            }
            let silent_for = self.last_beat[node].elapsed();
            if silent_for >= budget {
                self.flagged[node] = true;
                self.stragglers_flagged += 1;
                let missed = (silent_for.as_secs_f64() / self.cfg.interval.as_secs_f64()) as u64;
                self.emit(&LiveEvent::Straggler { node, silent_for, missed });
            }
        }
    }

    /// Streams the run summary into the coordinator recorder's metrics,
    /// so the merged telemetry records that (and how much) the run was
    /// watched live.
    fn record_summary(&self, recorder: &Recorder, recovery: Option<&RecoveryState>) {
        let metrics = recorder.metrics();
        metrics.counter("live.heartbeats").add(self.heartbeats);
        metrics.counter("live.deltas").add(self.interval_deltas);
        metrics.counter("live.delta_bytes").add(self.delta_bytes);
        metrics.counter("live.stragglers_flagged").add(self.stragglers_flagged);
        metrics.counter("live.duplicate_deltas").add(self.aggregator.duplicates());
        // Recovery counters appear only when a loss actually happened, so
        // a fault-free run's telemetry is identical to a build without
        // recovery enabled.
        if let Some(state) = recovery.filter(|state| !state.down.is_empty()) {
            let losses = state.down.len() as u64;
            metrics.counter("live.node_losses").add(losses);
            metrics.counter("live.reshards").add(losses);
            metrics.counter("live.tasks_migrated").add(state.tasks_migrated);
        }
    }
}

/// Configuration of failure-driven recovery: when a worker is confirmed
/// lost mid-run (its process exited, its control socket closed, or it
/// stayed silent past the kill-confirmation budget), the coordinator
/// quiesces the survivors at their next iteration boundary, re-shards
/// the lost node's tasks onto them ([`orwl_cluster::reshard_after_node_loss`] —
/// only the affected shard moves) and resumes the run degraded.
///
/// Losses confirmed by a hang-up or an exit are recovered on every run
/// that sets this config.  Confirming a loss from heartbeat silence
/// (`kill_confirmation`) needs the heartbeat stream, so it applies only
/// to live observed runs ([`ProcBackend::with_live`] +
/// `SessionConfig::observe`); elsewhere silence fails the run at the io
/// timeout.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Heartbeat silence after which a node is declared dead on live runs
    /// (capped by the backend's io timeout).  Process exit and socket
    /// closure are confirmed immediately; the budget only gates the
    /// silent-hang case.
    pub kill_confirmation: Duration,
    /// Losses tolerated before the run fails anyway.  A loss *during*
    /// recovery is always fatal, whatever the budget says.
    pub max_node_losses: usize,
}

impl RecoveryConfig {
    /// Replaces the heartbeat-silence budget before a node is declared
    /// dead.
    #[must_use]
    pub fn with_kill_confirmation(mut self, kill_confirmation: Duration) -> Self {
        self.kill_confirmation = kill_confirmation;
        self
    }

    /// Replaces the number of node losses survived before failing.
    #[must_use]
    pub fn with_max_node_losses(mut self, max_node_losses: usize) -> Self {
        self.max_node_losses = max_node_losses;
        self
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { kill_confirmation: Duration::from_secs(10), max_node_losses: 1 }
    }
}

/// What the protocol's recovery machinery did, folded into the report's
/// [`AdaptReport`] when any re-shard happened.  (The per-episode task
/// counts travel as [`EventKind::Recovery`] events and `live.*` counters
/// instead.)
#[derive(Debug, Clone, Copy, Default)]
struct RecoverySummary {
    node_reshards: u64,
}

/// The coordinator's mutable recovery state across one run: the current
/// routing table (updated by every re-shard), the casualty list and the
/// tasks moved so far.
struct RecoveryState {
    cfg: RecoveryConfig,
    node_of_task: Vec<usize>,
    down: Vec<usize>,
    round: u32,
    tasks_migrated: u64,
}

/// What a completed control protocol hands back: the wall-clocked
/// execution span, one metrics document per worker, each node's telemetry
/// deltas (empty unless observed), and the recovery summary.
type ProtocolOutcome = (Duration, Vec<WorkerMetrics>, Vec<Vec<TelemetryDelta>>, RecoverySummary);

/// The multi-process cluster executor as a `Session` backend: one OS
/// process per node of the wrapped [`ClusterMachine`], the ORWL lock
/// protocol over sockets between them.
#[derive(Debug, Clone)]
pub struct ProcBackend {
    machine: ClusterMachine,
    nobind_seed: u64,
    io_timeout: Duration,
    worker_args: Vec<String>,
    worker_env: Vec<(String, String)>,
    live: Option<LiveConfig>,
    faults: FaultPlan,
    recovery: Option<RecoveryConfig>,
}

impl ProcBackend {
    /// Wraps a cluster machine: one worker process per node.
    #[must_use]
    pub fn new(machine: ClusterMachine) -> Self {
        ProcBackend {
            machine,
            nobind_seed: 0xC0FFEE,
            io_timeout: Duration::from_secs(30),
            worker_args: Vec::new(),
            worker_env: Vec::new(),
            live: None,
            faults: FaultPlan::new(),
            recovery: None,
        }
    }

    /// The paper's cluster shape with `n_nodes` nodes.
    #[must_use]
    pub fn paper(n_nodes: usize) -> Self {
        ProcBackend::new(ClusterMachine::paper(n_nodes))
    }

    /// Arguments appended when re-exec'ing the current binary as a
    /// worker.  Test harnesses must pin their worker-entry hook here
    /// (e.g. `["proc_worker_entry", "--exact", "--nocapture"]`) so the
    /// re-exec'd test binary runs only the hook instead of recursing
    /// into the whole suite.
    #[must_use]
    pub fn with_worker_args(mut self, args: Vec<String>) -> Self {
        self.worker_args = args;
        self
    }

    /// Adds an environment variable to every spawned worker.
    #[must_use]
    pub fn with_worker_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.worker_env.push((key.into(), value.into()));
        self
    }

    /// Installs a fault-injection plan: the typed chaos knob the
    /// robustness tests turn.  The plan ships to every worker through the
    /// [`ENV_FAULTS`] environment variable; each clause names the node it
    /// hits, so one plan describes the whole cluster's chaos.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables failure-driven recovery: a confirmed node loss re-shards
    /// the lost tasks onto the survivors instead of failing the run (see
    /// [`RecoveryConfig`] for which losses each kind of run confirms).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Replaces the deadline applied to every blocking protocol step.
    #[must_use]
    pub fn with_io_timeout(mut self, io_timeout: Duration) -> Self {
        self.io_timeout = io_timeout;
        self
    }

    /// Enables live telemetry on observed runs: workers stream heartbeats
    /// and interval deltas on [`LiveConfig::interval`], the coordinator
    /// aggregates them mid-run and flags stragglers.  Ignored unless the
    /// session asks for observation (`SessionConfig::observe`), because
    /// the stream is drained from the run's recorder.
    #[must_use]
    pub fn with_live(mut self, live: LiveConfig) -> Self {
        self.live = Some(live);
        self
    }

    /// Replaces the seed of the `NoBind` OS-spread placement model
    /// (shared with [`ClusterBackend`](orwl_cluster::ClusterBackend)).
    #[must_use]
    pub fn with_nobind_seed(mut self, seed: u64) -> Self {
        self.nobind_seed = seed;
        self
    }

    /// The cluster machine the processes emulate.
    #[must_use]
    pub fn machine(&self) -> &ClusterMachine {
        &self.machine
    }

    /// Builds each worker's assignment from the node sharding and the
    /// phase schedule: every positive off-diagonal matrix entry
    /// `m[src][dst]` becomes one read of that many bytes by task `dst`
    /// from task `src`'s location per iteration, filtered to the readers
    /// hosted on each node.  This is the same ordered-pair traversal the
    /// cluster simulator prices, which is what makes measured and
    /// predicted inter-node bytes comparable.
    fn assignments(
        &self,
        workload: &PhasedWorkload,
        node_of_task: &[usize],
        pool: &WorkerPool,
        recovering: bool,
    ) -> Vec<Assignment> {
        let cluster = self.machine.cluster();
        let n_nodes = cluster.n_nodes();
        let n_tasks = workload.n_tasks();
        let node_topo = cluster.node_topology();
        let levels: Vec<(String, usize)> = node_topo
            .level_spec()
            .iter()
            .map(|level| (level.obj_type.short_name().to_string(), level.count))
            .collect();
        let rack_of_node: Vec<usize> = (0..n_nodes).map(|k| cluster.rack_of_node(k)).collect();
        let peer_listen: Vec<String> =
            (0..n_nodes).map(|k| pool.peer_socket(k).to_string_lossy().into_owned()).collect();

        (0..n_nodes)
            .map(|node| Assignment {
                node,
                n_nodes,
                n_tasks,
                io_timeout_ms: self.io_timeout.as_millis() as u64,
                topo_name: node_topo.name().to_string(),
                levels: levels.clone(),
                rack_of_node: rack_of_node.clone(),
                node_of_task: node_of_task.to_vec(),
                listen: peer_listen[node].clone(),
                peer_listen: peer_listen.clone(),
                recovery: recovering,
                phases: workload
                    .phases
                    .iter()
                    .map(|phase| {
                        let m = phase.graph.comm_matrix();
                        let mut reads = Vec::new();
                        for src in 0..n_tasks {
                            for (dst, &dst_node) in node_of_task.iter().enumerate() {
                                let bytes = m.get(src, dst);
                                if src != dst && bytes > 0.0 && dst_node == node {
                                    reads.push(ReadEdge { reader: dst, src, bytes });
                                }
                            }
                        }
                        PhasePlan { iterations: phase.iterations, reads }
                    })
                    .collect(),
                obs: None, // stamped per node at send time when observed
            })
            .collect()
    }

    /// Drives the coordinator side of the control protocol to completion:
    /// handshake, assignments, synchronized start, the wall-clocked
    /// execution span, shutdown with telemetry collection (observed runs),
    /// and one metrics document per worker.  Each wait is one
    /// [`Run::drive`] of the readiness loop to the next node state.
    fn run_protocol(
        &self,
        pool: WorkerPool,
        workload: &PhasedWorkload,
        node_of_task: &[usize],
        observe: Option<&ObsConfig>,
        recorder: Option<&Recorder>,
    ) -> Result<ProtocolOutcome, WorkerFailure> {
        // Live streaming needs a worker recorder to drain, so the live
        // config takes effect only on observed runs.
        let live = self.live.as_ref().filter(|_| observe.is_some());
        let recovery = self.recovery.as_ref().map(|cfg| RecoveryState {
            cfg: cfg.clone(),
            node_of_task: node_of_task.to_vec(),
            down: Vec::new(),
            round: 0,
            tasks_migrated: 0,
        });
        let mut assignments = self.assignments(workload, node_of_task, &pool, recovery.is_some());
        let n_nodes = assignments.len();
        let mut run = Run {
            backend: self,
            pool,
            workload,
            recorder,
            monitor: None,
            recovery,
            last_activity: vec![Instant::now(); n_nodes],
            deltas: vec![Vec::new(); n_nodes],
            metrics: Vec::new(),
        };
        run.pool.accept_controls()?;
        for (node, assignment) in assignments.iter_mut().enumerate() {
            // The obs spec is stamped per node at send time: it carries
            // the two coordinator-side handshake timestamps the worker
            // needs for its clock-offset estimate, and the send stamp
            // must be taken as late as possible.
            if let Some(cfg) = observe {
                let mut spec = ObsSpec::new(cfg, run.pool.hello_recv_us(node), orwl_obs::process_clock_us());
                if let Some(live) = live {
                    spec = spec.with_stream_interval_ms((live.interval.as_millis() as u64).max(1));
                }
                assignment.obs = Some(spec);
            }
            run.pool.send_to(node, &Message::Assignment { json: assignment.to_json().pretty() })?;
        }
        run.drive(NodeState::Running)?;
        let started = Instant::now();
        run.pool.broadcast(&Message::Start)?;
        run.monitor = live.map(|cfg| LiveMonitor::new(n_nodes, cfg));
        run.drive(NodeState::Done)?;
        let elapsed = started.elapsed();
        // Shutdown is broadcast *before* the final deltas: once every node
        // has reported Done, every section anywhere has been granted and
        // released, so a worker that drains its recorder after seeing
        // Shutdown misses no owner-side events.  (Draining at Done would
        // race a slow peer's read storm against the drain.)  One
        // connection keeps a node's frames in order, so its final delta is
        // the last of its stream; a lost node's stream simply ends at its
        // last shipped interval.
        run.pool.broadcast(&Message::Shutdown)?;
        run.drive(NodeState::Drained)?;
        let Run { deltas, mut metrics, monitor, recovery, .. } = run;
        metrics.sort_by_key(|m| m.node);
        if let (Some(monitor), Some(recorder)) = (&monitor, recorder) {
            monitor.record_summary(recorder, recovery.as_ref());
        }
        let summary = RecoverySummary { node_reshards: recovery.map_or(0, |state| state.down.len() as u64) };
        Ok((elapsed, metrics, deltas, summary))
    }

    /// Tree hops a byte pays on each fabric lane of this machine, probed
    /// from representative cross-node PU pairs (constant per lane in the
    /// balanced trees the machines model): `(same_rack, cross_rack)`.
    fn lane_hops(&self) -> (f64, f64) {
        let cluster = self.machine.cluster();
        let per_node = cluster.pus_per_node();
        let mut same_rack = 0.0;
        let mut cross_rack = 0.0;
        for node in 1..cluster.n_nodes() {
            let hops = cluster.hop_distance(0, node * per_node) as f64;
            if cluster.rack_of_node(node) == cluster.rack_of_node(0) {
                same_rack = hops;
            } else {
                cross_rack = hops;
            }
        }
        (same_rack, cross_rack)
    }
}

/// The coordinator's side of one run, fed by the pool's readiness loop:
/// per-node silence clocks, the live monitor (live runs), the recovery
/// state (recovery runs) and what the workers ship home: each node's
/// telemetry deltas in arrival order, and its metrics document.
struct Run<'a> {
    backend: &'a ProcBackend,
    pool: WorkerPool,
    workload: &'a PhasedWorkload,
    recorder: Option<&'a Recorder>,
    monitor: Option<LiveMonitor<'a>>,
    recovery: Option<RecoveryState>,
    last_activity: Vec<Instant>,
    deltas: Vec<Vec<TelemetryDelta>>,
    metrics: Vec<WorkerMetrics>,
}

impl Run<'_> {
    /// Runs the readiness loop until every live node has reached
    /// `target`, handing each frame, loss and expired deadline to its
    /// handler.  The loop sleeps until the nearest deadline: a node's
    /// silence budget (any frame restarts its clock) or, on live runs,
    /// its straggler flag.
    fn drive(&mut self, target: NodeState) -> Result<(), WorkerFailure> {
        let now = Instant::now();
        self.last_activity.iter_mut().for_each(|t| *t = now);
        while let Some(deadline) = self.deadline(target) {
            match self.pool.next_event(deadline)? {
                Event::Frame(node, message) => {
                    self.last_activity[node] = Instant::now();
                    self.on_frame(node, message)?;
                }
                Event::Lost(node, detail) => self.on_loss(node, detail, target)?,
                Event::Exited(_) => {}
                Event::Timeout => self.on_silence(target)?,
            }
            let watched = self.watched();
            if let Some(monitor) = self.monitor.as_mut() {
                monitor.check_stragglers(&watched);
            }
        }
        Ok(())
    }

    /// Nodes expected to heartbeat: those between `Start` and `Done`.
    fn watched(&self) -> Vec<bool> {
        (0..self.pool.n_nodes()).map(|n| self.is_watched(n)).collect()
    }

    fn is_watched(&self, node: usize) -> bool {
        matches!(self.pool.state(node), NodeState::Ready | NodeState::Running | NodeState::Quiescing)
    }

    /// The nearest deadline, or `None` once every live node is settled
    /// and every frame read so far has been handled.
    fn deadline(&self, target: NodeState) -> Option<Instant> {
        let budget = self.silence_budget(target);
        let Some(silence) = (0..self.pool.n_nodes())
            .filter(|&n| !self.pool.settled(n, target))
            .map(|n| self.last_activity[n] + budget)
            .min()
        else {
            return self.pool.has_pending().then(Instant::now);
        };
        let flag = self.monitor.as_ref().and_then(|m| m.next_flag(&self.watched()));
        Some(flag.map_or(silence, |flag| flag.min(silence)))
    }

    /// A loss is recovered only during the run span, while the loss
    /// budget lasts.  A loss during recovery is fatal: the routing table
    /// is mid-flight and a second re-shard on top of it has no
    /// consistent base.
    fn can_recover(&self, target: NodeState) -> bool {
        target == NodeState::Done
            && self.recovery.as_ref().is_some_and(|state| state.down.len() < state.cfg.max_node_losses)
    }

    /// Silence past the kill-confirmation budget counts as a loss only
    /// where heartbeats stream, so a healthy node is never silent for long.
    fn confirms_by_silence(&self, target: NodeState) -> bool {
        self.monitor.is_some() && self.can_recover(target)
    }

    fn silence_budget(&self, target: NodeState) -> Duration {
        let io_timeout = self.backend.io_timeout;
        match &self.recovery {
            Some(state) if self.confirms_by_silence(target) => state.cfg.kill_confirmation.min(io_timeout),
            _ => io_timeout,
        }
    }

    fn on_frame(&mut self, node: usize, message: Message) -> Result<(), WorkerFailure> {
        match message {
            Message::Heartbeat { seq, .. } => {
                if let Some(monitor) = self.monitor.as_mut() {
                    monitor.heartbeat(node, seq);
                }
            }
            Message::TelemetryDelta { delta: bytes, .. } => {
                let delta = TelemetryDelta::decode(&bytes)
                    .map_err(|e| self.pool.fail(Some(node), format!("bad telemetry delta: {e}")))?;
                // Only a running node's deltas are live intervals; the
                // final one, shipped after Shutdown, closes the stream.
                if self.is_watched(node) {
                    if let Some(monitor) = self.monitor.as_mut() {
                        monitor.delta(node, &delta, bytes.len());
                    }
                }
                self.deltas[node].push(delta);
            }
            Message::Done { .. } => {
                if let Some(monitor) = self.monitor.as_mut() {
                    monitor.done(node);
                }
            }
            Message::QuiesceAck { round: acked, .. } => {
                let round = self.recovery.as_ref().map_or(0, |state| state.round);
                if acked != round {
                    return Err(self
                        .pool
                        .fail(Some(node), format!("quiesce_ack for round {acked}, expected round {round}")));
                }
            }
            Message::Metrics { json, .. } => {
                let parsed = Json::parse(&json)
                    .map_err(|e| format!("metrics document is not valid JSON: {e}"))
                    .and_then(|doc| WorkerMetrics::from_json(&doc));
                match parsed {
                    Ok(m) => self.metrics.push(m),
                    Err(e) => return Err(self.pool.fail(Some(node), format!("bad metrics report: {e}"))),
                }
            }
            // `Ready` only moves the node's state, which the pool did.
            _ => {}
        }
        Ok(())
    }

    fn on_loss(&mut self, node: usize, detail: String, target: NodeState) -> Result<(), WorkerFailure> {
        if self.can_recover(target) {
            return self.recover(node, &detail);
        }
        Err(self.pool.fail_cascade(node, detail))
    }

    /// A deadline passed: a straggler flag (handled after every event),
    /// or a node silent for its whole budget.
    fn on_silence(&mut self, target: NodeState) -> Result<(), WorkerFailure> {
        let budget = self.silence_budget(target);
        let silent = (0..self.pool.n_nodes())
            .find(|&n| !self.pool.settled(n, target) && self.last_activity[n].elapsed() >= budget);
        let Some(node) = silent else { return Ok(()) };
        if self.confirms_by_silence(target) {
            return self
                .recover(node, &format!("no control traffic for {budget:?} (the kill-confirmation budget)"));
        }
        let state = self.pool.state(node);
        Err(self
            .pool
            .fail(Some(node), format!("timed out after {budget:?} in state {state:?} awaiting {target:?}")))
    }

    /// One recovery episode: confirm the loss, quiesce the survivors at
    /// their next iteration boundary, re-shard the dead node's tasks onto
    /// them (only the affected shard moves), ship each survivor its
    /// [`ReAssignment`], and resume.  The quiesce/ack/ready/resume
    /// exchange is a barrier: no survivor computes while the routing
    /// table is inconsistent.
    fn recover(&mut self, dead: usize, detail: &str) -> Result<(), WorkerFailure> {
        let state = self.recovery.as_mut().expect("a loss is recovered only with a recovery state");
        let tasks_lost = state.node_of_task.iter().filter(|&&n| n == dead).count();
        state.round += 1;
        let round = state.round;
        // Confirm first: reap (or kill) the child and drop its control
        // connection, so nothing below can block on the dead node.
        self.pool.confirm_loss(dead);
        if let Some(recorder) = self.recorder {
            recorder.record(EventKind::NodeLoss { node: dead as u32, tasks_lost });
        }
        let alive: Vec<usize> = (0..self.pool.n_nodes()).filter(|&n| !self.pool.is_dead(n)).collect();
        if alive.is_empty() {
            return Err(self
                .pool
                .fail(Some(dead), format!("node lost with no survivors to re-shard onto ({detail})")));
        }
        self.pool.broadcast(&Message::Quiesce { round })?;
        for &node in &alive {
            self.pool.set_state(node, NodeState::Quiescing);
        }
        self.drive(NodeState::Ready)?;
        // The same shard-migration step the simulator and the unit tests
        // exercise: survivors keep their tasks, orphans follow their
        // traffic partners under the capacity bound.
        let state = self.recovery.as_mut().expect("checked above");
        let m = self.workload.phases[0].graph.comm_matrix();
        let plan = reshard_after_node_loss(&self.backend.machine, &m, &state.node_of_task, dead, &state.down);
        let n_tasks = state.node_of_task.len();
        for &node in &alive {
            let adopted: Vec<usize> =
                plan.migrated_tasks.iter().copied().filter(|&t| plan.node_of_task[t] == node).collect();
            let phases = self
                .workload
                .phases
                .iter()
                .map(|phase| {
                    let pm = phase.graph.comm_matrix();
                    let mut reads = Vec::new();
                    for src in 0..n_tasks {
                        for &dst in &adopted {
                            let bytes = pm.get(src, dst);
                            if src != dst && bytes > 0.0 {
                                reads.push(ReadEdge { reader: dst, src, bytes });
                            }
                        }
                    }
                    PhasePlan { iterations: phase.iterations, reads }
                })
                .collect();
            let reassign =
                ReAssignment { node, round, dead, node_of_task: plan.node_of_task.clone(), adopted, phases };
            self.pool.send_to(node, &Message::ReAssignment { json: reassign.to_json().pretty() })?;
        }
        self.drive(NodeState::Running)?;
        let migrated = plan.migrated_tasks.len();
        let state = self.recovery.as_mut().expect("checked above");
        state.node_of_task = plan.node_of_task;
        state.down.push(dead);
        state.tasks_migrated += migrated as u64;
        if let Some(recorder) = self.recorder {
            recorder.record(EventKind::Recovery { node: dead as u32, tasks_migrated: migrated });
        }
        self.pool.broadcast(&Message::Resume { round })
    }
}

impl ExecutionBackend for ProcBackend {
    fn name(&self) -> &'static str {
        "proc"
    }

    fn run(&self, config: &SessionConfig, workload: Workload) -> Result<Report, OrwlError> {
        if std::env::var(coordinator::ENV_ROLE).is_ok() {
            // A worker must never spawn grand-workers: reaching this
            // point means a harness forgot `maybe_worker()` or its
            // worker-args filter, and recursing would fork-bomb.
            return Err(OrwlError::WorkerFailed {
                node: 0,
                detail: "ProcBackend invoked inside a worker process (recursive spawn guard)".to_string(),
            });
        }
        let Workload::Phased(workload) = workload else {
            return Err(ConfigError::WorkloadMismatch {
                backend: self.name().to_string(),
                expected: "phased".to_string(),
            }
            .into());
        };
        let modelled = self.machine.topology();
        if config.topology.name() != modelled.name()
            || config.topology.nb_pus() != modelled.nb_pus()
            || config.topology.level_spec() != modelled.level_spec()
        {
            return Err(ConfigError::TopologyMismatch {
                backend: self.name().to_string(),
                expected: modelled.name().to_string(),
                got: config.topology.name().to_string(),
            }
            .into());
        }
        if !matches!(config.mode, Mode::Static) {
            return Err(ConfigError::UnsupportedMode {
                backend: self.name().to_string(),
                mode: config.mode.name().to_string(),
            }
            .into());
        }

        // The coordinator's recorder anchors the merged timeline's clock:
        // created before any worker spawns so every handshake and worker
        // event lands after its origin.
        let recorder = config.observe.map(|cfg| Recorder::new(ClockKind::Wall, cfg));

        // The same sharding step as the cluster simulator, from the same
        // symmetrized first-phase matrix — the keystone of sim-vs-real
        // comparability.
        let cp = policy_placement(
            &self.machine,
            config.policy,
            config.control_threads,
            self.nobind_seed,
            &workload.phases[0].graph.comm_matrix().symmetrized(),
        );
        let mapping = cp.global_mapping(&self.machine);
        let cluster = self.machine.cluster();

        // Intra-node traffic never touches a socket (it stays inside one
        // worker's address space), so its hop-bytes and the same-node
        // telemetry lane come from the plan, exactly as the simulator
        // prices them; only the inter-node side is measured.
        let mut intra_hop_model = 0.0;
        let mut same_node_bytes_model = 0.0;
        for phase in &workload.phases {
            let m = phase.graph.comm_matrix();
            let iters = phase.iterations as f64;
            let (intra, _) = split_hop_bytes(cluster, &m, &mapping);
            intra_hop_model += iters * intra;
            let mut off_diagonal = 0.0;
            for src in 0..m.order() {
                for dst in 0..m.order() {
                    if src != dst {
                        off_diagonal += m.get(src, dst);
                    }
                }
            }
            same_node_bytes_model += iters * (off_diagonal - inter_node_bytes(cluster, &m, &mapping));
        }

        let mut worker_env = self.worker_env.clone();
        if !self.faults.is_empty() {
            worker_env.push((fault::ENV_FAULTS.to_string(), self.faults.to_env_value()));
        }
        let pool = WorkerPool::spawn(cluster.n_nodes(), &self.worker_args, &worker_env, self.io_timeout)
            .map_err(|e| OrwlError::WorkerFailed { node: 0, detail: format!("spawning workers: {e}") })?;
        let (elapsed, metrics, deltas, recovery) = self
            .run_protocol(pool, &workload, &cp.node_of_task, config.observe.as_ref(), recorder.as_deref())
            .map_err(|f| OrwlError::WorkerFailed { node: f.node, detail: f.detail })?;

        let mut same_rack_bytes = 0u64;
        let mut cross_rack_bytes = 0u64;
        for m in &metrics {
            same_rack_bytes += m.same_rack_payload_bytes;
            cross_rack_bytes += m.cross_rack_payload_bytes;
        }
        let measured_inter_bytes = (same_rack_bytes + cross_rack_bytes) as f64;
        let (hops_same_rack, hops_cross_rack) = self.lane_hops();

        if let Some(obs) = recorder.as_ref() {
            // The coordinator's own track carries the run-level fabric
            // summary; per-section lock telemetry arrives from the
            // workers as first-class events in their deltas.
            for (lane, bytes) in [
                (FabricLane::SameNode, same_node_bytes_model),
                (FabricLane::SameRack, same_rack_bytes as f64),
                (FabricLane::CrossRack, cross_rack_bytes as f64),
            ] {
                if bytes > 0.0 {
                    obs.record(EventKind::FabricTransfer { lane, bytes });
                }
            }
        }

        // The plan mirrors `ThreadBackend`'s: raw first-phase matrix plus
        // the policy's compute placement, so `report.hop_bytes` is
        // directly comparable across the two executors on one program.
        let matrix = workload.phases[0].graph.comm_matrix();
        let placement = match config.policy {
            Policy::NoBind => Placement::unbound(matrix.order(), config.control_threads),
            _ => {
                let mut p = cp.placement;
                p.control = vec![None; config.control_threads];
                p
            }
        };
        let plan = PlacementPlan::new(config.policy, matrix, placement);
        let breakdown = plan.breakdown(&config.topology);
        let hop_bytes = plan.hop_bytes(&config.topology);
        Ok(Report {
            backend: self.name().to_string(),
            mode: config.mode.name(),
            time: RunTime::Wall(elapsed),
            plan,
            breakdown,
            hop_bytes,
            // Present only when a loss actually re-sharded something, so
            // fault-free reports stay byte-identical to builds without
            // recovery wired in.
            adapt: (recovery.node_reshards > 0)
                .then(|| AdaptReport { node_reshards: recovery.node_reshards, ..AdaptReport::default() }),
            thread: None,
            fabric: Some(ClusterTraffic {
                n_nodes: self.machine.n_nodes(),
                intra_node_hop_bytes: intra_hop_model,
                inter_node_hop_bytes: same_rack_bytes as f64 * hops_same_rack
                    + cross_rack_bytes as f64 * hops_cross_rack,
                inter_node_bytes: measured_inter_bytes,
            }),
            obs: recorder.map(|r| {
                let origin_us = r.origin_us() as f64;
                merge_run(r.finish(self.name()), origin_us, &deltas)
            }),
        })
    }
}
