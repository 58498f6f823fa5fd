//! End-to-end acceptance of node-loss recovery on the multi-process
//! backend: a worker SIGKILLed mid-run (via the typed fault plan) must
//! not take the run down — the coordinator confirms the loss, re-shards
//! the dead node's tasks onto the survivors, and the run completes
//! degraded with the loss, the recovery and the victim's own streamed
//! telemetry on the record — and, without any telemetry, still completes
//! degraded.
//! Without recovery enabled the same fault must stay a *typed* failure
//! surfaced within the protocol deadlines, and the worker pool's
//! teardown must reap even a worker frozen under `SIGSTOP`.
//!
//! Every test drives `ProcBackend` with worker args pinning
//! [`proc_worker_entry`] so the re-exec'd test binary runs only the
//! worker hook.

use orwl_core::error::OrwlError;
use orwl_core::session::Session;
use orwl_lab::{ScenarioFamily, ScenarioSpec};
use orwl_obs::{EventKind, ObsConfig};
use orwl_proc::{Fault, FaultPlan, LiveConfig, ProcBackend, RecoveryConfig, WorkerPool};
use orwl_repro::{ClusterMachine, Policy};
use std::time::{Duration, Instant};

/// Worker re-entry point: spawned workers re-exec this test binary with
/// args selecting exactly this test, which hands control to the worker
/// lifecycle and exits the process.  In the parent run it is a no-op.
#[test]
fn proc_worker_entry() {
    orwl_proc::maybe_worker();
}

fn worker_args() -> Vec<String> {
    vec!["proc_worker_entry".to_string(), "--exact".to_string(), "--nocapture".to_string()]
}

fn backend(n_nodes: usize) -> ProcBackend {
    ProcBackend::paper(n_nodes).with_worker_args(worker_args()).with_io_timeout(Duration::from_secs(60))
}

fn observed_session(n_nodes: usize, backend: ProcBackend) -> Session {
    let machine = ClusterMachine::paper(n_nodes);
    Session::builder()
        .topology(machine.topology().clone())
        .policy(Policy::Hierarchical)
        .control_threads(0)
        .observe(ObsConfig { lock_wait_threshold_ns: 0, ..ObsConfig::default() })
        .backend(backend)
        .build()
        .unwrap()
}

/// Long enough that the kill at 200 ms lands mid-run on any plausible
/// host, with plenty of schedule left for the survivors to finish.
fn chaos_scenario() -> ScenarioSpec {
    ScenarioSpec::new(ScenarioFamily::DenseStencil, 36, 1).with_phases(vec![1200])
}

#[test]
fn a_killed_worker_is_survived_by_resharding_onto_the_rest() {
    // Node 2 of 4 yanks its own power cord 200 ms after Start: no
    // unwinding, no error frame, no goodbye.  The coordinator must
    // confirm the loss, re-shard node 2's tasks onto nodes {0, 1, 3}
    // and drive the run to a successful (degraded) completion.
    let live = LiveConfig::new(Duration::from_millis(40)).with_straggler_intervals(400);
    let session = observed_session(
        4,
        backend(4)
            .with_faults(FaultPlan::new().with(Fault::Sigkill { node: 2, after_ms: 200 }))
            .with_recovery(RecoveryConfig::default())
            .with_live(live),
    );
    let report = session.run(chaos_scenario().workload()).expect("the survivors must finish the run");

    // The adapt report records the re-shard.
    let adapt = report.adapt.expect("a recovered run carries an adapt report");
    assert!(adapt.node_reshards >= 1, "node_reshards = {}", adapt.node_reshards);

    // The merged timeline tells the loss story in order: a NodeLoss for
    // node 2, then a Recovery for node 2, with monotone timestamps and a
    // consistent task count (9 of 36 tasks lived on the dead node).
    let obs = report.obs.expect("observed runs carry telemetry");
    let loss = obs
        .events
        .iter()
        .find_map(|ev| match ev.kind {
            EventKind::NodeLoss { node, tasks_lost } => Some((ev.ts_us, node, tasks_lost)),
            _ => None,
        })
        .expect("the timeline must record the node loss");
    let recovery = obs
        .events
        .iter()
        .find_map(|ev| match ev.kind {
            EventKind::Recovery { node, tasks_migrated } => Some((ev.ts_us, node, tasks_migrated)),
            _ => None,
        })
        .expect("the timeline must record the recovery");
    assert_eq!(loss.1, 2, "the loss must name the killed node");
    assert_eq!(recovery.1, 2, "the recovery must name the killed node");
    assert!(loss.0 <= recovery.0, "loss at {} must precede recovery at {}", loss.0, recovery.0);
    assert!(loss.2 >= 1, "the dead node hosted tasks");
    assert_eq!(loss.2, recovery.2, "every lost task must be migrated, no more, no fewer");

    // The victim's telemetry survives it up to its last shipped interval:
    // its track is in the merged document, with events stamped before the
    // loss.
    let victim = obs.tracks.iter().find(|t| t.label == "node2").expect("the lost node keeps its track");
    assert!(
        obs.events.iter().any(|ev| ev.track == victim.track && ev.ts_us < loss.0),
        "node 2 must contribute events stamped before its loss"
    );

    // The live counters agree with the events.
    let counter = |name: &str| {
        obs.metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("live.node_losses"), 1);
    assert_eq!(counter("live.reshards"), 1);
    assert_eq!(counter("live.tasks_migrated"), loss.2 as u64);

    // Hop-byte accounting stays consistent: the survivors really did
    // talk over the fabric, and the measured split carries the traffic.
    let fabric = report.fabric.expect("proc reports carry the traffic split");
    assert!(fabric.inter_node_bytes > 0.0, "survivors exchanged no bytes: {fabric:?}");
    assert!(report.hop_bytes > 0.0);
}

#[test]
fn a_killed_worker_is_survived_without_any_telemetry() {
    // Recovery needs neither observation nor the live stream: the killed
    // node's control socket hangs up, which confirms the loss by itself.
    let machine = ClusterMachine::paper(4);
    let session = Session::builder()
        .topology(machine.topology().clone())
        .policy(Policy::Hierarchical)
        .control_threads(0)
        .backend(
            backend(4)
                .with_faults(FaultPlan::new().with(Fault::Sigkill { node: 2, after_ms: 200 }))
                .with_recovery(RecoveryConfig::default()),
        )
        .build()
        .unwrap();
    let report = session.run(chaos_scenario().workload()).expect("the survivors must finish the run");
    let adapt = report.adapt.expect("a recovered run carries an adapt report");
    assert!(adapt.node_reshards >= 1, "node_reshards = {}", adapt.node_reshards);
    let fabric = report.fabric.expect("proc reports carry the traffic split");
    assert!(fabric.inter_node_bytes > 0.0, "survivors exchanged no bytes: {fabric:?}");
    assert!(report.obs.is_none(), "an unobserved run carries no telemetry");
}

#[test]
fn an_unrecoverable_loss_stays_a_typed_failure_within_the_deadline() {
    // The same kill without recovery enabled: the run must fail with a
    // typed WorkerFailed naming the dead node — and fail *fast*, via
    // the closed control socket, not by waiting out the 60 s io timeout.
    // The bound is half the timeout: generous to an oversubscribed host
    // running the whole suite, impossible to meet by timing out.
    let started = Instant::now();
    let session = observed_session(
        2,
        backend(2)
            .with_faults(FaultPlan::new().with(Fault::Sigkill { node: 1, after_ms: 100 }))
            .with_live(LiveConfig::new(Duration::from_millis(25)).with_straggler_intervals(400)),
    );
    match session.run(chaos_scenario().workload()).unwrap_err() {
        OrwlError::WorkerFailed { node, detail } => {
            assert_eq!(node, 1, "the failure must be attributed to the killed node: {detail}");
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(30), "failure took {elapsed:?}; the loss must surface fast");
}

#[test]
fn teardown_reaps_a_worker_frozen_under_sigstop() {
    // A worker stopped with SIGSTOP ignores SIGTERM until resumed, so
    // the pool's graceful teardown must escalate to SIGKILL — and reap —
    // within its bounded grace, leaving no stopped orphan behind.
    let pool = WorkerPool::spawn(1, &worker_args(), &[], Duration::from_secs(5)).expect("spawn");
    let pid = pool.worker_pid(0);
    // SAFETY: plain signal sends against a child we just spawned.
    unsafe {
        assert_eq!(libc::kill(pid as libc::pid_t, libc::SIGSTOP), 0, "SIGSTOP must land");
    }
    let started = Instant::now();
    drop(pool);
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "teardown took {elapsed:?}; the grace must be bounded");
    // The process is gone: reaped, not a zombie and not still stopped.
    let alive = unsafe { libc::kill(pid as libc::pid_t, 0) };
    assert_eq!(alive, -1, "worker {pid} still signallable after teardown");
}
