//! End-to-end acceptance of live telemetry on the multi-process backend:
//! a live run must (a) surface several heartbeat intervals per worker
//! *while the run is still executing*, (b) merge its streamed deltas and
//! the final one into a timeline event-identical to a plain observed run
//! of the same scenario (whose stream is that final delta alone), (c) flag a worker whose heartbeats stall as
//! a straggler — and recover it — without failing the run, and (d) keep
//! worker crashes typed under the live monitor's polling loop.
//!
//! Every test drives `ProcBackend` with worker args pinning
//! [`proc_worker_entry`] so the re-exec'd test binary runs only the
//! worker hook.

use orwl_core::error::OrwlError;
use orwl_core::session::Session;
use orwl_lab::{ScenarioFamily, ScenarioSpec};
use orwl_obs::diff::{diff_telemetry, ObsDiffEntry};
use orwl_obs::{Json, ObsConfig, ToJson};
use orwl_proc::{Fault, FaultPlan, LiveConfig, LiveEvent, ProcBackend};
use orwl_repro::{ClusterMachine, Policy};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// Enough iterations that a 2-node run spans several hundred
/// milliseconds — multiple heartbeat intervals at the test cadence.
fn scenario() -> ScenarioSpec {
    ScenarioSpec::new(ScenarioFamily::DenseStencil, 36, 1).with_phases(vec![300])
}

/// An observed session with a zero lock-wait threshold, so the event
/// population is a deterministic function of the schedule and two runs of
/// the same scenario must produce identical per-kind event counts.
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

fn counter(doc: &Json, name: &str) -> Option<f64> {
    doc.get("metrics").and_then(|m| m.get("counters")).and_then(|c| c.get(name)).and_then(Json::as_f64)
}

#[test]
fn live_runs_stream_heartbeats_and_merge_to_the_plain_timeline() {
    let spec = scenario();

    let beats: Arc<Mutex<HashMap<usize, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let deltas: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let live = {
        let beats = Arc::clone(&beats);
        let deltas = Arc::clone(&deltas);
        LiveConfig::new(Duration::from_millis(25))
            // A generous budget: this test is about streaming, not
            // straggling, and a loaded CI host must not trip the flag.
            .with_straggler_intervals(400)
            .with_on_event(move |event| match event {
                LiveEvent::Heartbeat { node, .. } => {
                    *beats.lock().unwrap().entry(*node).or_insert(0) += 1;
                }
                LiveEvent::Delta { node, bytes, stats } => {
                    assert!(*bytes > 0, "node {node} streamed an empty delta");
                    assert_eq!(stats.deltas, 1, "IntervalStats::of_delta folds exactly one delta");
                    *deltas.lock().unwrap() += 1;
                }
                _ => {}
            })
    };
    let live_obs = observed_session(2, backend(2).with_live(live))
        .run(spec.workload())
        .unwrap()
        .obs
        .expect("observed runs carry telemetry");

    // (a) Mid-run visibility: several heartbeat intervals per worker, and
    // at least one interval delta somewhere (the run does real work, so
    // some interval must have recorded something).
    let beats = beats.lock().unwrap().clone();
    for node in [0usize, 1] {
        let n = beats.get(&node).copied().unwrap_or(0);
        assert!(n >= 3, "node {node} produced {n} heartbeats; want at least 3 (beats: {beats:?})");
    }
    let deltas = *deltas.lock().unwrap();
    assert!(deltas > 0, "no interval delta arrived over the whole run");

    // The merged document records how much the run was watched live, and
    // the monitor saw every heartbeat the callback saw.
    let live_doc = live_obs.to_json();
    assert_eq!(
        counter(&live_doc, "live.heartbeats"),
        Some(beats.values().sum::<u64>() as f64),
        "live.heartbeats must match the callback tally"
    );
    assert_eq!(counter(&live_doc, "live.deltas"), Some(deltas as f64));
    assert_eq!(counter(&live_doc, "live.duplicate_deltas"), Some(0.0));
    assert!(counter(&live_doc, "live.delta_bytes").unwrap_or(0.0) > 0.0);

    // (b) Merging streamed deltas with the final one loses and
    // duplicates nothing: a plain observed run of the same scenario has
    // the identical event population (per kind, per track) and drop
    // count.  Timing histograms and the live.* bookkeeping counters
    // legitimately differ, so the assertion filters to the event surface.
    let plain_obs = observed_session(2, backend(2))
        .run(spec.workload())
        .unwrap()
        .obs
        .expect("observed runs carry telemetry");
    let entries = diff_telemetry(&live_doc, &plain_obs.to_json(), 0.0).unwrap();
    let event_drift: Vec<&ObsDiffEntry> = entries
        .iter()
        .filter(|e| match e {
            ObsDiffEntry::FieldMismatch { .. } => true,
            ObsDiffEntry::MetricDrift { field, .. } => field.starts_with("events.") || field == "dropped",
        })
        .collect();
    assert!(
        event_drift.is_empty(),
        "live and plain runs must be event-identical; drifted:\n{}",
        event_drift.iter().map(|e| format!("  {e}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn a_stalled_worker_is_flagged_as_a_straggler_then_recovers() {
    // Straggler detection measures wall-clock heartbeat gaps, so it rides
    // on the thread scheduler; on an oversubscribed host a descheduled
    // streamer can overshoot its interval severalfold and flag a healthy
    // node, and a fast run can finish before the stalled streamer wakes
    // to beat again.  Take the best of three runs — the claim under test
    // is that the monitor separates the stalled node from the healthy
    // one when the machine cooperates, not that the scheduler always
    // cooperates.
    let mut events = Vec::new();
    for attempt in 0..3 {
        events = one_stalled_run();
        let spurious = events.iter().any(|e| matches!(e, LiveEvent::Straggler { node: 0, .. }));
        let flagged = events.iter().any(|e| matches!(e, LiveEvent::Straggler { node: 1, .. }));
        let recovered = events.iter().any(|e| matches!(e, LiveEvent::Recovered { node: 1 }));
        if (!spurious && flagged && recovered) || attempt == 2 {
            break;
        }
    }
    let straggler = events
        .iter()
        .position(|e| matches!(e, LiveEvent::Straggler { node: 1, .. }))
        .expect("the stalled node must be flagged before the recv deadline");
    match &events[straggler] {
        LiveEvent::Straggler { silent_for, missed, .. } => {
            assert!(*missed >= 5, "the flag fires only past the budget (missed {missed})");
            assert!(
                *silent_for < Duration::from_secs(60),
                "flagged at {silent_for:?} — the warning must precede the io deadline"
            );
        }
        _ => unreachable!(),
    }
    // The healthy node is never flagged, and the stalled one recovers
    // once its streamer wakes up (the stall is shorter than the run).
    assert!(
        !events.iter().any(|e| matches!(e, LiveEvent::Straggler { node: 0, .. })),
        "node 0 heartbeated throughout and must not be flagged"
    );
    assert!(
        events[straggler..].iter().any(|e| matches!(e, LiveEvent::Recovered { node: 1 })),
        "the straggler resumed beating and must be marked recovered"
    );
    // Both workers eventually report done.
    for node in [0usize, 1] {
        assert!(
            events.iter().any(|e| matches!(e, LiveEvent::Done { node: n } if *n == node)),
            "node {node} never reported done"
        );
    }
}

/// One run with node 1's streamer stalled, returning the live events.
fn one_stalled_run() -> Vec<LiveEvent> {
    let events: Arc<Mutex<Vec<LiveEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let live = {
        let events = Arc::clone(&events);
        // The budget (5 × 40 ms) leaves a healthy worker plenty of
        // scheduling-noise headroom: under load a 40 ms streamer interval
        // stretches toward ~100 ms, still well inside 200 ms.
        LiveConfig::new(Duration::from_millis(40))
            .with_straggler_intervals(5)
            .with_on_event(move |event| events.lock().unwrap().push(event.clone()))
    };
    // Node 1's streamer holds its first heartbeat back well past the
    // 200 ms straggler budget but far short of the 60 s recv deadline;
    // its tasks keep running, so the run itself must still succeed.  The
    // schedule is stretched past the plain test scenario so the run
    // reliably outlives the stall — the recovery heartbeat only exists
    // if the streamer wakes before the worker reports done.
    let spec = ScenarioSpec::new(ScenarioFamily::DenseStencil, 36, 1).with_phases(vec![900]);
    let _ = observed_session(
        2,
        backend(2)
            .with_faults(FaultPlan::new().with(Fault::StallStreamer { node: 1, ms: 500 }))
            .with_live(live),
    )
    .run(spec.workload())
    .expect("a straggler flag is a warning, not a failure");
    let events = events.lock().unwrap().clone();
    events
}

#[test]
fn a_crashing_worker_stays_a_typed_error_under_the_live_monitor() {
    let session = observed_session(
        2,
        backend(2)
            .with_io_timeout(Duration::from_secs(20))
            .with_faults(FaultPlan::new().with(Fault::PanicAfterStart { node: 0 }))
            .with_live(LiveConfig::new(Duration::from_millis(20))),
    );
    match session.run(scenario().workload()).unwrap_err() {
        OrwlError::WorkerFailed { node, detail } => {
            assert_eq!(node, 0, "the failure must be attributed to the injected node: {detail}");
            assert!(
                detail.contains("injected failure on node 0"),
                "the stderr tail must carry the panic message: {detail}"
            );
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
}
