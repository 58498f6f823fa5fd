//! Merging per-process telemetry into one clock-aligned timeline.
//!
//! The coordinator of a multi-process run holds its own recorder plus
//! each worker's stream of [`TelemetryDelta`]s.  A delta's events are
//! stamped on the *worker's* clock; its `origin_us`/`clock_offset_us`
//! metadata locate that clock relative to the coordinator's, so
//! [`merge_run`] rebases every worker event into coordinator time:
//!
//! ```text
//! coordinator_ts = worker_ts + worker_origin + offset − coordinator_origin
//! ```
//!
//! and sums the deltas' metric increments back into the worker's final
//! values.  A stream that stops early (its node died) merges whatever it
//! shipped.
//!
//! The offset is an *estimate* (half the handshake round-trip is its error
//! bar), so rebased timestamps can violate the one ordering the protocol
//! guarantees: a grant is sent only after its request arrived, and a
//! release only after its grant.  [`merge_run`] therefore runs a causality
//! clamp — grants are nudged after their requests, releases after their
//! grants, and each track is re-monotonised in emission order — and counts
//! every nudge in the `causality_clamps` counter so analyzers can see how
//! hard the clocks disagreed.  Only timestamps move; no event is dropped
//! or reordered within its own track.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::timeseries::TelemetryDelta;
use crate::{EventKind, ObsEvent, RunTelemetry, TrackInfo};
use std::collections::BTreeMap;

/// Minimum gap (µs) enforced between a clamped cause/effect pair, so the
/// merged sort keeps the effect strictly after its cause.
const CLAMP_GAP_US: f64 = 1.0e-3;

/// Merges worker delta streams into the coordinator's telemetry.
///
/// `base` is the coordinator recorder's drained telemetry and
/// `base_origin_us` its `Recorder::origin_us`.  `streams[k]` is node `k`'s
/// deltas in arrival order; a node that shipped none gets no track, every
/// other one becomes track `k + 1` (the coordinator is track 0).  Worker
/// metrics are the sums of their deltas' increments (gauges: the last
/// value), namespaced `node<k>.<name>`.  The result is one
/// `(ts, track, seq)`-sorted timeline with globally reassigned sequence
/// numbers.
#[must_use]
pub fn merge_run(base: RunTelemetry, base_origin_us: f64, streams: &[Vec<TelemetryDelta>]) -> RunTelemetry {
    let mut tracks = vec![TrackInfo { track: 0, label: "coordinator".to_string() }];
    let mut events = base.events;
    for ev in &mut events {
        ev.track = 0;
    }
    let mut dropped = base.dropped;
    let mut metrics = base.metrics;

    for (node, deltas) in streams.iter().enumerate().filter(|(_, deltas)| !deltas.is_empty()) {
        let track = node as u32 + 1;
        tracks.push(TrackInfo { track, label: format!("node{node}") });
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<&str, f64> = BTreeMap::new();
        let mut hists: BTreeMap<&str, HistogramSnapshot> = BTreeMap::new();
        for delta in deltas {
            let shift = delta.origin_us + delta.clock_offset_us - base_origin_us;
            events.extend(delta.events.iter().map(|ev| ObsEvent { ts_us: ev.ts_us + shift, track, ..*ev }));
            dropped += delta.dropped;
            for (name, incr) in &delta.counters {
                let total = counters.entry(name).or_default();
                *total = total.wrapping_add(*incr);
            }
            for (name, value) in &delta.gauges {
                gauges.insert(name, *value);
            }
            for (name, incr) in &delta.hists {
                let h =
                    hists.entry(name).or_insert(HistogramSnapshot { count: 0, sum: 0, buckets: Vec::new() });
                h.count = h.count.wrapping_add(incr.count);
                h.sum = h.sum.wrapping_add(incr.sum);
                for &(log2, n) in &incr.buckets {
                    match h.buckets.binary_search_by_key(&log2, |&(b, _)| b) {
                        Ok(at) => h.buckets[at].1 = h.buckets[at].1.wrapping_add(n),
                        Err(at) => h.buckets.insert(at, (log2, n)),
                    }
                }
            }
        }
        let prefix = format!("node{node}.");
        metrics.counters.extend(counters.into_iter().map(|(name, v)| (format!("{prefix}{name}"), v)));
        metrics.gauges.extend(gauges.into_iter().map(|(name, v)| (format!("{prefix}{name}"), v)));
        metrics.histograms.extend(hists.into_iter().map(|(name, h)| (format!("{prefix}{name}"), h)));
    }

    let clamps = enforce_causality(&mut events);
    metrics.counters.push(("causality_clamps".to_string(), clamps));
    metrics.counters.sort_by(|a, b| a.0.cmp(&b.0));
    metrics.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    metrics.histograms.sort_by(|a, b| a.0.cmp(&b.0));

    events.sort_by(|a, b| {
        a.ts_us
            .partial_cmp(&b.ts_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.track.cmp(&b.track))
            .then(a.seq.cmp(&b.seq))
    });
    for (i, ev) in events.iter_mut().enumerate() {
        ev.seq = i as u64;
    }

    RunTelemetry { backend: base.backend, clock: base.clock, events, dropped, metrics, tracks }
}

/// Repairs orderings the protocol guarantees but clock estimation can
/// break; returns how many timestamps had to move.
///
/// Two invariants are enforced, by raising timestamps only (a bounded
/// lattice walk, so the alternation below converges):
///
/// 1. cross-track happens-before per `rseq`: request ≤ grant ≤ release;
/// 2. per-track monotonicity in emission (`seq`) order.
fn enforce_causality(events: &mut [ObsEvent]) -> u64 {
    // Index events by (what they are, rseq), remembering positions.
    // BTreeMaps keep the clamp count deterministic across runs.
    let mut requests: BTreeMap<u64, usize> = BTreeMap::new();
    let mut grants: BTreeMap<u64, usize> = BTreeMap::new();
    let mut releases: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::LockRequest { rseq, .. } => {
                requests.insert(rseq, i);
            }
            EventKind::LockGrant { rseq, .. } => {
                grants.insert(rseq, i);
            }
            EventKind::LockRelease { rseq, .. } => {
                releases.insert(rseq, i);
            }
            _ => {}
        }
    }
    // Per-track emission order (original recorder seq).
    let mut by_track: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        by_track.entry(ev.track).or_default().push(i);
    }
    for order in by_track.values_mut() {
        order.sort_by_key(|&i| events[i].seq);
    }

    let mut clamps = 0u64;
    // Alternate the two raises until a fixed point; each pass only raises
    // timestamps toward a finite bound, so a handful of rounds suffice.
    for _ in 0..8 {
        let mut moved = false;
        for (rseq, &g) in &grants {
            if let Some(&q) = requests.get(rseq) {
                if events[g].ts_us < events[q].ts_us + CLAMP_GAP_US {
                    events[g].ts_us = events[q].ts_us + CLAMP_GAP_US;
                    clamps += 1;
                    moved = true;
                }
            }
        }
        for (rseq, &r) in &releases {
            if let Some(&g) = grants.get(rseq) {
                if events[r].ts_us < events[g].ts_us + CLAMP_GAP_US {
                    events[r].ts_us = events[g].ts_us + CLAMP_GAP_US;
                    clamps += 1;
                    moved = true;
                }
            }
        }
        for order in by_track.values() {
            let mut high = f64::NEG_INFINITY;
            for &i in order {
                if events[i].ts_us < high {
                    events[i].ts_us = high;
                    clamps += 1;
                    moved = true;
                }
                high = events[i].ts_us;
            }
        }
        if !moved {
            break;
        }
    }
    clamps
}

/// Splits a merged document back into one single-track telemetry per
/// track: events filtered by track id, metrics filtered to the track's
/// namespace (prefix stripped for worker tracks).  Used to write per-node
/// artifacts next to the merged one, and to diff a single node run-over-run.
#[must_use]
pub fn split_tracks(merged: &RunTelemetry) -> Vec<(TrackInfo, RunTelemetry)> {
    merged
        .tracks
        .iter()
        .map(|info| {
            let events: Vec<ObsEvent> = merged
                .events
                .iter()
                .filter(|e| e.track == info.track)
                .map(|e| ObsEvent { track: 0, ..*e })
                .collect();
            let prefix = if info.track == 0 { None } else { Some(format!("{}.", info.label)) };
            let keep = |name: &str| -> Option<String> {
                match &prefix {
                    Some(p) => name.strip_prefix(p.as_str()).map(str::to_string),
                    None => (!name.contains('.')).then(|| name.to_string()),
                }
            };
            let metrics = MetricsSnapshot {
                counters: merged
                    .metrics
                    .counters
                    .iter()
                    .filter_map(|(n, v)| keep(n).map(|n| (n, *v)))
                    .collect(),
                gauges: merged.metrics.gauges.iter().filter_map(|(n, v)| keep(n).map(|n| (n, *v))).collect(),
                histograms: merged
                    .metrics
                    .histograms
                    .iter()
                    .filter_map(|(n, h)| keep(n).map(|n| (n, h.clone())))
                    .collect(),
            };
            let telemetry = RunTelemetry {
                backend: format!("{}/{}", merged.backend, info.label),
                clock: merged.clock,
                events,
                dropped: merged.dropped,
                metrics,
                tracks: Vec::new(),
            };
            (info.clone(), telemetry)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockKind, DeltaSampler, DriftOutcome, FabricLane, ObsConfig, Recorder};
    use std::sync::Arc;

    fn event(ts_us: f64, seq: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { ts_us, dur_us: 0.0, seq, tid: 0, track: 0, kind }
    }

    fn base(events: Vec<ObsEvent>) -> RunTelemetry {
        RunTelemetry {
            backend: "proc".to_string(),
            clock: ClockKind::Wall,
            events,
            dropped: 0,
            metrics: MetricsSnapshot::default(),
            tracks: Vec::new(),
        }
    }

    /// A one-delta stream carrying `events`.
    fn stream(events: Vec<ObsEvent>, origin_us: f64, offset_us: f64) -> Vec<TelemetryDelta> {
        vec![TelemetryDelta {
            seq: 0,
            origin_us,
            clock_offset_us: offset_us,
            t_end_us: 0.0,
            dropped: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            events,
        }]
    }

    #[test]
    fn rebasing_uses_origin_and_offset() {
        // Coordinator origin at 1000 on its own clock.  The worker's
        // recorder origin sits at 400 on the worker clock, which runs 700
        // behind the coordinator's: a worker event at +100 should land at
        // 400 + 700 + 100 − 1000 = 200 in coordinator-relative time.
        let coord = base(vec![event(150.0, 0, EventKind::Epoch { epoch: 1, bytes: 0.0 })]);
        let node0 = stream(vec![event(100.0, 0, EventKind::Epoch { epoch: 2, bytes: 0.0 })], 400.0, 700.0);
        let merged = merge_run(coord, 1000.0, &[node0]);
        assert_eq!(merged.tracks.len(), 2);
        assert_eq!(merged.tracks[1].label, "node0");
        let worker_ev = merged.events.iter().find(|e| e.track == 1).unwrap();
        assert!((worker_ev.ts_us - 200.0).abs() < 1e-9, "got {}", worker_ev.ts_us);
        // Coordinator events stay put and sort first here.
        assert_eq!(merged.events[0].track, 0);
        assert_eq!(merged.events[0].ts_us, 150.0);
        // Sequence numbers are reassigned globally.
        assert_eq!(merged.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(merged.metrics.counter("causality_clamps"), Some(0));
    }

    #[test]
    fn worker_metrics_are_namespaced() {
        let mut node1 = stream(vec![], 0.0, 0.0);
        node1[0].counters.push(("remote_requests".to_string(), 5));
        let mut coord = base(vec![]);
        coord.metrics.counters.push(("epochs".to_string(), 2));
        let merged = merge_run(coord, 0.0, &[Vec::new(), node1]);
        assert_eq!(merged.metrics.counter("epochs"), Some(2));
        assert_eq!(merged.metrics.counter("node1.remote_requests"), Some(5));
        assert_eq!(merged.tracks[1].label, "node1");
        assert_eq!(merged.tracks[1].track, 2);
    }

    #[test]
    fn skewed_offsets_still_yield_request_before_grant() {
        // Node 0 requests at its local 100; node 1 grants at its local 50.
        // Node 1's offset estimate is so wrong that the grant rebases 150
        // *before* the request: the clamp must pull it after, and both
        // tracks must stay monotone.
        let rseq = (1_u64 << 32) | 1;
        let reader = stream(
            vec![
                event(100.0, 0, EventKind::LockRequest { rseq, location: 3, owner: 1 }),
                event(300.0, 1, EventKind::LockRelease { rseq, location: 3, held_ns: 1000 }),
            ],
            0.0,
            0.0,
        );
        let owner = stream(
            vec![
                event(10.0, 0, EventKind::Epoch { epoch: 1, bytes: 0.0 }),
                event(50.0, 1, EventKind::LockGrant { rseq, location: 3, wait_ns: 500 }),
            ],
            0.0,
            -100.0, // rebases the grant to −50
        );
        let merged = merge_run(base(vec![]), 0.0, &[reader, owner]);
        let find = |name: &str| merged.events.iter().find(|e| e.kind.name() == name).unwrap();
        let (req, grant, release) = (find("lock_request"), find("lock_grant"), find("lock_release"));
        assert!(req.ts_us < grant.ts_us, "request {} must precede grant {}", req.ts_us, grant.ts_us);
        assert!(grant.ts_us < release.ts_us);
        // The merged order mirrors the repaired timestamps.
        let names: Vec<&str> = merged
            .events
            .iter()
            .filter(|e| e.kind.name().starts_with("lock_"))
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(names, vec!["lock_request", "lock_grant", "lock_release"]);
        // Per-track monotone in final order.
        for track in [1, 2] {
            let ts: Vec<f64> = merged.events.iter().filter(|e| e.track == track).map(|e| e.ts_us).collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "track {track} not monotone: {ts:?}");
        }
        let clamps = merged.metrics.counter("causality_clamps").unwrap();
        assert!(clamps >= 1, "the grant must have been clamped");
    }

    #[test]
    fn clamping_one_event_remonotonises_its_track() {
        // The grant is followed on the owner track by a later local event;
        // after the grant is pushed forward the follower must move too.
        let rseq = (1_u64 << 32) | 9;
        let reader =
            stream(vec![event(500.0, 0, EventKind::LockRequest { rseq, location: 0, owner: 1 })], 0.0, 0.0);
        let owner = stream(
            vec![
                event(100.0, 0, EventKind::LockGrant { rseq, location: 0, wait_ns: 1 }),
                event(101.0, 1, EventKind::Epoch { epoch: 1, bytes: 0.0 }),
            ],
            0.0,
            0.0,
        );
        let merged = merge_run(base(vec![]), 0.0, &[reader, owner]);
        let owner_ts: Vec<f64> = merged.events.iter().filter(|e| e.track == 2).map(|e| e.ts_us).collect();
        assert!(owner_ts[0] > 500.0);
        assert!(owner_ts.windows(2).all(|w| w[0] <= w[1]), "owner track regressed: {owner_ts:?}");
        // The epoch event kept its emission position relative to the grant.
        assert_eq!(merged.events.iter().filter(|e| e.track == 2).count(), 2);
    }

    #[test]
    fn split_tracks_partitions_events_and_metrics() {
        let mut coord = base(vec![event(1.0, 0, EventKind::Epoch { epoch: 1, bytes: 0.0 })]);
        coord.metrics.counters.push(("epochs".to_string(), 1));
        let mut node0 = stream(vec![event(2.0, 0, EventKind::Epoch { epoch: 2, bytes: 0.0 })], 0.0, 0.0);
        node0[0].counters.push(("epochs".to_string(), 1));
        let merged = merge_run(coord, 0.0, &[node0]);
        let parts = split_tracks(&merged);
        assert_eq!(parts.len(), 2);
        let (info0, t0) = &parts[0];
        assert_eq!(info0.label, "coordinator");
        assert_eq!(t0.events.len(), 1);
        assert_eq!(t0.metrics.counter("epochs"), Some(1));
        // The coordinator keeps the clamp counter, not the node metrics.
        assert!(t0.metrics.counter("node0.epochs").is_none());
        let (info1, t1) = &parts[1];
        assert_eq!(info1.label, "node0");
        assert_eq!(t1.events.len(), 1);
        assert_eq!(t1.metrics.counter("epochs"), Some(1));
        assert!(t1.events.iter().all(|e| e.track == 0));
        // Each part is a valid single-track document.
        use crate::ToJson;
        crate::export::validate_obs(&t1.to_json()).unwrap();
    }

    /// Runs the same script against `rec`, calling `cut` at the two step
    /// boundaries a streamer would sample at: events from three threads
    /// (only one of which overflows its ring, within a single interval), a
    /// counter created but never incremented, a gauge set in two
    /// different intervals, and a histogram spread over several log2
    /// buckets, one of them filled in two intervals.
    fn scripted(rec: &Arc<Recorder>, mut cut: impl FnMut()) {
        rec.set_sim_now(0.001);
        let _never_incremented = rec.metrics().counter("idle_counter");
        rec.record(EventKind::DriftDecision { outcome: DriftOutcome::Quiet, delta: 0.5 });
        rec.record_lock_wait(7, 2);
        cut();
        rec.set_sim_now(0.002);
        for wait_ns in [1, 3, 900, 70_000, 5_000_000] {
            rec.record_lock_wait(7, wait_ns);
        }
        let burst = Arc::clone(rec);
        std::thread::spawn(move || {
            // Six events into a four-slot ring: two overwritten.
            for epoch in 10..16 {
                burst.record(EventKind::Epoch { epoch, bytes: 0.0 });
            }
        })
        .join()
        .unwrap();
        cut();
        rec.set_sim_now(0.003);
        let side = Arc::clone(rec);
        std::thread::spawn(move || {
            side.record(EventKind::FabricTransfer { lane: FabricLane::CrossRack, bytes: 4096.0 })
        })
        .join()
        .unwrap();
        rec.record(EventKind::DriftDecision { outcome: DriftOutcome::Fired, delta: 0.75 });
    }

    #[test]
    fn a_merged_delta_stream_equals_the_finished_recorder() {
        let config = ObsConfig { ring_capacity: 4, lock_wait_threshold_ns: 1_000, ..ObsConfig::default() };
        let plain = Recorder::new(ClockKind::Simulated, config);
        scripted(&plain, || {});
        let finished = plain.finish("sim");
        assert_eq!(finished.dropped, 2, "the script overflows exactly one ring");
        assert_eq!(finished.metrics.counter("idle_counter"), Some(0));
        assert_eq!(finished.metrics.gauge("drift_delta_last"), Some(0.75));
        assert!(finished.metrics.histogram("lock_wait_ns").unwrap().buckets.len() >= 4);

        for samples in [1usize, 3] {
            let rec = Recorder::new(ClockKind::Simulated, config);
            let mut sampler = DeltaSampler::new(Arc::clone(&rec), 0.0);
            let mut deltas = Vec::new();
            scripted(&rec, || {
                if samples > 1 {
                    deltas.push(sampler.sample());
                }
            });
            deltas.push(sampler.sample()); // the final delta
            assert_eq!(deltas.len(), samples);
            let deltas: Vec<TelemetryDelta> =
                deltas.iter().map(|d| TelemetryDelta::decode(&d.encode()).unwrap()).collect();
            // Rebase onto the worker's own origin, so timestamps stay put.
            let mut coord = base(Vec::new());
            coord.clock = ClockKind::Simulated;
            let merged = merge_run(coord, deltas[0].origin_us, &[deltas]);
            let (_, node0) = split_tracks(&merged).remove(1);

            let mut expected = finished.clone();
            expected.backend = "proc/node0".to_string();
            for (i, ev) in expected.events.iter_mut().enumerate() {
                ev.seq = i as u64;
            }
            assert_eq!(node0, expected, "{samples} sample(s)");
        }
    }
}
