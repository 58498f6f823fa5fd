//! The telemetry stream: interval deltas, the sampler that cuts them,
//! and the per-interval aggregator.
//!
//! A [`DeltaSampler`] drains the recorder's per-thread rings and diffs
//! the cumulative [`MetricsRegistry`](crate::metrics::MetricsRegistry)
//! snapshot, packing everything new since the previous sample into one
//! sequence-numbered [`TelemetryDelta`].  Ring drains are destructive and
//! disjoint, so the delta stream is duplicate-free by construction: every
//! event (and every counted drop) leaves the process in exactly one delta.
//! Metric deltas are increments (counters, histogram counts, sums and
//! per-bucket counts) or last values (gauges), and an instrument's first
//! delta carries it even at zero, so summing a stream's deltas rebuilds
//! [`Recorder::finish`] exactly — which is how
//! [`merge_run`](crate::merge::merge_run) reassembles each node's track.
//! A live run cuts one delta per interval plus a final one; a post-run
//! capture is the same stream with only the final delta.
//!
//! Deltas encode to a compact little-endian binary layout, versioned
//! independently of whatever wire carries them (in `orwl-proc` that is the
//! `TelemetryDelta` frame).  Metric names are interned into a per-delta
//! string table, so a delta with twenty instruments pays each name once:
//!
//! ```text
//! | magic "ODLT" (4) | version u16 | seq u64 | origin_us f64 |
//! | clock_offset_us f64 | t_end_us f64 | dropped u64 |
//! | strings u32 × str | counters u32 × (idx u32, delta u64) |
//! | gauges u32 × (idx u32, value f64) |
//! | histograms u32 × (idx u32, count u64, sum u64, buckets u32 × (log2 u8, n u64)) |
//! | events u32 × event |
//! ```
//!
//! On the consuming side a [`LiveAggregator`] folds deltas from many
//! tracks into fixed-width per-interval time series — lock-wait
//! nanoseconds, remote grants, fabric bytes per lane, ring drops — after
//! rebasing each delta's sample instant onto the consumer's clock via the
//! same origin/offset metadata the merge uses.

use crate::codec::{put_event, put_str, take_event, DecodeError, Reader, MAX_INSTRUMENTS};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
use crate::{ObsEvent, Recorder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Magic prefix of a serialized delta.
pub const DELTA_MAGIC: &[u8; 4] = b"ODLT";

/// Current delta format version (v2 added gauges and histogram buckets).
pub const DELTA_VERSION: u16 = 2;

/// Hard cap on events one decoded delta may carry: a malformed length
/// prefix fails fast instead of allocating.
const MAX_DELTA_EVENTS: u32 = 1 << 20;

/// Everything a recorder produced during one sampling interval.
///
/// `origin_us`/`clock_offset_us` locate the producer's clock relative to
/// the consumer's, so a consumer on another process can rebase events and
/// `t_end_us` (the sample instant on the producing recorder's clock): see
/// [`TelemetryDelta::consumer_end_us`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDelta {
    /// Sampler-assigned delta sequence number (0, 1, 2, ... per run);
    /// consumers dedup retransmits and detect gaps with it.
    pub seq: u64,
    /// The recorder's time zero on the producer's process clock.
    pub origin_us: f64,
    /// Estimated `consumer_clock − producer_clock` microseconds (the
    /// handshake midpoint estimate); adding it to a producer-clock time
    /// yields a consumer-clock time.
    pub clock_offset_us: f64,
    /// Sample instant in microseconds on the producing recorder's clock.
    pub t_end_us: f64,
    /// Ring overwrites that happened during this interval (plus any events
    /// the producer shed to fit its frame budget).
    pub dropped: u64,
    /// Counter increments since the previous sample; an unchanged counter
    /// is omitted unless this is its first sample.
    pub counters: Vec<(String, u64)>,
    /// Gauges that changed (or first appeared) since the previous sample,
    /// at their current value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram increments since the previous sample: sample count, sum
    /// and per-bucket counts; an unchanged histogram is omitted unless this
    /// is its first sample.
    pub hists: Vec<(String, HistogramSnapshot)>,
    /// Events drained from the rings this interval, `(ts_us, seq)`-ordered.
    pub events: Vec<ObsEvent>,
}

impl TelemetryDelta {
    /// True when the interval produced nothing: no events, no drops, no
    /// metric movement.  Streamers may skip shipping such deltas (the
    /// heartbeat alone proves liveness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.dropped == 0
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
    }

    /// The sample instant rebased onto the consumer's process clock
    /// (`t_end + origin + offset`), comparable across producers.
    #[must_use]
    pub fn consumer_end_us(&self) -> f64 {
        self.t_end_us + self.origin_us + self.clock_offset_us
    }

    /// Serializes to the versioned binary layout, interning metric names
    /// into the delta's string table.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        fn idx_of<'a>(table: &mut Vec<&'a str>, index: &mut BTreeMap<&'a str, u32>, name: &'a str) -> u32 {
            *index.entry(name).or_insert_with(|| {
                table.push(name);
                (table.len() - 1) as u32
            })
        }
        let mut table: Vec<&str> = Vec::new();
        let mut index: BTreeMap<&str, u32> = BTreeMap::new();
        let counter_idx: Vec<u32> =
            self.counters.iter().map(|(n, _)| idx_of(&mut table, &mut index, n)).collect();
        let gauge_idx: Vec<u32> =
            self.gauges.iter().map(|(n, _)| idx_of(&mut table, &mut index, n)).collect();
        let hist_idx: Vec<u32> = self.hists.iter().map(|(n, _)| idx_of(&mut table, &mut index, n)).collect();

        let mut out = Vec::with_capacity(64 + table.len() * 24 + self.events.len() * 48);
        out.extend_from_slice(DELTA_MAGIC);
        out.extend_from_slice(&DELTA_VERSION.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.origin_us.to_le_bytes());
        out.extend_from_slice(&self.clock_offset_us.to_le_bytes());
        out.extend_from_slice(&self.t_end_us.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&(table.len() as u32).to_le_bytes());
        for name in &table {
            put_str(&mut out, name);
        }
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (idx, (_, delta)) in counter_idx.iter().zip(&self.counters) {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&delta.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (idx, (_, value)) in gauge_idx.iter().zip(&self.gauges) {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&(self.hists.len() as u32).to_le_bytes());
        for (idx, (_, h)) in hist_idx.iter().zip(&self.hists) {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
            for &(log2, n) in &h.buckets {
                out.push(log2 as u8);
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for ev in &self.events {
            put_event(&mut out, ev);
        }
        out
    }

    /// Strictly decodes a buffer produced by [`TelemetryDelta::encode`].
    pub fn decode(buf: &[u8]) -> Result<TelemetryDelta, DecodeError> {
        let mut r = Reader { buf, at: 0 };
        if r.take(4)? != DELTA_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u16()?;
        if version != DELTA_VERSION {
            return Err(DecodeError::BadVersion { got: version });
        }
        let seq = r.u64()?;
        let origin_us = r.finite_f64("origin_us")?;
        let clock_offset_us = r.finite_f64("clock_offset_us")?;
        let t_end_us = r.finite_f64("t_end_us")?;
        let dropped = r.u64()?;
        let n_strings = r.len_prefix(MAX_INSTRUMENTS, "strings")?;
        let mut table = Vec::with_capacity(n_strings);
        for _ in 0..n_strings {
            table.push(r.string()?);
        }
        let name = |r: &mut Reader<'_>| -> Result<String, DecodeError> {
            table.get(r.u32()? as usize).cloned().ok_or(DecodeError::BadField("string index"))
        };
        let mut counters = Vec::new();
        for _ in 0..r.len_prefix(MAX_INSTRUMENTS, "counters")? {
            counters.push((name(&mut r)?, r.u64()?));
        }
        let mut gauges = Vec::new();
        for _ in 0..r.len_prefix(MAX_INSTRUMENTS, "gauges")? {
            gauges.push((name(&mut r)?, r.finite_f64("gauge")?));
        }
        let mut hists = Vec::new();
        for _ in 0..r.len_prefix(MAX_INSTRUMENTS, "histograms")? {
            let name = name(&mut r)?;
            let count = r.u64()?;
            let sum = r.u64()?;
            let n_buckets = r.len_prefix(HISTOGRAM_BUCKETS as u32, "buckets")?;
            let mut buckets = Vec::with_capacity(n_buckets);
            for _ in 0..n_buckets {
                let log2 = r.u8()?;
                if usize::from(log2) >= HISTOGRAM_BUCKETS {
                    return Err(DecodeError::BadField("bucket log2"));
                }
                buckets.push((u32::from(log2), r.u64()?));
            }
            hists.push((name, HistogramSnapshot { count, sum, buckets }));
        }
        let n_events = r.len_prefix(MAX_DELTA_EVENTS, "events")?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(take_event(&mut r)?);
        }
        if r.at != r.buf.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(TelemetryDelta {
            seq,
            origin_us,
            clock_offset_us,
            t_end_us,
            dropped,
            counters,
            gauges,
            hists,
            events,
        })
    }
}

/// The interval-bucketed sampler: drains a [`Recorder`]'s rings and diffs
/// its cumulative metrics on every [`DeltaSampler::sample`] call.
///
/// The sampler owns no timer — whoever drives the stream calls `sample()`
/// once per interval and once at the end.  Successive samples are
/// disjoint: rings are emptied and drop counters reset by each drain, and
/// metric deltas are differences of consecutive non-destructive registry
/// snapshots, so the deltas of a run sum to what [`Recorder::finish`]
/// would have returned.
#[derive(Debug)]
pub struct DeltaSampler {
    recorder: Arc<Recorder>,
    clock_offset_us: f64,
    next_seq: u64,
    last: MetricsSnapshot,
}

impl DeltaSampler {
    /// A sampler over `recorder`, stamping every delta with the given
    /// consumer-clock offset (0 when producer and consumer share a clock).
    #[must_use]
    pub fn new(recorder: Arc<Recorder>, clock_offset_us: f64) -> DeltaSampler {
        DeltaSampler { recorder, clock_offset_us, next_seq: 0, last: MetricsSnapshot::default() }
    }

    /// Deltas produced so far.
    #[must_use]
    pub fn samples_taken(&self) -> u64 {
        self.next_seq
    }

    /// Drains everything recorded since the previous sample into a fresh
    /// sequence-numbered delta.
    pub fn sample(&mut self) -> TelemetryDelta {
        let t_end_us = self.recorder.now_us();
        let (events, dropped) = self.recorder.drain_rings();
        let now = self.recorder.metrics().snapshot();
        let last = &self.last;
        let counters = now
            .counters
            .iter()
            .filter_map(|(name, value)| match last.counter(name) {
                Some(prev) if prev == *value => None,
                prev => Some((name.clone(), value.wrapping_sub(prev.unwrap_or(0)))),
            })
            .collect();
        let gauges = now
            .gauges
            .iter()
            .filter(|(name, value)| last.gauge(name).is_none_or(|prev| prev.to_bits() != value.to_bits()))
            .cloned()
            .collect();
        let hists = now
            .histograms
            .iter()
            .filter_map(|(name, h)| match last.histogram(name) {
                Some(prev) if prev == h => None,
                prev => Some((name.clone(), histogram_increment(h, prev))),
            })
            .collect();
        self.last = now;
        let seq = self.next_seq;
        self.next_seq += 1;
        TelemetryDelta {
            seq,
            origin_us: self.recorder.origin_us() as f64,
            clock_offset_us: self.clock_offset_us,
            t_end_us,
            dropped,
            counters,
            gauges,
            hists,
            events,
        }
    }
}

/// `now − prev`, bucket by bucket (a missing `prev` is all zeros),
/// modulo 2^64 like the instruments themselves.
fn histogram_increment(now: &HistogramSnapshot, prev: Option<&HistogramSnapshot>) -> HistogramSnapshot {
    let Some(prev) = prev else { return now.clone() };
    let before = |log2: u32| prev.buckets.iter().find(|&&(b, _)| b == log2).map_or(0, |&(_, n)| n);
    HistogramSnapshot {
        count: now.count.wrapping_sub(prev.count),
        sum: now.sum.wrapping_sub(prev.sum),
        buckets: now
            .buckets
            .iter()
            .map(|&(log2, n)| (log2, n.wrapping_sub(before(log2))))
            .filter(|&(_, n)| n > 0)
            .collect(),
    }
}

/// One interval's folded rates for one track.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalStats {
    /// Deltas folded into this interval.
    pub deltas: u32,
    /// Events carried by those deltas.
    pub events: u64,
    /// Ring overwrites reported in the interval.
    pub dropped: u64,
    /// Nanoseconds spent blocked on locks (`lock_wait_ns` histogram sum).
    pub lock_wait_ns: u64,
    /// Remote grants served (`remote_grants` counter).
    pub grants: u64,
    /// Fabric bytes per lane: `[same_node, same_rack, cross_rack]`
    /// (`fabric_bytes_<lane>` histogram sums).
    pub fabric_bytes: [u64; 3],
}

impl IntervalStats {
    /// The folded rates of a single delta — what a live monitor shows for
    /// one arrival before any interval bucketing.
    #[must_use]
    pub fn of_delta(delta: &TelemetryDelta) -> IntervalStats {
        let mut stats = IntervalStats::default();
        stats.fold(delta);
        stats
    }

    fn fold(&mut self, delta: &TelemetryDelta) {
        self.deltas += 1;
        self.events += delta.events.len() as u64;
        self.dropped += delta.dropped;
        for (name, incr) in &delta.counters {
            if name == "remote_grants" {
                self.grants += incr;
            }
        }
        for (name, h) in &delta.hists {
            match name.as_str() {
                "lock_wait_ns" => self.lock_wait_ns += h.sum,
                "fabric_bytes_same_node" => self.fabric_bytes[0] += h.sum,
                "fabric_bytes_same_rack" => self.fabric_bytes[1] += h.sum,
                "fabric_bytes_cross_rack" => self.fabric_bytes[2] += h.sum,
                _ => {}
            }
        }
    }

    fn add(&mut self, other: &IntervalStats) {
        self.deltas += other.deltas;
        self.events += other.events;
        self.dropped += other.dropped;
        self.lock_wait_ns += other.lock_wait_ns;
        self.grants += other.grants;
        for lane in 0..3 {
            self.fabric_bytes[lane] += other.fabric_bytes[lane];
        }
    }
}

/// Folds deltas from many tracks into fixed-width per-interval time
/// series, deduping retransmitted deltas by `(track, seq)`.
///
/// Interval index of a delta is `floor(consumer_end_us / interval_us)` —
/// the sample instant rebased onto the consumer's clock, so tracks with
/// different clock origins land in comparable buckets.
#[derive(Debug)]
pub struct LiveAggregator {
    interval_us: f64,
    tracks: BTreeMap<u32, BTreeMap<u64, IntervalStats>>,
    seen: BTreeSet<(u32, u64)>,
    duplicates: u64,
}

impl LiveAggregator {
    /// A fresh aggregator bucketing on `interval_us`-wide intervals.
    ///
    /// # Panics
    /// When `interval_us` is not a positive finite width.
    #[must_use]
    pub fn new(interval_us: f64) -> LiveAggregator {
        assert!(interval_us.is_finite() && interval_us > 0.0, "interval must be positive, got {interval_us}");
        LiveAggregator { interval_us, tracks: BTreeMap::new(), seen: BTreeSet::new(), duplicates: 0 }
    }

    /// The configured bucket width in microseconds.
    #[must_use]
    pub fn interval_us(&self) -> f64 {
        self.interval_us
    }

    /// Folds one delta into `track`'s series; returns `false` (and folds
    /// nothing) when the `(track, seq)` pair was already ingested.
    pub fn ingest(&mut self, track: u32, delta: &TelemetryDelta) -> bool {
        if !self.seen.insert((track, delta.seq)) {
            self.duplicates += 1;
            return false;
        }
        let bucket = (delta.consumer_end_us() / self.interval_us).floor().max(0.0) as u64;
        self.tracks.entry(track).or_default().entry(bucket).or_default().fold(delta);
        true
    }

    /// Retransmissions rejected so far.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Tracks that have contributed at least one delta.
    #[must_use]
    pub fn tracks(&self) -> Vec<u32> {
        self.tracks.keys().copied().collect()
    }

    /// `(interval index, stats)` pairs of one track, interval-ordered.
    pub fn series(&self, track: u32) -> impl Iterator<Item = (u64, IntervalStats)> + '_ {
        self.tracks.get(&track).into_iter().flatten().map(|(&i, s)| (i, *s))
    }

    /// The most recent interval of one track.
    #[must_use]
    pub fn latest(&self, track: u32) -> Option<(u64, IntervalStats)> {
        self.tracks.get(&track).and_then(|s| s.iter().next_back()).map(|(&i, s)| (i, *s))
    }

    /// Everything one track reported, summed across intervals.
    #[must_use]
    pub fn totals(&self, track: u32) -> IntervalStats {
        let mut total = IntervalStats::default();
        for (_, stats) in self.series(track) {
            total.add(&stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockKind, DriftOutcome, EventKind, FabricLane, ObsConfig};
    use std::collections::HashSet;

    fn recorder(capacity: usize) -> Arc<Recorder> {
        Recorder::new(ClockKind::Simulated, ObsConfig { ring_capacity: capacity, ..Default::default() })
    }

    #[test]
    fn delta_round_trips_with_interned_names() {
        let rec = recorder(1 << 10);
        let mut sampler = DeltaSampler::new(Arc::clone(&rec), -42.5);
        rec.set_sim_now(0.010);
        rec.record(EventKind::Epoch { epoch: 1, bytes: 128.0 });
        rec.record(EventKind::FabricTransfer { lane: FabricLane::CrossRack, bytes: 512.0 });
        rec.record_lock_wait(3, 50_000);
        rec.record(EventKind::DriftDecision { outcome: DriftOutcome::Quiet, delta: 0.25 });
        let delta = sampler.sample();
        assert_eq!(delta.seq, 0);
        assert_eq!(delta.gauges, vec![("drift_delta_last".to_string(), 0.25)]);
        let wait = &delta.hists.iter().find(|(n, _)| n == "lock_wait_ns").unwrap().1;
        assert_eq!(wait.buckets, vec![(15, 1)]); // 2^15 <= 50_000 < 2^16
        assert_eq!(delta.clock_offset_us, -42.5);
        assert_eq!(delta.t_end_us, 10_000.0);
        assert!(!delta.is_empty());
        let back = TelemetryDelta::decode(&delta.encode()).unwrap();
        assert_eq!(back, delta);
        // Interning pays each name once: "events_recorded" appears in
        // counters, and the encoded bytes contain it exactly once.
        let bytes = delta.encode();
        let needle = b"events_recorded";
        let hits = bytes.windows(needle.len()).filter(|w| w == needle).count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn consecutive_samples_are_disjoint_and_account_drops_exactly() {
        // Forced overflow: a 4-slot ring fed 10 events keeps 4 and drops 6.
        let rec = recorder(4);
        let mut sampler = DeltaSampler::new(Arc::clone(&rec), 0.0);
        for epoch in 0..10 {
            rec.record(EventKind::Epoch { epoch, bytes: 0.0 });
        }
        let first = sampler.sample();
        assert_eq!(first.events.len(), 4);
        assert_eq!(first.dropped, 6);

        // Draining again right away re-reports nothing.
        let empty = sampler.sample();
        assert!(empty.is_empty(), "re-drain must not duplicate: {empty:?}");
        assert_eq!(empty.dropped, 0);

        // New events after the drain come out exactly once, no drops.
        for epoch in 10..13 {
            rec.record(EventKind::Epoch { epoch, bytes: 0.0 });
        }
        let second = sampler.sample();
        assert_eq!(second.events.len(), 3);
        assert_eq!(second.dropped, 0);
        let first_seqs: HashSet<u64> = first.events.iter().map(|e| e.seq).collect();
        assert!(second.events.iter().all(|e| !first_seqs.contains(&e.seq)));

        // Metric deltas are increments, not cumulative values.
        assert_eq!(first.counters.iter().find(|(n, _)| n == "events_recorded").map(|&(_, v)| v), Some(10));
        assert_eq!(second.counters.iter().find(|(n, _)| n == "events_recorded").map(|&(_, v)| v), Some(3));
        assert_eq!(sampler.samples_taken(), 3);
    }

    #[test]
    fn finish_after_sampling_sees_only_the_tail() {
        // The streamed prefix and the final drain partition the run.
        let rec = recorder(1 << 10);
        let mut sampler = DeltaSampler::new(Arc::clone(&rec), 0.0);
        rec.record(EventKind::Epoch { epoch: 1, bytes: 0.0 });
        let delta = sampler.sample();
        rec.record(EventKind::Epoch { epoch: 2, bytes: 0.0 });
        let t = rec.finish("sim");
        assert_eq!(delta.events.len(), 1);
        assert_eq!(t.events.len(), 1);
        assert_ne!(delta.events[0].seq, t.events[0].seq);
        // The final registry snapshot is cumulative over both halves.
        assert_eq!(t.metrics.counter("epochs"), Some(2));
    }

    #[test]
    fn malformed_deltas_are_typed_errors() {
        let rec = recorder(1 << 10);
        let mut sampler = DeltaSampler::new(Arc::clone(&rec), 0.0);
        rec.record_lock_wait(1, 20_000);
        rec.record(EventKind::Epoch { epoch: 1, bytes: 1.0 });
        let good = sampler.sample().encode();

        assert_eq!(TelemetryDelta::decode(b"JUNK"), Err(DecodeError::BadMagic));
        let mut wrong_version = good.clone();
        wrong_version[4] = 9;
        assert_eq!(TelemetryDelta::decode(&wrong_version), Err(DecodeError::BadVersion { got: 9 }));
        for cut in 0..good.len() {
            let err = TelemetryDelta::decode(&good[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated
                        | DecodeError::BadMagic
                        | DecodeError::BadField(_)
                        | DecodeError::BadCode { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(TelemetryDelta::decode(&trailing), Err(DecodeError::TrailingBytes));

        // A counter referencing a string-table slot that does not exist.
        let empty = TelemetryDelta {
            seq: 0,
            origin_us: 0.0,
            clock_offset_us: 0.0,
            t_end_us: 0.0,
            dropped: 0,
            counters: vec![("x".to_string(), 1)],
            gauges: vec![],
            hists: vec![],
            events: vec![],
        };
        let mut bytes = empty.encode();
        // The single counter entry sits right after the 1-entry string
        // table and the counter count; point its index out of range.
        // Tail after the index: delta u64, then the gauge, histogram and
        // event counts (u32 each).
        let idx_at = bytes.len() - 4 - 8 - 12;
        bytes[idx_at..idx_at + 4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(TelemetryDelta::decode(&bytes), Err(DecodeError::BadField("string index")));
    }

    fn synthetic_delta(seq: u64, t_end_us: f64, grants: u64, wait_ns: u64) -> TelemetryDelta {
        TelemetryDelta {
            seq,
            origin_us: 1_000.0,
            clock_offset_us: -500.0,
            t_end_us,
            dropped: seq, // arbitrary distinct drop counts
            counters: vec![("remote_grants".to_string(), grants)],
            gauges: vec![],
            hists: vec![
                (
                    "lock_wait_ns".to_string(),
                    HistogramSnapshot { count: grants, sum: wait_ns, buckets: vec![] },
                ),
                (
                    "fabric_bytes_cross_rack".to_string(),
                    HistogramSnapshot { count: 1, sum: 2_048, buckets: vec![] },
                ),
            ],
            events: vec![],
        }
    }

    #[test]
    fn aggregator_buckets_on_the_consumer_clock_and_dedups() {
        let mut agg = LiveAggregator::new(10_000.0); // 10 ms buckets
                                                     // consumer_end = t_end + 1000 − 500 = t_end + 500.
        assert!(agg.ingest(1, &synthetic_delta(0, 4_500.0, 3, 100)));
        assert!(agg.ingest(1, &synthetic_delta(1, 14_500.0, 5, 200)));
        assert!(!agg.ingest(1, &synthetic_delta(1, 14_500.0, 5, 200)), "retransmit must fold nothing");
        assert!(agg.ingest(2, &synthetic_delta(0, 24_500.0, 7, 400)));
        assert_eq!(agg.duplicates(), 1);
        assert_eq!(agg.tracks(), vec![1, 2]);

        let series: Vec<(u64, IntervalStats)> = agg.series(1).collect();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 0);
        assert_eq!(series[0].1.grants, 3);
        assert_eq!(series[0].1.lock_wait_ns, 100);
        assert_eq!(series[1].0, 1);
        assert_eq!(series[1].1.fabric_bytes, [0, 0, 2_048]);

        let (latest_bucket, latest) = agg.latest(1).unwrap();
        assert_eq!(latest_bucket, 1);
        assert_eq!(latest.grants, 5);
        assert!(agg.latest(9).is_none());

        let totals = agg.totals(1);
        assert_eq!(totals.grants, 8);
        assert_eq!(totals.lock_wait_ns, 300);
        assert_eq!(totals.deltas, 2);
        assert_eq!(totals.dropped, 1); // seq 0 + seq 1 drop fields
        assert_eq!(agg.totals(2).grants, 7);
    }
}
