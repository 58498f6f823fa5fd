//! The shared binary codec of the telemetry stream: the little-endian
//! layout of one [`ObsEvent`], length-prefixed strings, and a strict
//! reader whose every failure is a typed [`DecodeError`].
//!
//! Each event is `ts_us f64 | dur_us f64 | seq u64 | tid u64 | track u32 |
//! tag u8 | payload`, with one tag per [`EventKind`] variant.  Decoding is
//! strict: bad magic, unknown versions, unknown tags, non-finite
//! timestamps, truncated buffers and trailing bytes are all typed errors —
//! a corrupt delta must never poison the coordinator's merged timeline.
//! The container around the events is [`TelemetryDelta`](crate::TelemetryDelta).

use crate::event::{DriftOutcome, EventKind, FabricLane, ObsEvent, SolvePhase};

/// A decode failure (encoding is infallible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the container's magic.
    BadMagic,
    /// A version this build does not speak.
    BadVersion {
        /// The version the peer wrote.
        got: u16,
    },
    /// An enum code outside the known range.
    BadCode {
        /// Which field carried the code.
        field: &'static str,
        /// The offending code.
        got: u8,
    },
    /// The buffer ended inside a field.
    Truncated,
    /// Bytes left over after the last field.
    TrailingBytes,
    /// A string field was not UTF-8.
    BadUtf8,
    /// A numeric field failed a range check (non-finite timestamp,
    /// oversized length).
    BadField(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad telemetry magic"),
            DecodeError::BadVersion { got } => write!(f, "unsupported telemetry version {got}"),
            DecodeError::BadCode { field, got } => write!(f, "unknown {field} code {got}"),
            DecodeError::Truncated => write!(f, "telemetry buffer truncated"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after telemetry"),
            DecodeError::BadUtf8 => write!(f, "telemetry string is not UTF-8"),
            DecodeError::BadField(field) => write!(f, "telemetry field {field} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Hard caps on collection lengths: a malformed length prefix must fail
/// fast instead of asking the allocator for terabytes.
pub(crate) const MAX_INSTRUMENTS: u32 = 1 << 16;
pub(crate) const MAX_STRING: u32 = 1 << 12;

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(MAX_STRING as usize)];
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

pub(crate) fn put_event(out: &mut Vec<u8>, ev: &ObsEvent) {
    out.extend_from_slice(&ev.ts_us.to_le_bytes());
    out.extend_from_slice(&ev.dur_us.to_le_bytes());
    out.extend_from_slice(&ev.seq.to_le_bytes());
    out.extend_from_slice(&ev.tid.to_le_bytes());
    out.extend_from_slice(&ev.track.to_le_bytes());
    match ev.kind {
        EventKind::Epoch { epoch, bytes } => {
            out.push(0);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        EventKind::PlacementSolve { phase, wall_ns } => {
            out.push(1);
            out.push(match phase {
                SolvePhase::Group => 0,
                SolvePhase::Coarsen => 1,
                SolvePhase::Refine => 2,
                SolvePhase::Total => 3,
            });
            out.extend_from_slice(&wall_ns.to_le_bytes());
        }
        EventKind::DriftDecision { outcome, delta } => {
            out.push(2);
            out.push(match outcome {
                DriftOutcome::Fired => 0,
                DriftOutcome::SuppressedByPatience => 1,
                DriftOutcome::Cooldown => 2,
                DriftOutcome::Quiet => 3,
            });
            out.extend_from_slice(&delta.to_le_bytes());
        }
        EventKind::LockWait { location, wait_ns } => {
            out.push(3);
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&wait_ns.to_le_bytes());
        }
        EventKind::FabricTransfer { lane, bytes } => {
            out.push(4);
            out.push(match lane {
                FabricLane::SameNode => 0,
                FabricLane::SameRack => 1,
                FabricLane::CrossRack => 2,
            });
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        EventKind::Rebind { task, pu } => {
            out.push(5);
            out.extend_from_slice(&(task as u64).to_le_bytes());
            out.extend_from_slice(&(pu as u64).to_le_bytes());
        }
        EventKind::Migration { tasks_moved, bytes, cross_node } => {
            out.push(6);
            out.extend_from_slice(&(tasks_moved as u64).to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
            out.push(u8::from(cross_node));
        }
        EventKind::LockRequest { rseq, location, owner } => {
            out.push(7);
            out.extend_from_slice(&rseq.to_le_bytes());
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&owner.to_le_bytes());
        }
        EventKind::LockGrant { rseq, location, wait_ns } => {
            out.push(8);
            out.extend_from_slice(&rseq.to_le_bytes());
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&wait_ns.to_le_bytes());
        }
        EventKind::LockRelease { rseq, location, held_ns } => {
            out.push(9);
            out.extend_from_slice(&rseq.to_le_bytes());
            out.extend_from_slice(&location.to_le_bytes());
            out.extend_from_slice(&held_ns.to_le_bytes());
        }
        EventKind::NodeLoss { node, tasks_lost } => {
            out.push(10);
            out.extend_from_slice(&node.to_le_bytes());
            out.extend_from_slice(&(tasks_lost as u64).to_le_bytes());
        }
        EventKind::Recovery { node, tasks_migrated } => {
            out.push(11);
            out.extend_from_slice(&node.to_le_bytes());
            out.extend_from_slice(&(tasks_migrated as u64).to_le_bytes());
        }
    }
}

pub(crate) fn take_event(r: &mut Reader<'_>) -> Result<ObsEvent, DecodeError> {
    let ts_us = r.finite_f64("ts_us")?;
    let dur_us = r.finite_f64("dur_us")?;
    let seq = r.u64()?;
    let tid = r.u64()?;
    let track = r.u32()?;
    let tag = r.u8()?;
    let kind = match tag {
        0 => EventKind::Epoch { epoch: r.u64()?, bytes: r.finite_f64("bytes")? },
        1 => EventKind::PlacementSolve {
            phase: match r.u8()? {
                0 => SolvePhase::Group,
                1 => SolvePhase::Coarsen,
                2 => SolvePhase::Refine,
                3 => SolvePhase::Total,
                got => return Err(DecodeError::BadCode { field: "phase", got }),
            },
            wall_ns: r.u64()?,
        },
        2 => EventKind::DriftDecision {
            outcome: match r.u8()? {
                0 => DriftOutcome::Fired,
                1 => DriftOutcome::SuppressedByPatience,
                2 => DriftOutcome::Cooldown,
                3 => DriftOutcome::Quiet,
                got => return Err(DecodeError::BadCode { field: "outcome", got }),
            },
            delta: r.finite_f64("delta")?,
        },
        3 => EventKind::LockWait { location: r.u64()?, wait_ns: r.u64()? },
        4 => EventKind::FabricTransfer {
            lane: match r.u8()? {
                0 => FabricLane::SameNode,
                1 => FabricLane::SameRack,
                2 => FabricLane::CrossRack,
                got => return Err(DecodeError::BadCode { field: "lane", got }),
            },
            bytes: r.finite_f64("bytes")?,
        },
        5 => EventKind::Rebind { task: r.u64()? as usize, pu: r.u64()? as usize },
        6 => EventKind::Migration {
            tasks_moved: r.u64()? as usize,
            bytes: r.finite_f64("bytes")?,
            cross_node: match r.u8()? {
                0 => false,
                1 => true,
                got => return Err(DecodeError::BadCode { field: "cross_node", got }),
            },
        },
        7 => EventKind::LockRequest { rseq: r.u64()?, location: r.u64()?, owner: r.u32()? },
        8 => EventKind::LockGrant { rseq: r.u64()?, location: r.u64()?, wait_ns: r.u64()? },
        9 => EventKind::LockRelease { rseq: r.u64()?, location: r.u64()?, held_ns: r.u64()? },
        10 => EventKind::NodeLoss { node: r.u32()?, tasks_lost: r.u64()? as usize },
        11 => EventKind::Recovery { node: r.u32()?, tasks_migrated: r.u64()? as usize },
        got => return Err(DecodeError::BadCode { field: "event tag", got }),
    };
    Ok(ObsEvent { ts_us, dur_us, seq, tid, track, kind })
}

pub(crate) struct Reader<'b> {
    pub(crate) buf: &'b [u8],
    pub(crate) at: usize,
}

impl<'b> Reader<'b> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'b [u8], DecodeError> {
        if self.buf.len() - self.at < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn finite_f64(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        let x = f64::from_le_bytes(self.take(8)?.try_into().unwrap());
        if x.is_finite() {
            Ok(x)
        } else {
            Err(DecodeError::BadField(field))
        }
    }

    pub(crate) fn len_prefix(&mut self, max: u32, field: &'static str) -> Result<usize, DecodeError> {
        let n = self.u32()?;
        if n > max {
            return Err(DecodeError::BadField(field));
        }
        Ok(n as usize)
    }

    pub(crate) fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.len_prefix(MAX_STRING, "string length")?;
        std::str::from_utf8(self.take(n)?).map(str::to_string).map_err(|_| DecodeError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<EventKind> {
        vec![
            EventKind::Epoch { epoch: 1, bytes: 4096.0 },
            EventKind::PlacementSolve { phase: SolvePhase::Total, wall_ns: 1_500_000 },
            EventKind::DriftDecision { outcome: DriftOutcome::Quiet, delta: 0.01 },
            EventKind::LockWait { location: 3, wait_ns: 60_000 },
            EventKind::FabricTransfer { lane: FabricLane::SameRack, bytes: 2048.0 },
            EventKind::Rebind { task: 2, pu: 5 },
            EventKind::Migration { tasks_moved: 3, bytes: 96.0, cross_node: true },
            EventKind::LockRequest { rseq: (2 << 32) | 7, location: 4, owner: 0 },
            EventKind::LockGrant { rseq: (2 << 32) | 7, location: 4, wait_ns: 9_000 },
            EventKind::LockRelease { rseq: (2 << 32) | 7, location: 4, held_ns: 700 },
            EventKind::NodeLoss { node: 1, tasks_lost: 9 },
            EventKind::Recovery { node: 1, tasks_migrated: 9 },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events: Vec<ObsEvent> = every_kind()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| ObsEvent {
                ts_us: i as f64 * 1.5,
                dur_us: 0.25,
                seq: i as u64,
                tid: 3,
                track: 1,
                kind,
            })
            .collect();
        let mut buf = Vec::new();
        for ev in &events {
            put_event(&mut buf, ev);
        }
        let mut r = Reader { buf: &buf, at: 0 };
        for ev in &events {
            assert_eq!(&take_event(&mut r).unwrap(), ev);
        }
        assert_eq!(r.at, buf.len());
    }

    #[test]
    fn malformed_events_are_typed_errors() {
        let ev = ObsEvent { ts_us: 1.0, dur_us: 0.0, seq: 0, tid: 0, track: 0, kind: every_kind()[0] };
        let mut good = Vec::new();
        put_event(&mut good, &ev);
        // Truncation at any prefix length never panics and fails typed.
        for cut in 0..good.len() {
            let err = take_event(&mut Reader { buf: &good[..cut], at: 0 }).unwrap_err();
            assert_eq!(err, DecodeError::Truncated, "cut at {cut}");
        }
        // Header is ts, dur, seq, tid (8 bytes each) and track (4): the tag follows.
        let mut bad_tag = good.clone();
        bad_tag[36] = 200;
        assert_eq!(
            take_event(&mut Reader { buf: &bad_tag, at: 0 }),
            Err(DecodeError::BadCode { field: "event tag", got: 200 })
        );
        let mut nan_ts = good;
        nan_ts[0..8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(take_event(&mut Reader { buf: &nan_ts, at: 0 }), Err(DecodeError::BadField("ts_us")));
        // An absurd string length fails fast instead of allocating.
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(Reader { buf: &huge, at: 0 }.string(), Err(DecodeError::BadField("string length")));
    }
}
