//! The benchmark's own spans: a name, a start, an end and a parent around
//! every call it makes into a layer of the program.  Spans live in memory
//! for the whole pass and are written out once at its end; the written
//! file is read back and its self times re-derived, so the document on
//! disk is known to be complete.

use orwl_obs::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval, in microseconds since the pass began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call or benchmark step.
    pub name: String,
    /// Index of the enclosing span; `None` for the root.
    pub parent: Option<usize>,
    /// Start, µs since the pass origin.
    pub start_us: f64,
    /// End, µs since the pass origin.
    pub end_us: f64,
}

/// An in-memory span recorder.  A disabled recorder still times every
/// call (the metrics need the durations) but keeps nothing.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose origin is now.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Spans { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if self.enabled {
            let span = Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start_us: self.us(Instant::now()),
                end_us: f64::NAN,
            };
            self.open.push(self.spans.len());
            self.spans.push(span);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.enabled {
            let id = self.open.pop().expect("exit matches an enter");
            self.spans[id].end_us = self.us(Instant::now());
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the call's duration (the same instants the span records).
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let parent = self.open.last().copied();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                start_us: self.us(start),
                end_us: self.us(end),
            });
        }
        (out, end - start)
    }

    /// The recorded spans; every span must be closed.
    #[must_use]
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed before the pass ends");
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// children cover, summed over spans of the same name (seconds).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Union of the children's intervals, clipped to the parent.
        let mut covered = 0.0;
        let mut reach = s.start_us;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(s.end_us));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *out.entry(s.name.clone()).or_insert(0.0) += (s.end_us - s.start_us - covered) * 1e-6;
    }
    out
}

/// Checks the tree's shape: exactly one root, parents precede children,
/// every child lies within its parent.  Returns the root's duration (s).
pub fn check_tree(spans: &[Span]) -> Result<f64, String> {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let [root] = roots.as_slice() else {
        return Err(format!("expected one root span, found {}", roots.len()));
    };
    for (i, s) in spans.iter().enumerate() {
        if s.end_us.is_nan() || s.end_us < s.start_us {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans.get(p).filter(|_| p < i).ok_or(format!("span {i} has a bad parent {p}"))?;
            if s.start_us < parent.start_us || s.end_us > parent.end_us {
                return Err(format!("span {i} ({}) escapes its parent {}", s.name, parent.name));
            }
        }
    }
    Ok((root.end_us - root.start_us) * 1e-6)
}

/// The span document: `{"spans": [{"name", "parent", "start_us",
/// "end_us"}, ...]}` plus whatever header fields the caller adds.
#[must_use]
pub fn to_json(header: Vec<(&str, Json)>, spans: &[Span]) -> Json {
    let mut doc = Json::obj();
    for (key, value) in header {
        doc.push(key, value);
    }
    let rows = spans
        .iter()
        .map(|s| {
            let mut o = Json::obj();
            o.push("name", s.name.as_str());
            o.push("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64)));
            o.push("start_us", s.start_us);
            o.push("end_us", s.end_us);
            o
        })
        .collect();
    doc.push("spans", Json::Arr(rows));
    doc
}

/// Reads a span document back.
pub fn from_json(doc: &Json) -> Result<Vec<Span>, String> {
    let rows = doc.get("spans").and_then(Json::as_arr).ok_or("document has no spans array")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let num =
                |key: &str| row.get(key).and_then(Json::as_f64).ok_or(format!("span {i}: missing {key}"));
            let parent = match row.get("parent") {
                Some(Json::Null) => None,
                Some(p) => Some(p.as_f64().ok_or(format!("span {i}: bad parent"))? as usize),
                None => return Err(format!("span {i}: missing parent")),
            };
            Ok(Span {
                name: row
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("span {i}: missing name"))?
                    .to_string(),
                parent,
                start_us: num("start_us")?,
                end_us: num("end_us")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { name: name.to_string(), parent, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("pass", None, 0.0, 100.0),
            span("run", Some(0), 10.0, 40.0),
            span("run", Some(0), 50.0, 70.0),
            span("check", Some(1), 20.0, 25.0),
        ];
        let st = self_times(&spans);
        assert!((st["pass"] - 50e-6).abs() < 1e-12);
        assert!((st["run"] - 45e-6).abs() < 1e-12);
        assert!((st["check"] - 5e-6).abs() < 1e-12);
        // Self times partition the root.
        let total: f64 = st.values().sum();
        assert!((total - check_tree(&spans).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_round_trips_through_json() {
        let mut rec = Spans::new(true);
        rec.enter("pass");
        let (v, _) = rec.time("leaf", || 7);
        rec.enter("inner");
        rec.time("leaf", || ());
        rec.exit();
        rec.exit();
        assert_eq!(v, 7);
        let spans = rec.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        let text = to_json(vec![("seed", Json::Num(1.0))], &spans).pretty();
        let back = from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), spans.len());
        assert_eq!(back[2].name, "inner");
        let total: f64 = self_times(&back).values().sum();
        let root = check_tree(&back).unwrap();
        assert!((total - root).abs() <= 1e-9 * back.len() as f64 + 1e-12);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Spans::new(false);
        rec.enter("pass");
        let (_, took) = rec.time("leaf", || std::thread::sleep(Duration::from_millis(1)));
        rec.exit();
        assert!(took >= Duration::from_millis(1));
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn malformed_trees_are_rejected() {
        assert!(check_tree(&[span("a", None, 0.0, 1.0), span("b", None, 0.0, 1.0)]).is_err());
        assert!(check_tree(&[span("a", None, 0.0, 1.0), span("b", Some(0), 0.5, 2.0)]).is_err());
        assert!(check_tree(&[span("a", None, 0.0, 1.0), span("b", Some(5), 0.1, 0.2)]).is_err());
    }
}
