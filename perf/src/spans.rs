//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the engine
//! (spans inside the program are a later issue), kept in memory and written
//! out once at exit. A disabled tracer records nothing, so `run` and the
//! untraced windows of `trace` pay one branch per call.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 = root).
    pub parent: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Engine calls covered (bursts of upserts/deletes share one span).
    pub calls: u64,
}

pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span under `parent`; returns its id (0 when disabled).
    pub fn begin(&self, name: &str, parent: u64) -> u64 {
        if !self.enabled.load(Ordering::Relaxed) {
            return 0;
        }
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("no span recorder panics");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: now,
            end_us: now,
            calls: 1,
        });
        id
    }

    /// Closes span `id`, recording how many engine calls it covered.
    pub fn end(&self, id: u64, calls: u64) {
        if id == 0 {
            return;
        }
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("no span recorder panics");
        if let Some(s) = spans.get_mut(id as usize - 1) {
            s.end_us = now;
            s.calls = calls;
        }
    }

    /// Runs `f` inside a span covering one call.
    pub fn span<T>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.begin(name, parent);
        let out = f(id);
        self.end(id, 1);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("no span recorder panics").len()
    }

    /// The span file: `{"workload":…, "spans":[{id,parent,name,start_us,end_us,calls},…]}`.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.lock().expect("no span recorder panics");
        let rows = spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(s.id as f64)),
                    ("parent".into(), Json::Num(s.parent as f64)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_us".into(), Json::Num(s.start_us)),
                    ("end_us".into(), Json::Num(s.end_us)),
                    ("calls".into(), Json::Num(s.calls as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.to_string())),
            ("spans".into(), Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let root = t.begin("run", 0);
        let child = t.span("window", root, |id| id);
        t.end(root, 1);
        assert_eq!((root, child, t.len()), (1, 2, 2));
        let text = t.to_json("w").to_string();
        assert!(text.contains("\"parent\":1") && text.contains("\"name\":\"window\""));
        t.set_enabled(false);
        assert_eq!(t.begin("skipped", root), 0);
        t.end(0, 1);
        assert_eq!(t.len(), 2);
    }
}
