//! The span and counter recorder behind `--trace 1`.
//!
//! Spans are timed in the benchmark around calls into the system's
//! public API (never inside it) and kept in memory until the round ends.
//! A disabled [`Tracer`] records nothing, so untraced rounds pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Durations (seconds) of every call one span name covered.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Span {
    pub samples_s: Vec<f64>,
}

/// Everything one traced round recorded.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Recorder {
    pub spans: BTreeMap<String, Span>,
    pub counters: BTreeMap<String, f64>,
}

impl Recorder {
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |s| s.samples_s.iter().sum())
    }

    pub fn calls(&self, name: &str) -> usize {
        self.spans.get(name).map_or(0, |s| s.samples_s.len())
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn push(&mut self, name: &str, dt_s: f64) {
        match self.spans.get_mut(name) {
            Some(span) => span.samples_s.push(dt_s),
            None => {
                self.spans.insert(
                    name.to_string(),
                    Span {
                        samples_s: vec![dt_s],
                    },
                );
            }
        }
    }
}

/// A cheap, cloneable handle; decorators moved into the fleet keep a
/// clone and record through it from the coordinator thread.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Recorder>>>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn on() -> Tracer {
        Tracer(Some(Arc::default()))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f`, recording its duration under `name` when tracing.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.0 else { return f() };
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        lock(rec).push(name, dt);
        out
    }

    /// Record an externally timed duration under `name`.
    pub fn record(&self, name: &str, dt_s: f64) {
        if let Some(rec) = &self.0 {
            lock(rec).push(name, dt_s);
        }
    }

    /// Add `n` to counter `name`.
    pub fn count(&self, name: &str, n: f64) {
        if let Some(rec) = &self.0 {
            let mut rec = lock(rec);
            match rec.counters.get_mut(name) {
                Some(c) => *c += n,
                None => {
                    rec.counters.insert(name.to_string(), n);
                }
            }
        }
    }

    /// Everything recorded so far, leaving the recorder empty.
    pub fn take(&self) -> Recorder {
        self.0
            .as_ref()
            .map(|r| std::mem::take(&mut *lock(r)))
            .unwrap_or_default()
    }
}

fn lock(rec: &Mutex<Recorder>) -> MutexGuard<'_, Recorder> {
    rec.lock()
        .expect("trace recorder poisoned by a panicking span")
}
