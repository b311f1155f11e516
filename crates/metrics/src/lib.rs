//! # dlsm-metrics — live introspection for running nodes
//!
//! PR 2's `dlsm-telemetry` answers "what happened" after a run: counters
//! and histograms frozen into a snapshot. This crate answers "what state
//! are you in right now" (DESIGN.md §8b):
//!
//! * [`Sample`] / [`Gauge`] — a point-in-time reading of live state
//!   (memtable occupancy, per-level shape, allocator utilization, ...)
//!   alongside the monotone counters and latency histograms telemetry
//!   already tracks.
//! * [`MetricsRegistry`] — pull-model collection: each layer (a `Db`
//!   shard, a `MemServer`, a chaos plan) registers a [`Collector`]
//!   closure; `gather()` runs them all into one `Sample`.
//! * [`GaugeSampler`] — a background thread snapshotting the registry on
//!   a fixed cadence, so scrapes read a coherent cached sample instead of
//!   racing the hot path on every request.
//! * [`expo`] — Prometheus text-exposition rendering (gauges, counters,
//!   `_bucket`/`_sum`/`_count` histograms, quantile gauges).
//! * [`MetricsServer`] — a tiny hand-rolled HTTP listener serving
//!   `GET /metrics`; bind to port 0 and read the real port back from
//!   [`MetricsServer::local_addr`].
//!
//! This crate depends on nothing but `std` and `dlsm-telemetry` (which
//! itself only adds `dlsm-trace`), so every layer of the workspace can use
//! it.

pub mod expo;
mod http;
mod process;
mod sampler;

pub use http::{serve, MetricsServer};
pub use process::register_process_metrics;
pub use sampler::GaugeSampler;

use std::sync::{Arc, Mutex, MutexGuard};

use dlsm_telemetry::{HistSnapshot, OpClass, TelemetrySnapshot};

/// One label pair: static key (label names are code-controlled), dynamic
/// value (shard index, level number, node id).
pub type Label = (&'static str, String);

/// A point-in-time reading of one piece of live state: current value, may
/// go up or down (Prometheus gauge semantics).
#[derive(Debug, Clone)]
pub struct Gauge {
    pub name: String,
    pub labels: Vec<Label>,
    pub value: f64,
}

/// A monotonically increasing event count (Prometheus counter semantics;
/// rendered with a `_total` suffix).
#[derive(Debug, Clone)]
pub struct Counter {
    pub name: String,
    pub labels: Vec<Label>,
    pub value: u64,
}

/// A latency distribution attached to a sample; rendered as a Prometheus
/// histogram (`_bucket`/`_sum`/`_count`) plus `_p50`/`_p90`/`_p99`/`_p999`
/// quantile gauges.
#[derive(Debug, Clone)]
pub struct HistMetric {
    pub name: String,
    pub labels: Vec<Label>,
    pub snap: HistSnapshot,
}

/// Everything one collection round produced. Cloneable so the sampler can
/// hand out cached copies.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub gauges: Vec<Gauge>,
    pub counters: Vec<Counter>,
    pub hists: Vec<HistMetric>,
}

impl Sample {
    pub fn new() -> Sample {
        Sample::default()
    }

    /// Record an unlabeled gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauge_with(name, &[], value);
    }

    /// Record a labeled gauge.
    pub fn gauge_with(&mut self, name: &str, labels: &[(&'static str, &str)], value: f64) {
        self.gauges.push(Gauge {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            value,
        });
    }

    /// Record a labeled counter.
    pub fn counter_with(&mut self, name: &str, labels: &[(&'static str, &str)], value: u64) {
        self.counters.push(Counter {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            value,
        });
    }

    /// Record a labeled histogram.
    pub fn hist_with(&mut self, name: &str, labels: &[(&'static str, &str)], snap: HistSnapshot) {
        self.hists.push(HistMetric {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            snap,
        });
    }

    /// Fold a [`TelemetrySnapshot`] in: counters become `{prefix}{name}`
    /// counters, op-class histograms one `{prefix}op_latency_ns` family
    /// keyed by a `class` label, named breakdowns one
    /// `{prefix}breakdown_latency_ns` family keyed by a `stage` label.
    pub fn push_telemetry(
        &mut self,
        prefix: &str,
        labels: &[(&'static str, &str)],
        snap: &TelemetrySnapshot,
    ) {
        for (name, v) in &snap.counters {
            self.counter_with(&format!("{prefix}{name}"), labels, *v);
        }
        for class in OpClass::ALL {
            let mut l = labels.to_vec();
            l.push(("class", class.name()));
            self.hist_with(&format!("{prefix}op_latency_ns"), &l, snap.op(class));
        }
        for (stage, h) in &snap.breakdown {
            let mut l = labels.to_vec();
            l.push(("stage", stage));
            self.hist_with(&format!("{prefix}breakdown_latency_ns"), &l, h.clone());
        }
    }

    /// Append everything from `other` (multi-source aggregation).
    pub fn extend(&mut self, other: Sample) {
        self.gauges.extend(other.gauges);
        self.counters.extend(other.counters);
        self.hists.extend(other.hists);
    }

    /// Value of the first gauge matching `name` and every `labels` pair
    /// (test/assertion helper; extra labels on the gauge are ignored).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| {
                g.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| g.labels.iter().any(|(gk, gv)| gk == k && gv == v))
            })
            .map(|g| g.value)
    }

    /// Sum of every gauge named `name` (across shards/levels).
    pub fn gauge_sum(&self, name: &str) -> f64 {
        self.gauges.iter().filter(|g| g.name == name).map(|g| g.value).sum()
    }
}

/// One source of live state. Implemented for plain closures, so call sites
/// register `move |out: &mut Sample| { ... }`.
pub trait Collector: Send + Sync {
    fn collect(&self, out: &mut Sample);
}

impl<F: Fn(&mut Sample) + Send + Sync> Collector for F {
    fn collect(&self, out: &mut Sample) {
        self(out)
    }
}

/// A set of registered collectors; `gather()` runs them all in
/// registration order into one [`Sample`]. Shared as `Arc` between the
/// owning layer, the sampler thread, and the HTTP listener.
pub struct MetricsRegistry {
    sources: Mutex<Vec<Box<dyn Collector>>>,
}

impl MetricsRegistry {
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry { sources: Mutex::new(Vec::new()) })
    }

    /// Register one collector; it runs on every subsequent `gather()`.
    pub fn register<C: Collector + 'static>(&self, collector: C) {
        lock(&self.sources).push(Box::new(collector));
    }

    /// Number of registered collectors.
    pub fn len(&self) -> usize {
        lock(&self.sources).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run every collector into a fresh [`Sample`].
    pub fn gather(&self) -> Sample {
        let mut out = Sample::new();
        for c in lock(&self.sources).iter() {
            c.collect(&mut out);
        }
        out
    }

    /// Gather and render as Prometheus text exposition.
    pub fn render(&self) -> String {
        expo::render(&self.gather())
    }
}

/// Lock a std mutex, surviving a poisoned lock (a panicking collector must
/// not take the exporter down with it).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_telemetry::Histogram;

    #[test]
    fn registry_gathers_all_sources() {
        let reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        reg.register(|out: &mut Sample| out.gauge("a", 1.0));
        reg.register(|out: &mut Sample| {
            out.gauge_with("b", &[("shard", "0")], 2.0);
            out.counter_with("evts", &[], 7);
        });
        assert_eq!(reg.len(), 2);
        let s = reg.gather();
        assert_eq!(s.gauge_value("a", &[]), Some(1.0));
        assert_eq!(s.gauge_value("b", &[("shard", "0")]), Some(2.0));
        assert_eq!(s.gauge_value("b", &[("shard", "1")]), None);
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.counters[0].value, 7);
    }

    #[test]
    fn push_telemetry_maps_counters_ops_and_breakdowns() {
        let mut snap = TelemetrySnapshot::new();
        snap.set_counter("puts", 42);
        let h = Histogram::new();
        h.record(1_000);
        snap.set_breakdown("get_l0", h.snapshot());
        let mut s = Sample::new();
        s.push_telemetry("dlsm_", &[("shard", "3")], &snap);
        assert!(s.counters.iter().any(|c| c.name == "dlsm_puts" && c.value == 42));
        assert!(s
            .hists
            .iter()
            .any(|m| m.name == "dlsm_op_latency_ns"
                && m.labels.contains(&("class", "put".to_string()))));
        let bd = s
            .hists
            .iter()
            .find(|m| m.name == "dlsm_breakdown_latency_ns"
                && m.labels.contains(&("stage", "get_l0".to_string())))
            .expect("breakdown family");
        assert_eq!(bd.snap.count(), 1);
        assert!(bd.labels.contains(&("shard", "3".to_string())));
    }

    #[test]
    fn gauge_sum_spans_label_sets() {
        let mut s = Sample::new();
        s.gauge_with("level_bytes", &[("level", "0")], 10.0);
        s.gauge_with("level_bytes", &[("level", "1")], 30.0);
        assert_eq!(s.gauge_sum("level_bytes"), 40.0);
    }
}
