//! Spans recorded by the benchmark around each call into the engine.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! operation share a trace id. A finished trace is folded into per-name
//! aggregates (count, total and self time, every duration for medians), and
//! the slowest trace of each root name is kept whole for the report. A
//! span's self time is its duration minus the time its children cover.

use std::time::Instant;

/// Every span name the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Setup,
    SetupMemnodeStart,
    SetupDbOpen,
    SetupPreload,
    SetupQuiesce,
    SetupWarmup,
    OpGet,
    OpPut,
    OpScan,
    OpScanOpen,
    OpScanNext,
}

impl Name {
    pub const ALL: [Name; 11] = [
        Name::Setup,
        Name::SetupMemnodeStart,
        Name::SetupDbOpen,
        Name::SetupPreload,
        Name::SetupQuiesce,
        Name::SetupWarmup,
        Name::OpGet,
        Name::OpPut,
        Name::OpScan,
        Name::OpScanOpen,
        Name::OpScanNext,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Setup => "setup",
            Name::SetupMemnodeStart => "setup.memnode_start",
            Name::SetupDbOpen => "setup.db_open",
            Name::SetupPreload => "setup.preload",
            Name::SetupQuiesce => "setup.quiesce",
            Name::SetupWarmup => "setup.warmup",
            Name::OpGet => "op.get",
            Name::OpPut => "op.put",
            Name::OpScan => "op.scan",
            Name::OpScanOpen => "op.scan_open",
            Name::OpScanNext => "op.scan_next",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Handle of an open span within the current trace.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// One recorded span. `parent` is `None` for the trace's root.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub name: Name,
    pub parent: Option<u32>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// Per-name totals over every folded trace.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durs_ns: Vec<u64>,
}

/// Records spans for one thread. With `enabled` false, `open`/`close` do
/// nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    trace: u64,
    open: Vec<Span>,
    pub agg: Vec<Agg>,
    /// Slowest whole trace per root name, by root duration.
    pub slowest: Vec<Option<Vec<Span>>>,
    /// Traces whose children were not nested inside their parent.
    pub malformed: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            trace: 0,
            open: Vec::with_capacity(64),
            agg: vec![Agg::default(); Name::ALL.len()],
            slowest: vec![None; Name::ALL.len()],
            malformed: 0,
        }
    }

    /// Start trace `id`; spans opened until [`Tracer::end_trace`] share it.
    #[inline]
    pub fn begin_trace(&mut self, id: u64) {
        if self.enabled {
            self.trace = id;
            self.open.clear();
        }
    }

    #[inline]
    pub fn open(&mut self, name: Name, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let now = Instant::now();
        self.open.push(Span {
            trace: self.trace,
            name,
            parent: parent.map(|p| p.0),
            start: now,
            end: now,
        });
        SpanId(self.open.len() as u32 - 1)
    }

    #[inline]
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.open[id.0 as usize].end = Instant::now();
        }
    }

    /// Fold the current trace into the aggregates.
    pub fn end_trace(&mut self) {
        if !self.enabled || self.open.is_empty() {
            return;
        }
        let mut covered = vec![0u64; self.open.len()];
        let mut nested = true;
        for s in &self.open {
            if let Some(p) = s.parent {
                let parent = &self.open[p as usize];
                nested &= parent.start <= s.start && s.end <= parent.end;
                covered[p as usize] += s.dur_ns();
            }
        }
        if !nested {
            self.malformed += 1;
        }
        for (s, cov) in self.open.iter().zip(&covered) {
            let a = &mut self.agg[s.name.idx()];
            let d = s.dur_ns();
            a.count += 1;
            a.total_ns += d;
            a.self_ns += d.saturating_sub(*cov);
            a.durs_ns.push(d);
        }
        let root = &self.open[0];
        let slot = &mut self.slowest[root.name.idx()];
        if slot.as_ref().is_none_or(|t| t[0].dur_ns() < root.dur_ns()) {
            *slot = Some(self.open.clone());
        }
        self.open.clear();
    }

    /// Fold another thread's aggregates into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (a, b) in self.agg.iter_mut().zip(other.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.durs_ns.extend(b.durs_ns);
        }
        for (a, b) in self.slowest.iter_mut().zip(other.slowest) {
            if let Some(b) = b {
                if a.as_ref().is_none_or(|t| t[0].dur_ns() < b[0].dur_ns()) {
                    *a = Some(b);
                }
            }
        }
        self.malformed += other.malformed;
    }

    pub fn get(&self, name: Name) -> &Agg {
        &self.agg[name.idx()]
    }

    /// Median duration of `name`, in nanoseconds (0 if never recorded).
    pub fn p50_ns(&mut self, name: Name) -> f64 {
        crate::stats::quantile(&mut self.agg[name.idx()].durs_ns, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut t = Tracer::new(true);
        t.begin_trace(1);
        let root = t.open(Name::OpScan, None);
        let a = t.open(Name::OpScanOpen, Some(root));
        t.close(a);
        for _ in 0..3 {
            let n = t.open(Name::OpScanNext, Some(root));
            t.close(n);
        }
        t.close(root);
        t.end_trace();
        let total_self: u64 = Name::ALL.iter().map(|&n| t.get(n).self_ns).sum();
        assert_eq!(total_self, t.get(Name::OpScan).total_ns);
        assert_eq!(t.get(Name::OpScanNext).count, 3);
        assert_eq!(t.malformed, 0);
        let slow = t.slowest[Name::OpScan.idx()].as_ref().unwrap();
        assert_eq!(slow.len(), 5);
        assert!(slow.iter().all(|s| s.trace == 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_trace(1);
        let r = t.open(Name::OpGet, None);
        t.close(r);
        t.end_trace();
        assert_eq!(t.get(Name::OpGet).count, 0);
    }
}
