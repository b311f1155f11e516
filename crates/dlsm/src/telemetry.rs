//! Compute-side telemetry: op-class latency histograms, read-path breakdown
//! spans, and RPC/RDMA accounting (DESIGN.md §8).
//!
//! One [`DbTelemetry`] lives in each [`crate::Db`]'s shared state. Recording
//! costs a few relaxed atomic RMWs (lock-free, wait-free on the hot path);
//! reading freezes everything into a [`TelemetrySnapshot`], which merges
//! across shards and diffs against an earlier snapshot for phase
//! measurement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dlsm_memnode::ClientNetStats;
use dlsm_telemetry::{Histogram, OpClass, OpHistograms, TelemetrySnapshot, VerbTraffic};

/// Lock-free telemetry shared by one database instance and every reader,
/// flush thread, and compaction coordinator it spawns.
#[derive(Debug, Default)]
pub struct DbTelemetry {
    /// Latency per op class (put, get hit/miss, scan-next, flush,
    /// compaction round-trip).
    pub ops: OpHistograms,
    /// Time a `get` spends probing MemTables (every get enters this phase).
    pub get_memtable: Histogram,
    /// Time a `get` spends probing overlapping L0 tables (only gets that
    /// miss the MemTables).
    pub get_l0: Histogram,
    /// Time a `get` spends probing levels ≥ 1.
    pub get_deep: Histogram,
    /// Byte-addressable table probes answered `NotFound` from compute-local
    /// metadata (bloom filter / index rejection) — zero RDMA reads issued.
    pub bloom_skips: AtomicU64,
    /// `get`s answered "absent" by a tombstone (as opposed to never finding
    /// any version of the key). Delete-heavy workloads watch this to verify
    /// that deletes actually shadow older values.
    pub get_tombstones: AtomicU64,
    /// RPC retry/reconnect totals aggregated over every client this
    /// database opens (flush, GC, compaction pool, two-sided readers).
    pub net: Arc<ClientNetStats>,
    /// Write stalls whose blocking condition was the immutable queue.
    pub stall_imm_events: AtomicU64,
    /// Microseconds writers spent stalled on a full immutable queue.
    pub stall_imm_micros: AtomicU64,
    /// Write stalls whose blocking condition was the L0 stop-writes limit.
    pub stall_l0_events: AtomicU64,
    /// Microseconds writers spent stalled on the L0 stop-writes limit.
    pub stall_l0_micros: AtomicU64,
}

/// Why a writer stalled in `wait_for_write_room` (the condition that was
/// failing when the stall began).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The immutable-MemTable queue is at `max_immutables` (flushes are
    /// behind).
    ImmQueueFull,
    /// The L0 table count reached `l0_stop_writes_trigger` (compaction is
    /// behind).
    L0Limit,
}

impl StallReason {
    /// The reason code carried as the `arg` of a `write_stall` trace span.
    pub fn trace_arg(self) -> u64 {
        match self {
            StallReason::ImmQueueFull => dlsm_trace::STALL_IMM_QUEUE,
            StallReason::L0Limit => dlsm_trace::STALL_L0_LIMIT,
        }
    }
}

impl DbTelemetry {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        // ORDERING: relaxed — monotonic telemetry counters; stats readers tolerate staleness.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one finished op, pinning the sample to the op's open trace
    /// (if any) so high-bucket latencies carry an exemplar trace id. Call
    /// while the op span is still open; with tracing off this is exactly
    /// `ops.record_elapsed`.
    #[inline]
    pub(crate) fn record_op(&self, class: OpClass, d: std::time::Duration) {
        // LOSSY: ~584 years of nanoseconds fit in u64.
        let nanos = d.as_nanos() as u64;
        match dlsm_trace::current_ctx() {
            Some(ctx) => self.ops.record_traced(class, nanos, ctx.trace_id),
            None => self.ops.record(class, nanos),
        }
    }

    /// Account one finished stall episode to its cause.
    pub(crate) fn note_stall(&self, reason: StallReason, micros: u64) {
        let (events, total) = match reason {
            StallReason::ImmQueueFull => (&self.stall_imm_events, &self.stall_imm_micros),
            StallReason::L0Limit => (&self.stall_l0_events, &self.stall_l0_micros),
        };
        // ORDERING: relaxed — event/total pair is read independently for averages; approximate by design.
        events.fetch_add(1, Ordering::Relaxed);
        total.fetch_add(micros, Ordering::Relaxed);
        // The journaled episode carries the exact micros added to the
        // counter above, so summed episode durations reconcile with the
        // stall_*_micros deltas (timeline_check's invariant).
        dlsm_timeline::post(dlsm_timeline::EngineEvent::StallEnd {
            reason: reason.trace_arg(),
            micros,
        });
    }

    /// Freeze op histograms, breakdown histograms and counters. RDMA verb
    /// traffic is attached by callers that own a channel or fabric (see
    /// [`verb_traffic`]) so shard merges never double-count the fabric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        s.ops = self.ops.snapshot().to_vec();
        for class in OpClass::ALL {
            let high = self.ops.exemplars_above_p99(class);
            if !high.is_empty() {
                s.set_exemplars(class.name(), high);
            }
        }
        s.set_breakdown("get_memtable", self.get_memtable.snapshot());
        s.set_breakdown("get_l0", self.get_l0.snapshot());
        s.set_breakdown("get_deep", self.get_deep.snapshot());
        // ORDERING: relaxed — stats-report reads of monotonic counters.
        s.set_counter("bloom_skips", self.bloom_skips.load(Ordering::Relaxed));
        // ORDERING: relaxed — stats-report read of a monotonic counter.
        s.set_counter("get_tombstones", self.get_tombstones.load(Ordering::Relaxed));
        let (retries, reconnects) = self.net.totals();
        s.set_counter("rpc_retries", retries);
        s.set_counter("rpc_reconnects", reconnects);
        // ORDERING: relaxed — stats-report reads of monotonic counters.
        s.set_counter("stall_imm_events", self.stall_imm_events.load(Ordering::Relaxed));
        s.set_counter("stall_imm_micros", self.stall_imm_micros.load(Ordering::Relaxed));
        s.set_counter("stall_l0_events", self.stall_l0_events.load(Ordering::Relaxed));
        // ORDERING: relaxed — stats-report reads of monotonic counters.
        s.set_counter("stall_l0_micros", self.stall_l0_micros.load(Ordering::Relaxed));
        s
    }

    /// `(events, micros)` stalled for one reason, from the live counters.
    pub fn stall_micros(&self, reason: StallReason) -> (u64, u64) {
        match reason {
            StallReason::ImmQueueFull => (
                // ORDERING: relaxed — stall gauge reads; tolerate staleness.
                self.stall_imm_events.load(Ordering::Relaxed),
                self.stall_imm_micros.load(Ordering::Relaxed),
            ),
            StallReason::L0Limit => (
                // ORDERING: relaxed — stall gauge reads; tolerate staleness.
                self.stall_l0_events.load(Ordering::Relaxed),
                self.stall_l0_micros.load(Ordering::Relaxed),
            ),
        }
    }
}

/// Convert an `rdma-sim` traffic snapshot into telemetry verb rows (verbs
/// with zero ops are omitted).
pub fn verb_traffic(stats: &rdma_sim::StatsSnapshot) -> Vec<VerbTraffic> {
    rdma_sim::Verb::ALL
        .iter()
        .filter(|&&v| stats.ops(v) != 0 || stats.bytes(v) != 0)
        .map(|&v| VerbTraffic {
            verb: v.name().to_string(),
            ops: stats.ops(v),
            bytes: stats.bytes(v),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_telemetry::OpClass;

    #[test]
    fn snapshot_carries_breakdowns_and_counters() {
        let t = DbTelemetry::default();
        t.ops.record(OpClass::GetHit, 1_000);
        t.get_memtable.record(200);
        DbTelemetry::bump(&t.bloom_skips);
        DbTelemetry::bump(&t.bloom_skips);
        DbTelemetry::bump(&t.get_tombstones);
        let s = t.snapshot();
        assert_eq!(s.op(OpClass::GetHit).count(), 1);
        assert_eq!(s.breakdown_hist("get_memtable").count(), 1);
        assert_eq!(s.counter("bloom_skips"), 2);
        assert_eq!(s.counter("get_tombstones"), 1);
        assert_eq!(s.counter("rpc_retries"), 0);
    }

    #[test]
    fn stall_attribution_by_reason() {
        let t = DbTelemetry::default();
        t.note_stall(StallReason::ImmQueueFull, 1_500);
        t.note_stall(StallReason::ImmQueueFull, 500);
        t.note_stall(StallReason::L0Limit, 40);
        assert_eq!(t.stall_micros(StallReason::ImmQueueFull), (2, 2_000));
        assert_eq!(t.stall_micros(StallReason::L0Limit), (1, 40));
        let s = t.snapshot();
        assert_eq!(s.counter("stall_imm_events"), 2);
        assert_eq!(s.counter("stall_imm_micros"), 2_000);
        assert_eq!(s.counter("stall_l0_events"), 1);
        assert_eq!(s.counter("stall_l0_micros"), 40);
        assert_eq!(StallReason::ImmQueueFull.trace_arg(), dlsm_trace::STALL_IMM_QUEUE);
        assert_eq!(StallReason::L0Limit.trace_arg(), dlsm_trace::STALL_L0_LIMIT);
    }

    #[test]
    fn verb_traffic_skips_idle_verbs() {
        use rdma_sim::Verb;
        let mut raw = rdma_sim::StatsSnapshot::default();
        raw.accumulate(Verb::Read, 64);
        raw.accumulate(Verb::Read, 64);
        raw.accumulate(Verb::Send, 32);
        let rows = verb_traffic(&raw);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.verb == "read" && r.ops == 2 && r.bytes == 128));
        assert!(!rows.iter().any(|r| r.verb == "cas"));
    }
}
