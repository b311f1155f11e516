//! Live gauge collectors for [`Db`] and [`ShardedDb`] (DESIGN.md §8b).
//!
//! Each shard registers one closure with a
//! [`dlsm_metrics::MetricsRegistry`]; every `gather()` reads the shard's
//! live state — MemTable occupancy and sequence-range headroom, flush-ring
//! depth, per-level shape and compaction scores, write-stall fractions,
//! live remote extents split by GC origin, flush-zone allocator
//! utilization, and GC backlog — alongside every [`crate::DbStats`]
//! counter and telemetry histogram.
//!
//! ## Sampling-consistency invariant
//!
//! The collector pins the current version (`Arc<Version>`) *before*
//! reading the flush allocator's `in_use()`. Pinned tables cannot be
//! freed while the `Arc` is held, and tables installed after the pin only
//! grow `in_use` — so the sampled compute-origin live bytes never exceed
//! the sampled allocator figure, even under concurrent writers, flushes
//! and GC. `dlsm/tests/metrics.rs` hammers this.

use std::sync::{Arc, Weak};
use std::time::Duration;

use dlsm_metrics::{MetricsRegistry, MetricsServer, Sample};

use crate::compaction::level_score;
use crate::db::{Db, Shared};
use crate::handle::Origin;
use crate::shard::ShardedDb;
use crate::telemetry::StallReason;

impl Db {
    /// Register this database's live-state collector with `reg` (no
    /// `shard` label; see [`ShardedDb::register_metrics`] for the sharded
    /// form). The collector holds only a weak reference — dropping the
    /// `Db` turns it into a no-op rather than keeping state alive.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        register_shard(Arc::downgrade(self.shared()), None, reg);
    }

    /// Serve `GET /metrics` for this database on `addr` (`"127.0.0.1:0"`
    /// binds an ephemeral port). `sample_period = Some(p)` serves a cached
    /// sample refreshed every `p`; `None` gathers live per scrape.
    pub fn serve_metrics(
        &self,
        addr: &str,
        sample_period: Option<Duration>,
    ) -> std::io::Result<MetricsServer> {
        let reg = MetricsRegistry::new();
        self.register_metrics(&reg);
        dlsm_metrics::serve(reg, addr, sample_period)
    }
}

impl ShardedDb {
    /// Register one collector per shard, each labeling its series with
    /// `shard="<index>"`.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        for (i, db) in self.shards().iter().enumerate() {
            register_shard(Arc::downgrade(db.shared()), Some(i), reg);
        }
    }

    /// Serve `GET /metrics` for all shards on one listener. See
    /// [`Db::serve_metrics`].
    pub fn serve_metrics(
        &self,
        addr: &str,
        sample_period: Option<Duration>,
    ) -> std::io::Result<MetricsServer> {
        let reg = MetricsRegistry::new();
        self.register_metrics(&reg);
        dlsm_metrics::serve(reg, addr, sample_period)
    }
}

fn register_shard(shared: Weak<Shared>, shard: Option<usize>, reg: &MetricsRegistry) {
    let shard_label = shard.map(|i| i.to_string());
    reg.register(move |out: &mut Sample| {
        let Some(shared) = shared.upgrade() else { return };
        let labels: Vec<(&'static str, &str)> = match &shard_label {
            Some(s) => vec![("shard", s.as_str())],
            None => Vec::new(),
        };
        collect_shard(&shared, &labels, out);
    });
}

fn origin_slot(origin: Origin) -> usize {
    match origin {
        Origin::Compute => 0,
        Origin::MemNode => 1,
        Origin::External => 2,
    }
}

const ORIGIN_NAMES: [&str; 3] = ["compute", "memnode", "external"];

fn collect_shard(shared: &Shared, labels: &[(&'static str, &str)], out: &mut Sample) {
    let live = shared.live_state();
    out.gauge_with("dlsm_memtable_bytes", labels, live.mem_bytes as f64);
    out.gauge_with("dlsm_memtable_limit_bytes", labels, live.mem_limit as f64);
    out.gauge_with("dlsm_memtable_entries", labels, live.mem_entries as f64);
    out.gauge_with("dlsm_seq_headroom", labels, live.seq_headroom as f64);
    out.gauge_with("dlsm_imm_queue_depth", labels, live.imm_count as f64);
    out.gauge_with("dlsm_flush_queue_depth", labels, live.flush_queue_len as f64);
    out.gauge_with("dlsm_uptime_seconds", labels, live.uptime.as_secs_f64());

    // Pin the version BEFORE reading the allocator: every table counted
    // below stays allocated until `version` drops, so compute-origin live
    // bytes ≤ flush-zone in_use holds for this sample.
    let version = shared.versions.current();
    for level in 0..version.level_count() {
        let lvl = level.to_string();
        let mut l = labels.to_vec();
        l.push(("level", lvl.as_str()));
        out.gauge_with("dlsm_level_files", &l, version.level(level).len() as f64);
        out.gauge_with("dlsm_level_bytes", &l, version.level_bytes(level) as f64);
        out.gauge_with("dlsm_level_score", &l, level_score(&version, &shared.cfg, level));
    }

    let mut live_bytes = [0u64; 3];
    let mut live_counts = [0u64; 3];
    for level in 0..version.level_count() {
        for table in version.level(level) {
            let slot = origin_slot(table.origin);
            // Same 8-byte-granule rounding as `Db::live_extents`, so the
            // figures reconcile with allocator accounting exactly.
            live_bytes[slot] += table.extent.len.div_ceil(8) * 8;
            live_counts[slot] += 1;
        }
    }
    for (i, name) in ORIGIN_NAMES.iter().enumerate() {
        let mut l = labels.to_vec();
        l.push(("origin", name));
        out.gauge_with("dlsm_live_extent_bytes", &l, live_bytes[i] as f64);
        out.gauge_with("dlsm_live_extents", &l, live_counts[i] as f64);
    }

    let alloc = shared.memnode.flush_alloc();
    out.gauge_with("dlsm_flush_zone_used_bytes", labels, alloc.in_use() as f64);
    out.gauge_with("dlsm_flush_zone_capacity_bytes", labels, alloc.capacity() as f64);
    out.gauge_with("dlsm_flush_zone_fragments", labels, alloc.fragments() as f64);
    drop(version); // held until after the in_use read — see module docs

    out.gauge_with("dlsm_gc_backlog_extents", labels, shared.gc.remote_pending_len() as f64);

    let uptime_micros = (live.uptime.as_micros().max(1)) as f64;
    for (reason, name) in
        [(StallReason::ImmQueueFull, "imm_queue"), (StallReason::L0Limit, "l0_limit")]
    {
        let (_events, micros) = shared.telemetry.stall_micros(reason);
        let mut l = labels.to_vec();
        l.push(("reason", name));
        // Can exceed 1.0 when several writers stall concurrently.
        out.gauge_with("dlsm_stall_fraction", &l, micros as f64 / uptime_micros);
    }

    let cache_snap = shared.cache.as_ref().map(|c| c.snapshot());
    if let Some(cs) = &cache_snap {
        out.gauge_with("dlsm_cache_hit_ratio", labels, cs.hit_ratio());
        out.gauge_with("dlsm_cache_resident_bytes", labels, cs.resident_bytes as f64);
        out.gauge_with("dlsm_cache_capacity_bytes", labels, cs.capacity_bytes as f64);
        out.gauge_with("dlsm_cache_bytes_saved", labels, cs.bytes_saved as f64);
        out.gauge_with("dlsm_cache_evictions", labels, cs.evictions as f64);
        out.gauge_with("dlsm_cache_invalidations", labels, cs.invalidations as f64);
    }

    out.push_telemetry("dlsm_", labels, &shared.counter_snapshot(cache_snap.as_ref()));
}
