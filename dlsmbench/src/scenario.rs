//! The fixed scenario: one simulated EDR fabric, one memory node, one dLSM
//! shard (λ = 1) holding 200k keys of 20 B + 400 B, configured at the
//! paper's parameter ratios (Sec. XI-B).

use std::collections::BTreeSet;
use std::sync::Arc;

use dlsm::{CacheConfig, ComputeContext, Db, DbConfig, DbError, MemNodeHandle};
use dlsm_memnode::{MemServer, MemServerConfig};
use rdma_sim::{Fabric, NetworkProfile};

use crate::gen::{KeySpace, DATA_BYTES, KEY_BYTES, VALUE_BYTES};
use crate::host;
use crate::spans::{Name, SpanId, Tracer};

/// What a workload's clients do; every op is closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Uniform point gets.
    UniformGet,
    /// Zipf-0.99 point gets.
    ZipfGet,
    /// Zipf-0.99, half updates and half gets.
    ZipfUpdateGet,
    /// Bounded scans of 1–32 entries from Zipf-0.99 start keys.
    ZipfScan,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    /// Client threads (clamped to the host's cores).
    pub clients: usize,
    /// Read-cache budget in bytes.
    pub cache_bytes: u64,
    /// Ops per warm-up window, over all clients.
    pub warm_window_ops: u64,
    pub why: &'static str,
}

/// Default cache: twice the data, so everything fits.
const CACHE_FITS: u64 = DATA_BYTES * 2;
/// Cold cache: 8 MiB, about a tenth of the data.
const CACHE_COLD: u64 = 8 << 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read-hot",
        mix: Mix::UniformGet,
        clients: 1,
        cache_bytes: CACHE_FITS,
        warm_window_ops: 50_000,
        why: "uniform gets with everything cached: the compute-side software path alone",
    },
    Workload {
        name: "read-cold",
        mix: Mix::ZipfGet,
        clients: 1,
        cache_bytes: CACHE_COLD,
        warm_window_ops: 50_000,
        why: "Zipf gets over a cache a tenth of the data: cache policy, RDMA reads, table locate",
    },
    Workload {
        name: "write-mix",
        mix: Mix::ZipfUpdateGet,
        clients: 2,
        cache_bytes: CACHE_FITS,
        warm_window_ops: 200_000,
        why:
            "Zipf 50% updates, 50% gets: inserts, flush, near-data compaction, stalls, invalidation",
    },
    Workload {
        name: "scan-short",
        mix: Mix::ZipfScan,
        clients: 1,
        cache_bytes: CACHE_FITS,
        warm_window_ops: 500,
        why: "short range scans: the merging iterator and the bulk-prefetch READ path",
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|w| w.name == name).copied()
}

/// The engine configuration at the paper's ratios: MemTable = SSTable =
/// data/24 (clamped to 2–64 MiB), L1 = 4 SSTables, level multiplier 10,
/// L0 compaction at 4 tables and write stop at 36, up to 16 immutable
/// MemTables. Flush threads and sub-compactions are clamped to the cores.
pub fn db_config(cache_bytes: u64) -> DbConfig {
    let table = (DATA_BYTES / 24).clamp(2 << 20, 64 << 20);
    let cores = host::nproc();
    DbConfig {
        memtable_size: table as usize,
        sstable_size: table,
        l1_max_bytes: table * 4,
        level_multiplier: 10,
        max_immutables: 16,
        flush_threads: 4.min(cores),
        compaction_subtasks: 12.min(cores),
        l0_compaction_trigger: 4,
        l0_stop_writes_trigger: Some(36),
        cache: CacheConfig {
            capacity_bytes: cache_bytes,
            extent_percent: 75,
            ..CacheConfig::default()
        },
        ..DbConfig::default()
    }
}

/// Memory-node sizing: a region of 18x the data (room for a full L0
/// backlog, every deeper level and the garbage an update-heavy mix leaves
/// before compaction reclaims it), two thirds of it the flush zone. The
/// region is zero-allocated, so untouched pages cost no memory.
pub fn server_config() -> MemServerConfig {
    let region = (DATA_BYTES * 18).next_multiple_of(1 << 20) as usize;
    MemServerConfig {
        region_size: region,
        flush_zone: region as u64 * 2 / 3,
        compaction_workers: host::nproc(),
        dispatchers: 1,
    }
}

/// A live scenario and the threads each part of it started.
pub struct Scenario {
    pub fabric: Arc<Fabric>,
    pub server: MemServer,
    pub db: Db,
    /// Threads that appeared during `MemServer::start`.
    pub memnode_tids: BTreeSet<u32>,
    /// Threads that appeared during `Db::open`.
    pub engine_tids: BTreeSet<u32>,
}

impl Scenario {
    /// Start the memory node and open the database under `parent`, noting
    /// which threads each call started.
    pub fn start(cache_bytes: u64, tr: &mut Tracer, parent: SpanId) -> Result<Scenario, DbError> {
        let fabric = Fabric::new(NetworkProfile::edr_100g());
        let before = host::tids();
        let sp = tr.open(Name::SetupMemnodeStart, Some(parent));
        let server = MemServer::start(&fabric, server_config());
        tr.close(sp);
        let after_server = host::tids();
        let sp = tr.open(Name::SetupDbOpen, Some(parent));
        let ctx = ComputeContext::new(&fabric);
        let db = Db::open(
            ctx,
            MemNodeHandle::from_server(&server),
            db_config(cache_bytes),
        );
        tr.close(sp);
        let after_db = host::tids();
        let db = match db {
            Ok(db) => db,
            Err(e) => {
                server.shutdown();
                return Err(e);
            }
        };
        Ok(Scenario {
            fabric,
            server,
            db,
            memnode_tids: after_server.difference(&before).copied().collect(),
            engine_tids: after_db.difference(&after_server).copied().collect(),
        })
    }

    /// Put every key once, version 0, in a seeded random order, then flush
    /// the last MemTable. The load is paced: after every MemTable's worth of
    /// puts the preload waits for quiescence, so flushes and compactions
    /// interleave the same way on every run and the loaded LSM shape does
    /// not depend on thread timing. Returns the number of failed puts.
    pub fn preload(&self, keys: &KeySpace, order: &[u32]) -> u64 {
        let per_memtable = db_config(0).memtable_size / (KEY_BYTES + VALUE_BYTES);
        let mut value = Vec::new();
        let mut failed = 0;
        for chunk in order.chunks(per_memtable) {
            for &idx in chunk {
                keys.value_into(idx, 0, &mut value);
                failed += self.db.put(&keys.key(idx), &value).is_err() as u64;
            }
            self.db.wait_until_quiescent();
        }
        failed + self.db.force_flush().is_err() as u64
    }

    /// Remote bytes of live extents per byte of live user data.
    pub fn space_amp(&self) -> f64 {
        let live: u64 = self.db.live_extents().iter().map(|&(_, _, len)| len).sum();
        live as f64 / DATA_BYTES as f64
    }

    pub fn shutdown(self) {
        self.db.shutdown();
        drop(self.db);
        self.server.shutdown();
    }
}
