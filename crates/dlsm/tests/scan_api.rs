//! Scan API coverage: bounded ranges, empty databases, cross-source merges,
//! multi_get across formats and data paths, and the READ bytes a scan costs.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dlsm::{ComputeContext, DataPath, Db, DbConfig, MemNodeHandle};
use dlsm_memnode::{MemServer, MemServerConfig, TableFormat};
use rdma_sim::{Fabric, FaultHook, NetworkProfile, OpContext, Verb};

fn open(cfg: DbConfig) -> (MemServer, Db) {
    open_on(&Fabric::new(NetworkProfile::instant()), cfg)
}

fn open_on(fabric: &Arc<Fabric>, cfg: DbConfig) -> (MemServer, Db) {
    let server = MemServer::start(
        fabric,
        MemServerConfig {
            region_size: 128 << 20,
            flush_zone: 64 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(fabric);
    let mem = MemNodeHandle::from_server(&server);
    let db = Db::open(ctx, mem, cfg).unwrap();
    (server, db)
}

fn pad(i: u64) -> Vec<u8> {
    format!("{i:08}").into_bytes()
}

#[test]
fn bounded_scan_honors_both_ends() {
    let (server, db) = open(DbConfig::small());
    for i in 0..500u64 {
        db.put(&pad(i), format!("v{i}").as_bytes()).unwrap();
    }
    // Part flushed, part in the MemTable.
    db.force_flush().unwrap();
    for i in 500..600u64 {
        db.put(&pad(i), format!("v{i}").as_bytes()).unwrap();
    }
    let mut r = db.reader();
    let got: Vec<u64> = r
        .scan_range(&pad(120), &pad(540))
        .unwrap()
        .map(|item| {
            let (k, _) = item.unwrap();
            String::from_utf8(k).unwrap().parse().unwrap()
        })
        .collect();
    let want: Vec<u64> = (120..540).collect();
    assert_eq!(got, want);
    // Degenerate ranges.
    assert_eq!(r.scan_range(&pad(50), &pad(50)).unwrap().count(), 0);
    assert_eq!(r.scan_range(&pad(700), &pad(800)).unwrap().count(), 0);
    db.shutdown();
    server.shutdown();
}

#[test]
fn scan_on_empty_db_is_empty() {
    let (server, db) = open(DbConfig::small());
    let mut r = db.reader();
    assert_eq!(r.scan(b"").unwrap().count(), 0);
    assert_eq!(r.scan_range(b"a", b"z").unwrap().count(), 0);
    assert_eq!(r.get(b"anything").unwrap(), None);
    db.shutdown();
    server.shutdown();
}

#[test]
fn scan_merges_all_sources_without_duplicates() {
    let (server, db) = open(DbConfig::small());
    // Round 1 → compacted levels; round 2 → L0; round 3 → MemTable. Every
    // key is overwritten in each round, so the scan must yield exactly one
    // (the newest) version per key.
    for round in 0..3u64 {
        for i in 0..800u64 {
            db.put(&pad(i), format!("r{round}").as_bytes()).unwrap();
        }
        if round < 2 {
            db.force_flush().unwrap();
        }
        if round == 0 {
            db.wait_until_quiescent();
        }
    }
    let mut r = db.reader();
    let rows: Vec<(Vec<u8>, Vec<u8>)> = r.scan(b"").unwrap().map(|i| i.unwrap()).collect();
    assert_eq!(rows.len(), 800);
    assert!(rows.iter().all(|(_, v)| v == b"r2"), "stale versions leaked into the scan");
    db.shutdown();
    server.shutdown();
}

#[test]
fn multi_get_block_format_and_two_sided_paths() {
    for cfg in [
        DbConfig { format: TableFormat::Block(2048), ..DbConfig::small() },
        DbConfig { data_path: DataPath::TwoSidedRpc, ..DbConfig::small() },
    ] {
        let (server, db) = open(cfg);
        for i in 0..1_000u64 {
            db.put(&pad(i), format!("x{i}").as_bytes()).unwrap();
        }
        db.force_flush().unwrap();
        db.wait_until_quiescent();
        let mut r = db.reader();
        let keys: Vec<Vec<u8>> = (0..1_200u64).step_by(13).map(pad).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let got = r.multi_get(&refs).unwrap();
        for (k, g) in refs.iter().zip(&got) {
            assert_eq!(g, &r.get(k).unwrap(), "multi_get diverged on {k:?}");
        }
        db.shutdown();
        server.shutdown();
    }
}

#[test]
fn snapshot_scan_is_bounded_and_frozen() {
    let (server, db) = open(DbConfig::small());
    for i in 0..300u64 {
        db.put(&pad(i), b"old").unwrap();
    }
    let snap = db.snapshot();
    for i in 0..300u64 {
        db.put(&pad(i), b"new").unwrap();
    }
    let mut r = db.reader();
    let frozen: Vec<(Vec<u8>, Vec<u8>)> =
        r.scan_at(&snap, &pad(100)).unwrap().map(|i| i.unwrap()).collect();
    assert_eq!(frozen.len(), 200);
    assert!(frozen.iter().all(|(_, v)| v == b"old"));
    let live: Vec<(Vec<u8>, Vec<u8>)> =
        r.scan(&pad(100)).unwrap().map(|i| i.unwrap()).collect();
    assert!(live.iter().all(|(_, v)| v == b"new"));
    db.shutdown();
    server.shutdown();
}

/// Logs the payload size of every fabric READ.
#[derive(Default)]
struct ReadSizes(Mutex<Vec<usize>>);

impl FaultHook for ReadSizes {
    fn delay(&self, ctx: &OpContext) -> Duration {
        if ctx.verb == Verb::Read {
            self.0.lock().unwrap().push(ctx.bytes);
        }
        Duration::ZERO
    }
}

#[test]
fn short_scans_read_kilobytes_and_long_scans_reach_the_prefetch_cap() {
    const CAP: usize = 64 << 10;
    let fabric = Fabric::new(NetworkProfile::instant());
    let cfg = DbConfig {
        sstable_size: 1 << 20,
        l1_max_bytes: 8 << 20,
        l0_compaction_trigger: 8,
        scan_prefetch: CAP,
        ..DbConfig::small()
    };
    assert!(!cfg.cache.enabled(), "cache must be off");
    let (server, db) = open_on(&fabric, cfg);
    let value = [b'v'; 100];
    // Every key once, compacted into L1; then small flushes of overwrites,
    // one L0 table each, until at least three overlapping L0 tables stand
    // (a flush that trips the L0 trigger empties L0 and the loop refills it).
    for i in 0..16_000u64 {
        db.put(&pad(i * 7919 % 16_000), &value).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut round = 0u64;
    while db.level_shape()[0] < 3 {
        for i in 0..150u64 {
            db.put(&pad((round * 150 + i) * 7919 % 16_000), &value).unwrap();
        }
        db.force_flush().unwrap();
        db.wait_until_quiescent();
        round += 1;
    }
    let shape = db.level_shape();
    assert!(shape[1] >= 2, "want several L1 tables, got {shape:?}");

    let mut r = db.reader();
    let before = fabric.stats().snapshot();
    let rows = r.scan_range(&pad(8_000), &pad(8_032)).unwrap().count();
    let read = fabric.stats().snapshot().delta(&before);
    assert_eq!(rows, 32);
    assert!(
        read.bytes(Verb::Read) <= 64 << 10,
        "a 32-entry scan read {} B in {} READs",
        read.bytes(Verb::Read),
        read.ops(Verb::Read)
    );

    // A full scan still ramps up to READs of exactly the cap.
    let sizes = Arc::new(ReadSizes::default());
    fabric.set_fault_hook(Some(sizes.clone()));
    assert_eq!(r.scan(b"").unwrap().count(), 16_000);
    fabric.set_fault_hook(None);
    let sizes = sizes.0.lock().unwrap();
    assert!(sizes.iter().all(|&s| s <= CAP), "a READ exceeded the cap: {sizes:?}");
    // Once warm, cap-sized READs carry most of the bytes.
    let total: usize = sizes.iter().sum();
    let at_cap = sizes.iter().filter(|&&s| s == CAP).sum::<usize>();
    assert!(at_cap * 2 > total, "only {at_cap} of {total} B moved in cap-sized READs: {sizes:?}");
    drop(sizes);
    db.shutdown();
    server.shutdown();
}
