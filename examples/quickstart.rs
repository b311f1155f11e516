//! Quickstart: stand up a simulated disaggregated-memory deployment and use
//! dLSM as a key-value store.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dlsm_repro::dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
use dlsm_repro::memnode::{MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile};

fn main() {
    // 1. A fabric with the paper's calibrated EDR (100 Gb/s) cost model.
    let fabric = Fabric::new(NetworkProfile::edr_100g());

    // 2. A memory node: lots of (simulated remote) DRAM, a few worker cores
    //    for near-data compaction.
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 256 << 20,
            flush_zone: 96 << 20,
            compaction_workers: 4,
            dispatchers: 1,
        },
    );

    // 3. A compute node hosting the dLSM index.
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    let db = Db::open(ctx, mem, DbConfig::default()).expect("open dLSM");

    // 4. Writes go to the local MemTable; flushing and compaction happen in
    //    the background against remote memory.
    db.put(b"user:1001", b"alice").unwrap();
    db.put(b"user:1002", b"bob").unwrap();
    db.put(b"user:1003", b"carol").unwrap();
    db.delete(b"user:1002").unwrap();

    // 5. Reads: thread-local reader with its own queue pair.
    let mut reader = db.reader();
    assert_eq!(reader.get(b"user:1001").unwrap(), Some(b"alice".to_vec()));
    assert_eq!(reader.get(b"user:1002").unwrap(), None, "deleted");
    println!("point reads OK");

    // 6. Snapshots pin a consistent view across concurrent writes.
    let snap = db.snapshot();
    db.put(b"user:1001", b"alice-v2").unwrap();
    assert_eq!(reader.get_at(&snap, b"user:1001").unwrap(), Some(b"alice".to_vec()));
    assert_eq!(reader.get(b"user:1001").unwrap(), Some(b"alice-v2".to_vec()));
    println!("snapshot isolation OK");

    // 7. Range scans stream in key order; each table's readahead starts at
    //    4 KiB and doubles per refill up to multi-MB chunks.
    for item in reader.scan(b"user:").unwrap() {
        let (k, v) = item.unwrap();
        println!("  {} = {}", String::from_utf8_lossy(&k), String::from_utf8_lossy(&v));
    }

    // 8. Bulk-load some data to watch flush + near-data compaction happen.
    for i in 0..200_000u64 {
        let key = format!("{:016x}", i.wrapping_mul(0x9E3779B97F4A7C15));
        db.put(key.as_bytes(), &[0xAB; 64]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    println!("after bulk load: level shape {:?}", db.level_shape());
    println!("db stats: {}", db.stats());
    println!(
        "fabric traffic: {}",
        fabric.stats().snapshot()
    );

    db.shutdown();
    server.shutdown();
    println!("quickstart done");
}
