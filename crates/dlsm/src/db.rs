//! The dLSM database: write path, read path, background work, snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dlsm_memnode::RpcClient;
use rdma_sim::QueuePair;
use dlsm_sstable::byte_addr::{TableGet, TableMeta};
use dlsm_sstable::coding::{get_len_prefixed, get_u32, get_u64, put_len_prefixed, put_u32, put_u64};
use dlsm_sstable::key::{SeqNo, ValueType};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::compaction::{pick_compaction, run_local, run_near_data};
use crate::config::{DataPath, DbConfig, SwitchProtocol};
use crate::context::{ComputeContext, MemNodeHandle};
use crate::flush::{flush_memtable, FlushTransport};
use crate::handle::{Extent, GcSink, MetaKind, Origin, TableHandle};
use crate::memtable::{MemGet, MemTable};
use crate::remote::{finish_get, plan_get, table_get, Plan, ReadChannel, RecordFetch};
use crate::scan::DbScan;
use crate::stats::DbStats;
use crate::version::{VersionEdit, VersionSet};
use crate::{DbError, Result};

/// Expected bytes per entry used to derive the sequence-range width when the
/// config leaves it at 0 (paper workload: 20 B key + 400 B value + trailer).
const DEFAULT_ENTRY_BYTES: usize = 470;

pub(crate) struct Shared {
    pub(crate) ctx: Arc<ComputeContext>,
    pub(crate) memnode: Arc<MemNodeHandle>,
    pub(crate) cfg: DbConfig,
    /// Next sequence number to assign.
    seq: AtomicU64,
    current: RwLock<Arc<MemTable>>,
    /// Immutable MemTables awaiting flush, oldest first.
    immutables: Mutex<Vec<Arc<MemTable>>>,
    imm_count: AtomicUsize,
    flush_queue_len: AtomicUsize,
    switch_lock: Mutex<()>,
    /// Table/MemTable id generator (L0 ordering relies on flush ids).
    next_id: AtomicU64,
    pub(crate) versions: VersionSet,
    l0_count: AtomicUsize,
    stall_lock: Mutex<()>,
    stall_cv: Condvar,
    work_lock: Mutex<()>,
    work_cv: Condvar,
    flush_tx: Sender<Arc<MemTable>>,
    pub(crate) gc: Arc<GcSink>,
    pub(crate) stats: DbStats,
    pub(crate) telemetry: Arc<crate::telemetry::DbTelemetry>,
    stopping: AtomicBool,
    snapshots: Mutex<BTreeMap<SeqNo, usize>>,
    compaction_idle: AtomicBool,
    /// Global write mutex for `serialized_writes` (baseline emulation).
    write_serializer: Mutex<()>,
    /// In-order sequence publication (the visible snapshot horizon).
    publication: crate::publication::Publication,
    /// Compute-side read cache (blocks + hot extents); `None` when disabled.
    pub(crate) cache: Option<Arc<dlsm_cache::ReadCache>>,
    /// Next retirement order to assign (at switch time).
    retire_counter: AtomicU64,
    /// Retirement order whose flush should install next; flush workers
    /// serialize on this so L0 receives tables strictly in MemTable order
    /// even though serialization runs in parallel.
    install_turn: Mutex<u64>,
    install_cv: Condvar,
    /// When this shard was opened (uptime gauge).
    opened_at: Instant,
}

/// Point-in-time write-path state, read by the gauge sampler
/// (`crate::metrics`) and stats report without reaching into `Shared`'s
/// private fields from sibling modules.
pub(crate) struct LiveState {
    /// Bytes used in the current MemTable's arena.
    pub(crate) mem_bytes: u64,
    /// Configured MemTable rotation threshold.
    pub(crate) mem_limit: u64,
    /// Entries in the current MemTable.
    pub(crate) mem_entries: u64,
    /// Sequence numbers left before the current table's range is exhausted.
    pub(crate) seq_headroom: u64,
    /// Immutable MemTables awaiting flush.
    pub(crate) imm_count: usize,
    /// MemTables enqueued to flush workers.
    pub(crate) flush_queue_len: usize,
    /// Time since `Db::open`.
    pub(crate) uptime: Duration,
}

impl Shared {
    pub(crate) fn live_state(&self) -> LiveState {
        // ORDERING: relaxed — gauge snapshot; a slightly stale seq only skews the headroom gauge.
        let next_seq = self.seq.load(Ordering::Relaxed);
        let cur = self.current.read();
        LiveState {
            mem_bytes: cur.memory_usage() as u64,
            mem_limit: self.cfg.memtable_size as u64,
            mem_entries: cur.len() as u64,
            seq_headroom: cur.range.end.saturating_sub(next_seq.max(cur.range.start)),
            imm_count: self.imm_count.load(Ordering::Acquire),
            flush_queue_len: self.flush_queue_len.load(Ordering::Acquire),
            uptime: self.opened_at.elapsed(),
        }
    }

    fn new_memtable(&self, start: SeqNo) -> Arc<MemTable> {
        // ORDERING: relaxed — id generation needs uniqueness only, which the atomic RMW provides at any ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // The naive protocol has no range discipline: any sequence number
        // may land in whatever table is current, so the table must cover
        // the whole sequence space.
        let range = match self.cfg.switch_protocol {
            SwitchProtocol::SeqRange => start..start + self.cfg.seq_range_width,
            SwitchProtocol::NaiveDoubleChecked => 0..dlsm_sstable::key::MAX_SEQ,
        };
        Arc::new(MemTable::new(id, range, self.cfg.memtable_size, self.cfg.arena_capacity()))
    }

    /// Oldest sequence number any live snapshot may still read.
    fn smallest_snapshot(&self) -> SeqNo {
        self.snapshots
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.read_horizon())
    }

    /// The read horizon: the largest *published* sequence number. Every
    /// write at or below it is fully inserted (or permanently unused), so
    /// reads are monotone and snapshots are consistent even with concurrent
    /// out-of-order writers.
    fn read_horizon(&self) -> SeqNo {
        self.publication.horizon()
    }

    pub(crate) fn read_channel(&self) -> Result<ReadChannel> {
        match self.cfg.data_path {
            DataPath::OneSided => Ok(ReadChannel::one_sided(
                self.ctx.fabric().create_qp(self.ctx.node().id(), self.memnode.node_id())?,
            )),
            DataPath::TwoSidedRpc => Ok(ReadChannel::two_sided(
                RpcClient::new(
                    self.ctx.fabric(),
                    self.ctx.node(),
                    self.memnode.node_id(),
                    self.cfg.scan_prefetch + (64 << 10),
                )?
                .with_policy(self.cfg.rpc_retry)
                .with_net_stats(Arc::clone(&self.telemetry.net)),
            )),
        }
    }

    fn notify_stall(&self) {
        let _g = self.stall_lock.lock();
        self.stall_cv.notify_all();
    }

    fn notify_work(&self) {
        let _g = self.work_lock.lock();
        self.work_cv.notify_all();
    }

    /// Pin the MemTables (newest first) then the version — in that order, so
    /// a concurrent flush (which installs the version *before* removing the
    /// MemTable) can never hide a table from the reader.
    fn pin(&self) -> (Vec<Arc<MemTable>>, Arc<crate::version::Version>) {
        let mut mems = Vec::with_capacity(4);
        mems.push(Arc::clone(&self.current.read()));
        {
            let imms = self.immutables.lock();
            for m in imms.iter().rev() {
                mems.push(Arc::clone(m));
            }
        }
        let version = self.versions.current();
        (mems, version)
    }

    /// Switch because `seq` ran past the current range's end `expected_end`
    /// (the dLSM protocol, Sec. IV) — double-checked under the switch lock.
    fn switch_at(&self, expected_end: SeqNo) {
        let _g = self.switch_lock.lock();
        {
            let cur = self.current.read();
            if cur.range.end != expected_end {
                return; // somebody already switched
            }
        }
        self.do_switch(expected_end);
    }

    /// Switch because the table filled early (size trigger or arena-full).
    fn switch_full(&self, full_id: u64) {
        let _g = self.switch_lock.lock();
        let end = {
            let cur = self.current.read();
            if cur.id != full_id {
                return; // already switched past the full table
            }
            cur.range.end
        };
        self.do_switch(end);
    }

    /// Must hold `switch_lock`. Installs a new table whose range starts at
    /// `start` (= old range end, keeping ranges consecutive and disjoint)
    /// and bumps the sequence counter past it so stale writers re-fetch
    /// instead of targeting the retired table.
    fn do_switch(&self, start: SeqNo) {
        let _sp = dlsm_trace::span(dlsm_trace::Category::Db, "memtable_switch");
        let new = self.new_memtable(start);
        // Hold the immutables lock *across* the swap: a reader pins the
        // current table first and the immutable list second, so the retired
        // table must already be in the list by the time the list becomes
        // readable — otherwise there is a window where it is neither
        // current nor immutable and its data vanishes from reads.
        let mut imms = self.immutables.lock();
        let old = {
            let mut w = self.current.write();
            std::mem::replace(&mut *w, new)
        };
        // Jump the counter so no future fetch lands in the old range (only
        // meaningful for the range-disciplined protocol — naive tables all
        // cover the full sequence space).
        if self.cfg.switch_protocol == SwitchProtocol::SeqRange {
            let prev = self.seq.fetch_max(start, Ordering::AcqRel);
            if prev < start {
                // The skipped range [prev, start) was never handed to any
                // writer; publish it so the horizon can advance past it.
                self.publication.publish(prev, start - prev);
            }
        }
        DbStats::bump(&self.stats.switches);
        dlsm_timeline::post(dlsm_timeline::EngineEvent::MemtableSwitch { mem_id: old.id });
        if !old.is_empty() {
            let order = self.retire_counter.fetch_add(1, Ordering::AcqRel);
            old.flush_order.store(order, Ordering::Release);
            imms.push(Arc::clone(&old));
            drop(imms);
            self.imm_count.fetch_add(1, Ordering::Release);
            let queued = self.flush_queue_len.fetch_add(1, Ordering::Release) + 1;
            dlsm_trace::instant(dlsm_trace::Category::Flush, "flush_enqueue", queued as u64);
            let _ = self.flush_tx.send(old);
        }
    }

    /// Block until it is `order`'s turn to install a flush result, then run
    /// `install` and pass the turn on. Serializing installs (not the
    /// serialization work itself) preserves the LSM level invariant under
    /// parallel flush threads.
    fn install_in_order(&self, order: u64, install: impl FnOnce()) {
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Flush, "install", order);
        let mut turn = self.install_turn.lock();
        while *turn != order {
            self.install_cv.wait_for(&mut turn, Duration::from_millis(50));
            if self.stopping.load(Ordering::Acquire) && *turn != order {
                // Give up ordering during shutdown rather than deadlocking
                // on a worker that already exited.
                break;
            }
        }
        install();
        *turn = (*turn).max(order) + 1;
        self.install_cv.notify_all();
    }

    fn write_stall_check(&self) -> bool {
        let imm_ok = self.imm_count.load(Ordering::Acquire) < self.cfg.max_immutables;
        let l0_ok = self
            .cfg
            .l0_stop_writes_trigger
            .is_none_or(|t| self.l0_count.load(Ordering::Acquire) < t);
        imm_ok && l0_ok
    }

    /// Which condition is currently blocking writers. Checked once when a
    /// stall begins: the queue that was full at that moment is the cause we
    /// attribute the whole episode to, even if the other limit trips later.
    fn stall_reason(&self) -> crate::telemetry::StallReason {
        if self.imm_count.load(Ordering::Acquire) >= self.cfg.max_immutables {
            crate::telemetry::StallReason::ImmQueueFull
        } else {
            crate::telemetry::StallReason::L0Limit
        }
    }

    fn wait_for_write_room(&self) -> Result<()> {
        if self.write_stall_check() {
            return Ok(());
        }
        let reason = self.stall_reason();
        let _sp =
            dlsm_trace::span_arg(dlsm_trace::Category::Stall, "write_stall", reason.trace_arg());
        // The matching StallEnd is posted by `note_stall` below, from this
        // same thread, so episode folding pairs them by poster tid.
        dlsm_timeline::post(dlsm_timeline::EngineEvent::StallBegin { reason: reason.trace_arg() });
        let t0 = Instant::now();
        let mut guard = self.stall_lock.lock();
        while !self.write_stall_check() {
            if self.stopping.load(Ordering::Acquire) {
                return Err(DbError::ShuttingDown);
            }
            // HOTPATH: write stall is the intended backpressure point (paper
            // Sec. X-C); writers must park until flush/compaction frees room.
            // ROADMAP item 3 tracks making the wakeup edge-triggered.
            self.stall_cv.wait_for(&mut guard, Duration::from_millis(2));
        }
        drop(guard);
        let waited = t0.elapsed();
        self.telemetry.note_stall(reason, waited.as_micros() as u64);
        Ok(())
    }

    /// Apply a batch under one consecutive sequence block. All entries land
    /// in the same MemTable; if the block would straddle a range boundary
    /// (or the arena fills mid-batch) the whole batch re-fetches a fresh
    /// block — the abandoned prefix is shadowed by the retry's higher
    /// sequence numbers, so readers converge on the full batch.
    fn write_batch(&self, batch: &crate::batch::WriteBatch) -> Result<crate::batch::BatchCommit> {
        let n = batch.entries.len() as u64;
        if n == 0 {
            return Ok(crate::batch::BatchCommit { first_seq: 0, count: 0 });
        }
        if n >= self.cfg.seq_range_width.max(2) {
            return Err(DbError::InvalidArgument(format!(
                "batch of {n} entries exceeds the MemTable sequence-range width {}",
                self.cfg.seq_range_width
            )));
        }
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Db, "write_batch", n);
        let t0 = Instant::now();
        self.wait_for_write_room()?;
        let _serializer = self.cfg.serialized_writes.then(|| self.write_serializer.lock());
        'refetch: loop {
            let base = self.seq.fetch_add(n, Ordering::AcqRel);
            loop {
                let guard = self.current.read();
                if base < guard.range.start {
                    drop(guard);
                    DbStats::bump(&self.stats.reseqs);
                    self.publication.publish(base, n);
                    continue 'refetch;
                }
                if base + n > guard.range.end {
                    // The block must fit entirely inside one table.
                    let end = guard.range.end;
                    drop(guard);
                    self.switch_at(end);
                    if base >= end {
                        continue; // retry the same block against the new table
                    }
                    DbStats::bump(&self.stats.reseqs);
                    self.publication.publish(base, n);
                    continue 'refetch; // block straddles: take a fresh one
                }
                let mut failed = false;
                for (i, (vt, key, value)) in batch.entries.iter().enumerate() {
                    if guard.add(base + i as u64, *vt, key, value).is_err() {
                        failed = true;
                        break;
                    }
                }
                if failed {
                    // Arena full mid-batch: rotate and re-apply the whole
                    // batch (the inserted prefix is shadowed by the retry).
                    let id = guard.id;
                    drop(guard);
                    DbStats::bump(&self.stats.reseqs);
                    self.publication.publish(base, n);
                    self.switch_full(id);
                    continue 'refetch;
                }
                let rotate = guard.is_full().then(|| guard.id);
                drop(guard);
                self.publication.publish(base, n);
                if let Some(id) = rotate {
                    self.switch_full(id);
                }
                self.publication.wait_visible(base + n - 1);
                for (vt, _, _) in &batch.entries {
                    match vt {
                        ValueType::Value => DbStats::bump(&self.stats.puts),
                        ValueType::Deletion => DbStats::bump(&self.stats.deletes),
                    }
                }
                // One Put sample per committed batch (not per entry).
                self.telemetry.record_op(dlsm_telemetry::OpClass::Put, t0.elapsed());
                return Ok(crate::batch::BatchCommit { first_seq: base, count: n });
            }
        }
    }

    fn write(&self, user_key: &[u8], value: &[u8], vt: ValueType) -> Result<SeqNo> {
        let _sp = dlsm_trace::span(dlsm_trace::Category::Db, "put");
        let t0 = Instant::now();
        self.wait_for_write_room()?;
        let _serializer = self.cfg.serialized_writes.then(|| self.write_serializer.lock());
        let result = match self.cfg.switch_protocol {
            SwitchProtocol::SeqRange => self.write_seq_range(user_key, value, vt),
            SwitchProtocol::NaiveDoubleChecked => self.write_naive(user_key, value, vt),
        };
        if result.is_ok() {
            self.telemetry.record_op(dlsm_telemetry::OpClass::Put, t0.elapsed());
        }
        result
    }

    /// The dLSM write path (Sec. IV): the pre-assigned range decides which
    /// table a sequence number belongs to. In-range writers never lock;
    /// out-of-range writers race through double-checked locking to switch.
    fn write_seq_range(&self, user_key: &[u8], value: &[u8], vt: ValueType) -> Result<SeqNo> {
        'refetch: loop {
            let seq = self.seq.fetch_add(1, Ordering::AcqRel);
            loop {
                let guard = self.current.read();
                if seq < guard.range.start {
                    // The table for this seq was already retired: abandon the
                    // number (nothing was inserted under it) and take a new
                    // one. Gaps in the sequence space are harmless.
                    drop(guard);
                    DbStats::bump(&self.stats.reseqs);
                    self.publication.publish(seq, 1);
                    continue 'refetch;
                }
                if seq >= guard.range.end {
                    let end = guard.range.end;
                    drop(guard);
                    self.switch_at(end);
                    continue; // retry the same seq against the new table
                }
                // In range: insert while holding the read guard so a switch
                // (write lock) cannot complete mid-insert.
                match guard.add(seq, vt, user_key, value) {
                    Ok(()) => {
                        let rotate = guard.is_full().then(|| guard.id);
                        drop(guard);
                        self.publication.publish(seq, 1);
                        if let Some(id) = rotate {
                            self.switch_full(id);
                        }
                        // Read-your-writes: return once the write is visible.
                        self.publication.wait_visible(seq);
                        return Ok(seq);
                    }
                    Err(_full) => {
                        let id = guard.id;
                        drop(guard);
                        DbStats::bump(&self.stats.reseqs);
                        self.publication.publish(seq, 1);
                        self.switch_full(id);
                        continue 'refetch;
                    }
                }
            }
        }
    }

    /// The straw-man switch protocol the paper argues against (size check +
    /// double-checked locking). Retained for the ablation benchmark; it can
    /// place a newer version in an older table under concurrency.
    fn write_naive(&self, user_key: &[u8], value: &[u8], vt: ValueType) -> Result<SeqNo> {
        loop {
            let seq = self.seq.fetch_add(1, Ordering::AcqRel);
            let guard = self.current.read();
            // No range discipline: insert into whatever is current.
            match guard.add(seq, vt, user_key, value) {
                Ok(()) => {
                    let rotate = guard.is_full().then(|| guard.id);
                    drop(guard);
                    self.publication.publish(seq, 1);
                    if let Some(id) = rotate {
                        self.switch_full(id);
                    }
                    self.publication.wait_visible(seq);
                    return Ok(seq);
                }
                Err(_full) => {
                    let id = guard.id;
                    drop(guard);
                    self.publication.publish(seq, 1);
                    self.switch_full(id);
                }
            }
        }
    }
}

/// A dLSM database instance — one shard: one LSM-tree whose MemTables live
/// on this compute node and whose SSTables live on one memory node.
pub struct Db {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    down: AtomicBool,
}

impl Db {
    /// Open a database against `memnode`, spawning flush threads and the
    /// compaction coordinator.
    pub fn open(
        ctx: Arc<ComputeContext>,
        memnode: Arc<MemNodeHandle>,
        cfg: DbConfig,
    ) -> Result<Db> {
        let cfg = cfg.normalized(DEFAULT_ENTRY_BYTES);
        let (flush_tx, flush_rx) = unbounded();
        let gc = GcSink::new(Arc::clone(memnode.flush_alloc()));
        let shared = Arc::new(Shared {
            ctx,
            memnode,
            seq: AtomicU64::new(1),
            current: RwLock::new(Arc::new(MemTable::new(
                0,
                match cfg.switch_protocol {
                    SwitchProtocol::SeqRange => 1..1 + cfg.seq_range_width,
                    SwitchProtocol::NaiveDoubleChecked => 0..dlsm_sstable::key::MAX_SEQ,
                },
                cfg.memtable_size,
                cfg.arena_capacity(),
            ))),
            immutables: Mutex::new(Vec::new()),
            imm_count: AtomicUsize::new(0),
            flush_queue_len: AtomicUsize::new(0),
            switch_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            versions: VersionSet::new(cfg.max_levels),
            l0_count: AtomicUsize::new(0),
            stall_lock: Mutex::new(()),
            stall_cv: Condvar::new(),
            work_lock: Mutex::new(()),
            work_cv: Condvar::new(),
            flush_tx,
            gc,
            stats: DbStats::default(),
            telemetry: Arc::new(crate::telemetry::DbTelemetry::default()),
            stopping: AtomicBool::new(false),
            snapshots: Mutex::new(BTreeMap::new()),
            compaction_idle: AtomicBool::new(true),
            write_serializer: Mutex::new(()),
            publication: crate::publication::Publication::new(1),
            cache: dlsm_cache::ReadCache::new(cfg.cache.clone()),
            retire_counter: AtomicU64::new(0),
            install_turn: Mutex::new(0),
            install_cv: Condvar::new(),
            opened_at: Instant::now(),
            cfg,
        });

        let mut threads = Vec::new();
        for _ in 0..shared.cfg.flush_threads.max(1) {
            let s = Arc::clone(&shared);
            let rx = flush_rx.clone();
            threads.push(std::thread::spawn(move || flush_loop(s, rx)));
        }
        {
            let s = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || compaction_loop(s)));
        }
        Ok(Db { shared, threads: Mutex::new(threads), down: AtomicBool::new(false) })
    }

    /// Insert or overwrite `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<SeqNo> {
        let seq = self.shared.write(key, value, ValueType::Value)?;
        DbStats::bump(&self.shared.stats.puts);
        Ok(seq)
    }

    /// Apply `batch` atomically-in-order under one consecutive sequence
    /// block (paper Sec. II-C).
    pub fn write(&self, batch: &crate::batch::WriteBatch) -> Result<crate::batch::BatchCommit> {
        self.shared.write_batch(batch)
    }

    /// Delete `key` (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<SeqNo> {
        let seq = self.shared.write(key, b"", ValueType::Deletion)?;
        DbStats::bump(&self.shared.stats.deletes);
        Ok(seq)
    }

    /// The current sequence horizon (reads at this snapshot see every
    /// completed write).
    pub fn current_seq(&self) -> SeqNo {
        self.shared.read_horizon()
    }

    /// A thread-local read handle with its own queue pair (or RPC client,
    /// for the two-sided data path). Fails only if the fabric refuses a new
    /// connection to the memnode (e.g. during a partition window).
    pub fn try_reader(&self) -> Result<DbReader> {
        let channel = self.shared.read_channel()?;
        Ok(DbReader { shared: Arc::clone(&self.shared), channel })
    }

    /// Infallible convenience wrapper over [`Db::try_reader`] for benches,
    /// examples, and tests that run against a healthy fabric.
    pub fn reader(&self) -> DbReader {
        // PANIC-SAFE: convenience API; connection setup was already proven
        // possible by Db::open, and data-path code uses try_reader().
        self.try_reader().expect("reader channel")
    }

    /// Pin a consistent snapshot (Sec. V-B: the pinned metadata pins every
    /// SSTable it references).
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.current_seq();
        *self.shared.snapshots.lock().entry(seq).or_insert(0) += 1;
        let (mems, version) = self.shared.pin();
        Snapshot { seq, mems, version, shared: Arc::clone(&self.shared) }
    }

    /// Database counters.
    pub fn stats(&self) -> &DbStats {
        &self.shared.stats
    }

    /// Internal shared state, for sibling modules (`crate::metrics`,
    /// `crate::report`) that register collectors or build stats reports.
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Live telemetry (latency histograms, breakdown spans, RPC counters).
    pub fn telemetry(&self) -> &Arc<crate::telemetry::DbTelemetry> {
        &self.shared.telemetry
    }

    /// A frozen telemetry snapshot: op/breakdown histograms plus every
    /// [`DbStats`] counter. RDMA verb traffic is *not* included — attach it
    /// from the fabric (or a reader's channel) with
    /// [`crate::telemetry::verb_traffic`], so merging shard snapshots never
    /// double-counts shared fabric counters.
    pub fn telemetry_snapshot(&self) -> dlsm_telemetry::TelemetrySnapshot {
        let mut s = self.shared.telemetry.snapshot();
        for (name, v) in self.shared.stats.snapshot().named_counters() {
            s.set_counter(name, v);
        }
        if let Some(cs) = self.cache_stats() {
            for (name, v) in crate::named_cache_counters(&cs) {
                s.set_counter(name, v);
            }
        }
        s
    }

    /// Read-cache counters and occupancy, if the cache is enabled.
    pub fn cache_stats(&self) -> Option<dlsm_cache::CacheStatsSnapshot> {
        self.shared.cache.as_ref().map(|c| c.snapshot())
    }

    /// Tables per level of the current version.
    pub fn level_shape(&self) -> Vec<usize> {
        self.shared.versions.current().shape()
    }

    /// Bytes resident in the remote flush zone + compute-visible metadata.
    pub fn remote_flush_in_use(&self) -> u64 {
        self.shared.memnode.flush_alloc().in_use()
    }

    /// Every extent referenced by the current version, as
    /// `(origin, offset, len)` with `len` rounded up to the allocator's
    /// 8-byte granule. Chaos tests compare this against the allocators'
    /// `in_use()` figures to prove that retried flushes and compactions
    /// leak no remote memory.
    pub fn live_extents(&self) -> Vec<(Origin, u64, u64)> {
        let version = self.shared.versions.current();
        let mut out = Vec::new();
        for level in 0..version.level_count() {
            for table in version.level(level) {
                out.push((table.origin, table.extent.offset, table.extent.len.div_ceil(8) * 8));
            }
        }
        out
    }

    /// Force the current MemTable out and wait until every immutable
    /// MemTable has been flushed.
    pub fn force_flush(&self) -> Result<()> {
        {
            let cur = self.shared.current.read();
            if !cur.is_empty() {
                let id = cur.id;
                drop(cur);
                self.shared.switch_full(id);
            }
        }
        while self.shared.imm_count.load(Ordering::Acquire) > 0
            || self.shared.flush_queue_len.load(Ordering::Acquire) > 0
        {
            if self.shared.stopping.load(Ordering::Acquire) {
                return Err(DbError::ShuttingDown);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Block until no flush or compaction work remains (used by read-only
    /// benchmarks that start "after all background compaction finishes").
    pub fn wait_until_quiescent(&self) {
        loop {
            let flushed = self.shared.imm_count.load(Ordering::Acquire) == 0
                && self.shared.flush_queue_len.load(Ordering::Acquire) == 0;
            let idle = self.shared.compaction_idle.load(Ordering::Acquire);
            let mut ptr = Vec::new();
            let pending =
                pick_compaction(&self.shared.versions.current(), &self.shared.cfg, &mut ptr)
                    .is_some();
            if flushed && idle && !pending {
                return;
            }
            self.shared.notify_work();
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Serialize a transactionally-consistent checkpoint of the table layout
    /// (call [`Db::force_flush`] first to include MemTable contents). The
    /// checkpoint references remote extents in place; restoring yields
    /// handles that are never garbage-collected ([`Origin::External`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        let snap = self.snapshot();
        let mut out = Vec::new();
        put_u64(&mut out, snap.seq);
        put_u32(&mut out, snap.version.level_count() as u32);
        for level in 0..snap.version.level_count() {
            let tables = snap.version.level(level);
            put_u32(&mut out, tables.len() as u32);
            for t in tables {
                put_u64(&mut out, t.id);
                put_u64(&mut out, t.extent.offset);
                put_u64(&mut out, t.extent.len);
                put_len_prefixed(&mut out, &t.smallest);
                put_len_prefixed(&mut out, &t.largest);
                put_u64(&mut out, t.num_entries);
                match &t.meta {
                    MetaKind::ByteAddr(meta) => {
                        out.push(0);
                        put_len_prefixed(&mut out, &meta.encode());
                    }
                    MetaKind::Block(_, bs) => {
                        out.push(1);
                        put_u32(&mut out, *bs);
                    }
                }
            }
        }
        out
    }

    /// Rebuild a database from a checkpoint produced by [`Db::checkpoint`]
    /// against the same memory node. Restored tables are `External` (not
    /// GC'd), mirroring recovery from a command log + checkpoint (Sec. VIII).
    pub fn restore(
        ctx: Arc<ComputeContext>,
        memnode: Arc<MemNodeHandle>,
        cfg: DbConfig,
        checkpoint: &[u8],
    ) -> Result<Db> {
        let db = Db::open(ctx, memnode, cfg)?;
        let shared = &db.shared;
        let seq = get_u64(checkpoint, 0)?;
        let levels = get_u32(checkpoint, 8)? as usize;
        let mut off = 12;
        let mut edit = VersionEdit::default();
        let mut max_id = 0u64;
        for level in 0..levels.min(shared.cfg.max_levels) {
            let count = get_u32(checkpoint, off)? as usize;
            off += 4;
            for _ in 0..count {
                let id = get_u64(checkpoint, off)?;
                let offset = get_u64(checkpoint, off + 8)?;
                let len = get_u64(checkpoint, off + 16)?;
                off += 24;
                let (smallest, n) = get_len_prefixed(checkpoint, off)?;
                off += n;
                let (largest, n) = get_len_prefixed(checkpoint, off)?;
                off += n;
                let num_entries = get_u64(checkpoint, off)?;
                off += 8;
                let kind = checkpoint
                    .get(off)
                    .copied()
                    .ok_or_else(|| DbError::Sst("truncated checkpoint".into()))?;
                off += 1;
                let meta = match kind {
                    0 => {
                        let (bytes, n) = get_len_prefixed(checkpoint, off)?;
                        off += n;
                        let (meta, _) = TableMeta::decode(bytes)?;
                        MetaKind::ByteAddr(Arc::new(meta))
                    }
                    1 => {
                        let bs = get_u32(checkpoint, off)?;
                        off += 4;
                        let source = crate::remote::RemoteSource::new(
                            shared.read_channel()?,
                            shared.memnode.remote().addr(offset),
                            len,
                        );
                        let reader = dlsm_sstable::block::BlockTableReader::open(source)?;
                        MetaKind::Block(reader.meta_cache(), bs)
                    }
                    other => return Err(DbError::Sst(format!("bad meta kind {other}"))),
                };
                max_id = max_id.max(id);
                edit.add(
                    level,
                    TableHandle::new(
                        id,
                        shared.memnode.remote(),
                        Extent { offset, len },
                        Origin::External,
                        meta,
                        smallest.to_vec(),
                        largest.to_vec(),
                        num_entries,
                        None,
                    ),
                );
            }
        }
        let v = shared.versions.install(&edit);
        shared.l0_count.store(v.level(0).len(), Ordering::Release);
        let prev = shared.seq.fetch_max(seq, Ordering::AcqRel);
        if prev < seq {
            shared.publication.publish(prev, seq - prev);
        }
        shared.next_id.fetch_max(max_id + 1, Ordering::AcqRel);
        // The restored sequence horizon starts a fresh MemTable range.
        let start = shared.seq.load(Ordering::Acquire);
        {
            let _g = shared.switch_lock.lock();
            let new = shared.new_memtable(start);
            let mut w = shared.current.write();
            *w = new;
        }
        Ok(db)
    }

    /// Diagnostic: report, per pinned source, what it holds for `key` at the
    /// current horizon. For debugging visibility issues; not a public API.
    #[doc(hidden)]
    pub fn debug_lookup(&self, key: &[u8]) -> String {
        use std::fmt::Write as _;
        let seq = self.shared.read_horizon();
        let (mems, version) = self.shared.pin();
        let mut out = String::new();
        let _ = writeln!(out, "horizon={seq}");
        for m in &mems {
            let _ = writeln!(
                out,
                "  mem id={} range={:?} order={} len={} -> {:?}",
                m.id,
                m.range,
                m.flush_order.load(Ordering::Acquire),
                m.len(),
                m.get(key, seq)
            );
        }
        let channel = self.shared.read_channel().expect("debug channel");
        for (level, t) in version.probe_order(key) {
            let got = table_get(&channel, t, key, seq, self.shared.cache.as_ref());
            let _ = writeln!(
                out,
                "  L{level} table id={} [{:?}..{:?}] -> {:?}",
                t.id,
                String::from_utf8_lossy(&t.smallest[..t.smallest.len().min(12)]),
                String::from_utf8_lossy(&t.largest[..t.largest.len().min(12)]),
                got
            );
        }
        out
    }

    /// Stop background work, flush queued MemTables, drain remote GC, and
    /// join all threads. Idempotent.
    pub fn shutdown(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.notify_stall();
        self.shared.notify_work();
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        // Final remote-GC drain.
        if let Some(batch) = self.shared.gc.take_remote_batch(0) {
            if let Ok(client) = RpcClient::new(
                self.shared.ctx.fabric(),
                self.shared.ctx.node(),
                self.shared.memnode.node_id(),
                64 << 10,
            ) {
                let mut client = client
                    .with_policy(self.shared.cfg.rpc_retry)
                    .with_net_stats(Arc::clone(&self.shared.telemetry.net));
                let _ = client.free_batch(&batch, Duration::from_secs(5));
            }
        }
    }

}

impl Drop for Db {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A pinned, immutable view of the database at one sequence horizon.
pub struct Snapshot {
    seq: SeqNo,
    mems: Vec<Arc<MemTable>>,
    version: Arc<crate::version::Version>,
    shared: Arc<Shared>,
}

impl Snapshot {
    /// The snapshot's sequence horizon.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    pub(crate) fn parts(&self) -> (&[Arc<MemTable>], &Arc<crate::version::Version>) {
        (&self.mems, &self.version)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.shared.snapshots.lock();
        if let Some(n) = snaps.get_mut(&self.seq) {
            *n -= 1;
            if *n == 0 {
                snaps.remove(&self.seq);
            }
        }
    }
}

/// A thread-local read handle: owns one queue pair shared by all table
/// readers/iterators it creates (Sec. X-B: thread-local queue pairs).
pub struct DbReader {
    shared: Arc<Shared>,
    channel: ReadChannel,
}

impl DbReader {
    /// Lifetime RDMA traffic carried by this reader's channel. Deltas
    /// around a single `get` attribute its exact fetch/byte cost — e.g.
    /// one point get on a byte-addressable table costs exactly one RDMA
    /// READ (Sec. VI).
    pub fn traffic(&self) -> rdma_sim::StatsSnapshot {
        self.channel.traffic()
    }

    /// Read the newest visible version of `key` at the current horizon.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let seq = self.shared.read_horizon();
        let (mems, version) = self.shared.pin();
        self.get_pinned(key, seq, &mems, &version)
    }

    /// Read at a pinned snapshot.
    pub fn get_at(&mut self, snap: &Snapshot, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let (mems, version) = snap.parts();
        self.get_pinned(key, snap.seq(), mems, version)
    }

    fn get_pinned(
        &mut self,
        key: &[u8],
        seq: SeqNo,
        mems: &[Arc<MemTable>],
        version: &crate::version::Version,
    ) -> Result<Option<Vec<u8>>> {
        DbStats::bump(&self.shared.stats.gets);
        let _sp = dlsm_trace::span(dlsm_trace::Category::Db, "get");
        let t0 = Instant::now();
        let outcome = self.get_phases(key, seq, mems, version, t0);
        if let Ok(found) = &outcome {
            let class = if found.is_some() {
                DbStats::bump(&self.shared.stats.get_hits);
                dlsm_telemetry::OpClass::GetHit
            } else {
                dlsm_telemetry::OpClass::GetMiss
            };
            self.shared.telemetry.record_op(class, t0.elapsed());
        }
        outcome
    }

    /// The probe sequence of a point get, with per-phase breakdown spans
    /// (MemTables / L0 / deeper levels) recorded into the telemetry.
    fn get_phases(
        &mut self,
        key: &[u8],
        seq: SeqNo,
        mems: &[Arc<MemTable>],
        version: &crate::version::Version,
        t0: Instant,
    ) -> Result<Option<Vec<u8>>> {
        let tel = Arc::clone(&self.shared.telemetry);
        // MemTables, newest first. The first table holding any visible
        // version wins — correct because table seq ranges are disjoint and
        // ordered (Sec. IV).
        let sp_mem = dlsm_trace::span(dlsm_trace::Category::Db, "get_memtable");
        for mem in mems {
            match mem.get(key, seq) {
                MemGet::Found(v) => {
                    tel.get_memtable.record_elapsed(t0.elapsed());
                    return Ok(Some(v));
                }
                MemGet::Deleted => {
                    tel.get_memtable.record_elapsed(t0.elapsed());
                    crate::telemetry::DbTelemetry::bump(&tel.get_tombstones);
                    return Ok(None);
                }
                MemGet::NotFound => {}
            }
        }
        tel.get_memtable.record_elapsed(t0.elapsed());
        drop(sp_mem);
        // L0: overlapping tables, newest first.
        let sp_l0 = dlsm_trace::span(dlsm_trace::Category::Db, "get_l0");
        let t_l0 = Instant::now();
        for t in version.l0_for_key(key) {
            match self.probe_table(t, key, seq)? {
                TableGet::NotFound => {}
                got => {
                    tel.get_l0.record_elapsed(t_l0.elapsed());
                    return Ok(self.answer(got));
                }
            }
        }
        tel.get_l0.record_elapsed(t_l0.elapsed());
        drop(sp_l0);
        // Deeper levels: at most one candidate table per level.
        let _sp_deep = dlsm_trace::span(dlsm_trace::Category::Db, "get_deep");
        let t_deep = Instant::now();
        for (_, t) in version.deep_for_key(key) {
            match self.probe_table(t, key, seq)? {
                TableGet::NotFound => {}
                got => {
                    tel.get_deep.record_elapsed(t_deep.elapsed());
                    return Ok(self.answer(got));
                }
            }
        }
        tel.get_deep.record_elapsed(t_deep.elapsed());
        Ok(None)
    }

    /// The value a table's `Found` or `Deleted` answer gives a get,
    /// counting tombstones.
    fn answer(&self, got: TableGet) -> Option<Vec<u8>> {
        if let TableGet::Found(v) = got {
            return Some(v);
        }
        crate::telemetry::DbTelemetry::bump(&self.shared.telemetry.get_tombstones);
        None
    }

    /// One table probe, accounting bloom/index skips (byte-addressable
    /// `NotFound` never fetches a record — Sec. VI).
    fn probe_table(&mut self, t: &TableHandle, key: &[u8], seq: SeqNo) -> Result<TableGet> {
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Db, "probe_table", t.id);
        let got = table_get(&self.channel, t, key, seq, self.shared.cache.as_ref())?;
        if got == TableGet::NotFound && matches!(t.meta, MetaKind::ByteAddr(_)) {
            crate::telemetry::DbTelemetry::bump(&self.shared.telemetry.bloom_skips);
        }
        Ok(got)
    }

    /// Batched point lookups: the same probe as [`DbReader::get`], with the
    /// record READs of all keys posted together as asynchronous RDMA reads
    /// on the reader's queue pair and polled together, amortizing
    /// per-operation latency — the read-side counterpart of the
    /// asynchronous flush pipeline (Sec. X-C). Results are positionally
    /// aligned with `keys`.
    pub fn multi_get(&mut self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        let seq = self.shared.read_horizon();
        let (mems, version) = self.shared.pin();
        let cache = self.shared.cache.as_ref();
        DbStats::add(&self.shared.stats.gets, keys.len() as u64);
        let mut out: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        // Plan every key: MemTables, then its tables in probe order until
        // one answers locally or names its record. A key READs at most one
        // record: the first located one is its newest visible version.
        let mut wave: Vec<(usize, RecordFetch<'_>)> = Vec::new();
        'keys: for (i, key) in keys.iter().enumerate() {
            for mem in &mems {
                match mem.get(key, seq) {
                    MemGet::Found(v) => out[i] = Some(v),
                    MemGet::Deleted => {}
                    MemGet::NotFound => continue,
                }
                continue 'keys;
            }
            for (_, t) in version.probe_order(key) {
                match plan_get(&self.channel, t, key, seq, cache)? {
                    Plan::Done(TableGet::NotFound) => continue,
                    Plan::Done(TableGet::Found(v)) => out[i] = Some(v),
                    Plan::Done(TableGet::Deleted) => {}
                    Plan::Fetch(fetch) => wave.push((i, fetch)),
                }
                continue 'keys;
            }
        }
        if let ReadChannel::OneSided(qp) = &self.channel {
            // Post in bounded batches so the send queue never overflows.
            const BATCH: usize = 128;
            let mut qp = qp.borrow_mut();
            for chunk in wave.chunks_mut(BATCH) {
                for (wi, (_, fetch)) in chunk.iter_mut().enumerate() {
                    fetch.post(&mut qp, wi as u64)?;
                }
                for _ in 0..chunk.len() {
                    qp.poll_one_blocking(Duration::from_secs(10))?;
                }
            }
        } else {
            // Two-sided channel: no posting interface; fetch serially.
            for (_, fetch) in wave.iter_mut() {
                fetch.read(&self.channel)?;
            }
        }
        for (i, fetch) in wave {
            if let TableGet::Found(v) = finish_get(fetch, cache)? {
                out[i] = Some(v);
            }
        }
        let hits = out.iter().filter(|v| v.is_some()).count();
        DbStats::add(&self.shared.stats.get_hits, hits as u64);
        Ok(out)
    }

    /// Range scan from `start` (inclusive) at the current horizon, with
    /// doubling per-table readahead up to `scan_prefetch` (Sec. VI).
    pub fn scan(&mut self, start: &[u8]) -> Result<DbScan> {
        let seq = self.shared.read_horizon();
        let (mems, version) = self.shared.pin();
        DbScan::build(
            &self.shared,
            &self.channel,
            mems,
            version,
            seq,
            start,
            self.shared.cfg.scan_prefetch,
        )
    }

    /// Bounded range scan: user keys in `[start, end)` at the current
    /// horizon.
    pub fn scan_range(&mut self, start: &[u8], end: &[u8]) -> Result<DbScan> {
        Ok(self.scan(start)?.until(end))
    }

    /// Range scan at a pinned snapshot.
    pub fn scan_at(&mut self, snap: &Snapshot, start: &[u8]) -> Result<DbScan> {
        let (mems, version) = snap.parts();
        DbScan::build(
            &self.shared,
            &self.channel,
            mems.to_vec(),
            Arc::clone(version),
            snap.seq(),
            start,
            self.shared.cfg.scan_prefetch,
        )
    }
}

fn flush_loop(shared: Arc<Shared>, rx: Receiver<Arc<MemTable>>) {
    // Profiler task root: samples of this thread — including idle recv
    // waits between flushes — attribute to the flush worker.
    let _task = dlsm_trace::profile_span("flush_worker");
    // Owned connection, built exactly once: no Option, no expect() in the
    // flush loop (dlsm_analyze PANICPATH hygiene).
    enum FlushConn {
        TwoSided(Box<RpcClient>),
        OneSided(QueuePair),
    }
    let two_sided = shared.cfg.data_path == DataPath::TwoSidedRpc;
    let mut conn = if two_sided {
        match RpcClient::new(
            shared.ctx.fabric(),
            shared.ctx.node(),
            shared.memnode.node_id(),
            shared.cfg.flush_buf_size + (64 << 10),
        ) {
            Ok(c) => FlushConn::TwoSided(Box::new(
                c.with_policy(shared.cfg.rpc_retry)
                    .with_net_stats(Arc::clone(&shared.telemetry.net)),
            )),
            Err(_) => return,
        }
    } else {
        match shared.ctx.fabric().create_qp(shared.ctx.node().id(), shared.memnode.node_id()) {
            Ok(qp) => FlushConn::OneSided(qp),
            Err(_) => return,
        }
    };
    loop {
        let mem = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(m) => m,
            Err(_) => {
                if shared.stopping.load(Ordering::Acquire) && rx.is_empty() {
                    return;
                }
                continue;
            }
        };
        // Mirror this table into the extent cache if an image of its size
        // would fit a shard (the cache's own policy evicts colder images).
        let want_local = shared
            .cache
            .as_ref()
            .is_some_and(|c| c.wants_flush_image(mem.memory_usage() as u64));
        // Retry on remote-memory pressure or transient RPC trouble: GC or
        // compaction may free space, and a starved dispatcher recovers.
        let mut attempts = 0u32;
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Flush, "flush", mem.id);
        dlsm_timeline::post(dlsm_timeline::EngineEvent::FlushStart { mem_id: mem.id });
        let out = loop {
            attempts += 1;
            let t_flush = Instant::now();
            let mut transport = match &mut conn {
                FlushConn::TwoSided(rpc) => FlushTransport::TwoSided(rpc),
                FlushConn::OneSided(qp) => FlushTransport::OneSided(qp),
            };
            match flush_memtable(
                &mem,
                &shared.memnode,
                &mut transport,
                shared.cfg.format,
                shared.cfg.bits_per_key,
                shared.cfg.flush_buf_size,
                shared.cfg.flush_buf_count,
                want_local,
                shared.cfg.flush_poll_timeout,
            ) {
                Ok(out) => {
                    shared.telemetry.record_op(dlsm_telemetry::OpClass::Flush, t_flush.elapsed());
                    break Some(out);
                }
                Err(DbError::OutOfRemoteMemory { .. }) => {
                    if shared.stopping.load(Ordering::Acquire) {
                        break None;
                    }
                    shared.notify_work(); // nudge compaction/GC
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    if shared.stopping.load(Ordering::Acquire) {
                        break None;
                    }
                    if attempts.is_multiple_of(8) || attempts <= 2 {
                        eprintln!(
                            "dlsm: flush of memtable {} failed (attempt {attempts}): {e}; retrying",
                            mem.id
                        );
                    }
                    // Losing a MemTable is never acceptable while running;
                    // transient fabric/RPC trouble clears, so keep trying
                    // with backoff.
                    std::thread::sleep(Duration::from_millis((10 * attempts as u64).min(500)));
                }
            }
        };
        if let Some(out) = &out {
            DbStats::add(&shared.stats.flush_bytes, out.extent.len);
            DbStats::add(&shared.stats.flush_tombstones, mem.tombstones());
        }
        dlsm_timeline::post(dlsm_timeline::EngineEvent::FlushEnd {
            mem_id: mem.id,
            bytes: out.as_ref().map(|o| o.extent.len).unwrap_or(0),
        });
        // Serialization ran in parallel; installation happens strictly in
        // MemTable retirement order (see `install_in_order`).
        let order = mem.flush_order.load(Ordering::Acquire);
        shared.install_in_order(order, || {
            if let Some(mut out) = out {
                let handle = TableHandle::new(
                    mem.id,
                    shared.memnode.remote(),
                    out.extent,
                    Origin::Compute,
                    out.meta,
                    std::mem::take(&mut out.smallest),
                    std::mem::take(&mut out.largest),
                    out.num_entries,
                    Some(Arc::clone(&shared.gc)),
                );
                if let (Some(c), Some(image)) = (&shared.cache, out.local_image.take()) {
                    // Flush-time admission: the freshest L0 table is by
                    // definition hot (every read consults it first).
                    c.extent_admit(handle.id, Arc::new(image));
                }
                let mut edit = VersionEdit::default();
                edit.add(0, handle);
                let v = shared.versions.install(&edit);
                shared.l0_count.store(v.level(0).len(), Ordering::Release);
                DbStats::bump(&shared.stats.flushes);
            }
            // Install first, then retire the MemTable (readers pin mems
            // before the version, so the data is never invisible).
            let mut imms = shared.immutables.lock();
            imms.retain(|m| m.id != mem.id);
            shared.imm_count.store(imms.len(), Ordering::Release);
        });
        shared.flush_queue_len.fetch_sub(1, Ordering::AcqRel);
        shared.notify_stall();
        shared.notify_work();
    }
}

fn compaction_loop(shared: Arc<Shared>) {
    // Profiler task root (see flush_loop).
    let _task = dlsm_trace::profile_span("compaction_worker");
    let mut compact_pointer: Vec<Vec<u8>> = Vec::new();
    let mut gc_client: Option<RpcClient> = None;
    let mut consecutive_failures = 0u32;
    // Reusable per-subtask RPC clients (registered buffers live as long as
    // the coordinator; Sec. X-B).
    let mut rpc_pool: Vec<RpcClient> = Vec::new();
    loop {
        // Batched remote GC (Sec. V-B): everything that accumulated since
        // the last cycle ships as one FreeBatch RPC. Draining every cycle
        // (rather than above a count threshold) keeps the compaction zone
        // from filling with dead tables while compactions are in flight.
        if let Some(batch) = shared.gc.take_remote_batch(1) {
            if gc_client.is_none() {
                gc_client = RpcClient::new(
                    shared.ctx.fabric(),
                    shared.ctx.node(),
                    shared.memnode.node_id(),
                    256 << 10,
                )
                .map(|c| {
                    c.with_policy(shared.cfg.rpc_retry)
                        .with_net_stats(Arc::clone(&shared.telemetry.net))
                })
                .ok();
            }
            if let Some(c) = gc_client.as_mut() {
                if c.free_batch(&batch, Duration::from_secs(10)).is_ok() {
                    DbStats::bump(&shared.stats.gc_batches);
                    DbStats::add(&shared.stats.gc_extents, batch.len() as u64);
                }
            }
        }

        if shared.stopping.load(Ordering::Acquire) {
            return;
        }

        let version = shared.versions.current();
        let job = pick_compaction(&version, &shared.cfg, &mut compact_pointer);
        let Some(job) = job else {
            shared.compaction_idle.store(true, Ordering::Release);
            let mut g = shared.work_lock.lock();
            shared.work_cv.wait_for(&mut g, Duration::from_millis(10));
            continue;
        };
        shared.compaction_idle.store(false, Ordering::Release);

        let smallest_snapshot = shared.smallest_snapshot();
        // ORDERING: relaxed — id generation; uniqueness only.
        let next_id = || shared.next_id.fetch_add(1, Ordering::Relaxed);
        let t_compact = Instant::now();
        let _sp =
            dlsm_trace::span_arg(dlsm_trace::Category::Compact, "compaction", job.level as u64);
        dlsm_timeline::post(dlsm_timeline::EngineEvent::CompactionStart {
            level: job.level as u64,
        });
        let result = if shared.cfg.near_data_compaction {
            run_near_data(
                &job,
                &shared.ctx,
                &shared.memnode,
                &shared.cfg,
                smallest_snapshot,
                &shared.gc,
                &next_id,
                &mut rpc_pool,
                &shared.telemetry.net,
            )
        } else {
            run_local(
                &job,
                &shared.ctx,
                &shared.memnode,
                &shared.cfg,
                smallest_snapshot,
                &shared.gc,
                &next_id,
                &shared.telemetry.net,
            )
        };
        match result {
            Ok(outcome) => {
                shared.telemetry.record_op(dlsm_telemetry::OpClass::CompactRpc, t_compact.elapsed());
                consecutive_failures = 0;
                let mut edit = VersionEdit::default();
                edit.delete(job.level, job.inputs_lo.iter().map(|t| t.id).collect());
                edit.delete(job.level + 1, job.inputs_hi.iter().map(|t| t.id).collect());
                let subtasks = shared.cfg.compaction_subtasks.max(1) as u64;
                for t in &outcome.outputs {
                    edit.add(job.level + 1, Arc::clone(t));
                }
                let v = shared.versions.install(&edit);
                if let Some(c) = &shared.cache {
                    // Version-aware invalidation: the inputs this edit
                    // obsoleted are purged and their ids fenced *at install*
                    // — before GC can recycle the extents — so no cached
                    // block can outlive (or be refilled for) a dead table.
                    // Pinned snapshots still read those tables correctly:
                    // they fall back to the fabric, and the ids are never
                    // reused.
                    for t in job.inputs_lo.iter().chain(job.inputs_hi.iter()) {
                        c.invalidate_table(t.id);
                        dlsm_timeline::post(dlsm_timeline::EngineEvent::CacheInvalidate {
                            table_id: t.id,
                        });
                    }
                }
                shared.l0_count.store(v.level(0).len(), Ordering::Release);
                DbStats::bump(&shared.stats.compactions);
                DbStats::add(&shared.stats.compaction_subtasks, subtasks);
                DbStats::add(&shared.stats.compaction_records_in, outcome.records_in);
                DbStats::add(&shared.stats.compaction_records_out, outcome.records_out);
                DbStats::add(
                    &shared.stats.compaction_bytes_out,
                    outcome.outputs.iter().map(|t| t.extent.len).sum::<u64>(),
                );
                dlsm_timeline::post(dlsm_timeline::EngineEvent::CompactionEnd {
                    level: job.level as u64,
                    bytes: outcome.outputs.iter().map(|t| t.extent.len).sum::<u64>(),
                });
                shared.notify_stall();
            }
            Err(e) => {
                // Close the interval even on failure so episode overlap
                // counting doesn't see a compaction running forever.
                dlsm_timeline::post(dlsm_timeline::EngineEvent::CompactionEnd {
                    level: job.level as u64,
                    bytes: 0,
                });
                consecutive_failures += 1;
                if consecutive_failures <= 3 || consecutive_failures.is_power_of_two() {
                    let alloc = shared.memnode.flush_alloc();
                    eprintln!(
                        "dlsm: compaction at L{} failed ({} in a row): {e} \
                         [flush zone {}/{} MiB in use, {} fragments; shape {:?}]",
                        job.level,
                        consecutive_failures,
                        alloc.in_use() >> 20,
                        alloc.capacity() >> 20,
                        alloc.fragments(),
                        shared.versions.current().shape(),
                    );
                }
                // Back off: out-of-memory only clears once GC frees space.
                let backoff = (20 * consecutive_failures as u64).min(1_000);
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
}
