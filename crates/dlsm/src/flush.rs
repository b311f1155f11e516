//! Asynchronous MemTable flushing (paper Sec. X-C, Fig. 6).
//!
//! The flush thread serializes MemTable records *directly* into
//! RDMA-registered buffers (no block wrapping, no staging copy — the
//! byte-addressable write win of Sec. VI). When a buffer fills, an
//! asynchronous WRITE is posted and serialization continues into the next
//! buffer without waiting. In-flight buffers form a FIFO queue mirroring the
//! queue pair's send queue: every time a new request is posted, ready
//! completions are polled and the corresponding *head* buffers are recycled
//! (RDMA completes in order within a queue pair, so completion k always
//! refers to the k-th oldest buffer).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use dlsm_sstable::byte_addr::{ByteAddrBuilder, TableSink};
use dlsm_sstable::block::BlockTableBuilder;
use dlsm_memnode::TableFormat;
use dlsm_sstable::iter::ForwardIter;
use dlsm_sstable::SstError;
use rdma_sim::{QueuePair, RemoteAddr};

use dlsm_memnode::RpcClient;

use crate::context::MemNodeHandle;
use crate::handle::{Extent, MetaKind};
use crate::memtable::MemTable;
use crate::remote::ReadChannel;
use crate::{DbError, Result};

/// A [`TableSink`] that streams into remote memory through a FIFO ring of
/// pre-registered flush buffers.
pub struct FlushSink<'q> {
    qp: &'q mut QueuePair,
    base: RemoteAddr,
    cap: u64,
    remote_pos: u64,
    cur: Vec<u8>,
    buf_size: usize,
    /// Buffers whose WRITE is posted but not yet completed, oldest first.
    in_flight: VecDeque<Vec<u8>>,
    /// Recycled buffers ready for reuse.
    free: Vec<Vec<u8>>,
    max_in_flight: usize,
    next_wr: u64,
    /// How long to wait on one WRITE completion (backpressure and
    /// `finish`) before declaring the flush failed. Kept short under fault
    /// injection so a lost completion fails the flush — which frees the
    /// whole extent — instead of stalling the flush thread.
    poll_timeout: Duration,
}

impl<'q> FlushSink<'q> {
    /// Stream into `[base, base + cap)` using `buf_count` buffers of
    /// `buf_size` bytes, waiting at most `poll_timeout` per completion.
    pub fn new(
        qp: &'q mut QueuePair,
        base: RemoteAddr,
        cap: u64,
        buf_size: usize,
        buf_count: usize,
        poll_timeout: Duration,
    ) -> FlushSink<'q> {
        FlushSink {
            qp,
            base,
            cap,
            remote_pos: 0,
            cur: Vec::with_capacity(buf_size),
            buf_size,
            in_flight: VecDeque::new(),
            free: Vec::new(),
            max_in_flight: buf_count.max(2),
            next_wr: 1,
            poll_timeout,
        }
    }

    /// Bytes written (including the buffer still being filled).
    pub fn written(&self) -> u64 {
        self.remote_pos + self.cur.len() as u64
    }

    fn recycle_ready(&mut self) {
        // Completions are FIFO per queue pair: each one retires the oldest
        // in-flight buffer.
        for _c in self.qp.poll(usize::MAX) {
            if let Some(buf) = self.in_flight.pop_front() {
                self.free.push(buf);
            }
        }
    }

    fn submit_current(&mut self) -> dlsm_sstable::Result<()> {
        if self.cur.is_empty() {
            return Ok(());
        }
        let dst = self.base.add(self.remote_pos);
        self.qp
            .post_write(&self.cur, dst, self.next_wr)
            .map_err(|e| SstError::Source(e.to_string()))?;
        self.next_wr += 1;
        self.remote_pos += self.cur.len() as u64;
        let filled = std::mem::take(&mut self.cur);
        self.in_flight.push_back(filled);
        // Reuse a finished buffer if one is ready; otherwise allocate a new
        // one — unless the ring is at capacity, in which case wait for the
        // head to finish (backpressure).
        self.recycle_ready();
        while self.in_flight.len() >= self.max_in_flight {
            match self.qp.poll_one_blocking(self.poll_timeout) {
                Ok(_) => {
                    if let Some(buf) = self.in_flight.pop_front() {
                        self.free.push(buf);
                    }
                }
                Err(e) => return Err(SstError::Source(e.to_string())),
            }
        }
        self.cur = self.free.pop().unwrap_or_else(|| Vec::with_capacity(self.buf_size));
        self.cur.clear();
        Ok(())
    }

    /// Flush the partial buffer and wait for every outstanding WRITE.
    pub fn finish(mut self) -> dlsm_sstable::Result<u64> {
        self.submit_current()?;
        while !self.in_flight.is_empty() {
            self.qp
                .poll_one_blocking(self.poll_timeout)
                .map_err(|e| SstError::Source(e.to_string()))?;
            self.in_flight.pop_front();
        }
        Ok(self.remote_pos)
    }
}

impl<'q> TableSink for FlushSink<'q> {
    fn append(&mut self, mut data: &[u8]) -> dlsm_sstable::Result<()> {
        if self.written() + data.len() as u64 > self.cap {
            return Err(SstError::SinkFull);
        }
        while !data.is_empty() {
            let room = self.buf_size - self.cur.len();
            let take = room.min(data.len());
            self.cur.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.cur.len() >= self.buf_size {
                self.submit_current()?;
            }
        }
        Ok(())
    }
}

/// A [`TableSink`] writing through the two-sided RPC file API: each chunk
/// is staged locally and shipped with a `write_file` RPC (request, server
/// memcpy, reply) — the Nova-LSM tmpfs write path.
pub struct TwoSidedSink<'c> {
    client: &'c mut RpcClient,
    base_off: u64,
    cap: u64,
    pos: u64,
    cur: Vec<u8>,
    buf_size: usize,
}

impl<'c> TwoSidedSink<'c> {
    /// Stream into `[base_off, base_off + cap)` of the memory node's region.
    pub fn new(client: &'c mut RpcClient, base_off: u64, cap: u64, buf_size: usize) -> TwoSidedSink<'c> {
        TwoSidedSink { client, base_off, cap, pos: 0, cur: Vec::with_capacity(buf_size), buf_size }
    }

    /// Bytes written (including the staged partial chunk).
    pub fn written(&self) -> u64 {
        self.pos + self.cur.len() as u64
    }

    fn submit(&mut self) -> dlsm_sstable::Result<()> {
        if self.cur.is_empty() {
            return Ok(());
        }
        self.client
            .write_file(self.base_off + self.pos, &self.cur, Duration::from_secs(60))
            .map_err(|e| SstError::Source(e.to_string()))?;
        self.pos += self.cur.len() as u64;
        self.cur.clear();
        Ok(())
    }

    /// Ship the final partial chunk.
    pub fn finish(mut self) -> dlsm_sstable::Result<u64> {
        self.submit()?;
        Ok(self.pos)
    }
}

impl<'c> TableSink for TwoSidedSink<'c> {
    fn append(&mut self, mut data: &[u8]) -> dlsm_sstable::Result<()> {
        if self.written() + data.len() as u64 > self.cap {
            return Err(SstError::SinkFull);
        }
        while !data.is_empty() {
            let room = self.buf_size - self.cur.len();
            let take = room.min(data.len());
            self.cur.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.cur.len() >= self.buf_size {
                self.submit()?;
            }
        }
        Ok(())
    }
}

/// A sink that also mirrors everything into a local buffer — used to keep a
/// compute-local copy of hot L0 tables (the Sec. VI note) while streaming
/// the canonical image to remote memory.
pub struct TeeSink<S: TableSink> {
    inner: S,
    copy: Vec<u8>,
}

impl<S: TableSink> TeeSink<S> {
    /// Mirror `inner` into a local buffer of `reserve` capacity.
    pub fn new(inner: S, reserve: usize) -> TeeSink<S> {
        TeeSink { inner, copy: Vec::with_capacity(reserve) }
    }

    /// Finish, returning the inner sink and the mirrored image.
    pub fn into_parts(self) -> (S, Vec<u8>) {
        (self.inner, self.copy)
    }
}

impl<S: TableSink> TableSink for TeeSink<S> {
    fn append(&mut self, data: &[u8]) -> dlsm_sstable::Result<()> {
        self.inner.append(data)?;
        self.copy.extend_from_slice(data);
        Ok(())
    }
}

/// Which transport a flush writes through.
pub enum FlushTransport<'a> {
    /// Asynchronous one-sided writes (dLSM, Sec. X-C).
    OneSided(&'a mut QueuePair),
    /// Synchronous two-sided `write_file` RPCs (Nova-LSM style).
    TwoSided(&'a mut RpcClient),
}

/// Result of flushing one MemTable: where it landed and its metadata.
pub struct FlushOutput {
    /// The new table's extent in the flush zone.
    pub extent: Extent,
    /// Compute-cached metadata.
    pub meta: MetaKind,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// Record count.
    pub num_entries: u64,
    /// Local mirror of the table image (present when requested via
    /// `keep_local_copy`), for the read cache's extent pool.
    pub local_image: Option<Vec<u8>>,
}

/// Serialize `mem` to remote memory.
///
/// Allocation comes from the compute-controlled flush zone (no RPC); the
/// extent is sized by the MemTable's arena usage (an upper bound on the
/// serialized size) and the unused tail is returned afterwards.
#[allow(clippy::too_many_arguments)]
pub fn flush_memtable(
    mem: &MemTable,
    memnode: &MemNodeHandle,
    transport: &mut FlushTransport<'_>,
    format: TableFormat,
    bits_per_key: usize,
    buf_size: usize,
    buf_count: usize,
    keep_local_copy: bool,
    poll_timeout: Duration,
) -> Result<FlushOutput> {
    debug_assert!(!mem.is_empty(), "flushing an empty MemTable");
    // The arena usage bounds the byte-addressable image (which drops the
    // skip-list node overhead), but the block format adds per-block headers,
    // a filter, an index entry per block and a footer — budget for the worst
    // case (one record per block) so a flush can never overflow its extent.
    let cap = (mem.memory_usage() as u64 + mem.len() as u64 * 72 + (64 << 10))
        .next_multiple_of(8);
    let alloc = memnode.flush_alloc();
    let offset = alloc.alloc(cap).ok_or(DbError::OutOfRemoteMemory { requested: cap })?;
    let base = memnode.remote().addr(offset);

    let mut it = mem.iter();
    it.seek_to_first()?;

    // Serialize records through the chosen transport/sink combination; all
    // four arms share the same builder loops via small helpers.
    let sp_write = dlsm_trace::span_arg(dlsm_trace::Category::Flush, "flush_rdma_write", cap);
    let result: Result<FlushOutput> = (|| {
        let reserve = if keep_local_copy { mem.memory_usage() } else { 0 };
        let (used, built, local_image) = match transport {
            FlushTransport::OneSided(qp) => {
                let sink = TeeSink::new(
                    FlushSink::new(qp, base, cap, buf_size, buf_count, poll_timeout),
                    reserve,
                );
                let (sink, built) = match format {
                    TableFormat::ByteAddr => build_byte_addr(&mut it, sink, bits_per_key)?,
                    TableFormat::Block(bs) => build_block(&mut it, sink, bs, bits_per_key)?,
                };
                let (inner, copy) = sink.into_parts();
                (inner.finish()?, built, keep_local_copy.then_some(copy))
            }
            FlushTransport::TwoSided(client) => {
                let sink = TeeSink::new(TwoSidedSink::new(client, offset, cap, buf_size), reserve);
                let (sink, built) = match format {
                    TableFormat::ByteAddr => build_byte_addr(&mut it, sink, bits_per_key)?,
                    TableFormat::Block(bs) => build_block(&mut it, sink, bs, bits_per_key)?,
                };
                let (inner, copy) = sink.into_parts();
                (inner.finish()?, built, keep_local_copy.then_some(copy))
            }
        };
        let extent = Extent { offset, len: used };
        match built {
            Built::ByteAddr(meta) => {
                let smallest = meta.smallest().expect("non-empty table").to_vec();
                let largest = meta.largest().expect("non-empty table").to_vec();
                let num_entries = meta.num_entries;
                Ok(FlushOutput {
                    extent,
                    meta: MetaKind::ByteAddr(Arc::new(meta)),
                    smallest,
                    largest,
                    num_entries,
                    local_image,
                })
            }
            Built::Block { smallest, largest, num_entries, block_size } => {
                // Open the freshly-written table to cache its index + filter.
                let channel = match transport {
                    FlushTransport::OneSided(qp) => ReadChannel::one_sided(
                        qp.fabric().create_qp(qp.local(), qp.remote())?,
                    ),
                    FlushTransport::TwoSided(client) => ReadChannel::two_sided(
                        client.reopen()?,
                    ),
                };
                let source = crate::remote::RemoteSource::new(channel, base, used);
                let reader = dlsm_sstable::block::BlockTableReader::open(source)?;
                Ok(FlushOutput {
                    extent,
                    meta: MetaKind::Block(reader.meta_cache(), block_size),
                    smallest,
                    largest,
                    num_entries,
                    local_image,
                })
            }
        }
    })();
    drop(sp_write);

    match result {
        Ok(out) => {
            // Return the unused tail of the extent.
            let used = out.extent.len.next_multiple_of(8);
            if used < cap {
                alloc.free(offset + used, cap - used);
            }
            Ok(out)
        }
        Err(e) => {
            alloc.free(offset, cap);
            Err(e)
        }
    }
}

enum Built {
    ByteAddr(dlsm_sstable::byte_addr::TableMeta),
    Block { smallest: Vec<u8>, largest: Vec<u8>, num_entries: u64, block_size: u32 },
}

fn build_byte_addr<S: TableSink>(
    it: &mut crate::memtable::MemTableIter,
    sink: S,
    bits_per_key: usize,
) -> Result<(S, Built)> {
    let mut builder = ByteAddrBuilder::new(sink, bits_per_key);
    while it.valid() {
        builder.add(it.key(), it.value())?;
        it.next()?;
    }
    let (sink, meta) = builder.finish();
    Ok((sink, Built::ByteAddr(meta)))
}

fn build_block<S: TableSink>(
    it: &mut crate::memtable::MemTableIter,
    sink: S,
    block_size: u32,
    bits_per_key: usize,
) -> Result<(S, Built)> {
    let mut builder = BlockTableBuilder::new(sink, block_size as usize, bits_per_key);
    let mut smallest = Vec::new();
    let mut largest = Vec::new();
    while it.valid() {
        if smallest.is_empty() {
            smallest = it.key().to_vec();
        }
        largest.clear();
        largest.extend_from_slice(it.key());
        builder.add(it.key(), it.value())?;
        it.next()?;
    }
    let num_entries = builder.num_entries();
    let (sink, _total) = builder.finish()?;
    Ok((sink, Built::Block { smallest, largest, num_entries, block_size }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use dlsm_memnode::{MemServer, MemServerConfig};
    use dlsm_sstable::byte_addr::{ByteAddrReader, TableGet};
    use dlsm_sstable::key::ValueType;
    use dlsm_sstable::source::RegionSource;
    use rdma_sim::{Fabric, NetworkProfile, Verb};

    fn setup() -> (std::sync::Arc<Fabric>, std::sync::Arc<rdma_sim::Node>, MemServer) {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let server = MemServer::start(
            &fabric,
            MemServerConfig { region_size: 16 << 20, flush_zone: 8 << 20, compaction_workers: 1, dispatchers: 1 },
        );
        (fabric, compute, server)
    }

    #[test]
    fn flush_roundtrips_through_remote_memory() {
        let (fabric, compute, server) = setup();
        let memnode = MemNodeHandle::from_server(&server);
        let mem = MemTable::new(1, 0..10_000, 1 << 20, 2 << 20);
        for i in 0..500u64 {
            let value = format!("value{i}-{}", "x".repeat(100));
            mem.add(i, ValueType::Value, format!("key{i:05}").as_bytes(), value.as_bytes())
                .unwrap();
        }
        let mut qp = fabric.create_qp(compute.id(), server.node_id()).unwrap();
        let out = flush_memtable(
            &mem,
            &memnode,
            &mut FlushTransport::OneSided(&mut qp),
            TableFormat::ByteAddr,
            10,
            4 << 10, // small buffers force many async writes
            4,
            false,
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(out.num_entries, 500);
        // Verify from the memory node's side.
        let MetaKind::ByteAddr(meta) = &out.meta else { panic!("byte-addr flush") };
        let reader = ByteAddrReader::new(
            std::sync::Arc::clone(meta),
            RegionSource::new(std::sync::Arc::clone(server.region()), out.extent.offset, out.extent.len),
        );
        let expect = format!("value123-{}", "x".repeat(100));
        assert_eq!(reader.get(b"key00123", 1000).unwrap(), TableGet::Found(expect.into_bytes()));
        // Many WRITE work requests were posted (async pipeline, not one blob).
        assert!(fabric.stats().ops(Verb::Write) > 4);
        server.shutdown();
    }

    #[test]
    fn flush_trims_unused_extent() {
        let (fabric, compute, server) = setup();
        let memnode = MemNodeHandle::from_server(&server);
        let mem = MemTable::new(1, 0..100, 1 << 20, 2 << 20);
        mem.add(1, ValueType::Value, b"only", b"entry").unwrap();
        let mut qp = fabric.create_qp(compute.id(), server.node_id()).unwrap();
        let out = flush_memtable(
            &mem,
            &memnode,
            &mut FlushTransport::OneSided(&mut qp),
            TableFormat::ByteAddr,
            10,
            8 << 10,
            4,
            false,
            Duration::from_secs(10),
        )
        .unwrap();
        // Only the rounded table length stays allocated.
        assert_eq!(memnode.flush_alloc().in_use(), out.extent.len.next_multiple_of(8));
        server.shutdown();
    }

    #[test]
    fn block_format_flush_caches_metadata() {
        let (fabric, compute, server) = setup();
        let memnode = MemNodeHandle::from_server(&server);
        let mem = MemTable::new(1, 0..10_000, 1 << 20, 2 << 20);
        for i in 0..300u64 {
            mem.add(i, ValueType::Value, format!("k{i:05}").as_bytes(), b"blockv").unwrap();
        }
        let mut qp = fabric.create_qp(compute.id(), server.node_id()).unwrap();
        let out = flush_memtable(
            &mem,
            &memnode,
            &mut FlushTransport::OneSided(&mut qp),
            TableFormat::Block(2048),
            10,
            8 << 10,
            4,
            false,
            Duration::from_secs(10),
        )
        .unwrap();
        let MetaKind::Block(cache, bs) = &out.meta else { panic!("block flush") };
        assert_eq!(*bs, 2048);
        assert_eq!(cache.num_entries(), 300);
        assert_eq!(dlsm_sstable::key::user_key(&out.smallest), b"k00000");
        assert_eq!(dlsm_sstable::key::user_key(&out.largest), b"k00299");
        server.shutdown();
    }

    #[test]
    fn sink_ring_recycles_buffers_fifo() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 20);
        let mut qp = fabric.create_qp(compute.id(), memory.id()).unwrap();
        let mut sink = FlushSink::new(&mut qp, region.addr(0), 1 << 20, 64, 3, Duration::from_secs(10));
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        sink.append(&payload).unwrap();
        let written = sink.finish().unwrap();
        assert_eq!(written, 10_000);
        let mut back = vec![0u8; 10_000];
        region.local_read(0, &mut back).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn sink_full_when_extent_too_small() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 20);
        let mut qp = fabric.create_qp(compute.id(), memory.id()).unwrap();
        let mut sink = FlushSink::new(&mut qp, region.addr(0), 100, 64, 2, Duration::from_secs(10));
        assert!(sink.append(&[1u8; 99]).is_ok());
        assert_eq!(sink.append(&[1u8; 2]), Err(SstError::SinkFull));
    }

    /// A flush that dies mid-stream (every WRITE completion dropped) must
    /// error out — and the error path must return the *entire* reserved
    /// extent, leaving no flush-ring slot or flush-zone bytes leaked.
    #[test]
    fn failed_flush_frees_whole_extent() {
        use rdma_sim::ChaosPlan;
        let (fabric, compute, server) = setup();
        let memnode = MemNodeHandle::from_server(&server);
        let mem = MemTable::new(1, 0..10_000, 1 << 20, 2 << 20);
        for i in 0..400u64 {
            let value = format!("value{i}-{}", "y".repeat(120));
            mem.add(i, ValueType::Value, format!("key{i:05}").as_bytes(), value.as_bytes())
                .unwrap();
        }
        let seed = 0xF1A5u64;
        fabric.set_fault_hook(Some(std::sync::Arc::new(
            ChaosPlan::new(seed).drop(Verb::Write, 1.0),
        )));
        let mut qp = fabric.create_qp(compute.id(), server.node_id()).unwrap();
        let err = flush_memtable(
            &mem,
            &memnode,
            &mut FlushTransport::OneSided(&mut qp),
            TableFormat::ByteAddr,
            10,
            4 << 10, // small buffers: the ring fills and hits backpressure
            2,
            false,
            Duration::from_millis(100),
        );
        fabric.set_fault_hook(None);
        let err = match err {
            Err(e) => e,
            Ok(_) => panic!("seed {seed:#x}: flush succeeded despite 100% write drop"),
        };
        assert!(matches!(err, DbError::Sst(_)), "seed {seed:#x}: unexpected error {err:?}");
        assert_eq!(
            memnode.flush_alloc().in_use(),
            0,
            "seed {seed:#x}: failed flush leaked flush-zone bytes"
        );
        server.shutdown();
    }
}
