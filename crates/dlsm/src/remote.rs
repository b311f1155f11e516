//! Reading remote SSTables from the compute node.
//!
//! A [`RemoteSource`] is a [`DataSource`] over a [`ReadChannel`]:
//!
//! * [`ReadChannel::OneSided`] — dLSM's path: each `read` is a synchronous
//!   one-sided RDMA read on a thread-local queue pair (Sec. X-B).
//! * [`ReadChannel::TwoSided`] — the Nova-LSM-style tmpfs path: each `read`
//!   is an RPC; the memory node copies the bytes into the reply buffer and
//!   the requester copies them out — the longer path with the extra memory
//!   copy the paper blames for Nova-LSM's read performance (Sec. XI-C2).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use dlsm_cache::ReadCache;
use dlsm_memnode::RpcClient;
use dlsm_sstable::block::{BlockFetcher, BlockTableReader};
use dlsm_sstable::byte_addr::{parse_record_bytes, ByteAddrIter, Locate, TableGet, TableMeta};
use dlsm_sstable::iter::ForwardIter;
use dlsm_sstable::key::SeqNo;
use dlsm_sstable::source::{DataSource, SliceSource};
use dlsm_sstable::SstError;
use rdma_sim::QueuePair;

use crate::handle::{MetaKind, TableHandle};
use crate::Result;

/// A thread-local queue pair shared by a reader's table sources.
pub type SharedQp = Rc<RefCell<QueuePair>>;

/// A thread-local RPC client shared by a reader's table sources.
pub type SharedRpc = Rc<RefCell<RpcClient>>;

/// How table bytes are fetched from the memory node.
#[derive(Clone)]
pub enum ReadChannel {
    /// One-sided RDMA reads (dLSM and the RocksDB-RDMA baselines).
    OneSided(SharedQp),
    /// Two-sided RPC reads through the memory node's CPU (Nova-LSM style).
    TwoSided(SharedRpc),
}

impl ReadChannel {
    /// Wrap a queue pair.
    pub fn one_sided(qp: QueuePair) -> ReadChannel {
        ReadChannel::OneSided(Rc::new(RefCell::new(qp)))
    }

    /// Wrap an RPC client.
    pub fn two_sided(client: RpcClient) -> ReadChannel {
        ReadChannel::TwoSided(Rc::new(RefCell::new(client)))
    }

    /// Lifetime RDMA traffic carried by this channel — what this reader's
    /// fetches cost the fabric, attributable per operation via deltas.
    pub fn traffic(&self) -> rdma_sim::StatsSnapshot {
        match self {
            ReadChannel::OneSided(qp) => qp.borrow().traffic(),
            ReadChannel::TwoSided(client) => client.borrow().traffic(),
        }
    }
}

/// [`DataSource`] over one remote table extent.
#[derive(Clone)]
pub struct RemoteSource {
    channel: ReadChannel,
    base: rdma_sim::RemoteAddr,
    len: u64,
}

impl RemoteSource {
    /// View `len` bytes at `base` as a table.
    pub fn new(channel: ReadChannel, base: rdma_sim::RemoteAddr, len: u64) -> RemoteSource {
        RemoteSource { channel, base, len }
    }

    /// Source for `handle`'s extent.
    pub fn for_table(channel: &ReadChannel, handle: &TableHandle) -> RemoteSource {
        RemoteSource {
            channel: channel.clone(),
            base: handle.home.addr(handle.extent.offset),
            len: handle.extent.len,
        }
    }
}

impl DataSource for RemoteSource {
    fn read(&self, offset: u64, dst: &mut [u8]) -> dlsm_sstable::Result<()> {
        if offset + dst.len() as u64 > self.len {
            return Err(SstError::Source(format!(
                "remote read [{offset}, +{}) beyond table length {}",
                dst.len(),
                self.len
            )));
        }
        match &self.channel {
            ReadChannel::OneSided(qp) => qp
                .borrow_mut()
                .read_sync(self.base.add(offset), dst)
                .map_err(|e| SstError::Source(e.to_string())),
            ReadChannel::TwoSided(client) => {
                // RPC reads are bounded by the reply buffer; chunk as needed.
                let mut client = client.borrow_mut();
                let mut pos = 0usize;
                while pos < dst.len() {
                    let chunk = (dst.len() - pos).min(client.max_read_len());
                    let bytes = client
                        .read_file(
                            self.base.offset + offset + pos as u64,
                            chunk as u32,
                            Duration::from_secs(10),
                        )
                        .map_err(|e| SstError::Source(e.to_string()))?;
                    if bytes.len() != chunk {
                        return Err(SstError::Source("short RPC read".into()));
                    }
                    // The extra copy of the tmpfs path.
                    dst[pos..pos + chunk].copy_from_slice(&bytes);
                    pos += chunk;
                }
                Ok(())
            }
        }
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// `Arc<Vec<u8>>` viewed as a byte slice (for [`dlsm_sstable::source::SliceSource`] over a cached
/// local table image).
#[derive(Clone)]
pub struct ArcBytes(pub Arc<Vec<u8>>);

impl AsRef<[u8]> for ArcBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Binds the shared [`ReadCache`] to one table, at the [`BlockFetcher`]
/// granularity the sstable readers understand: data blocks for the block
/// format, single records for the byte-addressable format — both keyed
/// `(table id, offset)` in the cache's block pool.
pub struct TableFetcher {
    cache: Arc<ReadCache>,
    table: u64,
}

impl TableFetcher {
    /// A fetcher for `table`'s objects in `cache`.
    pub fn new(cache: &Arc<ReadCache>, table: u64) -> Arc<TableFetcher> {
        Arc::new(TableFetcher { cache: Arc::clone(cache), table })
    }
}

impl BlockFetcher for TableFetcher {
    fn fetch(&self, offset: u64) -> Option<Arc<Vec<u8>>> {
        self.cache.block_get(self.table, offset)
    }

    fn admit(&self, offset: u64, data: &Arc<Vec<u8>>) {
        self.cache.block_admit(self.table, offset, data);
    }
}

/// Fetch `handle`'s whole extent in one fabric read (the on-demand
/// promotion path: a table that keeps missing earns a single large read so
/// every later probe is local).
fn fetch_extent_image(
    channel: &ReadChannel,
    handle: &TableHandle,
) -> Result<Arc<Vec<u8>>> {
    let source = RemoteSource::for_table(channel, handle);
    let mut buf = vec![0u8; handle.extent.len as usize];
    source.read(0, &mut buf)?;
    Ok(Arc::new(buf))
}

/// The local half of one table probe (see [`plan_get`]).
pub(crate) enum Plan<'t> {
    /// The table answered without a record READ.
    Done(TableGet),
    /// The newest visible version is a record still to be READ; READ it,
    /// then [`finish_get`].
    Fetch(RecordFetch<'t>),
}

/// A located record of a byte-addressable table, still to be READ.
pub(crate) struct RecordFetch<'t> {
    handle: &'t TableHandle,
    meta: &'t TableMeta,
    /// Index slot of the record; its key is checked against the bytes.
    index: usize,
    /// Offset of the record in the table's data image.
    offset: u64,
    /// Record length in bytes.
    len: usize,
    /// The READ's destination, allocated only once a READ is issued.
    record: Vec<u8>,
}

impl RecordFetch<'_> {
    /// Post the record's READ on `qp`. Poll its completion before
    /// [`finish_get`].
    pub(crate) fn post(&mut self, qp: &mut QueuePair, wr_id: u64) -> Result<()> {
        let addr = self.handle.home.addr(self.handle.extent.offset + self.offset);
        self.record = vec![0u8; self.len];
        Ok(qp.post_read(addr, &mut self.record, wr_id)?)
    }

    /// READ the record synchronously over `channel`.
    pub(crate) fn read(&mut self, channel: &ReadChannel) -> Result<()> {
        self.record = vec![0u8; self.len];
        RemoteSource::for_table(channel, self.handle).read(self.offset, &mut self.record)?;
        Ok(())
    }

    /// Parse the record's bytes, checking its key against the index.
    fn decode(&self, record: &[u8]) -> Result<TableGet> {
        let (ikey, value) = parse_record_bytes(record)?;
        if ikey != self.meta.index.key(self.index) {
            return Err(SstError::Corrupt("record key does not match index".into()).into());
        }
        Ok(TableGet::Found(value.to_vec()))
    }

    /// Serve the record from a local image of the whole table.
    fn slice_image(&self, image: &[u8]) -> Result<TableGet> {
        let start = self.offset as usize;
        let record = image
            .get(start..start + self.len)
            .ok_or_else(|| SstError::Corrupt("record extends past table image".into()))?;
        self.decode(record)
    }
}

/// Plan a point lookup of `user_key` at `seq` in one table: everything a
/// probe can decide without a record READ.
///
/// On a byte-addressable table the bloom/index `locate` runs first, from
/// compute-local metadata, so negatives touch no cache and add no
/// extent-promotion heat. A located record is then served cache-first:
/// from the table's extent image, from a promotion that fetches the whole
/// image (a table that keeps missing earns one large READ so every later
/// probe is local), or from the record pool; otherwise the plan names the
/// one record to READ. Block tables decide inside the block reader, which
/// reads one whole block through the block pool.
pub(crate) fn plan_get<'t>(
    channel: &ReadChannel,
    handle: &'t TableHandle,
    user_key: &[u8],
    seq: SeqNo,
    cache: Option<&Arc<ReadCache>>,
) -> Result<Plan<'t>> {
    let meta = match &handle.meta {
        MetaKind::ByteAddr(meta) => meta,
        MetaKind::Block(bmc, _) => {
            let got = match cache.and_then(|c| c.extent_get(handle.id)) {
                Some(image) => {
                    BlockTableReader::from_cache(SliceSource(ArcBytes(image)), bmc.clone())
                        .get(user_key, seq)?
                }
                None => {
                    let source = RemoteSource::for_table(channel, handle);
                    let mut reader = BlockTableReader::from_cache(source, bmc.clone());
                    if let Some(c) = cache {
                        reader = reader.with_fetcher(TableFetcher::new(c, handle.id));
                    }
                    reader.get(user_key, seq)?
                }
            };
            return Ok(Plan::Done(got));
        }
    };
    let fetch = match meta.locate(user_key, seq) {
        Locate::NotFound => return Ok(Plan::Done(TableGet::NotFound)),
        Locate::Deleted => return Ok(Plan::Done(TableGet::Deleted)),
        Locate::Record { index, offset, len } => {
            RecordFetch { handle, meta, index, offset, len, record: Vec::new() }
        }
    };
    let Some(c) = cache else { return Ok(Plan::Fetch(fetch)) };
    if let Some(image) = c.extent_get(handle.id) {
        c.note_saved(fetch.len as u64);
        return Ok(Plan::Done(fetch.slice_image(&image)?));
    }
    if c.note_extent_miss(handle.id, handle.extent.len) {
        if let Ok(image) = fetch_extent_image(channel, handle) {
            c.extent_admit(handle.id, Arc::clone(&image));
            // The promotion read just paid for this probe — no saved bytes
            // to claim until the next one.
            return Ok(Plan::Done(fetch.slice_image(&image)?));
        }
    }
    match c.block_get(handle.id, fetch.offset) {
        Some(record) if record.len() == fetch.len => {
            Ok(Plan::Done(fetch.decode(&record)?))
        }
        _ => Ok(Plan::Fetch(fetch)),
    }
}

/// Finish a probe [`plan_get`] left at [`Plan::Fetch`], once its record
/// has been READ: check the record's key against the index, then offer the
/// record to the cache.
pub(crate) fn finish_get(
    fetch: RecordFetch<'_>,
    cache: Option<&Arc<ReadCache>>,
) -> Result<TableGet> {
    let got = fetch.decode(&fetch.record)?;
    if let Some(c) = cache {
        c.block_admit(fetch.handle.id, fetch.offset, &Arc::new(fetch.record));
    }
    Ok(got)
}

/// Point lookup against one table handle: [`plan_get`], the one record
/// READ it may name, then [`finish_get`]. One bloom probe + one read of a
/// single record for byte-addressable tables; a whole-block read for block
/// tables.
pub fn table_get(
    channel: &ReadChannel,
    handle: &TableHandle,
    user_key: &[u8],
    seq: SeqNo,
    cache: Option<&Arc<ReadCache>>,
) -> Result<TableGet> {
    match plan_get(channel, handle, user_key, seq, cache)? {
        Plan::Done(got) => Ok(got),
        Plan::Fetch(mut fetch) => {
            fetch.read(channel)?;
            finish_get(fetch, cache)
        }
    }
}

/// Build an owning iterator over one table handle whose readahead window
/// grows up to `prefetch` bytes. Scans only *peek* at the extent pool (a resident image is free
/// to use) — they never admit, bump frequencies, or touch the block pool,
/// so sequential sweeps cannot displace the point-read working set.
pub fn table_iter(
    channel: &ReadChannel,
    handle: &TableHandle,
    prefetch: usize,
    cache: Option<&Arc<ReadCache>>,
) -> Box<dyn ForwardIter> {
    if let Some(image) = cache.and_then(|c| c.extent_peek(handle.id)) {
        let source = SliceSource(ArcBytes(image));
        return match &handle.meta {
            MetaKind::ByteAddr(meta) => {
                Box::new(ByteAddrIter::from_parts(Arc::clone(meta), source, prefetch))
            }
            MetaKind::Block(bmc, _) => {
                Box::new(BlockTableReader::from_cache(source, bmc.clone()).iter(prefetch))
            }
        };
    }
    let source = RemoteSource::for_table(channel, handle);
    match &handle.meta {
        MetaKind::ByteAddr(meta) => {
            Box::new(ByteAddrIter::from_parts(Arc::clone(meta), source, prefetch))
        }
        MetaKind::Block(bmc, _) => {
            let reader = BlockTableReader::from_cache(source, bmc.clone());
            Box::new(reader.iter(prefetch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_sstable::byte_addr::ByteAddrBuilder;
    use dlsm_sstable::key::{InternalKey, ValueType};
    use rdma_sim::{Fabric, NetworkProfile, Verb};

    #[test]
    fn remote_source_reads_over_fabric() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 16);
        region.local_write(128, b"remote-table-bytes").unwrap();
        let channel =
            ReadChannel::one_sided(fabric.create_qp(compute.id(), memory.id()).unwrap());
        let src = RemoteSource::new(channel, region.addr(128), 18);
        let mut buf = [0u8; 5];
        src.read(7, &mut buf).unwrap();
        assert_eq!(&buf, b"table");
        assert!(src.read(15, &mut [0u8; 8]).is_err());
        assert_eq!(fabric.stats().ops(Verb::Read), 1);
    }

    #[test]
    fn point_get_issues_single_record_read() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 20);

        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for i in 0..100 {
            b.add(
                InternalKey::new(format!("key{i:04}").as_bytes(), 7, ValueType::Value).as_bytes(),
                format!("val{i}").as_bytes(),
            )
            .unwrap();
        }
        let (data, meta) = b.finish();
        region.local_write(0, &data).unwrap();

        let handle = crate::handle::TableHandle::new(
            1,
            crate::context::RemoteRegion::of(&region),
            crate::handle::Extent { offset: 0, len: data.len() as u64 },
            crate::handle::Origin::External,
            MetaKind::ByteAddr(Arc::new(meta)),
            InternalKey::new(b"key0000", 7, ValueType::Value).into_bytes(),
            InternalKey::new(b"key0099", 7, ValueType::Value).into_bytes(),
            100,
            None,
        );
        let channel =
            ReadChannel::one_sided(fabric.create_qp(compute.id(), memory.id()).unwrap());
        let before = fabric.stats().snapshot();
        let got = table_get(&channel, &handle, b"key0042", 100, None).unwrap();
        assert_eq!(got, TableGet::Found(b"val42".to_vec()));
        let d = fabric.stats().snapshot().delta(&before);
        // Exactly one RDMA read, sized as one record (not a block).
        assert_eq!(d.ops(Verb::Read), 1);
        assert!(d.bytes(Verb::Read) < 64, "read {} bytes", d.bytes(Verb::Read));
        // A bloom miss costs zero network reads.
        let before = fabric.stats().snapshot();
        let got = table_get(&channel, &handle, b"nope", 100, None).unwrap();
        assert_eq!(got, TableGet::NotFound);
        assert_eq!(fabric.stats().snapshot().delta(&before).ops(Verb::Read), 0);

        // With a record cache: a READ record is admitted and the next probe
        // of it costs no READ; a cached object of the wrong length at a
        // record's offset is skipped, not served.
        let cache = ReadCache::new(dlsm_cache::CacheConfig {
            promote_extent_after: 0,
            ..dlsm_cache::CacheConfig::with_capacity(1 << 20)
        });
        let reads = |key: &[u8], want: &[u8]| {
            let before = fabric.stats().snapshot();
            let got = table_get(&channel, &handle, key, 100, cache.as_ref()).unwrap();
            assert_eq!(got, TableGet::Found(want.to_vec()));
            fabric.stats().snapshot().delta(&before).ops(Verb::Read)
        };
        assert_eq!(reads(b"key0042", b"val42"), 1);
        assert_eq!(reads(b"key0042", b"val42"), 0);
        let MetaKind::ByteAddr(meta) = &handle.meta else { unreachable!() };
        let Locate::Record { offset, .. } = meta.locate(b"key0043", 100) else { unreachable!() };
        let c = cache.as_ref().unwrap();
        c.block_admit(1, offset, &Arc::new(b"stale".to_vec()));
        assert!(c.block_get(1, offset).is_some());
        assert_eq!(reads(b"key0043", b"val43"), 1);
    }

    #[test]
    fn two_sided_channel_reads_through_rpc() {
        use dlsm_memnode::{MemServer, MemServerConfig};
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let server = MemServer::start(
            &fabric,
            MemServerConfig { region_size: 1 << 20, flush_zone: 1 << 19, compaction_workers: 1, dispatchers: 1 },
        );
        server.region().local_write(256, b"tmpfs-table").unwrap();
        let client = RpcClient::new(&fabric, &compute, server.node_id(), 4096).unwrap();
        let channel = ReadChannel::two_sided(client);
        let src = RemoteSource::new(channel, server.region().addr(256), 11);
        let mut buf = [0u8; 11];
        src.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"tmpfs-table");
        // No one-sided reads were used by the client data path itself (the
        // server-side reply write is one-sided, but the requester never
        // posted an RDMA read).
        server.shutdown();
    }
}
