//! The GVFS user-level file system proxy.
//!
//! A proxy "behaves both as a server (receiving RPC calls) and a client
//! (issuing RPC calls)" (paper §3.2.1): it accepts NFS RPC traffic from
//! the kernel client below it and forwards misses to the next hop above
//! it — another proxy or the kernel NFS server. Because hops compose,
//! arbitrary chains form: kernel client → client-side proxy (disk caches,
//! meta-data) → LAN second-level cache proxy → server-side proxy
//! (identity mapping) → kernel server.
//!
//! Per-session proxies are dynamically created and configured
//! *per user / per application*: cache size, write policy and meta-data
//! handling are all [`ProxyConfig`] fields, which is the paper's central
//! argument for user-level (rather than kernel) extensions.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use oncrpc::msg::{AcceptStat, CallHeader, RejectStat, ReplyBody, RpcMessage};
use oncrpc::transport::RpcHandler;
use oncrpc::{ProgramError, RpcClient, RpcError};
use parking_lot::Mutex;
use simnet::telemetry::{Counter, Telemetry, TraceEvent};
use simnet::{Env, SimDuration};
use vfs::Handle;
use xdr::{Decode, Decoder, Encode, Encoder};

/// Dirty blocks grouped by `(fileid, generation)`: `(offset, data)` runs
/// awaiting write-back. BTreeMap: flush() iterates it, and write-back
/// order must be deterministic (lint: determinism).
type DirtyByFile = BTreeMap<(u64, u64), Vec<(u64, Vec<u8>)>>;

/// One write-back slot: `(block, payload, content digest when dedup is
/// on, write verifier if the WRITE succeeded)`. The payload stays in
/// the slot so a failed or verifier-mismatched write can requeue its
/// bytes; the digest — computed (and charged) once before the send —
/// is what a durable ack records.
type WriteBackSlot = Option<(u64, Vec<u8>, Option<Digest>, Option<u64>)>;

/// Channel uploads that failed upstream, kept with their contents (and
/// the content digest, when dedup computed one) for the bounded flush
/// retry rounds.
type FailedUploads = Arc<Mutex<Vec<(FileKey, Vec<u8>, Option<Digest>)>>>;

use nfs3::args::{ReadArgs, WriteArgs};
use nfs3::proto::{
    proc3, DirOpArgs3, Fattr3, Fh3, PostOpAttr, StableHow, Status, WccData, NFS_PROGRAM, NFS_V3,
};

use crate::block_cache::{BlockCache, Tag, WritePolicy};
use crate::cas::{ContentStore, DedupTel, DedupTuning};
use crate::channel::{
    chanproc, decode_gossip, encode_gossip, ChannelClient, CHANNEL_PROGRAM, CHANNEL_V1,
    MAX_GOSSIP_DIGESTS,
};
use crate::codec::{self, CodecModel};
use crate::digest::{self, Digest};
use crate::file_cache::{CowTuning, FileCache, FileKey};
use crate::fleet::FleetTuning;
use crate::identity::IdentityMapper;
use crate::meta::{is_meta_name, meta_name_for, MetaFile};
use crate::transfer::{run_windowed, TransferTel, TransferTuning};

/// Proxy configuration — middleware sets these per user / per application.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Display name for simulation process labels.
    pub name: String,
    /// Write policy for the block cache.
    pub write_policy: WritePolicy,
    /// Interpret meta-data files (zero maps, file channel).
    pub meta_handling: bool,
    /// CPU cost per proxied call.
    pub per_op_cpu: SimDuration,
    /// When true the block cache is treated as shared read-only: absorbed
    /// writes are disabled regardless of policy (paper: "different
    /// proxies [may] share disk caches for read-only data").
    pub read_only_share: bool,
    /// Overlapped-WAN-transfer knobs: file-channel chunking, flush
    /// write-back window, sequential read-ahead depth.
    pub transfer: TransferTuning,
    /// Content-addressed redundancy elimination knobs. With
    /// [`DedupTuning::off()`] every WAN path behaves exactly as before
    /// the CAS existed (byte-for-byte identical reports).
    pub dedup: DedupTuning,
    /// Fleet-scale batching/back-pressure knobs. With
    /// [`FleetTuning::off()`] (the default) every path behaves exactly
    /// as before the fleet work existed (byte-for-byte identical
    /// reports, identical telemetry registrations).
    pub fleet: FleetTuning,
    /// Copy-on-write reference files: install channel fetches as
    /// CAS-resolved recipes instead of materialized copies. Requires
    /// `dedup` (inert without a CAS); with [`CowTuning::off()`] (the
    /// default) every path behaves exactly as before reference files
    /// existed (byte-for-byte identical reports, identical telemetry
    /// registrations).
    pub cow: CowTuning,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            name: "gvfs-proxy".into(),
            write_policy: WritePolicy::WriteBack,
            meta_handling: true,
            per_op_cpu: SimDuration::from_micros(40),
            read_only_share: false,
            transfer: TransferTuning::default(),
            dedup: DedupTuning::default(),
            fleet: FleetTuning::off(),
            cow: CowTuning::off(),
        }
    }
}

/// Proxy activity counters (a point-in-time view of the telemetry
/// registry's `gvfs/<proxy-name>.*` counters).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProxyStats {
    /// Calls handled.
    pub calls: u64,
    /// NFS READs seen.
    pub reads: u64,
    /// NFS WRITEs seen.
    pub writes: u64,
    /// Calls forwarded upstream.
    pub forwarded: u64,
    /// READs satisfied from the zero map without any upstream traffic.
    pub zero_filtered: u64,
    /// READs served from the file cache.
    pub file_cache_reads: u64,
    /// Whole files fetched through the file channel.
    pub channel_fetches: u64,
    /// Compressed bytes the channel moved (download direction).
    pub channel_wire_bytes: u64,
    /// WRITEs absorbed by write-back caching.
    pub writes_absorbed: u64,
    /// Blocks pushed upstream by flush or dirty eviction.
    pub blocks_written_back: u64,
    /// Read-ahead blocks requested upstream.
    pub prefetch_issued: u64,
    /// Demand reads served by a block that was prefetched.
    pub prefetch_hits: u64,
    /// Failed write-backs parked on the retry queue (degraded mode).
    pub wb_queued: u64,
    /// Queued write-backs given another attempt by a flush.
    pub wb_drained: u64,
    /// COMMITs whose verifier disagreed with the WRITEs' (the server
    /// restarted mid-flush and discarded the unstable data).
    pub verf_mismatches: u64,
    /// Retry rounds flushes have run to drain failed write-backs.
    pub flush_retry_rounds: u64,
    /// Bytes that never crossed the WAN because content-addressing
    /// proved the receiver already held them.
    pub dedup_bytes_avoided: u64,
    /// Recipe records satisfied without a blob fetch (CAS hit or
    /// duplicate in-flight digest).
    pub dedup_recipe_hits: u64,
    /// Distinct missing chunks actually fetched via `FETCH_BLOBS`.
    pub dedup_blob_fetches: u64,
    /// Uploads/write-backs skipped because upstream already acknowledged
    /// identical content.
    pub dedup_acked_skips: u64,
    /// Channel fetches installed as copy-on-write reference files
    /// (recipe + pins) instead of materialized copies (0 when the cow
    /// knob is off).
    pub cow_ref_installs: u64,
    /// CAS evictions refused because every candidate was pinned by a
    /// live reference file — the store over-ran capacity instead of
    /// dropping bytes a recipe still resolves through (0 when cow off).
    pub cas_pin_blocked: u64,
}

/// Report from a middleware-driven flush. Failed counts record what the
/// bounded retry rounds could *not* drain: those blocks sit on the
/// write-back retry queue and those files are re-marked dirty, so the
/// next flush signal tries again — nothing is silently dropped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushReport {
    /// Dirty blocks written upstream (durable: WRITE and COMMIT agreed
    /// on the server's write verifier).
    pub blocks: u64,
    /// Bytes written upstream (block path).
    pub block_bytes: u64,
    /// Dirty whole files uploaded through the channel.
    pub files: u64,
    /// Bytes uploaded on the wire (channel path, post-compression).
    pub file_wire_bytes: u64,
    /// Dirty blocks still on the retry queue after the retry rounds.
    pub failed_blocks: u64,
    /// Bytes belonging to `failed_blocks`.
    pub failed_block_bytes: u64,
    /// Dirty files whose channel upload kept failing; re-marked dirty in
    /// the file cache so a later flush retries the upload.
    pub failed_files: u64,
}

/// Telemetry-backed counters; `ProxyStats` is read out of these. The
/// instance name is derived from `ProxyConfig::name` (deduplicated with
/// `#2`, `#3`, ... when several proxies share a name in one simulation).
struct PxTel {
    registry: Telemetry,
    inst: String,
    /// Per-NFS-procedure call counters, registered on first use and then
    /// recorded through shared cells: the dispatch path must not take the
    /// registry lock (or build a `String` key) per request.
    nfs_procs: parking_lot::Mutex<Vec<(u32, Counter)>>,
    calls: Counter,
    reads: Counter,
    writes: Counter,
    forwarded: Counter,
    zero_filtered: Counter,
    file_cache_reads: Counter,
    channel_fetches: Counter,
    channel_wire_bytes: Counter,
    writes_absorbed: Counter,
    blocks_written_back: Counter,
    /// Dispatch-path failures converted into clean degraded handling
    /// instead of a panic (lint: panic-free-dispatch).
    recovered_errors: Counter,
    /// Blocks the read-ahead engine asked upstream for.
    prefetch_issued: Counter,
    /// Demand reads served by a block that was prefetched.
    prefetch_hits: Counter,
    /// Prefetched blocks evicted before any demand read touched them.
    prefetch_wasted: Counter,
    /// Failed write-backs parked on the retry queue (degraded mode).
    wb_queued: Counter,
    /// Queued write-backs given another attempt by a flush.
    wb_drained: Counter,
    /// COMMIT/WRITE verifier disagreements (server restart mid-flush).
    verf_mismatches: Counter,
    /// Retry rounds run by flushes to drain failed write-backs.
    flush_retry_rounds: Counter,
}

impl PxTel {
    fn register(registry: Telemetry, base: &str) -> Self {
        let inst = registry.instance_name(base);
        let c = |suffix: &str| registry.counter("gvfs", format!("{inst}.{suffix}"));
        PxTel {
            calls: c("calls"),
            reads: c("reads"),
            writes: c("writes"),
            forwarded: c("forwarded"),
            zero_filtered: c("zero_filtered"),
            file_cache_reads: c("file_cache_reads"),
            channel_fetches: c("channel_fetches"),
            channel_wire_bytes: c("channel_wire_bytes"),
            writes_absorbed: c("writes_absorbed"),
            blocks_written_back: c("blocks_written_back"),
            recovered_errors: c("recovered_errors"),
            prefetch_issued: c("prefetch_issued"),
            prefetch_hits: c("prefetch_hits"),
            prefetch_wasted: c("prefetch_wasted"),
            wb_queued: c("wb_queued"),
            wb_drained: c("wb_drained"),
            verf_mismatches: c("verf_mismatches"),
            flush_retry_rounds: c("flush_retry_rounds"),
            nfs_procs: parking_lot::Mutex::new(Vec::new()),
            inst,
            registry,
        }
    }

    /// `gvfs/<inst>.proc.<name>` counter for an NFS procedure, cached.
    fn nfs_proc_counter(&self, proc: u32) -> Counter {
        let mut procs = self.nfs_procs.lock();
        match procs.binary_search_by_key(&proc, |(p, _)| *p) {
            Ok(i) => procs[i].1.clone(),
            Err(i) => {
                let c = self.registry.counter(
                    "gvfs",
                    format!("{}.proc.{}", self.inst, nfs3::proto::proc3_name(proc)),
                );
                procs.insert(i, (proc, c.clone()));
                c
            }
        }
    }
}

/// Digest-keyed `FETCH_BLOBS` reply cache with the same bounded
/// discipline as [`ContentStore`]: a monotonic touch stamp drives
/// deterministic least-recently-touched eviction, and the stored reply
/// bytes never exceed the byte cap. Unbounded growth here would hold
/// every distinct chunk of a cloning run in host memory twice (once in
/// the CAS, once as a cached reply).
struct BlobReplyCache {
    // BTreeMap both ways: iteration feeds eviction, which must be
    // deterministic (lint: determinism).
    entries: BTreeMap<Digest, (u64, xdr::Bytes)>,
    /// Touch stamp → digest, oldest first.
    lru: BTreeMap<u64, Digest>,
    bytes: u64,
    cap: u64,
    stamp: u64,
}

impl BlobReplyCache {
    fn new(cap: u64) -> Self {
        BlobReplyCache {
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            bytes: 0,
            cap,
            stamp: 0,
        }
    }

    fn get(&mut self, d: &Digest) -> Option<xdr::Bytes> {
        self.stamp += 1;
        let stamp = self.stamp;
        let e = self.entries.get_mut(d)?;
        self.lru.remove(&e.0);
        e.0 = stamp;
        self.lru.insert(stamp, *d);
        Some(e.1.clone())
    }

    fn insert(&mut self, d: Digest, reply: xdr::Bytes) {
        let len = reply.len() as u64;
        if len > self.cap {
            return;
        }
        if let Some((old_stamp, old)) = self.entries.remove(&d) {
            self.lru.remove(&old_stamp);
            self.bytes -= old.len() as u64;
        }
        while self.bytes + len > self.cap {
            let Some((&oldest, &victim)) = self.lru.iter().next() else {
                break;
            };
            self.lru.remove(&oldest);
            if let Some((_, body)) = self.entries.remove(&victim) {
                self.bytes -= body.len() as u64;
            }
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.bytes += len;
        self.entries.insert(d, (stamp, reply));
        self.lru.insert(stamp, d);
    }
}

/// Safety valve on the durable-ack map: one entry per 32 KB block, so
/// this covers 2 GiB of distinct tracked blocks before the flush pass
/// starts shedding the lexicographically first entries. Losing an
/// entry only costs a redundant resend, never correctness.
const ACKED_CAP: usize = 1 << 16;

/// Safety valve on cached `FETCH_RECIPE` replies (one per
/// (file, chunk size); recipes are small, so a generous count cap
/// suffices). HashMap iteration is nondeterministic, so overflow
/// clears the whole map rather than picking victims.
const RECIPE_REPLY_CAP: usize = 4096;

struct ProxyState {
    meta: HashMap<FileKey, Option<Arc<MetaFile>>>,
    sizes: HashMap<FileKey, u64>,
    /// Single-flight guard: file-channel fetches in progress. Concurrent
    /// READ misses on the same file (the kernel client's parallel read
    /// workers) must trigger ONE whole-file transfer, with the rest
    /// blocking until the file cache is populated.
    inflight_fetch: HashMap<FileKey, simnet::Signal>,
    /// Cached file-channel FETCH replies (results bytes), for second-level
    /// proxies serving repeated clonings on a LAN.
    chan_replies: HashMap<FileKey, xdr::Bytes>,
    /// Cached FETCH_CHUNK replies keyed by (file, offset, count) — the
    /// chunked analogue of `chan_replies`.
    chan_chunk_replies: HashMap<(FileKey, u64, u32), xdr::Bytes>,
    /// Per-file sequential-miss detector: (last missed block, run length).
    streaks: HashMap<FileKey, (u64, u32)>,
    /// Blocks a prefetch worker is currently fetching, with a signal set
    /// once the fetch lands. Suppresses duplicate prefetches; a racing
    /// demand miss waits on the signal instead of duplicating the
    /// upstream READ.
    inflight_prefetch: BTreeMap<Tag, simnet::Signal>,
    /// Blocks installed by read-ahead and not yet touched by a demand
    /// read. Removal on demand hit counts `prefetch_hits`; found evicted
    /// counts `prefetch_wasted`.
    prefetched: BTreeSet<Tag>,
    /// Blocks a demand miss is currently fetching upstream. The kernel
    /// client pipelines its own readahead as parallel READs, so the
    /// demand READ for block b+1 is often already in flight when block
    /// b's hit triggers read-ahead — without this set the prefetcher
    /// would fetch b+1 a second time over the WAN.
    inflight_demand: BTreeSet<Tag>,
    /// Degraded-mode write-back retry queue: dirty blocks whose upstream
    /// WRITE (or the covering COMMIT) failed. Flush drains it with
    /// bounded-backoff retry rounds; until then the bytes live here
    /// instead of being dropped. BTreeMap: drained in deterministic
    /// order (lint: determinism).
    wb_queue: BTreeMap<Tag, Vec<u8>>,
    /// Per-block digest + write verifier upstream last *durably*
    /// acknowledged (WRITE and COMMIT verifiers agreed, RFC 1813
    /// §3.3.7). A later flush finding the same digest under the same
    /// verifier skips the redundant UNSTABLE WRITE; a restarted server
    /// rotates its verifier, which invalidates every entry at the
    /// covering COMMIT. An entry is removed the moment any upstream
    /// WRITE for its block is issued outside a validated skip — even
    /// one whose reply was lost may have mutated the server, so only a
    /// fresh durable agreement may reinstate it (no A-B-A). Bounded by
    /// [`ACKED_CAP`]. BTreeMap: determinism lint.
    acked: BTreeMap<Tag, (Digest, u64)>,
    /// Cached `FETCH_RECIPE` replies keyed by (file, chunk size) — the
    /// recipe analogue of `chan_chunk_replies` for second-level
    /// proxies. Bounded by [`RECIPE_REPLY_CAP`].
    chan_recipe_replies: HashMap<(FileKey, u32), xdr::Bytes>,
    /// Cached `FETCH_BLOBS` replies keyed by *content digest*: eight
    /// distinct images sharing chunks dedupe on a second-level LAN
    /// proxy even though their file handles differ. Entries are
    /// verified against their digest before insertion and LRU-bounded
    /// by the CAS byte cap.
    chan_blob_replies: BlobReplyCache,
    /// Single-flight guard for blob fetches, keyed by content digest
    /// (not file handle): concurrent clonings of *different* images
    /// coalesce on the chunks they share.
    inflight_blob: BTreeMap<Digest, simnet::Signal>,
    /// Blob misses waiting to join the next upstream batch envelope
    /// (fleet batching only): `(digest, original request args)` in
    /// arrival order. Each entry also holds a signal in `inflight_blob`.
    batch_pending: Vec<(Digest, xdr::Bytes)>,
    /// Whether a batch leader is currently collecting `batch_pending`
    /// (fleet batching only). New misses arriving while true just park;
    /// the leader drains them in bounded rounds.
    batch_open: bool,
    /// Digests freshly cached by a batch round whose *original*
    /// requester has not been served yet. The first cache serve of such
    /// a digest skips the dedup-hit accounting (those bytes did cross
    /// the upstream link once, for that very requester); later sharers
    /// count normally.
    batch_uncounted: BTreeSet<Digest>,
    /// Append-only log of blob digests this proxy has cached, in cache
    /// order (gossip only). Anti-entropy rounds push bounded deltas of
    /// this log to each peer, tracked by per-peer cursors — entries are
    /// 16 bytes, so even a 10k-clone run's log stays tiny relative to
    /// the payload cache it indexes.
    gossip_log: Vec<Digest>,
    /// Per-peer cursor into `gossip_log` for the *reply* direction of
    /// anti-entropy: how much of our log the named peer has already been
    /// told in our `GOSSIP_DIGESTS` replies. BTreeMap: determinism lint.
    gossip_reply_cursor: BTreeMap<u32, usize>,
    /// What we believe each sibling shard holds, learned from gossip
    /// (push messages and pull replies). Advisory only: a peer may have
    /// evicted an advertised digest, in which case the peer fetch fails
    /// and the miss falls back upstream. BTreeMap: determinism lint.
    peer_digests: BTreeMap<u32, BTreeSet<Digest>>,
}

/// Write-back queue back-pressure policy (satellite of the fleet work):
/// `cap == 0` is the historical unbounded queue; the telemetry cells are
/// registered only when a cap is configured, so legacy snapshots carry
/// no new counters.
#[derive(Clone)]
struct WbPolicy {
    cap: usize,
    /// Parked blocks shed by the cap (oldest-tag first).
    shed: Option<Counter>,
    /// High-water mark of the parked-queue depth.
    high_water: Option<Counter>,
}

/// Park a failed write-back on the retry queue, enforcing the fleet cap.
/// Must run under the state lock (takes `&mut ProxyState`); shedding is
/// deterministic (oldest tag in `BTreeMap` order goes first).
fn park_wb_entry(st: &mut ProxyState, wb_queued: &Counter, wb: &WbPolicy, tag: Tag, data: Vec<u8>) {
    wb_queued.inc();
    st.wb_queue.insert(tag, data);
    if wb.cap > 0 && st.wb_queue.len() > wb.cap {
        // Bounded memory beats durability of the oldest parked block
        // under a sustained upstream outage; the shed is surfaced via
        // telemetry rather than silently dropped.
        if st.wb_queue.pop_first().is_some() {
            if let Some(shed) = &wb.shed {
                shed.inc();
            }
        }
    }
    if let Some(hw) = &wb.high_water {
        let depth = st.wb_queue.len() as u64;
        let seen = hw.get();
        if depth > seen {
            hw.add(depth - seen);
        }
    }
}

/// Peer wiring for intra-region digest gossip, set once by middleware
/// via [`Proxy::set_gossip_peers`] after the sibling shards' channels
/// exist.
struct GossipPeers {
    /// This shard's id as it appears in gossip messages.
    my_id: u32,
    /// Sibling shards in the same region: `(shard id, LAN client)`.
    peers: Vec<(u32, RpcClient)>,
    /// Round-robin index of the next anti-entropy target.
    next: usize,
    /// Per-peer cursor into our `gossip_log` for the *push* direction:
    /// how much of our log we have successfully pushed to each peer.
    /// Advances only on a successful round, so a lost message is simply
    /// retransmitted next period. BTreeMap: determinism lint.
    sent_cursor: BTreeMap<u32, usize>,
}

/// Gossip runtime state + telemetry (present iff `cfg.fleet.gossip` and
/// dedup are both on; registration is gated exactly like the other
/// fleet counters so gossip-off snapshots stay byte-identical).
struct GossipCtl {
    peers: Mutex<GossipPeers>,
    /// Anti-entropy rounds this shard initiated.
    rounds: Counter,
    /// Digests learned about peers (both directions).
    digests_learned: Counter,
    /// Blob misses served by a sibling shard instead of the WAN.
    peer_hits: Counter,
    /// Logical chunk bytes those peer serves carried (WAN bytes saved).
    peer_bytes: Counter,
    /// Peer fetches that failed (stale advertisement / lost message);
    /// the miss falls back to the normal upstream path.
    peer_misses: Counter,
    /// Blob requests this shard served *to* siblings.
    peer_served: Counter,
}

/// A GVFS proxy instance. Implements [`RpcHandler`], so it plugs directly
/// into an [`oncrpc::Listener`].
pub struct Proxy {
    cfg: ProxyConfig,
    upstream: RpcClient,
    chan: Option<ChannelClient>,
    block_cache: Option<Arc<BlockCache>>,
    file_cache: Option<Arc<FileCache>>,
    identity: Option<Arc<IdentityMapper>>,
    tel: PxTel,
    ttel: TransferTel,
    dtel: DedupTel,
    /// Content-addressed store over this proxy's resident cache bytes
    /// (present iff `cfg.dedup.enabled`).
    cas: Option<Arc<ContentStore>>,
    /// CPU-cost model for the proxy's own digest/codec work (flush-side
    /// digesting, blob verification). Mirrors the channel client's model
    /// when a file channel is attached, so dedup CPU is priced the same
    /// on every path.
    codec: CodecModel,
    /// Per-instance write verifier returned in absorbed WRITE/COMMIT
    /// replies (write-back mode answers both locally, so it speaks for
    /// the stability of its own cache disk).
    write_verf: u64,
    /// Write-back queue cap/shed policy (counters registered only when
    /// `cfg.fleet` configures a cap).
    wb: WbPolicy,
    /// Upstream batch envelopes issued by fleet blob coalescing
    /// (registered only when `cfg.fleet` enables batching).
    fleet_batches: Option<Counter>,
    /// Sub-calls those envelopes carried (`items / batches` = achieved
    /// coalescing factor).
    fleet_batched_items: Option<Counter>,
    /// Intra-region digest gossip runtime (present iff `cfg.fleet.gossip`
    /// and dedup are both enabled).
    gossip: Option<GossipCtl>,
    /// Channel fetches installed as reference files (registered only
    /// when the cow knob is active, i.e. cow *and* dedup enabled).
    cow_installs: Option<Counter>,
    /// CAS evictions refused under pin pressure (same registration
    /// gate; the counter is shared with the content store).
    cow_pin_blocked: Option<Counter>,
    // Arc: detached prefetch workers share the state (and the Mutex
    // inside keeps critical sections short — no suspends under it).
    state: Arc<Mutex<ProxyState>>,
}

fn key_of(h: Handle) -> FileKey {
    FileKey {
        fileid: h.fileid,
        generation: h.generation,
    }
}

/// Best known size of a file: local override (absorbed writes), then
/// meta-data, then the file cache. A free function so detached prefetch
/// workers share it with [`Proxy::known_size`].
fn known_size_in(
    state: &Mutex<ProxyState>,
    file_cache: &Option<Arc<FileCache>>,
    key: FileKey,
) -> Option<u64> {
    {
        let st = state.lock();
        if let Some(s) = st.sizes.get(&key) {
            return Some(*s);
        }
        if let Some(Some(m)) = st.meta.get(&key) {
            return Some(m.file_size);
        }
    }
    file_cache.as_ref().and_then(|fc| fc.size_of(key))
}

/// Push an evicted dirty block upstream, truncated to the best-known
/// file size. Success counts into `written_back`; a failed WRITE parks
/// the block on the write-back retry queue (degraded mode) for the next
/// flush to drain, instead of dropping the bytes.
#[allow(clippy::too_many_arguments)]
fn writeback_evicted_block(
    env: &Env,
    upstream: &RpcClient,
    state: &Mutex<ProxyState>,
    file_cache: &Option<Arc<FileCache>>,
    bs: u64,
    written_back: &Counter,
    recovered_errors: &Counter,
    wb_queued: &Counter,
    wb: &WbPolicy,
    tag: Tag,
    data: Vec<u8>,
) {
    let key = FileKey {
        fileid: tag.fileid,
        generation: tag.generation,
    };
    let off = tag.block * bs;
    let mut payload = data;
    if let Some(size) = known_size_in(state, file_cache, key) {
        if off >= size {
            return;
        }
        payload.truncate(((size - off).min(bs)) as usize);
    }
    let nfs = nfs3::Nfs3Client::new(upstream.clone());
    let h = Handle {
        fileid: tag.fileid,
        generation: tag.generation,
    };
    // The UNSTABLE WRITE below may reach the server even when its reply
    // is lost, so any remembered durable ack for this block stops being
    // trustworthy the moment the write is issued (A-B-A): only a fresh
    // WRITE+COMMIT verifier agreement in the flush path reinstates it.
    state.lock().acked.remove(&tag);
    if nfs
        .write(env, h, off, payload.clone(), StableHow::Unstable)
        .is_ok()
    {
        written_back.inc();
    } else {
        recovered_errors.inc();
        park_wb_entry(&mut state.lock(), wb_queued, wb, tag, payload);
    }
}

/// Everything a detached read-ahead worker needs, detached from `&Proxy`
/// (the proxy sits behind an `Arc` owned by the listener; workers only
/// hold the pieces they touch).
#[derive(Clone)]
struct PrefetchCtx {
    upstream: RpcClient,
    bc: Arc<BlockCache>,
    state: Arc<Mutex<ProxyState>>,
    file_cache: Option<Arc<FileCache>>,
    cas: Option<Arc<ContentStore>>,
    written_back: Counter,
    recovered_errors: Counter,
    wb_queued: Counter,
    wb: WbPolicy,
}

impl Proxy {
    /// Build a proxy forwarding to `upstream`. Counters register in the
    /// telemetry registry of the simulation the upstream channel belongs
    /// to, under `gvfs/<cfg.name>.*`.
    pub fn new(cfg: ProxyConfig, upstream: RpcClient) -> Self {
        let registry = upstream.channel().handle().telemetry().clone();
        let tel = PxTel::register(registry, &cfg.name);
        let ttel = TransferTel::register(&tel.registry, &tel.inst);
        let dtel = DedupTel::register(&tel.registry, &tel.inst);
        // Per-instance seed for the write verifier (RFC 1813 requires the
        // verifier to change when the *server* instance changes; two
        // proxies must never share one).
        let write_verf = simnet::splitmix64(digest::seed64(tel.inst.as_bytes()));
        // Copy-on-write is meaningful only with a CAS to resolve recipes
        // against; with dedup off the knob is inert (and registers no
        // telemetry, keeping legacy snapshots byte-identical).
        let cow_on = cfg.cow.enabled && cfg.dedup.enabled;
        let cow_pin_blocked = cow_on.then(|| {
            tel.registry
                .counter("gvfs", format!("{}.cas.pin_blocked_evictions", tel.inst))
        });
        let cas = if cfg.dedup.enabled {
            let store = ContentStore::new(cfg.dedup.cas_bytes);
            let store = match &cow_pin_blocked {
                Some(c) => store.with_pin_blocked_counter(c.clone()),
                None => store,
            };
            Some(Arc::new(store))
        } else {
            None
        };
        let cow_installs = cow_on.then(|| {
            tel.registry
                .counter("gvfs", format!("{}.cow.ref_installs", tel.inst))
        });
        let blob_reply_cap = cfg.dedup.cas_bytes;
        // Fleet telemetry registers only when the knobs are on, so a
        // legacy configuration's snapshot carries exactly the historical
        // counter set.
        let wb = WbPolicy {
            cap: cfg.fleet.wb_queue_cap,
            shed: (cfg.fleet.wb_queue_cap > 0).then(|| {
                tel.registry
                    .counter("gvfs", format!("{}.wb_shed", tel.inst))
            }),
            high_water: (cfg.fleet.wb_queue_cap > 0).then(|| {
                tel.registry
                    .counter("gvfs", format!("{}.wb_high_water", tel.inst))
            }),
        };
        let fleet_batches = cfg.fleet.batch_fetch.then(|| {
            tel.registry
                .counter("gvfs", format!("{}.fleet.batches", tel.inst))
        });
        let fleet_batched_items = cfg.fleet.batch_fetch.then(|| {
            tel.registry
                .counter("gvfs", format!("{}.fleet.batched_items", tel.inst))
        });
        // Gossip needs the digest-keyed reply cache both as the
        // inventory being advertised and as the store peer fetches are
        // served from, so it is inert without dedup (same dependency as
        // batching); the counters register only when it is live.
        let gossip = (cfg.fleet.gossip && cfg.dedup.enabled).then(|| GossipCtl {
            peers: Mutex::new(GossipPeers {
                my_id: 0,
                peers: Vec::new(),
                next: 0,
                sent_cursor: BTreeMap::new(),
            }),
            rounds: tel
                .registry
                .counter("gvfs", format!("{}.gossip.rounds", tel.inst)),
            digests_learned: tel
                .registry
                .counter("gvfs", format!("{}.gossip.digests_learned", tel.inst)),
            peer_hits: tel
                .registry
                .counter("gvfs", format!("{}.gossip.peer_hits", tel.inst)),
            peer_bytes: tel
                .registry
                .counter("gvfs", format!("{}.gossip.peer_bytes", tel.inst)),
            peer_misses: tel
                .registry
                .counter("gvfs", format!("{}.gossip.peer_misses", tel.inst)),
            peer_served: tel
                .registry
                .counter("gvfs", format!("{}.gossip.peer_served", tel.inst)),
        });
        Proxy {
            cfg,
            upstream,
            chan: None,
            block_cache: None,
            file_cache: None,
            identity: None,
            tel,
            ttel,
            dtel,
            cas,
            codec: CodecModel::default(),
            write_verf,
            wb,
            fleet_batches,
            fleet_batched_items,
            gossip,
            cow_installs,
            cow_pin_blocked,
            state: Arc::new(Mutex::new(ProxyState {
                meta: HashMap::new(),
                sizes: HashMap::new(),
                inflight_fetch: HashMap::new(),
                chan_replies: HashMap::new(),
                chan_chunk_replies: HashMap::new(),
                streaks: HashMap::new(),
                inflight_prefetch: BTreeMap::new(),
                prefetched: BTreeSet::new(),
                inflight_demand: BTreeSet::new(),
                wb_queue: BTreeMap::new(),
                acked: BTreeMap::new(),
                chan_recipe_replies: HashMap::new(),
                chan_blob_replies: BlobReplyCache::new(blob_reply_cap),
                inflight_blob: BTreeMap::new(),
                batch_pending: Vec::new(),
                batch_open: false,
                batch_uncounted: BTreeSet::new(),
                gossip_log: Vec::new(),
                gossip_reply_cursor: BTreeMap::new(),
                peer_digests: BTreeMap::new(),
            })),
        }
    }

    /// Attach a block-based disk cache.
    pub fn with_block_cache(mut self, cache: Arc<BlockCache>) -> Self {
        self.block_cache = Some(cache);
        self
    }

    /// Attach a file cache and the channel client used to fill it.
    pub fn with_file_channel(mut self, cache: Arc<FileCache>, chan: ChannelClient) -> Self {
        self.file_cache = Some(cache);
        self.codec = *chan.codec();
        self.chan = Some(chan);
        self
    }

    /// Attach identity mapping (server-side proxies).
    pub fn with_identity(mut self, mapper: Arc<IdentityMapper>) -> Self {
        self.identity = Some(mapper);
        self
    }

    /// Finalize into a handler for an RPC listener.
    pub fn into_handler(self) -> Arc<Proxy> {
        Arc::new(self)
    }

    /// Counter snapshot (reads the shared telemetry counters).
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            calls: self.tel.calls.get(),
            reads: self.tel.reads.get(),
            writes: self.tel.writes.get(),
            forwarded: self.tel.forwarded.get(),
            zero_filtered: self.tel.zero_filtered.get(),
            file_cache_reads: self.tel.file_cache_reads.get(),
            channel_fetches: self.tel.channel_fetches.get(),
            channel_wire_bytes: self.tel.channel_wire_bytes.get(),
            writes_absorbed: self.tel.writes_absorbed.get(),
            blocks_written_back: self.tel.blocks_written_back.get(),
            prefetch_issued: self.tel.prefetch_issued.get(),
            prefetch_hits: self.tel.prefetch_hits.get(),
            wb_queued: self.tel.wb_queued.get(),
            wb_drained: self.tel.wb_drained.get(),
            verf_mismatches: self.tel.verf_mismatches.get(),
            flush_retry_rounds: self.tel.flush_retry_rounds.get(),
            dedup_bytes_avoided: self.dtel.bytes_avoided.get(),
            dedup_recipe_hits: self.dtel.recipe_hits.get(),
            dedup_blob_fetches: self.dtel.blob_fetches.get(),
            dedup_acked_skips: self.dtel.acked_skips.get(),
            cow_ref_installs: self.cow_installs.as_ref().map(|c| c.get()).unwrap_or(0),
            cas_pin_blocked: self.cow_pin_blocked.as_ref().map(|c| c.get()).unwrap_or(0),
        }
    }

    /// This proxy's write verifier (what absorbed WRITE/COMMIT replies
    /// carry).
    pub fn write_verf(&self) -> u64 {
        self.write_verf
    }

    /// Dirty blocks currently parked on the write-back retry queue.
    pub fn wb_queue_len(&self) -> usize {
        self.state.lock().wb_queue.len()
    }

    /// Parked write-back blocks shed by the fleet queue cap (0 when no
    /// cap is configured).
    pub fn wb_shed(&self) -> u64 {
        self.wb.shed.as_ref().map(|c| c.get()).unwrap_or(0)
    }

    /// High-water mark of the write-back retry queue depth (0 when no
    /// cap is configured — the mark is only tracked under a cap).
    pub fn wb_high_water(&self) -> u64 {
        self.wb.high_water.as_ref().map(|c| c.get()).unwrap_or(0)
    }

    /// `(envelopes, sub-calls)` issued by fleet blob coalescing; the
    /// ratio is the achieved batching factor. Zeros when batching is
    /// off.
    pub fn fleet_batch_stats(&self) -> (u64, u64) {
        (
            self.fleet_batches.as_ref().map(|c| c.get()).unwrap_or(0),
            self.fleet_batched_items
                .as_ref()
                .map(|c| c.get())
                .unwrap_or(0),
        )
    }

    /// Reset counters.
    pub fn reset_stats(&self) {
        self.tel.calls.reset();
        self.tel.reads.reset();
        self.tel.writes.reset();
        self.tel.forwarded.reset();
        self.tel.zero_filtered.reset();
        self.tel.file_cache_reads.reset();
        self.tel.channel_fetches.reset();
        self.tel.channel_wire_bytes.reset();
        self.tel.writes_absorbed.reset();
        self.tel.blocks_written_back.reset();
        self.dtel.bytes_avoided.reset();
        self.dtel.recipe_hits.reset();
        self.dtel.blob_fetches.reset();
        self.dtel.acked_skips.reset();
        if let Some(c) = &self.cow_installs {
            c.reset();
        }
        if let Some(c) = &self.cow_pin_blocked {
            c.reset();
        }
    }

    /// The content-addressed store, when dedup is enabled.
    pub fn content_store(&self) -> Option<&Arc<ContentStore>> {
        self.cas.as_ref()
    }

    /// The attached block cache, if any.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// The attached file cache, if any.
    pub fn file_cache(&self) -> Option<&Arc<FileCache>> {
        self.file_cache.as_ref()
    }

    // -- forwarding ---------------------------------------------------------

    /// Forward a call upstream and wrap the outcome for the downstream xid.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        prog: u32,
        vers: u32,
        proc: u32,
        args: xdr::Bytes,
    ) -> RpcMessage {
        self.tel.forwarded.inc();
        let client = self.upstream.with_cred(cred.clone());
        match client.call_dl(env, prog, vers, proc, &args) {
            Ok(results) => RpcMessage::success(xid, results),
            Err(e) => Self::error_reply(xid, e),
        }
    }

    fn error_reply(xid: u32, e: RpcError) -> RpcMessage {
        match e {
            RpcError::Accept(stat) => RpcMessage::accept_error(xid, stat),
            RpcError::Denied(stat) => RpcMessage::denied(xid, stat),
            _ => RpcMessage::accept_error(xid, AcceptStat::SystemErr),
        }
    }

    // -- meta-data ----------------------------------------------------------

    /// On a successful LOOKUP of `name`, discover and load the associated
    /// meta-data file (paper: "the meta-data file is stored in the same
    /// directory ... and has a special filename so that it can be easily
    /// looked up").
    fn discover_meta(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        dir: Handle,
        name: &str,
        subject: Handle,
    ) {
        if !self.cfg.meta_handling || is_meta_name(name) {
            return;
        }
        let key = key_of(subject);
        if self.state.lock().meta.contains_key(&key) {
            return;
        }
        let nfs = nfs3::Nfs3Client::new(self.upstream.with_cred(cred.clone()));
        #[cfg(feature = "debug-trace")]
        eprintln!("[gvfs] meta discovery for {name}");
        let meta = (|| -> Option<Arc<MetaFile>> {
            let (meta_fh, attr) = nfs.lookup(env, dir, &meta_name_for(name)).ok()?;
            let size = attr.map(|a| a.size).unwrap_or(0);
            let mut contents = Vec::with_capacity(size as usize);
            let mut off = 0u64;
            loop {
                let r = nfs.read(env, meta_fh, off, nfs3::MAX_BLOCK).ok()?;
                off += r.data.len() as u64;
                let done = r.eof || r.data.is_empty();
                contents.extend_from_slice(&r.data);
                if done {
                    break;
                }
            }
            MetaFile::from_bytes(&contents).map(Arc::new)
        })();
        #[cfg(feature = "debug-trace")]
        eprintln!("[gvfs] meta for {name}: {}", meta.is_some());
        self.state.lock().meta.insert(key, meta);
    }

    fn meta_for(&self, key: FileKey) -> Option<Arc<MetaFile>> {
        self.state.lock().meta.get(&key).cloned().flatten()
    }

    /// Best known size of a file: local override (absorbed writes), then
    /// meta-data, then unknown.
    fn known_size(&self, key: FileKey) -> Option<u64> {
        known_size_in(&self.state, &self.file_cache, key)
    }

    fn bump_size(&self, key: FileKey, end: u64) {
        let mut st = self.state.lock();
        let e = st.sizes.entry(key).or_insert(0);
        *e = (*e).max(end);
    }

    /// Drop remembered durable acks for every block touching
    /// `[offset, offset + len)` before a WRITE for that range goes
    /// upstream outside the flush path: once any unconfirmed write may
    /// have mutated the server copy, the old ack can no longer justify
    /// a dedup skip (A-B-A).
    fn invalidate_acked_range(&self, key: FileKey, offset: u64, len: u64) {
        if self.cas.is_none() || len == 0 {
            return;
        }
        let bs = self
            .block_cache
            .as_ref()
            .map(|b| b.config().block_size as u64)
            .unwrap_or(32 * 1024);
        let first = offset / bs;
        let last = (offset + len - 1) / bs;
        let mut st = self.state.lock();
        for block in first..=last {
            st.acked.remove(&Tag {
                fileid: key.fileid,
                generation: key.generation,
                block,
            });
        }
    }

    // -- READ ---------------------------------------------------------------

    fn read_reply(xid: u32, data: Vec<u8>, eof: bool) -> RpcMessage {
        let mut enc = Encoder::new();
        enc.put_u32(Status::Ok.as_u32());
        PostOpAttr(None).encode(&mut enc);
        enc.put_u32(data.len() as u32);
        enc.put_bool(eof);
        enc.put_opaque_var(&data);
        RpcMessage::success(xid, enc.into_bytes())
    }

    /// An NFS READ failure reply (status + no attributes), matching the
    /// server's resfail encoding.
    fn read_error_reply(xid: u32, status: Status) -> RpcMessage {
        let mut enc = Encoder::new();
        enc.put_u32(status.as_u32());
        PostOpAttr(None).encode(&mut enc);
        RpcMessage::success(xid, enc.into_bytes())
    }

    fn handle_read(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        let parsed: Result<ReadArgs, _> = xdr::from_bytes(&args);
        let a = match parsed {
            Ok(a) => a,
            Err(_) => return self.forward(env, xid, cred, NFS_PROGRAM, NFS_V3, proc3::READ, args),
        };
        self.tel.reads.inc();
        let key = key_of(a.file.0);

        // 1. File cache ("read locally" of an installed file).
        if let Some(fc) = &self.file_cache {
            if let Some((data, eof)) = fc.read(env, key, a.offset, a.count) {
                self.tel.file_cache_reads.inc();
                return Self::read_reply(xid, data, eof);
            }
        }

        let meta = if self.cfg.meta_handling {
            self.meta_for(key)
        } else {
            None
        };

        // 2. File channel: fetch the whole file on first access, with
        // single-flight de-duplication across concurrent readers.
        if let (Some(m), Some(fc), Some(chan)) = (&meta, &self.file_cache, &self.chan) {
            if m.channel.is_some() {
                // Bounded single-flight: a request re-enters the loop when
                // a fetch it waited on failed (the old unbounded loop let
                // woken waiters stampede the retry slot forever).
                const MAX_FETCH_ATTEMPTS: u32 = 3;
                let mut attempts = 0u32;
                loop {
                    if let Some((data, eof)) = fc.read(env, key, a.offset, a.count) {
                        self.tel.file_cache_reads.inc();
                        return Self::read_reply(xid, data, eof);
                    }
                    attempts += 1;
                    if attempts > MAX_FETCH_ATTEMPTS {
                        self.tel.recovered_errors.inc();
                        return Self::read_error_reply(xid, Status::Io);
                    }
                    // Join an in-progress fetch, or claim the fetch.
                    let waiter = {
                        let mut st = self.state.lock();
                        match st.inflight_fetch.get(&key) {
                            Some(sig) => Some(sig.clone()),
                            None => {
                                st.inflight_fetch
                                    .insert(key, simnet::Signal::new(env.handle()));
                                None
                            }
                        }
                    };
                    match waiter {
                        Some(sig) => {
                            sig.wait(env);
                            // Re-check the file cache (fetch may have
                            // failed; then we claim the retry slot).
                            continue;
                        }
                        None => {
                            let t = &self.cfg.transfer;
                            // Recipe-driven fetch when dedup is on: chunks
                            // the CAS already holds never cross the WAN.
                            // Any dedup failure falls back to the plain
                            // chunked transfer (correctness never depends
                            // on the CAS).
                            // With fleet batching on, the misses travel
                            // in multi-digest envelopes: `max_batch`
                            // records per upstream round-trip instead of
                            // one, windows of envelopes in flight.
                            let dedup_batch = if self.cfg.fleet.batch_fetch {
                                self.cfg.fleet.max_batch.max(1)
                            } else {
                                1
                            };
                            // Copy-on-write: resolve the recipe straight
                            // into the CAS (pinning every record) and
                            // install the file as a reference — zero
                            // cache-disk install for resident content, a
                            // warm clone's dominant saving. Any failure
                            // falls back to the materializing fetch; the
                            // helper released its pins.
                            let mut installed_ref = false;
                            if self.cfg.cow.enabled {
                                if let Some(cas) = &self.cas {
                                    if let Ok(pr) = chan.fetch_recipe_pinned(
                                        env,
                                        a.file.0,
                                        m.content_map.as_ref(),
                                        t.chunk_bytes,
                                        t.channel_window,
                                        dedup_batch,
                                        cas,
                                        &self.dtel,
                                        Some(&self.ttel),
                                    ) {
                                        let chunk = pr.recipe.chunk_bytes;
                                        fc.install_reference(
                                            env,
                                            key,
                                            cas.clone(),
                                            chunk,
                                            pr.recipe.records,
                                            pr.fresh_bytes,
                                        );
                                        if let Some(c) = &self.cow_installs {
                                            c.inc();
                                        }
                                        self.tel.channel_fetches.inc();
                                        self.tel.channel_wire_bytes.add(pr.wire);
                                        let tr = &self.tel.registry;
                                        if tr.trace_enabled() {
                                            tr.trace(
                                                TraceEvent::new(env.now(), "gvfs", "channel_fetch")
                                                    .bytes(pr.wire)
                                                    .label("proxy", self.tel.inst.clone()),
                                            );
                                        }
                                        installed_ref = true;
                                    }
                                }
                            }
                            let result = if installed_ref {
                                true
                            } else {
                                let fetched = match &self.cas {
                                    Some(cas) => chan
                                        .fetch_dedup_batched(
                                            env,
                                            a.file.0,
                                            m.content_map.as_ref(),
                                            t.chunk_bytes,
                                            t.channel_window,
                                            dedup_batch,
                                            cas,
                                            &self.dtel,
                                            Some(&self.ttel),
                                        )
                                        .map(|df| (df.contents, df.wire))
                                        .or_else(|_| {
                                            self.tel.recovered_errors.inc();
                                            chan.fetch_chunked(
                                                env,
                                                a.file.0,
                                                t.chunk_bytes,
                                                t.channel_window,
                                                Some(&self.ttel),
                                            )
                                        }),
                                    None => chan.fetch_chunked(
                                        env,
                                        a.file.0,
                                        t.chunk_bytes,
                                        t.channel_window,
                                        Some(&self.ttel),
                                    ),
                                };
                                match fetched {
                                    Ok((contents, wire)) => {
                                        #[cfg(feature = "debug-trace")]
                                        eprintln!(
                                            "[gvfs] channel fetch ok: {} bytes, {} wire",
                                            contents.len(),
                                            wire
                                        );
                                        // Dedup saves WAN transfer and
                                        // origin work; the assembled file
                                        // is written to the local cache
                                        // disk in full either way (a CAS
                                        // hit is host memory, not
                                        // cache-disk residency).
                                        fc.install(env, key, &contents);
                                        self.tel.channel_fetches.inc();
                                        self.tel.channel_wire_bytes.add(wire);
                                        let tr = &self.tel.registry;
                                        if tr.trace_enabled() {
                                            tr.trace(
                                                TraceEvent::new(env.now(), "gvfs", "channel_fetch")
                                                    .bytes(wire)
                                                    .label("proxy", self.tel.inst.clone()),
                                            );
                                        }
                                        true
                                    }
                                    Err(_e) => {
                                        #[cfg(feature = "debug-trace")]
                                        eprintln!("[gvfs] channel fetch failed: {_e:?}");
                                        false
                                    }
                                }
                            };
                            let sig = { self.state.lock().inflight_fetch.remove(&key) };
                            if let Some(sig) = sig {
                                sig.set();
                            }
                            if result {
                                if let Some((data, eof)) = fc.read(env, key, a.offset, a.count) {
                                    self.tel.file_cache_reads.inc();
                                    return Self::read_reply(xid, data, eof);
                                }
                            }
                            break; // channel unusable: block path below
                        }
                    }
                }
            }
        }

        // 3. Zero map: serve all-zero ranges locally.
        if let Some(m) = &meta {
            if let Some(zm) = &m.zero_map {
                let size = self.known_size(key).unwrap_or(m.file_size);
                if zm.range_is_zero(a.offset, a.count) {
                    self.tel.zero_filtered.inc();
                    if a.offset >= size {
                        return Self::read_reply(xid, Vec::new(), true);
                    }
                    let len = (a.count as u64).min(size - a.offset) as usize;
                    let eof = a.offset + len as u64 >= size;
                    return Self::read_reply(xid, vec![0u8; len], eof);
                }
            }
        }

        // 4. Block cache: serve any read that falls inside a single
        // cache block. Sub-block serving matters because kernel reads
        // (rsize, typically 8 KB) are smaller than cache blocks (32 KB):
        // without it only the 1-in-4 block-aligned read ever hits, and a
        // prefetched block pays for 32 KB of WAN transfer but saves only
        // 8 KB of forwards.
        if let Some(bc) = &self.block_cache {
            let bs = bc.config().block_size as u64;
            let in_block = a.offset % bs;
            if in_block + a.count as u64 <= bs {
                let tag = Tag {
                    fileid: key.fileid,
                    generation: key.generation,
                    block: a.offset / bs,
                };
                let zm = meta.as_ref().and_then(|m| m.zero_map.as_ref());
                let size_hint = meta.as_ref().map(|m| m.file_size);
                // Atomically either join an in-flight prefetch of this
                // block (wait for it to land rather than duplicating the
                // WAN READ), or claim the block as an in-flight demand
                // read so the read-ahead engine skips it as a candidate.
                let waiter = {
                    let mut st = self.state.lock();
                    match st.inflight_prefetch.get(&tag) {
                        Some(sig) => Some(sig.clone()),
                        None => {
                            st.inflight_demand.insert(tag);
                            None
                        }
                    }
                };
                let claimed = waiter.is_none();
                if let Some(sig) = waiter {
                    sig.wait(env);
                }
                if let Some(data) = bc.lookup(env, tag) {
                    if claimed {
                        let mut st = self.state.lock();
                        st.inflight_demand.remove(&tag);
                    }
                    let was_prefetched = { self.state.lock().prefetched.remove(&tag) };
                    if was_prefetched {
                        self.tel.prefetch_hits.inc();
                        // Keep the pipeline rolling: hitting a prefetched
                        // block means the sequential stream is live.
                        self.maybe_prefetch(env, cred, key, tag, bs, a.count, zm, size_hint);
                    }
                    let start = in_block as usize;
                    let take = if start >= data.len() {
                        // Reading past the end of a short (EOF tail)
                        // block: nothing there.
                        0
                    } else {
                        (a.count as usize).min(data.len() - start)
                    };
                    let eof = data.len() < bs as usize
                        || self
                            .known_size(key)
                            .map(|s| a.offset + take as u64 >= s)
                            .unwrap_or(false);
                    return Self::read_reply(xid, data[start..start + take].to_vec(), eof);
                }
                if !claimed {
                    // Waited on a prefetch that failed to land: claim the
                    // block ourselves before forwarding.
                    let mut st = self.state.lock();
                    st.inflight_demand.insert(tag);
                }
                // Miss: start read-ahead for a detected sequential
                // stream, then forward. The prefetch workers run
                // detached; their upstream READs queue behind this
                // demand miss on the WAN, overlapping its latency.
                self.maybe_prefetch(env, cred, key, tag, bs, a.count, zm, size_hint);
                let reply = self.forward(env, xid, cred, NFS_PROGRAM, NFS_V3, proc3::READ, args);
                {
                    let mut st = self.state.lock();
                    st.inflight_demand.remove(&tag);
                }
                if let RpcMessage::Reply {
                    body:
                        ReplyBody::Accepted {
                            stat: AcceptStat::Success,
                            results,
                            ..
                        },
                    ..
                } = &reply
                {
                    if let Some((data, eof)) = parse_read_results(results) {
                        if eof {
                            // Server-confirmed size: lets warm hits report
                            // EOF without re-asking upstream.
                            self.bump_size(key, a.offset + data.len() as u64);
                        }
                        // Only a block-aligned reply covers the block from
                        // its first byte, so only that can be installed.
                        if !data.is_empty() && in_block == 0 {
                            self.install_clean(env, tag, data, cred);
                        }
                    }
                }
                return reply;
            }
        }

        // 5. Plain forwarding (unaligned or cacheless).
        self.forward(env, xid, cred, NFS_PROGRAM, NFS_V3, proc3::READ, args)
    }

    fn install_clean(&self, env: &Env, tag: Tag, data: Vec<u8>, cred: &oncrpc::OpaqueAuth) {
        if let Some(bc) = &self.block_cache {
            // Index the frame in the CAS: block frames (32 KB) and channel
            // chunks (1 MB) live in disjoint length classes, so this only
            // dedupes against other block frames — bookkeeping that keeps
            // every resident frame content-addressable.
            if let Some(cas) = &self.cas {
                cas.insert(&data);
            }
            if let Some((etag, edata)) = bc.insert(env, tag, data, false) {
                // A dirty block fell out: write it upstream now.
                self.writeback_block(env, cred, etag, edata);
            }
        }
    }

    fn writeback_block(&self, env: &Env, cred: &oncrpc::OpaqueAuth, tag: Tag, data: Vec<u8>) {
        let bs = self
            .block_cache
            .as_ref()
            .map(|b| b.config().block_size as u64)
            .unwrap_or(32 * 1024);
        writeback_evicted_block(
            env,
            &self.upstream.with_cred(cred.clone()),
            &self.state,
            &self.file_cache,
            bs,
            &self.tel.blocks_written_back,
            &self.tel.recovered_errors,
            &self.tel.wb_queued,
            &self.wb,
            tag,
            data,
        );
    }

    /// Sequential read-ahead: track per-file block streaks; once two
    /// consecutive blocks have been requested, fetch the next
    /// `transfer.read_ahead` blocks upstream into the block cache from a
    /// detached worker. The workers' READs queue behind the triggering
    /// demand miss on the WAN, so the stream's next blocks arrive while
    /// the application consumes the current one. A racing demand miss on
    /// a block being prefetched waits on the block's signal in
    /// `inflight_prefetch` rather than duplicating the upstream READ.
    ///
    /// `lead` is the triggering read's byte count: a candidate block whose
    /// leading `lead` bytes the zero map proves zero is skipped, because
    /// the demand stream's aligned read there will be zero-filtered
    /// locally and never consult the block cache — prefetching it would
    /// burn WAN bandwidth on a block nobody looks up. `size_hint` (the
    /// meta file size, when the proxy handles meta-data) clips candidates
    /// at EOF before the first upstream reply has taught `known_size` —
    /// without it every short file costs a full window of empty
    /// beyond-EOF READs.
    #[allow(clippy::too_many_arguments)]
    fn maybe_prefetch(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        key: FileKey,
        tag: Tag,
        bs: u64,
        lead: u32,
        zero_map: Option<&crate::meta::ZeroMap>,
        size_hint: Option<u64>,
    ) {
        let depth = self.cfg.transfer.read_ahead;
        if depth == 0 {
            return;
        }
        let Some(bc) = self.block_cache.clone() else {
            return;
        };
        // `known_size` (server-confirmed) beats the meta hint; the hint
        // still clips beyond-EOF speculation before the first EOF reply.
        let size = self.known_size(key).or(size_hint);
        let (candidates, wasted) = {
            let mut st = self.state.lock();
            let run = match st.streaks.get(&key).copied() {
                Some((last, r)) if tag.block == last + 1 => r + 1,
                Some((last, r)) if tag.block == last => r,
                _ => 1,
            };
            st.streaks.insert(key, (tag.block, run));
            // Window sizing by streak evidence. On a fluid-shared WAN
            // link a prefetch batch slows every concurrent demand miss
            // (the flows split the bandwidth), so speculation must pay
            // for itself:
            // * run 1 (fresh position): speculate exactly one block.
            //   Small files span a couple of cache blocks, so reading
            //   block b predicts b+1; fetching it concurrently with b
            //   hides the second block's WAN round trip — the dominant
            //   cost of a scattered small-file sweep.
            // * run 2–3: the pair hypothesis already paid off; issuing
            //   more here is junk whenever the file ends at two blocks
            //   (the common case). Wait for real streak evidence.
            // * run ≥ 4 (128 KB of consecutive reads): a genuine
            //   sequential stream — open the full window.
            let depth = match run {
                1 => 1,
                2 | 3 => return,
                _ => depth as u64,
            };
            // Reclaim: prefetched blocks that fell out of the cache
            // without ever serving a demand read were wasted effort.
            let gone: Vec<Tag> = st
                .prefetched
                .iter()
                .filter(|t| !bc.contains(**t))
                .copied()
                .collect();
            for t in &gone {
                st.prefetched.remove(t);
            }
            let mut cands: Vec<Tag> = Vec::new();
            for b in (tag.block + 1)..=(tag.block + depth) {
                if let Some(s) = size {
                    if b * bs >= s {
                        break;
                    }
                }
                if let Some(zm) = zero_map {
                    if zm.range_is_zero(b * bs, lead) {
                        continue;
                    }
                }
                let t = Tag {
                    fileid: key.fileid,
                    generation: key.generation,
                    block: b,
                };
                if st.inflight_prefetch.contains_key(&t)
                    || st.inflight_demand.contains(&t)
                    || st.prefetched.contains(&t)
                    || bc.contains(t)
                {
                    continue;
                }
                st.inflight_prefetch
                    .insert(t, simnet::Signal::new(env.handle()));
                cands.push(t);
            }
            (cands, gone.len() as u64)
        };
        if wasted > 0 {
            self.tel.prefetch_wasted.add(wasted);
        }
        if candidates.is_empty() {
            return;
        }
        self.tel.prefetch_issued.add(candidates.len() as u64);
        let ctx = PrefetchCtx {
            upstream: self.upstream.with_cred(cred.clone()),
            bc,
            state: self.state.clone(),
            file_cache: self.file_cache.clone(),
            cas: self.cas.clone(),
            written_back: self.tel.blocks_written_back.clone(),
            recovered_errors: self.tel.recovered_errors.clone(),
            wb_queued: self.tel.wb_queued.clone(),
            wb: self.wb.clone(),
        };
        let ttel = self.ttel.clone();
        let window = depth.max(1);
        env.spawn(format!("{}-prefetch", self.tel.inst), move |env| {
            run_windowed(
                &env,
                "prefetch",
                window,
                candidates,
                Some(&ttel),
                move |env, t| {
                    let nfs = nfs3::Nfs3Client::new(ctx.upstream.clone());
                    let h = Handle {
                        fileid: t.fileid,
                        generation: t.generation,
                    };
                    let sig = match nfs.read(env, h, t.block * bs, bs as u32) {
                        Ok(r) if !r.data.is_empty() => {
                            if let Some(cas) = &ctx.cas {
                                cas.insert(&r.data);
                            }
                            if let Some((etag, edata)) =
                                ctx.bc.insert(env, t, r.data.to_vec(), false)
                            {
                                writeback_evicted_block(
                                    env,
                                    &ctx.upstream,
                                    &ctx.state,
                                    &ctx.file_cache,
                                    bs,
                                    &ctx.written_back,
                                    &ctx.recovered_errors,
                                    &ctx.wb_queued,
                                    &ctx.wb,
                                    etag,
                                    edata,
                                );
                            }
                            {
                                let mut st = ctx.state.lock();
                                st.prefetched.insert(t);
                                st.inflight_prefetch.remove(&t)
                            }
                        }
                        _ => ctx.state.lock().inflight_prefetch.remove(&t),
                    };
                    // Wake any demand miss parked on this block — outside
                    // the state lock.
                    if let Some(s) = sig {
                        s.set();
                    }
                    Some(())
                },
            );
        });
    }

    /// Count prefetched blocks that fell out of the cache without ever
    /// serving a demand read. Runs on every flush so the wasted counter
    /// converges even when no further misses re-trigger `maybe_prefetch`.
    fn reclaim_wasted_prefetches(&self) {
        let Some(bc) = &self.block_cache else {
            return;
        };
        let wasted = {
            let mut st = self.state.lock();
            let gone: Vec<Tag> = st
                .prefetched
                .iter()
                .filter(|t| !bc.contains(**t))
                .copied()
                .collect();
            for t in &gone {
                st.prefetched.remove(t);
            }
            gone.len() as u64
        };
        if wasted > 0 {
            self.tel.prefetch_wasted.add(wasted);
        }
    }

    // -- WRITE --------------------------------------------------------------

    /// An absorbed WRITE's reply, carrying this proxy's own write
    /// verifier: the proxy answers for its local cache disk, not for the
    /// origin server, so it must not forge the server's verifier.
    fn write_reply(&self, xid: u32, count: u32, committed: StableHow) -> RpcMessage {
        let mut enc = Encoder::new();
        enc.put_u32(Status::Ok.as_u32());
        WccData(None).encode(&mut enc);
        enc.put_u32(count);
        enc.put_u32(committed.as_u32());
        enc.put_u64(self.write_verf);
        RpcMessage::success(xid, enc.into_bytes())
    }

    fn handle_write(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        let parsed: Result<WriteArgs, _> = xdr::from_bytes(&args);
        let a = match parsed {
            Ok(a) => a,
            Err(_) => return self.forward(env, xid, cred, NFS_PROGRAM, NFS_V3, proc3::WRITE, args),
        };
        self.tel.writes.inc();
        let key = key_of(a.file.0);

        // File-cache resident files absorb writes there (dirty upload on
        // flush).
        if let Some(fc) = &self.file_cache {
            if fc.contains(key) && !self.cfg.read_only_share {
                fc.write(env, key, a.offset, &a.data);
                self.bump_size(key, a.offset + a.data.len() as u64);
                self.tel.writes_absorbed.inc();
                return self.write_reply(xid, a.data.len() as u32, StableHow::FileSync);
            }
        }

        let write_back =
            self.cfg.write_policy == WritePolicy::WriteBack && !self.cfg.read_only_share;

        // Write-back: absorb the write into the block cache. The labeled
        // block replaces the old `expect("checked above")` landmine: a
        // write-back policy without a cache attached now recovers by
        // falling through to the write-through path below.
        'write_back: {
            if !write_back {
                break 'write_back;
            }
            let Some(bc) = self.block_cache.as_ref() else {
                self.tel.recovered_errors.inc();
                break 'write_back;
            };
            let bs = bc.config().block_size as u64;
            let end = a.offset + a.data.len() as u64;
            let mut pos = a.offset;
            while pos < end {
                let block = pos / bs;
                let bstart = block * bs;
                let boff = (pos - bstart) as usize;
                let take = ((bstart + bs).min(end) - pos) as usize;
                let chunk = &a.data[(pos - a.offset) as usize..(pos - a.offset) as usize + take];
                let tag = Tag {
                    fileid: key.fileid,
                    generation: key.generation,
                    block,
                };
                if !bc.update(env, tag, boff, chunk, true) {
                    // Absent frame. Full-block writes insert directly;
                    // partial writes within the current file need
                    // read-modify-write from upstream first.
                    let full = boff == 0 && take as u64 == bs;
                    let existing_size = self.known_size(key).unwrap_or(0);
                    if full || bstart >= existing_size {
                        let mut data = vec![0u8; boff + take];
                        data[boff..].copy_from_slice(chunk);
                        if let Some((etag, edata)) = bc.insert(env, tag, data, true) {
                            self.writeback_block(env, cred, etag, edata);
                        }
                    } else {
                        let nfs = nfs3::Nfs3Client::new(self.upstream.with_cred(cred.clone()));
                        let mut base = match nfs.read(env, a.file.0, bstart, bs as u32) {
                            Ok(r) => r.data.to_vec(),
                            Err(_) => {
                                // Base fetch for read-modify-write failed:
                                // don't fabricate a zero base — hand the
                                // original WRITE upstream untouched.
                                self.tel.recovered_errors.inc();
                                self.invalidate_acked_range(key, a.offset, a.data.len() as u64);
                                return self.forward(
                                    env,
                                    xid,
                                    cred,
                                    NFS_PROGRAM,
                                    NFS_V3,
                                    proc3::WRITE,
                                    args,
                                );
                            }
                        };
                        if base.len() < boff + take {
                            base.resize(boff + take, 0);
                        }
                        base[boff..boff + take].copy_from_slice(chunk);
                        if let Some((etag, edata)) = bc.insert(env, tag, base, true) {
                            self.writeback_block(env, cred, etag, edata);
                        }
                    }
                }
                pos += take as u64;
            }
            self.bump_size(key, end);
            self.tel.writes_absorbed.inc();
            return self.write_reply(xid, a.data.len() as u32, StableHow::FileSync);
        }

        // Write-through: keep the cache coherent, then forward.
        if let Some(bc) = &self.block_cache {
            let bs = bc.config().block_size as u64;
            if a.offset % bs == 0 && a.data.len() as u64 <= bs {
                let tag = Tag {
                    fileid: key.fileid,
                    generation: key.generation,
                    block: a.offset / bs,
                };
                if !bc.update(env, tag, 0, &a.data, false) && a.data.len() as u64 == bs {
                    if let Some((etag, edata)) = bc.insert(env, tag, a.data.clone(), false) {
                        self.writeback_block(env, cred, etag, edata);
                    }
                }
            }
            self.bump_size(key, a.offset + a.data.len() as u64);
        }
        self.invalidate_acked_range(key, a.offset, a.data.len() as u64);
        self.forward(env, xid, cred, NFS_PROGRAM, NFS_V3, proc3::WRITE, args)
    }

    // -- GETATTR / COMMIT / LOOKUP -----------------------------------------

    /// Patch the size in a GETATTR reply if we hold absorbed writes that
    /// grew the file beyond what the server knows.
    fn handle_getattr(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        let fh: Result<Fh3, _> = xdr::from_bytes(&args);
        let reply = self.forward(env, xid, cred, NFS_PROGRAM, NFS_V3, proc3::GETATTR, args);
        let fh = match fh {
            Ok(f) => f,
            Err(_) => return reply,
        };
        let key = key_of(fh.0);
        let override_size = {
            let st = self.state.lock();
            st.sizes.get(&key).copied()
        };
        let fc_size = self.file_cache.as_ref().and_then(|fc| fc.size_of(key));
        let local = match (override_size, fc_size) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let local = match local {
            Some(s) => s,
            None => return reply,
        };
        if let RpcMessage::Reply {
            xid,
            body:
                ReplyBody::Accepted {
                    stat: AcceptStat::Success,
                    results,
                    verf,
                },
        } = reply
        {
            let mut dec = Decoder::new(&results);
            let patched = (|| -> Option<Vec<u8>> {
                let status = dec.get_u32().ok()?;
                if status != Status::Ok.as_u32() {
                    return None;
                }
                let mut attr = Fattr3::decode(&mut dec).ok()?.0;
                if attr.size >= local {
                    return None;
                }
                attr.size = local;
                let mut enc = Encoder::new();
                enc.put_u32(Status::Ok.as_u32());
                Fattr3(attr).encode(&mut enc);
                Some(enc.into_bytes())
            })();
            let results = patched.map(xdr::Bytes::from).unwrap_or(results);
            RpcMessage::Reply {
                xid,
                body: ReplyBody::Accepted {
                    stat: AcceptStat::Success,
                    results,
                    verf,
                },
            }
        } else {
            reply
        }
    }

    fn handle_commit(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        if self.cfg.write_policy == WritePolicy::WriteBack && self.block_cache.is_some() {
            // Data is stable on the proxy's local cache disk; the real
            // upstream flush happens on a middleware signal.
            let mut enc = Encoder::new();
            enc.put_u32(Status::Ok.as_u32());
            WccData(None).encode(&mut enc);
            enc.put_u64(self.write_verf);
            return RpcMessage::success(xid, enc.into_bytes());
        }
        self.forward(env, xid, cred, NFS_PROGRAM, NFS_V3, proc3::COMMIT, args)
    }

    fn handle_lookup(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        let parsed: Result<DirOpArgs3, _> = xdr::from_bytes(&args);
        let reply = self.forward(env, xid, cred, NFS_PROGRAM, NFS_V3, proc3::LOOKUP, args);
        if let (
            Ok(dirop),
            RpcMessage::Reply {
                body:
                    ReplyBody::Accepted {
                        stat: AcceptStat::Success,
                        results,
                        ..
                    },
                ..
            },
        ) = (parsed, &reply)
        {
            let mut dec = Decoder::new(results);
            if dec.get_u32() == Ok(Status::Ok.as_u32()) {
                if let Ok(fh) = Fh3::decode(&mut dec) {
                    self.discover_meta(env, cred, dirop.dir.0, &dirop.name, fh.0);
                }
            }
        }
        reply
    }

    // -- flush (middleware signal) -------------------------------------------

    /// One bounded-window write-back pass over per-file dirty block
    /// runs: UNSTABLE WRITEs stream through the flush window, then one
    /// COMMIT per file. A block is durable only when its WRITE's
    /// verifier matches the COMMIT's (RFC 1813 §3.3.7): a disagreement
    /// means the server restarted in between and discarded the unstable
    /// data, so the block — though both RPCs "succeeded" — must be
    /// resent. Everything not durable comes back for the next round.
    fn write_back_pass(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        pending: DirtyByFile,
        report: &mut FlushReport,
    ) -> DirtyByFile {
        let Some(bc) = &self.block_cache else {
            return BTreeMap::new();
        };
        let fw = self.cfg.transfer.flush_window.max(1);
        let bs = bc.config().block_size as u64;
        let mut requeue: DirtyByFile = BTreeMap::new();
        for ((fileid, generation), blocks) in pending {
            let h = Handle { fileid, generation };
            let key = FileKey { fileid, generation };
            let size = self.known_size(key);
            // Clip each block to the file's logical size up front.
            let mut jobs: Vec<(u64, Vec<u8>)> = Vec::new();
            for (block, mut data) in blocks {
                let off = block * bs;
                if let Some(s) = size {
                    if off >= s {
                        continue;
                    }
                    data.truncate(((s - off).min(bs)) as usize);
                }
                jobs.push((block, data));
            }
            // Dedup: a block whose digest upstream already durably
            // acknowledged under a verifier is a skip *candidate* — the
            // covering COMMIT below must still return that same verifier
            // (same server instance, data still stable) before the skip
            // counts. A restarted server rotates its verifier, failing
            // the validation and requeueing the bytes: no acknowledged
            // byte is ever dedup-skipped incorrectly.
            //
            // Every outgoing block is digested once here, *outside* the
            // state lock (digesting suspends; no suspend may run under a
            // lock) and charged at the codec's digest throughput — the
            // same CPU price the fetch path pays per blob. The digest
            // rides the slot so a durable ack records it without
            // rehashing.
            let (jobs, skips) = if self.cas.is_some() {
                let mut digested: Vec<(u64, Vec<u8>, Digest)> = Vec::with_capacity(jobs.len());
                for (block, data) in jobs {
                    env.sleep(self.codec.digest_time(data.len() as u64));
                    let d = digest::digest(&data);
                    digested.push((block, data, d));
                }
                let mut st = self.state.lock();
                let mut send: Vec<(u64, Vec<u8>, Option<Digest>)> = Vec::new();
                let mut sk: Vec<(u64, Vec<u8>, u64)> = Vec::new();
                for (block, data, d) in digested {
                    let tag = Tag {
                        fileid,
                        generation,
                        block,
                    };
                    match st.acked.get(&tag) {
                        Some((ad, verf)) if *ad == d => sk.push((block, data, *verf)),
                        _ => {
                            // About to issue an UNSTABLE WRITE for this
                            // block: the server may apply it even when
                            // the reply is lost, so the remembered ack
                            // (if any) dies now — a block later reverted
                            // to the old bytes must not skip over the
                            // server's unconfirmed intermediate content
                            // (A-B-A).
                            st.acked.remove(&tag);
                            send.push((block, data, Some(d)));
                        }
                    }
                }
                (send, sk)
            } else {
                (
                    jobs.into_iter().map(|(b, d)| (b, d, None)).collect(),
                    Vec::new(),
                )
            };
            if jobs.is_empty() && skips.is_empty() {
                continue;
            }
            let nfs = nfs3::Nfs3Client::new(self.upstream.with_cred(cred.clone()));
            // Each slot keeps its payload so a failure can requeue the
            // bytes instead of dropping them.
            let slots: Vec<WriteBackSlot> = if fw == 1 {
                jobs.into_iter()
                    .map(|(block, data, dg)| {
                        let verf = nfs
                            .write(env, h, block * bs, data.clone(), StableHow::Unstable)
                            .ok()
                            .map(|r| r.verf);
                        Some((block, data, dg, verf))
                    })
                    .collect()
            } else {
                // Bounded in-flight UNSTABLE WRITEs per file; the COMMIT
                // below only runs once all of them returned, so ordering
                // toward the server stays deterministic.
                let w = nfs.clone();
                run_windowed(
                    env,
                    "flush-wb",
                    fw,
                    jobs,
                    Some(&self.ttel),
                    move |env, (block, data, dg)| {
                        let verf = w
                            .write(env, h, block * bs, data.clone(), StableHow::Unstable)
                            .ok()
                            .map(|r| r.verf);
                        Some((block, data, dg, verf))
                    },
                )
            };
            let commit_verf = nfs.commit(env, h).ok();
            if commit_verf.is_none() {
                self.tel.recovered_errors.inc();
            }
            let mut mismatch = false;
            let dedup_on = self.cas.is_some();
            let mut newly_acked: Vec<(Tag, (Digest, u64))> = Vec::new();
            for slot in slots {
                match slot {
                    Some((block, data, dg, Some(verf))) if Some(verf) == commit_verf => {
                        report.blocks += 1;
                        report.block_bytes += data.len() as u64;
                        if let Some(d) = dg {
                            let tag = Tag {
                                fileid,
                                generation,
                                block,
                            };
                            newly_acked.push((tag, (d, verf)));
                        }
                    }
                    Some((block, data, _dg, wrote)) => {
                        if wrote.is_some() && commit_verf.is_some() {
                            mismatch = true;
                        } else {
                            self.tel.recovered_errors.inc();
                        }
                        requeue
                            .entry((fileid, generation))
                            .or_default()
                            .push((block, data));
                    }
                    None => {
                        // A write worker died with the payload: nothing
                        // left to requeue — surface it as failed.
                        report.failed_blocks += 1;
                        self.tel.recovered_errors.inc();
                    }
                }
            }
            // Validate skips: a skipped block is only "done" when the
            // COMMIT's verifier still matches the one its acknowledgement
            // was recorded under. Otherwise the server restarted (or the
            // COMMIT failed) — drop the stale entry and requeue the bytes.
            let mut stale: Vec<Tag> = Vec::new();
            for (block, data, acked_verf) in skips {
                if commit_verf == Some(acked_verf) {
                    self.dtel.acked_skips.inc();
                    self.dtel.bytes_avoided.add(data.len() as u64);
                } else {
                    stale.push(Tag {
                        fileid,
                        generation,
                        block,
                    });
                    requeue
                        .entry((fileid, generation))
                        .or_default()
                        .push((block, data));
                }
            }
            if mismatch {
                self.tel.verf_mismatches.inc();
            }
            if dedup_on && (!newly_acked.is_empty() || !stale.is_empty()) {
                let mut st = self.state.lock();
                for tag in stale {
                    st.acked.remove(&tag);
                }
                for (tag, entry) in newly_acked {
                    st.acked.insert(tag, entry);
                }
                // Safety valve: shed entries past the cap (an ack is an
                // optimization — dropping one costs a resend, nothing
                // more). First-key order keeps the shed deterministic.
                while st.acked.len() > ACKED_CAP {
                    let Some(&k) = st.acked.keys().next() else {
                        break;
                    };
                    st.acked.remove(&k);
                }
            }
        }
        requeue
    }

    /// Middleware-driven write-back: push every dirty block and dirty
    /// cached file upstream. The paper implements this as an O/S signal
    /// to the proxy process; here the scenario driver calls it directly
    /// (session-based consistency, §3.2.1).
    ///
    /// Degraded mode: write-backs that fail upstream (WAN outage, server
    /// restart) are retried in up to `transfer.flush_retry_rounds`
    /// rounds with doubling backoff; whatever survives the rounds parks
    /// on the retry queue (blocks) or stays dirty in the file cache
    /// (files) and is reported in `FlushReport::failed_*` — the next
    /// flush signal picks it all up again. No acknowledged byte is ever
    /// dropped.
    pub fn flush(&self, env: &Env, cred: &oncrpc::OpaqueAuth) -> FlushReport {
        let mut report = FlushReport::default();
        let fw = self.cfg.transfer.flush_window.max(1);

        // Dirty file-cache uploads overlap the block write-back: one
        // helper process drives the channel uploads while this process
        // drives the block path. With a serial window the uploads run
        // inline after the blocks, preserving the old RPC order.
        let mut file_helper = None;
        type SerialUploads = Option<Box<dyn FnOnce(&Env)>>;
        let mut serial_uploads: SerialUploads = None;
        let file_totals: Arc<Mutex<(u64, u64)>> = Arc::new(Mutex::new((0, 0)));
        let failed_uploads: FailedUploads = Arc::new(Mutex::new(Vec::new()));
        if let (Some(fc), Some(chan)) = (&self.file_cache, &self.chan) {
            let dirty_files = fc.dirty_files();
            if !dirty_files.is_empty() {
                let fc = fc.clone();
                let chan = chan.clone();
                let tuning = self.cfg.transfer;
                let ttel = self.ttel.clone();
                let dtel = self.dtel.clone();
                let dedup_on = self.cas.is_some();
                let cow_on = self.cfg.cow.enabled && dedup_on;
                let codec = self.codec;
                let recovered = self.tel.recovered_errors.clone();
                let totals = file_totals.clone();
                let failed = failed_uploads.clone();
                let upload_files = move |env: &Env| {
                    for key in dirty_files {
                        // Diverged-only flush: a dirty *reference* file
                        // uploads just its broken chunks (upstream still
                        // holds the golden base its recipe resolves
                        // against; the size-preserving chunk write keeps
                        // every untouched range). The whole-file path
                        // below stays the fallback — including for a
                        // reference re-marked dirty after a failed
                        // upload, whose chunk set is gone.
                        if cow_on {
                            if let Some(dc) = fc.take_dirty_chunks(env, key) {
                                env.sleep(codec.digest_time(dc.total));
                                if fc.synced_digest(key) == Some(dc.full_digest) {
                                    dtel.acked_skips.inc();
                                    let n: u64 =
                                        dc.ranges.iter().map(|(_, b)| b.len() as u64).sum();
                                    dtel.bytes_avoided.add(n);
                                    continue;
                                }
                                let h = Handle {
                                    fileid: key.fileid,
                                    generation: key.generation,
                                };
                                // Torn-upload guard, exactly as below.
                                fc.clear_synced(key);
                                match chan.upload_ranges(
                                    env,
                                    h,
                                    dc.total,
                                    &dc.ranges,
                                    true,
                                    tuning.channel_window,
                                    Some(&ttel),
                                ) {
                                    Ok(wire) => {
                                        let mut t = totals.lock();
                                        t.0 += 1;
                                        t.1 += wire;
                                        fc.set_synced(key, dc.full_digest);
                                    }
                                    Err(_) => {
                                        recovered.inc();
                                        // Hand the retry machinery the
                                        // full contents (the bounded
                                        // rounds resend whole files).
                                        fc.mark_dirty(key);
                                        if let Some(contents) = fc.take_dirty_contents(env, key) {
                                            failed.lock().push((
                                                key,
                                                contents,
                                                Some(dc.full_digest),
                                            ));
                                        }
                                    }
                                }
                                continue;
                            }
                        }
                        if let Some(contents) = fc.take_dirty_contents(env, key) {
                            // Dedup: a dirty file rewritten with the exact
                            // bytes upstream already holds (a VM session
                            // re-suspending identical memory state) skips
                            // the whole upload. Channel uploads are
                            // durable server writes, so the synced digest
                            // survives server restarts. The digest is
                            // charged at codec throughput — the same CPU
                            // the fetch path pays per verified blob.
                            let d = if dedup_on {
                                env.sleep(codec.digest_time(contents.len() as u64));
                                let d = digest::digest(&contents);
                                if fc.synced_digest(key) == Some(d) {
                                    dtel.acked_skips.inc();
                                    dtel.bytes_avoided.add(contents.len() as u64);
                                    continue;
                                }
                                Some(d)
                            } else {
                                None
                            };
                            let h = Handle {
                                fileid: key.fileid,
                                generation: key.generation,
                            };
                            // Torn-upload guard: from here until the
                            // upload reports success, upstream may hold
                            // any prefix of the new chunks — forget the
                            // synced digest so a rewrite back to the old
                            // bytes can never skip the repair upload.
                            fc.clear_synced(key);
                            match chan.upload_chunked(
                                env,
                                h,
                                &contents,
                                true,
                                tuning.chunk_bytes,
                                tuning.channel_window,
                                Some(&ttel),
                            ) {
                                Ok(wire) => {
                                    let mut t = totals.lock();
                                    t.0 += 1;
                                    t.1 += wire;
                                    if let Some(d) = d {
                                        fc.set_synced(key, d);
                                    }
                                }
                                Err(_) => {
                                    recovered.inc();
                                    failed.lock().push((key, contents, d));
                                }
                            }
                        }
                    }
                };
                if fw > 1 {
                    file_helper = Some(
                        env.spawn(format!("{}-flush-files", self.tel.inst), move |env| {
                            upload_files(&env)
                        }),
                    );
                } else {
                    // Serial mode: run inline after the block path, in
                    // the same order as the pre-engine code.
                    serial_uploads = Some(Box::new(upload_files));
                }
            }
        }

        // Block write-back: dirty blocks from the cache, plus everything
        // still parked on the retry queue from earlier failed evictions
        // or a previous degraded flush.
        let mut pending: DirtyByFile = BTreeMap::new();
        if let Some(bc) = &self.block_cache {
            let mut have: BTreeSet<Tag> = BTreeSet::new();
            for (tag, data) in bc.take_dirty(env) {
                have.insert(tag);
                pending
                    .entry((tag.fileid, tag.generation))
                    .or_default()
                    .push((tag.block, data));
            }
            let queued = { std::mem::take(&mut self.state.lock().wb_queue) };
            for (tag, data) in queued {
                self.tel.wb_drained.inc();
                // A fresher dirty copy of the same block wins.
                if have.contains(&tag) {
                    continue;
                }
                pending
                    .entry((tag.fileid, tag.generation))
                    .or_default()
                    .push((tag.block, data));
            }
            for blocks in pending.values_mut() {
                blocks.sort_unstable_by_key(|(b, _)| *b);
            }
        }
        let mut remaining = self.write_back_pass(env, cred, pending, &mut report);

        if let Some(upload) = serial_uploads {
            upload(env);
        }
        if let Some(j) = file_helper {
            j.join(env);
        }

        // Degraded-mode drain: bounded retry rounds with doubling
        // backoff, resending both failed blocks and failed file uploads
        // until they land or the rounds run out.
        let mut failed_files: Vec<(FileKey, Vec<u8>, Option<Digest>)> =
            std::mem::take(&mut *failed_uploads.lock());
        let base = self.cfg.transfer.flush_retry_backoff;
        for round in 0..self.cfg.transfer.flush_retry_rounds {
            if remaining.is_empty() && failed_files.is_empty() {
                break;
            }
            self.tel.flush_retry_rounds.inc();
            env.sleep(base * (1u64 << round.min(3)));
            remaining = self.write_back_pass(env, cred, remaining, &mut report);
            let mut still_failed = Vec::new();
            for (key, contents, d) in failed_files {
                let h = Handle {
                    fileid: key.fileid,
                    generation: key.generation,
                };
                // The synced digest was already cleared before the first
                // attempt and only a success below reinstates it, so a
                // torn retry leaves upstream marked unknown.
                let retried = self.chan.as_ref().map(|chan| {
                    chan.upload_chunked(
                        env,
                        h,
                        &contents,
                        true,
                        self.cfg.transfer.chunk_bytes,
                        self.cfg.transfer.channel_window,
                        Some(&self.ttel),
                    )
                });
                match retried {
                    Some(Ok(wire)) => {
                        report.files += 1;
                        report.file_wire_bytes += wire;
                        if let Some(d) = d {
                            if let Some(fc) = &self.file_cache {
                                fc.set_synced(key, d);
                            }
                        }
                    }
                    _ => {
                        self.tel.recovered_errors.inc();
                        still_failed.push((key, contents, d));
                    }
                }
            }
            failed_files = still_failed;
        }

        // Park the survivors for the next flush signal.
        if !remaining.is_empty() {
            let mut st = self.state.lock();
            for ((fileid, generation), blocks) in remaining {
                for (block, data) in blocks {
                    report.failed_blocks += 1;
                    report.failed_block_bytes += data.len() as u64;
                    park_wb_entry(
                        &mut st,
                        &self.tel.wb_queued,
                        &self.wb,
                        Tag {
                            fileid,
                            generation,
                            block,
                        },
                        data,
                    );
                }
            }
        }
        for (key, _contents, _d) in failed_files {
            report.failed_files += 1;
            // The contents are still resident in the file cache; re-mark
            // the file dirty so the next flush retries the upload. The
            // synced digest stays cleared: the failed attempts may have
            // left a torn copy upstream, so nothing short of a completed
            // upload may skip.
            if let Some(fc) = &self.file_cache {
                fc.mark_dirty(key);
            }
        }
        {
            let t = file_totals.lock();
            report.files += t.0;
            report.file_wire_bytes += t.1;
        }
        self.tel.blocks_written_back.add(report.blocks);
        // Wasted-prefetch reconciliation piggybacks on the flush signal.
        self.reclaim_wasted_prefetches();
        // Size overrides deliberately survive the flush: `known_size` is
        // consulted by later write-backs and GETATTR patching, and the
        // meta-data fallback still reports the pre-session file size.
        // Clearing here made a post-flush eviction truncate its payload
        // to the stale meta size, silently dropping appended bytes.
        report
    }

    // -- intra-region digest gossip -------------------------------------------

    /// Wire this shard to its region siblings: `my_id` is the id it
    /// signs gossip messages with, `peers` the sibling shards' LAN
    /// clients. No-op unless the proxy was built with
    /// `FleetTuning::gossip` (and dedup) on. Called once by middleware
    /// after all the region's channels exist.
    pub fn set_gossip_peers(&self, my_id: u32, peers: Vec<(u32, RpcClient)>) {
        if let Some(g) = &self.gossip {
            let mut p = g.peers.lock();
            p.my_id = my_id;
            p.peers = peers;
            p.next = 0;
            p.sent_cursor.clear();
        }
    }

    /// One anti-entropy round: push a bounded delta of our digest log to
    /// the next peer (round-robin) and merge the delta its reply
    /// carries. The push cursor advances only on success, so a round
    /// lost to the LAN is simply retransmitted next period — the log is
    /// append-only and deltas are idempotent set-unions, which is the
    /// whole convergence argument. Driven by a per-shard middleware
    /// process on [`FleetTuning::gossip_interval`].
    pub fn gossip_round(&self, env: &Env) {
        let Some(g) = &self.gossip else { return };
        let batch = self.cfg.fleet.gossip_batch.clamp(1, MAX_GOSSIP_DIGESTS);
        // Lock order: never hold the peer table and the proxy state at
        // once (the state lock is taken inside RPC handlers that a
        // concurrent sibling round may be driving into us right now).
        let (my_id, peer_id, client, sent) = {
            let mut p = g.peers.lock();
            if p.peers.is_empty() {
                return;
            }
            let idx = p.next % p.peers.len();
            p.next = idx + 1;
            let (pid, client) = p.peers[idx].clone();
            let sent = *p.sent_cursor.get(&pid).unwrap_or(&0);
            (p.my_id, pid, client, sent)
        };
        let (delta, end) = {
            let st = self.state.lock();
            let start = sent.min(st.gossip_log.len());
            let end = (start + batch).min(st.gossip_log.len());
            (st.gossip_log[start..end].to_vec(), end)
        };
        g.rounds.inc();
        let args = encode_gossip(my_id, &delta);
        let Ok(results) = client.call_dl(
            env,
            CHANNEL_PROGRAM,
            CHANNEL_V1,
            chanproc::GOSSIP_DIGESTS,
            &args,
        ) else {
            return;
        };
        let Some((sender, digests)) = decode_gossip(&results) else {
            return;
        };
        {
            let mut st = self.state.lock();
            let inv = st.peer_digests.entry(sender).or_default();
            let mut learned = 0u64;
            for d in digests {
                if inv.insert(d) {
                    learned += 1;
                }
            }
            g.digests_learned.add(learned);
        }
        g.peers.lock().sent_cursor.insert(peer_id, end);
    }

    /// Serve a sibling's push: merge the digests it advertises, reply
    /// with our own bounded delta (per-sender cursor, so successive
    /// pushes from the same peer page through our whole log).
    fn handle_gossip_digests(&self, xid: u32, args: &[u8]) -> RpcMessage {
        let Some(g) = &self.gossip else {
            return RpcMessage::accept_error(xid, AcceptStat::ProcUnavail);
        };
        let Some((sender, digests)) = decode_gossip(args) else {
            return RpcMessage::accept_error(xid, AcceptStat::GarbageArgs);
        };
        let batch = self.cfg.fleet.gossip_batch.clamp(1, MAX_GOSSIP_DIGESTS);
        let my_id = g.peers.lock().my_id;
        let delta = {
            let mut st = self.state.lock();
            let inv = st.peer_digests.entry(sender).or_default();
            let mut learned = 0u64;
            for d in digests {
                if inv.insert(d) {
                    learned += 1;
                }
            }
            g.digests_learned.add(learned);
            let start =
                (*st.gossip_reply_cursor.get(&sender).unwrap_or(&0)).min(st.gossip_log.len());
            let end = (start + batch).min(st.gossip_log.len());
            st.gossip_reply_cursor.insert(sender, end);
            st.gossip_log[start..end].to_vec()
        };
        RpcMessage::success(xid, encode_gossip(my_id, &delta))
    }

    /// Serve a sibling shard's blob fetch from the local digest-keyed
    /// reply cache — and *only* from it. A local miss fails the call
    /// rather than forwarding upstream: the requester owns the fallback,
    /// so two shards can never ping-pong or double-fetch a miss.
    fn handle_channel_blob_peer(&self, env: &Env, xid: u32, args: &[u8]) -> RpcMessage {
        let Some(g) = &self.gossip else {
            return RpcMessage::accept_error(xid, AcceptStat::ProcUnavail);
        };
        let want = {
            let mut dec = Decoder::new(args);
            match (
                Fh3::decode(&mut dec),
                dec.get_u64(),
                dec.get_u32(),
                dec.get_u64(),
                dec.get_u64(),
            ) {
                (Ok(_), Ok(_), Ok(_), Ok(d0), Ok(d1)) => Digest(d0, d1),
                _ => return RpcMessage::accept_error(xid, AcceptStat::GarbageArgs),
            }
        };
        let cached = { self.state.lock().chan_blob_replies.get(&want) };
        match cached {
            Some(results) => {
                env.sleep(self.cfg.per_op_cpu);
                g.peer_served.inc();
                RpcMessage::success(xid, results)
            }
            // Stale advertisement (we evicted it) or a speculative probe:
            // an error reply, never an upstream forward.
            None => RpcMessage::accept_error(xid, AcceptStat::SystemErr),
        }
    }

    /// Try to satisfy a blob miss from a sibling shard that gossip says
    /// holds it. Returns the verified reply bytes on success; on any
    /// failure the advertisement is dropped (it was stale) and the
    /// caller falls back to the normal upstream path.
    fn try_peer_fetch(&self, env: &Env, want: Digest, args: &xdr::Bytes) -> Option<xdr::Bytes> {
        let g = self.gossip.as_ref()?;
        let holder = {
            let st = self.state.lock();
            st.peer_digests
                .iter()
                .find(|(_, inv)| inv.contains(&want))
                .map(|(id, _)| *id)
        }?;
        let client = {
            let p = g.peers.lock();
            p.peers
                .iter()
                .find(|(id, _)| *id == holder)
                .map(|(_, c)| c.clone())
        }?;
        let reply = client.call_dl(
            env,
            CHANNEL_PROGRAM,
            CHANNEL_V1,
            chanproc::FETCH_BLOBS_PEER,
            args,
        );
        match reply {
            // Same guard as every other ingestion point: peer replies
            // are digest-verified before they may be cached or served.
            Ok(results) if self.verify_blob_reply(env, &results, want) => {
                g.peer_hits.inc();
                let mut dec = Decoder::new(&results);
                if let (Ok(_), Ok(chunk_len)) = (dec.get_u32(), dec.get_u64()) {
                    g.peer_bytes.add(chunk_len);
                }
                Some(results)
            }
            _ => {
                g.peer_misses.inc();
                let mut st = self.state.lock();
                if let Some(inv) = st.peer_digests.get_mut(&holder) {
                    inv.remove(&want);
                }
                None
            }
        }
    }

    /// Record a fresh digest-cache insertion in the gossip log (no-op
    /// with gossip off). Must run under the state lock, right where the
    /// insert happened.
    fn note_blob_cached(&self, st: &mut ProxyState, d: Digest) {
        if self.gossip.is_some() {
            st.gossip_log.push(d);
        }
    }

    // -- file channel passthrough with caching --------------------------------

    fn handle_channel(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        proc: u32,
        args: xdr::Bytes,
    ) -> RpcMessage {
        if proc == chanproc::FETCH_CHUNK {
            return self.handle_channel_chunk(env, xid, cred, args);
        }
        if proc == chanproc::FETCH_RECIPE {
            return self.handle_channel_recipe(env, xid, cred, args);
        }
        if proc == chanproc::FETCH_BLOBS {
            return self.handle_channel_blob(env, xid, cred, args);
        }
        if proc == chanproc::FETCH_BLOBS_BATCH && self.cfg.fleet.batch_fetch && self.cas.is_some() {
            return self.handle_channel_blob_envelope(env, xid, cred, args);
        }
        if proc == chanproc::GOSSIP_DIGESTS {
            return self.handle_gossip_digests(xid, &args);
        }
        if proc == chanproc::FETCH_BLOBS_PEER {
            return self.handle_channel_blob_peer(env, xid, &args);
        }
        if proc != chanproc::FETCH {
            return self.forward(env, xid, cred, CHANNEL_PROGRAM, CHANNEL_V1, proc, args);
        }
        let fh: Result<Fh3, _> = xdr::from_bytes(&args);
        let key = match &fh {
            Ok(f) => Some(key_of(f.0)),
            Err(_) => None,
        };
        // Second-level cache: replay a previously fetched compressed
        // stream from the local disk instead of re-crossing the WAN.
        if let Some(k) = key {
            let cached = { self.state.lock().chan_replies.get(&k).cloned() };
            if let Some(results) = cached {
                if let Some(fc) = &self.file_cache {
                    // Charge the local-disk read of the stored stream.
                    let _ = fc;
                }
                env.sleep(self.cfg.per_op_cpu);
                return RpcMessage::success(xid, results);
            }
        }
        let reply = self.forward(env, xid, cred, CHANNEL_PROGRAM, CHANNEL_V1, proc, args);
        if let (
            Some(k),
            RpcMessage::Reply {
                body:
                    ReplyBody::Accepted {
                        stat: AcceptStat::Success,
                        results,
                        ..
                    },
                ..
            },
        ) = (key, &reply)
        {
            self.state.lock().chan_replies.insert(k, results.clone());
        }
        reply
    }

    /// Second-level caching for the chunked channel: each compressed
    /// chunk reply is replayed from local state keyed by
    /// `(file, offset, count)`, so an intermediate proxy serves repeat
    /// chunked fetches without re-crossing the WAN.
    fn handle_channel_chunk(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        let key = {
            let mut dec = Decoder::new(&args);
            match (Fh3::decode(&mut dec), dec.get_u64(), dec.get_u32()) {
                (Ok(fh), Ok(off), Ok(count)) => Some((key_of(fh.0), off, count)),
                _ => None,
            }
        };
        if let Some(k) = key {
            let cached = { self.state.lock().chan_chunk_replies.get(&k).cloned() };
            if let Some(results) = cached {
                env.sleep(self.cfg.per_op_cpu);
                return RpcMessage::success(xid, results);
            }
        }
        let reply = self.forward(
            env,
            xid,
            cred,
            CHANNEL_PROGRAM,
            CHANNEL_V1,
            chanproc::FETCH_CHUNK,
            args,
        );
        if let (
            Some(k),
            RpcMessage::Reply {
                body:
                    ReplyBody::Accepted {
                        stat: AcceptStat::Success,
                        results,
                        ..
                    },
                ..
            },
        ) = (key, &reply)
        {
            self.state
                .lock()
                .chan_chunk_replies
                .insert(k, results.clone());
        }
        reply
    }

    /// Second-level caching for `FETCH_RECIPE` replies, keyed by
    /// (file, chunk size). Recipes are tiny but each one otherwise costs
    /// a WAN round trip per cloning.
    fn handle_channel_recipe(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        if self.cas.is_none() {
            return self.forward(
                env,
                xid,
                cred,
                CHANNEL_PROGRAM,
                CHANNEL_V1,
                chanproc::FETCH_RECIPE,
                args,
            );
        }
        let key = {
            let mut dec = Decoder::new(&args);
            match (Fh3::decode(&mut dec), dec.get_u32()) {
                (Ok(fh), Ok(cb)) => Some((key_of(fh.0), cb)),
                _ => None,
            }
        };
        if let Some(k) = key {
            let cached = { self.state.lock().chan_recipe_replies.get(&k).cloned() };
            if let Some(results) = cached {
                env.sleep(self.cfg.per_op_cpu);
                return RpcMessage::success(xid, results);
            }
        }
        let reply = self.forward(
            env,
            xid,
            cred,
            CHANNEL_PROGRAM,
            CHANNEL_V1,
            chanproc::FETCH_RECIPE,
            args,
        );
        if let (
            Some(k),
            RpcMessage::Reply {
                body:
                    ReplyBody::Accepted {
                        stat: AcceptStat::Success,
                        results,
                        ..
                    },
                ..
            },
        ) = (key, &reply)
        {
            let mut st = self.state.lock();
            // Safety valve: recipes are an optimization — on overflow
            // clear the map (HashMap victim picks would be
            // nondeterministic) and let it refill.
            if st.chan_recipe_replies.len() >= RECIPE_REPLY_CAP {
                st.chan_recipe_replies.clear();
            }
            st.chan_recipe_replies.insert(k, results.clone());
        }
        reply
    }

    /// Check that a successful `FETCH_BLOBS` reply's payload really
    /// hashes to `want` (reply wire format: u32 status, u64 chunk_len,
    /// bool compressed, opaque payload). Charges decompression and
    /// digest CPU — the price of guarding a digest-keyed shared cache
    /// against a range-serving origin.
    fn verify_blob_reply(&self, env: &Env, results: &[u8], want: Digest) -> bool {
        let mut dec = Decoder::new(results);
        if dec.get_u32() != Ok(0) {
            return false;
        }
        let (Ok(chunk_len), Ok(compressed), Ok(payload)) =
            (dec.get_u64(), dec.get_bool(), dec.get_opaque_var())
        else {
            return false;
        };
        let contents = if compressed {
            env.sleep(self.codec.decompress_time(chunk_len));
            match codec::decompress(&payload) {
                Ok(c) => c,
                Err(_) => return false,
            }
        } else {
            payload
        };
        if contents.len() as u64 != chunk_len {
            return false;
        }
        env.sleep(self.codec.digest_time(contents.len() as u64));
        digest::digest(&contents) == want
    }

    /// Second-level caching for `FETCH_BLOBS` replies, keyed by *content
    /// digest* rather than file handle: eight distinct images cloned
    /// through one LAN proxy share every common chunk, and concurrent
    /// fetches of the same digest — even for different files —
    /// single-flight on the content (the digest travels in the request
    /// precisely so intermediaries can do this).
    fn handle_channel_blob(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        if self.cas.is_none() {
            return self.forward(
                env,
                xid,
                cred,
                CHANNEL_PROGRAM,
                CHANNEL_V1,
                chanproc::FETCH_BLOBS,
                args,
            );
        }
        let want = {
            let mut dec = Decoder::new(&args);
            match (
                Fh3::decode(&mut dec),
                dec.get_u64(),
                dec.get_u32(),
                dec.get_u64(),
                dec.get_u64(),
            ) {
                (Ok(_), Ok(_), Ok(_), Ok(d0), Ok(d1)) => Some(Digest(d0, d1)),
                _ => None,
            }
        };
        let Some(want) = want else {
            return self.forward(
                env,
                xid,
                cred,
                CHANNEL_PROGRAM,
                CHANNEL_V1,
                chanproc::FETCH_BLOBS,
                args,
            );
        };
        if self.cfg.fleet.batch_fetch {
            return self.handle_channel_blob_batched(env, xid, cred, want, args);
        }
        // Bounded single-flight per digest (same discipline as the
        // file-fetch guard in `handle_read`): one upstream fetch per
        // distinct chunk no matter how many clonings want it at once.
        const MAX_BLOB_ATTEMPTS: u32 = 3;
        let mut attempts = 0u32;
        loop {
            let cached = { self.state.lock().chan_blob_replies.get(&want) };
            if let Some(results) = cached {
                env.sleep(self.cfg.per_op_cpu);
                // Served from content-addressed local state: the chunk's
                // logical bytes never re-crossed the upstream link.
                let mut dec = Decoder::new(&results);
                if let (Ok(_), Ok(chunk_len)) = (dec.get_u32(), dec.get_u64()) {
                    self.dtel.recipe_hits.inc();
                    self.dtel.bytes_avoided.add(chunk_len);
                }
                return RpcMessage::success(xid, results);
            }
            attempts += 1;
            if attempts > MAX_BLOB_ATTEMPTS {
                break;
            }
            let waiter = {
                let mut st = self.state.lock();
                match st.inflight_blob.get(&want) {
                    Some(sig) => Some(sig.clone()),
                    None => {
                        st.inflight_blob
                            .insert(want, simnet::Signal::new(env.handle()));
                        None
                    }
                }
            };
            match waiter {
                Some(sig) => {
                    sig.wait(env);
                    // Re-check the digest cache (the fetch may have
                    // failed; then we claim the retry slot).
                    continue;
                }
                None => {
                    // Gossip: a sibling shard that already holds this
                    // chunk serves it over the LAN; only a peer miss
                    // rides the WAN.
                    if let Some(results) = self.try_peer_fetch(env, want, &args) {
                        {
                            let mut st = self.state.lock();
                            st.chan_blob_replies.insert(want, results.clone());
                            self.note_blob_cached(&mut st, want);
                        }
                        let sig = { self.state.lock().inflight_blob.remove(&want) };
                        if let Some(s) = sig {
                            s.set();
                        }
                        return RpcMessage::success(xid, results);
                    }
                    let reply = self.forward(
                        env,
                        xid,
                        cred,
                        CHANNEL_PROGRAM,
                        CHANNEL_V1,
                        chanproc::FETCH_BLOBS,
                        args.clone(),
                    );
                    if let RpcMessage::Reply {
                        body:
                            ReplyBody::Accepted {
                                stat: AcceptStat::Success,
                                results,
                                ..
                            },
                        ..
                    } = &reply
                    {
                        // Only a channel-level Ok is content — caching a
                        // NoEnt/Stale under a digest would replay the
                        // error to every other file sharing the chunk —
                        // and only a payload that actually hashes to the
                        // requested digest may be keyed by it: the
                        // origin serves by byte range and ignores the
                        // digest, so a stale recipe would otherwise
                        // poison this shared cache permanently for every
                        // file sharing the chunk. Decompression and
                        // digesting are charged at codec throughput,
                        // like the client-side verification in
                        // `fetch_blob`.
                        if self.verify_blob_reply(env, results, want) {
                            let mut st = self.state.lock();
                            st.chan_blob_replies.insert(want, results.clone());
                            self.note_blob_cached(&mut st, want);
                        }
                    }
                    let sig = { self.state.lock().inflight_blob.remove(&want) };
                    if let Some(s) = sig {
                        s.set();
                    }
                    return reply;
                }
            }
        }
        self.forward(
            env,
            xid,
            cred,
            CHANNEL_PROGRAM,
            CHANNEL_V1,
            chanproc::FETCH_BLOBS,
            args,
        )
    }

    /// Fleet-batched variant of the blob miss path: concurrent misses
    /// for *distinct* digests coalesce into one `FETCH_BLOBS_BATCH`
    /// upstream envelope. The per-digest single-flight is preserved
    /// (one signal per digest in `inflight_blob`); on top of it a single
    /// *batch leader* lingers [`FleetTuning::batch_window`] of virtual
    /// time so the burst can gather, then drains the pending misses in
    /// rounds of at most [`FleetTuning::max_batch`] sub-calls — one WAN
    /// round-trip (and one tunnel per-message cost) per round instead of
    /// one per chunk.
    fn handle_channel_blob_batched(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        want: Digest,
        args: xdr::Bytes,
    ) -> RpcMessage {
        enum Role {
            Wait(simnet::Signal),
            Leader,
        }
        const MAX_BLOB_ATTEMPTS: u32 = 3;
        let mut attempts = 0u32;
        loop {
            let (cached, count_hit) = {
                let mut st = self.state.lock();
                match st.chan_blob_replies.get(&want) {
                    Some(r) => (Some(r), !st.batch_uncounted.remove(&want)),
                    None => (None, false),
                }
            };
            if let Some(results) = cached {
                env.sleep(self.cfg.per_op_cpu);
                if count_hit {
                    // Served from content-addressed local state: these
                    // logical bytes never re-crossed the upstream link.
                    // (The first serve after a batch round is the
                    // original requester — its bytes DID cross once, so
                    // it is excluded above.)
                    let mut dec = Decoder::new(&results);
                    if let (Ok(_), Ok(chunk_len)) = (dec.get_u32(), dec.get_u64()) {
                        self.dtel.recipe_hits.inc();
                        self.dtel.bytes_avoided.add(chunk_len);
                    }
                }
                return RpcMessage::success(xid, results);
            }
            attempts += 1;
            if attempts > MAX_BLOB_ATTEMPTS {
                break;
            }
            let role = {
                let mut st = self.state.lock();
                match st.inflight_blob.get(&want) {
                    Some(sig) => Role::Wait(sig.clone()),
                    None => {
                        let sig = simnet::Signal::new(env.handle());
                        st.inflight_blob.insert(want, sig.clone());
                        st.batch_pending.push((want, args.clone()));
                        if st.batch_open {
                            // A leader is already collecting: park on
                            // our own signal and ride its envelope.
                            Role::Wait(sig)
                        } else {
                            st.batch_open = true;
                            Role::Leader
                        }
                    }
                }
            };
            match role {
                Role::Wait(sig) => {
                    sig.wait(env);
                    // Re-check the digest cache (the batched fetch may
                    // have failed for this item; then we claim the
                    // retry slot).
                    continue;
                }
                Role::Leader => {
                    if self.cfg.fleet.batch_window > SimDuration::ZERO {
                        env.sleep(self.cfg.fleet.batch_window);
                    }
                    self.drain_blob_batches(env, cred);
                    continue;
                }
            }
        }
        self.forward(
            env,
            xid,
            cred,
            CHANNEL_PROGRAM,
            CHANNEL_V1,
            chanproc::FETCH_BLOBS,
            args,
        )
    }

    /// One leader's drain: take up to `max_batch` parked blob misses,
    /// fetch them in one upstream `FETCH_BLOBS_BATCH` envelope,
    /// digest-verify and cache each successful item, then wake that
    /// digest's waiters. Leadership (`batch_open`) is released the
    /// moment the pending queue is emptied — *before* the envelope goes
    /// on the wire — so the next miss elects a new leader and starts its
    /// own collection window while this envelope is still in flight.
    /// Coalescing must not cost the shard its upstream parallelism: a
    /// leader that kept collecting until its RPC returned would funnel
    /// every miss through one serial round-trip pipeline, and under
    /// bursty load that *adds* tail latency instead of removing it.
    /// Only when a round leaves items behind (pending > `max_batch`,
    /// i.e. genuine backlog) does the same leader loop for another
    /// round, so no parked waiter is ever left without a leader.
    fn drain_blob_batches(&self, env: &Env, cred: &oncrpc::OpaqueAuth) {
        let max_batch = self.cfg.fleet.max_batch.clamp(1, oncrpc::MAX_BATCH_ITEMS);
        loop {
            let (round, released): (Vec<(Digest, xdr::Bytes)>, bool) = {
                let mut st = self.state.lock();
                if st.batch_pending.is_empty() {
                    st.batch_open = false;
                    return;
                }
                let take = st.batch_pending.len().min(max_batch);
                let round: Vec<(Digest, xdr::Bytes)> = st.batch_pending.drain(..take).collect();
                let released = st.batch_pending.is_empty();
                if released {
                    st.batch_open = false;
                }
                (round, released)
            };
            self.send_blob_round(env, cred, &round);
            if released {
                return;
            }
        }
    }

    /// One upstream `FETCH_BLOBS_BATCH` round: envelope the parked
    /// misses, digest-verify and cache each successful item, then wake
    /// that digest's waiters. On an envelope-level failure every waiter
    /// re-claims and retries (falling back to single calls after the
    /// bounded attempts, like the unbatched path).
    fn send_blob_round(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        round: &[(Digest, xdr::Bytes)],
    ) {
        if self.gossip.is_none() {
            return self.send_blob_round_upstream(env, cred, round);
        }
        // Gossip pass: serve what a sibling shard already holds over the
        // LAN, and send only the genuinely region-cold remainder in the
        // upstream envelope. Waiters on a peer-served digest wake here,
        // exactly as they would after the envelope round.
        let mut remaining: Vec<(Digest, xdr::Bytes)> = Vec::with_capacity(round.len());
        for (want, args) in round {
            match self.try_peer_fetch(env, *want, args) {
                Some(results) => {
                    {
                        let mut st = self.state.lock();
                        st.chan_blob_replies.insert(*want, results);
                        self.note_blob_cached(&mut st, *want);
                    }
                    let sig = { self.state.lock().inflight_blob.remove(want) };
                    if let Some(s) = sig {
                        s.set();
                    }
                }
                None => remaining.push((*want, args.clone())),
            }
        }
        if !remaining.is_empty() {
            self.send_blob_round_upstream(env, cred, &remaining);
        }
    }

    /// The WAN half of a blob round: one `FETCH_BLOBS_BATCH` envelope
    /// upstream for every item still unresolved after the peer pass.
    fn send_blob_round_upstream(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        round: &[(Digest, xdr::Bytes)],
    ) {
        let items: Vec<oncrpc::BatchItem> = round
            .iter()
            .map(|(_, args)| oncrpc::BatchItem {
                proc: chanproc::FETCH_BLOBS,
                args: args.to_vec(),
            })
            .collect();
        self.tel.forwarded.inc();
        if let Some(c) = &self.fleet_batches {
            c.inc();
        }
        if let Some(c) = &self.fleet_batched_items {
            c.add(items.len() as u64);
        }
        let client = self.upstream.with_cred(cred.clone());
        let replies = client.call_batch(
            env,
            CHANNEL_PROGRAM,
            CHANNEL_V1,
            chanproc::FETCH_BLOBS_BATCH,
            &items,
        );
        let per_item: Vec<Option<Vec<u8>>> = match replies {
            Ok(rs) if rs.len() == round.len() => rs
                .into_iter()
                .map(|r| if r.ok() { Some(r.result) } else { None })
                .collect(),
            _ => vec![None; round.len()],
        };
        for ((want, _), result) in round.iter().zip(per_item) {
            if let Some(result) = result {
                // Same guard as the single-call path: only a
                // channel-level Ok whose payload actually hashes to
                // the requested digest may be keyed by it.
                let results: xdr::Bytes = result.into();
                if self.verify_blob_reply(env, &results, *want) {
                    let mut st = self.state.lock();
                    st.chan_blob_replies.insert(*want, results);
                    st.batch_uncounted.insert(*want);
                    self.note_blob_cached(&mut st, *want);
                }
            }
            let sig = { self.state.lock().inflight_blob.remove(want) };
            if let Some(s) = sig {
                s.set();
            }
        }
    }

    /// A downstream `FETCH_BLOBS_BATCH` envelope — a fleet client proxy
    /// fetching a cold file in multi-digest rounds. Every not-cached,
    /// not-already-in-flight digest in the envelope is parked in the
    /// batch queue under one lock acquisition, so the whole envelope
    /// coalesces into at most one upstream round (merged with whatever
    /// the other hosts parked meanwhile); then each item resolves
    /// through the same per-digest path a single `FETCH_BLOBS` takes —
    /// digest-cache hit, waiter on the in-flight signal, or bounded
    /// retry. A per-item failure surfaces in its slot without poisoning
    /// its neighbours, the same contract the origin's envelope handler
    /// keeps.
    fn handle_channel_blob_envelope(
        &self,
        env: &Env,
        xid: u32,
        cred: &oncrpc::OpaqueAuth,
        args: xdr::Bytes,
    ) -> RpcMessage {
        let Ok(items) = oncrpc::batch::decode_batch(&args) else {
            return RpcMessage::accept_error(xid, AcceptStat::GarbageArgs);
        };
        let digest_of = |args: &[u8]| -> Option<Digest> {
            let mut dec = Decoder::new(args);
            match (
                Fh3::decode(&mut dec),
                dec.get_u64(),
                dec.get_u32(),
                dec.get_u64(),
                dec.get_u64(),
            ) {
                (Ok(_), Ok(_), Ok(_), Ok(d0), Ok(d1)) => Some(Digest(d0, d1)),
                _ => None,
            }
        };
        // Phase 1: park every fresh miss under one lock acquisition,
        // then drain our own rounds right away. Unlike the single-blob
        // path there is no leader election and no collect window: the
        // downstream envelope *is* an already-collected batch, and every
        // concurrent envelope handler draining its own round keeps
        // several upstream envelopes in flight at once — a single
        // looping leader would serialize the whole site's cold misses
        // through one round-trip pipeline.
        let mut parked = 0usize;
        {
            let mut st = self.state.lock();
            for item in &items {
                if item.proc != chanproc::FETCH_BLOBS {
                    continue;
                }
                let Some(want) = digest_of(&item.args) else {
                    continue;
                };
                if st.chan_blob_replies.get(&want).is_some() || st.inflight_blob.contains_key(&want)
                {
                    continue;
                }
                st.inflight_blob
                    .insert(want, simnet::Signal::new(env.handle()));
                st.batch_pending.push((want, item.args.clone().into()));
                parked += 1;
            }
        }
        // Drain until we have covered at least as many items as we
        // parked (another handler may have taken ours — then its round
        // covers them and our signals still fire). A round can also pick
        // up loose single-blob misses parked by a collecting leader;
        // that leader finding the queue already empty is fine.
        let max_batch = self.cfg.fleet.max_batch.clamp(1, oncrpc::MAX_BATCH_ITEMS);
        let mut taken = 0usize;
        while taken < parked {
            let round: Vec<(Digest, xdr::Bytes)> = {
                let mut st = self.state.lock();
                let take = st.batch_pending.len().min(max_batch);
                st.batch_pending.drain(..take).collect()
            };
            if round.is_empty() {
                break;
            }
            taken += round.len();
            self.send_blob_round(env, cred, &round);
        }
        // Phase 2: resolve each item through its ordinary per-item
        // handler (our own misses are now cached or in flight).
        let replies: Vec<oncrpc::BatchReplyItem> = items
            .iter()
            .map(|item| {
                let iargs: xdr::Bytes = item.args.clone().into();
                let msg = match item.proc {
                    chanproc::FETCH_BLOBS => self.handle_channel_blob(env, xid, cred, iargs),
                    chanproc::FETCH_CHUNK => self.handle_channel_chunk(env, xid, cred, iargs),
                    chanproc::FETCH_RECIPE => self.handle_channel_recipe(env, xid, cred, iargs),
                    _ => self.forward(
                        env,
                        xid,
                        cred,
                        CHANNEL_PROGRAM,
                        CHANNEL_V1,
                        item.proc,
                        iargs,
                    ),
                };
                match msg {
                    RpcMessage::Reply {
                        body:
                            ReplyBody::Accepted {
                                stat: AcceptStat::Success,
                                results,
                                ..
                            },
                        ..
                    } => oncrpc::BatchReplyItem {
                        stat: oncrpc::BATCH_OK,
                        result: results.to_vec(),
                    },
                    _ => oncrpc::BatchReplyItem {
                        stat: oncrpc::BATCH_ITEM_FAILED,
                        result: Vec::new(),
                    },
                }
            })
            .collect();
        let body: xdr::Bytes = oncrpc::batch::encode_batch_reply(&replies).into();
        RpcMessage::success(xid, body)
    }
}

/// Parse READ3 success results into (data, eof).
fn parse_read_results(results: &[u8]) -> Option<(Vec<u8>, bool)> {
    let mut dec = Decoder::new(results);
    if dec.get_u32().ok()? != Status::Ok.as_u32() {
        return None;
    }
    let _attr = PostOpAttr::decode(&mut dec).ok()?;
    let _count = dec.get_u32().ok()?;
    let eof = dec.get_bool().ok()?;
    let data = dec.get_opaque_var().ok()?;
    Some((data, eof))
}

impl RpcHandler for Proxy {
    fn handle(&self, env: &Env, request: &xdr::Bytes) -> xdr::Bytes {
        let msg = match RpcMessage::decode_shared(request) {
            Ok(m) => m,
            Err(_) => {
                return xdr::to_bytes(&RpcMessage::accept_error(0, AcceptStat::GarbageArgs)).into()
            }
        };
        let (header, args) = match msg {
            RpcMessage::Call { header, args } => (header, args),
            RpcMessage::Reply { xid, .. } => {
                return xdr::to_bytes(&RpcMessage::accept_error(xid, AcceptStat::GarbageArgs))
                    .into()
            }
        };
        let CallHeader {
            xid,
            prog,
            vers,
            proc,
            cred,
            ..
        } = header;
        self.tel.calls.inc();
        if prog == NFS_PROGRAM {
            self.tel.nfs_proc_counter(proc).inc();
        }
        env.sleep(self.cfg.per_op_cpu);

        // Server-side proxies authenticate middleware sessions and map
        // them onto local shadow accounts.
        let cred = match &self.identity {
            Some(mapper) => match mapper.map(&cred, env.now().as_nanos()) {
                Ok(mapped) => mapped,
                Err(ProgramError::AuthError(code)) => {
                    return xdr::to_bytes(&RpcMessage::denied(xid, RejectStat::AuthError(code)))
                        .into()
                }
                Err(_) => {
                    return xdr::to_bytes(&RpcMessage::accept_error(xid, AcceptStat::SystemErr))
                        .into()
                }
            },
            None => cred,
        };

        let reply = if prog == CHANNEL_PROGRAM {
            self.handle_channel(env, xid, &cred, proc, args)
        } else if prog != NFS_PROGRAM || vers != NFS_V3 {
            // MOUNT and anything else passes straight through.
            self.forward(env, xid, &cred, prog, vers, proc, args)
        } else {
            match proc {
                proc3::READ => self.handle_read(env, xid, &cred, args),
                proc3::WRITE => self.handle_write(env, xid, &cred, args),
                proc3::GETATTR => self.handle_getattr(env, xid, &cred, args),
                proc3::COMMIT => self.handle_commit(env, xid, &cred, args),
                proc3::LOOKUP => self.handle_lookup(env, xid, &cred, args),
                _ => self.forward(env, xid, &cred, prog, vers, proc, args),
            }
        };
        xdr::to_bytes(&reply).into()
    }
}
