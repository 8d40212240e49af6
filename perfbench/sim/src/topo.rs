//! Topology builders with the layer wrappers spliced in.
//!
//! Each builder constructs exactly what its `gvfs_bench` counterpart
//! constructs, in the same order (telemetry instance names depend on it),
//! and differs only in wrapping the proxy and dispatcher handlers before
//! `Listener::serve` and the kernel mount before it enters the mount
//! table. With no tracer the handlers are served unwrapped.

use std::sync::Arc;

use gvfs::{
    BlockCache, BlockCacheConfig, ChannelClient, CodecModel, CowTuning, DedupTuning, FileCache,
    FileChannelServer, FileChannelSpec, FleetTuning, IdentityMapper, Middleware, Proxy,
    ProxyConfig, TransferTuning, WritePolicy,
};
use nfs3::{KernelClient, KernelConfig, MountServer, Nfs3Client, Nfs3Server, ServerConfig};
use oncrpc::transport::RpcHandler;
use oncrpc::{Dispatcher, OpaqueAuth, RpcChannel, RpcClient, WireSpec};
use parking_lot::Mutex;
use simnet::{Env, Link, SimDuration, SimHandle};
use vfs::{Disk, DiskModel, FileIo, Fs, LocalIo, LocalIoConfig, MountTable};
use vmm::{diverge_image, install_image, VmImageSpec};

use crate::trace::{Layer, TracedIo, TracedRpc, Tracer};

/// Optional tracer threaded through the builders.
pub type Tr = Option<Arc<Tracer>>;

/// Wrap `h` as boundary `layer` when tracing (see [`TracedRpc::wrap`]).
fn wrap_rpc(
    tr: &Tr,
    h: Arc<dyn RpcHandler>,
    layer: Layer,
    upstream: Option<&OpaqueAuth>,
    keyed: bool,
) -> Arc<dyn RpcHandler> {
    match tr {
        Some(t) => TracedRpc::wrap(h, t, layer, upstream, keyed),
        None => h,
    }
}

fn proxy_config(
    name: String,
    write_policy: WritePolicy,
    read_only_share: bool,
    meta_handling: bool,
    o: CacheOpts,
) -> ProxyConfig {
    ProxyConfig {
        name,
        write_policy,
        meta_handling,
        per_op_cpu: SimDuration::from_micros(40),
        read_only_share,
        transfer: TransferTuning::default(),
        dedup: o.dedup,
        fleet: o.fleet,
        cow: o.cow,
    }
}

/// The image server (as `gvfs_bench::build_server` with `proxied`).
pub struct Server {
    /// Image-server filesystem.
    pub fs: Arc<Mutex<Fs>>,
    /// Identity registry of the server-side proxy.
    pub mapper: Arc<IdentityMapper>,
    /// Channel into the machine from the external network.
    pub channel: RpcChannel,
}

/// Image server behind `(up, down)`: NFS + MOUNT + file channel on a
/// loopback endpoint, fronted by the server-side proxy.
pub fn build_server(h: &SimHandle, up: Link, down: Link, cache_bytes: u64, tr: &Tr) -> Server {
    let disk = Disk::new(h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(
        h,
        disk.clone(),
        ServerConfig {
            memory_cache_bytes: cache_bytes,
            ..ServerConfig::default()
        },
    );
    let mount = MountServer::new(fs.clone(), vec!["/".to_string(), "/exports".to_string()]);
    let cpu = simnet::Resource::new(h, 2);
    let chan = FileChannelServer::with_cpu(fs.clone(), disk, CodecModel::default(), true, cpu);
    let dispatcher = Dispatcher::new()
        .register(server)
        .register(mount)
        .register(chan)
        .into_handler();
    let mapper = Arc::new(IdentityMapper::new());
    let lo_up = Link::new(h, "srv-lo-up", 1e9, SimDuration::from_micros(20));
    let lo_down = Link::new(h, "srv-lo-down", 1e9, SimDuration::from_micros(20));
    let lo = oncrpc::endpoint(h, lo_up, lo_down, WireSpec::plain());
    lo.listener.serve(
        "nfsd",
        wrap_rpc(tr, dispatcher, Layer::Server, None, false),
        8,
    );
    let srv_proxy = Proxy::new(
        // The server-side proxy sits on the server's own LAN: no CAS, no
        // batching, no copy-on-write.
        proxy_config(
            "server-proxy".into(),
            WritePolicy::WriteThrough,
            false,
            false,
            CacheOpts {
                cache_bytes: 0,
                dedup: DedupTuning::off(),
                fleet: FleetTuning::off(),
                cow: CowTuning::off(),
            },
        ),
        RpcClient::new(lo.channel, OpaqueAuth::none()),
    )
    .with_identity(mapper.clone())
    .into_handler();
    let ext = oncrpc::endpoint(h, up, down, WireSpec::ssh_tunnel(50e6));
    ext.listener.serve(
        "server-proxy",
        wrap_rpc(tr, srv_proxy, Layer::ServerProxy, None, true),
        16,
    );
    Server {
        fs,
        mapper,
        channel: ext.channel,
    }
}

/// Cache and protocol tuning of a caching proxy (client or shard tier).
#[derive(Debug, Clone, Copy)]
pub struct CacheOpts {
    /// Proxy disk cache capacity.
    pub cache_bytes: u64,
    /// CAS dedup tuning.
    pub dedup: DedupTuning,
    /// Fleet batching tuning.
    pub fleet: FleetTuning,
    /// Copy-on-write tuning.
    pub cow: CowTuning,
}

/// A caching proxy configured by `cfg` with its block cache and file
/// channel on `disk`, forwarding to `upstream` as `cred`.
fn caching_proxy(
    h: &SimHandle,
    cfg: ProxyConfig,
    upstream: RpcChannel,
    cred: &OpaqueAuth,
    disk: Disk,
    cache_bytes: u64,
) -> Arc<Proxy> {
    let upstream_client = RpcClient::new(upstream, cred.clone());
    Proxy::new(cfg, upstream_client.clone())
        .with_block_cache(Arc::new(BlockCache::new(
            h,
            disk.clone(),
            BlockCacheConfig::with_capacity(cache_bytes, 512, 16, 32 * 1024),
        )))
        .with_file_channel(
            Arc::new(FileCache::new(disk, cache_bytes)),
            ChannelClient::new(upstream_client, CodecModel::default()),
        )
        .into_handler()
}

/// A compute host's client half (as `gvfs_bench::build_client`).
pub struct Client {
    /// The client proxy.
    pub proxy: Arc<Proxy>,
    /// Channel the kernel client mounts through.
    pub channel: RpcChannel,
    /// The host's local cache disk.
    pub cache_disk: Disk,
}

/// Client-side write-back caching proxy on a loopback endpoint,
/// forwarding to `upstream` as `cred`.
pub fn build_client(
    h: &SimHandle,
    upstream: RpcChannel,
    cred: OpaqueAuth,
    o: CacheOpts,
    tr: &Tr,
) -> Client {
    let cache_disk = Disk::new(h, DiskModel::scsi_2004());
    let cfg = proxy_config(
        "client-proxy".into(),
        WritePolicy::WriteBack,
        false,
        true,
        o,
    );
    let proxy = caching_proxy(h, cfg, upstream, &cred, cache_disk.clone(), o.cache_bytes);
    let lo_up = Link::new(h, "cl-lo-up", 1e9, SimDuration::from_micros(20));
    let lo_down = Link::new(h, "cl-lo-down", 1e9, SimDuration::from_micros(20));
    let ep = oncrpc::endpoint(h, lo_up, lo_down, WireSpec::plain());
    ep.listener.serve(
        "client-proxy",
        wrap_rpc(tr, proxy.clone(), Layer::ClientProxy, Some(&cred), true),
        8,
    );
    Client {
        proxy,
        channel: ep.channel,
        cache_disk,
    }
}

/// Site `site`'s shard proxy (as the library's fleet builds it): a
/// read-only-share caching proxy forwarding to `upstream` as `cred`,
/// served over the site's LAN. Returns the channel the site's hosts use.
pub fn build_shard(
    h: &SimHandle,
    site: usize,
    upstream: RpcChannel,
    cred: OpaqueAuth,
    o: CacheOpts,
    lan: (f64, SimDuration),
    tr: &Tr,
) -> RpcChannel {
    let disk = Disk::new(h, DiskModel::server_array());
    let cfg = proxy_config(
        format!("shard{site}"),
        WritePolicy::WriteThrough,
        true,
        true,
        o,
    );
    let shard = caching_proxy(h, cfg, upstream, &cred, disk, o.cache_bytes);
    let (mbps, oneway) = lan;
    let lan_up = Link::from_mbps(h, format!("lan{site}-up"), mbps, oneway);
    let lan_down = Link::from_mbps(h, format!("lan{site}-down"), mbps, oneway);
    let ep = oncrpc::endpoint(h, lan_up, lan_down, WireSpec::ssh_tunnel(50e6));
    ep.listener.serve(
        &format!("shard{site}"),
        wrap_rpc(tr, shard, Layer::ShardProxy, Some(&cred), true),
        16,
    );
    ep.channel
}

/// Mount the kernel NFS client over `channel` as `cred`.
pub fn mount_kernel(
    env: &Env,
    channel: RpcChannel,
    cred: OpaqueAuth,
    cfg: KernelConfig,
    tr: &Tr,
) -> Arc<dyn FileIo> {
    let nfs = Nfs3Client::new(RpcClient::new(channel, cred.clone()));
    let kc: Arc<dyn FileIo> = KernelClient::mount(env, nfs, "/exports", cfg).expect("mount");
    match tr {
        Some(t) => TracedIo::wrap(kc, t, &cred),
        None => kc,
    }
}

/// One compute host (as `gvfs_bench`'s compute-host builder): client
/// proxy, kernel mount at `/mnt/gvfs`, local disk at `/`.
pub struct ComputeHost {
    /// Mount table the VMM resolves paths through.
    pub table: MountTable,
}

/// Build a compute host whose proxy forwards to `upstream` as `cred`.
pub fn build_compute_host(
    h: &SimHandle,
    env: &Env,
    upstream: RpcChannel,
    cred: OpaqueAuth,
    o: CacheOpts,
    kcfg: KernelConfig,
    tr: &Tr,
) -> ComputeHost {
    let client = build_client(h, upstream, cred.clone(), o, tr);
    let kc = mount_kernel(env, client.channel.clone(), cred, kcfg, tr);
    let local = LocalIo::new(client.cache_disk.clone(), LocalIoConfig::default(), 0);
    let table = MountTable::new().mount("/", local).mount("/mnt/gvfs", kc);
    ComputeHost { table }
}

/// Golden-image parameters for the clone workloads.
#[derive(Debug, Clone, Copy)]
pub struct Goldens {
    /// Distinct images.
    pub images: usize,
    /// Image-size divisor against the paper's 320 MB / 1.6 GB image.
    pub scale: u64,
    /// CAS record size of the middleware content maps.
    pub cas_chunk_bytes: u32,
    /// Content seed of the shared golden base (`None`: the library's).
    pub content_seed: Option<u64>,
}

/// Fraction of each sibling image's memory that diverges, and the base
/// of the per-image divergence seeds (both as the library).
const SIBLING_DIVERGENCE: f64 = 0.04;
const DIVERGE_SEED_BASE: u64 = 0xD1CE_0000;

impl Goldens {
    /// Spec of image `i`.
    pub fn spec(&self, i: usize) -> VmImageSpec {
        let mut spec = VmImageSpec::clone_benchmark(&format!("vm{i}"));
        spec.memory_bytes /= self.scale;
        spec.disk_bytes /= self.scale;
        if let Some(seed) = self.content_seed {
            spec.seed = seed;
        }
        spec
    }

    /// Install every golden image under `/exports` with its middleware
    /// meta-data (zero map + compressed channel on the `.vmss`): images
    /// beyond the first diverge from the shared base.
    pub fn install(&self, fs: &Arc<Mutex<Fs>>) -> Vec<VmImageSpec> {
        let mut fs = fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).expect("mkdir exports");
        (0..self.images)
            .map(|i| {
                let spec = self.spec(i);
                let img = install_image(&mut fs, dir, &spec).expect("install image");
                if i > 0 {
                    diverge_image(
                        &mut fs,
                        &img,
                        &spec,
                        DIVERGE_SEED_BASE + i as u64,
                        SIBLING_DIVERGENCE,
                    )
                    .expect("diverge image");
                }
                Middleware::generate_meta_chunked(
                    &mut fs,
                    "exports",
                    &spec.vmss_name(),
                    32 * 1024,
                    self.cas_chunk_bytes,
                    true,
                    Some(FileChannelSpec {
                        compress: true,
                        writeback: false,
                    }),
                )
                .expect("middleware meta-data");
                spec
            })
            .collect()
    }
}
