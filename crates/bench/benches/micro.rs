//! Criterion microbenchmarks for the hot data paths: the XDR codec, the
//! zero-aware compressor, the set-associative block cache's index math,
//! the sparse byte store, and an end-to-end RPC round trip on the
//! simulated transport. These guard the *wall-clock* cost of running the
//! figures, not virtual-time results.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use gvfs::{codec, BlockCache, BlockCacheConfig, Tag};
use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, RpcClient, WireSpec};
use simnet::{Env, Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel, Fs, SparseBytes};
use xdr::{Decoder, Encoder};

fn bench_xdr(c: &mut Criterion) {
    let mut g = c.benchmark_group("xdr");
    let block = vec![0xA5u8; 32 * 1024];
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("encode_32k_read_reply", |b| {
        b.iter(|| {
            let mut enc = Encoder::with_capacity(block.len() + 64);
            enc.put_u32(0);
            enc.put_bool(false);
            enc.put_u32(block.len() as u32);
            enc.put_bool(true);
            enc.put_opaque_var(&block);
            enc.into_bytes()
        })
    });
    let encoded = {
        let mut enc = Encoder::new();
        enc.put_u32(0);
        enc.put_bool(false);
        enc.put_u32(block.len() as u32);
        enc.put_bool(true);
        enc.put_opaque_var(&block);
        enc.into_bytes()
    };
    g.bench_function("decode_32k_read_reply", |b| {
        b.iter(|| {
            let mut dec = Decoder::new(&encoded);
            let _ = dec.get_u32().unwrap();
            let _ = dec.get_bool().unwrap();
            let _ = dec.get_u32().unwrap();
            let _ = dec.get_bool().unwrap();
            dec.get_opaque_var().unwrap()
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    // A memory-image-like megabyte: 90% zeros.
    let mut data = vec![0u8; 1 << 20];
    for i in 0..26 {
        let off = i * 40_000;
        for j in 0..4_000 {
            data[off + j] = ((i * 31 + j) % 251) as u8;
        }
    }
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress_sparse_1m", |b| b.iter(|| codec::compress(&data)));
    let compressed = codec::compress(&data);
    g.bench_function("decompress_sparse_1m", |b| {
        b.iter(|| codec::decompress(&compressed).unwrap())
    });
    g.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_bytes");
    g.bench_function("write_read_sparse_far_offset", |b| {
        b.iter_batched(
            SparseBytes::new,
            |mut s| {
                s.write_at(1 << 30, &[1u8; 65536]);
                s.truncate(2 << 30);
                s.read_range((1 << 30) - 100, 66000)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("is_zero_range_512m_hole", |b| {
        let mut s = SparseBytes::new();
        s.truncate(1 << 30);
        s.write_at(512 << 20, &[1]);
        b.iter(|| s.is_zero_range(0, 512 << 20))
    });
    // A fleet's clone step: one golden memory image copied 128 times into
    // the same filesystem, 1 MiB per read/write as `vmm` copies a `.vmss`.
    let image = clustered_image(5 << 19);
    g.throughput(Throughput::Bytes(128 * image.len() as u64));
    g.bench_function("copy_shared_image", |b| {
        b.iter_batched(
            || {
                let mut fs = Fs::new(0);
                let root = fs.root();
                let golden = fs.create(root, "golden.vmss", 0o644, 0).unwrap();
                fs.write(golden, 0, &image, 0).unwrap();
                (fs, golden)
            },
            |(mut fs, golden)| {
                let root = fs.root();
                for i in 0..128 {
                    let clone = fs
                        .create(root, &format!("clone{i}.vmss"), 0o644, 0)
                        .unwrap();
                    for off in (0..image.len() as u64).step_by(1 << 20) {
                        let (data, _) = fs.read(golden, off, 1 << 20, 0).unwrap();
                        fs.write(clone, off, &data, 0).unwrap();
                    }
                }
                fs
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A memory image shaped like `vmm`'s: a dense first fifth (kernel and
/// libraries), then 64 KB clusters of page data at page-aligned,
/// pseudo-random offsets, the rest zero.
fn clustered_image(len: usize) -> Vec<u8> {
    const PAGE: usize = 4096;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut image = vec![0u8; len];
    let dense = len / 5;
    for b in &mut image[..dense] {
        *b = next() as u8;
    }
    for _ in 0..len / (20 * 64 * 1024) {
        let at = (next() as usize % ((len - 64 * 1024) / PAGE)) * PAGE;
        for b in &mut image[at..at + 64 * 1024] {
            *b = next() as u8;
        }
    }
    image
}

fn bench_block_cache(c: &mut Criterion) {
    // Real virtual-time cache ops executed inside a tiny simulation.
    let mut g = c.benchmark_group("block_cache");
    g.bench_function("insert_lookup_1000", |b| {
        b.iter(|| {
            let sim = Simulation::new();
            let h = sim.handle();
            let cache = Arc::new(BlockCache::new(
                &h,
                Disk::new(&h, DiskModel::scsi_2004()),
                BlockCacheConfig::with_capacity(64 << 20, 16, 8, 32 * 1024),
            ));
            let c2 = cache.clone();
            sim.spawn("b", move |env: Env| {
                for i in 0..1000u64 {
                    let tag = Tag {
                        fileid: 1,
                        generation: 1,
                        block: i,
                    };
                    c2.insert(&env, tag, vec![0u8; 1024], false);
                }
                for i in 0..1000u64 {
                    let tag = Tag {
                        fileid: 1,
                        generation: 1,
                        block: i,
                    };
                    let _ = c2.lookup(&env, tag);
                }
            });
            sim.run()
        })
    });
    g.finish();
}

fn bench_rpc_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulated_rpc");
    g.bench_function("null_call_roundtrip_x100", |b| {
        b.iter(|| {
            let sim = Simulation::new();
            let h = sim.handle();
            let up = Link::new(&h, "up", 1e9, SimDuration::from_micros(50));
            let down = Link::new(&h, "down", 1e9, SimDuration::from_micros(50));
            let ep = oncrpc::endpoint(&h, up, down, WireSpec::plain());
            ep.listener
                .serve("echo", Dispatcher::new().into_handler(), 1);
            let rpc = RpcClient::new(ep.channel, OpaqueAuth::sys(&AuthSys::new("b", 1, 1)));
            sim.spawn("client", move |env: Env| {
                for _ in 0..100 {
                    // Unknown program: server answers PROG_UNAVAIL — a
                    // full encode/transfer/dispatch/reply cycle.
                    let _ = rpc.call(&env, 42, 1, 0, &[]);
                }
            });
            sim.run()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_xdr, bench_codec, bench_sparse, bench_block_cache, bench_rpc_roundtrip
}
criterion_main!(benches);
