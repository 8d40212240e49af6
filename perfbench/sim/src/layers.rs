//! Per-layer metrics of a traced run: the wrapped boundaries' spans plus
//! the program's own telemetry counters, read through `Snapshot`.
//!
//! Every metric is reported for every workload; a layer a workload does
//! not exercise reads 0. Self times need sequential hops to attribute
//! child spans to one parent (see [`exact_self_time`]); where the
//! attribution is ambiguous they read 0.

use simnet::Snapshot;

use crate::trace::{layer_stats, rank, Layer, LayerStats, Op, Span};
use crate::work::Outcome;

/// Sum of counters under `layer` whose instance name matches `inst` and
/// whose metric name is `metric` (instances are `<base>` or `<base>#N`).
fn ctr(s: &Snapshot, layer: &str, inst: impl Fn(&str) -> bool, metric: &str) -> u64 {
    s.counters
        .iter()
        .filter(|c| c.layer == layer)
        .filter_map(|c| {
            let base = c.name.strip_suffix(metric)?.strip_suffix('.')?;
            inst(base).then_some(c.value)
        })
        .sum()
}

/// Instance-name predicate for a proxy tier.
fn tier(prefix: &'static str) -> impl Fn(&str) -> bool {
    move |inst: &str| {
        inst.strip_prefix(prefix).is_some_and(|rest| {
            rest.is_empty()
                || rest.starts_with('#')
                || (prefix == "shard" && rest.chars().all(|c| c.is_ascii_digit()))
        })
    }
}

fn any_proxy(inst: &str) -> bool {
    tier("client-proxy")(inst) || tier("shard")(inst) || tier("server-proxy")(inst)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hist_p99_ms(s: &Snapshot, layer: &str, suffix: &str) -> f64 {
    s.histograms
        .iter()
        .filter(|h| h.layer == layer && h.name.ends_with(suffix) && h.count > 0)
        .map(|h| h.p99_ns)
        .max()
        .unwrap_or(0) as f64
        / 1e6
}

fn gauge_hw(s: &Snapshot, layer: &str, pred: impl Fn(&str) -> bool) -> u64 {
    s.gauges
        .iter()
        .filter(|g| g.layer == layer && pred(&g.name))
        .map(|g| g.high_water)
        .max()
        .unwrap_or(0)
}

/// Median of clone step times, virtual seconds.
fn step_median(o: &Outcome, f: impl Fn(&vmm::CloneTimes) -> simnet::SimDuration) -> f64 {
    let mut v: Vec<u64> = o.clone_times.iter().map(|t| f(t).as_nanos()).collect();
    v.sort_unstable();
    rank(&v, 0.5) as f64 / 1e9
}

/// Whether `layer`'s spans on `workload` link to their children exactly,
/// so that self time is meaningful. A child links to its parent by the
/// credential the parent calls upstream with, plus time containment.
/// `latex_wanc` has one VM, so every hop is sequential. On `clone_wanp`
/// each host's kernel and client proxy call upstream under the host's own
/// credential, but the server proxy forwards every host's requests to the
/// dispatcher under one null credential, and eight hosts clone at once.
/// On `fleet_burst` concurrency makes every link ambiguous.
fn exact_self_time(workload: &str, layer: Layer) -> bool {
    match workload {
        "latex_wanc" => true,
        "clone_wanp" => layer != Layer::ServerProxy,
        _ => false,
    }
}

/// Compute the per-layer metrics of one traced run of `workload`.
pub fn per_layer(o: &Outcome, spans: &[Span], workload: &str) -> Vec<(String, f64)> {
    let s = &o.snapshot;
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| m.push((k.to_string(), v));

    // simnet::engine
    put("engine.events", o.events as f64);
    put("engine.procs", o.procs as f64);
    put(
        "engine.events_per_cpu_s",
        ratio(o.events as f64, o.host.cpu_s),
    );
    put(
        "engine.idle_share",
        1.0 - ratio(o.host.cpu_s, o.host.wall_s),
    );
    put("engine.ctx_switches", o.host.ctx_switches as f64);

    // simnet::link
    let link = |name: &str| s.counter("link", name) as f64;
    let down = link("wan-down.bytes");
    let lan: u64 = s
        .counters
        .iter()
        .filter(|c| c.layer == "link" && c.name.starts_with("lan") && c.name.ends_with(".bytes"))
        .map(|c| c.value)
        .sum();
    let dropped: u64 = s
        .counters
        .iter()
        .filter(|c| c.layer == "link" && c.name.ends_with(".dropped"))
        .map(|c| c.value)
        .sum();
    put("link.wan_down.bytes", down);
    put("link.wan_up.bytes", link("wan-up.bytes"));
    put("link.lan.bytes", lan as f64);
    put(
        "link.wan_down.util",
        ratio(down * 8.0, o.wan_down_mbps * 1e6 * o.end_s),
    );
    put(
        "link.wan.transfer_p99_ms",
        hist_p99_ms(s, "link", "wan-down.transfer").max(hist_p99_ms(s, "link", "wan-up.transfer")),
    );
    put("link.dropped", dropped as f64);

    // oncrpc
    let rpc_calls = |prog: &str| s.counter("rpc", &format!("client.{prog}.calls")) as f64;
    let all_calls: u64 = s
        .counters
        .iter()
        .filter(|c| c.layer == "rpc" && c.name.starts_with("client.") && c.name.ends_with(".calls"))
        .map(|c| c.value)
        .sum();
    put("rpc.nfs.calls", rpc_calls("nfs3"));
    put("rpc.channel.calls", rpc_calls("channel"));
    put(
        "rpc.calls_per_op",
        ratio(all_calls as f64, o.attempted as f64),
    );
    put(
        "rpc.retransmits",
        s.counter_sum("rpc", "retransmits") as f64,
    );
    put("rpc.errors", s.counter_sum("rpc", "errors") as f64);

    // nfs3::kernel, through the FileIo wrapper
    let kread = layer_stats(
        spans,
        |x| x.layer == Layer::Kernel && x.op == Op::Read,
        false,
    );
    let kwrite = layer_stats(
        spans,
        |x| x.layer == Layer::Kernel && x.op == Op::Write,
        false,
    );
    let kall = layer_stats(
        spans,
        |x| x.layer == Layer::Kernel,
        exact_self_time(workload, Layer::Kernel),
    );
    let kc = |metric: &str| ctr(s, "nfs3", |i| tier("kernel-client")(i), metric) as f64;
    put("kernel.read.calls", kread.calls as f64);
    put("kernel.read.p50_ms", kread.p50_ms);
    put("kernel.read.p99_ms", kread.p99_ms);
    put("kernel.write.calls", kwrite.calls as f64);
    put("kernel.write.p99_ms", kwrite.p99_ms);
    put(
        "kernel.cache_hit_ratio",
        ratio(
            kc("buffer_cache.hits"),
            kc("buffer_cache.hits") + kc("buffer_cache.misses"),
        ),
    );
    put("kernel.self_s", kall.self_s);

    // nfs3::server, through the dispatcher wrapper
    let srv = layer_stats(spans, |x| x.layer == Layer::Server, false);
    let sc = |metric: &str| ctr(s, "nfs3", |i| tier("nfs3-server")(i), metric) as f64;
    put("server.calls", sc("calls"));
    put("server.busy_s", srv.busy_s);
    put("server.p99_ms", srv.p99_ms);
    put(
        "server.cache_hit_ratio",
        ratio(
            sc("buffer_cache.hits"),
            sc("buffer_cache.hits") + sc("buffer_cache.misses"),
        ),
    );
    put("server.write_bytes", sc("write_bytes"));

    // gvfs::proxy, per tier
    for (name, prefix, layer) in [
        ("client", "client-proxy", Layer::ClientProxy),
        ("shard", "shard", Layer::ShardProxy),
        ("server", "server-proxy", Layer::ServerProxy),
    ] {
        let st: LayerStats = layer_stats(
            spans,
            |x| x.layer == layer,
            exact_self_time(workload, layer),
        );
        let c = |metric: &str| ctr(s, "gvfs", tier(prefix), metric) as f64;
        put(&format!("proxy.{name}.calls"), c("calls"));
        put(&format!("proxy.{name}.busy_s"), st.busy_s);
        put(&format!("proxy.{name}.self_s"), st.self_s);
        put(&format!("proxy.{name}.p99_ms"), st.p99_ms);
        put(
            &format!("proxy.{name}.forwarded_ratio"),
            ratio(c("forwarded"), c("calls")),
        );
        put(
            &format!("proxy.{name}.recovered_errors"),
            c("recovered_errors"),
        );
    }

    // gvfs::block_cache
    let bc = |metric: &str| ctr(s, "gvfs", |i| tier("block-cache")(i), metric) as f64;
    let px = |metric: &str| ctr(s, "gvfs", any_proxy, metric) as f64;
    put(
        "block_cache.hit_ratio",
        ratio(bc("hits"), bc("hits") + bc("misses")),
    );
    put("block_cache.evictions", bc("evictions"));
    put("prefetch.issued", px("prefetch_issued"));
    put(
        "prefetch.useful_ratio",
        ratio(px("prefetch_hits"), px("prefetch_issued")),
    );
    put("prefetch.wasted", px("prefetch_wasted"));

    // gvfs::transfer
    put("transfer.jobs", px("transfer.jobs"));
    put(
        "transfer.stall_p99_ms",
        hist_p99_ms(s, "gvfs", "transfer.stall"),
    );
    put(
        "transfer.inflight_high_water",
        gauge_hw(s, "gvfs", |n| n.ends_with("transfer.window_inflight")) as f64,
    );
    put("flush.retry_rounds", px("flush_retry_rounds"));
    put("wb.queued", px("wb_queued"));
    put("wb.shed", px("wb_shed"));

    // gvfs::channel / cas / codec. A channel fetch moves one whole golden
    // `.vmss`, so its logical bytes are fetches × the image's size.
    let logical = px("channel_fetches") * o.vmss_bytes as f64;
    put("channel.fetches", px("channel_fetches"));
    put("channel.wire_bytes", px("channel_wire_bytes"));
    put(
        "channel.compression_ratio",
        ratio(logical, px("channel_wire_bytes")),
    );
    put("dedup.blob_fetches", px("dedup.blob_fetches"));
    put("dedup.recipe_hits", px("dedup.recipe_hits"));
    put(
        "dedup.useful_ratio",
        ratio(px("dedup.bytes_avoided"), logical),
    );
    put("cow.ref_installs", px("cow.ref_installs"));
    put("cas.pin_blocked_evictions", px("cas.pin_blocked_evictions"));
    put("zero_filtered", px("zero_filtered"));

    // gvfs::fleet (shard tier)
    let batches = ctr(s, "gvfs", tier("shard"), "fleet.batches") as f64;
    let items = ctr(s, "gvfs", tier("shard"), "fleet.batched_items") as f64;
    put("fleet.batches", batches);
    put("fleet.items_per_batch", ratio(items, batches));
    put(
        "fleet.shard_inflight_high_water",
        gauge_hw(s, "fleet", |n| n.ends_with(".inflight")) as f64,
    );

    // vmm
    put("vmm.copy_config_s", step_median(o, |t| t.copy_config));
    put("vmm.copy_memory_s", step_median(o, |t| t.copy_memory));
    put("vmm.configure_s", step_median(o, |t| t.configure));
    put("vmm.resume_s", step_median(o, |t| t.resume));
    let busy: f64 = if o.clone_times.is_empty() {
        o.vt.iter()
            .filter(|(k, _)| k.starts_with("iter"))
            .map(|(_, v)| v.max(0.0))
            .sum()
    } else {
        o.clone_times.iter().map(|t| t.total.as_secs_f64()).sum()
    };
    put("vmm.compute_share", ratio(o.compute_s, busy));
    m
}
