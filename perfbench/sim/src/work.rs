//! The three workloads, each one simulation built from the public APIs
//! (with the layer wrappers when traced), plus the library runs and the
//! local reference they are checked against.

use std::sync::Arc;

use gvfs::{CowTuning, DedupTuning, FleetTuning, Middleware};
use gvfs_bench::{fs_digest, AppParams, AppScenario, ArrivalMode, CloneParams, FleetParams};
use nfs3::KernelConfig;
use parking_lot::Mutex;
use simnet::{ArrivalProcess, Env, Link, SimDuration, Simulation, Snapshot};
use vfs::{Disk, DiskModel, Fs, LocalIo, LocalIoConfig, MountTable};
use vmm::{
    clone_vm, install_image, CloneConfig, ClonePopulation, CloneTimes, GuestOp, VmConfig,
    VmImageSpec, VmMonitor,
};
use workloads::latex::{generate, LatexParams};
use workloads::Workload;

use crate::host::{self, HostCost};
use crate::topo::{self, CacheOpts, Goldens, Tr};
use crate::trace::{fnv, Span, Tracer};

/// `fleet_burst`: clone requests in one run.
pub const FLEET_CLONES: usize = 1024;
/// `fleet_burst`: LAN sites (one shard proxy each).
pub const FLEET_SITES: usize = 4;
/// `fleet_burst`: compute hosts per site.
pub const FLEET_HOSTS_PER_SITE: usize = 2;
/// `fleet_burst`: image-size divisor. The committed lane uses 64, which
/// takes about 30 CPU seconds and 3 GB of memory per run on a 2-vCPU
/// 2.0 GHz Xeon VM; at 128 a run takes about 8 CPU seconds and 2 GB, and
/// the shard tier still reaches the committed lane's in-flight high-water
/// mark (3), with a seed-dependent p99 well above p50.
pub const FLEET_SCALE: u64 = 128;
/// `clone_wanp`: compute hosts = distinct images.
pub const WANP_HOSTS: usize = 8;
/// `clone_wanp`: image-size divisor (Table 1 runs full size).
pub const WANP_SCALE: u64 = 16;
/// A clone that is up within this many virtual seconds of its due time
/// meets the fleet's service-level objective.
pub const SLO_SECS: f64 = 2.0;
/// Set-ups timed per process; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// How to run one simulation.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed.
    pub seed: u64,
    /// Record spans at the wrapped boundaries.
    pub trace: bool,
    /// Run the expensive output checks (filesystem digests).
    pub checks: bool,
}

/// Everything one simulation reports.
#[derive(Default)]
pub struct Outcome {
    /// Virtual-time and byte results; bit-identical across repeats.
    pub vt: Vec<(&'static str, f64)>,
    /// Operations attempted (clones, or iterations plus the flush).
    pub attempted: u64,
    /// Operations that failed or never finished.
    pub failed: u64,
    /// Host CPU seconds of topology construction, golden image install and
    /// middleware meta-data generation, median of [`SETUP_REPS`] set-ups
    /// (CPU, not wall: set-up is single threaded, and CPU time does not
    /// count the host's steal).
    pub setup_s: f64,
    /// Host cost of the simulation run.
    pub host: HostCost,
    /// Telemetry after the run drained.
    pub snapshot: Snapshot,
    /// Scheduler events processed.
    pub events: u64,
    /// Simulated processes spawned.
    pub procs: u64,
    /// Final virtual time, seconds.
    pub end_s: f64,
    /// Failed output checks, as messages.
    pub check_failures: Vec<String>,
    /// Content digest of the image server's filesystem after the run
    /// (with checks only).
    pub server_digest: Option<u64>,
    /// Spans of a traced run.
    pub spans: Option<Vec<Span>>,
    /// Per-clone step times.
    pub clone_times: Vec<CloneTimes>,
    /// Virtual seconds of pure guest/VMM compute the run contains.
    pub compute_s: f64,
    /// Logical bytes of one golden `.vmss` (0 without clones).
    pub vmss_bytes: u64,
    /// Origin WAN downlink bandwidth, Mb/s.
    pub wan_down_mbps: f64,
}

/// `full / scale` (the fleet's scaled VMM CPU costs).
fn scaled(full: SimDuration, scale: u64) -> SimDuration {
    SimDuration::from_nanos(full.as_nanos() / scale.max(1))
}

/// The VMM configuration of the clone scenarios.
fn clone_vm_config(device_cpu: SimDuration) -> VmConfig {
    VmConfig {
        guest_cache_fraction: 0.12,
        device_cpu,
        ..VmConfig::default()
    }
}

/// Exact nearest-rank quantile of unsorted virtual seconds.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let k = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[k - 1]
}

/// Mean of virtual seconds (0 when empty).
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

fn mb(snapshot: &Snapshot, counter: &str) -> f64 {
    snapshot.counter("link", counter) as f64 / 1e6
}

/// Run `build` [`SETUP_REPS`] times, timing each in process CPU seconds,
/// and return the last simulation and its parts with the median time. The
/// earlier builds are rehearsals: their parts are dropped, so the servers'
/// request channels close, and their simulation runs to quiescence (the
/// idle workers retire) before the next build starts.
fn timed_setup<T>(mut build: impl FnMut() -> (Simulation, T)) -> (Simulation, T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    loop {
        let t0 = host::usage().cpu_s;
        let (sim, parts) = build();
        times.push(host::usage().cpu_s - t0);
        if times.len() == SETUP_REPS {
            return (sim, parts, quantile(&times, 0.5));
        }
        drop(parts);
        sim.run();
    }
}

/// Check every `.vmss` range a traced clone read through its kernel mount
/// against the same range of the golden file on the origin.
fn check_vmss_reads(tracer: &Tracer, fs: &Arc<Mutex<Fs>>, failures: &mut Vec<String>) {
    let reads = tracer.take_vmss_reads();
    if reads.is_empty() {
        failures.push("traced run saw no .vmss bytes through the kernel mount".into());
        return;
    }
    let mut golden = std::collections::HashMap::new();
    let mut bad = 0usize;
    let mut fs = fs.lock();
    for (name, off, len, digest) in &reads {
        let want = *golden.entry((name.clone(), *off, *len)).or_insert_with(|| {
            let h = fs
                .resolve(&format!("exports/{name}"))
                .expect("golden vmss exists");
            let (data, _) = fs.read(h, *off, *len as usize, 0).expect("golden read");
            fnv(&data)
        });
        if want != *digest {
            bad += 1;
        }
    }
    if bad > 0 {
        failures.push(format!(
            "{bad} of {} .vmss reads differ from the golden image",
            reads.len()
        ));
    }
}

// ---------------------------------------------------------------------------
// fleet_burst
// ---------------------------------------------------------------------------

/// The library parameters `fleet_burst` is equal to: the cold
/// `fleet-bursty-batch` lane (CoW off, no prestage) at 1,024 clones.
pub fn fleet_params(seed: u64) -> FleetParams {
    FleetParams {
        clones: FLEET_CLONES,
        sites: FLEET_SITES,
        hosts_per_site: FLEET_HOSTS_PER_SITE,
        images: 8,
        seed,
        arrival: ArrivalMode::Bursty,
        rate_per_sec: 1.0,
        image_scale: Some(FLEET_SCALE),
        cas_chunk_bytes: 8 * 1024,
        fleet: FleetTuning::shard(),
        dedup: DedupTuning::default(),
        cow: CowTuning::off(),
        device_cpu: scaled(SimDuration::from_secs(6), FLEET_SCALE),
        configure_cpu: scaled(SimDuration::from_secs(3), FLEET_SCALE),
        ..FleetParams::default()
    }
}

/// One clone request's record.
#[derive(Debug, Clone, Copy, Default)]
struct Request {
    due_ns: u64,
    dispatched_ns: u64,
    done_ns: Option<u64>,
    times: CloneTimes,
}

/// `fleet_burst`: an open loop of bursty clone requests through the
/// sharded proxy tree.
pub fn fleet(cfg: RunCfg) -> Outcome {
    let p = fleet_params(cfg.seed);
    let tracer = cfg.trace.then(|| Arc::new(Tracer::default()));
    let tr: Tr = tracer.clone();
    let goldens = Goldens {
        images: p.images,
        scale: FLEET_SCALE,
        cas_chunk_bytes: p.cas_chunk_bytes,
        content_seed: None,
    };
    let opts = CacheOpts {
        cache_bytes: p.proxy_cache_bytes,
        dedup: p.dedup,
        fleet: p.fleet,
        cow: p.cow,
    };
    let (sim, (server, specs, mw, shard_channels, gauges), setup_s) = timed_setup(|| {
        let sim = Simulation::new();
        let h = sim.handle();
        let wan_up = Link::from_mbps(&h, "wan-up", p.net.wan_up_mbps, p.net.wan_oneway);
        let wan_down = Link::from_mbps(&h, "wan-down", p.net.wan_down_mbps, p.net.wan_oneway);
        let server = topo::build_server(&h, wan_up, wan_down, 768 << 20, &tr);
        let specs = goldens.install(&server.fs);
        let mw = Middleware::new();
        let mut shard_channels = Vec::with_capacity(p.sites);
        let mut gauges = Vec::with_capacity(p.sites);
        for s in 0..p.sites {
            let (_sid, cred) =
                mw.establish_session(&server.mapper, &format!("site{s}"), 0, u64::MAX / 2);
            let channel = topo::build_shard(
                &h,
                s,
                server.channel.clone(),
                cred,
                opts,
                (p.net.lan_mbps, p.net.lan_oneway),
                &tr,
            );
            shard_channels.push(channel);
            gauges.push(h.telemetry().gauge("fleet", format!("shard{s}.inflight")));
        }
        (sim, (server, specs, mw, shard_channels, gauges))
    });
    let h = sim.handle();

    let sketch = h.telemetry().sketch("fleet", "clone_latency_ns");
    let pop = ClonePopulation::new(p.seed, p.images, p.sites);
    let offsets =
        ArrivalProcess::on_off(p.seed, p.rate_per_sec * 4.0, 8.0, 24.0).take_offsets(p.clones);
    let kcfg = KernelConfig {
        cache_bytes: p.kernel_cache_bytes,
        ..KernelConfig::default()
    };
    let clone_cfg = CloneConfig {
        vm: clone_vm_config(p.device_cpu),
        configure_cpu: p.configure_cpu,
        cow_memory: false,
        ..CloneConfig::default()
    };
    let requests: Arc<Mutex<Vec<Request>>> =
        Arc::new(Mutex::new(vec![Request::default(); p.clones]));
    let reqs = requests.clone();
    let h2 = h.clone();
    let mapper = server.mapper.clone();
    let tr2 = tr.clone();
    sim.spawn("fleet-coordinator", move |env: Env| {
        let hosts: Vec<Vec<topo::ComputeHost>> = (0..p.sites)
            .map(|s| {
                (0..p.hosts_per_site)
                    .map(|k| {
                        let (_sid, cred) = mw.establish_session(
                            &mapper,
                            &format!("site{s}-host{k}"),
                            0,
                            u64::MAX / 2,
                        );
                        topo::build_compute_host(
                            &h2,
                            &env,
                            shard_channels[s].clone(),
                            cred,
                            opts,
                            kcfg,
                            &tr2,
                        )
                    })
                    .collect()
            })
            .collect();
        let hosts = Arc::new(hosts);
        let specs = Arc::new(specs);
        let mut joins = Vec::with_capacity(p.clones);
        let t_start = env.now();
        for (i, at) in offsets.iter().enumerate() {
            let due = t_start + *at;
            let now = env.now();
            if due > now {
                env.sleep(due - now);
            }
            {
                let mut r = reqs.lock();
                r[i].due_ns = due.as_nanos();
                r[i].dispatched_ns = env.now().as_nanos();
            }
            let site = pop.site_of(i);
            let host_ix = (i / p.sites) % p.hosts_per_site;
            let image = pop.image_of(i);
            let hosts = hosts.clone();
            let specs = specs.clone();
            let gauge = gauges[site].clone();
            let sketch = sketch.clone();
            let diverge_bytes = pop.diverge_bytes_of(i, specs[image].memory_bytes);
            let reqs = reqs.clone();
            joins.push(env.spawn(format!("clone{i}"), move |env| {
                let t0 = env.now();
                gauge.inc();
                let host = &hosts[site][host_ix];
                let spec = &specs[image];
                let result = clone_vm(
                    &env,
                    &host.table,
                    "/mnt/gvfs",
                    spec,
                    &format!("/clone{i}"),
                    clone_cfg,
                )
                .and_then(|(times, vm)| {
                    // Population-driven divergence, as the library's fleet.
                    let chunk = 64 * 1024u64;
                    let mut written = 0u64;
                    let mut off = (diverge_bytes.wrapping_mul(0x9E37)) % spec.disk_bytes.max(1);
                    let mut ops = Vec::new();
                    while written < diverge_bytes {
                        let len = chunk.min(diverge_bytes - written) as u32;
                        if off + len as u64 > spec.disk_bytes {
                            off = 0;
                        }
                        ops.push(GuestOp::DiskWrite { offset: off, len });
                        off += len as u64;
                        written += len as u64;
                    }
                    vm.run(&env, &ops)?;
                    vm.shutdown(&env)?;
                    Ok(times)
                });
                gauge.dec();
                sketch.record(env.now() - t0);
                // A failed clone stays without `done_ns` and counts as failed.
                if let Ok(times) = result {
                    let mut r = reqs.lock();
                    r[i].done_ns = Some(env.now().as_nanos());
                    r[i].times = times;
                }
            }));
        }
        for j in joins {
            j.join(&env);
        }
    });
    let before = cfg.checks.then(|| fs_digest(&server.fs));
    let (end, cost) = host::run(sim);

    let snapshot = h.telemetry().snapshot();
    let requests = requests.lock().clone();
    let mut out = Outcome {
        attempted: p.clones as u64,
        setup_s,
        host: cost,
        events: h.events_processed(),
        procs: h.processes_spawned(),
        end_s: end.as_secs_f64(),
        vmss_bytes: goldens.spec(0).memory_bytes,
        wan_down_mbps: p.net.wan_down_mbps,
        ..Outcome::default()
    };
    let lat: Vec<f64> = requests
        .iter()
        .filter_map(|r| r.done_ns.map(|d| (d - r.due_ns) as f64 / 1e9))
        .collect();
    out.failed = (p.clones - lat.len()) as u64;
    let late: Vec<f64> = requests
        .iter()
        .map(|r| (r.dispatched_ns.saturating_sub(r.due_ns)) as f64 / 1e9)
        .collect();
    let met = lat.iter().filter(|&&l| l <= SLO_SECS).count();
    out.vt = vec![
        ("op_mean_s", mean(&lat)),
        ("clone_p50_s", quantile(&lat, 0.50)),
        ("clone_p99_s", quantile(&lat, 0.99)),
        ("clone_slo_ratio", met as f64 / p.clones as f64),
        ("dispatch_late_p99_s", quantile(&late, 0.99)),
        (
            "dispatch_late_max_s",
            late.iter().copied().fold(0.0, f64::max),
        ),
        ("makespan_s", out.end_s),
        ("wan_down_mb", mb(&snapshot, "wan-down.bytes")),
        ("wan_up_mb", mb(&snapshot, "wan-up.bytes")),
    ];
    out.clone_times = requests
        .iter()
        .filter(|r| r.done_ns.is_some())
        .map(|r| r.times)
        .collect();
    out.compute_s = out.clone_times.len() as f64 * secs(p.device_cpu + p.configure_cpu);
    if let Some(before) = before {
        let after = fs_digest(&server.fs);
        if after != before {
            out.check_failures
                .push("fleet_burst changed the origin's filesystem".into());
        }
        out.server_digest = Some(after);
    }
    if let Some(t) = &tracer {
        check_vmss_reads(t, &server.fs, &mut out.check_failures);
        out.spans = Some(t.take_spans(true));
    }
    out.snapshot = snapshot;
    out
}

// ---------------------------------------------------------------------------
// clone_wanp
// ---------------------------------------------------------------------------

/// Content seed of `clone_wanp`'s golden base image for `seed`: seed 0
/// keeps the library's image, so `clone_wanp --seed 0` equals
/// `run_parallel_cloning`.
pub fn wanp_content_seed(seed: u64) -> Option<u64> {
    (seed != 0).then(|| simnet::splitmix64(seed))
}

/// The library parameters `clone_wanp` (at seed 0) is equal to.
pub fn wanp_params() -> CloneParams {
    CloneParams {
        clones: WANP_HOSTS,
        image_scale: Some(WANP_SCALE),
        ..CloneParams::default()
    }
}

/// `clone_wanp`: Table 1 WAN-P — every host clones its own image in
/// parallel from one image server over the paper's WAN, cold then warm.
pub fn wanp(cfg: RunCfg) -> Outcome {
    let p = wanp_params();
    let n = p.clones;
    let tracer = cfg.trace.then(|| Arc::new(Tracer::default()));
    let tr: Tr = tracer.clone();
    let goldens = Goldens {
        images: n,
        scale: WANP_SCALE,
        cas_chunk_bytes: p.cas_chunk_bytes,
        content_seed: wanp_content_seed(cfg.seed),
    };
    let (sim, (server, specs, mw), setup_s) = timed_setup(|| {
        let sim = Simulation::new();
        let h = sim.handle();
        let up = Link::from_mbps(&h, "wan-up", p.net.wan_up_mbps, p.net.wan_oneway);
        let down = Link::from_mbps(&h, "wan-down", p.net.wan_down_mbps, p.net.wan_oneway);
        let server = topo::build_server(&h, up, down, 768 << 20, &tr);
        let specs = goldens.install(&server.fs);
        (sim, (server, specs, Middleware::new()))
    });
    let h = sim.handle();
    let kcfg = KernelConfig {
        cache_bytes: p.kernel_cache_bytes,
        ..KernelConfig::default()
    };
    let clone_cfg = CloneConfig {
        vm: clone_vm_config(p.device_cpu),
        configure_cpu: p.configure_cpu,
        cow_memory: p.cow.enabled && p.dedup.enabled,
        ..CloneConfig::default()
    };
    let opts = CacheOpts {
        cache_bytes: p.proxy_cache_bytes,
        dedup: p.dedup,
        fleet: p.fleet,
        cow: p.cow,
    };
    let passes = Arc::new(Mutex::new([0.0f64; 2]));
    let times: Arc<Mutex<Vec<CloneTimes>>> = Arc::new(Mutex::new(Vec::new()));
    let (passes2, times2) = (passes.clone(), times.clone());
    let h2 = h.clone();
    let mapper = server.mapper.clone();
    let channel = server.channel.clone();
    let tr2 = tr.clone();
    sim.spawn("coordinator", move |env: Env| {
        let hosts: Vec<(topo::ComputeHost, VmImageSpec)> = (0..n)
            .map(|i| {
                let (_sid, cred) =
                    mw.establish_session(&mapper, &format!("user{i}"), 0, u64::MAX / 2);
                (
                    topo::build_compute_host(&h2, &env, channel.clone(), cred, opts, kcfg, &tr2),
                    specs[i % specs.len()].clone(),
                )
            })
            .collect();
        let hosts = Arc::new(hosts);
        for pass in 0..2usize {
            let t0 = env.now();
            let mut joins = Vec::new();
            for i in 0..hosts.len() {
                let hosts = hosts.clone();
                let times = times2.clone();
                joins.push(env.spawn(format!("clone-p{pass}-{i}"), move |env| {
                    let (host, spec) = &hosts[i];
                    let r = clone_vm(
                        &env,
                        &host.table,
                        "/mnt/gvfs",
                        spec,
                        &format!("/p{pass}clone{i}"),
                        clone_cfg,
                    )
                    .and_then(|(t, vm)| vm.shutdown(&env).map(|_| t));
                    // A failed clone leaves no times and counts as failed.
                    if let Ok(t) = r {
                        times.lock().push(t);
                    }
                }));
            }
            for j in joins {
                j.join(&env);
            }
            passes2.lock()[pass] = (env.now() - t0).as_secs_f64();
        }
    });
    let before = cfg.checks.then(|| fs_digest(&server.fs));
    let (end, cost) = host::run(sim);

    let snapshot = h.telemetry().snapshot();
    let [cold, warm] = *passes.lock();
    let clone_times = times.lock().clone();
    let mut out = Outcome {
        attempted: 2 * n as u64,
        failed: (2 * n - clone_times.len()) as u64,
        setup_s,
        host: cost,
        events: h.events_processed(),
        procs: h.processes_spawned(),
        end_s: end.as_secs_f64(),
        compute_s: clone_times.len() as f64 * secs(p.device_cpu + p.configure_cpu),
        clone_times,
        vmss_bytes: goldens.spec(0).memory_bytes,
        wan_down_mbps: p.net.wan_down_mbps,
        ..Outcome::default()
    };
    let totals: Vec<f64> = out.clone_times.iter().map(|t| secs(t.total)).collect();
    out.vt = vec![
        ("op_mean_s", mean(&totals)),
        ("clone_cold_s", cold),
        ("clone_warm_s", warm),
        ("makespan_s", out.end_s),
        ("wan_down_mb", mb(&snapshot, "wan-down.bytes")),
        ("wan_up_mb", mb(&snapshot, "wan-up.bytes")),
    ];
    if let Some(before) = before {
        let after = fs_digest(&server.fs);
        if after != before {
            out.check_failures
                .push("clone_wanp changed the origin's filesystem".into());
        }
        out.server_digest = Some(after);
    }
    if let Some(t) = &tracer {
        check_vmss_reads(t, &server.fs, &mut out.check_failures);
        out.spans = Some(t.take_spans(false));
    }
    out.snapshot = snapshot;
    out
}

// ---------------------------------------------------------------------------
// latex_wanc
// ---------------------------------------------------------------------------

/// The LaTeX session of `latex_wanc` for `seed` (20 iterations, 175 MB
/// cold working set).
pub fn latex_workload(seed: u64) -> Workload {
    generate(&LatexParams {
        seed,
        ..LatexParams::default()
    })
}

/// Run the session's phases on `vm`: one phase per iteration, each ended
/// by a guest sync; returns per-iteration virtual seconds (`None` for a
/// failed iteration).
fn drive_iterations(env: &Env, vm: &VmMonitor, wl: &Workload) -> Vec<Option<f64>> {
    wl.phases
        .iter()
        .map(|phase| {
            let t0 = env.now();
            let ok = vm.run(env, &phase.ops).is_ok() && vm.sync_disk(env).is_ok();
            ok.then(|| (env.now() - t0).as_secs_f64())
        })
        .collect()
}

fn latex_results(iters: &[Option<f64>], flush: Option<f64>, out: &mut Outcome) {
    let ok: Vec<f64> = iters.iter().flatten().copied().collect();
    let warm: Vec<f64> = iters.iter().skip(1).flatten().copied().collect();
    out.attempted = iters.len() as u64 + 1;
    out.failed = (iters.len() - ok.len()) as u64 + u64::from(flush.is_none());
    out.vt = vec![
        ("op_mean_s", mean(&ok)),
        (
            "app_first_s",
            iters.first().copied().flatten().unwrap_or(0.0),
        ),
        ("app_warm_s", quantile(&warm, 0.5)),
        ("flush_s", flush.unwrap_or(0.0)),
    ];
    // Every iteration is a result of its own: the library comparison and
    // the repeat check hold all of them, not just the summaries.
    for (i, t) in iters.iter().enumerate() {
        out.vt.push((ITER_NAMES[i], t.unwrap_or(-1.0)));
    }
}

const ITER_NAMES: [&str; 20] = [
    "iter01_s", "iter02_s", "iter03_s", "iter04_s", "iter05_s", "iter06_s", "iter07_s", "iter08_s",
    "iter09_s", "iter10_s", "iter11_s", "iter12_s", "iter13_s", "iter14_s", "iter15_s", "iter16_s",
    "iter17_s", "iter18_s", "iter19_s", "iter20_s",
];

/// `latex_wanc`: Fig 4 WAN+C — one VM over a write-back caching client
/// proxy and the paper's WAN, then a flush to the image server.
pub fn latex(cfg: RunCfg) -> Outcome {
    let params = AppParams::default();
    let wl = latex_workload(cfg.seed);
    let tracer = cfg.trace.then(|| Arc::new(Tracer::default()));
    let tr: Tr = tracer.clone();
    let image = VmImageSpec::app_benchmark("appvm");
    let (sim, (server, client, cred), setup_s) = timed_setup(|| {
        let sim = Simulation::new();
        let h = sim.handle();
        let up = Link::from_mbps(&h, "wan-up", params.net.wan_up_mbps, params.net.wan_oneway);
        let down = Link::from_mbps(
            &h,
            "wan-down",
            params.net.wan_down_mbps,
            params.net.wan_oneway,
        );
        let server = topo::build_server(&h, up, down, params.server_cache_bytes, &tr);
        {
            let mut fs = server.fs.lock();
            let root = fs.root();
            let dir = fs.mkdir(root, "exports", 0o755, 0).expect("mkdir exports");
            install_image(&mut fs, dir, &image).expect("install image");
        }
        let mw = Middleware::new();
        let (_sid, cred) = mw.establish_session(&server.mapper, "griduser", 0, u64::MAX / 2);
        let client = topo::build_client(
            &h,
            server.channel.clone(),
            cred.clone(),
            CacheOpts {
                cache_bytes: params.proxy_cache_bytes,
                dedup: params.dedup,
                fleet: FleetTuning::off(),
                cow: CowTuning::off(),
            },
            &tr,
        );
        (sim, (server, client, cred))
    });
    let h = sim.handle();
    let kcfg = KernelConfig {
        cache_bytes: params.kernel_cache_bytes,
        ..KernelConfig::default()
    };
    // Per-iteration seconds and the flush seconds, as the VM saw them.
    type Driven = (Vec<Option<f64>>, Option<f64>);
    let result: Arc<Mutex<Driven>> = Arc::default();
    let result2 = result.clone();
    let wl2 = wl.clone();
    let tr2 = tr.clone();
    sim.spawn("latex-vm", move |env: Env| {
        let kc = topo::mount_kernel(&env, client.channel.clone(), cred.clone(), kcfg, &tr2);
        let table = MountTable::new().mount("/mnt/gvfs", kc);
        let vm = VmMonitor::attach(&env, &table, "/mnt/gvfs", image, VmConfig::default(), None)
            .expect("attach");
        let iters = drive_iterations(&env, &vm, &wl2);
        let shut = vm.shutdown(&env).is_ok();
        let t0 = env.now();
        let report = client.proxy.flush(&env, &cred);
        let flushed = shut && report.failed_blocks == 0 && report.failed_files == 0;
        let flush = flushed.then(|| (env.now() - t0).as_secs_f64());
        *result2.lock() = (iters, flush);
    });
    // As in the library, only the client proxy keeps the server's channel
    // open, so the server-side workers retire when the client does.
    let server_fs = server.fs.clone();
    drop(server);
    let (end, cost) = host::run(sim);

    let snapshot = h.telemetry().snapshot();
    let (iters, flush) = result.lock().clone();
    let mut out = Outcome {
        setup_s,
        host: cost,
        events: h.events_processed(),
        procs: h.processes_spawned(),
        end_s: end.as_secs_f64(),
        compute_s: wl.compute_time().as_secs_f64(),
        wan_down_mbps: params.net.wan_down_mbps,
        ..Outcome::default()
    };
    if iters.len() != wl.phases.len() {
        // The VM process never finished: every iteration and the flush count
        // as unfinished.
        let mut none = vec![None; wl.phases.len()];
        none[..iters.len()].copy_from_slice(&iters);
        latex_results(&none, None, &mut out);
    } else {
        latex_results(&iters, flush, &mut out);
    }
    out.vt.push(("makespan_s", out.end_s));
    out.vt
        .push(("wan_down_mb", mb(&snapshot, "wan-down.bytes")));
    out.vt.push(("wan_up_mb", mb(&snapshot, "wan-up.bytes")));
    if cfg.checks {
        out.server_digest = Some(fs_digest(&server_fs));
    }
    if let Some(t) = &tracer {
        out.spans = Some(t.take_spans(false));
    }
    out.snapshot = snapshot;
    out
}

/// The reference for `latex_wanc`'s output: the same guest-op sequence on
/// a plain local filesystem (`AppScenario::Local` with the image under
/// `/exports`; no NFS, no proxy). Returns that filesystem's digest.
pub fn latex_local_digest(seed: u64) -> u64 {
    let params = AppParams::default();
    let wl = latex_workload(seed);
    let sim = Simulation::new();
    let h = sim.handle();
    let image = VmImageSpec::app_benchmark("appvm");
    let local = LocalIo::new(
        Disk::new(&h, DiskModel::scsi_2004()),
        LocalIoConfig {
            cache_bytes: params.kernel_cache_bytes,
            ..LocalIoConfig::default()
        },
        0,
    );
    local.with_fs(|fs| {
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).expect("mkdir exports");
        install_image(fs, dir, &image).expect("install image");
    });
    let table = MountTable::new().mount("/", local.clone());
    sim.spawn("latex-vm", move |env: Env| {
        let vm = VmMonitor::attach(&env, &table, "/exports", image, VmConfig::default(), None)
            .expect("attach");
        let iters = drive_iterations(&env, &vm, &wl);
        assert!(iters.iter().all(Option::is_some), "local iteration failed");
        vm.shutdown(&env).expect("shutdown");
    });
    sim.run();
    let fs = local.with_fs(|fs| std::mem::replace(fs, Fs::new(0)));
    fs_digest(&Arc::new(Mutex::new(fs)))
}

// ---------------------------------------------------------------------------
// Library runs at equal parameters
// ---------------------------------------------------------------------------

/// What a library run reports, in the benchmark's terms.
pub struct LibraryRun {
    /// Virtual results the library exposes, named as the benchmark's.
    pub vt: Vec<(&'static str, f64)>,
    /// Telemetry after the run drained.
    pub snapshot: Snapshot,
    /// Scheduler events processed.
    pub events: u64,
    /// Simulated processes spawned.
    pub procs: u64,
    /// Final virtual time, seconds.
    pub end_s: f64,
    /// Image-server digest after the run (latex only).
    pub server_digest: Option<u64>,
}

/// Run the library's own scenario at the workload's parameters.
pub fn library(workload: &str, seed: u64) -> LibraryRun {
    match workload {
        "fleet_burst" => {
            let r = gvfs_bench::run_fleet(&fleet_params(seed));
            LibraryRun {
                vt: vec![
                    ("makespan_s", r.total_virtual_secs),
                    ("wan_down_mb", r.wan_down_bytes as f64 / 1e6),
                ],
                snapshot: r.snapshot,
                events: r.events_processed,
                procs: r.processes_spawned,
                end_s: r.total_virtual_secs,
                server_digest: None,
            }
        }
        "clone_wanp" => {
            let r = gvfs_bench::run_parallel_cloning(&wanp_params());
            LibraryRun {
                vt: vec![
                    ("clone_cold_s", r.cold_secs),
                    ("clone_warm_s", r.warm_secs),
                    ("makespan_s", r.total_virtual_secs),
                ],
                snapshot: r.snapshot,
                events: r.events_processed,
                procs: r.processes_spawned,
                end_s: r.total_virtual_secs,
                server_digest: None,
            }
        }
        _ => {
            let wl = latex_workload(seed);
            let r = gvfs_bench::run_app_scenario(AppScenario::WanC, &wl, &AppParams::default(), 1);
            let iters: Vec<Option<f64>> = r.runs[0].phases.iter().map(|(_, s)| Some(*s)).collect();
            let mut out = Outcome::default();
            latex_results(&iters, r.flush_secs, &mut out);
            out.vt.push(("makespan_s", r.total_virtual_secs));
            LibraryRun {
                vt: out.vt,
                snapshot: r.snapshot,
                events: r.events_processed,
                procs: r.processes_spawned,
                end_s: r.total_virtual_secs,
                server_digest: r.server_fs_digest,
            }
        }
    }
}

/// Digest of everything a snapshot holds except trace events: every
/// counter, gauge, histogram and sketch by name and value.
pub fn fingerprint(s: &Snapshot, events: u64, procs: u64, end_s: f64) -> u64 {
    let mut text = String::new();
    for c in &s.counters {
        text += &format!("c {}.{}={}\n", c.layer, c.name, c.value);
    }
    for g in &s.gauges {
        text += &format!("g {}.{}={}/{}\n", g.layer, g.name, g.value, g.high_water);
    }
    for h in &s.histograms {
        text += &format!(
            "h {}.{}={}/{}/{}/{}/{}\n",
            h.layer, h.name, h.count, h.sum_ns, h.max_ns, h.p50_ns, h.p99_ns
        );
    }
    for k in &s.sketches {
        text += &format!(
            "s {}.{}={}/{}/{}/{}/{}/{}\n",
            k.layer, k.name, k.count, k.sum_ns, k.max_ns, k.p50_ns, k.p95_ns, k.p99_ns
        );
    }
    text += &format!("events={events} procs={procs} end={end_s:?}\n");
    fnv(text.as_bytes())
}
