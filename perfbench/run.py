#!/usr/bin/env python3
"""Repo benchmark: seeded fleet_burst, clone_wanp and latex_wanc runs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the simulation binary from
`perfbench/sim` (a cargo package of its own that uses the repo's crates by
path) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs one
simulation per OS process, one at a time:

* `--trace 0`: the first run also makes the filesystem-digest checks (and,
  for latex_wanc, the plain-local-filesystem reference run); further runs
  follow until `--seconds` have passed (at least three runs). Virtual-time
  results must repeat bit for bit. Host metrics are medians over the runs.
* `--trace 1`: one traced run (layer wrappers on, all checks), the
  library's own scenario at equal parameters, and at least three untraced
  runs. Virtual-time results and telemetry must be identical across all of
  them; the per-layer metrics come from the traced run, and the tracing
  overhead is the traced run's host cost minus the untraced median.

End-to-end metrics (`--trace 0`), the same names on every workload:
`tail_s` is the slow path a user of the workload waits on (fleet_burst:
clone p99 from due time; clone_wanp: cold-pass makespan; latex_wanc: first
iteration), `op_mean_s` the mean virtual seconds per operation, then WAN
megabytes (1 MB = 10^6 bytes) each way; `cpu_ref_s`, the host CPU seconds
of the simulation run (all threads of the process, exited ones included)
at a fixed host speed: scaled by a probe, a fixed piece of compute that
runs none of the program's code, timed in the same process (the median of
six samples, three before the run and three after), so that the busy
periods of a shared host cancel out; `setup_s`, the host CPU seconds
of set-up, the median of nine set-ups in each run, scaled by the same
probe; and peak RSS in MiB. The workload's own results (clone p50, SLO
share, warm makespan, warm median, flush, failed ratio, generator lateness)
and the raw wall and CPU seconds are printed by name above the result line.
Wall time is not gated: on a shared virtual machine it carries the
hypervisor's steal time, which is no property of the program. The raw
medians are the per-layer metrics `engine.wall_s` and `engine.cpu_s`.

A watchdog kills a run that exceeds a fixed multiple of its expected wall
time, after saving `/proc/<pid>/task/*/{stat,wchan}`; the killed run's
operations count as failed and it is never retried.

Human-readable lines go first; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Any failed output check
prints `"correct": false` and exits 1. A build failure exits 2 and prints
no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fleet_burst", "clone_wanp", "latex_wanc")
# Seed 1 is the default; seed 4099 is held out for confirming later claims.
DEFAULT_SEED = 1

# Expected wall seconds of one simulation process on a 2-vCPU host, by
# (workload, kind); the watchdog allows WATCHDOG_MULTIPLE times as long.
EXPECTED_WALL = {
    ("fleet_burst", "run"): 12, ("fleet_burst", "checks"): 16,
    ("fleet_burst", "library"): 12,
    ("clone_wanp", "run"): 6, ("clone_wanp", "checks"): 11,
    ("clone_wanp", "library"): 6,
    ("latex_wanc", "run"): 8, ("latex_wanc", "checks"): 13,
    ("latex_wanc", "library"): 12, ("latex_wanc", "local"): 8,
}
WATCHDOG_MULTIPLE = 5
MIN_MEASURED_RUNS = 3
# CPU seconds the host-speed probe takes on the reference host (a 2-vCPU
# 2.0 GHz Xeon VM at a quiet moment): `cpu_ref_s` and `setup_s` are CPU
# seconds scaled by this over the probe's own CPU seconds in the same
# process.
PROBE_REF_CPU_S = 0.18
MAX_MEASURED_RUNS = 15
# Stop starting optional runs past this many seconds of one invocation, so
# that a run the watchdog has to kill still ends the invocation in time.
BUDGET_S = 100

# The workload's own result behind the `tail_s` end-to-end metric: the
# slow path a user of that workload waits on.
TAIL = {"fleet_burst": "clone_p99_s", "clone_wanp": "clone_cold_s",
        "latex_wanc": "app_first_s"}
# Results printed under their own names, with unit and sample count.
REPORTED = {
    "fleet_burst": [("op_mean_s", "s", "mean clone latency from due time; n=1024"),
                    ("clone_p50_s", "s", "n=1024"), ("clone_p99_s", "s", "n=1024"),
                    ("clone_slo_ratio", "ratio", "done <= 2 s of due; n=1024"),
                    ("dispatch_late_p99_s", "s", "generator lateness; n=1024"),
                    ("dispatch_late_max_s", "s", "generator lateness; n=1024")],
    "clone_wanp": [("op_mean_s", "s", "mean clone time; n=16"),
                   ("clone_cold_s", "s", "makespan of 8 parallel clones"),
                   ("clone_warm_s", "s", "makespan of 8 parallel clones")],
    "latex_wanc": [("op_mean_s", "s", "mean iteration time; n=20"),
                   ("app_first_s", "s", "iteration 1"),
                   ("app_warm_s", "s", "median of iterations 2-20, n=19"),
                   ("flush_s", "s", "write-back flush")],
}
END_TO_END = [
    ("tail_s", "s"), ("op_mean_s", "s"),
    ("wan_down_mb", "MB"), ("wan_up_mb", "MB"),
    ("cpu_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
]
PER_LAYER = [
    ("engine.wall_s", "s"), ("engine.cpu_s", "s"),
    ("engine.events", "count"), ("engine.procs", "count"),
    ("engine.events_per_cpu_s", "1/s"), ("engine.idle_share", "ratio"),
    ("engine.ctx_switches", "count"),
    ("link.wan_down.bytes", "bytes"), ("link.wan_up.bytes", "bytes"),
    ("link.lan.bytes", "bytes"), ("link.wan_down.util", "ratio"),
    ("link.wan.transfer_p99_ms", "ms"), ("link.dropped", "count"),
    ("rpc.nfs.calls", "count"), ("rpc.channel.calls", "count"),
    ("rpc.calls_per_op", "count"), ("rpc.retransmits", "count"),
    ("rpc.errors", "count"),
    ("kernel.read.calls", "count"), ("kernel.read.p50_ms", "ms"),
    ("kernel.read.p99_ms", "ms"), ("kernel.write.calls", "count"),
    ("kernel.write.p99_ms", "ms"), ("kernel.cache_hit_ratio", "ratio"),
    ("kernel.self_s", "s"),
    ("server.calls", "count"), ("server.busy_s", "s"), ("server.p99_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"), ("server.write_bytes", "bytes"),
] + [
    (f"proxy.{tier}.{m}", unit)
    for tier in ("client", "shard", "server")
    for m, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
                    ("p99_ms", "ms"), ("forwarded_ratio", "ratio"),
                    ("recovered_errors", "count"))
] + [
    ("block_cache.hit_ratio", "ratio"), ("block_cache.evictions", "count"),
    ("prefetch.issued", "count"), ("prefetch.useful_ratio", "ratio"),
    ("prefetch.wasted", "count"),
    ("transfer.jobs", "count"), ("transfer.stall_p99_ms", "ms"),
    ("transfer.inflight_high_water", "count"), ("flush.retry_rounds", "count"),
    ("wb.queued", "count"), ("wb.shed", "count"),
    ("channel.fetches", "count"), ("channel.wire_bytes", "bytes"),
    ("channel.compression_ratio", "ratio"), ("dedup.blob_fetches", "count"),
    ("dedup.recipe_hits", "count"), ("dedup.useful_ratio", "ratio"),
    ("cow.ref_installs", "count"), ("cas.pin_blocked_evictions", "count"),
    ("zero_filtered", "count"),
    ("fleet.batches", "count"), ("fleet.items_per_batch", "count"),
    ("fleet.shard_inflight_high_water", "count"),
    ("vmm.copy_config_s", "s"), ("vmm.copy_memory_s", "s"),
    ("vmm.configure_s", "s"), ("vmm.resume_s", "s"),
    ("vmm.compute_share", "ratio"),
    ("trace.overhead_wall_s", "s"), ("trace.overhead_cpu_s", "s"),
]


def log(msg):
    print(msg, flush=True)


def build(target_dir):
    """Build the simulation binary; exit 2 (no result) if that fails."""
    manifest = Path("perfbench/sim/Cargo.toml")
    if not manifest.is_file():
        sys.exit("perfbench: run from the repository root")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=870)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        sys.exit(2)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    binary = target_dir / "release" / "perfbench-sim"
    if not binary.is_file():
        sys.exit(2)
    return binary


class Runner:
    """Runs simulation processes one at a time under the watchdog."""

    def __init__(self, binary, logs, workload, seed):
        self.binary, self.logs = binary, logs
        self.workload, self.seed = workload, seed
        self.killed = []   # (kind, dump path)
        self.n = 0

    def run(self, kind, args):
        """Run one simulation; its JSON result, or None if it was killed."""
        self.n += 1
        limit = WATCHDOG_MULTIPLE * EXPECTED_WALL[(self.workload, kind)]
        tag = f"{self.workload}-seed{self.seed}-{self.n:02d}-{kind}"
        with open(self.logs / f"{tag}.stderr", "w") as err:
            proc = subprocess.Popen([str(self.binary)] + args, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            try:
                out, _ = proc.communicate(timeout=limit)
            except subprocess.TimeoutExpired:
                dump = self.logs / f"hung-{tag}.txt"
                save_task_states(proc.pid, dump)
                proc.kill()
                proc.communicate()
                self.killed.append((kind, dump))
                log(f"watchdog: killed {kind} run after {limit} s; thread states in {dump}")
                return None
        if proc.returncode != 0:
            raise RuntimeError(f"{kind} run exited {proc.returncode}; see {err.name}")
        if Path(err.name).stat().st_size == 0:
            Path(err.name).unlink()
        return json.loads(out.strip().splitlines()[-1])


def save_task_states(pid, path):
    """Save every thread's /proc stat and wchan before the watchdog kills."""
    lines = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = sorted(task_dir.iterdir(), key=lambda p: int(p.name))
    except OSError as err:
        tasks = []
        lines.append(f"cannot list {task_dir}: {err}")
    for task in tasks:
        for name in ("stat", "wchan"):
            try:
                lines.append(f"{task.name} {name}: {(task / name).read_text().strip()}")
            except OSError as err:
                lines.append(f"{task.name} {name}: <{err}>")
    path.write_text("\n".join(lines) + "\n")


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    start = time.monotonic()
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target_dir)
    logs = target_dir / "perfbench-logs"
    logs.mkdir(parents=True, exist_ok=True)
    w, seed = a.workload, a.seed
    r = Runner(binary, logs, w, seed)
    base = ["run", "--workload", w, "--seed", str(seed)]
    failures = []
    planned_ops = {"fleet_burst": 1024, "clone_wanp": 16, "latex_wanc": 21}[w]

    def check(ok, msg):
        if not ok:
            failures.append(msg)

    runs = []          # every finished run of the benchmark path at `seed`
    measured = []      # the untraced ones: host metrics come from these
    traced = None
    attempted = failed = 0

    def account(res):
        nonlocal attempted, failed
        if res is None:
            attempted += planned_ops
            failed += planned_ops
            return
        attempted += res["attempted"]
        failed += res["failed"]
        failures.extend(f"{res['mode']} run: {c}" for c in res["check_failures"])
        runs.append(res)

    # Output-checked first run: traced with --trace 1, plain otherwise.
    first_args = base + ["--checks"]
    if a.trace:
        first_args += ["--trace", "--spans", str(logs / f"spans-{w}-seed{seed}.tsv")]
    first = r.run("checks", first_args)
    account(first)
    if first is None:
        failures.append("the output-checked run was killed")
    elif a.trace:
        traced = first
    else:
        measured.append(first)
    if w == "latex_wanc" and first is not None:
        local = r.run("local", ["local", "--seed", str(seed)])
        if local is None:
            failures.append("local reference run was killed")
        else:
            check(first["server_digest"] == local["server_digest"],
                  "latex_wanc image-server digest after the flush differs from the "
                  "plain local filesystem's")
    library = equal_run = None
    if a.trace:
        lib_seed = 0 if w == "clone_wanp" else seed
        library = r.run("library", ["library", "--workload", w, "--seed", str(lib_seed)])
        if library is None:
            failures.append("library run was killed")
        elif w == "clone_wanp":
            # The golden image content follows --seed; seed 0 is the library's.
            equal_run = r.run("run", ["run", "--workload", w, "--seed", "0"])
            attempted += planned_ops if equal_run is None else equal_run["attempted"]
            failed += planned_ops if equal_run is None else equal_run["failed"]
            if equal_run is None:
                failures.append("seed-0 equivalence run was killed")
        else:
            equal_run = first
    # Measured runs until --seconds have passed; a killed run counts as an
    # attempt, so a stalling program cannot keep the loop going.
    measure_start = time.monotonic()
    attempts = len(measured)
    while attempts < MAX_MEASURED_RUNS and time.monotonic() - start < BUDGET_S:
        if attempts >= MIN_MEASURED_RUNS and time.monotonic() - measure_start >= a.seconds:
            break
        attempts += 1
        res = r.run("run", base)
        account(res)
        if res is not None:
            measured.append(res)

    # --- output checks -------------------------------------------------
    if not runs:
        print("perfbench: no run finished", file=sys.stderr)
        sys.exit(1)
    ref = runs[0]
    for res in runs[1:]:
        check(res["vt"] == ref["vt"],
              f"virtual-time results differ between repeats of seed {seed}")
        check(res["fingerprint"] == ref["fingerprint"],
              "telemetry differs between runs of one seed (traced vs untraced, or repeats)")
    if library is not None and equal_run is not None:
        for k, v in library["vt"].items():
            check(equal_run["vt"].get(k) == v,
                  f"{k} differs from the library's ({equal_run['vt'].get(k)} vs {v})")
        check(library["fingerprint"] == equal_run["fingerprint"],
              "telemetry differs from the library's run at equal parameters")
        if library.get("server_digest") is not None:
            check(library["server_digest"] == equal_run["server_digest"] or
                  equal_run["server_digest"] is None,
                  "image-server digest differs from the library's")

    # --- report -------------------------------------------------------
    vt = ref["vt"]
    hosts = measured or runs
    for x in hosts:
        x["cpu_ref_s"] = x["cpu_s"] * PROBE_REF_CPU_S / x["probe_cpu_s"]
        # The simulation reports raw set-up CPU seconds.
        x["setup_cpu_s"] = x.pop("setup_s")
        x["setup_s"] = x["setup_cpu_s"] * PROBE_REF_CPU_S / x["probe_cpu_s"]
    host_keys = ("wall_s", "cpu_s", "probe_cpu_s", "cpu_ref_s", "setup_cpu_s", "setup_s",
                 "peak_rss_mb")
    host = {k: median([x[k] for x in hosts]) for k in host_keys}
    log(f"perfbench {w} seed={seed} trace={a.trace}: {len(runs)} run(s), "
        f"{len(measured)} measured, {len(r.killed)} killed by the watchdog")
    for name, unit, note in REPORTED[w]:
        log(f"  {name:<22} {vt[name]:>14.6f} {unit:<6} ({note})")
    log(f"  {'wan_down_mb':<22} {vt['wan_down_mb']:>14.6f} MB")
    log(f"  {'wan_up_mb':<22} {vt['wan_up_mb']:>14.6f} MB")
    log(f"  {'failed_ratio':<22} {failed / max(attempted, 1):>14.6f} ratio  "
        f"({failed} of {attempted} operations)")
    for k in host_keys:
        unit = "MiB" if k.endswith("_mb") else "s"
        log(f"  {k:<22} {host[k]:>14.6f} {unit:<6} (host; median of {len(hosts)} runs: "
            + ", ".join(f"{x[k]:.3f}" for x in hosts) + ")")
    for kind, dump in r.killed:
        log(f"  watchdog kill: {kind} run, thread states in {dump}")
    for f in failures:
        log(f"  CHECK FAILED: {f}")

    if a.trace:
        if traced is None:
            print("perfbench: the traced run did not finish", file=sys.stderr)
            sys.exit(1)
        layers = dict(traced["layers"])
        layers["engine.wall_s"] = host["wall_s"]
        layers["engine.cpu_s"] = host["cpu_s"]
        layers["trace.overhead_wall_s"] = traced["wall_s"] - host["wall_s"]
        layers["trace.overhead_cpu_s"] = traced["cpu_s"] - host["cpu_s"]
        log(f"  tracing overhead: wall {layers['trace.overhead_wall_s']:+.3f} s, "
            f"cpu {layers['trace.overhead_cpu_s']:+.3f} s")
        names = [n for n, _ in PER_LAYER]
        if sorted(layers) != sorted(names):
            diff = sorted(set(layers) ^ set(names))
            raise RuntimeError(f"per-layer metric set mismatch: {diff}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
        for n, u in PER_LAYER:
            log(f"  {n:<34} {layers[n]:>18.6f} {u}")
    else:
        values = {k: host[k] for k in ("cpu_ref_s", "setup_s", "peak_rss_mb")}
        values["tail_s"] = vt[TAIL[w]]
        values["op_mean_s"] = vt["op_mean_s"]
        values["wan_down_mb"] = vt["wan_down_mb"]
        values["wan_up_mb"] = vt["wan_up_mb"]
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
