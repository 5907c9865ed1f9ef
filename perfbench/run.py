#!/usr/bin/env python3
"""End-to-end suite benchmark: builds the driver, runs one workload, checks
its outputs against the recorded reference and prints one JSON result line.

    python3 perfbench/run.py --workload suite_s2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-reference      # re-record reference/

With --trace 0 the result carries the end-to-end metrics (untraced run);
with --trace 1 it carries the per-layer metrics of separate traced runs at
all cores and pinned to one core. See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
DRIVER = BUILD / "altis_perfbench"
REFERENCE = HERE / "reference"

WORKLOADS = ("suite_s2", "paths_s1", "sanitize_s1")
APPS = ("cfd", "cfd_fp64", "dwt2d", "fdtd2d", "kmeans", "lavamd", "mandelbrot",
        "nw", "pf_naive", "pf_float", "raytracing", "srad", "where")
SETUP_REPEATS = 21
RUN_BUDGET_S = 170.0  # every driver call must end before this much wall time


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver from the checkout's sources."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources next to {HERE.name}/ "
                         "(expected ../CMakeLists.txt and ../src)")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "altis_perfbench",
                  "-j", str(max(1, len(os.sched_getaffinity(0))))])
    with open(BUILD.parent / "perfbench-build.log", "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
                logf.flush()
                tail = (BUILD.parent / "perfbench-build.log").read_text()[-3000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")


def driver_env():
    """The caller's environment minus ALTIS_* knobs, so nothing but the
    driver's own flags selects observers, queues or faults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ALTIS_")}


class Driver:
    def __init__(self, deadline, hooks=()):
        self.deadline = deadline
        self.hooks = list(hooks)  # self-test fault hooks, appended to every run

    def start(self, *args, cpus=None):
        if self.deadline <= time.monotonic():
            raise BenchError("time budget exhausted before the run finished")
        pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
        return subprocess.Popen([str(DRIVER), *args], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=driver_env(),
                                preexec_fn=pin)

    def finish(self, p):
        """Waits for a started driver within the budget (killing it past the
        budget) and returns its parsed JSON result."""
        args = " ".join(p.args[1:])
        try:
            out, err = p.communicate(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise BenchError(f"driver {args} exceeded the time budget")
        if p.returncode != 0:
            raise BenchError(f"driver {args} exited {p.returncode}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def call(self, *args):
        return self.finish(self.start(*args))

    def workload(self, name, seed, *extra):
        OUT.mkdir(parents=True, exist_ok=True)
        return self.call("--workload", name, "--seed", str(seed),
                         "--out-dir", str(OUT), *extra, *self.hooks)


def setup_seconds(driver):
    """Median wall time from spawning the driver to its exit, with nothing
    but set-up in between: exec, static init, app registry, pool spin-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        driver.call("--setup-only")
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def load_reference(workload):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference {path.relative_to(ROOT)}")
    return json.loads(path.read_text())


def check(result, ref, sanitize):
    """Counts attempted and failed configs of one driver result. A config
    fails when its run failed or its simulated rows differ from the
    reference digest; under the sanitizer, every config of a list fails
    when the list raised a warning-or-worse finding, its findings JSON
    differs from the reference, or its trace/metrics exports do not parse."""
    configs, lists = result["configs"], result["lists"]
    per_list = len(configs) // max(1, len(lists))
    failed = 0
    for i, lst in enumerate(lists):
        chunk = configs[i * per_list:(i + 1) * per_list]
        list_bad = False
        if sanitize:
            list_bad = (lst["findings_warn"] > 0 or
                        lst["findings_json"] != ref["findings_json"])
        for c in chunk:
            bad = list_bad or not c["ok"] or ref["configs"].get(c["key"]) != c["digest"]
            if bad:
                failed += 1
                why = "sanitize findings" if list_bad else (c["error"] or "digest mismatch")
                log(f"FAILED {c['key']}: {why}")
    if sanitize and lists:
        for name in ("trace.json", "metrics.json"):
            try:
                json.loads((OUT / name).read_text())
            except (OSError, ValueError) as e:
                log(f"FAILED export {name}: {e}")
                failed = len(configs)
    return len(configs), failed


def machine_context(result):
    def cache(index):
        p = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return p.read_text().strip() if p.is_file() else "unknown"

    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*.cpp")):
        if f.is_file():
            src.update(str(f.relative_to(ROOT)).encode())
            src.update(f.read_bytes())
    commit = "unknown"
    if shutil.which("git") and (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = p.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "usable_cores": result["usable_cpus"],
        "low_core_count": result["usable_cpus"] < 2,
        "pool_workers": result["workers"],
        "l2": cache(2), "l3": cache(3),
        "machine": platform.machine(),
        "build_type": "Release",
        "compiler": f"g++ {result['compiler']}",
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
    }


def end_to_end(driver, args):
    ref = load_reference(args.workload)
    setup_s = setup_seconds(driver)
    r = driver.workload(args.workload, args.seed, "--seconds", str(args.seconds))
    attempted, failed = check(r, ref, args.workload == "sanitize_s1")
    lists = r["lists"]
    metrics = {
        "wall_s": (statistics.median(l["wall_s"] for l in lists), "s"),
        "cpu_s": (statistics.median(l["cpu_s"] for l in lists), "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MiB"),
        "setup_s": (setup_s, "s"),
    }
    log(f"{args.workload}: {len(lists)} list(s) of {attempted // len(lists)} configs, "
        f"wall {metrics['wall_s'][0]:.3f} s, failed {failed}/{attempted}")
    return r, attempted, failed, metrics


def per_layer(driver, args):
    ref = load_reference(args.workload)
    sanitize = args.workload == "sanitize_s1"
    one = ("--lists", "1")
    runs = {
        "untraced": driver.workload(args.workload, args.seed, *one),
        "traced": driver.workload(args.workload, args.seed, *one, "--traced"),
    }
    if sanitize:
        runs["plain"] = driver.workload(args.workload, args.seed, *one, "--plain")
    # The golden oracles are serial: time them on a spare core while the
    # pinned run occupies the first one. The pinned run takes up to ~2x the
    # traced one; on a host too slow to fit it in the run budget its metrics
    # read 0 instead of failing the run.
    spare = sorted(os.sched_getaffinity(0))[1:]  # --pin-cpu takes the lowest
    golden = driver.start("--workload", args.workload, "--golden-only", cpus=spare)
    try:
        wall_t = runs["traced"]["lists"][0]["wall_s"]
        if driver.deadline - time.monotonic() > 2.0 * wall_t:
            runs["traced_1c"] = driver.workload(args.workload, args.seed, *one, "--traced",
                                                "--pin-cpu")
        else:
            log("WARNING: skipped the 1-core traced run, not enough time left")
        golden_s = driver.finish(golden)["golden_s"]
    finally:
        if golden.poll() is None:
            golden.kill()
            golden.wait()
    attempted = failed = 0
    for name, r in runs.items():
        a, f = check(r, ref, sanitize and name != "plain")
        attempted, failed = attempted + a, failed + f

    u, t = runs["untraced"], runs["traced"]
    t1 = runs.get("traced_1c", {"lists": [{"wall_s": 0.0, "cpu_s": 0.0}], "layers": {}})
    wall_u = u["lists"][0]["wall_s"]
    wall_t1 = t1["lists"][0]["wall_s"]
    L, L1 = t["layers"], t1["layers"]
    counts = ("sycl.pool_jobs", "sycl.pool_chunks", "sycl.submissions",
              "sycl.sched_nodes", "sycl.sched_edges", "sycl.pipe_items",
              "sycl.pipe_parks", "sycl.pipe_wakes", "sycl.dataflow_groups",
              "mem.pool_hits", "mem.pool_misses", "analyze.shadow_intervals",
              "analyze.race_checks", "trace.spans", "perf.regions",
              "fault.retries", "fault.failures")
    seconds = ("sycl.pool_busy_s", "sycl.pool_idle_s", "sycl.pipe_blocked_s",
               "analyze.passes_s", "trace.export_s", "metrics.export_s",
               "perf.simulate_s")
    m = {}
    for app in APPS:
        m[f"apps.run_s.{app}"] = (L.get(f"apps.run_s.{app}", 0.0), "s")
        m[f"apps.run_s_1c.{app}"] = (L1.get(f"apps.run_s.{app}", 0.0), "s")
    for k in counts:
        m[k] = (L.get(k, 0.0), "count")
    for k in seconds:
        m[k] = (L.get(k, 0.0), "s")
    m["apps.golden_s"] = (golden_s, "s")
    m["apps.golden_share"] = (golden_s / wall_u, "fraction")
    m["sycl.pool_busy_share"] = (L.get("sycl.pool_busy_share", 0.0), "fraction")
    m["sycl.pool_busy_s_1c"] = (L1.get("sycl.pool_busy_s", 0.0), "s")
    m["sycl.submit_p50_us"] = (L.get("sycl.submit_p50_us", 0.0), "us")
    m["sycl.submit_p99_us"] = (L.get("sycl.submit_p99_us", 0.0), "us")
    m["sycl.sched_dispatch_p50_us"] = (L.get("sycl.sched_dispatch_p50_us", 0.0), "us")
    m["mem.hit_ratio"] = (L.get("mem.hit_ratio", 0.0), "fraction")
    m["mem.parallel_copy_bytes"] = (L.get("mem.parallel_copy_bytes", 0.0), "bytes")
    m["mem.buffer_peak_mb"] = (L.get("mem.buffer_peak_mb", 0.0), "MiB")
    m["analyze.recording_s"] = (
        u["lists"][0]["loop_s"] - runs["plain"]["lists"][0]["loop_s"] if sanitize else 0.0,
        "s")
    m["traced.wall_s"] = (wall_t, "s")
    m["traced.overhead_s"] = (wall_t - wall_u, "s")
    m["traced.wall_s_1c"] = (wall_t1, "s")
    m["traced.cpu_s_1c"] = (t1["lists"][0]["cpu_s"], "s")
    m["traced.scaling_1c"] = (wall_t1 / wall_t, "ratio")
    m["host.usable_cores"] = (float(u["usable_cpus"]), "count")
    m["failed_share"] = (failed / attempted, "fraction")
    log(f"{args.workload}: untraced {wall_u:.3f} s, traced {wall_t:.3f} s, "
        f"traced 1-core {wall_t1:.3f} s, golden {golden_s:.3f} s")
    return u, attempted, failed, m


def record_reference():
    """Records every workload's digests (seed 1, one list) into reference/."""
    driver = Driver(time.monotonic() + 3600)
    REFERENCE.mkdir(exist_ok=True)
    for w in WORKLOADS + ("selftest",):
        r = driver.workload(w, 1, "--lists", "1")
        bad = [c["key"] for c in r["configs"] if not c["ok"]]
        if bad:
            raise BenchError(f"{w}: cannot record a reference with failed configs {bad}")
        ref = {"configs": {c["key"]: c["digest"] for c in r["configs"]},
               "findings_json": r["lists"][0]["findings_json"]}
        (REFERENCE / f"{w}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        log(f"recorded {len(ref['configs'])} digests for {w}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("selftest",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--fail-throw", help=argparse.SUPPRESS)
    ap.add_argument("--fail-perturb", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
        if args.record_reference:
            record_reference()
            return 0
        hooks = []
        if args.fail_throw:
            hooks += ["--fail-throw", args.fail_throw]
        if args.fail_perturb:
            hooks += ["--fail-perturb", args.fail_perturb]
        driver = Driver(time.monotonic() + RUN_BUDGET_S, hooks)
        r, attempted, failed, metrics = (per_layer if args.trace else end_to_end)(driver, args)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    context = machine_context(r)
    if context["low_core_count"]:
        log("WARNING: fewer than 2 usable cores; multi-core numbers are not comparable")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
