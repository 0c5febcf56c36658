#!/usr/bin/env python3
"""Benchmark of the ReadDuo stack: build, run one workload, print the result.

    python3 perfbench/run.py --workload service-mcf --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's libraries plus readduo_serve) into
.bench_build/perfbench; later runs only rebuild what changed. The last line
of stdout is the result object {"correct", "attempted", "failed",
"metrics"}; the lines before it record the host facts and the driver's
detail (digests, unit counts). NOTES.md describes workloads and metrics.

    python3 perfbench/run.py --pin 0-99   # re-pin digests.txt for seeds 0..99
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(HERE, "digests.txt")

# READDUO_THREADS per workload: with the producer, client or server poll
# thread, no workload keeps more than 3 threads busy on a 4-core host.
THREADS = {"service-mcf": 2, "wire-gcc": 1, "paper-grid": 2, "chip-hybrid": 1}

RUN_TIMEOUT_S = 170

# Layers the gated workloads never call are measured, in service-mcf's
# traced run, by short traced runs of two probe workloads that are too
# noisy to gate on (NOTES.md, "Steadiness").
LAYER_PROBES = {
    "service-mcf": {
        "paper-grid": ["drift.sampler_build_s", "readduo.make_scheme_s",
                       "common.pool_busy_ratio", "memsim.run_s"],
        "chip-hybrid": ["pcm.write_ns", "pcm.read_ns", "pcm.advance_s",
                        "pcm.m_fallback_ratio", "ecc.encode_ns", "ecc.decode_ns",
                        "pcm.line_sense_ns"],
    },
}
PROBE_SECONDS = 2


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the two targets; exit 1 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no ReadDuo sources in " + ROOT)
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            log("configure failed")
            sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "readduo_serve", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(BUILD, "perfbench"), os.path.join(BUILD, "readduo_serve")


def bench_env(workload):
    env = dict(os.environ)
    env["READDUO_THREADS"] = str(THREADS[workload])
    return env


def run_child(cmd, env, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("timed out: " + " ".join(cmd))
        sys.exit(1)
    if proc.returncode != 0:
        log("failed with code %d: %s" % (proc.returncode, " ".join(cmd)))
        sys.exit(1)
    return out


def load_pins():
    pins = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 3 and not line.startswith("#"):
                    pins[(parts[0], int(parts[1]))] = parts[2]
    return pins


def loadavg_1m():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def cpu_steal_and_total():
    """(steal, total) jiffies over all CPUs; steal is time the hypervisor
    ran something else while a virtual CPU of this host had work."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def pin(seeds):
    lo, _, hi = seeds.partition("-")
    exe, serve = build()
    lines = ["# workload seed digest: in-process virtual-time digest of one unit\n"]
    for workload in THREADS:
        out = run_child([exe, "--workload=" + workload, "--mode=digest",
                         "--seeds=%s-%s" % (lo, hi or lo), "--serve=" + serve],
                        bench_env(workload), timeout=3600)
        lines += [l + "\n" for l in out.splitlines() if l.strip()]
        log("pinned " + workload)
    with open(DIGESTS, "w") as f:
        f.writelines(lines)


def run_workload(exe, serve, workload, seed, seconds, trace, deadline):
    """One perfbench run plus the checks only this script can make.

    Returns (detail, problems): the program's result line and the reasons,
    if any, to count every attempted request as failed.
    """
    cache_dir = os.path.join(ROOT, "bench_cache")
    cache_before = os.path.exists(cache_dir)
    out = run_child([exe, "--workload=" + workload, "--seed=%d" % seed,
                     "--seconds=%s" % seconds, "--trace=%d" % trace,
                     "--serve=" + serve], bench_env(workload),
                    max(1.0, deadline - time.monotonic()))
    detail = json.loads(out.strip().splitlines()[-1])
    problems = []
    pinned = load_pins().get((workload, seed))
    if pinned is not None and pinned != detail["digest"]:
        problems.append("%s digest %s differs from pinned %s"
                        % (workload, detail["digest"], pinned))
    if not cache_before and os.path.exists(cache_dir):
        problems.append("bench_cache/ was created")
    detail["pinned"] = pinned is not None
    return detail, problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(THREADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pin", metavar="A-B", help="re-pin digests for seeds A..B")
    a = p.parse_args()
    if a.pin:
        pin(a.pin)
        return
    if not a.workload:
        p.error("--workload is required")

    exe, serve = build()
    t0 = time.monotonic()
    deadline = t0 + RUN_TIMEOUT_S
    load_start = loadavg_1m()
    steal_start, total_start = cpu_steal_and_total()
    detail, problems = run_workload(exe, serve, a.workload, a.seed, a.seconds,
                                    a.trace, deadline)
    load_end = loadavg_1m()
    steal_end, total_end = cpu_steal_and_total()
    metrics = detail["metrics"]
    runs = [detail]
    if a.trace:
        for probe, names in LAYER_PROBES.get(a.workload, {}).items():
            pd, pp = run_workload(exe, serve, probe, a.seed, PROBE_SECONDS, 1, deadline)
            runs.append(pd)
            problems += pp
            for name in names:
                metrics[name] = pd["metrics"][name]

    attempted = sum(r["attempted"] for r in runs)
    failed = attempted if problems else sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["consistent"] for r in runs)
    notes = problems + ["%s seed %d is not pinned: checked unit against unit and "
                        "against an independent in-process run only" % (r["workload"], a.seed)
                        for r in runs if not r["pinned"]]
    host = {
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": load_end,
        "cpu_steal_share": (steal_end - steal_start) / max(1, total_end - total_start),
        "busy_threads": detail["busy_threads"],
        "kernel_mode": detail["kernel_mode"],
        "simd": detail["simd"],
        "host_probe_ms_start_end": detail["host_probe_ms"],
        "readduo_env": {k: v for k, v in sorted(bench_env(a.workload).items())
                        if k.startswith("READDUO_")},
        "wall_s": time.monotonic() - t0,
    }
    print(json.dumps({"host": host}))
    print(json.dumps({"detail": [{k: v for k, v in r.items() if k != "metrics"}
                                 for r in runs], "notes": notes}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
