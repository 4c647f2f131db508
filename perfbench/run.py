#!/usr/bin/env python3
"""pintesim benchmark: one command per workload, from the repository root.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Builds the simulator and the pintebench driver from source into
.bench_build/, runs workload W for about T seconds on inputs made from
seed N, checks every result against perfbench/references.json, and
prints one JSON line last: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list. See perfbench/README.md.

    python3 perfbench/run.py --quick ...     smoke sizes, no references
    python3 perfbench/run.py --make-references   rewrite references.json
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
REFERENCES = os.path.join(HERE, "references.json")
PINTEBENCH = os.path.join(BUILD, "pintebench")
PINTESIM = os.path.join(BUILD, "pintesim")

# Each seed folds onto one of this many input variants, so every run
# can be checked against a stored reference (driver/workloads.hh).
VARIANTS = 16

# Sweep workloads: pintesim --sweep backend and --jobs.
SWEEPS = {
    "sweep_thread": ("thread", 2),
    "sweep_process": ("process", 2),
    "sweep_spool": ("spool", 2),
}
WORKLOADS = ["detailed", "sampled"] + list(SWEEPS)
SWEEP_CELLS = 12

# No child may outlive the run's 180-second budget.
CHILD_LIMIT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def build():
    """Configure once, then bring the build up to date."""
    for need in ("src/CMakeLists.txt", "tools/pintesim.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise Failure(f"simulator source {need} not found under {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(ROOT, ".bench_build", "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--parallel", "4"])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise Failure("build failed; see .bench_build/build.log")


def spawn(args, want_stdout):
    """Run a child in its own process group; return (exit code, captured
    stdout or stderr, peak RSS in KiB of it and its descendants)."""
    p = subprocess.Popen(
        args, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if want_stdout else subprocess.DEVNULL,
        stderr=None if want_stdout else subprocess.PIPE)
    def kill():
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    timer = threading.Timer(CHILD_LIMIT_S, kill)
    timer.start()
    try:
        data = (p.stdout if want_stdout else p.stderr).read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    (p.stdout if want_stdout else p.stderr).close()
    return p.returncode, data.decode(errors="replace"), usage.ru_maxrss


def driver(mode, workload, seed, seconds=None, quick=False, spool=None):
    args = [PINTEBENCH, mode, "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        args += ["--seconds", repr(seconds)]
    if quick:
        args.append("--quick")
    if spool:
        args += ["--spool", spool]
    code, out, rss = spawn(args, want_stdout=True)
    if code != 0:
        raise Failure(f"pintebench {mode} {workload} exited {code}")
    return json.loads(out), rss


# --- digests of pintesim reports (mirror driver/workloads.cc) ----------

MASK = (1 << 64) - 1


def fnv(words):
    h = 0xCBF29CE484222325
    for w in words:
        for i in range(8):
            h ^= (w >> (8 * i)) & 0xFF
            h = (h * 0x100000001B3) & MASK
    return h


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def cell_digests(report):
    out = []
    for r in report["runs"]:
        m, p = r["metrics"], r["pinte"]
        out.append(fnv([bits(m["ipc"]), bits(m["amat"]), bits(m["miss_rate"]),
                        bits(m["llc_mpki"]), m["llc_accesses"],
                        m["llc_misses"], p["accesses_seen"], p["triggers"],
                        p["invalidations"], 0]))
    return out


def report_digest(report):
    """Every cell result except cpu_seconds, canonically serialized."""
    runs = [{k: v for k, v in r.items() if k != "cpu_seconds"}
            for r in report["runs"]]
    text = json.dumps(runs, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def hex64(v):
    return "%016x" % v


# --- measurement -------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")
        return ok


def sweep_once(backend, jobs, variant, quick, tag):
    """One timed pintesim --sweep; returns (wall s, report, peak KiB)."""
    out = os.path.join(TMP, f"sweep-{tag}.json")
    spool = os.path.join(TMP, f"spool-{tag}")
    args = [PINTESIM, "-w", "416.gamess", "--sweep", "--json", "--out", out,
            "--jobs", str(jobs), "--seed", str(variant),
            f"--isolation={backend}"]
    if backend == "spool":
        args += ["--spool", spool]
    if quick:
        args += ["--warmup", "5000", "--roi", "10000"]
    t0 = time.perf_counter()
    code, err, rss = spawn(args, want_stdout=False)
    wall = time.perf_counter() - t0
    report = None
    if code == 0 and os.path.exists(out):
        with open(out) as f:
            report = json.load(f)
    else:
        log(f"pintesim exited {code}: {err[-2000:]}")
    for path in (out, spool):
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    return wall, report, rss


def run_sweeps(name, variant, seconds, quick, refs, tally, setup=None):
    """Repeat one backend's sweep for `seconds`. When `setup` is a list,
    a fresh driver process measures one set-up before every other
    sweep and appends it, so set-up samples span the whole run."""
    backend, jobs = SWEEPS[name]
    spool = os.path.join(TMP, "setup-spool") if backend == "spool" else None
    walls, cpus, rss = [], [], []
    first = last_cells = None
    t0 = time.perf_counter()
    while len(walls) < 3 or time.perf_counter() - t0 < seconds:
        if setup is not None and len(walls) % 2 == 0:
            d, _ = driver("setup", "sweep", variant, quick=quick,
                          spool=spool)
            setup.append(d)
        wall, report, peak = sweep_once(backend, jobs, variant, quick,
                                        len(walls))
        ok = (report is not None and len(report["runs"]) == SWEEP_CELLS
              and all(r["status"] == "ok" for r in report["runs"]))
        if ok:
            digest = report_digest(report)
            last_cells = cell_digests(report)
            first = first or digest
            ok = digest == first
            if refs is not None:
                ok = (ok and digest == refs["report"]
                      and hex64(fnv(last_cells)) == refs["cells"])
        tally.check(ok, f"{name} sweep {len(walls)} matches the reference")
        walls.append(wall)
        rss.append(peak)
        cpus.append(sum(r["cpu_seconds"] for r in report["runs"])
                    if report else 0.0)
    n = SWEEP_CELLS
    campaign = {
        "campaign.busy_share": median(
            [c / (jobs * w) for c, w in zip(cpus, walls)]),
        "campaign.overhead_ms_per_cell": median(
            [1e3 * (w - c / jobs) / n for c, w in zip(cpus, walls)]),
        "campaign.cell_cpu_ms": median([1e3 * c / n for c in cpus]),
    }
    return walls, rss, campaign, last_cells


# The report's 95% half-widths use z = 1.96. The stored references hold
# 3 estimates for each of 16 variants; z = 3.29 (two-sided p = 0.001)
# keeps the chance that any of those 48 misses by chance near 5%.
CI_WIDEN = 3.29 / 1.96
SAMPLED_STATS = ("ipc", "llc_mpki", "induced_theft_rate")


def sampled_ok(sampled, ref):
    """Each estimate's confidence interval contains the full-detailed
    value of the same ROI."""
    ok = True
    for key in SAMPLED_STATS:
        mean, ci = sampled[key]
        want = float.fromhex(ref[key])
        inside = abs(mean - want) <= CI_WIDEN * ci
        if not inside:
            log(f"sampled {key}: {mean:.6g} +/- {ci:.3g} misses {want:.6g}")
        ok = ok and inside
    return ok


def end_to_end(name, variant, seconds, quick, refs, tally):
    m = {}
    if name in SWEEPS:
        probes = []
        walls, rss, _, _ = run_sweeps(name, variant, seconds, quick, refs,
                                      tally, probes)
        setup = [p["setup_s"] for p in probes]
        instructions = probes[0]["instructions"]
        m["peak_rss_mb"] = median(rss) * 1024 / 1e6
    else:
        d, rss = driver("run", name, variant, seconds, quick)
        setup, walls = d["setup_s"], d["wall_s"]
        instructions = d["instructions"]
        m["peak_rss_mb"] = rss * 1024 / 1e6
        for i, digest in enumerate(d["digests"]):
            ok = digest == d["digests"][0]
            if refs is not None and name == "detailed":
                ok = ok and digest == refs
            if refs is not None and name == "sampled":
                ok = ok and sampled_ok(d["sampled"], refs)
            tally.check(ok, f"{name} run {i} matches the reference")
    # Neighbours on a shared host slow whole stretches of a run by up
    # to 2x; the fastest repetition is what the code itself costs.
    m["setup_s"] = median(setup)
    m["wall_s"] = min(walls)
    m["mips"] = instructions / m["wall_s"] / 1e6
    typical = f"fastest of {len(walls)}; median {median(walls):.6g} s"
    notes = {"setup_s": f"median of {len(setup)}", "wall_s": typical,
             "mips": typical, "peak_rss_mb": f"median of {len(rss)}"
             if name in SWEEPS else "one process"}
    return m, notes


def per_layer(name, variant, seconds, quick, refs, tally):
    m = {}
    if name in SWEEPS:
        _, _, campaign, report_cells = run_sweeps(
            name, variant, seconds / 2, quick, refs, tally)
        d, _ = driver("trace", "sweep", variant, seconds / 2, quick)
        m.update(campaign)
        if report_cells is not None:
            tally.check(d["cell_digests"] == [hex64(c) for c in report_cells],
                        "traced sweep cells equal the pintesim report's")
    else:
        d, _ = driver("trace", name, variant, seconds, quick)
        walls, cpus = d["untraced_wall_s"], d["untraced_cpu_s"]
        m["campaign.busy_share"] = median([c / w for c, w in zip(cpus, walls)])
        m["campaign.overhead_ms_per_cell"] = median(
            [1e3 * (w - c) for c, w in zip(cpus, walls)])
        m["campaign.cell_cpu_ms"] = median([1e3 * c for c in cpus])
        if refs is not None and name == "detailed":
            for i, digest in enumerate(d["untraced_digests"]):
                tally.check(digest == refs,
                            f"untraced run {i} matches the reference")
    for i, (a, b) in enumerate(zip(d["untraced_digests"],
                                   d["traced_digests"])):
        tally.check(a == b, f"traced run {i} reproduces the untraced digest")
    tally.check(d["share_sum_errors"] == 0,
                "layer self shares and core + glue sum to 1")
    for key, values in d["layers"].items():
        m[key] = median(values)
    m["tracing.overhead"] = (median(d["traced_wall_s"]) /
                             median(d["untraced_wall_s"]) - 1)
    notes = {k: f"median of {len(d['traced_wall_s'])} traced runs"
             for k in m}
    return m, notes


def load_references(name, variant, quick):
    if quick:
        return None
    with open(REFERENCES) as f:
        refs = json.load(f)
    key = "sweep" if name in SWEEPS else name
    return refs[key][str(variant)]


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_names(bench):
    """Refuse metric and workload names outside the result grammar."""
    names = [w["name"] for w in bench["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            names.append(m["name"])
            if not UNIT.fullmatch(m["unit"]):
                raise Failure(f"bad unit {m['unit']!r} of {m['name']}")
    for n in names:
        if not NAME.fullmatch(n):
            raise Failure(f"bad name {n!r}")
    if len(set(names)) != len(names):
        raise Failure("a name is used twice")


def emit(spec, measured, notes, tally):
    """Print a line per metric with its unit and samples, then the
    result line."""
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name not in measured:
            raise Failure(f"metric {name} was not measured")
        value = float(measured[name])
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"{name:34s} {value:12.6g} {entry['unit']:10s} "
              f"({notes[name]})")
    extra = set(measured) - set(metrics)
    if extra:
        raise Failure(f"measured but not listed: {sorted(extra)}")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}), flush=True)


def make_references():
    """Recompute references.json from the current simulator."""
    refs = {"variants": VARIANTS, "detailed": {}, "sampled": {}, "sweep": {}}
    for v in range(VARIANTS):
        log(f"variant {v}")
        d, _ = driver("reference", "detailed", v)
        refs["detailed"][str(v)] = d["digest"]
        s, _ = driver("reference", "sampled", v)
        refs["sampled"][str(v)] = {k: float(s[k]).hex()
                                   for k in SAMPLED_STATS}
        w, _ = driver("reference", "sweep", v)
        _, report, _ = sweep_once("thread", 1, v, False, "reference")
        if report is None or hex64(fnv(cell_digests(report))) != w["digest"]:
            raise Failure("pintesim report disagrees with pintebench")
        refs["sweep"][str(v)] = {"cells": w["digest"],
                                 "report": report_digest(report)}
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke-test sizes; skips the stored references")
    ap.add_argument("--make-references", action="store_true")
    a = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        check_names(bench)
        build()
        os.makedirs(TMP, exist_ok=True)
        if a.make_references:
            make_references()
            return 0
        if a.workload is None:
            ap.error("--workload is required")
        variant = a.seed % VARIANTS
        refs = load_references(a.workload, variant, a.quick)
        tally = Tally()
        if a.trace:
            measured, notes = per_layer(a.workload, variant, a.seconds,
                                        a.quick, refs, tally)
            emit(bench["per_layer"], measured, notes, tally)
        else:
            measured, notes = end_to_end(a.workload, variant, a.seconds,
                                         a.quick, refs, tally)
            emit(bench["end_to_end"], measured, notes, tally)
        return 0
    except (Failure, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
