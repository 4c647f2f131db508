#!/usr/bin/env python3
"""Smoke every table/figure bench at a tiny scale.

Usage:
    bench_smoke.py BENCH_DIR WORK_DIR

For each bench that takes the shared bench options (bench_common.hh):
  - run it at --jobs=1 and at --jobs=3 with --format=json; both must
    exit 0 and pass check_report.py;
  - the two reports must be equal under check_bitwise.py once the
    figures that are measured CPU time are dropped: the tables
    table1_runtimes and motivation_cost, and Table I's time-ratio notes.
Then bench_table2 is replayed with --resume under PINTE_INJECT_FAULT=
job:1, which fails the first cell the bench simulates: it must exit 0
with the report of the run that wrote the journal, so every cell,
2nd-Trace pairs included, was served from the journal.

bench_fig2 replays a fixed script and takes no options; it is not run.
Standard library only.
"""

import json
import os
import shutil
import subprocess
import sys

TOOLS = os.path.dirname(os.path.abspath(__file__))
BENCHES = [
    "bench_table1", "bench_table2", "bench_fig1", "bench_fig3",
    "bench_fig5", "bench_fig6", "bench_fig7", "bench_fig8", "bench_fig9",
    "bench_fig10", "bench_fig11", "bench_ablation_flow",
    "bench_ablation_dram", "bench_ablation_scope", "bench_motivation",
]
SCALE = ["--small", "--quiet", "--warmup=2000", "--roi=4000"]
CPU_TIMED_TABLES = {"table1_runtimes", "motivation_cost"}
CPU_TIMED_NOTES = ("avg time:", "total time:")


def fail(msg):
    print("bench_smoke: FAIL: " + msg)
    sys.exit(1)


def run(bench_dir, bench, out, extra, env=None):
    cmd = [os.path.join(bench_dir, bench)] + SCALE + [
        "--format=json", "--out=" + out] + extra
    p = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if p.returncode != 0:
        fail("%s exited %d\n%s" % (" ".join(cmd), p.returncode, p.stderr))
    check = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "check_report.py"), out],
        capture_output=True, text=True)
    if check.returncode != 0:
        fail("%s: check_report.py\n%s" % (out, check.stdout + check.stderr))


def untimed(path):
    """Write `path` minus its CPU-time figures next to it; return that."""
    with open(path) as f:
        doc = json.load(f)
    doc["tables"] = [t for t in doc.get("tables", [])
                     if t.get("name") not in CPU_TIMED_TABLES]
    doc["notes"] = [n for n in doc.get("notes", [])
                    if not n.strip().startswith(CPU_TIMED_NOTES)]
    out = path + ".untimed"
    with open(out, "w") as f:
        json.dump(doc, f)
    return out


def same(a, b):
    p = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "check_bitwise.py"),
         untimed(a), untimed(b)], capture_output=True, text=True)
    if p.returncode != 0:
        fail("%s != %s\n%s" % (a, b, p.stdout + p.stderr))


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    bench_dir, work = sys.argv[1], sys.argv[2]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    for bench in BENCHES:
        serial = os.path.join(work, bench + ".jobs1.json")
        pooled = os.path.join(work, bench + ".jobs3.json")
        run(bench_dir, bench, serial, ["--jobs=1"])
        run(bench_dir, bench, pooled, ["--jobs=3"])
        same(serial, pooled)
        print("bench_smoke: %s ok" % bench)

    journal = os.path.join(work, "table2.journal")
    fresh = os.path.join(work, "table2.fresh.json")
    resumed = os.path.join(work, "table2.resumed.json")
    run(bench_dir, "bench_table2", fresh,
        ["--jobs=3", "--resume=" + journal])
    env = dict(os.environ, PINTE_INJECT_FAULT="job:1")
    run(bench_dir, "bench_table2", resumed,
        ["--jobs=3", "--resume=" + journal], env=env)
    same(fresh, resumed)
    print("bench_smoke: bench_table2 --resume served every cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
