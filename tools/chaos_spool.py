#!/usr/bin/env python3
"""Chaos acceptance for the spool campaign backend (ctest
chaos.spool_broker, via check_spool.cmake).

Seven campaigns run against fault-free references, exercising every
leg of the broker's failure model (src/sim/broker.hh):

 1. clean:  a fault-free spool campaign must be bitwise-identical
    (modulo cpu_seconds) to the same sweep under --isolation=process.
 2. flaky:  a worker that abort()s on its first attempt at one cell
    must be retried under --max-retries and the campaign must still
    end bitwise-identical to the fault-free reference — transient
    loss leaves no trace in the data.
 3. crash:  a worker that abort()s on every attempt must exhaust the
    retry budget through the broker's fast dead-child reclamation,
    quarantine the cell with shard id, fencing token and the full
    attempt ladder in a schema-valid v6 report, and exit nonzero.
 4. hang:   a worker that wedges (SIGTERM ignored, no heartbeats)
    must lose its lease after --lease-ttl, be SIGKILLed by the
    broker, and quarantine the same way ("lease expired" ladder).
 5. torn:   a worker that appends half a record frame and then
    wedges must quarantine without the torn tail ever reaching the
    report — the stream scanner keeps incomplete frames buffered.
 6. kill:   the broker and its whole worker group are SIGKILLed
    mid-campaign (a power cut); a second broker started with the
    same flags must finish from the spool alone, exit zero, and
    produce a report bitwise-identical to a fault-free run.
 7. early:  a hand-started `pintesim --worker` that reaches the spool
    before the broker must wait for the campaign document, join the
    campaign beside the broker's own workers, and exit 0 once the
    broker marks it complete; the report stays bitwise-identical to
    the fault-free reference.

In every faulty campaign the healthy cells must match the reference
bit for bit: containment, not just survival.

Standard library only. Exit 0 on full success, 1 with a diagnostic
on the first violated expectation.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

CELLS = 12  # the standard p-induce sweep grid


def fail(msg):
    sys.stderr.write("chaos_spool: FAIL: %s\n" % msg)
    sys.exit(1)


def strip(node):
    """Drop cpu_seconds everywhere: the only nondeterministic field."""
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items()
                if k != "cpu_seconds"}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


class Harness:
    def __init__(self, pintesim, checker, workdir):
        self.pintesim = pintesim
        self.checker = checker
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def common(self, warmup, roi, sample):
        return [self.pintesim, "--workload", "450.soplex", "--sweep",
                "--warmup", str(warmup), "--roi", str(roi),
                "--sample", str(sample), "--jobs", "2",
                "--format", "json"]

    def spool_args(self, tag, extra):
        spool = self.path("spool_" + tag)
        shutil.rmtree(spool, ignore_errors=True)
        out = self.path("spool_%s.json" % tag)
        if os.path.exists(out):
            os.remove(out)
        return ["--isolation=spool", "--spool", spool,
                "--out", out] + extra, spool, out

    def run(self, args, fault=None, expect_exit=0, timeout=240):
        env = dict(os.environ)
        env.pop("PINTE_INJECT_FAULT", None)
        if fault:
            env["PINTE_INJECT_FAULT"] = fault
        p = subprocess.run(args, env=env, capture_output=True,
                           text=True, timeout=timeout)
        if expect_exit == 0 and p.returncode != 0:
            fail("%s exited %d:\n%s" % (" ".join(args), p.returncode,
                                        p.stderr))
        if expect_exit != 0:
            if p.returncode == 0:
                fail("%s exited 0; a lost shard must surface in the "
                     "exit status" % " ".join(args))
            if "sweep jobs failed" not in p.stderr:
                fail("faulty campaign did not report its failure "
                     "count on stderr:\n%s" % p.stderr)
        return p

    def check_schema(self, out):
        p = subprocess.run([sys.executable, self.checker, out],
                           capture_output=True, text=True)
        if p.returncode != 0:
            fail("%s failed schema validation:\n%s%s"
                 % (out, p.stdout, p.stderr))

    def expect_bitwise(self, out, reference, what):
        got, want = strip(load(out)), strip(load(reference))
        if got != want:
            fail("%s: report differs from %s (beyond cpu_seconds)"
                 % (what, os.path.basename(reference)))

    def expect_quarantine(self, out, reference, what,
                          attempts, ladder_word):
        """One quarantined cell with full spool provenance; every
        healthy cell bitwise-equal to the reference."""
        self.check_schema(out)
        doc = load(out)
        failed = [r for r in doc["runs"] if r["status"] == "failed"]
        ok = [r for r in doc["runs"] if r["status"] == "ok"]
        if len(failed) != 1:
            fail("%s: expected exactly 1 quarantined cell, got %d"
                 % (what, len(failed)))
        e = failed[0]["error"]
        if e["kind"] != "worker" or e["component"] != "broker":
            fail("%s: quarantine carries kind=%r component=%r"
                 % (what, e["kind"], e["component"]))
        if not e.get("shard"):
            fail("%s: quarantine lacks its shard id" % what)
        # One token bump per reclamation on top of the initial claim.
        if e.get("fencing_token", 0) != attempts + 1:
            fail("%s: fencing_token %r after %d attempt(s)"
                 % (what, e.get("fencing_token"), attempts))
        if e["attempts"] != attempts:
            fail("%s: %d attempt(s) consumed, expected %d"
                 % (what, e["attempts"], attempts))
        if len(e["attempt_log"]) != attempts:
            fail("%s: attempt_log has %d line(s) for %d attempt(s)"
                 % (what, len(e["attempt_log"]), attempts))
        if not any(ladder_word in line for line in e["attempt_log"]):
            fail("%s: no attempt was reclaimed as %r:\n%s"
                 % (what, ladder_word, "\n".join(e["attempt_log"])))
        ref = {(r["workload"], r["contention"]): strip(r)
               for r in load(reference)["runs"]}
        if len(ok) != len(ref) - 1:
            fail("%s: %d healthy cells, expected %d"
                 % (what, len(ok), len(ref) - 1))
        for r in ok:
            key = (r["workload"], r["contention"])
            if strip(r) != ref[key]:
                fail("%s: healthy cell %r differs from the reference"
                     % (what, key))
        print("chaos_spool: %s: 1 quarantined (%s, shard %s, token "
              "%d, %d attempt(s)), %d healthy cells match"
              % (what, ladder_word, e["shard"], e["fencing_token"],
                 attempts, len(ok)))


def pid_running(pid):
    """True when `pid` is alive and not a zombie. A worker SIGKILLed
    together with its broker stays a zombie until init reaps it, and
    plain kill(pid, 0) still succeeds on zombies."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            # comm may contain spaces/parens; state follows the last ')'.
            state = f.read().rpartition(")")[2].split()[0]
        return state not in ("Z", "X")
    except OSError:
        return False


def lease_pids(spool):
    pids = []
    leases = os.path.join(spool, "leases")
    for name in os.listdir(leases) if os.path.isdir(leases) else []:
        try:
            with open(os.path.join(leases, name)) as f:
                pids.append(int(json.load(f)["pid"]))
        except (OSError, ValueError, KeyError):
            pass
    return [p for p in pids if p > 0]


def main():
    if len(sys.argv) != 4:
        sys.stderr.write(
            "usage: chaos_spool.py PINTESIM CHECKER WORKDIR\n")
        return 2
    h = Harness(sys.argv[1], sys.argv[2], sys.argv[3])
    small = h.common(2000, 4000, 2000)

    # Fault-free process-mode reference: the determinism baseline the
    # spool backend is held to.
    reference = h.path("spool_reference.json")
    if os.path.exists(reference):
        os.remove(reference)
    h.run(small + ["--isolation=process", "--out", reference])

    # 1. Fault-free spool campaign: bitwise vs process mode.
    extra, _, out = h.spool_args("clean", [])
    h.run(small + extra)
    h.check_schema(out)
    h.expect_bitwise(out, reference, "clean spool campaign")
    print("chaos_spool: clean: spool report bitwise-matches process "
          "mode")

    # 2. Transient crash: first attempt dies, retry recovers, data is
    # indistinguishable from a fault-free campaign.
    extra, _, out = h.spool_args("flaky", ["--max-retries", "2"])
    h.run(small + extra, fault="worker-flaky:3")
    h.expect_bitwise(out, reference, "flaky-retry campaign")
    print("chaos_spool: flaky: retried cell recovered bitwise")

    # 3. Permanent crash: every attempt aborts; the dead-child fast
    # path reclaims without waiting out the lease TTL.
    extra, _, out = h.spool_args("crash", ["--max-retries", "2"])
    h.run(small + extra, fault="worker-crash:3", expect_exit=1)
    h.expect_quarantine(out, reference, "crash", attempts=2,
                        ladder_word="worker exited")

    # 4. Wedged worker: no heartbeats, SIGTERM ignored; the lease TTL
    # is the only thing that gets the shard back.
    extra, _, out = h.spool_args("hang", ["--max-retries", "1",
                                          "--lease-ttl", "1"])
    h.run(small + extra, fault="worker-hang:2", expect_exit=1)
    h.expect_quarantine(out, reference, "hang", attempts=1,
                        ladder_word="lease expired")

    # 5. Torn frame: half a record then a wedge; the tail must stay
    # buffered in the scanner and never reach the report.
    extra, _, out = h.spool_args("torn", ["--max-retries", "1",
                                          "--lease-ttl", "1"])
    h.run(small + extra, fault="worker-torn-frame:5", expect_exit=1)
    h.expect_quarantine(out, reference, "torn", attempts=1,
                        ladder_word="lease expired")

    # 6. Power cut: SIGKILL the broker's whole process group
    # mid-campaign, then restart with identical flags. Bigger cells so
    # the kill demonstrably lands mid-flight; its own fault-free
    # reference at the same scale.
    big = h.common(60000, 2000000, 100000)
    big_ref = h.path("spool_reference_big.json")
    if os.path.exists(big_ref):
        os.remove(big_ref)
    h.run(big + ["--out", big_ref])

    extra, spool, out = h.spool_args(
        "kill", ["--max-retries", "3", "--lease-ttl", "3"])
    env = dict(os.environ)
    env.pop("PINTE_INJECT_FAULT", None)
    broker = subprocess.Popen(big + extra, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              start_new_session=True)
    done_dir = os.path.join(spool, "done")
    deadline = time.monotonic() + 120
    try:
        while True:
            if broker.poll() is not None:
                fail("kill: campaign finished before the kill "
                     "landed; grow the big-cell sizing")
            done = (len(os.listdir(done_dir))
                    if os.path.isdir(done_dir) else 0)
            if 0 < done < CELLS:
                break
            if time.monotonic() > deadline:
                fail("kill: no done markers after 120s")
            time.sleep(0.05)
        workers = lease_pids(spool)
        os.killpg(broker.pid, signal.SIGKILL)
    finally:
        if broker.poll() is None and broker.returncode is None:
            try:
                os.killpg(broker.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        broker.wait()
    time.sleep(0.3)
    for pid in workers:
        if pid_running(pid):
            fail("kill: worker pid %d survived the group kill" % pid)
    if os.path.exists(out):
        fail("kill: report published despite the mid-campaign kill")
    print("chaos_spool: kill: broker + %d worker(s) SIGKILLed with "
          "%d/%d cells done" % (len(workers), done, CELLS))

    h.run(big + extra, timeout=240)
    h.check_schema(out)
    h.expect_bitwise(out, big_ref, "restarted campaign")
    print("chaos_spool: kill: restart completed from the spool alone, "
          "bitwise vs fault-free")

    # 7. Early worker: started on an empty spool, it waits for
    # campaign.json (woken by the broker's rename, not a timer), works
    # beside the local workers, and leaves on the complete marker.
    extra, spool, out = h.spool_args("early", [])
    early = subprocess.Popen([h.pintesim, "--worker", "--spool", spool],
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
    try:
        time.sleep(0.5)
        if early.poll() is not None:
            fail("early: worker exited %d before the campaign existed:"
                 "\n%s" % (early.returncode, early.stderr.read()))
        h.run(small + extra)
        try:
            _, err = early.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            fail("early: worker still running 30s after the campaign "
                 "completed")
    finally:
        if early.poll() is None:
            early.kill()
            early.communicate()
    if early.returncode != 0:
        fail("early: worker exited %d:\n%s" % (early.returncode, err))
    h.expect_bitwise(out, reference, "early-worker campaign")
    print("chaos_spool: early: a worker started before the broker "
          "joined and exited 0; report bitwise vs process mode")

    print("chaos_spool: all spool chaos scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
