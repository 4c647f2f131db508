#!/usr/bin/env python3
"""Validate a pinte-report JSON document (schema version 6).

Usage:
    check_report.py [report.json]        # file, or stdin when omitted
    pintesim --report --format=json | check_report.py

The schema is frozen at version 6; documents of earlier versions are
rejected. Each run carries a "status" field ("ok" | "failed"); failed
runs carry an "error" object (and no metrics/samples) and the document
a top-level "failures" summary. Non-finite numbers (NaN, Infinity) are
rejected everywhere: the emitter writes only finite doubles, and a
NaN that sneaks into a report poisons every downstream reduction.

The observability payloads are optional (omitted when empty): a
per-run "timeseries" object of per-interval counter deltas, a per-run
"histograms" array of log2-bucketed histograms, and a config
"sample_interval" field. On these the checker enforces the interval
invariants: cycle stamps strictly increase, every delta row matches
the path list, each histogram's bucket counts sum to its total, and
the LLC access/miss delta columns sum exactly to the end-of-run
counters the metrics section republishes (the sampler's conservation
identity).

The interval-engine payloads are optional too: a config "sampling"
object (mode / interval_length / detailed_fraction / seed) and a
per-run "sampled" object of per-metric mean and 95% CI half-width
estimates over the detailed intervals. The checker enforces that the
two appear together — every ok run of a document whose config
declares sampling must carry "sampled", and no run of a detailed-only
document may — plus the schedule identities (detailed_intervals <=
intervals, detailed_instructions <= total_instructions, non-negative
CI half-widths).

A failed run's error may carry the process-isolation loss record, as
a unit (all four fields or none, only on cells lost at the worker
level under --isolation=process or spool): "signal" (terminating
signal of the last attempt, 0 when the worker exited instead),
"exit_code", "attempts" (attempts consumed before quarantine, >= 1),
and "attempt_log" (one line per attempt, so its length must equal
"attempts"). It may further carry the spool-loss provenance, as a
pair: "shard" (the non-empty shard id a spool campaign quarantined the
cell with) and "fencing_token" (the token the shard held when its
retry budget ran out, >= 1). The pair appears only on cells lost at
the broker level under --isolation=spool, which are worker-level
losses too, so a run carrying it must also carry the loss record.

On every ok run the conservation identities the simulator maintains
are also enforced on every ok run: miss_rate equals
llc_misses/llc_accesses, counters and rate metrics stay within their
ranges, and the PInTE induction counters nest (triggers never exceed
accesses seen, invalidations never exceed requested evictions). A
report that type-checks but violates one of these carries numbers no
simulation could have produced.

Exit status 0 when the document conforms, 1 with a diagnostic per
violation otherwise. Standard library only.
"""

import json
import math
import sys

SCHEMA = "pinte-report"
SCHEMA_VERSION = 6

SAMPLING_CONFIG_FIELDS = {
    "mode": str,
    "interval_length": int,
    "detailed_fraction": float,
    "seed": int,
}

SAMPLED_FIELDS = {
    "mode": str,
    "interval_length": int,
    "detailed_fraction": float,
    "intervals": int,
    "detailed_intervals": int,
    "detailed_instructions": int,
    "total_instructions": int,
    "stats": list,
}

SAMPLED_STAT_FIELDS = {
    "name": str,
    "mean": float,
    "ci95": float,
}

SAMPLE_MODES = ("periodic", "random")

METRIC_FIELDS = {
    "ipc": float,
    "miss_rate": float,
    "amat": float,
    "interference_rate": float,
    "theft_rate": float,
    "l2_interference_rate": float,
    "branch_accuracy": float,
    "l1d_miss_rate": float,
    "l2_miss_rate": float,
    "prefetch_miss_rate": float,
    "l2_mpki": float,
    "llc_mpki": float,
    "llc_wb_share": float,
    "llc_occupancy_fraction": float,
    "llc_accesses": int,
    "llc_misses": int,
}

SAMPLE_FIELDS = {
    "ipc": float,
    "miss_rate": float,
    "amat": float,
    "interference_rate": float,
    "theft_rate": float,
    "occupancy_fraction": float,
    "instructions": int,
}

PINTE_FIELDS = {
    "accesses_seen": int,
    "triggers": int,
    "promotions": int,
    "invalidations": int,
    "requested_evicts": int,
}

CONFIG_FIELDS = {
    "fingerprint": str,
    "warmup": int,
    "roi": int,
    "sample_every": int,
    "run_seed": int,
}

ERROR_FIELDS = {
    "kind": str,
    "component": str,
    "path": str,
    "message": str,
}

# Process-isolation loss record, optional on a failed run's error
# object; the four fields appear together (keyed on "attempts").
LOSS_FIELDS = {
    "signal": int,
    "exit_code": int,
    "attempts": int,
    "attempt_log": list,
}

# Spool-loss provenance, optional on a failed run's error object; the
# pair appears together (keyed on "shard") and only alongside the loss
# record — a broker-level loss is a worker-level loss too.
SPOOL_FIELDS = {
    "shard": str,
    "fencing_token": int,
}

FAILURES_FIELDS = {
    "failed": int,
    "total": int,
}

# Metrics that are ratios with a unit-interval range by construction.
# prefetch_miss_rate is NOT one of them: it is prefetch misses per
# issued prefetch, and one issued L1D prefetch that descends through
# L2 is counted as a miss at both levels, so the ratio's range is
# [0, 2] — it is checked with the nonnegative metrics below.
UNIT_RATE_METRICS = (
    "miss_rate",
    "l1d_miss_rate",
    "l2_miss_rate",
    "branch_accuracy",
    "llc_wb_share",
    "llc_occupancy_fraction",
)

# Close enough for a double that survived JSON serialization.
RATE_TOLERANCE = 1e-9


def reject_constant(token):
    raise ValueError(f"non-finite number {token}")


class Checker:
    def __init__(self):
        self.errors = []

    def error(self, path, message):
        self.errors.append(f"{path}: {message}")

    def check_fields(self, obj, fields, path):
        if not isinstance(obj, dict):
            self.error(path, f"expected object, got {type(obj).__name__}")
            return
        for name, kind in fields.items():
            if name not in obj:
                self.error(path, f"missing field '{name}'")
                continue
            value = obj[name]
            # JSON integers satisfy float fields (1.0 serializes as 1),
            # but a float where an integer counter belongs is an error.
            if kind is float:
                ok = isinstance(value, (int, float)) and not isinstance(
                    value, bool
                )
                if ok and not math.isfinite(value):
                    ok = False
            elif kind is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind)
            if not ok:
                self.error(
                    f"{path}.{name}",
                    f"expected {kind.__name__}, "
                    f"got {type(value).__name__}: {value!r}",
                )
        for name in obj:
            if name not in fields:
                self.error(path, f"unknown field '{name}'")

    def check_failed_run(self, run, path):
        error = run.get("error")
        fields = ERROR_FIELDS
        # Process-isolation loss record: the four fields appear as a
        # unit (keyed on "attempts") and only on worker-level losses.
        has_loss = isinstance(error, dict) and "attempts" in error
        if has_loss:
            fields = dict(ERROR_FIELDS, **LOSS_FIELDS)
        # Spool-loss provenance: the pair appears as a unit (keyed on
        # "shard") and rides only on a loss record.
        has_spool = isinstance(error, dict) and "shard" in error
        if has_spool:
            fields = dict(fields, **SPOOL_FIELDS)
        self.check_fields(error, fields, f"{path}.error")
        if has_loss:
            self.check_loss_record(error, f"{path}.error")
        if has_spool:
            self.check_spool_record(error, has_loss, f"{path}.error")
        for name in run:
            if name not in {"workload", "contention", "status", "error"}:
                self.error(
                    path, f"unknown field '{name}' on a failed run"
                )

    def check_loss_record(self, error, path):
        attempts = error.get("attempts")
        log = error.get("attempt_log")
        if isinstance(attempts, int) and attempts < 1:
            self.error(f"{path}.attempts", "expected >= 1")
        for name in ("signal", "exit_code"):
            value = error.get(name)
            if isinstance(value, int) and value < 0:
                self.error(f"{path}.{name}", "expected >= 0")
        if isinstance(log, list):
            if not all(isinstance(line, str) for line in log):
                self.error(f"{path}.attempt_log", "expected strings")
            if isinstance(attempts, int) and len(log) != attempts:
                self.error(
                    f"{path}.attempt_log",
                    f"expected {attempts} line(s) (one per attempt), "
                    f"got {len(log)}",
                )

    def check_spool_record(self, error, has_loss, path):
        if not has_loss:
            self.error(
                f"{path}.shard",
                "spool-loss provenance without the loss record "
                "(a broker-level loss always consumes attempts)",
            )
        shard = error.get("shard")
        if isinstance(shard, str) and not shard:
            self.error(f"{path}.shard", "expected non-empty string")
        token = error.get("fencing_token")
        if isinstance(token, int) and not isinstance(token, bool) and (
            token < 1
        ):
            self.error(f"{path}.fencing_token", "expected >= 1")

    def check_run(self, run, path):
        if not isinstance(run, dict):
            self.error(path, "expected object")
            return
        shape_errors = len(self.errors)
        for name in ("workload", "contention"):
            if not isinstance(run.get(name), str):
                self.error(f"{path}.{name}", "expected string")
        status = run.get("status")
        if status not in ("ok", "failed"):
            self.error(
                f"{path}.status",
                f"expected 'ok' or 'failed', got {status!r}",
            )
        if status == "failed":
            self.check_failed_run(run, path)
            return
        self.check_fields(
            run.get("metrics"), METRIC_FIELDS, f"{path}.metrics"
        )
        samples = run.get("samples")
        if not isinstance(samples, list):
            self.error(f"{path}.samples", "expected array")
        else:
            for i, sample in enumerate(samples):
                self.check_fields(
                    sample, SAMPLE_FIELDS, f"{path}.samples[{i}]"
                )
        reuse = run.get("reuse_histogram")
        if not isinstance(reuse, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0
            for c in reuse or []
        ):
            self.error(
                f"{path}.reuse_histogram",
                "expected array of non-negative integers",
            )
        self.check_fields(run.get("pinte"), PINTE_FIELDS, f"{path}.pinte")
        cpu = run.get("cpu_seconds")
        if (
            not isinstance(cpu, (int, float))
            or isinstance(cpu, bool)
            or not math.isfinite(cpu)
        ):
            self.error(f"{path}.cpu_seconds", "expected finite number")
        known = {
            "workload",
            "contention",
            "metrics",
            "samples",
            "reuse_histogram",
            "pinte",
            "cpu_seconds",
            "status",
            "timeseries",
            "histograms",
            "sampled",
        }
        if "timeseries" in run:
            self.check_timeseries(run["timeseries"], f"{path}.timeseries")
        if "histograms" in run:
            self.check_histograms(run["histograms"], f"{path}.histograms")
        if "sampled" in run:
            self.check_sampled(run["sampled"], f"{path}.sampled")
        for name in run:
            if name not in known:
                self.error(path, f"unknown field '{name}'")
        if len(self.errors) == shape_errors:
            self.check_conservation(run, path)

    def check_sampled(self, sd, path):
        """Interval-engine section: mean ± CI estimates."""
        shape_errors = len(self.errors)
        self.check_fields(sd, SAMPLED_FIELDS, path)
        if not isinstance(sd, dict):
            return
        mode = sd.get("mode")
        if isinstance(mode, str) and mode not in SAMPLE_MODES:
            self.error(
                f"{path}.mode",
                f"expected one of {SAMPLE_MODES}, got {mode!r}",
            )
        stats = sd.get("stats")
        if isinstance(stats, list):
            for i, s in enumerate(stats):
                self.check_fields(
                    s, SAMPLED_STAT_FIELDS, f"{path}.stats[{i}]"
                )
                if isinstance(s, dict):
                    ci = s.get("ci95")
                    if isinstance(ci, (int, float)) and ci < 0:
                        self.error(
                            f"{path}.stats[{i}].ci95",
                            f"negative half-width ({ci})",
                        )
        if len(self.errors) != shape_errors:
            return
        # Schedule identities (types are known good at this point).
        if sd["interval_length"] <= 0:
            self.error(
                f"{path}.interval_length", "expected positive integer"
            )
        if not 0.0 < sd["detailed_fraction"] <= 1.0:
            self.error(
                f"{path}.detailed_fraction",
                f"{sd['detailed_fraction']} outside (0, 1]",
            )
        if sd["detailed_intervals"] > sd["intervals"]:
            self.error(
                f"{path}.detailed_intervals",
                f"{sd['detailed_intervals']} detailed out of "
                f"{sd['intervals']} intervals",
            )
        if sd["detailed_instructions"] > sd["total_instructions"]:
            self.error(
                f"{path}.detailed_instructions",
                f"{sd['detailed_instructions']} measured out of "
                f"{sd['total_instructions']} total instructions",
            )

    def check_timeseries(self, ts, path):
        """Time-series section: per-interval counter deltas."""
        if not isinstance(ts, dict):
            self.error(path, "expected object")
            return
        interval = ts.get("interval_cycles")
        if (
            not isinstance(interval, int)
            or isinstance(interval, bool)
            or interval <= 0
        ):
            self.error(
                f"{path}.interval_cycles", "expected positive integer"
            )
        paths = ts.get("paths")
        if not isinstance(paths, list) or not all(
            isinstance(p, str) and p for p in paths or []
        ):
            self.error(
                f"{path}.paths", "expected array of non-empty strings"
            )
            paths = []
        cycles = ts.get("cycles")
        if not isinstance(cycles, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0
            for c in cycles or []
        ):
            self.error(
                f"{path}.cycles",
                "expected array of non-negative integers",
            )
            cycles = []
        for i in range(1, len(cycles)):
            if cycles[i] <= cycles[i - 1]:
                self.error(
                    f"{path}.cycles[{i}]",
                    f"{cycles[i]} not greater than previous "
                    f"{cycles[i - 1]} (stamps must strictly increase)",
                )
        deltas = ts.get("deltas")
        if not isinstance(deltas, list):
            self.error(f"{path}.deltas", "expected array")
            deltas = []
        if cycles and len(deltas) != len(cycles):
            self.error(
                f"{path}.deltas",
                f"{len(deltas)} rows for {len(cycles)} cycle stamps",
            )
        for i, row in enumerate(deltas):
            if not isinstance(row, list) or not all(
                isinstance(d, int) and not isinstance(d, bool) and d >= 0
                for d in row or []
            ):
                self.error(
                    f"{path}.deltas[{i}]",
                    "expected array of non-negative integers",
                )
                continue
            if paths and len(row) != len(paths):
                self.error(
                    f"{path}.deltas[{i}]",
                    f"{len(row)} deltas for {len(paths)} paths",
                )
        for name in ts:
            if name not in {"interval_cycles", "paths", "cycles",
                            "deltas"}:
                self.error(path, f"unknown field '{name}'")

    def check_histograms(self, histograms, path):
        """Histogram section: log2-bucketed counts sum to total."""
        if not isinstance(histograms, list):
            self.error(path, "expected array")
            return
        for i, h in enumerate(histograms):
            hpath = f"{path}[{i}]"
            if not isinstance(h, dict):
                self.error(hpath, "expected object")
                continue
            if not isinstance(h.get("path"), str) or not h.get("path"):
                self.error(f"{hpath}.path", "expected non-empty string")
            total = h.get("total")
            if not isinstance(total, int) or isinstance(total, bool):
                self.error(f"{hpath}.total", "expected integer")
                total = None
            counts = h.get("counts")
            if not isinstance(counts, list) or not all(
                isinstance(c, int)
                and not isinstance(c, bool)
                and c >= 0
                for c in counts or []
            ):
                self.error(
                    f"{hpath}.counts",
                    "expected array of non-negative integers",
                )
            elif total is not None and sum(counts) != total:
                self.error(
                    f"{hpath}.counts",
                    f"bucket counts sum to {sum(counts)}, "
                    f"total claims {total}",
                )
            for name in h:
                if name not in {"path", "total", "counts"}:
                    self.error(hpath, f"unknown field '{name}'")

    def check_conservation(self, run, path):
        """Cross-field identities on an ok run.

        Only runs when the field-level checks produced no errors for
        this run, so every value below has the right type already.
        """
        metrics = run["metrics"]
        accesses = metrics["llc_accesses"]
        misses = metrics["llc_misses"]
        if misses > accesses:
            self.error(
                f"{path}.metrics.llc_misses",
                f"{misses} misses out of {accesses} accesses",
            )
        expected = misses / accesses if accesses else 0.0
        if abs(metrics["miss_rate"] - expected) > RATE_TOLERANCE:
            self.error(
                f"{path}.metrics.miss_rate",
                f"{metrics['miss_rate']} but llc_misses/llc_accesses "
                f"= {expected}",
            )
        for name in UNIT_RATE_METRICS:
            value = metrics[name]
            if not 0.0 <= value <= 1.0:
                self.error(
                    f"{path}.metrics.{name}",
                    f"rate {value} outside [0, 1]",
                )
        for name in ("ipc", "amat", "l2_mpki", "llc_mpki",
                     "interference_rate", "theft_rate",
                     "l2_interference_rate", "prefetch_miss_rate"):
            if metrics[name] < 0.0:
                self.error(
                    f"{path}.metrics.{name}", f"negative ({metrics[name]})"
                )
        pinte = run["pinte"]
        if pinte["triggers"] > pinte["accesses_seen"]:
            self.error(
                f"{path}.pinte.triggers",
                f"{pinte['triggers']} triggers out of "
                f"{pinte['accesses_seen']} accesses seen",
            )
        if pinte["invalidations"] > pinte["requested_evicts"]:
            self.error(
                f"{path}.pinte.invalidations",
                f"{pinte['invalidations']} invalidations for only "
                f"{pinte['requested_evicts']} requested evictions",
            )
        for i, sample in enumerate(run["samples"]):
            for name in ("miss_rate", "occupancy_fraction"):
                if not 0.0 <= sample[name] <= 1.0:
                    self.error(
                        f"{path}.samples[{i}].{name}",
                        f"rate {sample[name]} outside [0, 1]",
                    )
            for name in ("ipc", "amat", "interference_rate",
                         "theft_rate", "instructions"):
                if sample[name] < 0:
                    self.error(
                        f"{path}.samples[{i}].{name}",
                        f"negative ({sample[name]})",
                    )
        # Time-series conservation: the sampler snapshots its
        # baseline when measurement starts and finish() closes the
        # trailing partial interval, so a counter's column of deltas
        # sums to its end-of-run value exactly. The metrics section
        # republishes two of the sampled counters (a time series rides
        # on core 0's run only, whose metrics read the same registry
        # entries), which lets the identity be checked offline.
        if "timeseries" in run:
            ts = run["timeseries"]
            for ts_path, metric in (
                ("llc.core0.accesses", "llc_accesses"),
                ("llc.core0.misses", "llc_misses"),
            ):
                if ts_path not in ts["paths"]:
                    continue
                col = ts["paths"].index(ts_path)
                total = sum(row[col] for row in ts["deltas"])
                if total != metrics[metric]:
                    self.error(
                        f"{path}.timeseries",
                        f"deltas of {ts_path} sum to {total}, "
                        f"metrics.{metric} is {metrics[metric]}",
                    )

    def check_table(self, table, path):
        if not isinstance(table, dict):
            self.error(path, "expected object")
            return
        if not isinstance(table.get("name"), str) or not table.get("name"):
            self.error(f"{path}.name", "expected non-empty string")
        columns = table.get("columns")
        if not isinstance(columns, list) or not all(
            isinstance(c, str) for c in columns or []
        ):
            self.error(f"{path}.columns", "expected array of strings")
            columns = []
        rows = table.get("rows")
        if not isinstance(rows, list):
            self.error(f"{path}.rows", "expected array")
            rows = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                self.error(f"{path}.rows[{i}]", "expected array")
                continue
            if columns and len(row) != len(columns):
                self.error(
                    f"{path}.rows[{i}]",
                    f"{len(row)} cells for {len(columns)} columns",
                )
            for j, cell in enumerate(row):
                if not isinstance(cell, (str, int, float)) or isinstance(
                    cell, bool
                ):
                    self.error(
                        f"{path}.rows[{i}][{j}]",
                        "expected string or number",
                    )
                elif isinstance(cell, float) and not math.isfinite(cell):
                    self.error(
                        f"{path}.rows[{i}][{j}]",
                        f"non-finite number {cell!r}",
                    )
        for name in table:
            if name not in {"name", "columns", "rows"}:
                self.error(path, f"unknown field '{name}'")

    def check_failures(self, doc):
        failures = doc.get("failures")
        self.check_fields(failures, FAILURES_FIELDS, "$.failures")
        if not isinstance(failures, dict):
            return
        runs = doc.get("runs")
        if not isinstance(runs, list):
            return
        failed = sum(
            1
            for r in runs
            if isinstance(r, dict) and r.get("status") == "failed"
        )
        if failures.get("failed") != failed:
            self.error(
                "$.failures.failed",
                f"claims {failures.get('failed')!r} but "
                f"{failed} run(s) have status 'failed'",
            )
        if failures.get("total") != len(runs):
            self.error(
                "$.failures.total",
                f"claims {failures.get('total')!r} but the document "
                f"carries {len(runs)} run(s)",
            )

    def check_document(self, doc):
        if not isinstance(doc, dict):
            self.error("$", "top level must be an object")
            return
        if doc.get("schema") != SCHEMA:
            self.error("$.schema", f"expected {SCHEMA!r}, got "
                       f"{doc.get('schema')!r}")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            self.error(
                "$.schema_version",
                f"expected {SCHEMA_VERSION}, got {version!r}",
            )
        if not isinstance(doc.get("tool"), str) or not doc.get("tool"):
            self.error("$.tool", "expected non-empty string")
        config_fields = dict(CONFIG_FIELDS)
        config = doc.get("config")
        if isinstance(config, dict) and "sample_interval" in config:
            # Optional: emitted only when sampling was armed.
            config_fields["sample_interval"] = int
        sampling_on = isinstance(config, dict) and "sampling" in config
        if sampling_on:
            # Optional: emitted only for interval-engine runs.
            config_fields["sampling"] = dict
        self.check_fields(config, config_fields, "$.config")
        if isinstance(config, dict):
            interval = config.get("sample_interval")
            if interval is not None and (
                not isinstance(interval, int)
                or isinstance(interval, bool)
                or interval <= 0
            ):
                self.error(
                    "$.config.sample_interval",
                    "expected positive integer",
                )
        if sampling_on:
            sampling = config["sampling"]
            self.check_fields(
                sampling, SAMPLING_CONFIG_FIELDS, "$.config.sampling"
            )
            if isinstance(sampling, dict):
                mode = sampling.get("mode")
                if isinstance(mode, str) and mode not in SAMPLE_MODES:
                    self.error(
                        "$.config.sampling.mode",
                        f"expected one of {SAMPLE_MODES}, got {mode!r}",
                    )
        notes = doc.get("notes")
        if not isinstance(notes, list) or not all(
            isinstance(n, str) for n in notes or []
        ):
            self.error("$.notes", "expected array of strings")
        elif any(n == "" for n in notes):
            self.error("$.notes", "empty note (layout hints must be "
                       "dropped by the JSON sink)")
        runs = doc.get("runs")
        if not isinstance(runs, list):
            self.error("$.runs", "expected array")
        else:
            for i, run in enumerate(runs):
                self.check_run(run, f"$.runs[{i}]")
            # The sampled payload and the config that produced it
            # appear together: a sampled schedule yields estimates on
            # every ok run, a detailed-only document carries none.
            for i, run in enumerate(runs):
                if not isinstance(run, dict):
                    continue
                if run.get("status") == "failed":
                    continue
                if sampling_on and "sampled" not in run:
                    self.error(
                        f"$.runs[{i}]",
                        "config declares sampling but the run "
                        "carries no 'sampled' estimates",
                    )
                elif not sampling_on and "sampled" in run:
                    self.error(
                        f"$.runs[{i}].sampled",
                        "present without a config sampling object",
                    )
        self.check_failures(doc)
        tables = doc.get("tables")
        if not isinstance(tables, list):
            self.error("$.tables", "expected array")
        else:
            for i, table in enumerate(tables):
                self.check_table(table, f"$.tables[{i}]")
        known = {
            "schema",
            "schema_version",
            "tool",
            "config",
            "notes",
            "runs",
            "tables",
            "failures",
        }
        for name in doc:
            if name not in known:
                self.error("$", f"unknown field '{name}'")


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1] in ("-h", "--help")):
        sys.stderr.write(__doc__)
        return 2
    try:
        if len(argv) == 2 and argv[1] != "-":
            with open(argv[1], "r", encoding="utf-8") as f:
                text = f.read()
            source = argv[1]
        else:
            text = sys.stdin.read()
            source = "<stdin>"
    except OSError as e:
        sys.stderr.write(f"check_report: {e}\n")
        return 1

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except (json.JSONDecodeError, ValueError) as e:
        sys.stderr.write(f"check_report: {source}: not JSON: {e}\n")
        return 1

    checker = Checker()
    checker.check_document(doc)
    if checker.errors:
        for error in checker.errors:
            sys.stderr.write(f"check_report: {source}: {error}\n")
        sys.stderr.write(
            f"check_report: {source}: {len(checker.errors)} violation(s) "
            f"of pinte-report v{SCHEMA_VERSION}\n"
        )
        return 1
    runs = doc.get("runs", [])
    failed = sum(
        1
        for r in runs
        if isinstance(r, dict) and r.get("status") == "failed"
    )
    tables = len(doc.get("tables", []))
    status = f", {failed} failed" if failed else ""
    print(
        f"check_report: {source}: valid pinte-report "
        f"v{SCHEMA_VERSION} ({len(runs)} runs{status}, "
        f"{tables} tables)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
