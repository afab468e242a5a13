#!/usr/bin/env python3
"""Validates a MetricsRecorder time series (docs/OBSERVABILITY.md).

Usage: check_timeseries.py --series DIR [--report report.json]
       check_timeseries.py metrics-000001.jsonl [more.jsonl ...]

A series is a directory of metrics-NNNNNN.jsonl files (the index is
zero-padded to 6 digits and grows wider past 999999; names parse like
FileSeries::ParseName: 1-20 ASCII digits, value in [1, 2^64 - 2]), one
JSON object per line, {"seq":N,"t_nanos":T,"counters":{...},
"gauges":{...},"histograms":{...}} — the metrics members being exactly what
metrics::SnapshotJson() renders (and what run reports embed, so this
tool and check_report.py parse the same shapes). Checks:

  * file names and contiguity — retention trims the OLD end only, so
    the surviving indices form one gap-free range;
  * per-sample schema — exact key set, value types, the histogram
    percentile ordering min <= p50 <= p95 <= p99 <= max;
  * run boundaries — seq restarts at 1 when a new recorder takes over
    the series, and increments by exactly 1 within a run; only the
    first sample of the whole series may start mid-run (retention
    dropped the files holding that run's head);
  * monotone time — t_nanos never decreases within a run (runs may
    restart the clock: fake-clock harnesses start at 0);
  * counter monotonicity — counters never decrease within a run;
  * histogram monotone slack — count/sum/max never decrease and min
    never increases (between samples with data) within a run: the
    recorder snapshots live histograms, so successive samples may each
    lag reality, but they may never contradict each other.

With --report, the FINAL sample must reconcile EXACTLY with the run
report: its counters/gauges/histograms objects equal the report's.
That gate only holds when the daemon honored the ordering contract —
quiesce, write the report, then MetricsRecorder::Close() — which is
precisely what it is here to enforce. Stdlib only, so CI can run it on
a bare python3.

Exit status: 0 iff the series validates; failures name the file, line
and violated invariant.
"""

import json
import os
import re
import sys

SAMPLE_KEYS = {"seq", "t_nanos", "counters", "gauges", "histograms"}
SERIES_NAME = re.compile(r"metrics-([0-9]{1,20})\.jsonl")
MAX_INDEX = 2**64 - 2  # every index keeps a successor
HISTOGRAM_KEYS = {"count", "sum", "min", "max", "p50", "p95", "p99"}


class SeriesError(Exception):
    """One violated invariant, with enough context to locate it."""


def require(condition, message):
    if not condition:
        raise SeriesError(message)


def check_sample(sample, where):
    require(isinstance(sample, dict) and set(sample) == SAMPLE_KEYS,
            f"{where}: sample must have exactly keys {sorted(SAMPLE_KEYS)}")
    require(isinstance(sample["seq"], int) and sample["seq"] >= 1,
            f"{where}: seq must be a positive integer")
    require(isinstance(sample["t_nanos"], int) and sample["t_nanos"] >= 0,
            f"{where}: t_nanos must be a non-negative integer")
    require(isinstance(sample["counters"], dict),
            f"{where}: counters must be an object")
    for name, value in sample["counters"].items():
        require(isinstance(value, int) and value >= 0,
                f"{where}: counter '{name}' must be a non-negative integer")
    require(isinstance(sample["gauges"], dict),
            f"{where}: gauges must be an object")
    for name, value in sample["gauges"].items():
        require(isinstance(value, int),
                f"{where}: gauge '{name}' must be an integer")
    require(isinstance(sample["histograms"], dict),
            f"{where}: histograms must be an object")
    for name, hist in sample["histograms"].items():
        require(isinstance(hist, dict) and set(hist) == HISTOGRAM_KEYS,
                f"{where}: histogram '{name}' must have exactly keys "
                f"{sorted(HISTOGRAM_KEYS)}")
        for key in HISTOGRAM_KEYS:
            require(isinstance(hist[key], int) and hist[key] >= 0,
                    f"{where}: histogram '{name}'.{key} must be a "
                    f"non-negative integer")
        if hist["count"] == 0:
            require(hist["sum"] == 0 and hist["max"] == 0,
                    f"{where}: empty histogram '{name}' must have zero "
                    f"sum/max")
        else:
            require(hist["min"] <= hist["p50"] <= hist["p95"]
                    <= hist["p99"] <= hist["max"],
                    f"{where}: histogram '{name}' percentiles must be "
                    f"ordered min <= p50 <= p95 <= p99 <= max")


def check_progression(prev, sample, where):
    """Within-run invariants between two consecutive samples."""
    require(sample["seq"] == prev["seq"] + 1,
            f"{where}: seq {sample['seq']} does not follow {prev['seq']} "
            f"(within a run it increments by exactly 1)")
    require(sample["t_nanos"] >= prev["t_nanos"],
            f"{where}: t_nanos {sample['t_nanos']} went backwards from "
            f"{prev['t_nanos']}")
    for name, value in prev["counters"].items():
        if name in sample["counters"]:
            require(sample["counters"][name] >= value,
                    f"{where}: counter '{name}' decreased "
                    f"{value} -> {sample['counters'][name]}")
    for name, hist in prev["histograms"].items():
        cur = sample["histograms"].get(name)
        if cur is None:
            continue
        for key in ("count", "sum", "max"):
            require(cur[key] >= hist[key],
                    f"{where}: histogram '{name}'.{key} decreased "
                    f"{hist[key]} -> {cur[key]}")
        if hist["count"] > 0 and cur["count"] > 0:
            require(cur["min"] <= hist["min"],
                    f"{where}: histogram '{name}'.min increased "
                    f"{hist['min']} -> {cur['min']}")


def load_samples(paths):
    """All samples of `paths` in order, schema-checked, with locations."""
    samples = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        require(lines, f"{path}: a published series file is never empty")
        for lineno, line in enumerate(lines, start=1):
            where = f"{path}:{lineno}"
            try:
                sample = json.loads(line)
            except json.JSONDecodeError as error:
                raise SeriesError(f"{where}: not valid JSON: {error}")
            check_sample(sample, where)
            samples.append((where, sample))
    return samples


def check_files(paths):
    """One ordered list of series files as a single stream of runs.
    Returns (num_samples, num_runs, final_sample)."""
    samples = load_samples(paths)
    runs = 0
    prev = None
    for position, (where, sample) in enumerate(samples):
        # seq 1 marks a new recorder taking over: a run boundary. The
        # very first sample may be a retained run's mid-run head.
        if sample["seq"] == 1 or position == 0:
            runs += 1
            prev = None
        require(prev is not None or sample["seq"] == 1 or position == 0,
                f"{where}: a run must start at seq 1, got {sample['seq']}")
        if prev is not None:
            check_progression(prev, sample, where)
        prev = sample
    return len(samples), runs, samples[-1][1]


def check_series(directory, report_path=None):
    """The whole series directory, plus the exact final-sample-vs-report
    reconciliation when --report names the daemon's run report."""
    indices = {}
    for name in sorted(os.listdir(directory)):
        match = SERIES_NAME.fullmatch(name)
        if not match or not 1 <= int(match.group(1)) <= MAX_INDEX:
            continue
        indices[int(match.group(1))] = os.path.join(directory, name)
    require(indices, f"{directory}: no metrics-NNNNNN.jsonl files")
    ordered = sorted(indices)
    # Retention trims the OLD end only: surviving indices are contiguous.
    require(ordered == list(range(ordered[0], ordered[-1] + 1)),
            f"{directory}: series has an index gap: {ordered}")
    count, runs, final = check_files([indices[i] for i in ordered])

    if report_path is not None:
        with open(report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        for section in ("counters", "gauges", "histograms"):
            require(final[section] == report.get(section),
                    f"final sample's {section} do not reconcile exactly "
                    f"with {report_path} — the daemon broke the "
                    f"quiesce/report/Close ordering contract")
    return count, runs


def main(argv):
    args = argv[1:]
    values = {}
    rest = []
    i = 0
    while i < len(args):
        if args[i] in ("--series", "--report"):
            if i + 1 >= len(args):
                print(f"{args[i]} needs a value", file=sys.stderr)
                return 2
            values[args[i]] = args[i + 1]
            i += 2
        else:
            rest.append(args[i])
            i += 1
    if "--series" in values:
        if rest:
            print(f"unexpected arguments with --series: {rest}",
                  file=sys.stderr)
            return 2
        directory = values["--series"]
        try:
            count, runs = check_series(directory, values.get("--report"))
            reconciled = " (reconciled with report)" if "--report" in values \
                else ""
            print(f"{directory}: OK ({count} sample(s), {runs} run(s))"
                  f"{reconciled}")
            return 0
        except (SeriesError, OSError, json.JSONDecodeError) as error:
            print(f"{directory}: FAIL: {error}", file=sys.stderr)
            return 1
    if "--report" in values:
        print("--report needs --series", file=sys.stderr)
        return 2
    if not rest:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        count, runs = check_files(rest)[:2]
        print(f"OK ({count} sample(s), {runs} run(s))")
        return 0
    except (SeriesError, OSError) as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
