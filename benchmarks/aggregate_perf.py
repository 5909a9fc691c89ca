"""Aggregate BENCH_*.json reports into one perf-trajectory record.

Every perf benchmark in this suite (``bench_polling.py``,
``bench_fabric.py``, ``bench_protocols.py``, ``bench_service.py``,
``bench_faults.py``) writes a ``BENCH_<name>.json`` report with
``--json``.  CI uploads each one, but a trajectory is only
readable as *one* artifact per run: this script globs the reports, tags
them with the commit and timestamp, distils the headline number from each,
and writes ``perf-trajectory.json`` next to them::

    PYTHONPATH=src python benchmarks/aggregate_perf.py [--dir .] [--out perf-trajectory.json]

Exits non-zero if no ``BENCH_*.json`` files are found (an empty trajectory
artifact would silently hide a broken pipeline).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time


def _commit() -> str:
    """The commit being measured: CI's SHA, else the local HEAD, else unknown."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


#: Per-benchmark headline extractors: report dict -> {metric: value}.
def _polling_headline(report: dict) -> dict:
    return {
        "cq_event_reduction": report.get("cq_event_reduction"),
        "events_per_sec": report.get("events_per_sec_on"),
        "elided_fraction": report.get("elided_fraction"),
    }


def _fabric_headline(report: dict) -> dict:
    rows = {row["fabric"]: row for row in report.get("rows", [])}
    return {
        "events_per_sec": rows.get("ideal", {}).get("events_per_sec"),
        "mesh_relative_events_per_sec": rows.get("mesh", {}).get("relative_events_per_sec"),
        "ideal_matches_golden": report.get("ideal_matches_golden"),
    }


def _protocols_headline(report: dict) -> dict:
    rows = {row["protocol"]: row for row in report.get("rows", [])}
    return {
        "events_per_sec": rows.get("moesi", {}).get("events_per_sec"),
        "dir_msi_relative_cycles": rows.get("dir-msi", {}).get("relative_cycles"),
        "moesi_matches_golden": report.get("moesi_matches_golden"),
    }


def _service_headline(report: dict) -> dict:
    dedup = report.get("dedup", {})
    return {
        "warm_hits_per_sec": report.get("warm", {}).get("hits_per_sec"),
        "dedup_fan_in": dedup.get("clients"),
        "dedup_simulations": dedup.get("simulations"),
        "etag_304_ok": report.get("etag", {}).get("ok"),
    }


_HEADLINES = {
    "polling": _polling_headline,
    "fabric": _fabric_headline,
    "protocols": _protocols_headline,
    "service": _service_headline,
}


def aggregate(directory: str) -> dict:
    reports = {}
    headlines = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)[len("BENCH_"):-len(".json")]
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        reports[name] = report
        extract = _HEADLINES.get(name)
        if extract is not None:
            headlines[name] = extract(report)
    return {
        "schema": 1,
        "commit": _commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_id": os.environ.get("GITHUB_RUN_ID"),
        "workflow": os.environ.get("GITHUB_WORKFLOW"),
        "headlines": headlines,
        "reports": reports,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dir", default=".", help="directory holding BENCH_*.json reports")
    parser.add_argument("--out", default="perf-trajectory.json", help="output path")
    args = parser.parse_args(argv)

    record = aggregate(args.dir)
    if not record["reports"]:
        print(f"FAIL: no BENCH_*.json reports found in {args.dir!r}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    names = ", ".join(sorted(record["reports"]))
    print(f"aggregated {len(record['reports'])} report(s) ({names}) -> {args.out}")
    for name, headline in sorted(record["headlines"].items()):
        summary = ", ".join(f"{k}={v}" for k, v in headline.items())
        print(f"  {name}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
