"""Summarise benchmark runs of a parent and a change checkout into one JSON file.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

Each checkout's perfbench/results/*.json files (written by perfbench/run.py
with --trace 0; traced runs are skipped) are grouped by workload.  For every
workload and side the output gives the seeds, the runs, the median number
of rounds a run fit into its --seconds, the attempted and failed operations,
and the median and quartiles of every end-to-end metric.  Where both sides
ran the same seed, the runs pair up: for each metric the output gives the
change's median over the parent's and how many pairs the change won, that
is, read lower (every end-to-end metric in BENCHMARK.json is better lower),
and `paired_rounds` lists [seed, parent rounds, change rounds] per pair.
More rounds keep more digests alive, so a side that fits more rounds reads
a higher peak_rss_mb on the same program.  A results file without `rounds`
counts as None there and is left out of the median.

Both checkouts must be git repositories (made with `git clone`); each one's
revision is its `git rev-parse HEAD`.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _revision(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        raise SystemExit(f"bench_summary: {root} is not a git checkout") from None
    return proc.stdout.strip()


def load_runs(root: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> the result object of one untraced run."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted((root / "perfbench" / "results").glob("*.json")):
        res = json.loads(path.read_text())
        if "round_spans" in res or "metrics" not in res:
            continue  # a traced run reports per-layer metrics only
        runs.setdefault(res["workload"], {})[res["seed"]] = res
    return runs


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def side_summary(runs: dict[int, dict]) -> dict:
    seeds = sorted(runs)
    names = list(runs[seeds[0]]["metrics"])
    metrics = {}
    for name in names:
        values = [runs[s]["metrics"][name]["value"] for s in seeds if name in runs[s]["metrics"]]
        metrics[name] = dict(spread(values), unit=runs[seeds[0]]["metrics"][name]["unit"])
    rounds = [runs[s]["rounds"] for s in seeds if "rounds" in runs[s]]
    return {
        "seeds": seeds,
        "runs": len(seeds),
        "rounds": statistics.median(rounds) if rounds else None,
        "attempted": sum(runs[s]["attempted"] for s in seeds),
        "failed": sum(runs[s]["failed"] for s in seeds),
        "metrics": metrics,
    }


def compare(parent: dict[int, dict], change: dict[int, dict]) -> dict:
    seeds = sorted(set(parent) & set(change))
    out = {}
    if not seeds:
        return out
    for name in parent[seeds[0]]["metrics"]:
        pairs = [(parent[s]["metrics"][name]["value"], change[s]["metrics"][name]["value"])
                 for s in seeds if name in change[s]["metrics"]]
        if not pairs:
            continue
        p_med = statistics.median(p for p, _ in pairs)
        c_med = statistics.median(c for _, c in pairs)
        out[name] = {
            "pairs": len(pairs),
            "change_won": sum(c < p for p, c in pairs),
            "change_over_parent": c_med / p_med if p_med else None,
        }
    return out


def summarize(parent_root: Path, change_root: Path, parent_rev: str, change_rev: str) -> dict:
    parent, change = load_runs(parent_root), load_runs(change_root)
    workloads = {}
    for name in sorted(set(parent) | set(change)):
        entry = {}
        if name in parent:
            entry["parent"] = side_summary(parent[name])
        if name in change:
            entry["change"] = side_summary(change[name])
        if name in parent and name in change:
            entry["paired"] = compare(parent[name], change[name])
            entry["paired_rounds"] = [
                [s, parent[name][s].get("rounds"), change[name][s].get("rounds")]
                for s in sorted(set(parent[name]) & set(change[name]))]
        workloads[name] = entry
    return {"parent_revision": parent_rev, "change_revision": change_rev,
            "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    summary = summarize(args.parent, args.change,
                        _revision(args.parent), _revision(args.change))
    if not summary["workloads"]:
        print("bench_summary: no untraced results found", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
