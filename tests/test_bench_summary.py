"""tools/bench_summary.py on synthetic results directories."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def _write_run(root, workload, seed, metrics, failed=0, traced=False):
    results = root / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    res = {
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}
                    for k, v in metrics.items()},
        "workload": workload, "seed": seed, "seconds": 20.0,
    }
    if traced:
        res["round_spans"] = []
    suffix = "-trace" if traced else ""
    (results / f"{workload}-seed{seed}{suffix}.json").write_text(json.dumps(res))


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for k, seed in enumerate((1, 2, 3, 4, 5)):
        _write_run(parent, "bulk", seed, {"lz77_s": 1.0 + k, "peak_rss_mb": 100.0})
        _write_run(change, "bulk", seed, {"lz77_s": 0.5 + k, "peak_rss_mb": 101.0 + k},
                   failed=1 if seed == 5 else 0)
    _write_run(parent, "sweep", 7, {"lz77_s": 2.0, "peak_rss_mb": 50.0})
    # a traced run and a run of another seed on one side only
    _write_run(change, "bulk", 1, {"lz77_factorize.calls": 3.0}, traced=True)
    _write_run(change, "bulk", 9, {"lz77_s": 100.0, "peak_rss_mb": 1.0})
    return parent, change


def test_summary_of_synthetic_runs(checkouts, tmp_path, monkeypatch):
    parent, change = checkouts
    monkeypatch.setattr(bench_summary, "_revision",
                        lambda root: {parent: "aaa", change: "bbb"}[root])
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["parent_revision"] == "aaa" and got["change_revision"] == "bbb"
    bulk = got["workloads"]["bulk"]
    assert bulk["parent"]["seeds"] == [1, 2, 3, 4, 5]
    assert bulk["change"]["seeds"] == [1, 2, 3, 4, 5, 9]
    assert bulk["parent"]["metrics"]["lz77_s"] == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "s"}
    assert bulk["change"]["metrics"]["lz77_s"]["median"] == 3.0
    assert (bulk["change"]["attempted"], bulk["change"]["failed"]) == (60, 1)
    # pairs only over the seeds both sides ran
    assert bulk["paired"]["lz77_s"] == {
        "pairs": 5, "change_won": 5, "change_over_parent": 2.5 / 3.0}
    # a metric wins when it reads lower: the change's peak_rss_mb is higher
    assert bulk["paired"]["peak_rss_mb"]["change_won"] == 0
    sweep = got["workloads"]["sweep"]
    assert "change" not in sweep and "paired" not in sweep
    assert sweep["parent"]["metrics"]["lz77_s"] == {
        "median": 2.0, "q1": 2.0, "q3": 2.0, "unit": "s"}


def test_summary_needs_results(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    monkeypatch.setattr(bench_summary, "_revision", lambda root: "a")
    assert bench_summary.main([str(tmp_path / "a"), str(tmp_path / "a"),
                               "--out", str(tmp_path / "x.json")]) == 1
    assert not (tmp_path / "x.json").exists()


def test_revision_of_a_git_checkout(tmp_path):
    with pytest.raises(SystemExit):
        bench_summary._revision(tmp_path)
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert len(head) == 40 and bench_summary._revision(tmp_path) == head
