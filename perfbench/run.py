"""Benchmark of the bbwt library, end to end and per layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One workload runs in one process, single-threaded.  After set-up (imports,
seeded inputs, one warm-up call per operation, repeated to time it) the timed
section repeats whole rounds while the next round still fits in --seconds;
there is always at least one.  A round times each operation as its own pass
over the workload's inputs, with the transform memo cleared before each pass
so no call is served by another pass.  Metrics are medians over rounds.

On a shared host, speed drifts by 10-30% from one run to the next for every
operation alike, so a fixed reference kernel, which calls nothing in the
program, is timed before every pass, and each end-to-end time is reported in
reference seconds: the measured median times REFERENCE_S / (the run's median
reference time).  The raw times are kept in the results file.

After the timed section every output of the last round is checked (see
checks.py), and every earlier round must give the same outputs.  An operation
fails when it raises or fails its check.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics, the end-to-end
ones with --trace 0 and the per-layer ones (tracer.py) with --trace 1.  The
same object, with per-round detail, is written under perfbench/results/.

--workload all runs every workload in its own child process, one at a time.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("bulk-random", "bulk-repetitive", "sweep", "rotate-reach")
SETUP_REPEATS = 3
REFERENCE_S = 0.013  # median reference time on the 2-core machine the bounds were set on
REFERENCE_TEXT = bytes(range(256)) * 16

# metric, module, function, and the input list it reads, or the
# (metric, field picker) of the earlier pass whose results it consumes
OPS = (
    ("bbwt_s", "transforms", "bbwt", "texts"),
    ("bbwt_inverse_s", "transforms", "bbwt_inverse", ("bbwt_s", lambda r: r.output)),
    ("induce_bms_s", "macro", "induce_bms", "texts"),
    ("decode_bms_s", "macro", "decode_bms", ("induce_bms_s", lambda m: m)),
    ("lz77_s", "measures", "lz77_factorize", "texts"),
    ("measure_report_s", "measures", "measure_report", "measure"),
    ("best_rotation_s", "rotation", "best_rotation", "rotate"),
    ("rotation_sizes_s", "rotation", "all_rotation_factorization_sizes", "sizes"),
    ("orbit_connected_s", "reachability", "orbit_connected", "classes"),
    ("transform_to_smallest_s", "reachability", "transform_to_smallest", "descend"),
)


class Failed:
    """Stands for the result of a call that raised, or whose input could not be made."""

    def __init__(self, reason: str):
        self.reason = reason


def _import_program():
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import bbwt.macro
    import bbwt.measures
    import bbwt.reachability
    import bbwt.rotation
    import bbwt.transforms
    import oracles

    for mod, where in ((bbwt, ROOT / "src" / "bbwt"), (oracles, ROOT / "tests")):
        if Path(mod.__file__).resolve().parent != where:
            raise ImportError(f"{mod.__name__} was not loaded from {where}")
    return {name: sys.modules[f"bbwt.{name}"]
            for name in ("transforms", "macro", "measures", "rotation", "reachability")}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    t0 = time.perf_counter()
    modules = _import_program()
    import checks
    import tracer
    import workloads
    import_s = time.perf_counter() - t0
    bench = Bench(modules, checks, workloads, args)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bench.setup()
        setup_times.append(time.perf_counter() - t0)
    bench.measure(tracer.Tracer() if args.trace else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, correct = bench.check()
    out = {"correct": correct, "attempted": bench.attempted, "failed": failed}
    if args.trace:
        out["metrics"] = bench.layer_metrics(tracer.PER_LAYER)
    else:
        raw = {"total_s": statistics.median(sum(t.values()) for t in bench.times)}
        for metric, *_ in OPS:
            raw[metric] = statistics.median(t[metric] for t in bench.times)
        scale = REFERENCE_S / statistics.median(bench.refs)
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics.update((k, (v * scale, "s")) for k, v in raw.items())
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=len(bench.times), round_times=bench.times, reference_times=bench.refs,
                  import_s=import_s, setup_times=setup_times, problems=bench.problems)
    if not args.trace:
        detail["raw_metrics"] = raw
    if args.trace:
        detail["round_spans"] = bench.spans
        detail["traced_total_s"] = statistics.median(sum(t.values()) for t in bench.times)
    RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for name, m in out["metrics"].items():
        print(f"{args.workload:16} {name:48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for problem in bench.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name} {json.dumps(res)}")
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


class Bench:
    def __init__(self, modules, checks, workloads, args):
        self.mod = modules
        self.checks = checks
        self.workloads = workloads
        self.args = args
        self.core = modules["transforms"]._core  # the memo, kept unwrapped by the tracer
        self.times: list[dict[str, float]] = []
        self.spans: list[dict[str, float]] = []
        self.digests: list[dict[str, list]] = []
        self.results: dict[str, list] = {}
        self.refs: list[float] = []  # reference kernel times, one before each pass
        self.ref_keys = None
        self.problems: list[str] = []
        self.attempted = 0

    def _reference(self) -> float:
        """Seconds for a fixed mix of small-object Python work and a numpy
        sort; it calls nothing in the program."""
        if self.ref_keys is None:
            import numpy as np

            self.ref_keys = np.random.default_rng(0).integers(0, 1 << 40, 1 << 15)
        t0 = time.perf_counter()
        for _ in range(3):
            counts = {}
            for c, e in [(c, c + 1) for c in REFERENCE_TEXT]:
                counts[c] = counts.get(c, 0) + e
            self.ref_keys.argsort(kind="stable")
        return time.perf_counter() - t0

    def setup(self) -> None:
        """Seeded inputs, then one warm-up call per operation on a short input."""
        t, m, ro, re_ = (self.mod[k] for k in ("transforms", "macro", "rotation", "reachability"))
        self.inputs = self.workloads.WORKLOADS[self.args.workload](self.args.seed)
        inp = self.inputs
        self.args_for = {
            "texts": inp.texts, "measure": inp.measure, "rotate": inp.rotate,
            "sizes": inp.sizes, "descend": inp.descend,
            "classes": [re_.ParikhVector(c) for c in inp.classes],
        }
        w = max(inp.texts, key=len)[:2048]
        t.bbwt_inverse(t.bbwt(w).output)
        m.decode_bms(m.induce_bms(w))
        self.mod["measures"].lz77_factorize(w)
        self.mod["measures"].measure_report(max(inp.measure, key=len)[:2048])
        ro.best_rotation(max(inp.rotate, key=len)[:48])
        ro.all_rotation_factorization_sizes(max(inp.sizes, key=len)[:2048])
        re_.orbit_connected(min(self.args_for["classes"], key=re_.class_size))
        re_.transform_to_smallest(inp.descend[0][:48])
        self.core.cache_clear()

    def _round(self) -> tuple[dict[str, float], dict[str, list]]:
        times, results = {}, {}
        for metric, mod, fn_name, source in OPS:
            if isinstance(source, str):
                call_args = self.args_for[source]
            else:
                upstream, pick = source
                call_args = [None if isinstance(r, Failed) else pick(r) for r in results[upstream]]
            fn = getattr(self.mod[mod], fn_name)
            out = []
            gc.collect()
            self.refs.append(self._reference())
            self.core.cache_clear()
            t0 = time.perf_counter()
            for a in call_args:
                if a is None:
                    out.append(Failed("its input could not be made"))
                    continue
                try:
                    out.append(fn(a))
                except Exception as exc:  # counted as a failed operation
                    out.append(Failed(f"raised {exc!r}"))
            times[metric] = time.perf_counter() - t0
            results[metric] = out
        return times, results

    def measure(self, tracer) -> None:
        """Whole rounds while the next one still fits in --seconds."""
        if tracer:
            tracer.install()
        elapsed = 0.0
        try:
            while True:
                self.results = {}  # let the previous round's outputs go first
                times, self.results = self._round()
                self.times.append(times)
                if tracer:
                    self.spans.append(tracer.reset())
                self.attempted += sum(len(r) for r in self.results.values())
                round_s = sum(times.values())
                elapsed += round_s
                if elapsed + round_s > self.args.seconds:
                    break
                self.digests.append(self._digest(self.results))
        finally:
            if tracer:
                tracer.uninstall()

    @staticmethod
    def _digest(results):
        return {k: [None if isinstance(r, Failed) else hash(r) for r in v]
                for k, v in results.items()}

    def check(self) -> tuple[int, bool]:
        """Check the last round in full and earlier rounds against it.
        Returns (failed operations, whether the workload-level checks held)."""
        bad = self._check_last_round()
        failed = len(bad)
        if self.digests:
            final = self._digest(self.results)
            for digest in self.digests:
                for metric, values in digest.items():
                    for i, h in enumerate(values):
                        if h is None or h != final[metric][i] or (metric, i) in bad:
                            failed += 1
        t = self.mod["transforms"]
        try:
            self.checks.check_lyndon_probe(self.inputs.probe, t.bbwt, t.bwt)
            correct = True
        except Exception as exc:
            self.problems.append(f"probe: {exc!r}")
            correct = False
        return failed, correct

    def _check_last_round(self) -> set:
        c, inp, res = self.checks, self.inputs, self.results
        t, m, ms = self.mod["transforms"], self.mod["macro"], self.mod["measures"]
        oracle = inp.oracle
        factors = functools.cache(c.lyndon_factors)

        def ok(metric, i):
            return not isinstance(res[metric][i], Failed)

        def fresh_reference(w):
            """r, r_B, z and phrase count of a text, each from a checked output."""
            tr = t.bbwt(w)
            c.check_bbwt(w, tr, factors(w))
            c.check_equal(w, t.bbwt_inverse(tr.output), "bbwt_inverse")
            r_b = c.runs_np(tr.output)
            lz = ms.lz77_factorize(w)
            c.check_lz(w, lz)
            scheme = m.induce_bms(w)
            c.check_scheme(w, scheme, r_b, c.necklace_count(w, factors(w)))
            c.check_equal(w, m.decode_bms(scheme), "decode_bms")
            return r_b, lz.z, scheme.phrase_count

        def bwt_runs(w):
            out = t.bwt(w).output
            c.check_equal(sorted(w), sorted(out), "bwt byte counts")
            return c.runs_np(out)

        def check_text_op(metric, i, w, r):
            if metric == "bbwt_s":
                c.check_bbwt(w, r, factors(w))
                if i in oracle.get("texts", ()):
                    c.oracle_bbwt(w, r)
            elif metric in ("bbwt_inverse_s", "decode_bms_s"):
                c.check_equal(w, r, metric)
            elif metric == "induce_bms_s":
                if not ok("bbwt_s", i):
                    raise c.CheckError("no bbwt output to take r_B from")
                c.check_scheme(w, r, c.runs_np(res["bbwt_s"][i].output),
                               c.necklace_count(w, factors(w)))
            elif metric == "lz77_s":
                c.check_lz(w, r)
                if i in oracle.get("texts", ()):
                    c.oracle_lz(w, r)

        def check_measure(i, w, rep):
            if inp.measure is inp.texts:
                if not all(ok(k, i) for k in ("bbwt_s", "lz77_s", "induce_bms_s")):
                    raise c.CheckError("an operation the report repeats failed")
                r_b = c.runs_np(res["bbwt_s"][i].output)
                z, phrases = res["lz77_s"][i].z, res["induce_bms_s"][i].phrase_count
            else:
                r_b, z, phrases = fresh_reference(w)
            c.check_measure(w, rep, factors(w), bwt_runs(w), r_b, z, phrases)
            if i in oracle.get("texts", ()) and inp.measure is inp.texts:
                c.oracle_measure(w, rep)

        def check_one(metric, i, r):
            if metric in ("bbwt_s", "bbwt_inverse_s", "induce_bms_s", "decode_bms_s", "lz77_s"):
                check_text_op(metric, i, inp.texts[i], r)
            elif metric == "measure_report_s":
                check_measure(i, inp.measure[i], r)
            elif metric == "best_rotation_s":
                w = inp.rotate[i]
                rotated = t.bbwt(r.rotated)
                c.check_bbwt(r.rotated, rotated, factors(r.rotated))
                c.check_best_rotation(w, r, rotated.runs, bwt_runs(w))
                if i in oracle.get("rotate", ()):
                    c.oracle_best_rotation(w, r)
            elif metric == "rotation_sizes_s":
                w = inp.sizes[i]
                c.check_rotation_sizes(w, r, c.rotation_sample(len(w)))
                if i in oracle.get("sizes", ()):
                    c.oracle_rotation_sizes(w, r)
            elif metric == "orbit_connected_s":
                c.check_orbit(inp.classes[i], r)
                if i in oracle.get("classes", ()):
                    c.oracle_orbit(inp.classes[i], r)
            elif metric == "transform_to_smallest_s":
                c.check_descent(inp.descend[i], r, lambda v: t.bbwt(v).output, t.bbwt_inverse)

        bad = set()
        for metric, *_ in OPS:
            for i, r in enumerate(res[metric]):
                try:
                    if isinstance(r, Failed):
                        raise c.CheckError(r.reason)
                    check_one(metric, i, r)
                except Exception as exc:  # any check or program error fails this call
                    bad.add((metric, i))
                    self.problems.append(f"{metric}[{i}]: {exc!r}")
        return bad

    def layer_metrics(self, per_layer) -> dict:
        """Self times are medians over rounds; counts are those of the last round."""
        out = {}
        for name, (span, qty, unit, _) in per_layer.items():
            key = f"{span}.{qty}"
            if qty == "self_s":
                value = statistics.median(s.get(key, 0.0) for s in self.spans)
            else:
                value = int(self.spans[-1].get(key, 0))
            out[name] = {"value": value, "unit": unit}
        return out


if __name__ == "__main__":
    sys.exit(main())
