"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper in
every `bbwt` module that holds a reference to it, so calls from one module
into another (`transforms` calling `power_ranks`, `rotation` calling `bbwt`)
are seen as well as the benchmark's own calls.  A span's self time is its
duration minus the durations of the spans it directly encloses.  Spans are
summed per function in memory; nothing is recorded while no tracer is
installed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module under bbwt, function); the layer is the module name without its "_"
TRACED = (
    ("strings", "lyndon_factorize"),
    ("strings", "smallest_rotation"),
    ("_ranks", "power_ranks"),
    ("_ranks", "suffix_ranks_np"),
    ("transforms", "_core"),
    ("transforms", "bbwt"),
    ("transforms", "bwt"),
    ("transforms", "count_runs"),
    ("transforms", "lf_map"),
    ("transforms", "bwt_inverse_multiset"),
    ("transforms", "bbwt_inverse"),
    ("macro", "induce_bms"),
    ("macro", "decode_bms"),
    ("measures", "lz77_factorize"),
    ("measures", "measure_report"),
    ("rotation", "best_rotation"),
    ("rotation", "all_rotation_factorization_sizes"),
    ("reachability", "orbit_connected"),
    ("reachability", "transform_to_smallest"),
)

# counts taken from a span's result
RESULT_COUNTS = {
    "macro.induce_bms": ("phrases", lambda m: m.phrase_count),
    "measures.lz77_factorize": ("factors", lambda lz: lz.z),
    "reachability.orbit_connected": ("members", lambda rep: rep.class_size),
}

# calls of an inner span made while an outer span is open
NESTED_COUNTS = {
    "transforms.bbwt": ("rotation.best_rotation", "bbwt_calls"),
    "transforms.bbwt_inverse": ("reachability.transform_to_smallest", "inverse_calls"),
}

# reported per-layer metrics: name -> (span, quantity, unit, better)
PER_LAYER = {f"{span}.{qty}": (span, qty, unit, better) for span, qty, unit, better in (
    ("strings.lyndon_factorize", "self_s", "s", "lower"),
    ("strings.lyndon_factorize", "calls", "count", "lower"),
    ("strings.smallest_rotation", "self_s", "s", "lower"),
    ("strings.smallest_rotation", "calls", "count", "lower"),
    ("ranks.power_ranks", "self_s", "s", "lower"),
    ("ranks.power_ranks", "calls", "count", "lower"),
    ("ranks.suffix_ranks_np", "self_s", "s", "lower"),
    ("transforms._core", "self_s", "s", "lower"),
    ("transforms._core", "calls", "count", "lower"),
    ("transforms._core", "hits", "count", "higher"),
    ("transforms.bbwt", "self_s", "s", "lower"),
    ("transforms.bbwt", "calls", "count", "lower"),
    ("transforms.bwt", "self_s", "s", "lower"),
    ("transforms.count_runs", "self_s", "s", "lower"),
    ("transforms.lf_map", "self_s", "s", "lower"),
    ("transforms.bwt_inverse_multiset", "self_s", "s", "lower"),
    ("macro.induce_bms", "self_s", "s", "lower"),
    ("macro.induce_bms", "phrases", "count", "lower"),
    ("macro.decode_bms", "self_s", "s", "lower"),
    ("measures.lz77_factorize", "self_s", "s", "lower"),
    ("measures.lz77_factorize", "factors", "count", "lower"),
    ("measures.measure_report", "self_s", "s", "lower"),
    ("rotation.best_rotation", "self_s", "s", "lower"),
    ("rotation.best_rotation", "bbwt_calls", "count", "lower"),
    ("rotation.all_rotation_factorization_sizes", "self_s", "s", "lower"),
    ("reachability.orbit_connected", "self_s", "s", "lower"),
    ("reachability.orbit_connected", "members", "count", "lower"),
    ("reachability.transform_to_smallest", "self_s", "s", "lower"),
    ("reachability.transform_to_smallest", "inverse_calls", "count", "lower"),
)}


class Tracer:
    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)  # "<span>.<quantity>"
        self._stack: list[float] = []  # child time of each open span
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> dict[str, float]:
        """Return the totals so far and start new ones."""
        out = dict(self.values)
        self.values.clear()
        return out

    def _wrap(self, span: str, fn):
        values, stack, open_spans = self.values, self._stack, self._open
        clock = time.perf_counter
        result_count = RESULT_COUNTS.get(span)
        nested = NESTED_COUNTS.get(span)
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            if nested and open_spans[nested[0]]:
                values[f"{nested[0]}.{nested[1]}"] += 1
            hits = cache_info().hits if cache_info else 0
            open_spans[span] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                open_spans[span] -= 1
                if stack:
                    stack[-1] += dt
                values[f"{span}.self_s"] += dt - child
                values[f"{span}.calls"] += 1
            if cache_info and cache_info().hits > hits:
                values[f"{span}.hits"] += 1
            if result_count:
                values[f"{span}.{result_count[0]}"] += result_count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bbwt" or name.startswith("bbwt.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"bbwt.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name.lstrip('_')}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
