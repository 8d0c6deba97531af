"""perfbench/tracer.py still finds every function it wraps.

The tracer patches functions by module and name, so a renamed or deleted
function would otherwise show only in a traced benchmark run.
"""

import importlib.util
import random
import sys
from pathlib import Path

import bbwt
from bbwt import transforms

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _traced_now():
    return {(module, name): getattr(sys.modules[f"bbwt.{module}"], name)
            for module, name in tracer.TRACED}


def test_tracer_wraps_every_traced_function():
    w = bytes(random.Random(300).choices(b"abcd", k=300))
    transforms._core.cache_clear()  # so bbwt ranks and induce_bms hits the memo
    originals = _traced_now()
    t = tracer.Tracer()
    t.install()
    try:
        for key, wrapper in _traced_now().items():
            assert getattr(wrapper, "__wrapped__", None) is originals[key], key
        assert hasattr(originals["transforms", "_core"], "cache_info")
        bbwt.bbwt(w)
        bbwt.induce_bms(w)
        bbwt.lz77_factorize(w)
    finally:
        t.uninstall()
    values = t.reset()
    assert values["ranks.power_ranks.calls"] > 0
    assert values["ranks.suffix_ranks_np.calls"] > 0
    assert values["transforms._core.hits"] > 0
    assert _traced_now() == originals
