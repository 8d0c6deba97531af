"""tools/output_digest.py on its quick corpus."""

import importlib.util
import json
import re
from pathlib import Path

from bbwt import transforms

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_one_digest_per_call(capsys):
    assert output_digest.main(["--quick"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["call"] for r in records] == list(output_digest.CALLS)
    for r in records:
        assert r["cases"] > 0 and re.fullmatch(r"[0-9a-f]{64}", r["sha256"]), r


def test_digest_reads_results_and_raised_errors():
    # the quick corpus holds texts past the inverse's loop cutoff and
    # repeated necklaces; a digest changes with the results it reads
    texts = output_digest.corpus(quick=True)
    assert max(map(len, texts)) > transforms._LOOP_MAX and b"a" * 600 in texts
    a = output_digest.digest("descent_step", texts[:20])
    assert a == output_digest.digest("descent_step", texts[:20])
    assert a != output_digest.digest("descent_step", texts[:21])
