"""tools/cli_rss.py on a small input."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_rss.py"
_spec = importlib.util.spec_from_file_location("cli_rss", _PATH)
cli_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_rss)


def test_one_record_per_input_reading_subcommand(capsys):
    assert cli_rss.main(["8", "--seed", "3"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["command"] for r in records] == [name for name, _ in cli_rss.COMMANDS]
    for r in records:
        # bms verify exits 0 only if it read the scheme bms build wrote
        assert r["exit"] == 0 and r["n"] == 256, r
        assert r["baseline_kib"] > 0 and r["peak_kib"] >= 0, r
        assert r["bytes_per_byte"] == round(r["peak_kib"] * 1024 / 256, 1), r
