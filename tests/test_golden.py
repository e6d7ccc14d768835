"""Golden records: one task runs every command, an action declaration, an
inconclusive certificate and two error records, and its output must match
the pinned records byte for byte, apart from each record's `timing`."""

import re
from pathlib import Path

from gaql import cli

DATA = Path(__file__).parent / "data"
_TIMING = re.compile(r',"timing":\{"seconds":[-+.0-9e]+\}\}\Z')


def test_golden_records(capsys, monkeypatch):
    # a record depends on its task alone: a variable that once set the
    # default nilpotency bound changes nothing, whatever its value
    for value in ("2", "zebra"):
        monkeypatch.setenv("GAQL_DEFAULT_BOUND", value)
        code = cli.main(["run", str(DATA / "golden_task.jsonl")])
        lines = capsys.readouterr().out.splitlines()
        assert all(_TIMING.search(line) for line in lines)
        got = "".join(_TIMING.sub("}", line) + "\n" for line in lines)
        assert got == (DATA / "golden_records.jsonl").read_text(encoding="utf-8")
        # the failed action declaration ends the run: the line after it never runs
        assert code == cli.EXIT_COMMAND_ERROR
        assert set(cli._COMMANDS) <= set(re.findall(r'"cmd":"([a-z-]+)"', got))
