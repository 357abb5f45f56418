"""The seeded random-plant corpus (plant_corpus.py) through the command line.

Each plant runs `bound --method both` and `montecarlo --cloud total` (with
geometric bounds) through cli.main in process.  Every (plant, command) must
end with the exit code and error class of plant_corpus_table.json, with no
exception escaping main, and every JSON file written must be standard JSON.

The table records what the commands do, refusals included; it is not a list
of right answers.  A row changes only with a change that says why, in
CHANGES.md; a plant may be added but not removed.  Regenerate it with
`PYTHONPATH=src python tests/test_plant_corpus.py`.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from stealthreach.cli import main

from conftest import strict_json
from plant_corpus import CORPUS_SIZE, corpus_plant

TABLE = Path(__file__).with_name("plant_corpus_table.json")
COMMANDS = {"bound": ["--method", "both"], "montecarlo": ["--cloud", "total"]}


def run_plant(i: int, work: Path) -> dict:
    """{command: [exit code, error class or None]} of plant i, run in work."""
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(corpus_plant(i)))
    row = {}
    for command, flags in COMMANDS.items():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(scenario), "--out", str(work / command),
                         *flags])
        cause = re.match(r"(?:numeric failure|invariant violation): (\w+): ", err.getvalue())
        row[command] = [code, cause and cause.group(1)]
    return row


@pytest.mark.parametrize("i", range(CORPUS_SIZE), ids=lambda i: f"plant{i:02d}")
def test_corpus_plant(tmp_path, i):
    want = json.loads(TABLE.read_text())[f"{i:02d}"]
    assert run_plant(i, tmp_path) == want
    for path in tmp_path.glob("*/*.json"):
        strict_json(path)


if __name__ == "__main__":
    table = {}
    for i in range(CORPUS_SIZE):
        with tempfile.TemporaryDirectory() as work:
            table[f"{i:02d}"] = run_plant(i, Path(work))
    rows = (f' "{i}": {json.dumps(row, sort_keys=True)}' for i, row in table.items())
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {TABLE.name}: {len(table)} plants", file=sys.stderr)
