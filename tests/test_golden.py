"""Byte-identity of the builtin scenarios' trace CSVs.

``tests/golden/<name>.csv`` holds the output of
``surfslide solve <name> --trace tests/golden/<name>.csv`` (default mode).
A change meant to keep every answer must leave these files matching; a
change that moves answers regenerates them with that command and lists
what moved.
"""

from pathlib import Path

import pytest

from surfslide.cli import main
from surfslide.scenarios import builtin_scenarios

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", [sc.name for sc in builtin_scenarios()])
def test_builtin_trace_matches_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csv"
    main(["solve", name, "--trace", str(path)])
    capsys.readouterr()
    got = path.read_bytes().splitlines(keepends=True)
    want = (GOLDEN / f"{name}.csv").read_bytes().splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name}.csv row {i} differs:\n  got  {g!r}\n  want {w!r}"
    assert len(got) == len(want), f"{name}.csv has {len(got)} rows, golden {len(want)}"
