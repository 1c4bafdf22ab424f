"""Byte-identity of the builtin scenarios' trace CSVs and of the random
and overlap sets' answers.

``tests/golden/<name>.csv`` holds the output of
``surfslide solve <name> --trace tests/golden/<name>.csv`` (default mode).
``tests/golden/random-2024.txt`` fingerprints the 200 random separated
pairs of seed 2024 in both overshoot modes, each solve followed by a warm
re-solve from its own params. ``tests/golden/overlap-2024.txt``
fingerprints ``contact.analyze`` on 60 overlapping pairs of seed 2024
(the benchmark's overlap-analyze recipe, fracs cycling 0.3/0.6/0.9);
it pins today's verdicts, the wrong ones included.
``PYTHONPATH=src python tests/test_golden.py`` rewrites both.
A change meant to keep every answer must leave these files matching; a
change that moves answers regenerates them and lists what moved.
"""

from pathlib import Path

import numpy as np
import pytest

from helpers import random_overlap_pair, random_separated_pair
from surfslide.cli import main
from surfslide.contact import analyze
from surfslide.scenarios import builtin_scenarios
from surfslide.slider import SolverConfig, solve

GOLDEN = Path(__file__).parent / "golden"
RANDOM_SET = GOLDEN / "random-2024.txt"
OVERLAP_SET = GOLDEN / "overlap-2024.txt"
OVERLAP_FRACS = (0.3, 0.6, 0.9)


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


def _fingerprint(mode, case, start, res):
    p1, p2 = res.params
    return " ".join(
        [
            mode,
            f"{case:03d}",
            start,
            res.status,
            str(res.iterations),
            ",".join(res.stop_criteria) or "-",
            res.distance.hex(),
            p1.theta.hex(),
            p1.phi.hex(),
            p2.theta.hex(),
            p2.phi.hex(),
        ]
    )


def random_set_fingerprint() -> list[str]:
    """One line per solve: mode, case, cold/warm, status, iterations, stop
    criteria, and the distance and params as ``float.hex``."""
    rng = np.random.default_rng(2024)
    pairs = [random_separated_pair(rng) for _ in range(200)]
    lines = []
    for mode in ("accept-and-continue", "revert-and-retry"):
        cfg = SolverConfig(overshoot_mode=mode)
        for case, (e1, e2) in enumerate(pairs):
            cold = solve(e1, e2, None, cfg)
            warm = solve(e1, e2, cold.params, cfg)
            lines.append(_fingerprint(mode, case, "cold", cold))
            lines.append(_fingerprint(mode, case, "warm", warm))
    return lines


def test_random_set_matches_golden():
    got = random_set_fingerprint()
    want = RANDOM_SET.read_text().splitlines()
    for g, w in zip(got, want):
        assert g == w, f"random-2024.txt differs:\n  got  {g}\n  want {w}"
    assert len(got) == len(want), f"{len(got)} solves, golden {len(want)}"



def overlap_set_fingerprint() -> list[str]:
    """One line per ``contact.analyze`` call: case, frac, then the report's
    kind, depth and witness params as ``float.hex``, or the name of the
    exception it raised."""
    rng = np.random.default_rng(2024)
    lines = []
    for case in range(60):
        frac = OVERLAP_FRACS[case % len(OVERLAP_FRACS)]
        e1, e2 = random_overlap_pair(rng, frac)
        head = f"{case:03d} {frac}"
        try:
            rep = analyze(e1, e2)
        except Exception as exc:
            lines.append(f"{head} {type(exc).__name__}")
            continue
        p1, p2 = rep.witness_params
        values = (rep.distance_or_depth, p1.theta, p1.phi, p2.theta, p2.phi)
        lines.append(" ".join([head, rep.kind, *(v.hex() for v in values)]))
    return lines


def test_overlap_set_matches_golden():
    got = overlap_set_fingerprint()
    want = OVERLAP_SET.read_text().splitlines()
    for g, w in zip(got, want):
        assert g == w, f"overlap-2024.txt differs:\n  got  {g}\n  want {w}"
    assert len(got) == len(want), f"{len(got)} reports, golden {len(want)}"


if __name__ == "__main__":
    RANDOM_SET.write_text("\n".join(random_set_fingerprint()) + "\n")
    OVERLAP_SET.write_text("\n".join(overlap_set_fingerprint()) + "\n")
