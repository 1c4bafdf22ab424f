"""Byte-identity of the builtin scenarios' trace CSVs and of the random
and overlap sets' answers.

``tests/golden/<name>.csv`` holds the output of
``surfslide solve <name> --trace tests/golden/<name>.csv`` (default mode).
``tests/golden/random-2024.txt`` fingerprints the 200 random separated
pairs of seed 2024 in both overshoot modes, each solve followed by a warm
re-solve from its own params. ``tests/golden/overlap-2024.txt``
fingerprints ``contact.analyze`` on 60 overlapping pairs of seed 2024
(the benchmark's overlap-analyze recipe, fracs cycling 0.3/0.6/0.9);
it pins today's verdicts, the wrong ones included, and every field of
each report. ``tests/golden/oracle-2024.txt`` fingerprints
``oracle_min_distance`` on the seven builtin scenarios and 30 random
separated pairs of seed 2024, each in both argument orders, and
``tests/golden/dual-2024.txt`` fingerprints ``dual_distance`` on the same
calls: the bracket, both witnesses and the direction u at 17 significant
digits.
``PYTHONPATH=src python tests/test_golden.py`` rewrites all of them and
the seven shipped ``scenarios/<name>.json`` files (``save_scenario`` of
each of ``builtin_scenarios()``), prints which scenario files changed,
and prints, per golden file, how far the answers moved (see
``move_summary``); for the oracle set also the worst parameter move in
radians, which tells ulp moves from lattice-point flips; for the overlap
set also the worst witness-param move in radians, the worst move of
any normal component and the count of each report kind; for the random set also the cold solves' iteration
mean, max and bare-eps_d stops, and the warm re-solves' iteration mean
and max, old -> new; for the dual set the distance is the bracket's
upper end.
A change meant to keep every answer must leave these files matching; a
change that moves answers regenerates them and lists what moved.
"""

import contextlib
import io
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import random_overlap_pair, random_separated_pair
from surfslide.cli import main
from surfslide.contact import analyze
from surfslide.oracle import dual_distance, oracle_min_distance
from surfslide.scenarios import builtin_scenarios, save_scenario
from surfslide.slider import SolverConfig, solve

GOLDEN = Path(__file__).parent / "golden"
SHIPPED = Path(__file__).resolve().parent.parent / "scenarios"
RANDOM_SET = GOLDEN / "random-2024.txt"
OVERLAP_SET = GOLDEN / "overlap-2024.txt"
ORACLE_SET = GOLDEN / "oracle-2024.txt"
DUAL_SET = GOLDEN / "dual-2024.txt"
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
    kind, and its depth, witness params and witness normals as
    ``float.hex``, or the name of the exception it raised."""
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
        n1, n2 = rep.witness_normals
        values = (rep.distance_or_depth, p1.theta, p1.phi, p2.theta, p2.phi, *n1, *n2)
        lines.append(" ".join([head, rep.kind, *(v.hex() for v in values)]))
    return lines


def test_overlap_set_matches_golden():
    got = overlap_set_fingerprint()
    want = OVERLAP_SET.read_text().splitlines()
    for g, w in zip(got, want):
        assert g == w, f"overlap-2024.txt differs:\n  got  {g}\n  want {w}"
    assert len(got) == len(want), f"{len(got)} reports, golden {len(want)}"


def _oracle_calls():
    """(pair, order, e1, e2) for the oracle sets: the seven builtins and 30
    random separated pairs of seed 2024 (named by scenario or case number),
    each in both argument orders."""
    rng = np.random.default_rng(2024)
    pairs = [(sc.name, sc.e1, sc.e2) for sc in builtin_scenarios()]
    pairs += [(f"{case:03d}", *random_separated_pair(rng)) for case in range(30)]
    for name, e1, e2 in pairs:
        yield name, "12", e1, e2
        yield name, "21", e2, e1


def oracle_set_fingerprint() -> list[str]:
    """One line per ``oracle_min_distance`` call: the pair (scenario name
    or case number), the argument order, then the distance and both params
    as ``float.hex``, or the name of the exception it raised."""
    lines = []
    for name, order, a, b in _oracle_calls():
        head = f"{name} {order}"
        try:
            dist, (p1, p2) = oracle_min_distance(a, b)
        except Exception as exc:
            lines.append(f"{head} {type(exc).__name__}")
            continue
        values = (dist, p1.theta, p1.phi, p2.theta, p2.phi)
        lines.append(" ".join([head, *(v.hex() for v in values)]))
    return lines


def test_oracle_set_matches_golden():
    got = oracle_set_fingerprint()
    want = ORACLE_SET.read_text().splitlines()
    for g, w in zip(got, want):
        assert g == w, f"oracle-2024.txt differs:\n  got  {g}\n  want {w}"
    assert len(got) == len(want), f"{len(got)} calls, golden {len(want)}"


def dual_set_fingerprint() -> list[str]:
    """One line per ``dual_distance`` call on the oracle set's pairs: the
    pair, the argument order, then lower, upper, x1, x2 and u at 17
    significant digits, or None."""
    lines = []
    for name, order, a, b in _oracle_calls():
        res = dual_distance(a, b)
        if res is None:
            lines.append(f"{name} {order} None")
            continue
        lower, upper, x1, x2, u = res
        values = (lower, upper, *x1, *x2, *u)
        lines.append(" ".join([name, order, *(f"{v:.17g}" for v in values)]))
    return lines


def test_dual_set_matches_golden():
    got = dual_set_fingerprint()
    want = DUAL_SET.read_text().splitlines()
    for g, w in zip(got, want):
        assert g == w, f"dual-2024.txt differs:\n  got  {g}\n  want {w}"
    assert len(got) == len(want), f"{len(got)} calls, golden {len(want)}"


def _answers(name: str, lines: list[str]) -> dict:
    """Per line of a golden file: key -> (line, status or kind, iterations,
    distance). A trace CSV row has no status, and its file's iteration
    count is its row count."""
    out = {}
    for line in lines:
        if name.endswith(".csv"):
            f = line.split(",")
            if f[0] != "k":
                out[f[0]] = (line, None, None, float(f[5]))
        elif name == RANDOM_SET.name:
            f = line.split()
            out[tuple(f[:3])] = (line, f[3], int(f[4]), float.fromhex(f[6]))
        elif name == ORACLE_SET.name:
            f = line.split()
            error = f[2] if len(f) == 3 else None
            out[tuple(f[:2])] = (line, error, None, None if error else float.fromhex(f[2]))
        elif name == DUAL_SET.name:
            f = line.split()
            none = f[2] if len(f) == 3 else None
            out[tuple(f[:2])] = (line, none, None, None if none else float(f[3]))
        else:
            f = line.split()
            out[f[0]] = (line, f[2], None, float.fromhex(f[3]) if len(f) > 3 else None)
    return out


def move_summary(name: str, old: list[str], new: list[str]) -> str:
    """One line: how many lines moved, how many statuses (or kinds) and
    iteration counts changed, and the worst relative distance move over
    the lines both versions have."""
    a, b = _answers(name, old), _answers(name, new)
    moved = sum(a.get(k, (None,))[0] != b.get(k, (None,))[0] for k in a.keys() | b.keys())
    both = [(a[k], b[k]) for k in a.keys() & b.keys()]
    labels = sum(x[1] != y[1] for x, y in both)
    if name.endswith(".csv"):
        iterations = f"rows {len(old)} -> {len(new)}"
    else:
        iterations = f"{sum(x[2] != y[2] for x, y in both)} iteration changes"
    worst = max(
        (abs(y[3] - x[3]) / abs(x[3]) for x, y in both
         if x[3] is not None and y[3] is not None and x[3] != 0.0),
        default=0.0,
    )
    summary = (
        f"{name}: {moved} of {len(b)} lines moved, {labels} status/kind changes, "
        f"{iterations}, worst relative distance move {worst:.2g}"
    )
    if name == ORACLE_SET.name:
        summary += f", worst parameter move {_worst_move(old, new, range(3, 7), True):.2g} rad"
    if name == OVERLAP_SET.name:
        kinds = [Counter(x[1] for x in answers.values()) for answers in (a, b)]
        counts = ", ".join(f"{kind} {kinds[0][kind]} -> {kinds[1][kind]}"
                           for kind in sorted(kinds[0].keys() | kinds[1].keys()))
        summary += (
            f", worst witness-param move {_worst_move(old, new, range(4, 8), True):.2g} rad"
            f", worst normal-component move {_worst_move(old, new, range(8, 14)):.2g}"
            f"; kinds: {counts}"
        )
    if name == RANDOM_SET.name:
        (m0, x0, b0), (m1, x1, b1) = _solve_stats(old, "cold"), _solve_stats(new, "cold")
        (wm0, wx0, _), (wm1, wx1, _) = _solve_stats(old, "warm"), _solve_stats(new, "warm")
        summary += (
            f"; default-mode cold solves: mean iterations {m0:.1f} -> {m1:.1f}, "
            f"max {x0} -> {x1}, bare eps_d stops {b0} -> {b1}"
            f"; default-mode warm re-solves: mean iterations {wm0:.2f} -> {wm1:.2f}, "
            f"max {wx0} -> {wx1}"
        )
    return summary


def _worst_move(old: list[str], new: list[str], columns: range, angles: bool = False) -> float:
    """The largest move of any value in the fields ``columns``, over the
    lines both versions answered (keyed by their first two fields). With
    ``angles`` the fields are (theta, phi) pairs in radians, and theta
    moves across 0 = 2 pi count the short way."""
    def values(lines):
        return {tuple(f[:2]): [float.fromhex(f[i]) for i in columns]
                for f in map(str.split, lines) if len(f) > columns[-1]}

    a, b = values(old), values(new)
    worst = 0.0
    for key in a.keys() & b.keys():
        for i, (x, y) in enumerate(zip(a[key], b[key])):
            move = abs(y - x)
            if angles and i % 2 == 0:  # theta
                move = min(move, 2.0 * math.pi - move)
            worst = max(worst, move)
    return worst


def _solve_stats(lines: list[str], start: str) -> tuple[float, int, int]:
    """Mean and max iterations, and the number of stops on eps_d alone,
    over the random set's ``start`` ("cold" or "warm") solves in the
    default overshoot mode."""
    mode = SolverConfig().overshoot_mode
    runs = [f for f in map(str.split, lines) if f[0] == mode and f[2] == start]
    if not runs:
        return math.nan, 0, 0
    iterations = [int(f[4]) for f in runs]
    bare = sum(f[5] == "eps_d" for f in runs)
    return sum(iterations) / len(iterations), max(iterations), bare


def _rewrite(path: Path, lines: list[str]) -> None:
    old = path.read_text().splitlines() if path.exists() else []
    path.write_text("\n".join(lines) + "\n")
    print(move_summary(path.name, old, lines))


def _rewrite_scenario_files() -> None:
    """Write each builtin to ``scenarios/<name>.json`` and print which files
    changed."""
    changed = []
    for sc in builtin_scenarios():
        path = SHIPPED / f"{sc.name}.json"
        old = path.read_bytes() if path.exists() else None
        save_scenario(sc, path)
        if path.read_bytes() != old:
            changed.append(path.name)
    print(f"scenarios/: {len(changed)} files changed {changed}")


if __name__ == "__main__":
    _rewrite_scenario_files()
    for sc in builtin_scenarios():
        path = GOLDEN / f"{sc.name}.csv"
        old = path.read_text().splitlines()
        with contextlib.redirect_stdout(io.StringIO()):
            main(["solve", sc.name, "--trace", str(path)])
        print(move_summary(path.name, old, path.read_text().splitlines()))
    _rewrite(RANDOM_SET, random_set_fingerprint())
    _rewrite(OVERLAP_SET, overlap_set_fingerprint())
    _rewrite(ORACLE_SET, oracle_set_fingerprint())
    _rewrite(DUAL_SET, dual_set_fingerprint())
