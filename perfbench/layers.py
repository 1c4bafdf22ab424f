"""Isolation loops: time per call of each layer's public functions, after a
warm-up, on inputs drawn from the running workload's pairs.

Each loop cycles through its inputs for several short blocks and reports
the median block's time per call, each block scaled to reference speed by
the reference loop timed right before it. Inputs on which a call raises are left
out while the inputs are prepared, so every timed call does full work.
"""

from __future__ import annotations

import os
import statistics
import time

BLOCKS = 5
BLOCK_SECONDS = 0.03
MAX_PAIRS = 12


def _per_call_ns(fn, inputs, speed_scale, blocks=BLOCKS, block_seconds=BLOCK_SECONDS):
    for args in inputs:  # warm-up
        fn(*args)
    t0 = time.perf_counter_ns()
    for args in inputs:
        fn(*args)
    once = max(time.perf_counter_ns() - t0, 1)
    reps = max(1, int(block_seconds * 1e9 / once))
    per_call = []
    for _ in range(blocks):
        scale = speed_scale(3)
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            for args in inputs:
                fn(*args)
        per_call.append(scale * (time.perf_counter_ns() - t0) / (reps * len(inputs)))
    return statistics.median(per_call)


def _valid(fn, candidates, limit):
    """The first ``limit`` candidates on which ``fn`` returns normally."""
    kept = []
    for args in candidates:
        try:
            fn(*args)
        except (ValueError, RuntimeError):
            continue
        kept.append(args)
        if len(kept) == limit:
            break
    return kept


def measure(mods, pairs, separated, workdir, speed_scale):
    """Time per call for every per-layer isolation metric.

    ``pairs`` are the workload's own pairs; ``separated`` are seeded
    separated pairs that fill in where the workload has too few valid
    inputs (the oracle needs separated pairs, the center-line start needs
    centers outside the other body).
    """
    geometry, slider, contact, oracle, scenarios = (
        mods.geometry, mods.slider, mods.contact, mods.oracle, mods.scenarios
    )
    cfg = slider.SolverConfig()
    candidates = list(pairs[: MAX_PAIRS * 4]) + list(separated)
    starts = _valid(lambda e1, e2: slider.initial_state(e1, e2, None, cfg), candidates, MAX_PAIRS)
    states, finals = [], []
    for e1, e2 in starts:
        s0 = slider.initial_state(e1, e2, None, cfg)
        states.append((e1, e2, s0, slider.iterate_once(s0, cfg, (e1, e2))))
        finals.append((e1, e2, slider.solve(e1, e2)))

    frame_in = [(e1, res.params[0]) for e1, _, res in finals]
    implicit_in = [(e2, tuple(res.closest_points[0])) for _, e2, res in finals]
    entry_in = [(e1, e1.center, e2.center) for e1, e2 in starts]
    canonical_in = [(p.theta + 0.01, p.phi + 0.02) for *_, res in finals for p in res.params]
    iterate_in = [(s0, cfg, (e1, e2)) for e1, e2, s0, _ in states]
    metrics_in = [(s1, s0) for _, _, s0, s1 in states]
    schedule_in = [(s1, cfg) for *_, s1 in states]
    initial_in = [(e1, e2, None, cfg) for e1, e2 in starts]
    classify_in = [
        (slider.initial_state(e1, e2, res.params, cfg), e1, e2, cfg.resolve_sigma(e1, e2))
        for e1, e2, res in finals
    ]
    foot_in = _valid(
        oracle.point_to_ellipsoid,
        [(e2, tuple(res.closest_points[0])) for _, e2, res in finals],
        MAX_PAIRS,
    )
    oracle_in = _valid(oracle.oracle_min_distance, candidates, 2)
    load_in = []
    for j, (e1, e2) in enumerate(starts[:4]):
        path = os.path.join(workdir, f"layer-{j}.json")
        scenarios.save_scenario(scenarios.Scenario(name=f"layer-{j}", e1=e1, e2=e2), path)
        load_in.append((path,))

    def timed(fn, inputs, **kw):
        return _per_call_ns(fn, inputs, speed_scale, **kw)

    return {
        "geometry.surface_frame_ns": timed(geometry.surface_frame, frame_in),
        "geometry.implicit_value_ns": timed(geometry.implicit_value, implicit_in),
        "geometry.line_surface_entry_ns": timed(geometry.line_surface_entry, entry_in),
        "geometry.canonical_ns": timed(geometry.SurfaceParam.canonical, canonical_in),
        "slider.iterate_once_ns": timed(slider.iterate_once, iterate_in),
        "slider.convergence_metrics_ns": timed(slider.convergence_metrics, metrics_in),
        "slider.apply_overshoot_schedule_ns": timed(slider.apply_overshoot_schedule, schedule_in),
        "slider.initial_state_ns": timed(slider.initial_state, initial_in),
        "contact.classify_ns": timed(contact.classify, classify_in),
        "oracle.point_to_ellipsoid_us": timed(oracle.point_to_ellipsoid, foot_in) / 1e3,
        # about 0.1 s a call: three single calls
        "oracle.min_distance_ms": timed(
            oracle.oracle_min_distance, oracle_in, blocks=3, block_seconds=0.0
        ) / 1e6,
        "scenarios.load_scenario_us": timed(scenarios.load_scenario, load_in) / 1e3,
    }
