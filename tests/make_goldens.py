"""Regenerate the pinned golden CSVs from independent evaluators.

Run from the repository root:

    python3 tests/make_goldens.py

The generators share no code with the package: sweep values come from the
50-digit mpmath forms in oracles.py rounded to float64, the intersection
time series from a direct pure-python recomputation of the case geometry,
and the highway fleet runs from a pure-python replay of the seeded draws
with a linear nearest-neighbour search and mpmath pair secrecy.  Numeric
cells use repr() so comparisons are exact.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _write(name: str, columns: list[str], rows: list[tuple]) -> None:
    path = GOLDEN_DIR / name
    lines = [f"# oracle golden {name}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(rows)} rows)")


def fig4_rows() -> list[tuple]:
    rows = []
    for v in range(10, 130, 10):
        rows.append(
            (
                float(v),
                oracles.highway_secrecy(v, 0.2, 1000.0, 1.4, 70.0),
                oracles.highway_secrecy(v, 0.2, 1000.0, 2.0, 70.0),
                oracles.highway_secrecy(v, 0.2, 1000.0, 4.0, 70.0),
            )
        )
    return rows


def fig5_rows() -> list[tuple]:
    return [
        (float(v), oracles.highway_secrecy(v, 0.2, 1000.0, 3.5, 70.0))
        for v in (80, 100, 120)
    ]


def table1_case1_rows() -> list[tuple]:
    # host west to east through the junction, target south to north,
    # both at 35 km/h with the target clamped at its final waypoint
    v = 35.0 / 3.6
    dt = 0.1
    host_x0, host_x1 = -60.0, 40.0
    tgt_y0, tgt_y1 = -20.0, 20.0
    c = 10.0 ** (70.0 / 10.0)
    alpha = 1.4
    duration = (host_x1 - host_x0) / v
    n_steps = int(math.floor(duration / dt + 1e-9))
    rows = []
    for k in range(n_steps + 1):
        t = k * dt
        hx = min(host_x0 + v * t, host_x1)
        ty = min(tgt_y0 + v * t, tgt_y1)
        d = math.hypot(hx - 0.0, 0.0 - ty)
        cap = math.log2(1.0 + c * d ** (-2.0 * alpha))
        rows.append((t, d, cap))
    return rows


# The highway-cluster and perturbation presets: 25 vehicles on 6 lanes of
# 10 m over a 2500 m ring road, 2 sources, 100 s at 0.1 s steps, speeds
# redrawn uniform in [0, 120] km/h every second, P/N0 = 70 dB,
# alpha = 1.4, eavesdropper at 1000 m, radio range 2500 m, seed 0.
N_NODES, N_SOURCES, LANES, LANE_WIDTH, ROAD = 25, 2, 6, 10.0, 2500.0
N_STEPS, DT, REDRAW_EVERY, MAX_KMH = 1000, 0.1, 10, 120.0
HW_C, HW_ALPHA, R_EVE, OBU_RANGE = oracles.db_to_linear(70.0), 1.4, 1000.0, 2500.0


def _highway_states(seed: int):
    """Yield (t, xs, ys) at every step, before the vehicles advance.

    The draws replay the simulation's order on one seeded generator: lane
    indices, start positions, then a speed vector every redraw period.
    """
    rng = np.random.default_rng(seed)
    ys = [(int(lane) + 0.5) * LANE_WIDTH for lane in rng.integers(0, LANES, N_NODES)]
    xs = [float(x) for x in rng.uniform(0.0, ROAD, N_NODES)]
    speeds = []
    for k in range(N_STEPS):
        if k % REDRAW_EVERY == 0:
            speeds = [(1.0 / 3.6) * float(u) for u in rng.uniform(0.0, MAX_KMH, N_NODES)]
        yield k * DT, xs, ys
        xs = [(x + v * DT) % ROAD for x, v in zip(xs, speeds)]


def _nearest(xs, ys, src: int) -> tuple[int, float]:
    """Closest other vehicle within radio range; ties go to the lower index."""
    best = None
    for j, (x, y) in enumerate(zip(xs, ys)):
        d = math.hypot(x - xs[src], y - ys[src])
        if j != src and d <= OBU_RANGE and (best is None or d < best[1]):
            best = (j, d)
    return best


def _secrecy(d: float) -> float:
    return oracles.pair_secrecy(HW_C, HW_ALPHA, d, R_EVE)


def highway_cluster_rows(seed: int = 0) -> list[tuple]:
    rows = []
    for t, xs, ys in _highway_states(seed):
        for s in range(N_SOURCES):
            j, d = _nearest(xs, ys, s)
            rows.append((t, f"n{s:02d}", f"n{j:02d}", d, _secrecy(d)))
    return rows


def perturbation_rows(seed: int = 0, delta: float = 5.0) -> list[tuple]:
    rows = []
    for t, xs, ys in _highway_states(seed):
        for s in range(N_SOURCES):
            j, d = _nearest(xs, ys, s)
            shifted = list(xs)
            shifted[s] = xs[s] + delta
            jp, dp = _nearest(shifted, ys, s)
            rows.append(
                (t, f"n{s:02d}", f"n{j:02d}", f"n{jp:02d}", d, dp, _secrecy(d), _secrecy(dp), xs[j] - xs[s])
            )
    return rows


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    _write(
        "fig4_expected.csv",
        ["v_kmh", "cs_alpha_1.4", "cs_alpha_2", "cs_alpha_4"],
        fig4_rows(),
    )
    _write("fig5_expected.csv", ["v_kmh", "cs"], fig5_rows())
    _write(
        "table1_case1_expected.csv",
        ["t_s", "distance_m", "capacity"],
        table1_case1_rows(),
    )
    _write(
        "highway_cluster_expected.csv",
        ["t_s", "source_id", "target_id", "distance_m", "secrecy"],
        highway_cluster_rows(),
    )
    _write(
        "perturbation_expected.csv",
        [
            "t_s",
            "source_id",
            "target_base",
            "target_pert",
            "distance_base_m",
            "distance_pert_m",
            "secrecy_base",
            "secrecy_pert",
            "dx_base_m",
        ],
        perturbation_rows(),
    )


if __name__ == "__main__":
    main()
