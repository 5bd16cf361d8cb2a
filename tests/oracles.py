"""Independent evaluators used to pin expected values.

These reimplement the closed forms directly in mpmath at 50 digits (the
Poisson mass at 400), the Rayleigh fading average of the secrecy, the
highway nearest-neighbour search as a brute-force scan, the result
tables and their cells one row and one cell at a time, and the identity
hash chain as uncached walks on hashlib, on purpose sharing no code with
the package, so tests compare two routes to every number.  The one
exception is the negotiation's knob cycle, which drives the package's
own link object: there the knob order and each knob's can-act test are
what is checked, not the link model.
"""

import hashlib

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def _log2(x):
    return mp.log(x, 2)


def db_to_linear(value_db) -> mp.mpf:
    return mp.mpf(10) ** (mp.mpf(value_db) / 10)


def kmh_to_ms(v_kmh) -> mp.mpf:
    return mp.mpf(v_kmh) / mp.mpf("3.6")


def pair_secrecy(c, alpha, d_leg, d_eve) -> float:
    c = mp.mpf(c)
    a2 = 2 * mp.mpf(alpha)
    value = _log2(1 + c / mp.mpf(d_leg) ** a2) - _log2(1 + c / mp.mpf(d_eve) ** a2)
    return float(value)


def highway_secrecy(v_kmh, tau, r, alpha, pn0_db) -> float:
    d = kmh_to_ms(v_kmh) * mp.mpf(tau)
    return pair_secrecy(db_to_linear(pn0_db), alpha, d, r)


def urban_fixed_secrecy(w, vl_kmh, t, r0, alpha, pn0_db) -> float:
    w = mp.mpf(w)
    x = kmh_to_ms(vl_kmh) * mp.mpf(t)
    r1 = mp.sqrt(5 * w**2 + 2 * w * x + 2 * x**2)
    r2 = mp.mpf(r0) + 2 * w - x
    return pair_secrecy(db_to_linear(pn0_db), alpha, r1, r2)


def urban_moving_secrecy(w, vl_kmh, t, r0, alpha, pn0_db) -> float:
    w = mp.mpf(w)
    x = kmh_to_ms(vl_kmh) * mp.mpf(t)
    r1 = mp.sqrt(5 * w**2 + 2 * w * x + 2 * x**2)
    r2 = mp.sqrt((w - x) ** 2 + (mp.mpf(r0) - x) ** 2)
    return pair_secrecy(db_to_linear(pn0_db), alpha, r1, r2)


def relay_secrecy(p_a, p_r, h_ab, h_rb, h_ae, h_re, sb=1, se=1, w=1) -> float:
    sinr_b = mp.mpf(p_a) * mp.mpf(h_ab) / (mp.mpf(p_r) * mp.mpf(h_rb) + mp.mpf(sb))
    sinr_e = mp.mpf(p_a) * mp.mpf(h_ae) / (mp.mpf(p_r) * mp.mpf(h_re) + mp.mpf(se))
    return float(mp.mpf(w) * (_log2(1 + sinr_b) - _log2(1 + sinr_e)))


def poisson_pmf(n, lam) -> float:
    """At 400 digits, which n log(lam) - lam - log(n!) needs for n and lam up to 1e306."""
    with mp.workdps(400):
        lam = mp.mpf(lam)
        if lam == 0:
            return 1.0 if n == 0 else 0.0
        return float(mp.exp(n * mp.log(lam) - lam - mp.loggamma(n + 1)))


def _mean_log_rayleigh(g):
    """E[ln(1 + g X)] for X ~ Exp(1): e^(1/g) E1(1/g)."""
    return mp.exp(1 / g) * mp.e1(1 / g)


def ergodic_secrecy_rayleigh(power, sigma_b_sq, sigma_e_sq, on_off: bool) -> float:
    """Fading average of the pair secrecy in bits, both links Rayleigh, in
    closed form: always on, f(g_B) - f(g_E) for f = _mean_log_rayleigh; on/off,
    f(g_B) - f(g_BE) with 1/g_BE = 1/g_B + 1/g_E."""
    g_b, g_e = mp.mpf(power) / sigma_b_sq, mp.mpf(power) / sigma_e_sq
    other = 1 / (1 / g_b + 1 / g_e) if on_off else g_e
    return float((_mean_log_rayleigh(g_b) - _mean_log_rayleigh(other)) / mp.log(2))


def nearest_neighbour(xs, ys, src: int, x_src: float, obu_range: float) -> tuple[int, float]:
    """Brute-force nearest other node within obu_range of source src
    evaluated at x_src: np.hypot over every node, ties to the lowest index
    (np.argmin).  Raises ValueError when no node is in range."""
    d = np.hypot(np.asarray(xs) - x_src, np.asarray(ys) - ys[src])
    d[src] = np.inf
    d[d > obu_range] = np.inf
    j = int(np.argmin(d))
    if not np.isfinite(d[j]):
        raise ValueError("no node within radio range of the source")
    return j, float(d[j])


def csv_cell(value) -> str:
    """A CSV cell as the table schema writes it, one cell at a time:
    str() of an int, repr() of a float, str() of anything else."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean cells are not part of any table schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def plot_cell(value) -> str:
    """A gnuplot data cell: ints as str(), floats to nine significant digits."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.9g" % float(value)
    return str(value)


def highway_rows(res) -> list[tuple]:
    """(t, source_id, target_id, distance, secrecy) per step and source,
    built one row tuple at a time."""
    return [
        (
            float(t),
            res.node_ids[s],
            res.node_ids[int(res.target_idx[k, s])],
            float(res.distances[k, s]),
            float(res.secrecy[k, s]),
        )
        for k, t in enumerate(res.times)
        for s in range(res.world.n_sources)
    ]


def perturbation_rows(res) -> list[tuple]:
    """The perturbation study's nine-column rows, one row tuple at a time."""
    return [
        (
            float(t),
            res.node_ids[s],
            res.node_ids[int(res.target_idx_base[k, s])],
            res.node_ids[int(res.target_idx_pert[k, s])],
            float(res.distances_base[k, s]),
            float(res.distances_pert[k, s]),
            float(res.secrecy_base[k, s]),
            float(res.secrecy_pert[k, s]),
            float(res.dx_base[k, s]),
        )
        for k, t in enumerate(res.times)
        for s in range(res.world.n_sources)
    ]


def _sha256_walk(data: bytes, times: int) -> bytes:
    for _ in range(times):
        data = hashlib.sha256(data).digest()
    return data


def identity_exchange(vehicle_id: str, vin: str, chain_length: int, position: int) -> dict:
    """The identity wire document from two separate walks over the VIN:
    one to the anchor, one to the element at position."""
    start = vin.encode("ascii")
    return {
        "vehicle_id": vehicle_id,
        "anchor_hex": _sha256_walk(start, chain_length).hex(),
        "chain_length": chain_length,
        "position": position,
        "preimage_hex": _sha256_walk(start, position).hex(),
    }


def exchange_verdict(doc: dict) -> bool:
    """Whether a well-typed wire document's element hashes forward,
    chain_length - position times, onto its anchor."""
    preimage = bytes.fromhex(doc["preimage_hex"])
    walked = _sha256_walk(preimage, doc["chain_length"] - doc["position"])
    return walked == bytes.fromhex(doc["anchor_hex"])


def identity_verdict(vin: str, chain_anchor: bytes, chain_length: int) -> bool:
    """The registry check, recomputed from the VIN on every call: 17
    ASCII letters or digits, hashed chain_length times onto the anchor."""
    if len(vin) != 17 or not (vin.isascii() and vin.isalnum()):
        return False
    return _sha256_walk(vin.encode("ascii"), chain_length) == chain_anchor


def knob_cycle_negotiation(rsc: float, knobs, link) -> tuple[bool, int, float]:
    """rsc_negotiate's loop as three string-named branches, each knob
    behind its own can-act test on the link's fields (speed stays above
    0; a relay exists, is off and is allowed), calling the link's knob
    method only when that test passes.  Returns (connected, iterations,
    final_vsc); a knob's ValueError propagates."""
    cycle = ("speed", "power", "relay")
    pointer = 0
    vsc = float("-inf")
    for iteration in range(1, knobs.max_iterations + 1):
        vsc = link.evaluate()
        if vsc >= rsc:
            return True, iteration, vsc
        if iteration == knobs.max_iterations:
            break
        for _ in range(len(cycle)):
            knob = cycle[pointer]
            pointer = (pointer + 1) % len(cycle)
            if knob == "speed" and link.scenario.v - knobs.speed_step > 0.0:
                link.decrease_speed(knobs.speed_step)
                break
            if knob == "power":
                link.increase_power(knobs.power_step_db)
                break
            if knob == "relay" and knobs.relay_available and link._relay is not None and not link.relay_enabled:
                link.enable_relay()
                break
    return False, knobs.max_iterations, vsc
