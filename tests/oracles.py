"""Independent evaluators used to pin expected values.

These reimplement the closed forms directly in mpmath at 50 digits (the
Poisson mass at 400), the Rayleigh fading average of the secrecy (and
the Rician and Nakagami ones as 20-digit quadratures), the
highway nearest-neighbour search as a brute-force scan and its stepping
as a per-step loop, the result
tables and their cells one row and one cell at a time, and the identity
hash chain as uncached walks on hashlib, on purpose sharing no code with
the package, so tests compare two routes to every number.  Three
exceptions: the negotiation's knob cycle drives the package's own link
object, since there the knob order and each knob's can-act test are what
is checked, not the link model; the config schema check runs
jsonschema's Draft 2020-12 engine with the package's number rules and
decibel message, since there the keyword semantics are what is checked;
and the out-of-place references of the Monte Carlo kernels (the fading
draws, the ergodic estimate, the field positions and log2(1 + SNR) of an
array) repeat the package's numpy operations, one fresh array per step,
since there the bits of the in-place kernels are what is checked.
"""

import csv
import hashlib
import io
import math
import re
from numbers import Real

import jsonschema
import mpmath as mp
import numpy as np

from vscsim import units

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


def _gain_density(kind: str, shape):
    """Density of a unit-mean squared gain: Rician with K-factor shape, or Nakagami with m = shape."""
    s = mp.mpf(shape)
    if kind == "rician":
        return lambda x: (s + 1) * mp.exp(-s - (s + 1) * x) * mp.besseli(0, 2 * mp.sqrt(s * (s + 1) * x))
    return lambda x: s**s * x ** (s - 1) * mp.exp(-s * x) / mp.gamma(s)


def ergodic_secrecy_exp_wiretap(kind: str, shape, power, sigma_b_sq, sigma_e_sq, on_off: bool) -> float:
    """Fading average of the pair secrecy in bits, the legitimate gain h_B Rician or Nakagami
    (_gain_density) and the wiretap gain h_E ~ Exp(1), as one integral over h_B.  Always on,
    E[ln(1 + g_B h_B)] - _mean_log_rayleigh(g_E).  On/off, the link is used where
    h_E < u = h_B sigma_E^2 / sigma_B^2, so the mean is E[ln(1 + g_B h_B) (1 - e^-u) - G(u)]
    with G(u) = E[ln(1 + g_E h_E); h_E < u] = e^(1/g_E) (E1(1/g_E) - E1(u + 1/g_E)) - e^-u ln(1 + g_E u).
    At 20 digits, which keeps the quadrature to a fraction of a second."""
    with mp.workdps(20):
        g_b, g_e = mp.mpf(power) / sigma_b_sq, mp.mpf(power) / sigma_e_sq
        ratio = mp.mpf(sigma_e_sq) / sigma_b_sq
        density = _gain_density(kind, shape)

        def term(x):
            if not on_off:
                return mp.log1p(g_b * x)
            u = ratio * x
            wiretap = mp.exp(1 / g_e) * (mp.e1(1 / g_e) - mp.e1(u + 1 / g_e)) - mp.exp(-u) * mp.log1p(g_e * u)
            return mp.log1p(g_b * x) * -mp.expm1(-u) - wiretap

        value = mp.quad(lambda x: density(x) * term(x), [0, 1, 4, mp.inf])
        if not on_off:
            value -= _mean_log_rayleigh(g_e)
        return float(value / mp.log(2))


def log2_capacity(snr):
    """np.log2(1.0 + snr) out of place: the reference for channel.capacity_bits of an array."""
    return np.log2(1.0 + snr)


def fading_gains(model, rng, n: int) -> np.ndarray:
    """n unit-mean squared fading gains of a FadingModel from rng, one fresh array per
    step: the reference for channel.sample_fading."""
    if model.kind == "path_loss_only":
        return np.ones(n)
    if model.kind == "rayleigh":
        return rng.exponential(1.0, n)
    if model.kind == "rician":
        los = math.sqrt(model.k / (model.k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (model.k + 1.0)))
        re = los + sigma * rng.standard_normal(n)
        im = sigma * rng.standard_normal(n)
        return re * re + im * im
    return rng.gamma(shape=model.m, scale=1.0 / model.m, size=n)


def ergodic_secrecy_mc(power, sigma_b_sq, sigma_e_sq, n: int, seed: int, legit, wiretap, restrict: bool) -> tuple:
    """(value, stderr, sample_count, in_set_count, empty_set) of the on/off Monte Carlo
    estimate, one fresh array per step: the reference for stochastic.ergodic_secrecy_mc.
    legit and wiretap are the FadingModels of the two links."""
    rng = np.random.default_rng(seed)
    h_ab = fading_gains(legit, rng, n)
    h_ae = fading_gains(wiretap, rng, n)
    g_b = power * h_ab / sigma_b_sq
    g_e = power * h_ae / sigma_e_sq
    terms = log2_capacity(g_b) - log2_capacity(g_e)
    in_set = h_ab / sigma_b_sq > h_ae / sigma_e_sq
    in_set_count = int(np.count_nonzero(in_set))
    if restrict:
        if in_set_count == 0:
            return 0.0, 0.0, n, 0, True
        terms = np.where(in_set, terms, 0.0)
    value = float(np.mean(terms))
    stderr = float(np.std(terms, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return value, stderr, n, in_set_count, False


def field_xy(expected: float, x_min, y_min, x_max, y_max, seed: int) -> np.ndarray:
    """Positions of a field with the given mean count, x and y drawn apart and stacked:
    the reference for stochastic.sample_field."""
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(expected))
    xs = rng.uniform(x_min, x_max, n)
    ys = rng.uniform(y_min, y_max, n)
    return np.stack((xs, ys), axis=1)


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


def highway_xs(world) -> np.ndarray:
    """x of every vehicle before each step of a highway run, (n_steps,
    n_nodes), stepped one step at a time: the world's draws in the
    engine's order (lanes, start positions, then one speed draw per
    redraw period), and x = (x + speed * dt_s) % length_m per step."""
    rng = np.random.default_rng(world.seed)
    n = world.n_nodes
    rng.integers(0, world.lanes, n)
    xs = rng.uniform(0.0, world.length_m, n)
    redraw_every = max(1, round(world.speed_redraw_period_s / world.dt_s))
    n_steps = int(round(world.duration_s / world.dt_s))
    out = np.empty((n_steps, n))
    for k in range(n_steps):
        if k % redraw_every == 0:
            speeds = (1.0 / 3.6) * rng.uniform(0.0, world.max_speed_kmh, n)
        out[k] = xs
        xs = (xs + speeds * world.dt_s) % world.length_m
    return out


def csv_cell(value) -> str:
    """A CSV cell as the table schema writes it, one cell at a time:
    str() of an int, repr() of a float, str() of anything else."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError("boolean cells are not part of any table schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_text(rows) -> str:
    r"""Rows of text cells as csv.writer writes them with "\n" line ends, but
    with a lone "\r" quoted like a "\n": csv.writer quotes both when "\r\n"
    is the terminator, and each row's "\r\n" is then cut to "\n"."""
    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


def plot_cell(value) -> str:
    """A gnuplot data cell: ints as str(), floats to nine significant digits."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.9g" % float(value)
    return str(value)


def plot_word(text: str, first_column: bool) -> bool:
    """Whether a column name or text cell reads back from a gnuplot data
    file as itself: one or more non-space characters, and in the first
    column no leading "#", which would start a comment line."""
    return re.fullmatch(r"\S+", text) is not None and not (first_column and text.startswith("#"))


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


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _refusal(check, *args, **kwargs) -> str | None:
    """The message of the ValueError a model check raises, else None."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


# Stock Draft 2020-12 types, where every int is a number.
_PLAIN = jsonschema.Draft202012Validator({})


def _ints_too(keyword):
    """jsonschema's numeric keyword, applied also to an int the redefined number type refuses
    where the node's type is integer."""
    check = jsonschema.Draft202012Validator.VALIDATORS[keyword]
    return lambda validator, bound, instance, schema: check(
        _PLAIN if schema.get("type") == "integer" and validator.is_type(instance, "integer") else validator,
        bound, instance, schema,
    )


# JSON Schema counts 0.0 as an integer; the models need a Python int.
# json.load also accepts NaN, +-Infinity and ints of any size; a real
# field takes only values that are finite as a float, but a bound of
# an integer field applies to an int of any size.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    validators={keyword: _ints_too(keyword) for keyword in ("minimum", "exclusiveMinimum", "maximum")},
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {
            "integer": lambda _, value: isinstance(value, int) and not isinstance(value, bool),
            "number": lambda _, value: _is_number(value) and units.is_finite(value),
            "decibel": lambda _, value: _is_number(value) and _refusal(units.db_to_linear, value) is None,
        }
    ),
)


def schema_errors(instance, schema, prefix: str, bad_keys: set | None = None) -> list[str]:
    """config._schema_errors through jsonschema: messages for every schema
    violation, sorted by path; the top-level keys they sit under are added
    to bad_keys when given."""
    validator = _Validator(schema)
    out = []
    for err in sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path)):
        path = prefix + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        message = err.message
        if err.validator == "type" and _is_number(err.instance) and not units.is_finite(err.instance):
            message = "must be a finite number"
        elif err.validator == "type" and err.validator_value == "decibel" and _is_number(err.instance):
            message = _refusal(units.db_to_linear, err.instance)
        out.append(f"{path}: {message}")
        if bad_keys is not None and err.absolute_path:
            bad_keys.add(err.absolute_path[0])
    return out
