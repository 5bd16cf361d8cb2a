"""Security-cluster protocol: pick the best-protected target, negotiate a
link up to the reference threshold, admit members by hash-chain identity
and VSC level, and keep a replayable formation history.

Identity rests on a SHA-256 chain over the vehicle's VIN: the anchor is
the chain head, and a vehicle proves itself by revealing the element at
its claimed position, which hashes forward to the anchor.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .channel import path_loss_coeff_sq
from .kinematics import coupled_distance
from .scenarios import HighwayScenario, RelayScenario, highway_secrecy, relay_secrecy
from .units import (IntAtLeast1, NonNegative, Positive, check_fields, db_to_linear, require_finite,
                    require_integer, require_non_negative)
from .vsc import CsiRecord, VscResult, window_vscs

_DIGEST_SIZE = hashlib.sha256().digest_size


def _hash_times(data: bytes, times: int) -> bytes:
    for _ in range(times):
        data = hashlib.sha256(data).digest()
    return data


@lru_cache(maxsize=256)
def _chain(vin: str, chain_length: int) -> tuple[int, tuple[bytes, ...], bytes]:
    """A vehicle's own chain as (stride s, checkpoints H^0, H^s, H^2s, ..., anchor).

    s = isqrt(n - 1) + 1 for n = chain_length, so at most s checkpoints
    cover every position in [0, n) and an element is fewer than s hashes
    from its checkpoint: about sqrt(n) digests kept and sqrt(n) hashes per
    reveal (s = 32 at n = 1000).  One walk of exactly n hashes builds it.
    The 256 most recent (VIN, length) chains stay resident, at most about
    16 MB for chains of 10^6.  Callers check the VIN and the length first
    and pass a Python int, so every integer type shares one entry.
    """
    stride = math.isqrt(chain_length - 1) + 1
    checkpoints = [vin.encode("ascii")]
    for _ in range((chain_length - 1) // stride):
        checkpoints.append(_hash_times(checkpoints[-1], stride))
    anchor = _hash_times(checkpoints[-1], chain_length - stride * (len(checkpoints) - 1))
    return stride, tuple(checkpoints), anchor


def _check_type(name: str, value: object, kind: type) -> None:
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


def _check_vehicle_id(vehicle_id: str) -> None:
    _check_type("vehicle_id", vehicle_id, str)
    if not vehicle_id:
        raise ValueError("vehicle_id must be non-empty")


def _check_position(position: int, chain_length: int) -> None:
    """A chain position is an integer in [0, chain_length), of any integer type."""
    require_integer(0, position=position)
    if position >= chain_length:
        raise ValueError(f"position must be in [0, {chain_length}), got {position!r}")


def vin_is_well_formed(vin: str) -> bool:
    """17 ASCII letters or digits."""
    return isinstance(vin, str) and len(vin) == 17 and vin.isascii() and vin.isalnum()


def _check_vin(vin: str) -> None:
    if not vin_is_well_formed(vin):
        raise ValueError(f"VIN must be 17 ASCII letters or digits, got {vin!r}")


@dataclass(frozen=True)
class VehicleIdentity:
    """A vehicle's identity claim: VIN, chain anchor, chain length.

    Identities parsed off the wire carry vin = "" because the VIN never
    leaves the vehicle; such claims are checked by challenge-response
    (validate_identity) rather than by anchor recomputation.
    """

    vehicle_id: str
    vin: str
    chain_anchor: bytes
    chain_length: IntAtLeast1

    def __post_init__(self) -> None:
        _check_vehicle_id(self.vehicle_id)
        _check_type("vin", self.vin, str)
        check_fields(self)
        _check_type("chain_anchor", self.chain_anchor, bytes)
        if len(self.chain_anchor) != _DIGEST_SIZE:
            raise ValueError(f"chain_anchor must be {_DIGEST_SIZE} bytes")

    @cached_property
    def _registry_verdict(self) -> bool:
        # The fields are frozen, so the verdict is computed on the first
        # check and kept in the instance __dict__ for every later one.
        if not vin_is_well_formed(self.vin):
            return False
        return _hash_times(self.vin.encode("ascii"), self.chain_length) == self.chain_anchor


def make_identity(vehicle_id: str, vin: str, chain_length: int) -> VehicleIdentity:
    """Build an identity whose anchor is the VIN hashed chain_length times.

    The VIN, chain_length and vehicle_id are checked, in that order,
    before any hashing."""
    _check_vin(vin)
    require_integer(1, chain_length=chain_length)
    _check_vehicle_id(vehicle_id)
    anchor = _chain(vin, operator.index(chain_length))[2]
    return VehicleIdentity(vehicle_id, vin, anchor, chain_length)


def chain_element(vin: str, position: int) -> bytes:
    """The chain value a vehicle reveals at a position: VIN hashed position times."""
    _check_type("vin", vin, str)
    require_integer(0, position=position)
    return _hash_times(vin.encode("ascii"), position)


def identity_is_valid(identity: VehicleIdentity) -> bool:
    """Registry-side check: VIN well formed and anchor consistent with it.

    The verdict is computed once per identity object, on its first check.
    """
    return identity._registry_verdict


def validate_identity(claim: VehicleIdentity, revealed_preimage: bytes, position: int) -> bool:
    """Challenge-response check of a revealed chain element.

    Hashing the preimage (chain_length - position) more times must land
    exactly on the claimed anchor.
    """
    if not isinstance(revealed_preimage, (bytes, bytearray)):
        raise ValueError(f"revealed_preimage must be bytes, got {revealed_preimage!r}")
    _check_position(position, claim.chain_length)
    return _hash_times(bytes(revealed_preimage), claim.chain_length - position) == claim.chain_anchor


def make_identity_exchange(vehicle_id: str, vin: str, chain_length: int, position: int) -> dict:
    """Wire document a vehicle sends to prove itself; the VIN stays local.

    The checks run in the order VIN, chain_length, vehicle_id, position,
    before any hashing.  The vehicle keeps its chain (see _chain): the
    first exchange on a (VIN, chain_length) walks the chain_length hashes
    once, and every exchange then hashes position mod s times from the
    checkpoint below position, fewer than s = isqrt(chain_length - 1) + 1.
    The verifier keeps nothing and hashes chain_length - position times.
    The document holds Python ints whatever integer type the arguments were.
    """
    _check_vin(vin)
    require_integer(1, chain_length=chain_length)
    _check_vehicle_id(vehicle_id)
    _check_position(position, chain_length)
    chain_length, position = operator.index(chain_length), operator.index(position)
    stride, checkpoints, anchor = _chain(vin, chain_length)
    element = _hash_times(checkpoints[position // stride], position % stride)
    return {
        "vehicle_id": vehicle_id,
        "anchor_hex": anchor.hex(),
        "chain_length": chain_length,
        "position": position,
        "preimage_hex": element.hex(),
    }


def verify_identity_exchange(doc: dict) -> bool:
    """Parse and check a received identity document.

    A missing field, malformed hex, or a chain_length or position that is
    not an integer raises ValueError.
    """
    try:
        vehicle_id = doc["vehicle_id"]
        anchor = bytes.fromhex(doc["anchor_hex"])
        chain_length = doc["chain_length"]
        position = doc["position"]
        require_integer(1, chain_length=chain_length)
        require_integer(0, position=position)
        preimage = bytes.fromhex(doc["preimage_hex"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed identity exchange: {exc}") from exc
    claim = VehicleIdentity(vehicle_id, "", anchor, chain_length)
    return validate_identity(claim, preimage, position)


# --- target selection and threshold negotiation -------------------------------


def sc_select(window: Sequence[CsiRecord]) -> str:
    """Pick the sender whose VSC is highest; ties go to the smallest id."""
    return min(window_vscs(window), key=lambda res: (-res.vsc, res.target_id)).target_id


@dataclass(frozen=True)
class SecrecyKnobs:
    """Adjustments a negotiating host may apply, in this fixed order:
    slow down, raise power, fall back to the relay."""

    speed_step: Positive
    power_step_db: Positive
    relay_available: bool = False
    max_iterations: IntAtLeast1 = 8

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class RelayOption:
    """Relay fallback parameters: its transmit power and its power gains
    toward the receiver and the eavesdropper."""

    p_r: NonNegative
    h_rb_sq: NonNegative
    h_re_sq: NonNegative

    def __post_init__(self) -> None:
        check_fields(self)


class AdjustableHighwayLink:
    """A controllable legitimate link evaluated through the highway model.

    Speed and power edits mutate the underlying scenario; enabling the
    relay re-routes evaluation through the interference form with the
    same geometry-derived gains.  Each knob method either acts and returns
    True or leaves the link unchanged and returns False.
    """

    def __init__(self, scenario: HighwayScenario, relay: RelayOption | None = None):
        self._scenario = scenario
        self._relay = relay
        self.relay_enabled = False

    @property
    def scenario(self) -> HighwayScenario:
        return self._scenario

    def evaluate(self) -> float:
        if not self.relay_enabled:
            return highway_secrecy(self._scenario)
        s = self._scenario
        assert self._relay is not None
        return relay_secrecy(
            RelayScenario(
                p_a=s.params.p_over_n0,
                p_r=self._relay.p_r,
                h_ab_sq=path_loss_coeff_sq(coupled_distance(s.v, s.tau), s.params.alpha),
                h_rb_sq=self._relay.h_rb_sq,
                h_ae_sq=path_loss_coeff_sq(s.r, s.params.alpha),
                h_re_sq=self._relay.h_re_sq,
            )
        )

    def decrease_speed(self, step: float) -> bool:
        """Slow down by step, unless that would stop the vehicle."""
        if self._scenario.v - step <= 0.0:
            return False
        self._scenario = replace(self._scenario, v=self._scenario.v - step)
        return True

    def increase_power(self, step_db: float) -> bool:
        """Raise P/N0 by step_db; this knob always acts."""
        params = self._scenario.params
        params = replace(params, p_over_n0=params.p_over_n0 * db_to_linear(step_db))
        self._scenario = replace(self._scenario, params=params)
        return True

    def enable_relay(self) -> bool:
        """Route through the relay, unless there is none or it is already on."""
        if self._relay is None or self.relay_enabled:
            return False
        self.relay_enabled = True
        return True


@dataclass(frozen=True)
class NegotiationResult:
    connected: bool
    target_id: str
    iterations: int
    final_vsc: float


def rsc_negotiate(
    window: Sequence[CsiRecord],
    rsc: float,
    knobs: SecrecyKnobs,
    env: AdjustableHighwayLink,
) -> NegotiationResult:
    """Drive the link secrecy up to the reference threshold RSC.

    Each iteration re-evaluates the link; on a shortfall exactly one
    adjustment is applied, cycling through the knob order and skipping
    knobs that decline (speed already minimal, relay absent, on or not
    allowed).  Failure after max_iterations is an ordinary outcome, not
    an error.
    """
    require_finite(rsc=rsc)
    target = sc_select(window)
    adjustments = itertools.cycle((
        lambda: env.decrease_speed(knobs.speed_step),
        lambda: env.increase_power(knobs.power_step_db),
        lambda: knobs.relay_available and env.enable_relay(),
    ))
    vsc = float("-inf")
    for iteration in range(1, knobs.max_iterations + 1):
        vsc = env.evaluate()
        if vsc >= rsc:
            return NegotiationResult(True, target, iteration, vsc)
        if iteration < knobs.max_iterations:
            # the first knob that acts, at most one full turn of the cycle
            any(adjust() for adjust in itertools.islice(adjustments, 3))
    return NegotiationResult(False, target, knobs.max_iterations, vsc)


# --- cluster formation and history --------------------------------------------


@dataclass(frozen=True)
class ClusterState:
    """A formed cluster: members with their admission-time VSC, thresholds."""

    cluster_id: str
    members: tuple[tuple[str, float], ...]
    rsc: float
    secondary_rsc: float
    formed_at: float

    @property
    def member_ids(self) -> frozenset[str]:
        return frozenset(mid for mid, _ in self.members)


def form_cluster(
    candidates: Sequence[tuple[VehicleIdentity, VscResult]],
    rsc: float,
    secondary_rsc: float,
    cluster_id: str = "cluster-0",
    formed_at: float = 0.0,
) -> tuple[ClusterState, frozenset[str]]:
    """Partition candidates into members, pseudo-cluster, and excluded.

    Members hold a valid identity and VSC >= RSC; the pseudo set holds a
    valid identity with secondary RSC <= VSC < RSC (both bounds checked
    inclusively on the left).  Everyone else is excluded.  Pseudo members
    are promoted only by re-running formation with fresh measurements.
    """
    require_finite(rsc=rsc, secondary_rsc=secondary_rsc)
    if secondary_rsc > rsc:
        raise ValueError("secondary_rsc must not exceed rsc")
    seen: set[str] = set()
    members: dict[str, float] = {}
    pseudo: set[str] = set()
    for ident, res in candidates:
        if ident.vehicle_id in seen:
            raise ValueError(f"duplicate candidate {ident.vehicle_id!r}")
        seen.add(ident.vehicle_id)
        if not identity_is_valid(ident):
            continue
        if res.vsc >= rsc:
            members[ident.vehicle_id] = res.vsc
        elif res.vsc >= secondary_rsc:
            pseudo.add(ident.vehicle_id)
    state = ClusterState(
        cluster_id, tuple(sorted(members.items())), rsc, secondary_rsc, formed_at
    )
    return state, frozenset(pseudo)


class ClusterHistory:
    """Append-only formation log, persisted as one JSON object per line."""

    def __init__(self, records: Iterable[ClusterState] = ()):
        self._records: list[ClusterState] = list(records)

    @property
    def records(self) -> tuple[ClusterState, ...]:
        return tuple(self._records)

    def append_state(self, state: ClusterState) -> None:
        self._records.append(state)

    def replay(self) -> list[ClusterState]:
        """The cluster state sequence exactly as it was recorded."""
        return list(self._records)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for r in self._records:
                doc = {
                    "ts": r.formed_at,
                    "cluster_id": r.cluster_id,
                    "members": [{"id": mid, "vsc": v} for mid, v in r.members],
                    "rsc": r.rsc,
                    "secondary_rsc": r.secondary_rsc,
                }
                fh.write(json.dumps(doc, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ClusterHistory":
        """Read a saved history; a malformed line, one holding a non-finite
        number among them, raises ValueError naming the file and its
        1-based line number."""
        records = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                    if not isinstance(doc, dict):
                        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
                    state = ClusterState(
                        doc["cluster_id"],
                        tuple((m["id"], float(m["vsc"])) for m in doc["members"]),
                        float(doc["rsc"]),
                        float(doc["secondary_rsc"]),
                        float(doc["ts"]),
                    )
                    require_finite(ts=state.formed_at, rsc=state.rsc, secondary_rsc=state.secondary_rsc,
                                   **{f"vsc of member {mid!r}": v for mid, v in state.members})
                    records.append(state)
                except (KeyError, TypeError, ValueError) as exc:
                    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                    raise ValueError(f"{path}, line {lineno}: malformed history record: {reason}") from exc
        return cls(records)


def history_fallback(history: ClusterHistory, candidate_ids: Iterable[str]) -> str | None:
    """When no candidate clears the thresholds, prefer whoever was most
    recently co-clustered with us; inside one record the highest recorded
    VSC wins, then the smallest id.  None when history offers nothing."""
    wanted = set(candidate_ids)
    for record in reversed(history.records):
        present = [(mid, v) for mid, v in record.members if mid in wanted]
        if present:
            return min(present, key=lambda p: (-p[1], p[0]))[0]
    return None


# --- consensus-node candidate selection ---------------------------------------


def select_consensus_candidates(
    responses: Sequence[tuple[str, float]],
    threshold: float,
    window: Sequence[CsiRecord] | None = None,
    tolerance: float = 0.1,
) -> list[str]:
    """Vehicles whose claimed VSC exceeds the threshold, best first.

    When the host holds CSI for a responder, its claim is cross-checked
    against the host-side VSC and dropped on a mismatch beyond the
    tolerance.  Ties order by vehicle id.  A claim that is not a finite
    number is a ValueError naming the responder.
    """
    require_finite(threshold=threshold)
    require_non_negative(tolerance=tolerance)
    host_side = {res.target_id: res.vsc for res in window_vscs(window)} if window else {}
    seen: set[str] = set()
    kept: list[tuple[str, float]] = []
    for vehicle_id, claimed in responses:
        if vehicle_id in seen:
            raise ValueError(f"duplicate response from {vehicle_id!r}")
        seen.add(vehicle_id)
        require_finite(**{f"claim of {vehicle_id!r}": claimed})
        if claimed <= threshold:
            continue
        if vehicle_id in host_side and abs(claimed - host_side[vehicle_id]) > tolerance:
            continue
        kept.append((vehicle_id, claimed))
    kept.sort(key=lambda p: (-p[1], p[0]))
    return [vehicle_id for vehicle_id, _ in kept]
