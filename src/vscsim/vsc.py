"""SNR-only secrecy estimate (VSC) computed from received signaling records.

A window of CSI reports from nearby senders stands in for the unknown
eavesdropper channel: the target's SNR plays the legitimate link and the
window-wide mean SNR plays the wiretap aggregate.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .channel import secrecy_bits
from .tables import ResultTable, write_csv_rows
from .units import db_to_linear, is_finite, linear_to_db, require_finite, require_positive

ADEQUATE = "adequate"
INADEQUATE = "inadequate"

CSI_CSV_HEADER = ["timestamp_s", "sender_id", "snr_db", "chain_element_hex"]


@dataclass(frozen=True)
class CsiRecord:
    """One received signaling sample: who sent, when, at what linear SNR.

    chain_element optionally carries the sender's current identity-chain
    hash (hex) for later validation.
    """

    timestamp: float
    sender_id: str
    snr: float
    chain_element: str | None = None

    def __post_init__(self) -> None:
        if not is_finite(self.timestamp):
            raise ValueError(f"timestamp must be finite, got {self.timestamp!r}")
        if not (isinstance(self.sender_id, str) and self.sender_id):
            raise ValueError(f"sender_id must be a non-empty str, got {self.sender_id!r}")
        if not (self.chain_element is None or isinstance(self.chain_element, str)):
            raise ValueError(f"chain_element must be a str or None, got {self.chain_element!r}")
        if not (is_finite(self.snr) and self.snr > 0.0):
            raise ValueError(f"snr must be finite and > 0, got {self.snr!r}")


@dataclass(frozen=True)
class VscResult:
    """VSC for one candidate target within one window."""

    target_id: str
    vsc: float
    snr_xor: float
    m: int
    window_start: float = 0.0


def _mean_snr(snrs: list[float], window_start: float = 0.0) -> float:
    """Mean of a window's SNRs, or ValueError where their sum overflows."""
    mean = sum(snrs) / len(snrs)
    if not is_finite(mean):
        raise ValueError(f"SNR sum of the window starting at {window_start!r} s overflows")
    return mean


def window_vscs(window: Sequence[CsiRecord], window_start: float = 0.0) -> list[VscResult]:
    """Every sender's VSC in one window, in sender-id order:
    log2(1 + SNR_sender) - log2(1 + mean window SNR).

    The mean runs over every record in the window, the sender's included.
    With several records from a sender its SNR is their mean.
    """
    if not window:
        raise ValueError("window must contain at least one record")
    snrs: dict[str, list[float]] = {}
    for r in window:
        snrs.setdefault(r.sender_id, []).append(r.snr)
    m = len(window)
    snr_xor = _mean_snr([r.snr for r in window], window_start)
    # Every SNR is > 0, so a finite window sum bounds each sender's sum.
    return [
        VscResult(sender, secrecy_bits(sum(own) / len(own), snr_xor), snr_xor, m, window_start)
        for sender, own in sorted(snrs.items())
    ]


def compute_vsc(
    window: Sequence[CsiRecord], target_id: str, exclude_target: bool = False
) -> VscResult:
    """The target's VSC in a window (see window_vscs).

    exclude_target=True switches to the leave-one-out reading, where the
    mean runs over the other senders' records only.
    """
    if not window:
        raise ValueError("window must contain at least one record")
    target_snrs = [r.snr for r in window if r.sender_id == target_id]
    if not target_snrs:
        raise KeyError(f"no record from {target_id!r} in window")
    if not exclude_target:
        return next(res for res in window_vscs(window) if res.target_id == target_id)
    rest = [r.snr for r in window if r.sender_id != target_id]
    if not rest:
        raise ValueError("exclude_target needs at least one record from another sender")
    snr_ab, snr_xor = _mean_snr(target_snrs), _mean_snr(rest)
    return VscResult(target_id, secrecy_bits(snr_ab, snr_xor), snr_xor, len(window))


def windowed_stream(
    records: Sequence[CsiRecord], unit_time: float = 1.0
) -> list[VscResult]:
    """Split a time-ordered record stream into tumbling windows and emit one
    VscResult per window per distinct sender.

    Windows are aligned to multiples of unit_time; empty windows emit
    nothing.  Out-of-order timestamps are rejected rather than silently
    re-sorted.
    """
    require_positive(unit_time=unit_time)
    for prev, cur in zip(records, records[1:]):
        if cur.timestamp < prev.timestamp:
            raise ValueError(
                f"records out of order at t={cur.timestamp!r} after t={prev.timestamp!r}"
            )
    if records:  # time-ordered, so the first or the last has the largest |timestamp|
        require_finite(window_index=max(abs(records[0].timestamp), abs(records[-1].timestamp)) / unit_time)
    results: list[VscResult] = []
    by_window = itertools.groupby(records, key=lambda r: math.floor(r.timestamp / unit_time))
    for idx, window in by_window:
        results.extend(window_vscs(list(window), idx * unit_time))
    return results


def security_verdict(vsc_bits: float, reference_bits: float) -> str:
    """ADEQUATE when the estimate meets the reference threshold (inclusive)."""
    return ADEQUATE if vsc_bits >= reference_bits else INADEQUATE


def write_csi_csv(path: str | Path, records: Iterable[CsiRecord]) -> None:
    """Persist records with dB-valued SNR, one row per record, written and
    quoted as tables.write_csv writes its rows, without the provenance line."""
    records = list(records)
    table = ResultTable(CSI_CSV_HEADER, [
        [float(r.timestamp) for r in records],
        [r.sender_id for r in records],
        [linear_to_db(r.snr) for r in records],
        [r.chain_element or "" for r in records],
    ])
    write_csv_rows(table, path)


def read_csi_csv(path: str | Path) -> list[CsiRecord]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSI_CSV_HEADER:
            raise ValueError(f"unexpected CSI header {header!r}")
        out = []
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"expected 4 fields, got {row!r}")
            ts, sender, snr_db, chain = row
            out.append(
                CsiRecord(float(ts), sender, db_to_linear(float(snr_db)), chain or None)
            )
    return out
