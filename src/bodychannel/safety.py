"""Contact-current estimation and compliance checks against exposure limits.

The body return current through c_b is used as a conservative proxy for the
per-foot contact current.  Limit values are never hard-coded here: they are
loaded from user-supplied tables carrying a source label, because the
applicable numbers depend on which standard edition the user transcribes.
Basic restrictions (SAR, induced in-body fields) need field-level
simulation and are explicitly not evaluated; every report says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, truediv
from pathlib import Path
from typing import Optional

from . import acnet
from .channel import (
    RMS_FACTOR,
    BodyModel,
    SourceModel,
    TWO_PI,
    _body_potential,
    _evaluate,
    _require_range,
    body_potential,
)

BASIC_RESTRICTIONS_NOTE = (
    "basic-restrictions not evaluated: SAR and induced in-body fields require "
    "field-level simulation; contact current uses the full body return current "
    "through c_b, which overestimates any single contact path (conservative)"
)


class UncoveredBandError(ValueError):
    """Raised when a frequency falls outside every limit-table band."""


class IncompleteTableError(ValueError):
    """Raised when a band lacks the limit needed for a requested check."""


@dataclass(frozen=True)
class LimitBand:
    """One frequency band [f_lo, f_hi) with rms limits; None means not specified."""

    f_lo: float
    f_hi: float
    contact_current_limit: Optional[float] = None  # A rms
    e_field_limit: Optional[float] = None  # V/m
    h_field_limit: Optional[float] = None  # A/m


@dataclass(frozen=True)
class LimitTable:
    """Sorted, non-overlapping limit bands plus the free-text source label."""

    source_label: str
    bands: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", tuple(self.bands))
        if not self.source_label.strip():
            raise ValueError("limit table needs a source_label")
        prev_hi = 0.0
        for band in self.bands:
            _check_band(band, prev_hi)
            prev_hi = band.f_hi

    def band_for(self, f: float) -> LimitBand:
        for band in self.bands:
            if band.f_lo <= f < band.f_hi:
                return band
        raise UncoveredBandError(
            f"{f:.6g} Hz is not covered by any band of table {self.source_label!r}"
        )


def _check_band(band: LimitBand, prev_hi: float) -> None:
    """Check one band, given where the band before it ends (0 for the first)."""
    for name, value in vars(band).items():
        if value is not None:
            _require_range(name, value)
    if not band.f_hi > band.f_lo:
        raise ValueError(f"bad band bounds [{band.f_lo!r}, {band.f_hi!r})")
    if band.f_lo < prev_hi:
        raise ValueError("limit bands must be sorted and non-overlapping")


def load_limit_table(path) -> LimitTable:
    """Parse the line-oriented limit-table format.

    One ``source_label <text>`` header line is required.  Each band line is
    ``band f_lo_hz f_hi_hz contact_mA_rms [e_V_per_m] [h_A_per_m]``; a ``-``
    marks an unspecified limit.  ``#`` starts a comment.
    """
    label = None
    bands = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "source_label":
            if label is not None:
                raise ValueError(f"{path}:{lineno}: duplicate source_label")
            label = rest.strip()
            if not label:
                raise ValueError(f"{path}:{lineno}: source_label has no text")
        elif head == "band":
            try:
                tokens = rest.split()
                if not 3 <= len(tokens) <= 5:
                    raise ValueError("band needs 3 to 5 fields")
                values = [None if tok == "-" else float(tok) for tok in tokens]
                f_lo, f_hi, contact_ma, e_lim, h_lim = values + [None] * (5 - len(values))
                if f_lo is None or f_hi is None:
                    raise ValueError("band bounds may not be '-'")
                contact = None if contact_ma is None else contact_ma * 1e-3
                band = LimitBand(f_lo, f_hi, contact, e_lim, h_lim)
                _check_band(band, bands[-1].f_hi if bands else 0.0)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            bands.append(band)
        else:
            raise ValueError(f"{path}:{lineno}: unknown directive {head!r}")
    if label is None:
        raise ValueError(f"{path}: missing required source_label line")
    return LimitTable(source_label=label, bands=tuple(bands))


@dataclass(frozen=True)
class FieldCheck:
    name: str
    measured: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class SafetyReport:
    frequency: float
    contact_current_rms: float
    limit: float
    margin: float  # limit / actual; > 1 means pass on current
    passed: bool
    field_checks: tuple = ()
    note: str = BASIC_RESTRICTIONS_NOTE


def contact_current(
    src: SourceModel,
    body: BodyModel,
    f: float,
    rx=None,
    mna: bool = False,
) -> float:
    """Rms body return current through c_b at the body potential.

    Closed form: I = 2*pi*f * c_b * V_B(rms).  With ``mna=True`` the c_b
    branch current is taken from a solved netlist instead, including the
    source/tissue drops the closed form ignores; pass ``rx`` to include
    receiver loading in that netlist.  The closed form has no receiver, so
    ``rx`` without ``mna=True`` raises ValueError.
    """
    f = _require_range("frequency", f)
    if not mna:
        if rx is not None:
            raise ValueError("receiver loading (rx) needs mna=True; the closed form has no receiver")
        return _evaluate("the contact current", f, mul, TWO_PI * f * body.c_b, body_potential(src, body, f))
    net, _ = acnet._build_netlist(src, body, [] if rx is None else [rx], [""])
    v_body = complex(acnet.solve_many(net, f).node_voltages["body"][0])
    return _evaluate("the contact current", f, abs, v_body * 1j * TWO_PI * f * body.c_b)


def _contact_band(table: LimitTable, f: float) -> LimitBand:
    """The band of ``table`` covering ``f``, which must carry a contact-current limit."""
    band = table.band_for(f)
    if band.contact_current_limit is None:
        raise IncompleteTableError(
            f"band [{band.f_lo:.6g}, {band.f_hi:.6g}) Hz of {table.source_label!r} "
            "has no contact-current limit"
        )
    return band


def check(
    src: SourceModel,
    body: BodyModel,
    f: float,
    table: LimitTable,
    measured_e: Optional[float] = None,
    measured_h: Optional[float] = None,
    rx=None,
    mna: bool = False,
) -> SafetyReport:
    """Compare the modeled contact current (and optional measured incident
    fields) against the limit band covering ``f``.  The current is
    :func:`contact_current`'s, so ``rx`` needs ``mna=True``.  A measured
    field must be finite and >= 0."""
    f = _require_range("frequency", f)
    for name, measured in (("measured_e", measured_e), ("measured_h", measured_h)):
        if measured is not None:
            _require_range(name, measured, inclusive=True)
    band = _contact_band(table, f)
    actual = contact_current(src, body, f, rx=rx, mna=mna)
    margin = _evaluate("the margin", f, truediv, band.contact_current_limit, actual)
    passed = actual <= band.contact_current_limit

    checks = []
    for name, measured, limit in (
        ("e_field", measured_e, band.e_field_limit),
        ("h_field", measured_h, band.h_field_limit),
    ):
        if measured is None:
            continue
        if limit is None:
            raise IncompleteTableError(
                f"band [{band.f_lo:.6g}, {band.f_hi:.6g}) Hz of {table.source_label!r} "
                f"has no {name} limit to compare the measured value against"
            )
        ok = measured <= limit
        checks.append(FieldCheck(name=name, measured=measured, limit=limit, passed=ok))
        passed = passed and ok

    return SafetyReport(
        frequency=f,
        contact_current_rms=actual,
        limit=band.contact_current_limit,
        margin=margin,
        passed=passed,
        field_checks=tuple(checks),
    )


def max_safe_input(body: BodyModel, f: float, table: LimitTable, src: SourceModel) -> float:
    """Largest drive voltage keeping the contact current at the band limit.

    ``src`` supplies the source kind and amplitude convention; its own v_in
    is ignored.  The body potential is linear in v_in for every source
    variant, so the inversion is exact; the result is expressed in the
    source's amplitude convention.
    """
    f = _require_range("frequency", f)
    band = _contact_band(table, f)
    return _evaluate("the largest safe input", f, _safe_input, band.contact_current_limit, body, f, src)


def _safe_input(limit: float, body: BodyModel, f: float, src: SourceModel) -> float:
    v_b_max_rms = limit / (TWO_PI * f * body.c_b)
    slope = _body_potential(src, body, 1.0)  # V_B per rms input volt
    return v_b_max_rms / slope / RMS_FACTOR[src.convention]
