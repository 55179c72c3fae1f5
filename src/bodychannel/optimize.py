"""Design optimization for the receiver side of the channel.

Covers load-resistance matching, inductor selection for a target resonant
frequency, current-limited power maximization, simultaneous multi-receiver
powering, and transmitter/receiver topology comparison curves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import acnet, safety
from .channel import (
    BodyModel,
    NonFiniteResultError,
    OperatingPoint,
    ReceiverParams,
    SourceModel,
    TWO_PI,
    WearableTx,
    _INF,
    _body_potential,
    _coefficients,
    _on_scalars,
    _operating_point,
    _require_finite,
    _require_range,
    _response,
    resonant_frequency,
    transfer_function,
    v_in_rms,
)

class UnboundedObjectiveError(ValueError):
    """Raised when the lossless model makes the objective grow without bound."""


class InfeasibleError(ValueError):
    """No candidate satisfies the constraints; carries the minimal-violation point."""

    def __init__(self, message: str, candidate=None, violation=None):
        super().__init__(message)
        self.candidate = candidate
        self.violation = violation


class LoadingAssumptionWarning(UserWarning):
    """Joint-network power deviates from the independent calculation by > 10%."""


@dataclass
class OptimizationResult:
    """An optimum.  ``trace`` holds the evaluated ``(load, power)`` point; the
    closed forms need no grid fallback, so ``used_grid_fallback`` is False."""

    argmax: float
    objective_at_argmax: float
    constraint_active: bool
    constraint_name: Optional[str]
    trace: list
    used_grid_fallback: bool = False


def _at_load(rx, src, body, f: float, r_l: float) -> tuple:
    """Load current and power at one load resistance, in Python scalars.  A
    power that is not finite raises NonFiniteResultError naming the load."""
    v_o, p = _on_scalars(f"p_out_rms at R_L = {r_l!r} ohm", f, _response, rx, src, body, f, r_l)
    return abs(v_o) / r_l, p


def _load_coefficients(rx, f: float) -> tuple:
    """|A|, |M| and k of ``channel._coefficients`` at frequency ``f``, in
    Python scalars."""

    def magnitudes():
        a, m, k = _coefficients(rx, TWO_PI * f, rx.l)
        return abs(a), abs(m), k

    return _on_scalars("the channel coefficients |A|, |M| and k", f, magnitudes)


def _optimum(rx, src, body, f, r_l: float, bounds: tuple, r_c=None) -> OptimizationResult:
    """The power at ``r_l`` clipped to ``bounds``, naming the constraint that
    holds it there: the load-current boundary ``r_c``, else a bound."""
    lo, hi = bounds
    argmax = float(min(max(r_l, lo), hi))
    objective = _at_load(rx, src, body, f, argmax)[1]
    constraint = None
    if argmax == r_c:
        constraint = "load-current"
    elif argmax == lo:
        constraint = "lower bound"
    elif argmax == hi:
        constraint = "upper bound"
    return OptimizationResult(
        argmax=argmax,
        objective_at_argmax=objective,
        constraint_active=constraint is not None,
        constraint_name=constraint,
        trace=[(argmax, objective)],
    )


def optimal_load(
    rx: ReceiverParams,
    src: SourceModel,
    body: BodyModel,
    f: float,
    bounds: tuple,
) -> OptimizationResult:
    """Load resistance maximizing received power at fixed frequency.

    Requires a lossy receiver (r_s > 0): without series loss the resonant
    output voltage is load independent, so P = |V_o|^2 / R_L grows without
    bound as R_L shrinks and no interior optimum exists.  The power has
    exactly one maximum: with H = R_L / (A + R_L*M) as in
    ``channel._coefficients``, |A + R*M|^2 rises strictly with R for
    r_s > 0, so the load current |V_B| / |A + R*M| falls strictly with R_L
    and P = |V_B|^2 * R / |A + R*M|^2 peaks at the matched load
    R* = |A| / |M|.  The result is R* clipped to ``bounds``; ``trace`` holds
    that one evaluated point.  A power there that is not finite (inputs past
    double precision's range, such as C_L = 1e300 F) raises
    :class:`~bodychannel.channel.NonFiniteResultError`.
    """
    _require_range("frequency", f)
    f = float(f)
    lo, hi = bounds
    if not (lo > 0.0 and hi > lo):
        raise ValueError(f"need 0 < lo < hi, got bounds={bounds!r}")
    if rx.r_s == 0.0:
        raise UnboundedObjectiveError(
            "lossless receiver (r_s = 0): at resonance the output voltage is "
            "independent of R_L, so P = V_o^2 / R_L is unbounded as R_L -> 0; "
            "set a nonzero series loss to model a matched-load optimum"
        )
    a, m, _ = _load_coefficients(rx, f)
    return _optimum(rx, src, body, f, a / m, bounds)


def optimal_inductor(rx: ReceiverParams, f_target: float) -> float:
    """Series inductance resonating the receiver's parasitics at ``f_target``:
    L = 1 / ((2*pi*f_target)^2 * (C_ret + C_GB)).  Raises
    :class:`~bodychannel.channel.NonFiniteResultError` when that
    denominator underflows to 0 or overflows, or L overflows."""
    _require_range("f_target", f_target)
    w = TWO_PI * f_target
    denominator = w * w * (rx.c_ret + rx.c_gb)
    if not (0.0 < denominator < _INF and 1.0 / denominator < _INF):
        raise NonFiniteResultError(
            f"no finite inductor resonates at f_target = {f_target!r} Hz: "
            f"(2*pi*f_target)^2 * (C_ret + C_GB) = {denominator!r}"
        )
    return 1.0 / denominator


def max_power_under_current_limit(
    rx: ReceiverParams,
    src: SourceModel,
    body: BodyModel,
    f: float,
    i_limit: float,
    bounds: tuple = (1.0, 1e6),
) -> OptimizationResult:
    """Maximize P(R_L) subject to rms current limits.

    Two currents are checked against ``i_limit``: the load current
    |V_o| / R_L and the body return current through c_b.  The body current
    does not depend on the load, so exceeding it is an infeasibility, not a
    trade-off.  The load-current constraint caps how small R_L may get; when
    it binds, the optimum sits on the constraint boundary and the result
    says so.  In closed form the result is max(R*, r_c) clipped to
    ``bounds``: R* is the matched load of :func:`optimal_load` and r_c the
    load whose current equals the limit.  A power there that is not finite
    raises :class:`~bodychannel.channel.NonFiniteResultError`, as in
    :func:`optimal_load`.
    """
    _require_range("frequency", f)
    f = float(f)
    if not i_limit > 0.0:
        raise ValueError(f"i_limit must be > 0, got {i_limit!r}")
    lo, hi = bounds
    if not (lo > 0.0 and hi > lo):
        raise ValueError(f"need 0 < lo < hi, got bounds={bounds!r}")

    i_body = safety.contact_current(src, body, f)
    if i_body > i_limit:
        raise InfeasibleError(
            f"body return current {i_body:.4g} A rms exceeds the limit "
            f"{i_limit:.4g} A rms regardless of load choice; lower the drive "
            "voltage or frequency",
            candidate=None,
            violation=i_body - i_limit,
        )

    # The load current falls strictly with R_L, so the loads it keeps under
    # the limit are [r_c, inf): r_c is the positive root of
    # |M|^2*R^2 + 2*b*R + c = 0 with b = k^2*r_s (see optimal_load), or 0 when
    # c >= 0 and every load is feasible.
    a, m, k = _load_coefficients(rx, f)
    b = k * k * rx.r_s
    c = a * a - (_body_potential(src, body, v_in_rms(src)) / i_limit) ** 2
    r_c = -c / (b + math.sqrt(b * b - m * m * c)) if c < 0.0 else 0.0
    if r_c > hi:
        i_hi = _at_load(rx, src, body, f, hi)[0]
        raise InfeasibleError(
            f"no load in [{lo:.4g}, {hi:.4g}] ohm keeps the load current under "
            f"{i_limit:.4g} A rms; closest is {hi:.4g} ohm drawing "
            f"{i_hi:.4g} A rms",
            candidate=hi,
            violation=i_hi - i_limit,
        )

    if r_c <= lo and rx.r_s == 0.0:
        raise UnboundedObjectiveError(
            "current limit never binds on these bounds and the receiver is "
            "lossless (r_s = 0), so the objective is unbounded; see optimal_load"
        )

    return _optimum(rx, src, body, f, max(a / m, r_c), bounds, r_c)


def multi_receiver_power(
    receivers: Sequence[ReceiverParams], src: SourceModel, body: BodyModel
) -> list:
    """Each receiver evaluated at its own resonant frequency.

    Receivers are treated as independent: a branch's impedance at resonance
    is normally far above the body-to-ground impedance, so it barely loads
    the body potential.  ``joint_loading_check`` quantifies that assumption.
    """
    return [_operating_point(rx, src, body, resonant_frequency(rx)) for rx in receivers]


@dataclass(frozen=True)
class JointLoadingRecord:
    receiver_index: int
    frequency: float
    independent: OperatingPoint
    joint_power_rms: float
    deviation: float  # (joint - independent) / independent


def joint_loading_check(
    receivers: Sequence[ReceiverParams],
    src: SourceModel,
    body: BodyModel,
) -> list:
    """Solve one network containing every receiver branch and compare each
    receiver's power against the independent calculation.

    Emits a :class:`LoadingAssumptionWarning` for any receiver whose joint
    power deviates from the independent value by more than 10%.
    """
    independent = multi_receiver_power(receivers, src, body)
    netlist, probes = acnet.build_multi_receiver_netlist(receivers, src, body)
    solved = acnet.solve_many(netlist, [point.frequency for point in independent])
    records = []
    for i, (rx, point) in enumerate(zip(receivers, independent)):
        out, fg = probes[i]
        v = complex(solved.node_voltages[out][i] - solved.node_voltages[fg][i])
        p_joint = abs(v) ** 2 / rx.r_l
        if not 0.0 < point.p_out_rms < _INF:
            raise NonFiniteResultError(
                f"receiver {i}: the joint loading check divides by its independent power "
                f"{point.p_out_rms!r} W at frequency = {point.frequency!r}, which must be finite and > 0"
            )
        deviation = (p_joint - point.p_out_rms) / point.p_out_rms
        if abs(deviation) > 0.10:
            warnings.warn(
                LoadingAssumptionWarning(
                    f"receiver {i}: joint power {p_joint:.4g} W deviates from "
                    f"independent {point.p_out_rms:.4g} W by {deviation:+.1%}; "
                    "the branches load the body materially"
                ),
                stacklevel=2,
            )
        records.append(
            JointLoadingRecord(
                receiver_index=i,
                frequency=point.frequency,
                independent=point,
                joint_power_rms=p_joint,
                deviation=deviation,
            )
        )
    return records


@dataclass(frozen=True)
class TopologyCurve:
    """Channel gain |V_o / V_IN| in dB over frequency for one pairing."""

    topology: str
    frequencies: np.ndarray
    gain_db: np.ndarray


def compare_topologies(
    rx: ReceiverParams,
    body: BodyModel,
    freqs,
    c_ret_tx: float,
    q: float,
) -> list:
    """Gain curves for the four transmitter/receiver pairings.

    M2W drives the body at the full input voltage; W2W loses the wearable
    transmitter's capacitive divider c_ret_tx / (c_b + c_ret_tx); the
    resonant W2W variant recovers a factor q, but only inside its tank's
    band, modeled as a second-order band-pass of quality ``q`` centered on
    the receiver's resonant frequency.  M2M keeps
    the drive and upgrades the receiver's return path to a near-ideal
    c_ret = 1000 * c_gb, with the inductor re-chosen so the operating
    frequency stays put.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or len(freqs) < 2:
        raise ValueError("freqs must be a one-dimensional grid")
    _require_range("freqs", freqs)
    if not np.all(np.diff(freqs) > 0.0):
        raise ValueError("freqs must be strictly increasing")
    # The wearable transmitter checks c_ret_tx is finite and > 0.
    w2w_factor = _body_potential(WearableTx(1.0, "rms", c_ret_tx), body, 1.0)
    _require_range("q", q, low=1.0, inclusive=True)

    f0 = resonant_frequency(rx)
    h_m2w = np.abs(transfer_function(rx, freqs))
    c_ret_m2m = 1000.0 * rx.c_gb if rx.c_gb > 0.0 else rx.c_ret
    rx_m2m = replace(rx, c_ret=c_ret_m2m)
    rx_m2m = replace(rx_m2m, l=optimal_inductor(rx_m2m, f0))
    h_m2m = np.abs(transfer_function(rx_m2m, freqs))
    # The band-pass and the dB scale can overflow or reach log10(0); they are
    # checked as results, without numpy's warning (and q * q, unlike the
    # Python float q**2, gives inf rather than raising OverflowError).
    with np.errstate(all="ignore"):
        h_w2w = w2w_factor * h_m2w
        bandpass = 1.0 / np.sqrt(1.0 + q * q * (freqs / f0 - f0 / freqs) ** 2)
        gains = {"M2M": h_m2m, "M2W": h_m2w, "W2W": h_w2w, "W2W-resonant": h_w2w * q * bandpass}
        gains_db = {name: 20.0 * np.log10(gain) for name, gain in gains.items()}
    for name, gain_db in gains_db.items():
        _require_finite(f"the {name} gain in dB", gain_db, freqs)
    return [TopologyCurve(topology=name, frequencies=freqs, gain_db=g) for name, g in gains_db.items()]
