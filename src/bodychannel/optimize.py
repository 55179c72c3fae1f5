"""Design optimization for the receiver side of the channel.

Covers load-resistance matching, inductor selection for a target resonant
frequency, current-limited power maximization, simultaneous multi-receiver
powering, and transmitter/receiver topology comparison curves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import acnet, safety
from .channel import (
    BodyModel,
    OperatingPoint,
    ReceiverParams,
    SourceModel,
    TWO_PI,
    _response,
    received_power,
    resonant_frequency,
    transfer_function,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Relative bracket width at which the load searches stop.
_LOAD_REL_TOL = 1e-3


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
    argmax: float
    objective_at_argmax: float
    constraint_active: bool
    constraint_name: Optional[str]
    trace: list
    used_grid_fallback: bool = False


def golden_section_max(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-3,
    trace: Optional[list] = None,
) -> tuple:
    """Maximize a unimodal function on [lo, hi] by golden-section search.

    The search runs in log space (lo must be > 0), shrinking the bracket
    until hi/lo - 1 <= rel_tol.  Returns the best evaluated (x, fn(x));
    every evaluation is appended to ``trace`` when given.  The final bracket
    is available via :func:`golden_section_max_bracketed`.
    """
    x, y, _ = golden_section_max_bracketed(fn, lo, hi, rel_tol=rel_tol, trace=trace)
    return x, y


def golden_section_max_bracketed(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-3,
    trace: Optional[list] = None,
) -> tuple:
    """As :func:`golden_section_max`, returning (x, fn(x), (a, b)) where
    [a, b] is the final bracket known to contain the maximum if the
    objective really is unimodal."""
    if not (lo > 0.0 and hi > lo):
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r}, hi={hi!r}")

    def eva(x: float) -> float:
        y = fn(x)
        if trace is not None:
            trace.append((x, y))
        return y

    best = (lo, eva(lo))
    y_hi = eva(hi)
    if y_hi > best[1]:
        best = (hi, y_hi)

    a, b = math.log(lo), math.log(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    yc, yd = eva(math.exp(c)), eva(math.exp(d))
    while math.exp(b - a) - 1.0 > rel_tol:
        if yc > yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            yc = eva(math.exp(c))
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = eva(math.exp(d))
    for x, y in ((math.exp(c), yc), (math.exp(d), yd)):
        if y > best[1]:
            best = (x, y)
    return best[0], best[1], (math.exp(a), math.exp(b))


#: Brent root-search tolerances, the defaults of ``scipy.optimize.brentq``.
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)


def _brent_root(fn: Callable[[float], float], a: float, b: float, maxiter: int = 100) -> float:
    """Root of ``fn`` on [a, b] by Brent's method (Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 4).

    The iteration, its update order and its tolerances are those of
    ``scipy.optimize.brentq``, so both return the same root bit for bit.
    The bracket may be given in either order; fn(a) and fn(b) must have
    opposite signs (or one be zero).  Converged when the bracket half-width
    is below (2e-12 + 4*eps*|x|)/2.  Raises ``ValueError`` for a bracket
    without a sign change or a NaN value, ``RuntimeError`` after
    ``maxiter`` iterations without convergence.
    """

    def value(x: float) -> float:
        y = float(fn(x))
        if math.isnan(y):
            raise ValueError(f"the function value at x={x} is NaN; the root search cannot go on")
        return y

    # cur: best estimate; blk: the other end of the sign-changing bracket;
    # pre: the previous estimate.  s: the current and the previous step.
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f(a) = {fpre!r} and f(b) = {fcur!r} must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"root search failed to converge after {maxiter} iterations, at {xcur!r}")


def _load_power(rx: ReceiverParams, src: SourceModel, body: BodyModel, f: float):
    def power(r_l: float) -> float:
        return float(_response(rx, src, body, f, r_l=r_l)[1])

    return power


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
    bound as R_L shrinks and no interior optimum exists.  The resonant
    frequency itself does not move with R_L, so candidates are evaluated at
    the fixed ``f`` rather than re-resonating per candidate.

    If the sampled objective turns out not to be unimodal, the search falls
    back to a 256-point grid plus local refinement and flags it.
    """
    if not f > 0.0:
        raise ValueError(f"frequency must be > 0, got {f!r}")
    lo, hi = bounds
    if not (lo > 0.0 and hi > lo):
        raise ValueError(f"need 0 < lo < hi, got bounds={bounds!r}")
    if rx.r_s == 0.0:
        raise UnboundedObjectiveError(
            "lossless receiver (r_s = 0): at resonance the output voltage is "
            "independent of R_L, so P = V_o^2 / R_L is unbounded as R_L -> 0; "
            "set a nonzero series loss to model a matched-load optimum"
        )
    power = _load_power(rx, src, body, f)
    trace: list = []
    x_best, y_best, bracket = golden_section_max_bracketed(
        power, lo, hi, rel_tol=_LOAD_REL_TOL, trace=trace
    )

    # Unimodality audit: if the objective is unimodal, no point outside the
    # final bracket can beat it.  A violation means a second mode exists.
    fallback = False
    grid = np.geomspace(lo, hi, 33)
    grid_vals = list(zip(grid.tolist(), _response(rx, src, body, f, r_l=grid)[1].tolist()))
    trace.extend(grid_vals)
    lo_ok = bracket[0] * (1.0 - 2.0 * _LOAD_REL_TOL)
    hi_ok = bracket[1] * (1.0 + 2.0 * _LOAD_REL_TOL)
    if any(v > y_best and not lo_ok <= r <= hi_ok for r, v in grid_vals):
        fallback = True
        fine = np.geomspace(lo, hi, 256)
        fine_vals = list(zip(fine.tolist(), _response(rx, src, body, f, r_l=fine)[1].tolist()))
        trace.extend(fine_vals)
        k = max(range(len(fine_vals)), key=lambda i: fine_vals[i][1])
        lo_k = fine_vals[max(k - 1, 0)][0]
        hi_k = fine_vals[min(k + 1, len(fine_vals) - 1)][0]
        golden_section_max(power, lo_k, hi_k, rel_tol=_LOAD_REL_TOL, trace=trace)

    argmax, objective = max(trace, key=lambda t: t[1])
    constraint = None
    if argmax == lo:
        constraint = "lower bound"
    elif argmax == hi:
        constraint = "upper bound"
    return OptimizationResult(
        argmax=argmax,
        objective_at_argmax=objective,
        constraint_active=constraint is not None,
        constraint_name=constraint,
        trace=trace,
        used_grid_fallback=fallback,
    )


def optimal_inductor(rx: ReceiverParams, f_target: float) -> float:
    """Series inductance resonating the receiver's parasitics at ``f_target``:
    L = 1 / ((2*pi*f_target)^2 * (C_ret + C_GB))."""
    if not f_target > 0.0:
        raise ValueError(f"f_target must be > 0, got {f_target!r}")
    c_total = rx.c_ret + rx.c_gb
    return 1.0 / ((TWO_PI * f_target) ** 2 * c_total)


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
    says so.
    """
    if not f > 0.0:
        raise ValueError(f"frequency must be > 0, got {f!r}")
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

    power = _load_power(rx, src, body, f)

    def load_current(r_l: float) -> float:
        return float(abs(_response(rx, src, body, f, r_l=r_l)[0]) / r_l)

    grid = np.geomspace(lo, hi, 128)
    v_o, powers = _response(rx, src, body, f, r_l=grid)
    currents = np.abs(v_o) / grid
    # numpy rounds a 0-d kernel evaluation and the same point inside an array
    # apart (by an ulp), and the root search below evaluates scalars: grid
    # points that close to the limit take the scalar value, so the bracket
    # found below always changes sign.
    for k in np.flatnonzero(np.abs(currents - i_limit) <= 1e-12 * i_limit):
        currents[k] = load_current(float(grid[k]))
    feasible = currents <= i_limit
    if not feasible.any():
        k = int(np.argmin(currents))
        raise InfeasibleError(
            f"no load in [{lo:.4g}, {hi:.4g}] ohm keeps the load current under "
            f"{i_limit:.4g} A rms; closest is {grid[k]:.4g} ohm drawing "
            f"{currents[k]:.4g} A rms",
            candidate=float(grid[k]),
            violation=float(currents[k] - i_limit),
        )

    if feasible.all():
        if rx.r_s == 0.0:
            raise UnboundedObjectiveError(
                "current limit never binds on these bounds and the receiver is "
                "lossless (r_s = 0), so the objective is unbounded; see optimal_load"
            )
        result = optimal_load(rx, src, body, f, bounds)
        result.constraint_active = False
        result.constraint_name = None
        return result

    # Load current falls with R_L here, so the feasible set is [r_c, hi].
    suffix_ok = bool(np.all(np.diff(feasible.astype(int)) >= 0))
    if suffix_ok:
        first = int(np.argmax(feasible))
        if first == 0:
            r_c = lo
        else:
            r_c = _brent_root(lambda r: load_current(r) - i_limit, grid[first - 1], grid[first])
        trace: list = []
        golden_section_max(power, r_c, hi, rel_tol=_LOAD_REL_TOL, trace=trace)
        argmax, objective = max(trace, key=lambda t: t[1])
        active = argmax == r_c
        return OptimizationResult(
            argmax=argmax,
            objective_at_argmax=objective,
            constraint_active=active,
            constraint_name="load-current" if active else None,
            trace=trace,
            used_grid_fallback=False,
        )

    # Scattered feasibility (exotic load networks): best feasible grid cell.
    trace = list(zip(grid[feasible].tolist(), powers[feasible].tolist()))
    k = max(range(len(trace)), key=lambda i: trace[i][1])
    argmax, objective = trace[k]
    near_limit = bool(currents[feasible][k] >= 0.999 * i_limit)
    return OptimizationResult(
        argmax=argmax,
        objective_at_argmax=objective,
        constraint_active=near_limit,
        constraint_name="load-current" if near_limit else None,
        trace=trace,
        used_grid_fallback=True,
    )


def multi_receiver_power(
    receivers: Sequence[ReceiverParams], src: SourceModel, body: BodyModel
) -> list:
    """Each receiver evaluated at its own resonant frequency.

    Receivers are treated as independent: a branch's impedance at resonance
    is normally far above the body-to-ground impedance, so it barely loads
    the body potential.  ``joint_loading_check`` quantifies that assumption.
    """
    return [received_power(rx, src, body, resonant_frequency(rx)) for rx in receivers]


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
    if np.any(freqs <= 0.0) or np.any(np.diff(freqs) <= 0.0):
        raise ValueError("freqs must be positive and strictly increasing")
    if not c_ret_tx > 0.0:
        raise ValueError(f"c_ret_tx must be > 0, got {c_ret_tx!r}")
    if not q >= 1.0:
        raise ValueError(f"q must be >= 1, got {q!r}")

    f0 = resonant_frequency(rx)
    h_m2w = np.abs(transfer_function(rx, freqs))
    w2w_factor = c_ret_tx / (body.c_b + c_ret_tx)
    h_w2w = w2w_factor * h_m2w
    bandpass = 1.0 / np.sqrt(1.0 + q**2 * (freqs / f0 - f0 / freqs) ** 2)
    h_w2w_res = h_w2w * q * bandpass

    c_ret_m2m = 1000.0 * rx.c_gb if rx.c_gb > 0.0 else rx.c_ret
    rx_m2m = replace(rx, c_ret=c_ret_m2m)
    rx_m2m = replace(rx_m2m, l=optimal_inductor(rx_m2m, f0))
    h_m2m = np.abs(transfer_function(rx_m2m, freqs))

    def curve(name: str, gain: np.ndarray) -> TopologyCurve:
        return TopologyCurve(
            topology=name, frequencies=freqs, gain_db=20.0 * np.log10(gain)
        )

    return [
        curve("M2M", h_m2m),
        curve("M2W", h_m2w),
        curve("W2W", h_w2w),
        curve("W2W-resonant", h_w2w_res),
    ]
