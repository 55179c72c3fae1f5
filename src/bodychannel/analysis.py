"""Sweep tables, resonance detection, Q estimation, sensitivities, and
least-squares calibration of channel parameters.

A :class:`SweepResult` is the common currency: closed-form frequency
sweeps carry the circuit they were simulated from, whose power peak is a
closed form; other sweeps and imported measurement tables locate the peak
by interpolation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Sequence

import numpy as np

from . import acnet
from .channel import (
    TWO_PI,
    BodyModel,
    NonResonantReceiverError,
    ReceiverParams,
    SourceModel,
    GroundedTx,
    _body_potential,
    _on_scalars,
    _peak_frequency,
    _power_and_log_gradient,
    _require_finite,
    _require_range,
    _resonance,
    _response,
    channel_response,
    resonant_frequency,
    transfer_function,
    v_in_rms,
)

AXES = ("frequency", "load", "inductance", "input_voltage")

#: CSV-friendly axis labels with units, shared with the cli module.
AXIS_LABEL = {
    "frequency": "frequency[Hz]",
    "load": "load[ohm]",
    "inductance": "inductance[H]",
    "input_voltage": "input_voltage[V]",
}


class AmbiguousPeakError(ValueError):
    """More than one interior local maximum rises above the noise floor."""

    def __init__(self, message: str, candidates):
        super().__init__(message)
        self.candidates = candidates


class WindowTruncationWarning(UserWarning):
    """The extremum sits on the sweep window edge; the window truncates it."""


class WindowTruncationError(ValueError):
    """A required feature (e.g. half-power crossing) lies outside the window."""


class InconsistentMeasurementError(ValueError):
    """Measured values imply a physically impossible channel gain (> 1)."""


class IdentifiabilityError(ValueError):
    """The requested free parameters cannot be determined from the data."""


@dataclass
class SweepResult:
    """One observable swept along one axis.

    ``values`` must be strictly increasing; ``p_out_rms`` is nonnegative.
    ``v_o`` holds complex rms load voltages, or None for power-only data
    (e.g. imported two-column CSVs).  ``circuit`` is the ``(rx, src, body)``
    a closed-form frequency sweep was simulated from, or None.
    """

    axis: str
    values: np.ndarray
    p_out_rms: np.ndarray
    v_o: Optional[np.ndarray] = None
    circuit: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; expected one of {AXES}")
        self.values = np.asarray(self.values, dtype=float)
        self.p_out_rms = np.asarray(self.p_out_rms, dtype=float)
        if self.values.ndim != 1 or self.values.shape != self.p_out_rms.shape:
            raise ValueError("values and p_out_rms must be 1-d arrays of equal length")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")
        _require_finite("p_out_rms", self.p_out_rms, self.values, self.axis)
        if np.any(np.diff(self.values) <= 0.0):
            raise ValueError("axis values must be strictly increasing")
        if np.any(self.p_out_rms < 0.0):
            raise ValueError("powers must be >= 0")
        if self.v_o is not None:
            self.v_o = np.asarray(self.v_o, dtype=complex)
            if self.v_o.shape != self.values.shape:
                raise ValueError("v_o must match the axis length")
            _require_finite("v_o", self.v_o, self.values, self.axis)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def power_only(self) -> bool:
        return self.v_o is None


def simulate(
    axis: str, rx: ReceiverParams, src: SourceModel, body: BodyModel, values, f=None, mna=False
) -> SweepResult:
    """Channel response along one sweep axis, closed form or node-level (MNA).

    ``f`` is the fixed frequency of the load and input-voltage axes; the
    inductance axis evaluates each inductance at the resonant frequency it
    produces; input voltages are in the source's own convention.  A
    closed-form frequency sweep carries ``(rx, src, body)`` as its
    ``circuit``.  Both backends run one kernel with one signature:
    ``channel._response`` for the closed form, ``acnet._response`` for the
    node-level solve (``mna=True``), which stamps the netlist once.

    The inputs are checked once, before either backend runs, so both raise
    the same error: every axis value, and a fixed ``f``, must be finite and
    > 0 (:class:`NonResonantReceiverError` for an inductance <= 0); a result
    past double precision raises ``NonFiniteResultError`` naming its axis value.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        freqs, swept = _sweep_points(axis, rx, values, f)
        # A fixed f of the load and drive axes becomes a one-point array, so
        # the whole sweep computes in numpy arrays, inside this errstate.
        freqs = np.array(freqs, dtype=float, ndmin=1)
        v_o, p = (acnet._response if mna else _response)(rx, src, body, freqs, **swept)
    circuit = (rx, src, body) if axis == "frequency" and not mna else None
    return SweepResult(axis=axis, values=values, p_out_rms=p, v_o=v_o, circuit=circuit)


def simulate_frequency_sweep(
    rx: ReceiverParams, src: SourceModel, body: BodyModel, freqs
) -> SweepResult:
    """Closed-form frequency sweep, circuit attached."""
    return simulate("frequency", rx, src, body, freqs)


def _sweep_points(axis: str, rx: ReceiverParams, values: np.ndarray, f) -> tuple:
    """Per-point frequencies of a sweep along ``axis``, and the
    ``channel._response`` keyword that carries the swept values.  This is
    the sweep's one input check, shared by both backends."""
    if axis not in AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {AXES}")
    if axis == "inductance" and np.any(values <= 0.0):
        raise NonResonantReceiverError(
            "an inductance sweep needs every l > 0; l = 0 has no resonant frequency"
        )
    _require_range(f"every {axis} value", values)
    if axis == "frequency":
        return values, {}
    if axis == "inductance":
        freqs = _resonance(values, rx.c_ret + rx.c_gb)  # an underflowing L*C gives inf
        _require_range("the resonant frequency of every inductance", freqs)
        return freqs, {"l": values}
    if f is None:
        raise ValueError(f"a sweep along {axis!r} needs a fixed frequency f")
    _require_range(f"the fixed frequency f of the {axis} sweep", f)
    return f, {"r_l" if axis == "load" else "v_in": values}


def find_resonant_peak(sweep: SweepResult) -> tuple:
    """Locate the power peak of a frequency sweep.

    When the sweep carries its ``circuit``, the peak is the closed-form
    maximum of that circuit's power (see ``channel._peak_frequency``), and
    a circuit whose power rises monotonically has its peak on the upper
    window edge.  Otherwise the grid argmax is refined by parabolic
    interpolation through the top three grid points.  Interior local maxima
    whose prominence exceeds 1e-6 times the peak power make the peak
    ambiguous; a peak on the window edge only warns (the window truncates
    the resonance).
    Returns ``(axis_value_at_peak, power_at_peak)``.
    """
    if len(sweep) < 5:
        raise ValueError(f"need at least 5 rows to locate a peak, got {len(sweep)}")
    x = sweep.values
    p = sweep.p_out_rms
    f_peak = None if sweep.circuit is None else _peak_frequency(sweep.circuit[0])
    if sweep.circuit is not None and f_peak is None:
        # The power rises monotonically: an interior grid argmax is a top
        # flat to round-off, so the peak is the upper edge.
        i = len(sweep) - 1
    else:
        i = int(np.argmax(p))  # ties resolve to the lowest axis value
    if i == 0 or i == len(sweep) - 1:
        warnings.warn(
            WindowTruncationWarning(
                f"power extremum sits at the window edge ({x[i]:.6g}); "
                "no interior peak in the scanned range"
            ),
            stacklevel=2,
        )
        return float(x[i]), float(p[i])

    peaks = _prominent_peaks(p, 1e-6 * p[i])
    if len(peaks) > 1:
        candidates = [(float(x[j]), float(p[j])) for j in peaks]
        raise AmbiguousPeakError(
            f"{len(peaks)} local maxima above the noise floor: {candidates}",
            candidates=candidates,
        )

    if f_peak is not None:
        rx, src, body = sweep.circuit
        return f_peak, _on_scalars("p_out_rms", f_peak, _response, rx, src, body, f_peak)[1]
    return _parabolic_vertex(x[i - 1 : i + 2], p[i - 1 : i + 2])


def _prominent_peaks(p: np.ndarray, min_prominence: float) -> list:
    """Indices of the interior local maxima of ``p`` whose topographic
    prominence is at least ``min_prominence``, in increasing order.

    A flat-topped maximum counts once, at the middle of its plateau
    (rounded down).  The prominence of a peak of height h is h minus the
    higher of the two lowest samples found by walking left and right from
    it until a strictly higher sample or the border.  This is the
    definition of ``scipy.signal.find_peaks(p, prominence=min_prominence)``.
    """
    # Nonzero steps only: a rise followed by a fall (with any run of equal
    # samples between them) brackets one maximum or plateau [left, right].
    d = np.diff(p)
    steps = np.flatnonzero(d)
    rises = d[steps] > 0.0
    tops = np.flatnonzero(rises[:-1] & ~rises[1:])
    if not tops.size:
        return []
    lefts = (steps[tops] + 1).tolist()
    rights = steps[tops + 1].tolist()
    peaks = [(a + b) // 2 for a, b in zip(lefts, rights)]
    heights = p[peaks].tolist()
    # A walk from a peak first meets a strictly higher sample on the flank of
    # the nearest strictly higher peak, and every sample from that peak to
    # there is higher still, so each side's lowest sample is the minimum up
    # to that peak (or the border).  One reduceat takes every minimum.
    before = _nearest_higher(peaks, heights, -1)
    after = _nearest_higher(peaks[::-1], heights[::-1], len(p))[::-1]
    bounds = []
    for b, left, right, a in zip(before, lefts, rights, after):
        bounds += (b + 1, left, right + 1, a)
    mins = np.minimum.reduceat(np.append(p, np.inf), bounds).tolist()
    return [
        k
        for k, h, lo, hi in zip(peaks, heights, mins[0::4], mins[2::4])
        if h - max(lo, hi) >= min_prominence
    ]


def _nearest_higher(peaks: list, heights: list, border: int) -> list:
    """For each peak in order, the position of the nearest earlier peak that
    is strictly higher, or ``border`` when there is none (a monotone stack)."""
    found, stack = [], []
    for k, h in zip(peaks, heights):
        while stack and stack[-1][1] <= h:
            stack.pop()
        found.append(stack[-1][0] if stack else border)
        stack.append((k, h))
    return found


def _parabolic_vertex(x3, p3) -> tuple:
    x0, x1, x2 = (float(v) for v in x3)
    p0, p1, p2 = (float(v) for v in p3)
    denom = (x1 - x0) * (p1 - p2) - (x1 - x2) * (p1 - p0)
    if denom == 0.0:
        return x1, p1
    xv = x1 - 0.5 * ((x1 - x0) ** 2 * (p1 - p2) - (x1 - x2) ** 2 * (p1 - p0)) / denom
    # Quadratic through the three points, evaluated at the vertex.
    l0 = (xv - x1) * (xv - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xv - x0) * (xv - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xv - x0) * (xv - x1) / ((x2 - x0) * (x2 - x1))
    return xv, p0 * l0 + p1 * l1 + p2 * l2


def fit_total_capacitance(l: float, f_peak: float) -> float:
    """Invert the resonance relation: C_ret + C_GB = 1 / (L * (2*pi*f_peak)^2)."""
    _require_range("l", l)
    _require_range("f_peak", f_peak)
    w = 2.0 * math.pi * f_peak
    return 1.0 / (l * w * w)


def capacitance_ratio_from_power(p_rms: float, r_l: float, v_b_rms: float) -> float:
    """Infer rho = C_GB / C_ret from the resonant power into a known load.

    The implied gain g = sqrt(P * R_L) / V_B must not exceed 1; at resonance
    the lossless channel can at best deliver the body potential.
    """
    for name, value in (("p_rms", p_rms), ("r_l", r_l), ("v_b_rms", v_b_rms)):
        _require_range(name, value)
    gain = math.sqrt(p_rms * r_l) / v_b_rms
    if gain > 1.0:
        raise InconsistentMeasurementError(
            f"implied resonant gain {gain:.6g} exceeds 1; the measured power is "
            "inconsistent with the stated body potential and load"
        )
    return 1.0 / gain - 1.0


FIT_PARAMETERS = ("c_ret", "c_gb", "r_s", "l")

#: Stop tests of :func:`fit_params` beside the step (xtol) test, after
#: MINPACK's lmder (More, 1978).  gtol bounds the largest cosine between the
#: residual and a Jacobian column, ftol the relative SSE decrease of an
#: accepted step and the one the Gauss-Newton step predicts.  Both sit far
#: below the noise of a measured sweep: on fits of 0.1%-noise data, stopping
#: on them left the fitted values within 6e-10 relative of running on to the
#: step test.
_GTOL = 1e-8
_FTOL = 1e-10
#: A Jacobian column whose rms log-log sensitivity is at or below this is
#: "insensitive", even when it is the only column.  It is the resolution of a
#: central difference with a 1e-6 log step (eps*|log P|/h, about 2e-9).
_INSENSITIVE_RMS = 1e-8


@dataclass
class FitReport:
    """Outcome of a least-squares calibration.

    ``residual_rms`` is in watts (the fitted observable); the minimized
    objective itself is the sum of squared log-power residuals.
    """

    fitted_params: dict
    residual_rms: float
    iterations: int
    converged: bool


def fit_params(
    observed: SweepResult,
    free: Sequence[str],
    rx: ReceiverParams,
    src: SourceModel,
    body: BodyModel,
) -> FitReport:
    """Calibrate receiver parameters against an observed frequency sweep.

    Minimizes the sum of squared log-power residuals (measured powers span
    decades; log space keeps the largest point from dominating) with a
    damped Gauss-Newton (Levenberg-Marquardt) iteration.  Free parameters
    are optimized in log space, which enforces positivity.  Each trial step
    costs one closed-form evaluation, which returns the powers together with
    their analytic gradient d log P / d theta (``channel._power_and_log_gradient``),
    which times the trial's field values is the log-log Jacobian; an
    accepted trial's Jacobian serves the next iteration.  Each iteration
    factors its Jacobian once, by one thin SVD of the column-scaled
    J/|columns| = U*diag(s)*Vt, and forms no normal equations: the damped
    step for damping lam is -V*(s/(s^2 + lam) * U'r)/|columns|, the solution
    of (J'J + lam*diag(J'J))*delta = -J'r.  A trial whose log step overflows
    ``math.exp``, whose kernel overflows (a power that is 0 or not finite,
    or a Jacobian that is not finite; numpy's warning stays inside), or that
    does not lower the SSE, is rejected and the damping grows tenfold, up to
    25 trials per iteration.

    The fit converges, before any trial of an iteration, when the residual
    is orthogonal to every Jacobian column to a cosine of 1e-8 (gtol), or
    when the full Gauss-Newton step predicts an SSE decrease |U'r|^2 of at
    most 1e-10 of the SSE: the relative-offset criterion of Bates & Watts
    (Technometrics 23(2), 1981), with which a fit at the noise floor spends
    no trial confirming it.  It also converges when an accepted step lowers
    the SSE by at most 1e-10 relative (ftol), when a log-space step is below
    1e-10 (xtol) or when the SSE falls below 1e-28.  It gives up, with
    ``converged=False``, when no trial is accepted or after 200 iterations.
    Each accepted point must be identifiable: a parameter whose rms log-log
    sensitivity is at most 1e-8 raises :class:`IdentifiabilityError`, as
    does a rank-deficient column-scaled Jacobian.

    ``rx`` supplies the fixed parameters and a starting point for the free
    ones.  The fit starts instead from the linear least-squares solution of
    the resonance (``_linear_start``) when that fits the data better, which
    costs one more closed-form evaluation and one SVD.
    """
    free = list(free)
    if not free:
        raise ValueError("free parameter list is empty")
    for name in free:
        if name not in FIT_PARAMETERS:
            raise ValueError(f"unknown fit parameter {name!r}; expected from {FIT_PARAMETERS}")
    if observed.axis != "frequency":
        raise ValueError(f"fit_params needs a frequency sweep, got axis {observed.axis!r}")
    if len(observed) < 2 * len(free):
        raise IdentifiabilityError(
            f"{len(observed)} observation(s) cannot constrain {len(free)} free "
            f"parameter(s) {free}; need at least {2 * len(free)} rows"
        )
    _require_range("every observed power", observed.p_out_rms)  # the fit is in log space
    freqs = observed.values
    _require_range("every observed frequency", freqs)

    theta = []
    for name in free:
        start = getattr(rx, name)
        if not start > 0.0:
            raise ValueError(f"free parameter {name!r} needs a positive starting value")
        theta.append(math.log(start))

    log_p_obs = np.log(observed.p_out_rms)
    fields = vars(rx)  # a new receiver per trial, without dataclasses.replace's overhead

    def evaluate(t: list):
        """Model powers, log residuals and their Jacobian at log-parameters
        ``t``, or None for a step past ``math.exp``'s range, to a power that
        is 0 or not finite (whose log residual is undefined) or to a
        Jacobian that is not finite (a kernel that overflows there)."""
        try:
            values = list(map(math.exp, t))
        except OverflowError:
            return None
        r = ReceiverParams(**{**fields, **dict(zip(free, values))})
        with np.errstate(over="ignore", invalid="ignore"):
            p, jac = _power_and_log_gradient(r, src, body, freqs, free)
            jac *= values  # d log P / d log theta = theta * d log P / d theta
        if not (0.0 < p.min() <= p.max() < math.inf and np.isfinite(jac).all()):
            return None
        return p, np.log(p) - log_p_obs, jac

    at_start = evaluate(theta)
    if at_start is None:
        raise ValueError("the model power at the starting point is 0 or not finite")
    p, r, j = at_start
    sse = float(r @ r)
    linear = _linear_start(freqs, observed.p_out_rms, free, rx, src, body)
    if linear is not None:
        t = [math.log(x) for x in linear]
        out = evaluate(t)
        if out is not None and (sse_linear := float(out[1] @ out[1])) < sse:
            theta, (p, r, j), sse = t, out, sse_linear
    lam = 1e-3
    iterations = 0
    converged = False
    for _ in range(200):
        norms, u, s, vt = _check_identifiable(j, free)
        # With the column-scaled J/norms = U*diag(s)*Vt, the Marquardt
        # system (J'J + lam*diag(J'J))*delta = -J'r is diagonal in the
        # singular basis, so every trial step is a few float products.
        ur = (r @ u).tolist()
        s = s.tolist()
        v = list(zip(*vt.tolist()))  # rows of V
        norms = norms.tolist()
        # Converged before any trial: the full Gauss-Newton step predicts an
        # SSE decrease |U'r|^2 of at most ftol of the SSE, or the scaled
        # gradient (J/norms)'r = V*(s*U'r) is within gtol of sqrt(SSE).
        sur = list(map(mul, s, ur))
        gtol = _GTOL * math.sqrt(sse)
        if sum(map(mul, ur, ur)) <= _FTOL * sse or all(
            abs(sum(map(mul, row, sur))) <= gtol for row in v
        ):
            converged = True
            break
        accepted = small_step = small_gain = False
        for _ in range(25):
            c = [a * b / (a * a + lam) for a, b in zip(s, ur)]
            delta = [-sum(map(mul, row, c)) / n for row, n in zip(v, norms)]
            small_step = max(abs(x) for x in delta) < 1e-10
            trial = [t + x for t, x in zip(theta, delta)]
            out = evaluate(trial)
            if out is None:
                lam *= 10.0
                continue
            p_trial, r_trial, j_trial = out
            sse_trial = float(r_trial @ r_trial)
            if sse_trial < sse:
                small_gain = sse - sse_trial <= _FTOL * sse
                theta, p, r, j, sse = trial, p_trial, r_trial, j_trial, sse_trial
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            if small_step:  # more damping only shortens it: the SSE is flat to round-off
                break
            lam *= 10.0
        iterations += 1
        if small_step or small_gain or sse < 1e-28:
            converged = True
            break
        if not accepted:
            break

    return FitReport(
        fitted_params={name: math.exp(x) for name, x in zip(free, theta)},
        residual_rms=float(np.sqrt(np.mean((p - observed.p_out_rms) ** 2))),
        iterations=iterations,
        converged=converged,
    )


def _linear_start(
    freqs: np.ndarray,
    p_obs: np.ndarray,
    free: list,
    rx: ReceiverParams,
    src: SourceModel,
    body: BodyModel,
) -> Optional[list]:
    """The ``free`` fields' values at the linear least-squares fit of the
    resonance to observed powers ``p_obs`` at ``freqs``, or None where that
    fit gives none.

    With C_L = 0, k = 1 + C_GB/C_ret, alpha = k*(r_s + R_L), beta = k*L and
    gamma = 1/C_ret, the channel gives y = |V_B|^2*R_L/P = |D|^2 =
    c0 + c1*w^2 + c2/w^2 with c0 = alpha^2 - 2*beta*gamma, c1 = beta^2 and
    c2 = gamma^2, which is linear in the three coefficients (Levy, IRE
    Trans. AC-4, 1959; Sanathanan & Koerner, IEEE Trans. AC-8, 1963).  Each
    row of [1, w^2, w^-2] and of the target is divided by the observed y, so
    a residual is a relative error, the fit's log residual to first order;
    the rows, each column scaled by its largest entry, are solved by one
    thin SVD.  The data pins only C_ret, k*L and k*(r_s + R_L): k comes from
    the fixed C_GB, else from beta/L when L is fixed and > 0, else from
    alpha/(r_s + R_L) when r_s is fixed, so C_GB, r_s and L are never
    recovered together.  With C_L > 0 the same map is an approximation,
    which the fit keeps only when it lowers the SSE.

    None for fewer than 3 rows, a rank-deficient design, c1, c2 or alpha^2
    not > 0, or a value that is not finite and > 0.
    """
    if len(freqs) < 3:
        return None
    with np.errstate(all="ignore"):
        w2 = (TWO_PI * freqs) ** 2
        v_b = _body_potential(src, body, v_in_rms(src))
        inv_y = p_obs / (v_b * v_b * rx.r_l)
        a = np.stack((inv_y, inv_y * w2, inv_y / w2), axis=1)
        scale = a.max(axis=0)  # every entry is >= 0; unlike a 2-norm, this cannot overflow
        if not (np.isfinite(a).all() and np.all(scale > 0.0)):
            return None
        u, s, vt = np.linalg.svd(a / scale, full_matrices=False)
        if not s[-1] > 1e-10 * s[0]:
            return None
        c0, c1, c2 = vt.T @ (u.sum(axis=0) / s) / scale
        if not (c1 > 0.0 and c2 > 0.0):
            return None
        beta, gamma = np.sqrt(c1), np.sqrt(c2)
        alpha2 = c0 + 2.0 * beta * gamma
        if not alpha2 > 0.0:
            return None
        alpha = np.sqrt(alpha2)
        c_ret = 1.0 / gamma if "c_ret" in free else rx.c_ret
        if "c_gb" not in free:
            k = 1.0 + rx.c_gb / c_ret
        elif "l" not in free and rx.l > 0.0:
            k = beta / rx.l
        elif "r_s" not in free:
            k = alpha / (rx.r_s + rx.r_l)
        else:
            return None
        value = {
            "c_ret": c_ret,
            "c_gb": (k - 1.0) * c_ret,
            "l": beta / k,
            "r_s": alpha / k - rx.r_l,
        }
        values = [float(value[name]) for name in free]
    return values if all(0.0 < x < math.inf for x in values) else None


def _check_identifiable(j: np.ndarray, free: list) -> tuple:
    """Reject a Jacobian ``j`` (one column per ``free`` parameter) with a
    column at the insensitivity floor or a column-scaled ``j`` below rank,
    naming a parameter the data does not move, else the most nearly
    collinear pair of parameters.  Returns the column norms and the thin
    SVD ``(U, s, Vt)`` of ``j`` divided by them."""
    norms = np.sqrt(np.einsum("ij,ij->j", j, j))
    k = int(norms.argmin())
    if norms[k] <= _INSENSITIVE_RMS * math.sqrt(len(j)):
        raise IdentifiabilityError(f"the data is insensitive to parameter {free[k]!r}")
    scaled = j / norms
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    if s[-1] > 1e-10 * s[0]:
        return norms, u, s, vt
    cos = np.abs(scaled.T @ scaled)
    np.fill_diagonal(cos, 0.0)
    a, b = np.unravel_index(np.argmax(cos), cos.shape)
    raise IdentifiabilityError(
        f"parameters {free[a]!r} and {free[b]!r} are collinear in this "
        "sweep and cannot be fitted jointly"
    )


@dataclass(frozen=True)
class Sensitivity:
    """The closed-form partial derivative of a channel target with respect to
    one parameter; ``analytic`` repeats ``value``."""

    value: float
    analytic: float


def sensitivity(
    rx: ReceiverParams,
    target: str,
    param: str,
    f: Optional[float] = None,
    src: Optional[SourceModel] = None,
    body: Optional[BodyModel] = None,
) -> Sensitivity:
    """d(target)/d(param) at the receiver's current operating parameters.

    Targets: ``"f0"`` (resonant frequency), ``"gain"`` (resonant gain), or
    ``"power"`` (received power at ``f``, which also needs ``src`` and
    ``body``).  Each is a closed form; the power's is P * d log P / d theta,
    from the kernel's analytic gradient (``channel._power_and_log_gradient``),
    for every field and every value, 0 included (``NonFiniteResultError`` if not finite).
    """
    if target not in ("f0", "gain", "power"):
        raise ValueError(f"unknown target {target!r}")
    if param not in ReceiverParams.__dataclass_fields__:
        raise ValueError(f"unknown receiver parameter {param!r}")

    c_total = rx.c_ret + rx.c_gb
    if target == "power":
        if f is None or src is None or body is None:
            raise ValueError("target 'power' needs f, src, and body")
        _require_range("frequency", f)
        with np.errstate(all="ignore"):
            p, g = _power_and_log_gradient(rx, src, body, np.array([f], dtype=float), (param,))
        value = float(p[0] * g[0, 0])
        _require_finite(f"d p_out_rms / d {param}", value, f)
    elif target == "f0":
        # f0 is proportional to (L * (C_ret + C_GB))**-0.5.
        f0 = resonant_frequency(rx)
        scale = {"l": rx.l, "c_ret": c_total, "c_gb": c_total}.get(param)
        value = 0.0 if scale is None else -f0 / (2.0 * scale)
    else:
        # gain = C_ret / (C_ret + C_GB)
        value = {"c_ret": rx.c_gb, "c_gb": -rx.c_ret}.get(param, 0.0) / c_total**2
    return Sensitivity(value=value, analytic=value)


@dataclass(frozen=True)
class QFactorEstimate:
    """Resonance sharpness f_peak / (f_hi - f_lo) from half-power crossings.

    ``lower_bound`` is set when the half-power span collapses toward the
    grid resolution, in which case the true Q is at least this large.
    """

    q: float
    lower_bound: bool


def q_factor(sweep: SweepResult) -> QFactorEstimate:
    """Quality factor of a resonant power sweep.

    The two half-power (-3 dB) crossings are located by linear interpolation
    between grid rows; both must lie inside the window.
    """
    x = sweep.values
    p = sweep.p_out_rms
    i = int(np.argmax(p))
    if i == 0 or i == len(sweep) - 1:
        raise WindowTruncationError(
            "power peak sits on the window edge; half-power crossings are outside"
        )
    half = p[i] / 2.0
    # The nearest row at or below half power on each side of the peak.
    below_lo = np.flatnonzero(p[:i] <= half)
    below_hi = np.flatnonzero(p[i + 1 :] <= half)
    if not (below_lo.size and below_hi.size):
        raise WindowTruncationError(
            "half-power crossing lies outside the swept window; widen the sweep"
        )

    def crossing(a: int, b: int) -> float:
        """Linear interpolation of the half-power point between rows a and b."""
        return float(x[a] + (half - p[a]) * (x[b] - x[a]) / (p[b] - p[a]))

    f_lo = crossing(below_lo[-1] + 1, below_lo[-1])
    f_hi = crossing(i + below_hi[0], i + 1 + below_hi[0])
    span = f_hi - f_lo
    step_local = max(x[i] - x[i - 1], x[i + 1] - x[i])
    return QFactorEstimate(q=float(x[i] / span), lower_bound=bool(span < 2.0 * step_local))


def oracle_gap(rx: ReceiverParams, freqs) -> np.ndarray:
    """Relative disagreement between the closed-form transfer function and
    the node-level solve of the same receiver, per frequency.

    Uses a unit grounded source with no series resistances, so the two paths
    model the identical circuit and should agree to solver precision.
    """
    src = GroundedTx(v_in=1.0, convention="rms")
    body = BodyModel(c_b=100e-12)
    freqs = np.asarray(freqs, dtype=float)
    h_mna = acnet._response(rx, src, body, freqs)[0]
    return np.abs(transfer_function(rx, freqs) - h_mna) / np.abs(h_mna)


def approximation_gap(
    rx: ReceiverParams, src: SourceModel, body: BodyModel, freqs
) -> np.ndarray:
    """Relative power difference (closed form minus full netlist) per frequency.

    The closed form ignores source and tissue resistance drops (and the
    resonant wearable's small-ratio divider); the netlist includes them.
    This makes the size of those approximations visible instead of hidden.
    """
    freqs = np.asarray(freqs, dtype=float)
    _, p_closed = channel_response(rx, src, body, freqs)
    p_mna = acnet._response(rx, src, body, freqs)[1]
    return (p_closed - p_mna) / p_mna
