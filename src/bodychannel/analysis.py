"""Sweep tables, resonance detection, Q estimation, sensitivities, and
least-squares calibration of channel parameters.

A :class:`SweepResult` is the common currency: simulated sweeps carry an
attached continuous model (used to refine peak locations); imported
measurement tables do not and fall back to interpolation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import acnet
from .channel import (
    TWO_PI,
    BodyModel,
    NonResonantReceiverError,
    ReceiverParams,
    SourceModel,
    GroundedTx,
    _response,
    channel_response,
    received_power,
    resonant_frequency,
    resonant_gain,
    transfer_function,
)
from .optimize import golden_section_max_bracketed

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
    (e.g. imported two-column CSVs).  ``model`` is an optional continuous
    axis -> power callable attached by the simulators.
    """

    axis: str
    values: np.ndarray
    p_out_rms: np.ndarray
    v_o: Optional[np.ndarray] = None
    model: Optional[Callable[[float], float]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; expected one of {AXES}")
        self.values = np.asarray(self.values, dtype=float)
        self.p_out_rms = np.asarray(self.p_out_rms, dtype=float)
        if self.values.ndim != 1 or self.values.shape != self.p_out_rms.shape:
            raise ValueError("values and p_out_rms must be 1-d arrays of equal length")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")
        if not np.isfinite(self.p_out_rms).all():
            raise ValueError("p_out_rms must be finite")
        if np.any(np.diff(self.values) <= 0.0):
            raise ValueError("axis values must be strictly increasing")
        if np.any(self.p_out_rms < 0.0):
            raise ValueError("powers must be >= 0")
        if self.v_o is not None:
            self.v_o = np.asarray(self.v_o, dtype=complex)
            if self.v_o.shape != self.values.shape:
                raise ValueError("v_o must match the axis length")
            if not np.isfinite(self.v_o).all():
                raise ValueError("v_o must be finite")

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
    produces; input voltages are in the source's own convention.  The closed
    form attaches a continuous axis -> power model.  With ``mna=True`` the
    netlist is stamped once and the swept element takes one value per point.
    """
    values = np.asarray(values, dtype=float)
    freqs, swept = _sweep_points(axis, rx, values, f)
    if mna:
        if axis == "inductance":
            rx = replace(rx, l=float(values[0]))  # the netlist needs an inductor to sweep
        net = acnet.build_channel_netlist(rx, src, body)
        element = per_point = None
        if axis == "load":
            element, per_point = _element_at(net, acnet.Kind.RESISTOR, net.output_probe), values
        elif axis == "inductance":
            element, per_point = _element_at(net, acnet.Kind.INDUCTOR), values
        elif axis == "input_voltage":
            # The source amplitude is linear in the drive voltage for every source kind.
            element = _element_at(net, acnet.Kind.VSOURCE)
            per_point = net.elements[element].value * (values / src.v_in)
        v_o = acnet.solve_many(net, freqs, element, per_point).probe_voltage
        p = np.abs(v_o) ** 2 / swept.get("r_l", rx.r_l)
        return SweepResult(axis=axis, values=values, p_out_rms=p, v_o=v_o)

    v_o, p = channel_response(rx, src, body, freqs, **swept)

    def model(x: float) -> float:
        fx, sx = _sweep_points(axis, rx, np.asarray(x, dtype=float), f)
        return float(_response(rx, src, body, fx, **sx)[1])

    return SweepResult(axis=axis, values=values, p_out_rms=p, v_o=v_o, model=model)


def simulate_frequency_sweep(
    rx: ReceiverParams, src: SourceModel, body: BodyModel, freqs
) -> SweepResult:
    """Closed-form frequency sweep, model attached."""
    return simulate("frequency", rx, src, body, freqs)


def _sweep_points(axis: str, rx: ReceiverParams, values: np.ndarray, f) -> tuple:
    """Per-point frequencies of a sweep along ``axis``, and the
    :func:`channel_response` keyword that carries the swept values."""
    if axis == "frequency":
        return values, {}
    if axis == "inductance":
        if not np.all(values > 0.0):
            raise NonResonantReceiverError(
                "an inductance sweep needs every l > 0; l = 0 has no resonant frequency"
            )
        return 1.0 / (TWO_PI * np.sqrt(values * (rx.c_ret + rx.c_gb))), {"l": values}
    if axis not in AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {AXES}")
    if f is None:
        raise ValueError(f"a sweep along {axis!r} needs a fixed frequency f")
    return f, {"r_l" if axis == "load" else "v_in": values}


def _element_at(net: acnet.Netlist, kind: acnet.Kind, nodes=None) -> int:
    """Index of the first element of ``kind`` (between ``nodes``, if given)."""
    return next(
        i
        for i, e in enumerate(net.elements)
        if e.kind is kind and (nodes is None or (e.node_a, e.node_b) == tuple(nodes))
    )


def find_resonant_peak(sweep: SweepResult) -> tuple:
    """Locate the power peak of a frequency sweep.

    The grid argmax is refined by golden-section search on the attached
    model when one exists, otherwise by parabolic interpolation through the
    top three grid points.  Interior local maxima whose prominence exceeds
    1e-6 times the peak power make the peak ambiguous; a peak on
    the window edge only warns (the window truncates the resonance).
    Returns ``(axis_value_at_peak, power_at_peak)``.
    """
    if len(sweep) < 5:
        raise ValueError(f"need at least 5 rows to locate a peak, got {len(sweep)}")
    x = sweep.values
    p = sweep.p_out_rms
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

    if sweep.model is not None:
        x_peak, p_peak, _ = golden_section_max_bracketed(
            sweep.model, float(x[i - 1]), float(x[i + 1]), rel_tol=1e-9
        )
        return x_peak, p_peak
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
    if not l > 0.0:
        raise ValueError(f"l must be > 0, got {l!r}")
    if not f_peak > 0.0:
        raise ValueError(f"f_peak must be > 0, got {f_peak!r}")
    w = 2.0 * math.pi * f_peak
    return 1.0 / (l * w * w)


def capacitance_ratio_from_power(p_rms: float, r_l: float, v_b_rms: float) -> float:
    """Infer rho = C_GB / C_ret from the resonant power into a known load.

    The implied gain g = sqrt(P * R_L) / V_B must not exceed 1; at resonance
    the lossless channel can at best deliver the body potential.
    """
    if not p_rms > 0.0:
        raise ValueError(f"p_rms must be > 0, got {p_rms!r}")
    gain = math.sqrt(p_rms * r_l) / v_b_rms
    if gain > 1.0:
        raise InconsistentMeasurementError(
            f"implied resonant gain {gain:.6g} exceeds 1; the measured power is "
            "inconsistent with the stated body potential and load"
        )
    return 1.0 / gain - 1.0


FIT_PARAMETERS = ("c_ret", "c_gb", "r_s", "l")


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
    damped Gauss-Newton iteration and a finite-difference Jacobian.  Free
    parameters are optimized in log space, which enforces positivity; the
    fit converges once a log-space step is below 1e-10 and gives up after
    200 iterations.

    ``rx`` supplies the fixed parameters and the starting point for the
    free ones.
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
    if np.any(observed.p_out_rms <= 0.0):
        raise ValueError("observed powers must be > 0 to fit in log space")
    freqs = observed.values
    if not freqs[0] > 0.0:  # the axis is increasing: the first is the lowest
        raise ValueError(f"observed frequency must be > 0, got {freqs[0]!r}")

    theta = np.empty(len(free))
    for j, name in enumerate(free):
        start = getattr(rx, name)
        if not start > 0.0:
            raise ValueError(f"free parameter {name!r} needs a positive starting value")
        theta[j] = math.log(start)

    log_p_obs = np.log(observed.p_out_rms)

    def model_power(t: np.ndarray) -> np.ndarray:
        r = replace(rx, **{name: math.exp(t[j]) for j, name in enumerate(free)})
        return _response(r, src, body, freqs)[1]

    def residual(t: np.ndarray) -> np.ndarray:
        return np.log(model_power(t)) - log_p_obs

    def jacobian(t: np.ndarray) -> np.ndarray:
        j = np.empty((len(freqs), len(free)))
        h = 1e-6
        for k in range(len(free)):
            up, dn = t.copy(), t.copy()
            up[k] += h
            dn[k] -= h
            j[:, k] = (residual(up) - residual(dn)) / (2.0 * h)
        return j

    r = residual(theta)
    sse = float(r @ r)
    lam = 1e-3
    iterations = 0
    converged = False
    for _ in range(200):
        j = jacobian(theta)
        _check_identifiable(j, free)
        jtj = j.T @ j
        jtr = j.T @ r
        accepted = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + delta
            try:
                r_trial = residual(trial)
            except OverflowError:  # a log-space step past exp's range is rejected
                lam *= 10.0
                continue
            sse_trial = float(r_trial @ r_trial)
            if sse_trial < sse:
                theta, r, sse = trial, r_trial, sse_trial
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        iterations += 1
        if not accepted:
            break
        if np.max(np.abs(delta)) < 1e-10 or sse < 1e-28:
            converged = True
            break

    p_model = model_power(theta)
    return FitReport(
        fitted_params={name: math.exp(theta[j]) for j, name in enumerate(free)},
        residual_rms=float(np.sqrt(np.mean((p_model - observed.p_out_rms) ** 2))),
        iterations=iterations,
        converged=converged,
    )


def _check_identifiable(j: np.ndarray, free: list) -> None:
    """Reject a rank-deficient Jacobian ``j`` (one column per ``free``
    parameter), naming a parameter the data does not move, else the most
    nearly collinear pair of parameters."""
    s = np.linalg.svd(j, compute_uv=False)
    if s[0] > 0.0 and s[-1] > 1e-10 * s[0]:
        return
    norms = np.linalg.norm(j, axis=0)
    k = int(np.argmin(norms))
    if norms[k] <= 1e-10 * s[0]:
        raise IdentifiabilityError(f"the data is insensitive to parameter {free[k]!r}")
    cos = np.abs((j / norms).T @ (j / norms))
    np.fill_diagonal(cos, 0.0)
    a, b = np.unravel_index(np.argmax(cos), cos.shape)
    raise IdentifiabilityError(
        f"parameters {free[a]!r} and {free[b]!r} are collinear in this "
        "sweep and cannot be fitted jointly"
    )


@dataclass(frozen=True)
class Sensitivity:
    """Partial derivative of a channel target with respect to one parameter.

    ``value`` is the Richardson-extrapolated central finite difference;
    ``analytic`` carries the closed form where one exists, else None.
    """

    value: float
    analytic: Optional[float]


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
    ``body``).  The parameter's current value must be positive so the
    relative step is well defined.
    """
    if target not in ("f0", "gain", "power"):
        raise ValueError(f"unknown target {target!r}")
    if param not in ReceiverParams.__dataclass_fields__:
        raise ValueError(f"unknown receiver parameter {param!r}")
    x0 = getattr(rx, param)
    if not x0 > 0.0:
        raise ValueError(f"parameter {param!r} must be positive to take a relative step")

    if target == "power":
        if f is None or src is None or body is None:
            raise ValueError("target 'power' needs f, src, and body")

        def evaluate(v: float) -> float:
            return received_power(replace(rx, **{param: v}), src, body, f).p_out_rms

    elif target == "f0":

        def evaluate(v: float) -> float:
            return resonant_frequency(replace(rx, **{param: v}))

    else:

        def evaluate(v: float) -> float:
            return resonant_gain(replace(rx, **{param: v}))

    def central(h: float) -> float:
        return (evaluate(x0 + h) - evaluate(x0 - h)) / (2.0 * h)

    h = 1e-6 * x0
    d_h = central(h)
    d_h2 = central(h / 2.0)
    value = (4.0 * d_h2 - d_h) / 3.0

    analytic: Optional[float] = None
    if target == "f0":
        f0 = resonant_frequency(rx)
        if param == "l":
            analytic = -f0 / (2.0 * rx.l)
        elif param in ("c_ret", "c_gb"):
            analytic = -f0 / (2.0 * (rx.c_ret + rx.c_gb))
        else:
            analytic = 0.0
    elif target == "gain":
        c_total = rx.c_ret + rx.c_gb
        if param == "c_ret":
            analytic = rx.c_gb / c_total**2
        elif param == "c_gb":
            analytic = -rx.c_ret / c_total**2
        else:
            analytic = 0.0

    return Sensitivity(value=value, analytic=analytic)


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

    def crossing(idx_from: int, step: int) -> float:
        j = idx_from
        while 0 <= j + step < len(p):
            if p[j + step] <= half:
                a, b = j, j + step
                return float(x[a] + (half - p[a]) * (x[b] - x[a]) / (p[b] - p[a]))
            j += step
        raise WindowTruncationError(
            "half-power crossing lies outside the swept window; widen the sweep"
        )

    f_lo = crossing(i, -1)
    f_hi = crossing(i, +1)
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
    h_mna = acnet.solve_many(acnet.build_channel_netlist(rx, src, body), freqs).probe_voltage
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
    v = acnet.solve_many(acnet.build_channel_netlist(rx, src, body), freqs).probe_voltage
    p_mna = np.abs(v) ** 2 / rx.r_l
    return (p_closed - p_mna) / p_mna
