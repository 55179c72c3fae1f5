"""Closed-form models of the resonant electro-quasistatic body power channel.

A transmitter couples a potential onto the body, which acts as the forward
conduction path.  The receiver taps that potential through an optional
series inductor and delivers it to a load; the loop closes through the
small parasitic capacitance between the receiver's floating ground plane
and earth (``c_ret``), degraded by the parasitic from floating ground back
to the body (``c_gb``).  The series inductor cancels the return-path
reactance, so at

    f0 = 1 / (2*pi*sqrt(L * (C_ret + C_GB)))

the load voltage rises to ``V_B * C_ret / (C_ret + C_GB)`` independent of
the load itself.

All internal arithmetic uses rms phasors.  Sources carry an explicit
amplitude convention (``"pp"``, ``"amplitude"``, or ``"rms"``) and are
converted at the boundary, so peak-to-peak bench numbers never leak a
silent factor of 8 into power results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi
#: Upper end of the range check: ``low < x < _INF`` rejects NaN and both
#: infinities in one comparison chain (a module global: dataclass construction
#: sits inside the optimizers' inner loops).
_INF = math.inf

#: Multiplicative factor taking a tagged amplitude to rms.
RMS_FACTOR = {
    "pp": 1.0 / (2.0 * math.sqrt(2.0)),
    "amplitude": 1.0 / math.sqrt(2.0),
    "rms": 1.0,
}


class NonResonantReceiverError(ValueError):
    """Raised when a resonance quantity is requested for a receiver with L = 0."""


class NonFiniteResultError(ValueError):
    """Raised when the closed form gives a number that is not finite: the
    inputs lie outside the range that double precision can evaluate."""


def _require_range(name: str, value, low: float = 0.0, inclusive: bool = False) -> None:
    """The one input range check: ``value`` must be finite and > ``low`` (>= when
    ``inclusive``).  A scalar is compared by the chain itself, so a str, None, a
    complex or a list raises TypeError; an ndarray (an argument that broadcasts)
    must hold at every element, and the ValueError names its first bad one."""
    if type(value) is np.ndarray:
        bad = ~(((value >= low) if inclusive else (value > low)) & (value < _INF))
        if not bad.any():
            return
        value = float(value[bad][0])
    elif low <= value < _INF if inclusive else low < value < _INF:
        return
    raise ValueError(f"{name} must be finite and {'>=' if inclusive else '>'} {low:g}, got {value!r}")


#: The numbers a model field accepts; each is stored as a Python ``float``.
_REAL_SCALARS = (int, float, np.integer, np.floating)


def _real_field(model, name: str, low: float = 0.0, inclusive: bool = False) -> None:
    """Store field ``name`` of a frozen ``model`` as a Python ``float`` in the
    range of :func:`_require_range`.  An int or a numpy real scalar converts;
    an ndarray, a list, a str, None, a bool or a complex raises TypeError."""
    value = getattr(model, name)
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, _REAL_SCALARS):
            raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
        value = float(value)
        object.__setattr__(model, name, value)
    # _require_range's own comparison, inline: the fit builds a model per trial.
    if not (low <= value < _INF if inclusive else low < value < _INF):
        _require_range(name, value, low, inclusive)


def _require_finite(name: str, x, at, axis: str = "frequency") -> None:
    """The one check on a result ``x``: raise :class:`NonFiniteResultError` naming the
    first value of ``axis`` (``at``, which broadcasts to ``x``) where it is not finite."""
    if not isinstance(x, np.ndarray) and cmath.isfinite(x):  # a scalar, without numpy
        return
    x = np.asarray(x)
    bad = ~np.isfinite(x)
    if bad.any():
        where, value = np.broadcast_to(at, x.shape)[bad][0].item(), x[bad][0].item()
        raise NonFiniteResultError(f"{name} must be finite; at {axis} = {where!r} it is {value!r}")


def _on_scalars(name: str, f: float, kernel, *args):
    """``kernel(*args)`` in Python float and complex arithmetic at the one
    frequency ``f``; its result, or the last item of a tuple result, is
    ``name`` and must be finite.  Python arithmetic warns nothing and needs
    no ``np.errstate``: it raises ZeroDivisionError or OverflowError, or it
    gives inf or nan.  This is the one place where each of those becomes
    :class:`NonFiniteResultError` naming ``f``."""
    try:
        out = kernel(*args)
    except (ZeroDivisionError, OverflowError) as exc:
        what = "divides by zero" if isinstance(exc, ZeroDivisionError) else "overflows"
        raise NonFiniteResultError(f"{name} must be finite; at frequency = {f!r} it {what}") from None
    x = out[-1] if type(out) is tuple else out
    if not cmath.isfinite(x):
        _require_finite(name, x, f)
    return out


def _unknown_convention(convention) -> ValueError:
    return ValueError(
        f"unknown amplitude convention {convention!r}; expected one of {sorted(RMS_FACTOR)}"
    )


def to_rms(value: float, convention: str) -> float:
    """Convert an amplitude tagged with ``convention`` to rms."""
    try:
        return value * RMS_FACTOR[convention]
    except KeyError:
        raise _unknown_convention(convention) from None


def from_rms(value: float, convention: str) -> float:
    """Convert an rms amplitude back to the tagged convention."""
    try:
        return value / RMS_FACTOR[convention]
    except KeyError:
        raise _unknown_convention(convention) from None


@dataclass(frozen=True)
class ReceiverParams:
    """Lumped elements of the body-coupled receiver.

    c_ret  return-path capacitance, floating ground to earth [F]
    c_gb   floating ground to body capacitance [F]
    l      series inductor [H]; 0 means a non-resonant receiver
    r_l    load resistance [ohm]
    c_l    load shunt capacitance [F]
    r_s    series loss resistance [ohm]; lumps inductor ESR, coupler
           contact, and body-path loss.  0 reproduces the lossless model.
    """

    c_ret: float
    r_l: float
    l: float = 0.0
    c_gb: float = 0.0
    c_l: float = 0.0
    r_s: float = 0.0

    def __post_init__(self) -> None:
        _real_field(self, "c_ret")
        _real_field(self, "r_l")
        _real_field(self, "l", inclusive=True)
        _real_field(self, "c_gb", inclusive=True)
        _real_field(self, "c_l", inclusive=True)
        _real_field(self, "r_s", inclusive=True)


@dataclass(frozen=True)
class BodyModel:
    """Body-to-earth coupling: shunt capacitance c_b [F] and tissue resistance r_b [ohm]."""

    c_b: float
    r_b: float = 0.0

    def __post_init__(self) -> None:
        _real_field(self, "c_b")
        _real_field(self, "r_b", inclusive=True)


@dataclass(frozen=True)
class GroundedTx:
    """Earth-grounded transmitter: the body potential equals the drive voltage.

    ``r_src`` is the source output resistance.  The closed-form body
    potential ignores the r_src/r_b drop; the MNA path includes it when
    nonzero (see ``analysis.approximation_gap``).
    """

    v_in: float
    convention: str
    r_src: float = 0.0

    def __post_init__(self) -> None:
        _check_source_common(self)
        _real_field(self, "r_src", inclusive=True)


@dataclass(frozen=True)
class WearableTx:
    """Body-worn transmitter coupling through its own return capacitance."""

    v_in: float
    convention: str
    c_ret_tx: float

    def __post_init__(self) -> None:
        _check_source_common(self)
        _real_field(self, "c_ret_tx")


@dataclass(frozen=True)
class ResonantWearableTx:
    """Wearable transmitter with transmit-side resonance boosting the body potential by q."""

    v_in: float
    convention: str
    c_ret_tx: float
    q: float

    def __post_init__(self) -> None:
        _check_source_common(self)
        _real_field(self, "c_ret_tx")
        _real_field(self, "q", low=1.0, inclusive=True)


SourceModel = Union[GroundedTx, WearableTx, ResonantWearableTx]


def _check_source_common(src) -> None:
    _real_field(src, "v_in")
    if src.convention not in RMS_FACTOR:
        raise _unknown_convention(src.convention)


@dataclass(frozen=True)
class OperatingPoint:
    """One evaluated channel state: rms phasors and the rms load power."""

    frequency: float
    v_b: complex
    v_o: complex
    p_out_rms: float


def v_in_rms(src: SourceModel) -> float:
    """Drive amplitude of ``src`` in rms volts."""
    return to_rms(src.v_in, src.convention)


def body_potential(src: SourceModel, body: BodyModel, f: float) -> float:
    """Body potential in rms volts for the given source model.

    Grounded transmitters hold the body at the drive voltage (source and
    tissue resistance drops are ignored in this closed form).  Wearable
    transmitters divide the drive across their own return capacitance and
    the body capacitance; the resonant variant multiplies the small-ratio
    approximation of that divider by the transmit-side boost ``q``.
    """
    _require_range("frequency", f)
    return _body_potential(src, body, v_in_rms(src))


def _body_potential(src: SourceModel, body: BodyModel, vin):
    """Body potential for an rms drive ``vin`` (a scalar or an array)."""
    if isinstance(src, GroundedTx):
        return vin
    if isinstance(src, WearableTx):
        return vin * src.c_ret_tx / (body.c_b + src.c_ret_tx)
    if isinstance(src, ResonantWearableTx):
        return vin * src.q * src.c_ret_tx / body.c_b
    raise TypeError(f"unknown source model {type(src).__name__}")


def transfer_function(rx: ReceiverParams, f):
    """Load-to-body voltage ratio H(f) = V_o / V_B as a complex phasor.

    With Z_load = R_L / (1 + j*w*C_L*R_L) and Z_s = r_s + j*w*L,

        H = Z_load / ((Z_s + Z_load) * (1 + C_GB/C_ret) + 1/(j*w*C_ret))

    ``f`` may be a scalar or an array; the return matches the input shape.
    A value past double precision raises :class:`NonFiniteResultError`.
    """
    if isinstance(f, _REAL_SCALARS):
        _require_range("frequency", f)
        f = float(f)
        return _on_scalars("H", f, _transfer, rx, TWO_PI * f, rx.r_l, rx.l)
    f = np.asarray(f, dtype=float)
    _require_range("frequency", f)
    with np.errstate(all="ignore"):
        h = _transfer(rx, TWO_PI * f, rx.r_l, rx.l)
    _require_finite("H", h, f)
    if np.ndim(h) == 0:
        return complex(h)
    return np.asarray(h)


def _transfer(rx: ReceiverParams, w, r_l, l):
    """H at angular frequency ``w`` with ``r_l`` and ``l`` in place of the
    receiver's own; the three broadcast against each other.

    H = R_L / D rounds as numpy's division rounds on every path.  On an
    array or a numpy scalar D this is numpy's division.  On a Python complex
    D it is numpy's algorithm (Smith's, with the reciprocal of the scaled
    denominator) written out in floats: CPython divides by that denominator
    instead, which differs from numpy in the last bit of about 40% of
    quotients.  Every other operation of the kernel rounds alike in Python
    and numpy, so a scalar evaluation equals the same point of a sweep bit
    for bit."""
    a, m, _ = _coefficients(rx, w, l)
    d = a + r_l * m
    if type(d) is not complex:
        return r_l / d
    dr, di = d.real, d.imag
    if abs(dr) >= abs(di):
        ratio = di / dr
        scale = 1.0 / (dr + di * ratio)
        return complex((r_l + 0.0 * ratio) * scale, (0.0 - r_l * ratio) * scale)
    ratio = dr / di
    scale = 1.0 / (di + dr * ratio)
    return complex((r_l * ratio + 0.0) * scale, (0.0 * ratio - r_l) * scale)


def _coefficients(rx: ReceiverParams, w, l) -> tuple:
    """``(A, M, k)`` of the one factorization of the channel, H = R_L / D
    with D = A + R_L*M, at angular frequency ``w`` and inductance ``l``.

    Multiplying the formula of :func:`transfer_function` through by
    e = 1 + j*w*C_L*R_L gives k = 1 + C_GB/C_ret,
    A = k*(r_s + j*w*L) + 1/(j*w*C_ret) and M = j*w*C_L*A + k, neither of
    which depends on R_L.  Since Re(A*conj(M)) = k^2*r_s,
    |D|^2 = |A|^2 + 2*k^2*r_s*R_L + |M|^2*R_L^2.  With C_L = 0, M is the
    scalar k, which spares three array operations per evaluation.  A
    Python float ``w`` gives Python complex coefficients; one so small that
    w*C_ret is 0 raises ZeroDivisionError (see :func:`_on_scalars`).
    """
    k = 1.0 + rx.c_gb / rx.c_ret
    jw = 1j * w
    a = k * (rx.r_s + jw * l) - 1j * (1.0 / (w * rx.c_ret))
    return a, jw * rx.c_l * a + k if rx.c_l else k, k


def _power_and_log_gradient(
    rx: ReceiverParams, src: SourceModel, body: BodyModel, f, free
) -> tuple:
    """The rms load power at each frequency ``f`` (as :func:`_response`
    gives it, bit for bit) and its gradient d log P / d theta, one column per
    receiver field named in ``free``, per unit of that field.

    P = |V_B|^2 * R_L / |D|^2, and the body potential does not depend on the
    receiver, so d log P / d theta = -2*Re(dD/dtheta / D), plus 1/R_L for
    r_l.  With e = 1 + j*w*C_L*R_L, Z_s = r_s + j*w*L and
    g = (Z_s*e + R_L)/C_ret, dD/dtheta is k*e, j*w*k*e, g,
    -(C_GB*g + e/(j*w*C_ret))/C_ret, M and j*w*R_L*A for r_s, l, c_gb,
    c_ret, r_l and c_l, each evaluated only for a named field.  D is affine
    in r_s, l, c_gb and c_l, so their columns hold where the field is 0 too.
    """
    w = TWO_PI * f
    a, m, k = _coefficients(rx, w, rx.l)
    d = a + rx.r_l * m
    v_o = _body_potential(src, body, v_in_rms(src)) * (rx.r_l / d)
    jw = 1j * w
    # With C_L = 0, e is the scalar 1, which spares array products.
    e = 1.0 + jw * (rx.c_l * rx.r_l) if rx.c_l else 1.0
    g = ((rx.r_s + jw * rx.l) * e + rx.r_l) / rx.c_ret
    derivative = {
        "r_s": lambda: k * e,
        "l": lambda: jw * k * e,
        "c_gb": lambda: g,
        "c_ret": lambda: (e / (jw * -rx.c_ret) - rx.c_gb * g) / rx.c_ret,
        "r_l": lambda: m,
        "c_l": lambda: jw * rx.r_l * a,
    }
    minus_2_over_d = -2.0 / d
    jac = np.empty((len(w), len(free)))
    for i, name in enumerate(free):
        jac[:, i] = (derivative[name]() * minus_2_over_d).real
        if name == "r_l":
            jac[:, i] += 1.0 / rx.r_l
    return _power(v_o, rx.r_l), jac


def _resonance(l, c_total):
    """1 / (2*pi*sqrt(L * (C_ret + C_GB))) for an inductance ``l`` and
    ``c_total`` = C_ret + C_GB, scalars or arrays that broadcast."""
    return 1.0 / (TWO_PI * np.sqrt(l * c_total))


def resonant_frequency(rx: ReceiverParams) -> float:
    """Frequency at which the series inductor cancels the return-path reactance."""
    if not rx.l * (rx.c_ret + rx.c_gb) > 0.0:
        raise NonResonantReceiverError(
            "receiver has no series inductor (l = 0); no resonant frequency exists"
            if rx.l == 0.0
            else f"l * (c_ret + c_gb) = {rx.l!r} * {rx.c_ret + rx.c_gb!r} underflows to 0; "
            "no finite resonant frequency exists"
        )
    return float(_resonance(rx.l, rx.c_ret + rx.c_gb))


def _peak_frequency(rx: ReceiverParams):
    """Frequency of the power peak of a closed-form frequency sweep, or None
    when the power is monotone in frequency.

    The body potential does not depend on f, so the power peaks where
    |H|^2 does.  With tau = C_L*R_L, u = w^2 and k and A as in
    :func:`_coefficients`, H = R_L / (A*(1 + j*w*tau) + k*R_L), and
    u*|A*(1 + j*w*tau) + k*R_L|^2 is the cubic
    N(u) = c3*u^3 + c2*u^2 + c1*u + c0 with c3 = (k*L*tau)^2,
    c2 = (k*L)^2 - 2*k*L*tau^2/C_ret - 2*k^2*L*R_L*tau + (k*r_s*tau)^2 and
    c0 = 1/C_ret^2.  The power is proportional to u / N(u), whose
    stationary points are the positive roots of 2*c3*u^3 + c2*u^2 - c0 = 0.
    With c3 > 0 there is exactly one (Descartes' rule), and u / N(u)
    vanishes at both ends of the axis, so it is the maximum.  With c3 = 0
    (L = 0 or C_L = 0) it is u = sqrt(c0 / c2), which is w0^2 when C_L = 0;
    when c2 = 0 too (L = 0 and r_s*C_L = 0) the power rises monotonically.
    """
    tau = rx.c_l * rx.r_l
    if rx.l == 0.0:
        # c3 = 0 and c2 = (k*r_s*tau)^2.
        if rx.r_s * tau == 0.0:
            return None
        return 1.0 / (TWO_PI * math.sqrt((rx.c_ret + rx.c_gb) * rx.r_s * tau))
    # In s = u0/u, with u0 = 1/(k*L*C_ret) = w0^2, a = c3*u0^3/c0 = (w0*tau)^2
    # and b = c2*u0^2/c0, the root solves the monic s^3 - b*s - 2*a = 0.  Its
    # other two roots are negative or a complex pair with negative real part
    # (the roots sum to 0 and multiply to 2*a >= 0), so the positive root has
    # the largest real part; one Newton step polishes the eigenvalue solve.
    f0 = resonant_frequency(rx)
    a = (TWO_PI * f0 * tau) ** 2
    b = 1.0 + (rx.r_s * tau / rx.l) ** 2 - 2.0 * rx.r_l * tau / rx.l - 2.0 * a
    s = float(np.roots([1.0, 0.0, -b, -2.0 * a]).real.max())
    s -= (s**3 - b * s - 2.0 * a) / (3.0 * s**2 - b)
    return f0 / math.sqrt(s)


def resonant_gain(rx: ReceiverParams) -> float:
    """|V_o / V_B| at resonance for a lossless receiver: C_ret / (C_ret + C_GB).

    Equals |transfer_function| at ``resonant_frequency`` when r_s = 0, for
    any load resistance or shunt capacitance.
    """
    return rx.c_ret / (rx.c_ret + rx.c_gb)


def no_inductor_voltage(
    rx: ReceiverParams, v_b_rms: float, f: float, simplified: bool = False
) -> float:
    """|V_o| in rms volts for a receiver without the series inductor.

    Exact form: the load, its shunt capacitance, and c_gb sit in parallel
    between the body node and the floating ground, in series with the
    return-path impedance:

        V_o = V_B * (R_L || Z_CL || Z_GB) / (Z_ret + R_L || Z_CL || Z_GB)

    which is ``V_B * transfer_function(rx, f)`` at L = r_s = 0.
    ``simplified=True`` drops the capacitive parallel terms (valid while
    R_L is far below both |Z_CL| and |Z_GB|):

        V_o = V_B * R_L / (Z_ret + R_L)
    """
    if rx.l != 0.0:
        raise ValueError("no_inductor_voltage requires l = 0; use transfer_function")
    if rx.r_s != 0.0:
        raise ValueError("the inductorless divider has no series-loss term; r_s must be 0")
    _require_range("v_b_rms", v_b_rms, inclusive=True)
    if simplified:
        rx = ReceiverParams(c_ret=rx.c_ret, r_l=rx.r_l)
    return abs(v_b_rms * transfer_function(rx, f))


def received_power(
    rx: ReceiverParams, src: SourceModel, body: BodyModel, f: float
) -> OperatingPoint:
    """Evaluate the channel at ``f``: body potential, load voltage, rms load
    power.  A power past double precision raises :class:`NonFiniteResultError`."""
    _require_range("frequency", f)
    return _operating_point(rx, src, body, float(f))


def _operating_point(rx: ReceiverParams, src: SourceModel, body: BodyModel, f: float) -> OperatingPoint:
    """:func:`received_power` at a checked Python float ``f``: the kernel runs
    in Python scalars (:func:`_on_scalars`)."""
    v_o, p = _on_scalars("p_out_rms", f, _response, rx, src, body, f)
    v_b = _body_potential(src, body, v_in_rms(src))
    return OperatingPoint(f, complex(v_b), v_o, p)


def channel_response(
    rx: ReceiverParams, src: SourceModel, body: BodyModel, f, r_l=None, l=None, v_in=None
) -> tuple:
    """Closed-form rms load voltages and powers ``(v_o, p_out_rms)`` as arrays.

    Broadcasts over ``f`` and, where given, per-point values of the load
    resistance ``r_l``, the series inductance ``l`` and the drive amplitude
    ``v_in`` (in the source's own convention), which replace the fields of
    ``rx`` and ``src``.  Each point equals :func:`received_power` of the
    receiver and source with those values.  This is the one closed-form
    evaluation of the channel: the sweeps, the load optimizers and the fit
    run the same kernel, checking their inputs once at entry.  A power past
    double precision raises :class:`NonFiniteResultError`.
    """
    f, r_l, l, v_in = (None if x is None else np.asarray(x, dtype=float) for x in (f, r_l, l, v_in))
    for name, x in (("frequency", f), ("r_l", r_l), ("l", l), ("v_in", v_in)):
        if x is not None:
            _require_range(name, x, inclusive=name == "l")
    with np.errstate(all="ignore"):
        v_o, p = _response(rx, src, body, f, r_l, l, v_in)
    _require_finite("p_out_rms", p, f)
    return v_o, p


def _response(rx: ReceiverParams, src: SourceModel, body: BodyModel, f, r_l=None, l=None, v_in=None):
    """:func:`channel_response` without its input checks, for callers that
    validated their inputs once at entry and evaluate in an inner loop.

    One body of code serves both paths: with Python float ``f``, ``r_l``,
    ``l`` and ``v_in`` it computes in Python float and complex arithmetic
    (see :func:`_on_scalars` for its failures), and with arrays in numpy.
    Each operation rounds alike on both (see :func:`_transfer`), so a
    Python scalar evaluation equals the same point of a sweep bit for bit."""
    r_l = rx.r_l if r_l is None else r_l
    vin = v_in_rms(src) if v_in is None else to_rms(v_in, src.convention)
    v_o = _body_potential(src, body, vin) * _transfer(rx, TWO_PI * f, r_l, rx.l if l is None else l)
    return v_o, _power(v_o, r_l)


def _power(v_o, r_l):
    """The rms load power |v_o|^2 / r_l.  re^2 + im^2 rounds the same on a
    Python complex and on an array, where ``abs`` and ``np.abs`` differ in
    the last bit."""
    return (v_o.real * v_o.real + v_o.imag * v_o.imag) / r_l
