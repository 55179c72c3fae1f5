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

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi
#: Upper end of the field range checks: ``lo < x < _INF`` rejects NaN and both
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


def to_rms(value: float, convention: str) -> float:
    """Convert an amplitude tagged with ``convention`` to rms."""
    try:
        return value * RMS_FACTOR[convention]
    except KeyError:
        raise ValueError(
            f"unknown amplitude convention {convention!r}; "
            f"expected one of {sorted(RMS_FACTOR)}"
        ) from None


def from_rms(value: float, convention: str) -> float:
    """Convert an rms amplitude back to the tagged convention."""
    try:
        return value / RMS_FACTOR[convention]
    except KeyError:
        raise ValueError(
            f"unknown amplitude convention {convention!r}; "
            f"expected one of {sorted(RMS_FACTOR)}"
        ) from None


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
        if not 0.0 < self.c_ret < _INF:
            raise ValueError(f"c_ret must be finite and > 0, got {self.c_ret!r}")
        if not 0.0 < self.r_l < _INF:
            raise ValueError(f"r_l must be finite and > 0 (degenerate load), got {self.r_l!r}")
        if not 0.0 <= self.l < _INF:
            raise ValueError(f"l must be finite and >= 0, got {self.l!r}")
        if not 0.0 <= self.c_gb < _INF:
            raise ValueError(f"c_gb must be finite and >= 0, got {self.c_gb!r}")
        if not 0.0 <= self.c_l < _INF:
            raise ValueError(f"c_l must be finite and >= 0, got {self.c_l!r}")
        if not 0.0 <= self.r_s < _INF:
            raise ValueError(f"r_s must be finite and >= 0, got {self.r_s!r}")


@dataclass(frozen=True)
class BodyModel:
    """Body-to-earth coupling: shunt capacitance c_b [F] and tissue resistance r_b [ohm]."""

    c_b: float
    r_b: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.c_b < _INF:
            raise ValueError(f"c_b must be finite and > 0, got {self.c_b!r}")
        if not 0.0 <= self.r_b < _INF:
            raise ValueError(f"r_b must be finite and >= 0, got {self.r_b!r}")


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
        if not 0.0 <= self.r_src < _INF:
            raise ValueError(f"r_src must be finite and >= 0, got {self.r_src!r}")


@dataclass(frozen=True)
class WearableTx:
    """Body-worn transmitter coupling through its own return capacitance."""

    v_in: float
    convention: str
    c_ret_tx: float

    def __post_init__(self) -> None:
        _check_source_common(self)
        if not 0.0 < self.c_ret_tx < _INF:
            raise ValueError(f"c_ret_tx must be finite and > 0, got {self.c_ret_tx!r}")


@dataclass(frozen=True)
class ResonantWearableTx:
    """Wearable transmitter with transmit-side resonance boosting the body potential by q."""

    v_in: float
    convention: str
    c_ret_tx: float
    q: float

    def __post_init__(self) -> None:
        _check_source_common(self)
        if not 0.0 < self.c_ret_tx < _INF:
            raise ValueError(f"c_ret_tx must be finite and > 0, got {self.c_ret_tx!r}")
        if not 1.0 <= self.q < _INF:
            raise ValueError(f"q must be finite and >= 1, got {self.q!r}")


SourceModel = Union[GroundedTx, WearableTx, ResonantWearableTx]


def _check_source_common(src) -> None:
    if not 0.0 < src.v_in < _INF:
        raise ValueError(f"v_in must be finite and > 0, got {src.v_in!r}")
    if src.convention not in RMS_FACTOR:
        raise ValueError(
            f"unknown amplitude convention {src.convention!r}; "
            f"expected one of {sorted(RMS_FACTOR)}"
        )


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
    if not f > 0.0:
        raise ValueError(f"frequency must be > 0, got {f!r}")
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
    """
    w = TWO_PI * np.asarray(f, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("frequency must be > 0")
    h = _transfer(rx, w, rx.r_l, rx.l)
    if np.ndim(h) == 0:
        return complex(h)
    return np.asarray(h)


def _transfer(rx: ReceiverParams, w, r_l, l):
    """H at angular frequency ``w`` with ``r_l`` and ``l`` in place of the
    receiver's own; the three broadcast against each other."""
    z_load = r_l / (1.0 + 1j * w * rx.c_l * r_l)
    z_series = rx.r_s + 1j * w * l
    ratio = 1.0 + rx.c_gb / rx.c_ret
    return z_load / ((z_series + z_load) * ratio + 1.0 / (1j * w * rx.c_ret))


def resonant_frequency(rx: ReceiverParams) -> float:
    """Frequency at which the series inductor cancels the return-path reactance."""
    if rx.l <= 0.0:
        raise NonResonantReceiverError(
            "receiver has no series inductor (l = 0); no resonant frequency exists"
        )
    return 1.0 / (TWO_PI * math.sqrt(rx.l * (rx.c_ret + rx.c_gb)))


def resonant_gain(rx: ReceiverParams) -> float:
    """|V_o / V_B| at resonance for a lossless receiver: C_ret / (C_ret + C_GB).

    Equals |transfer_function| at ``resonant_frequency`` when r_s = 0, for
    any load resistance or shunt capacitance.
    """
    return rx.c_ret / (rx.c_ret + rx.c_gb)


def ground_coupling_ratio(rx: ReceiverParams) -> float:
    """Convenience ratio rho = C_GB / C_ret, so resonant_gain = 1 / (1 + rho)."""
    return rx.c_gb / rx.c_ret


def no_inductor_voltage(
    rx: ReceiverParams, v_b_rms: float, f: float, simplified: bool = False
) -> float:
    """|V_o| in rms volts for a receiver without the series inductor.

    Exact form: the load, its shunt capacitance, and c_gb sit in parallel
    between the body node and the floating ground, in series with the
    return-path impedance:

        V_o = V_B * (R_L || Z_CL || Z_GB) / (Z_ret + R_L || Z_CL || Z_GB)

    ``simplified=True`` drops the capacitive parallel terms (valid while
    R_L is far below both |Z_CL| and |Z_GB|):

        V_o = V_B * R_L / (Z_ret + R_L)
    """
    if rx.l != 0.0:
        raise ValueError("no_inductor_voltage requires l = 0; use transfer_function")
    if rx.r_s != 0.0:
        raise ValueError("the inductorless divider has no series-loss term; r_s must be 0")
    if not f > 0.0:
        raise ValueError(f"frequency must be > 0, got {f!r}")
    w = TWO_PI * f
    z_ret = 1.0 / (1j * w * rx.c_ret)
    if simplified:
        return abs(v_b_rms * rx.r_l / (z_ret + rx.r_l))
    y = 1.0 / rx.r_l + 1j * w * rx.c_l + 1j * w * rx.c_gb
    z_par = 1.0 / y
    return abs(v_b_rms * z_par / (z_ret + z_par))


def received_power(
    rx: ReceiverParams, src: SourceModel, body: BodyModel, f: float
) -> OperatingPoint:
    """Evaluate the channel at ``f``: body potential, load voltage, rms load power."""
    v_b = complex(body_potential(src, body, f))
    v_o = v_b * transfer_function(rx, f)
    p = abs(v_o) ** 2 / rx.r_l
    return OperatingPoint(frequency=f, v_b=v_b, v_o=v_o, p_out_rms=p)


def channel_response(
    rx: ReceiverParams, src: SourceModel, body: BodyModel, f, r_l=None, l=None, v_in=None
) -> tuple:
    """Closed-form rms load voltages and powers ``(v_o, p_out_rms)`` as arrays.

    Broadcasts over ``f`` and, where given, per-point values of the load
    resistance ``r_l``, the series inductance ``l`` and the drive amplitude
    ``v_in`` (in the source's own convention), which replace the fields of
    ``rx`` and ``src``.  Each point equals :func:`received_power` of the
    receiver and source with those values.
    """
    w = TWO_PI * np.asarray(f, dtype=float)
    r_l = rx.r_l if r_l is None else np.asarray(r_l, dtype=float)
    l = rx.l if l is None else np.asarray(l, dtype=float)
    vin = v_in_rms(src) if v_in is None else to_rms(np.asarray(v_in, dtype=float), src.convention)
    if not (np.all(w > 0.0) and np.all(r_l > 0.0) and np.all(l >= 0.0) and np.all(vin > 0.0)):
        raise ValueError("need frequency, r_l and v_in > 0 and l >= 0 at every point")
    v_o = _body_potential(src, body, vin) * _transfer(rx, w, r_l, l)
    return v_o, np.abs(v_o) ** 2 / r_l


#: Quantities deliberately not represented by the lumped model (they require
#: field-level simulation or hardware, not circuit analysis).
OUT_OF_SCOPE_SYMBOLS = frozenset(
    {"SAR", "E_induced", "H_induced", "E_incident", "H_incident"}
)

_SYMBOL_MAP = {
    "V_IN": "SourceModel.v_in",
    "V_B": "OperatingPoint.v_b (via body_potential)",
    "V_o": "OperatingPoint.v_o",
    "R_S": "GroundedTx.r_src",
    "R_B": "BodyModel.r_b",
    "C_B": "BodyModel.c_b",
    "C_ret": "ReceiverParams.c_ret",
    "C_GB": "ReceiverParams.c_gb",
    "L": "ReceiverParams.l",
    "R_L": "ReceiverParams.r_l",
    "C_L": "ReceiverParams.c_l",
    "r_s": "ReceiverParams.r_s",
    "omega_0": "channel.resonant_frequency (derived)",
    "P_out": "OperatingPoint.p_out_rms",
    "Q": "ResonantWearableTx.q",
    "C_ret-Tx": "WearableTx.c_ret_tx / ResonantWearableTx.c_ret_tx",
}


def element_symbols() -> dict:
    """Audit map from conventional circuit symbols to the owning type and field."""
    return dict(_SYMBOL_MAP)


def symbol_location(name: str) -> str:
    """Look up where a circuit symbol lives; raises KeyError for unknown or
    deliberately out-of-scope quantities."""
    if name in OUT_OF_SCOPE_SYMBOLS:
        raise KeyError(f"{name} is out of scope for the lumped-element model")
    return _SYMBOL_MAP[name]
