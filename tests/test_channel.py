"""Closed-form channel model: body potential, transfer function, resonance
identities, and power arithmetic."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bodychannel import acnet, analysis, channel, optimize, safety
from bodychannel.channel import (
    BodyModel,
    GroundedTx,
    NonResonantReceiverError,
    ReceiverParams,
    ResonantWearableTx,
    WearableTx,
    body_potential,
    channel_response,
    from_rms,
    no_inductor_voltage,
    received_power,
    resonant_frequency,
    resonant_gain,
    to_rms,
    transfer_function,
)
from helpers import REPO_ROOT, random_body, random_frequency, random_receiver, unit_source

RX_SIXTH = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)


# ── amplitude conventions ───────────────────────────────────────────────


def test_rms_conversions_round_trip():
    assert to_rms(12.0, "pp") == pytest.approx(12.0 / (2 * math.sqrt(2)), rel=1e-15)
    assert to_rms(1.0, "amplitude") == pytest.approx(1.0 / math.sqrt(2), rel=1e-15)
    assert to_rms(3.3, "rms") == 3.3
    for conv in ("pp", "amplitude", "rms"):
        assert from_rms(to_rms(7.7, conv), conv) == pytest.approx(7.7, rel=1e-15)
    with pytest.raises(ValueError):
        to_rms(1.0, "peak2peak")


# ── body potential ──────────────────────────────────────────────────────


def test_grounded_source_passes_drive_voltage_through():
    src = GroundedTx(v_in=12.0, convention="pp")
    v = body_potential(src, BodyModel(c_b=150e-12), 1e6)
    assert v == pytest.approx(4.242640687119285, rel=1e-12)  # 12 Vpp in rms


def test_wearable_source_divides_by_body_capacitance():
    src = WearableTx(v_in=1.0, convention="rms", c_ret_tx=1e-12)
    v = body_potential(src, BodyModel(c_b=100e-12), 1e6)
    assert v == pytest.approx(1.0 / 101.0, rel=1e-12)  # about two orders down


def test_resonant_wearable_boosts_by_q():
    src = ResonantWearableTx(v_in=1.0, convention="rms", c_ret_tx=1e-12, q=10.0)
    v = body_potential(src, BodyModel(c_b=100e-12), 1e6)
    assert v == pytest.approx(0.100, rel=1e-12)


def test_body_potential_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        body_potential(GroundedTx(1.0, "rms"), BodyModel(c_b=100e-12), 0.0)


# ── transfer function and resonance ─────────────────────────────────────


def test_resonant_gain_is_load_independent():
    for r_l in (100.0, 1000.0, 10000.0):
        rx = replace(RX_SIXTH, r_l=r_l)
        h = transfer_function(rx, resonant_frequency(rx))
        assert abs(h) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_portable_receiver_reaches_body_potential():
    rx = ReceiverParams(c_ret=6e-12, r_l=1000.0, l=4.222e-3, c_gb=0.0)
    assert abs(transfer_function(rx, resonant_frequency(rx))) == pytest.approx(1.0, rel=1e-12)


def test_low_frequency_rolloff_is_capacitive():
    # Well below resonance the series return capacitance dominates:
    # |H| -> w * C_ret * R_L.
    rx = RX_SIXTH
    for f in (10.0, 100.0):
        expected = 2 * math.pi * f * rx.c_ret * rx.r_l
        assert abs(transfer_function(rx, f)) == pytest.approx(expected, rel=1e-3)


def test_transfer_function_accepts_arrays():
    freqs = np.geomspace(1e5, 1e7, 64)
    h = transfer_function(RX_SIXTH, freqs)
    assert h.shape == freqs.shape
    assert np.all(np.isfinite(h.view(float)))


def test_resonant_frequency_values():
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3, l=0.33e-3)
    f0 = resonant_frequency(rx)
    assert f0 == pytest.approx(1.0 / (2 * math.pi * math.sqrt(0.33e-3 * 30e-12)), rel=1e-12)
    assert f0 == pytest.approx(1.6e6, rel=0.01)  # 0.33 mH lands the peak at 1.6 MHz
    quad = replace(rx, l=4 * rx.l)
    assert resonant_frequency(quad) == pytest.approx(f0 / 2.0, rel=1e-12)
    rx2 = ReceiverParams(c_ret=6e-12, r_l=1e3, l=4.222e-3)
    assert resonant_frequency(rx2) == pytest.approx(1.0e6, rel=1e-3)


def test_resonant_frequency_requires_inductor():
    with pytest.raises(NonResonantReceiverError):
        resonant_frequency(ReceiverParams(c_ret=1e-12, r_l=1e3, l=0.0))


def test_resonant_frequency_rejects_an_inductance_whose_lc_product_underflows():
    message = "l * (c_ret + c_gb) = 5e-324 * 1e-12 underflows to 0"
    with pytest.raises(NonResonantReceiverError, match=re.escape(message)):
        resonant_frequency(ReceiverParams(c_ret=1e-12, r_l=1e3, l=5e-324))


def test_resonant_gain_cases():
    assert resonant_gain(RX_SIXTH) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert resonant_gain(ReceiverParams(c_ret=1e-12, r_l=1e3)) == 1.0
    assert resonant_gain(ReceiverParams(c_ret=2e-12, c_gb=2e-12, r_l=1e3)) == 0.5
    rho = RX_SIXTH.c_gb / RX_SIXTH.c_ret  # the ground-coupling ratio C_GB / C_ret
    assert resonant_gain(RX_SIXTH) == pytest.approx(1.0 / (1.0 + rho), rel=1e-15)


def test_resonance_identity_random_lossless():
    rng = np.random.default_rng(21)
    for _ in range(50):
        base = random_receiver(rng, lossless=True)
        for r_l in (100.0, 1000.0, 10000.0):
            for c_l in (0.0, 1e-12):
                rx = replace(base, r_l=r_l, c_l=c_l)
                h = abs(transfer_function(rx, resonant_frequency(rx)))
                assert abs(h - resonant_gain(rx)) < 1e-9


def test_peak_location_matches_formula_on_fine_grid():
    # The resonance is defined by the reactance null, which is the exact |H|
    # argmax only without a load shunt; with c_l > 0 the maximum drifts by
    # O((c_l/c_total) * (r_l/(w0*L))^2) even though the gain at f0 is exact.
    rng = np.random.default_rng(5)
    for _ in range(10):
        rx = random_receiver(rng, lossless=True, with_c_l=False)
        f0 = resonant_frequency(rx)
        freqs = np.geomspace(f0 / 3, f0 * 3, 2001)
        mags = np.abs(transfer_function(rx, freqs))
        k = int(np.argmax(mags))
        step = freqs[min(k + 1, len(freqs) - 1)] - freqs[k]
        assert abs(freqs[k] - f0) <= step


def test_gain_monotone_in_parasitics():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rx = random_receiver(rng)
        eps_gb = 1e-3 * (rx.c_gb + 1e-12)
        assert resonant_gain(replace(rx, c_gb=rx.c_gb + eps_gb)) < resonant_gain(rx)
        eps_ret = 1e-3 * rx.c_ret
        assert resonant_gain(replace(rx, c_ret=rx.c_ret + eps_ret)) > resonant_gain(rx)


def test_transfer_function_matches_netlist_with_loss():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rx = random_receiver(rng)  # r_s > 0 in most draws
        net = acnet.build_channel_netlist(rx, unit_source(), random_body(rng))
        f = random_frequency(rng)
        h_net = acnet.solve_many(net, f).probe_voltage[0]
        h = transfer_function(rx, f)
        assert abs(h - h_net) / abs(h_net) < 1e-9


# ── inductorless divider ────────────────────────────────────────────────


def test_no_inductor_simplified_divider():
    rx = ReceiverParams(c_ret=0.5e-12, r_l=1000.0, l=0.0)
    f = 1e6
    z_ret = 1.0 / (1j * 2 * math.pi * f * rx.c_ret)
    expected = abs(1000.0 / (z_ret + 1000.0))
    got = no_inductor_voltage(rx, 1.0, f, simplified=True)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(3.14e-3, rel=1e-2)  # drowned by the 318 kOhm return path


def test_no_inductor_open_load_recovers_body_potential():
    rx = ReceiverParams(c_ret=0.5e-12, r_l=1e9, l=0.0)
    assert no_inductor_voltage(rx, 2.0, 1e6, simplified=True) == pytest.approx(2.0, rel=1e-3)


def test_no_inductor_exact_close_to_simplified_at_small_load():
    rx = ReceiverParams(c_ret=0.5e-12, r_l=1000.0, l=0.0, c_l=1e-12, c_gb=5e-12)
    exact = no_inductor_voltage(rx, 1.0, 1e6, simplified=False)
    simple = no_inductor_voltage(rx, 1.0, 1e6, simplified=True)
    assert abs(exact - simple) / exact < 0.05


def test_no_inductor_rejects_resonant_receiver():
    with pytest.raises(ValueError):
        no_inductor_voltage(ReceiverParams(c_ret=1e-12, r_l=1e3, l=1e-3), 1.0, 1e6)
    with pytest.raises(ValueError):
        no_inductor_voltage(ReceiverParams(c_ret=1e-12, r_l=1e3, r_s=10.0), 1.0, 1e6)


@pytest.mark.parametrize("v_b_rms", [math.nan, math.inf, -1.0])
def test_no_inductor_rejects_a_body_potential_that_is_not_finite_and_nonnegative(v_b_rms):
    with pytest.raises(ValueError, match="v_b_rms must be finite and >= 0"):
        no_inductor_voltage(ReceiverParams(c_ret=1e-12, r_l=1e3), v_b_rms, 1e6)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(f=[1e6, 0.0]),
        dict(f=[1e6, -1e6]),
        dict(f=[1e6, math.nan]),
        dict(r_l=[1e3, 0.0]),
        dict(r_l=[1e3, math.nan]),
        dict(l=[1e-3, -1e-3]),
        dict(v_in=[5.0, 0.0]),
        dict(v_in=[5.0, math.nan]),
        dict(r_l=[1e3, math.inf]),
        dict(l=[1e-3, math.inf]),
        dict(v_in=[5.0, math.inf]),
    ],
)
def test_channel_response_rejects_a_bad_point(kwargs):
    (key, (_, bad)), = kwargs.items()
    name, op = {"f": ("frequency", ">"), "l": ("l", ">=")}.get(key, (key, ">"))
    with pytest.raises(ValueError, match=f"^{name} must be finite and {op} 0, got {bad!r}$"):
        channel_response(RX_SIXTH, GroundedTx(5.0, "pp"), BodyModel(c_b=150e-12), **{"f": 1e6, **kwargs})


# ── received power ──────────────────────────────────────────────────────


def test_received_power_rms_arithmetic():
    # Pick c_gb so the resonant output is exactly 4.1 Vpp from a 12 Vpp drive.
    c_ret = 1e-12
    c_gb = c_ret * (12.0 / 4.1 - 1.0)
    rx = ReceiverParams(c_ret=c_ret, c_gb=c_gb, l=4.222e-3, r_l=1000.0)
    src = GroundedTx(v_in=12.0, convention="pp")
    pt = received_power(rx, src, BodyModel(c_b=150e-12), resonant_frequency(rx))
    expected = (4.1 / (2 * math.sqrt(2))) ** 2 / 1000.0
    assert pt.p_out_rms == pytest.approx(expected, rel=1e-9)
    assert pt.p_out_rms == pytest.approx(2.10e-3, rel=5e-3)
    assert abs(pt.v_o) ** 2 / rx.r_l == pytest.approx(pt.p_out_rms, rel=1e-15)


def test_power_scales_with_drive_squared():
    rx = RX_SIXTH
    body = BodyModel(c_b=150e-12)
    f = resonant_frequency(rx)
    p1 = received_power(rx, GroundedTx(3.0, "pp"), body, f).p_out_rms
    p2 = received_power(rx, GroundedTx(6.0, "pp"), body, f).p_out_rms
    assert p2 == pytest.approx(4.0 * p1, rel=1e-12)


def test_power_halves_when_load_doubles_at_resonance():
    rx = RX_SIXTH  # lossless: resonant V_o does not move with the load
    body = BodyModel(c_b=150e-12)
    src = GroundedTx(5.0, "pp")
    f = resonant_frequency(rx)
    p1 = received_power(rx, src, body, f).p_out_rms
    p2 = received_power(replace(rx, r_l=2 * rx.r_l), src, body, f).p_out_rms
    assert p2 == pytest.approx(p1 / 2.0, rel=1e-9)


def test_log_power_vs_log_drive_slope_is_two():
    rx = RX_SIXTH
    body = BodyModel(c_b=150e-12)
    f = resonant_frequency(rx)
    v_ins = np.linspace(1.0, 12.0, 12)
    powers = [
        received_power(rx, GroundedTx(float(v), "pp"), body, f).p_out_rms for v in v_ins
    ]
    slope = np.polyfit(np.log(v_ins), np.log(powers), 1)[0]
    assert slope == pytest.approx(2.000, abs=1e-3)


# ── validation and symbol audit ─────────────────────────────────────────


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(c_ret=0.0, r_l=1e3),
        dict(c_ret=-1e-12, r_l=1e3),
        dict(c_ret=1e-12, r_l=0.0),
        dict(c_ret=1e-12, r_l=1e3, l=-1e-3),
        dict(c_ret=1e-12, r_l=1e3, c_gb=-1e-12),
        dict(c_ret=1e-12, r_l=1e3, c_l=-1e-12),
        dict(c_ret=1e-12, r_l=1e3, r_s=-1.0),
    ],
)
def test_receiver_validation(kwargs):
    with pytest.raises(ValueError):
        ReceiverParams(**kwargs)


def test_source_and_body_validation():
    with pytest.raises(ValueError):
        BodyModel(c_b=0.0)
    with pytest.raises(ValueError):
        GroundedTx(v_in=-1.0, convention="pp")
    with pytest.raises(ValueError):
        GroundedTx(v_in=1.0, convention="vpp")
    with pytest.raises(ValueError):
        WearableTx(v_in=1.0, convention="pp", c_ret_tx=0.0)
    with pytest.raises(ValueError):
        ResonantWearableTx(v_in=1.0, convention="pp", c_ret_tx=1e-12, q=0.5)


VALID_FIELDS = {
    ReceiverParams: dict(c_ret=1e-12, r_l=1e3, l=4e-3, c_gb=5e-12, c_l=1e-12, r_s=10.0),
    BodyModel: dict(c_b=150e-12, r_b=10.0),
    GroundedTx: dict(v_in=12.0, convention="pp", r_src=50.0),
    WearableTx: dict(v_in=12.0, convention="pp", c_ret_tx=1e-12),
    ResonantWearableTx: dict(v_in=12.0, convention="pp", c_ret_tx=1e-12, q=10.0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls, kw in VALID_FIELDS.items() for name in kw if name != "convention"],
)
def test_non_finite_fields_are_rejected_by_name(cls, name, bad):
    cls(**VALID_FIELDS[cls])
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        cls(**{**VALID_FIELDS[cls], name: bad})


NUMERIC_FIELDS = [(cls, name) for cls, kw in VALID_FIELDS.items() for name in kw if name != "convention"]


@pytest.mark.parametrize("value", [2, np.int64(3), np.float64(1.5e3), np.float32(2.5)], ids=repr)
@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS)
def test_a_model_field_is_stored_as_a_python_float(cls, name, value):
    model = cls(**{**VALID_FIELDS[cls], name: value})
    stored = getattr(model, name)
    assert type(stored) is float and stored == float(value)
    assert all(type(getattr(model, other)) is float for _, other in NUMERIC_FIELDS if hasattr(model, other))


@pytest.mark.parametrize(
    "value",
    [np.array([1e-12, 2e-12]), np.array(1e-12), [1e-12], "1e-12", None, 1e-12 + 0j, True],
    ids=["ndarray", "0-d ndarray", "list", "str", "None", "complex", "bool"],
)
@pytest.mark.parametrize("cls, name", NUMERIC_FIELDS)
def test_a_model_field_that_is_not_a_real_number_is_a_type_error(cls, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be a real number, got {type(value).__name__}$"):
        cls(**{**VALID_FIELDS[cls], name: value})


# ── the one range check ─────────────────────────────────────────────────

_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, math.inf, -math.inf, math.nan)
_FLOATS = st.one_of(st.sampled_from(_EDGES), st.floats())
_BOUNDS = st.sampled_from([(0.0, False), (0.0, True), (1.0, True)])


def _inline(x, low, inclusive) -> bool:
    """The predicate each module wrote by hand: finite, and above ``low``."""
    return bool(np.all(np.isfinite(x) & ((x >= low) if inclusive else (x > low))))


def _message(name, low, inclusive, value) -> str:
    return f"{name} must be finite and {'>=' if inclusive else '>'} {low:g}, got {value!r}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    value=st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(-3, 3), st.booleans()),
    bound=_BOUNDS,
)
def test_the_range_check_takes_a_scalar_exactly_as_the_inline_predicate(value, bound):
    low, inclusive = bound
    if _inline(value, low, inclusive):
        channel._require_range("x", value, low, inclusive)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(_message('x', low, inclusive, value))}$"):
            channel._require_range("x", value, low, inclusive)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    x=hnp.arrays(np.float64, st.sampled_from([(), (0,), (1,), (4,), (2, 3)]), elements=_FLOATS),
    bound=_BOUNDS,
)
def test_the_range_check_takes_an_array_exactly_as_the_inline_predicate_and_names_its_first_bad_value(x, bound):
    low, inclusive = bound
    if _inline(x, low, inclusive):
        channel._require_range("x", x, low, inclusive)
        return
    first = next(v for v in x.ravel().tolist() if not _inline(v, low, inclusive))  # C order
    with pytest.raises(ValueError, match=f"^{re.escape(_message('x', low, inclusive, first))}$"):
        channel._require_range("x", x, low, inclusive)


@pytest.mark.parametrize("value", ["1e-12", None, 1e-12 + 0j, [1e-12], (1e-12,)])
def test_a_scalar_that_is_not_a_real_number_raises_type_error(value):
    with pytest.raises(TypeError):
        channel._require_range("x", value)
    with pytest.raises(TypeError):
        ReceiverParams(c_ret=value, r_l=1e3)


_RX_LOSSY = replace(RX_SIXTH, r_s=100.0)
_SRC, _BODY = GroundedTx(5.0, "pp"), BodyModel(c_b=150e-12)
_NETLIST = acnet.build_channel_netlist(RX_SIXTH, _SRC, _BODY)
#: Each entry that takes a frequency, by the name its error gives the frequency.
FREQUENCY_ENTRIES = {
    "transfer_function": ("frequency", lambda f: transfer_function(RX_SIXTH, f)),
    "transfer_function[array]": ("frequency", lambda f: transfer_function(RX_SIXTH, [1e6, f])),
    "channel_response": ("frequency", lambda f: channel_response(RX_SIXTH, _SRC, _BODY, f)),
    "channel_response[array]": ("frequency", lambda f: channel_response(RX_SIXTH, _SRC, _BODY, [1e6, f])),
    "body_potential": ("frequency", lambda f: body_potential(_SRC, _BODY, f)),
    "received_power": ("frequency", lambda f: received_power(RX_SIXTH, _SRC, _BODY, f)),
    "no_inductor_voltage": (
        "frequency",
        lambda f: no_inductor_voltage(ReceiverParams(c_ret=1e-12, r_l=1e3), 1.0, f),
    ),
    "optimal_load": ("frequency", lambda f: optimize.optimal_load(_RX_LOSSY, _SRC, _BODY, f, (10.0, 1e4))),
    "max_power_under_current_limit": (
        "frequency",
        lambda f: optimize.max_power_under_current_limit(_RX_LOSSY, _SRC, _BODY, f, 1e-3),
    ),
    "optimal_inductor": ("f_target", lambda f: optimize.optimal_inductor(RX_SIXTH, f)),
    "compare_topologies": (
        "freqs",
        lambda f: optimize.compare_topologies(RX_SIXTH, _BODY, [1e6, 2e6, f], 1e-12, 10.0),
    ),
    "contact_current": ("frequency", lambda f: safety.contact_current(_SRC, _BODY, f)),
    "sensitivity[power]": (
        "frequency",
        lambda f: analysis.sensitivity(RX_SIXTH, "power", "l", f=f, src=_SRC, body=_BODY),
    ),
    "solve_many": ("frequency", lambda f: acnet.solve_many(_NETLIST, [1e6, f])),
    "simulate[load]": (
        "the fixed frequency f of the load sweep",
        lambda f: analysis.simulate("load", RX_SIXTH, _SRC, _BODY, [1e2, 1e3], f=f),
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", list(FREQUENCY_ENTRIES))
def test_non_finite_frequency_is_rejected(entry, bad):
    name, call = FREQUENCY_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad!r}$"):
        call(bad)


_RX_OVERFLOWING = ReceiverParams(c_ret=30e-12, c_gb=1e300, l=0.33e-3, r_l=1e3, r_s=1e3)
_F0_OVERFLOWING = resonant_frequency(_RX_OVERFLOWING)
NON_FINITE_RESULTS = {
    "transfer_function": ("H", 1e6, lambda: transfer_function(_RX_OVERFLOWING, 1e6)),
    "transfer_function[array]": ("H", 1e6, lambda: transfer_function(_RX_OVERFLOWING, [1e6, 2e6])),
    "channel_response": ("p_out_rms", 1e6, lambda: channel_response(_RX_OVERFLOWING, _SRC, _BODY, [1e6, 2e6])),
    "received_power": (
        "p_out_rms",
        _F0_OVERFLOWING,
        lambda: received_power(_RX_OVERFLOWING, _SRC, _BODY, _F0_OVERFLOWING),
    ),
    "multi_receiver_power": (
        "p_out_rms",
        _F0_OVERFLOWING,
        lambda: optimize.multi_receiver_power([RX_SIXTH, _RX_OVERFLOWING], _SRC, _BODY),
    ),
}


@pytest.mark.parametrize("entry", list(NON_FINITE_RESULTS))
def test_a_closed_form_past_double_precision_names_its_frequency(entry):
    # k = 1 + C_GB/C_ret overflows to inf, so H is inf/inf; no numpy warning escapes.
    name, f, call = NON_FINITE_RESULTS[entry]
    with pytest.raises(channel.NonFiniteResultError, match=rf"^{name} must be finite; at frequency = {f!r} it is \(?nan"):
        call()


def _readme_symbol_table() -> dict:
    """Paper symbol -> the backticked fields and functions of its row in
    README's symbol table."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Paper symbols", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4:
            for symbol in re.findall(r"`([^`]+)`", cells[1]):
                table[symbol] = re.findall(r"`([^`]+)`", cells[2])
    return table


def test_symbol_audit_map():
    table = _readme_symbol_table()
    assert table["C_ret"] == ["ReceiverParams.c_ret"]
    assert table["Q"] == ["ResonantWearableTx.q"]
    assert table["R_S"] == ["GroundedTx.r_src"]
    assert table["SAR"] == []  # out of scope for the lumped-element model
    # Every conventional symbol of the lumped model is housed somewhere, and
    # every field or function named exists.
    for name in ("V_IN", "V_B", "V_o", "R_B", "C_B", "C_GB", "L", "R_L", "C_L", "omega_0", "P_out", "C_ret-Tx"):
        assert table[name]
    for target in sum(table.values(), []):
        owner, _, name = target.rpartition(".")
        if owner:
            assert name in getattr(channel, owner).__dataclass_fields__, target
        else:
            assert callable(getattr(channel, name, None) or getattr(analysis, name)), target
