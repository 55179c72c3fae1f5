"""The scalar design path: one evaluation in Python floats, bit for bit a
point of the broadcasting kernel, with no numpy error state and no file read
per call."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodychannel import analysis, channel, cli, optimize, safety
from bodychannel.channel import (
    BodyModel,
    GroundedTx,
    NonFiniteResultError,
    ReceiverParams,
    ResonantWearableTx,
    WearableTx,
    channel_response,
    received_power,
    resonant_frequency,
    transfer_function,
)
from helpers import SCENARIO_DIR, log_uniform_floats


@st.composite
def _circuits(draw):
    """A receiver with each of its six fields drawn (l, c_gb, c_l and r_s
    each 0 or not; c_ret and r_l must be > 0), a source of each kind with
    each amplitude convention, a body and a frequency."""

    def zero_or(lo, hi):
        return draw(st.one_of(st.just(0.0), log_uniform_floats(lo, hi)))

    rx = ReceiverParams(
        c_ret=draw(log_uniform_floats(1e-13, 1e-10)),
        r_l=draw(log_uniform_floats(1.0, 1e7)),
        l=zero_or(1e-6, 1e-1),
        c_gb=zero_or(1e-13, 1e-10),
        c_l=zero_or(1e-13, 1e-9),
        r_s=zero_or(1e-2, 1e4),
    )
    v_in = draw(log_uniform_floats(0.1, 100.0))
    convention = draw(st.sampled_from(("pp", "amplitude", "rms")))
    kind = draw(st.sampled_from(("grounded", "wearable", "resonant-wearable")))
    if kind == "grounded":
        src = GroundedTx(v_in, convention, r_src=zero_or(1.0, 1e3))
    elif kind == "wearable":
        src = WearableTx(v_in, convention, c_ret_tx=draw(log_uniform_floats(1e-13, 1e-10)))
    else:
        src = ResonantWearableTx(
            v_in, convention, c_ret_tx=draw(log_uniform_floats(1e-13, 1e-10)), q=draw(log_uniform_floats(1.0, 100.0))
        )
    body = BodyModel(c_b=draw(log_uniform_floats(1e-11, 1e-9)), r_b=zero_or(1.0, 1e3))
    return rx, src, body, draw(log_uniform_floats(1e3, 1e9))


def _same(a, b) -> bool:
    """Equal bit for bit, the sign of a zero included."""
    return np.array(a).tobytes() == np.array(b).tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(circuit=_circuits())
def test_a_scalar_evaluation_is_a_sweep_point_bit_for_bit(circuit):
    rx, src, body, f = circuit
    point = received_power(rx, src, body, f)
    assert type(point.v_o) is complex and type(point.p_out_rms) is float
    freqs = np.array([f / 3.0, f, f * 7.0])
    v_o, p = channel_response(rx, src, body, freqs)
    assert _same(point.v_o, v_o[1]) and _same(point.p_out_rms, p[1])
    sweep = analysis.simulate("frequency", rx, src, body, freqs)
    assert _same(point.v_o, sweep.v_o[1]) and _same(point.p_out_rms, sweep.p_out_rms[1])
    h = transfer_function(rx, f)
    assert type(h) is complex and _same(h, transfer_function(rx, freqs)[1])
    # The load and drive axes evaluate at one fixed frequency.
    loads = np.array([rx.r_l / 2.0, rx.r_l, rx.r_l * 5.0])
    load_sweep = analysis.simulate("load", rx, src, body, loads, f)
    assert _same(point.v_o, load_sweep.v_o[1]) and _same(point.p_out_rms, load_sweep.p_out_rms[1])
    drives = np.array([src.v_in / 2.0, src.v_in, src.v_in * 3.0])
    drive_sweep = analysis.simulate("input_voltage", rx, src, body, drives, f)
    assert _same(point.v_o, drive_sweep.v_o[1]) and _same(point.p_out_rms, drive_sweep.p_out_rms[1])
    if rx.r_s > 0.0:
        result = optimize.optimal_load(rx, src, body, f, (1e-3, 1e9))
        p_at = channel_response(rx, src, body, f, r_l=[result.argmax])[1][0]
        assert _same(result.objective_at_argmax, p_at)


def test_resonance_writes_the_one_point_frequency_sweep():
    for name in ("fig4a.scn", "resonant_wearable.scn", "wearable_inductance.scn", "rx2.scn"):
        config = cli.load_scenario(SCENARIO_DIR / name)
        rx = config.receiver
        sweep = analysis.simulate("frequency", rx, config.source, config.body, [resonant_frequency(rx)])
        table, code = cli.run("resonance", config)
        assert code == 0
        assert table.columns == cli.sweep_to_table(sweep).columns
        assert _same(table.rows, cli.sweep_to_table(sweep).rows)


def test_the_scalar_path_needs_no_errstate_and_reads_no_limit_table(monkeypatch):
    # The scenario's limit table is parsed once, when it loads; a scalar op
    # then enters no numpy error state and reads no file.
    config = cli.load_scenario(SCENARIO_DIR / "safety_example.scn")
    rx = replace(config.receiver, r_s=100.0)
    f = resonant_frequency(rx)

    def forbidden(*args, **kwargs):
        raise AssertionError("the scalar path called a function it must not need")

    monkeypatch.setattr(np, "errstate", forbidden)
    monkeypatch.setattr(safety, "load_limit_table", forbidden)
    assert received_power(rx, config.source, config.body, f).p_out_rms > 0.0
    assert optimize.optimal_load(rx, config.source, config.body, f, (1.0, 1e6)).objective_at_argmax > 0.0
    assert transfer_function(rx, f) != 0.0
    for command in ("safety", "max-safe-vin", "multi", "resonance"):
        assert cli.run(command, config)[1] == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda rx, src, body: received_power(rx, src, body, 5e-324),
        lambda rx, src, body: transfer_function(rx, 5e-324),
        lambda rx, src, body: optimize.optimal_load(rx, src, body, 5e-324, (1.0, 1e6)),
        lambda rx, src, body: optimize.max_power_under_current_limit(rx, src, body, 5e-324, 1.0),
    ],
    ids=["received_power", "transfer_function", "optimal_load", "max_power_under_current_limit"],
)
def test_a_python_division_by_zero_names_its_frequency(call):
    # 2*pi*f*C_ret underflows to 0, so 1/(w*C_ret) divides by zero in
    # Python floats: a NonFiniteResultError naming f (a numpy warning would
    # fail the suite, whose filterwarnings turns warnings into errors).
    rx = ReceiverParams(c_ret=1e-12, r_l=1e3, l=1e-3, r_s=10.0)
    with pytest.raises(NonFiniteResultError, match=r"must be finite; at frequency = 5e-324 it divides by zero$"):
        call(rx, GroundedTx(5.0, "pp"), BodyModel(c_b=150e-12))


def test_evaluate_maps_overflow_and_nan_to_one_error():
    def overflows():
        return 1e200**2

    with pytest.raises(NonFiniteResultError, match=r"^x must be finite; at frequency = 1.0 it overflows$"):
        channel._evaluate("x", 1.0, overflows)
    with pytest.raises(NonFiniteResultError, match=r"^x must be finite; at frequency = 2.0 it is nan$"):
        channel._evaluate("x", 2.0, lambda: (1.0, math.nan))
    # Of a tuple, the last item is the result checked: (v_o, p) checks p.
    v_o, p = channel._evaluate("x", 3.0, lambda: (complex(math.nan, 0.0), 4.0))
    assert p == 4.0
    # At an array axis numpy gives inf without a warning, and the error names
    # the first axis value where the result is not finite.
    at = np.array([1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteResultError, match=r"^x must be finite; at frequency = 2.0 it is inf$"):
        channel._evaluate("x", at, lambda: np.array([1.0, 1e200, 1e300]) ** 2)
