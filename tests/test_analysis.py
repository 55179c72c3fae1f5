"""Peak detection, capacitance inversions, fitting, sensitivities, and Q."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodychannel import acnet, analysis, channel
from bodychannel.analysis import (
    AmbiguousPeakError,
    IdentifiabilityError,
    InconsistentMeasurementError,
    SweepResult,
    WindowTruncationError,
    WindowTruncationWarning,
    capacitance_ratio_from_power,
    find_resonant_peak,
    fit_params,
    fit_total_capacitance,
    q_factor,
    sensitivity,
    simulate,
    simulate_frequency_sweep,
)
from bodychannel.channel import (
    BodyModel,
    _response,
    GroundedTx,
    ReceiverParams,
    WearableTx,
    body_potential,
    received_power,
    resonant_frequency,
    resonant_gain,
)
from helpers import draw_source, log_uniform_floats, mp_transfer, random_receiver

BODY = BodyModel(c_b=150e-12)
SRC = GroundedTx(v_in=5.0, convention="pp")


# ── sweep container ─────────────────────────────────────────────────────


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult(axis="frequency", values=[2e6, 1e6], p_out_rms=[1.0, 1.0])
    with pytest.raises(ValueError):
        SweepResult(axis="frequency", values=[1e6, 2e6], p_out_rms=[1.0, -1.0])
    with pytest.raises(ValueError):
        SweepResult(axis="voltage", values=[1.0, 2.0], p_out_rms=[1.0, 1.0])
    sw = SweepResult(axis="frequency", values=[1e6, 2e6], p_out_rms=[1.0, 2.0])
    assert sw.power_only and len(sw) == 2
    assert sw.values.tolist() == [1e6, 2e6] and sw.p_out_rms.tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "values, powers, name",
    [
        ([1.0, 2.0], [math.nan, 1.0], "p_out_rms"),
        ([1.0, 2.0], [1.0, math.inf], "p_out_rms"),
        ([1.0, math.inf], [1.0, 1.0], "values"),
        ([-math.inf, 1.0], [1.0, 1.0], "values"),
        ([1.0, math.nan], [1.0, 1.0], "values"),
        ([1.0, 2.0], [1.0, 1.0], "v_o"),
    ],
)
def test_sweep_result_rejects_non_finite_data(values, powers, name):
    v_o = [complex(math.nan, 0.0), complex(math.inf, 1.0)] if name == "v_o" else None
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SweepResult("frequency", values, powers, v_o=v_o)


_SWEEP_RX = ReceiverParams(c_ret=30e-12, r_l=1e3, l=0.33e-3)
_GOOD_POINT = {"frequency": 1e6, "load": 1e3, "inductance": 0.33e-3, "input_voltage": 5.0}


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("axis", analysis.AXES)
@pytest.mark.parametrize("mna", [False, True])
def test_sweep_rejects_a_bad_axis_value_the_same_on_both_backends(mna, axis, bad):
    if axis == "inductance" and bad <= 0.0:
        error, message = channel.NonResonantReceiverError, "an inductance sweep needs every l > 0"
    else:
        error, message = ValueError, f"every {axis} value must be finite and > 0, got {bad!r}"
    with pytest.raises(error) as excinfo:
        simulate(axis, _SWEEP_RX, SRC, BODY, [_GOOD_POINT[axis], bad], f=1.6e6, mna=mna)
    assert type(excinfo.value) is error and str(excinfo.value).startswith(message)


@pytest.mark.parametrize("mna", [False, True])
def test_an_inductance_whose_resonance_overflows_is_rejected_on_both_backends(mna):
    # L * C_ret underflows to 0 for a subnormal L, so f0 is infinite.
    with pytest.raises(ValueError) as excinfo:
        simulate("inductance", _SWEEP_RX, SRC, BODY, [5e-324, 1e-3], mna=mna)
    assert str(excinfo.value) == (
        "the resonant frequency of every inductance must be finite and > 0, got inf"
    )


@pytest.mark.parametrize("f", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("axis", ["load", "input_voltage"])
@pytest.mark.parametrize("mna", [False, True])
def test_sweep_rejects_a_bad_fixed_frequency_the_same_on_both_backends(mna, axis, f):
    with pytest.raises(ValueError) as excinfo:
        simulate(axis, _SWEEP_RX, SRC, BODY, [_GOOD_POINT[axis]], f=f, mna=mna)
    assert str(excinfo.value) == f"the fixed frequency f of the {axis} sweep must be finite and > 0, got {f!r}"


# ── peak detection ──────────────────────────────────────────────────────


def test_peak_from_calibrated_inductor_lands_at_1_6_mhz():
    rx = ReceiverParams(c_ret=30e-12, r_l=1000.0, l=0.33e-3)
    sweep = simulate_frequency_sweep(rx, SRC, BODY, np.geomspace(1e5, 1e7, 1001))
    f_peak, p_peak = find_resonant_peak(sweep)
    assert f_peak == pytest.approx(1.600e6, rel=0.005)
    assert f_peak == pytest.approx(resonant_frequency(rx), rel=1e-6)
    assert p_peak == pytest.approx(sweep.p_out_rms.max(), rel=1e-6)


def test_peak_refinement_beats_the_grid():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rx = random_receiver(rng, lossless=True, with_c_l=False)
        f0 = resonant_frequency(rx)
        grid = np.geomspace(f0 / 4, f0 * 4, 1001)
        sweep = simulate_frequency_sweep(rx, SRC, BODY, grid)
        f_peak, _ = find_resonant_peak(sweep)
        k = int(np.argmax(sweep.p_out_rms))
        step = grid[k + 1] - grid[k]
        assert abs(f_peak - f0) < step


def test_monotone_sweep_warns_about_window_truncation():
    rx = ReceiverParams(c_ret=1e-12, r_l=1e3, l=0.0)  # no resonance: rising response
    sweep = simulate_frequency_sweep(rx, SRC, BODY, np.geomspace(1e5, 1e7, 64))
    with pytest.warns(WindowTruncationWarning):
        f_peak, _ = find_resonant_peak(sweep)
    assert f_peak == sweep.values[-1]


def test_monotone_power_with_a_round_off_top_peaks_on_the_upper_edge():
    # L = r_s = 0: the power rises monotonically, yet the top grid rows are
    # equal to round-off and the grid argmax (row 1958) is interior.
    rx = ReceiverParams(
        c_ret=2.0947464551115934e-12, c_gb=1.886626257594488e-12, c_l=1e-12,
        r_l=534002.0965812331,
    )
    grid = np.geomspace(381874859.7972476, 3650531699711.6675, 2001)
    sweep = simulate_frequency_sweep(rx, SRC, BODY, grid)
    assert 0 < np.argmax(sweep.p_out_rms) < len(grid) - 1
    with pytest.warns(WindowTruncationWarning):
        f_peak, p_peak = find_resonant_peak(sweep)
    assert (f_peak, p_peak) == (grid[-1], sweep.p_out_rms[-1])


def test_numerical_ripple_below_floor_is_ignored():
    rx = ReceiverParams(c_ret=30e-12, r_l=1000.0, l=0.33e-3)
    grid = np.geomspace(1e6, 2.56e6, 101)
    sweep = simulate_frequency_sweep(rx, SRC, BODY, grid)
    p = sweep.p_out_rms.copy()
    p[20] *= 1.0 + 1e-7  # sub-floor bump far from the peak
    rippled = SweepResult(axis="frequency", values=grid, p_out_rms=p, circuit=sweep.circuit)
    f_peak, _ = find_resonant_peak(rippled)
    assert f_peak == pytest.approx(resonant_frequency(rx), rel=1e-4)


def test_two_real_peaks_raise_ambiguity_with_candidates():
    x = np.linspace(1.0, 9.0, 81)
    p = np.exp(-((x - 3.0) ** 2)) + 0.8 * np.exp(-((x - 7.0) ** 2))
    sweep = SweepResult(axis="frequency", values=x, p_out_rms=p)
    with pytest.raises(AmbiguousPeakError) as excinfo:
        find_resonant_peak(sweep)
    cands = excinfo.value.candidates
    assert len(cands) == 2
    assert cands[0][0] == pytest.approx(3.0, abs=0.1)
    assert cands[1][0] == pytest.approx(7.0, abs=0.1)


def test_peak_needs_five_rows():
    sweep = SweepResult(axis="frequency", values=[1.0, 2.0, 3.0], p_out_rms=[1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="5 rows"):
        find_resonant_peak(sweep)


def test_parabolic_refinement_without_model():
    # Quadratic data: the interpolated vertex is exact.
    x = np.linspace(0.5, 1.5, 11)
    p = 2.0 - (x - 1.05) ** 2
    sweep = SweepResult(axis="frequency", values=x, p_out_rms=p)
    f_peak, p_peak = find_resonant_peak(sweep)
    assert f_peak == pytest.approx(1.05, rel=1e-12)
    assert p_peak == pytest.approx(2.0, rel=1e-12)


@st.composite
def _peaked_channels(draw):
    """Receivers whose power has an interior peak: L > 0, or L = 0 with
    r_s, C_L > 0.  R_L spans low-Q (Q < 1.5) and high-Q receivers."""
    def optional(lo, hi):
        return draw(st.just(0.0) | log_uniform_floats(lo, hi))

    resonant = draw(st.booleans())
    rx = ReceiverParams(
        c_ret=draw(log_uniform_floats(1e-12, 100e-12)),
        c_gb=optional(0.1e-12, 50e-12),
        l=draw(log_uniform_floats(10e-6, 10e-3)) if resonant else 0.0,
        r_l=draw(log_uniform_floats(10.0, 1e5)),
        c_l=optional(0.1e-12, 1e-9) if resonant else draw(log_uniform_floats(0.1e-12, 1e-9)),
        r_s=optional(1.0, 1e4) if resonant else draw(log_uniform_floats(1.0, 1e4)),
    )
    return rx, draw_source(draw), BodyModel(c_b=draw(log_uniform_floats(10e-12, 300e-12)))


def _mp_peak_frequency(rx, lo, hi):
    """The root of d|H|^2/dw in [lo, hi] Hz, found in 50-digit arithmetic
    from the textbook transfer function."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        values = [mp.mpf(x) for x in (rx.c_ret, rx.c_gb, rx.l, rx.r_l, rx.c_l, rx.r_s)]

        def gain2(w):
            return abs(mp_transfer(w, *values)) ** 2

        def log_slope(w):  # d ln|H|^2 / d ln w: dimensionless, zero at the peak
            return w * mp.diff(gain2, w) / gain2(w)

        w = mp.findroot(log_slope, (mp.mpf(lo) * 2 * mp.pi, mp.mpf(hi) * 2 * mp.pi), solver="anderson")
        return float(w / (2 * mp.pi))


# Q = 0.28: the power is flat to round-off over about 1e-7 of the frequency
# around this peak, which a search on power values alone misses by 4e-8.
_LOW_Q = (
    ReceiverParams(c_ret=22e-12, r_l=30e3, l=2.279e-3, c_gb=11e-12, c_l=1e-12, r_s=41.0),
    GroundedTx(5.0, "pp"),
    BodyModel(c_b=150e-12),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(channel=_peaked_channels())
@example(channel=_LOW_Q)
def test_closed_form_peak_matches_a_50_digit_root(channel):
    rx, src, body = channel
    sweep = simulate("frequency", rx, src, body, np.geomspace(1e2, 1e13, 2001))
    i = int(np.argmax(sweep.p_out_rms))
    f_ref = _mp_peak_frequency(rx, sweep.values[i - 1], sweep.values[i + 1])
    f_peak, p_peak = find_resonant_peak(sweep)
    assert f_peak == pytest.approx(f_ref, rel=1e-12)
    assert p_peak == received_power(rx, src, body, f_peak).p_out_rms
    assert p_peak >= sweep.p_out_rms.max() * (1.0 - 1e-14)
    if rx.c_l == 0.0:
        assert f_peak == pytest.approx(resonant_frequency(rx), rel=1e-14)


def _gaussian_pair(params):
    c1, c2, w1, w2, a2, n = params
    x = np.linspace(0.0, 1.0, n)
    return np.exp(-(((x - c1) / w1) ** 2)) + a2 * np.exp(-(((x - c2) / w2) ** 2))


def _flat_lorentzian(params):
    c, width, n = params
    x = np.linspace(-1.0, 1.0, n)
    return 1.0 / (1.0 + ((x - c) / width) ** 2)


_unit = st.floats(0.0, 1.0)
_PEAK_PROFILES = st.one_of(
    # Small integers make plateaus of every width, on the borders too.
    st.lists(st.integers(0, 3), max_size=40).map(lambda v: np.array(v, dtype=float)),
    st.lists(_unit, max_size=40).map(np.array),
    st.tuples(_unit, _unit, st.floats(0.01, 0.3), st.floats(0.01, 0.3), _unit,
              st.integers(5, 200)).map(_gaussian_pair),
    st.tuples(st.floats(-0.5, 0.5), st.floats(1.0, 100.0), st.integers(5, 200)).map(
        _flat_lorentzian
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(p=_PEAK_PROFILES, rel=st.sampled_from((0.0, 1e-6, 1e-3, 0.1, 0.5)))
def test_prominent_peaks_match_scipy_find_peaks(p, rel):
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    threshold = rel * p.max() if p.size else 0.0
    expected = find_peaks(p, prominence=threshold)[0].tolist()
    assert analysis._prominent_peaks(p, threshold) == expected


@pytest.mark.parametrize(
    "p, threshold, expected",
    [
        # Plateau 2..5 counts once at (2 + 5) // 2 with prominence 2 - max(1, 0);
        # the plateaus on the borders are no peaks.
        ([3.0, 1.0, 2.0, 2.0, 2.0, 2.0, 0.0, 5.0, 5.0], 0.0, [3]),
        ([3.0, 1.0, 2.0, 2.0, 2.0, 2.0, 0.0, 5.0, 5.0], 1.0, [3]),
        ([3.0, 1.0, 2.0, 2.0, 2.0, 2.0, 0.0, 5.0, 5.0], 1.0 + 1e-12, []),
        # Each 3 walks past the other down to the 0 beyond it: prominence 3, not 1.
        ([0.0, 3.0, 2.0, 3.0, 0.0], 3.0, [1, 3]),
    ],
)
def test_prominent_peaks_examples(p, threshold, expected):
    assert analysis._prominent_peaks(np.array(p), threshold) == expected


# ── capacitance inversions ──────────────────────────────────────────────


def test_inductance_sweep_points_sit_at_each_inductors_resonance():
    # The sweep's per-point frequencies and resonant_frequency share one
    # formula, so each point is the scalar resonance, bit for bit.
    rx = ReceiverParams(c_ret=2.7e-12, c_gb=3.1e-12, l=1e-3, r_l=1e3, r_s=120.0)
    values = np.geomspace(0.1e-3, 10e-3, 257)
    freqs, swept = analysis._sweep_points("inductance", rx, values, None)
    assert swept["l"] is values
    assert freqs.tolist() == [resonant_frequency(replace(rx, l=v)) for v in values.tolist()]
    assert type(resonant_frequency(rx)) is float


def test_fit_total_capacitance_values():
    c1 = fit_total_capacitance(0.33e-3, 1.6e6)
    assert c1 == pytest.approx(30.0e-12, rel=1e-3)
    c2 = fit_total_capacitance(4.222e-3, 1.0e6)
    assert c2 == pytest.approx(6.0e-12, rel=1e-3)


@pytest.mark.parametrize(
    ("l", "f_peak", "message"),
    [(math.inf, 1e6, "l must be finite and > 0, got inf"), (1e-3, math.inf, "f_peak must be finite and > 0, got inf")],
)
def test_fit_total_capacitance_rejects_an_infinite_input(l, f_peak, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_total_capacitance(l, f_peak)


def test_fit_total_capacitance_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        l = float(10 ** rng.uniform(-4.5, -2.0))
        f = float(10 ** rng.uniform(5.0, 7.0))
        c = fit_total_capacitance(l, f)
        rx = ReceiverParams(c_ret=c, r_l=1e3, l=l)
        assert resonant_frequency(rx) == pytest.approx(f, rel=1e-12)


def test_capacitance_ratio_from_reference_powers():
    v_b = 12.0 / (2 * math.sqrt(2))
    for p_rms, rho_expected in ((2.1e-3, 1.93), (531e-6, 4.82), (135e-6, 10.55)):
        gain = math.sqrt(p_rms * 1000.0) / v_b
        oracle = 1.0 / gain - 1.0
        rho = capacitance_ratio_from_power(p_rms, 1000.0, v_b)
        assert rho == pytest.approx(oracle, rel=1e-12)
        assert rho == pytest.approx(rho_expected, abs=5e-3)


def test_capacitance_ratio_inverts_resonant_gain():
    rng = np.random.default_rng(29)
    for _ in range(20):
        rx = random_receiver(rng, lossless=True)
        rho = rx.c_gb / rx.c_ret
        gain = resonant_gain(rx)
        v_b = 3.7
        p = (v_b * gain) ** 2 / rx.r_l
        assert capacitance_ratio_from_power(p, rx.r_l, v_b) == pytest.approx(rho, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    ("args", "name"),
    [
        ((2e-3, 1e3, math.nan), "v_b_rms"),
        ((2e-3, 1e3, 0.0), "v_b_rms"),
        ((2e-3, -1.0, 4.2), "r_l"),
        ((2e-3, math.inf, 4.2), "r_l"),
        ((math.inf, 1e3, 4.2), "p_rms"),
        ((0.0, 1e3, 4.2), "p_rms"),
    ],
)
def test_capacitance_ratio_rejects_a_nonfinite_or_nonpositive_input(args, name):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        capacitance_ratio_from_power(*args)


def test_capacitance_ratio_rejects_gain_above_unity():
    with pytest.raises(InconsistentMeasurementError):
        capacitance_ratio_from_power(5.0, 1000.0, 1.0)


# ── parameter fitting ───────────────────────────────────────────────────


def _observed_sweep(rx_true, noise=None, rng=None):
    f0 = resonant_frequency(rx_true)
    grid = np.geomspace(f0 / 3, f0 * 3, 41)
    sweep = simulate_frequency_sweep(rx_true, SRC, BODY, grid)
    if noise:
        factors = rng.normal(1.0, noise, size=len(grid))
        sweep = SweepResult(
            axis="frequency", values=grid, p_out_rms=sweep.p_out_rms * np.abs(factors)
        )
    return sweep


def test_fit_recovers_capacitances_noise_free():
    rng = np.random.default_rng(31)
    for _ in range(5):
        rx_true = random_receiver(rng, lossless=False, with_c_l=False, parasitic_c_l=True)
        observed = _observed_sweep(rx_true)
        start = replace(rx_true, c_ret=rx_true.c_ret * 1.6, c_gb=rx_true.c_gb * 0.6)
        report = fit_params(observed, ["c_ret", "c_gb"], start, SRC, BODY)
        assert report.converged
        for name in ("c_ret", "c_gb"):
            truth = getattr(rx_true, name)
            assert abs(report.fitted_params[name] - truth) / truth < 5e-3


def test_fit_recovers_series_loss():
    rx_true = ReceiverParams(c_ret=2e-12, c_gb=3e-12, l=2e-3, r_l=1000.0, r_s=750.0)
    observed = _observed_sweep(rx_true)
    report = fit_params(observed, ["r_s"], replace(rx_true, r_s=100.0), SRC, BODY)
    assert report.converged
    assert report.fitted_params["r_s"] == pytest.approx(750.0, rel=5e-3)


def test_fit_with_noise_stays_close():
    rng = np.random.default_rng(37)
    rx_true = ReceiverParams(c_ret=1.5e-12, c_gb=4.5e-12, l=3e-3, r_l=1000.0, r_s=300.0)
    errs = []
    for _ in range(5):
        observed = _observed_sweep(rx_true, noise=0.01, rng=rng)
        start = replace(rx_true, c_ret=rx_true.c_ret * 1.4, c_gb=rx_true.c_gb * 0.7)
        report = fit_params(observed, ["c_ret", "c_gb"], start, SRC, BODY)
        errs.append(
            max(
                abs(report.fitted_params[n] - getattr(rx_true, n)) / getattr(rx_true, n)
                for n in ("c_ret", "c_gb")
            )
        )
    assert np.median(errs) < 0.05


def test_fit_single_observation_is_unidentifiable():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    f0 = resonant_frequency(rx)
    peak_only = SweepResult(
        axis="frequency",
        values=[f0],
        p_out_rms=[(body_potential(SRC, BODY, f0) * resonant_gain(rx)) ** 2 / rx.r_l],
    )
    with pytest.raises(IdentifiabilityError) as excinfo:
        fit_params(peak_only, ["c_ret", "c_gb"], rx, SRC, BODY)
    message = str(excinfo.value)
    assert "c_ret" in message and "c_gb" in message


def test_fit_input_validation():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    sweep = _observed_sweep(rx)
    with pytest.raises(ValueError, match="unknown fit parameter"):
        fit_params(sweep, ["c_x"], rx, SRC, BODY)
    with pytest.raises(ValueError, match="empty"):
        fit_params(sweep, [], rx, SRC, BODY)
    load_sweep = simulate("load", rx, SRC, BODY, np.geomspace(100, 1e4, 16), f=1e6)
    with pytest.raises(ValueError, match="frequency sweep"):
        fit_params(load_sweep, ["c_ret"], rx, SRC, BODY)
    with pytest.raises(ValueError, match="positive starting value"):
        fit_params(sweep, ["c_gb"], replace(rx, c_gb=0.0), SRC, BODY)


def test_fit_rejects_a_non_positive_observed_frequency():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    sweep = _observed_sweep(rx)
    for f_low in (0.0, -1e3):
        values = np.concatenate(([f_low], sweep.values[1:]))
        observed = SweepResult(axis="frequency", values=values, p_out_rms=sweep.p_out_rms)
        with pytest.raises(ValueError, match=f"^every observed frequency must be finite and > 0, got {f_low!r}$"):
            fit_params(observed, ["c_ret"], rx, SRC, BODY)


def test_fit_names_a_parameter_the_data_does_not_move():
    # r_s = 1 nOhm leaves the log-power Jacobian column exactly zero.
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3, l=330e-6, r_s=1e-9)
    src = GroundedTx(5.0, "pp")
    f0 = resonant_frequency(rx)
    observed = simulate_frequency_sweep(rx, src, BODY, np.linspace(0.8 * f0, 1.2 * f0, 41))
    for free in (["c_ret", "r_s"], ["r_s", "c_ret"], ["r_s"]):
        with pytest.raises(IdentifiabilityError, match="insensitive to parameter 'r_s'"):
            fit_params(observed, free, rx, src, BODY)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_free=st.integers(2, 4),
    kind=st.sampled_from(("zero", "scaled copy", "sum")),
)
def test_identifiability_error_names_the_degenerate_parameters(seed, n_free, kind):
    rng = np.random.default_rng(seed)
    free = list(rng.permutation(analysis.FIT_PARAMETERS)[:n_free])
    j = rng.normal(size=(3 * n_free, n_free)) * rng.uniform(0.1, 10.0, n_free)
    a, b, *rest = rng.permutation(n_free).tolist()
    if kind == "zero":
        j[:, a] = 0.0
    elif kind == "scaled copy":
        j[:, a] = -2.5 * j[:, b]
    else:
        j[:, a] = j[:, b] + (j[:, rest[0]] if rest else 0.0)
    with pytest.raises(IdentifiabilityError) as excinfo:
        analysis._check_identifiable(j, free)
    message = str(excinfo.value)
    named = [name for name in free if repr(name) in message]
    if kind == "zero":
        assert named == [free[a]] and "insensitive" in message
    else:
        assert "collinear" in message and len(named) == 2
        if kind == "scaled copy":
            assert set(named) == {free[a], free[b]}


@st.composite
def _jacobian_points(draw, zero_fields=("c_l", "r_s")):
    """A receiver with each field named in ``zero_fields`` zero or not, a
    source of each kind, and a frequency within a decade of the resonance of
    a drawn L > 0 (which is then zeroed half the time where ``zero_fields``
    names ``l``)."""

    def field(name, lo, hi):
        values = log_uniform_floats(lo, hi)
        return draw(st.just(0.0) | values if name in zero_fields else values)

    rx = ReceiverParams(
        c_ret=draw(log_uniform_floats(0.5e-12, 50e-12)),
        c_gb=field("c_gb", 0.1e-12, 20e-12),
        l=draw(log_uniform_floats(10e-6, 10e-3)),
        r_l=draw(log_uniform_floats(10.0, 1e5)),
        c_l=field("c_l", 0.1e-12, 10e-12),
        r_s=field("r_s", 1.0, 1e4),
    )
    f = resonant_frequency(rx) * draw(log_uniform_floats(0.1, 10.0))
    if "l" in zero_fields and draw(st.booleans()):
        rx = replace(rx, l=0.0)
    return rx, draw_source(draw), BodyModel(c_b=draw(log_uniform_floats(10e-12, 300e-12))), f


#: A scale for each receiver field: the step of a difference quotient, or of
#: a slack, where the field itself is 0.
_FIELD_UNIT = {"c_ret": 1e-12, "c_gb": 1e-12, "l": 1e-3, "r_l": 1e3, "c_l": 1e-12, "r_s": 1e3}


def _mp_log_gain_gradient(rx, f, name):
    """dH/dtheta / H for the field ``name``: the complex gradient of log H,
    whose real part is half of d log P / d theta.  A central difference in
    60-digit arithmetic on the textbook transfer function, with a step of
    1e-25 of the field, or of its unit where the field is 0 (H is analytic
    through 0 in r_s, l, c_gb and c_l)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        values = {k: mp.mpf(getattr(rx, k)) for k in ("c_ret", "c_gb", "l", "r_l", "c_l", "r_s")}
        w = 2 * mp.pi * mp.mpf(f)

        def gain(theta):
            return mp_transfer(w, **dict(values, **{name: theta}))

        theta = values[name]
        h = (theta or mp.mpf(_FIELD_UNIT[name])) * mp.mpf("1e-25")
        return complex((gain(theta + h) - gain(theta - h)) / (2 * h) / gain(theta))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point=_jacobian_points(zero_fields=("c_gb", "l", "c_l", "r_s")))
def test_fit_jacobian_matches_a_60_digit_central_difference(point):
    # The real part of a complex quotient is resolved relative to its
    # modulus: near resonance |d log H / d log theta| ~ Q while its real
    # part can pass through 0.  P = |V_B*H|^2 / R_L, so the r_l column is
    # 2*Re(d log H / d R_L) - 1/R_L.  Each field that may be 0 is 0 in some
    # draws, where its column is checked through the same kernel.
    rx, src, body, f = point
    freqs = np.array([f])
    fields = (*analysis.FIT_PARAMETERS, "r_l", "c_l")
    p, jac = channel._power_and_log_gradient(rx, src, body, freqs, fields)
    assert p[0] == _response(rx, src, body, freqs)[1][0]
    for k, name in enumerate(fields):
        g = 2.0 * _mp_log_gain_gradient(rx, f, name)
        scale = getattr(rx, name) or _FIELD_UNIT[name]
        if name == "r_l":
            assert abs(jac[0, k] - (g.real - 1.0 / rx.r_l)) <= 1e-8 * (abs(g) + 1.0 / rx.r_l) + 1e-12 / scale, name
        elif name == "c_l":
            assert abs(jac[0, k] - g.real) <= 1e-8 * abs(g) + 1e-12 / scale, name
        else:
            assert abs(jac[0, k] - g.real) <= 1e-8 * abs(g), name


def _costed_fit(monkeypatch):
    """A 1%-noise fit of three fields, with counts of its closed-form
    evaluations (every one passes through channel._coefficients), the fit's
    own (through channel._power_and_log_gradient), SVDs and linear solves."""
    counts = {"evaluations": 0, "gradients": 0, "svd": 0, "solve": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    rx_true = ReceiverParams(c_ret=1.5e-12, c_gb=4.5e-12, l=3e-3, r_l=1000.0, r_s=300.0)
    observed = _observed_sweep(rx_true, noise=0.01, rng=np.random.default_rng(1000))
    start = replace(rx_true, c_ret=4.5e-12, c_gb=9e-12, r_s=600.0)
    monkeypatch.setattr(channel, "_coefficients", counting(channel._coefficients, "evaluations"))
    monkeypatch.setattr(
        analysis,
        "_power_and_log_gradient",
        counting(channel._power_and_log_gradient, "gradients"),
    )
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, "svd"))
    monkeypatch.setattr(np.linalg, "solve", counting(np.linalg.solve, "solve"))
    return fit_params(observed, ["c_ret", "c_gb", "r_s"], start, SRC, BODY), counts


def test_each_fit_step_costs_one_closed_form_evaluation(monkeypatch):
    # From the given start alone (no linear start), the start costs one
    # evaluation, and each trial step one more (a finite-difference Jacobian
    # adds 2n per iteration).  Each iteration factors its Jacobian once, by
    # one SVD, and solves no linear system.
    monkeypatch.setattr(analysis, "_linear_start", lambda *args: None)
    report, counts = _costed_fit(monkeypatch)
    assert report.converged
    trial_steps = counts["gradients"] - 1
    assert trial_steps > report.iterations >= 3  # some trials were rejected
    assert counts["evaluations"] == trial_steps + 1
    # This fit stops before a further step, at the predicted-reduction test.
    assert counts["svd"] == report.iterations + 1
    assert counts["solve"] == 0


def test_the_linear_start_costs_one_evaluation_and_one_svd(monkeypatch):
    # The same fit with its linear start: the candidate adds one evaluation
    # and one SVD, and saves most of the iterations.
    report, counts = _costed_fit(monkeypatch)
    assert report.converged
    trial_steps = counts["gradients"] - 2
    assert trial_steps >= report.iterations
    assert report.iterations <= 2
    assert counts["evaluations"] == trial_steps + 2
    assert counts["svd"] == report.iterations + 2
    assert counts["solve"] == 0


def test_noise_floor_fits_report_converged():
    # Criterion 08's 50 fits of 1% noisy data: each minimum sits at the noise
    # floor, where no step lowers the SSE by more than round-off.
    truth = ReceiverParams(c_ret=1.5e-12, c_gb=4.5e-12, l=3e-3, r_l=1000.0, r_s=300.0)
    grid = np.geomspace(resonant_frequency(truth) / 3, resonant_frequency(truth) * 3, 41)
    clean = simulate_frequency_sweep(truth, SRC, BODY, grid)
    init = replace(truth, c_ret=truth.c_ret * 1.5, c_gb=truth.c_gb * 0.7)
    for seed in range(50):
        noise = np.abs(np.random.default_rng(1000 + seed).normal(1.0, 0.01, size=len(grid)))
        noisy = SweepResult(axis="frequency", values=grid, p_out_rms=clean.p_out_rms * noise)
        assert fit_params(noisy, ["c_ret", "c_gb"], init, SRC, BODY).converged, seed


def test_a_rejected_step_below_xtol_ends_the_fit_converged():
    # 0.1% noise: the last Gauss-Newton step is below xtol (1e-10 in log
    # space) and cannot lower the SSE, which is flat to round-off there.
    # More damping only shortens it, so the fit stops as converged.
    rng = np.random.default_rng(77)
    truth = random_receiver(rng, lossless=False, with_c_l=False)
    grid = np.geomspace(resonant_frequency(truth) / 3, resonant_frequency(truth) * 3, 41)
    clean = simulate_frequency_sweep(truth, SRC, BODY, grid)
    noisy = SweepResult(
        axis="frequency", values=grid, p_out_rms=clean.p_out_rms * np.abs(rng.normal(1, 1e-3, 41))
    )
    start = replace(truth, c_ret=truth.c_ret * 1.25, c_gb=truth.c_gb * 0.8)
    report = fit_params(noisy, ["c_ret", "c_gb"], start, SRC, BODY)
    assert report.converged
    for name in ("c_ret", "c_gb"):
        assert report.fitted_params[name] == pytest.approx(getattr(truth, name), rel=1e-2)


def _underflow_fit(seed):
    """A 1%-noise fit of three fields on a receiver where, from the given
    start, a trial step drives the model power to 0."""
    truth = ReceiverParams(
        c_ret=5.8140933090290823e-11,
        c_gb=1.265829399540237e-12,
        r_s=396.73428549707216,
        l=0.33e-3,
        r_l=1e3,
    )
    src = GroundedTx(5.0, "pp")
    f0 = resonant_frequency(truth)
    clean = simulate_frequency_sweep(truth, src, BODY, np.linspace(0.8 * f0, 1.2 * f0, 101))
    noise = 1.0 + 0.01 * np.random.default_rng(seed).normal(size=101)
    noisy = SweepResult(axis="frequency", values=clean.values, p_out_rms=clean.p_out_rms * noise)
    start = replace(truth, c_ret=truth.c_ret * 1.3, c_gb=truth.c_gb * 0.7, r_s=truth.r_s * 1.5)
    return lambda: fit_params(noisy, ["c_ret", "c_gb", "r_s"], start, src, BODY)


@pytest.mark.parametrize("seed", [66, 107, 264])
def test_a_trial_whose_power_underflows_is_rejected_without_a_warning(seed, monkeypatch):
    # From the given start alone (no linear start), a trial step on this
    # receiver drives the model power to 0, whose log would warn "divide by
    # zero" (an error under this suite's filterwarnings).  The trial is
    # rejected before the log is taken.
    zero_powers = []

    def recording(*args):
        p, jac = channel._power_and_log_gradient(*args)
        zero_powers.append(p.min() == 0.0)
        return p, jac

    monkeypatch.setattr(analysis, "_linear_start", lambda *args: None)
    monkeypatch.setattr(analysis, "_power_and_log_gradient", recording)
    try:
        report = _underflow_fit(seed)()
    except ValueError as exc:
        assert type(exc) is not ValueError  # a named subclass
    else:
        assert report.converged
    assert any(zero_powers)


@pytest.mark.parametrize("seed", [66, 107, 264])
def test_the_linear_start_recovers_the_fits_whose_trials_underflow(seed):
    assert _underflow_fit(seed)().converged


def test_a_trial_whose_kernel_overflows_is_rejected_without_a_warning(monkeypatch):
    # From the given start alone (no linear start), a trial step on this
    # receiver overflows inside channel._coefficients, which would warn
    # "overflow encountered in multiply" (an error under this suite's
    # filterwarnings).  The trial is rejected, and the fit reaches the truth.
    truth = ReceiverParams(
        c_ret=7.104028214140488e-12, c_gb=6.855457299225197e-13, l=4.686570167283964e-05,
        r_l=28.681870332061326, r_s=182.7827337067406,
    )
    src = WearableTx(5.0, "pp", c_ret_tx=4.3291159918567766e-12)
    body = BodyModel(c_b=189.97e-12)
    f0 = resonant_frequency(truth)
    observed = simulate_frequency_sweep(truth, src, body, np.geomspace(f0 / 2.7185, 2.7185 * f0, 195))
    monkeypatch.setattr(analysis, "_linear_start", lambda *args: None)
    start = replace(truth, c_ret=1.3589e-11, c_gb=9.106e-13, r_s=194.6)
    report = fit_params(observed, ["c_ret", "c_gb", "r_s"], start, src, body)
    assert report.converged
    for name, value in report.fitted_params.items():
        assert value == pytest.approx(getattr(truth, name), rel=1e-9)


def test_fit_rejects_a_start_whose_model_power_underflows():
    # l = 1e200 H puts |D| near 1e206, so the model power underflows to 0
    # at every point and the log residuals are undefined.
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    observed = _observed_sweep(rx)
    with pytest.raises(ValueError, match="starting point is 0 or not finite"):
        fit_params(observed, ["l"], replace(rx, l=1e200), SRC, BODY)


def test_fit_factors_the_scaled_jacobian_it_checks():
    # The factors returned by the identifiability check reproduce the
    # column-scaled Jacobian, and the damped step they give solves the
    # Marquardt normal equations.
    rng = np.random.default_rng(5)
    j = rng.normal(size=(12, 3)) * [1e-3, 1.0, 1e3]
    r = rng.normal(size=12)
    norms, u, s, vt = analysis._check_identifiable(j, ["c_ret", "c_gb", "r_s"])
    np.testing.assert_allclose(norms, np.linalg.norm(j, axis=0), rtol=1e-15)
    np.testing.assert_allclose((u * s) @ vt, j / norms, atol=1e-14)
    lam = 0.3
    step = -(vt.T @ (s / (s * s + lam) * (u.T @ r))) / norms
    jtj = j.T @ j
    expected = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -j.T @ r)
    np.testing.assert_allclose(step, expected, rtol=1e-10)


#: The free-field sets the resonance identifies at C_L = 0: one to three of
#: FIT_PARAMETERS, except C_GB, r_s and L together (the data pins only k*L
#: and k*(r_s + R_L) of them).
_IDENTIFIABLE_FREE = [
    list(names)
    for n in (1, 2, 3)
    for names in itertools.combinations(analysis.FIT_PARAMETERS, n)
    if set(names) != {"c_gb", "r_s", "l"}
]


@st.composite
def _noiseless_c_l_0_fits(draw):
    """A C_L = 0 receiver, an identifiable free set started within 2x of
    truth, a source of each kind, and a log grid of 41-201 points over
    f0/s to f0*s with s in 1.2-4."""
    truth = ReceiverParams(
        c_ret=draw(log_uniform_floats(0.5e-12, 50e-12)),
        c_gb=draw(log_uniform_floats(0.1e-12, 20e-12)),
        l=draw(log_uniform_floats(10e-6, 10e-3)),
        r_l=draw(log_uniform_floats(10.0, 1e5)),
        r_s=draw(log_uniform_floats(1.0, 1e4)),
    )
    free = draw(st.sampled_from(_IDENTIFIABLE_FREE))
    start = replace(
        truth, **{name: getattr(truth, name) * draw(log_uniform_floats(0.5, 2.0)) for name in free}
    )
    s = draw(st.floats(1.2, 4.0))
    f0 = resonant_frequency(truth)
    freqs = np.geomspace(f0 / s, f0 * s, draw(st.integers(41, 201)))
    body = BodyModel(c_b=draw(log_uniform_floats(10e-12, 300e-12)))
    return truth, free, start, draw_source(draw), body, freqs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_noiseless_c_l_0_fits())
def test_a_fit_started_within_2x_recovers_a_noiseless_c_l_0_channel(case):
    truth, free, start, src, body, freqs = case
    observed = simulate_frequency_sweep(truth, src, body, freqs)
    report = fit_params(observed, free, start, src, body)
    assert report.converged
    for name in free:
        assert report.fitted_params[name] == pytest.approx(getattr(truth, name), rel=1e-6), name


def test_seeded_three_field_fits_raise_no_false_identifiability_error():
    # 60 receivers drawn first (numpy seed 2), then one noise vector per fit
    # and noise level (0%, 1%, 5%): C_ret, C_GB and r_s fitted from 1.3x,
    # 0.7x and 1.5x truth over 101 points in 0.8-1.2 f0.  From the given
    # start alone, draws 21, 32 and 35 end in a false IdentifiabilityError
    # at every noise level.
    rng = np.random.default_rng(2)
    truths = [
        ReceiverParams(
            c_ret=rng.uniform(10e-12, 60e-12),
            c_gb=rng.uniform(1e-12, 20e-12),
            r_s=rng.uniform(10.0, 500.0),
            l=0.33e-3,
            r_l=1e3,
        )
        for _ in range(60)
    ]
    src = GroundedTx(5.0, "pp")
    free = ["c_ret", "c_gb", "r_s"]
    for sigma in (0.0, 0.01, 0.05):
        for i, truth in enumerate(truths):
            f0 = resonant_frequency(truth)
            clean = simulate_frequency_sweep(truth, src, BODY, np.linspace(0.8 * f0, 1.2 * f0, 101))
            noise = 1.0 + sigma * rng.normal(size=101)
            observed = SweepResult(
                axis="frequency", values=clean.values, p_out_rms=clean.p_out_rms * noise
            )
            start = replace(
                truth, c_ret=truth.c_ret * 1.3, c_gb=truth.c_gb * 0.7, r_s=truth.r_s * 1.5
            )
            report = fit_params(observed, free, start, src, BODY)
            if sigma == 0.0:
                assert report.converged, i
                for name in free:
                    assert report.fitted_params[name] == pytest.approx(
                        getattr(truth, name), rel=1e-6
                    ), (i, name)


_LINEAR_TRUTH = ReceiverParams(c_ret=1.5e-12, c_gb=4.5e-12, l=3e-3, r_l=1000.0, r_s=300.0)


@pytest.mark.parametrize("free", _IDENTIFIABLE_FREE, ids="+".join)
def test_the_linear_start_is_exact_on_a_noiseless_c_l_0_channel(free):
    observed = _observed_sweep(_LINEAR_TRUTH)
    start = replace(_LINEAR_TRUTH, **{name: 2.0 * getattr(_LINEAR_TRUTH, name) for name in free})
    values = analysis._linear_start(observed.values, observed.p_out_rms, free, start, SRC, BODY)
    assert values == pytest.approx([getattr(_LINEAR_TRUTH, name) for name in free], rel=1e-9)


def _powers_of(c0, c1, c2, freqs):
    """Powers on SRC, BODY and _LINEAR_TRUTH's load whose
    |V_B|^2*R_L/P is c0 + c1*w^2 + c2/w^2."""
    w2 = (2.0 * math.pi * freqs) ** 2
    return body_potential(SRC, BODY, 1.0) ** 2 * _LINEAR_TRUTH.r_l / (c0 + c1 * w2 + c2 / w2)


def _linear_start_none_cases():
    rx = _LINEAR_TRUTH
    f0 = resonant_frequency(rx)
    freqs = np.geomspace(f0 / 3, f0 * 3, 41)
    p = simulate_frequency_sweep(rx, SRC, BODY, freqs).p_out_rms
    beta, gamma = 4.0 * rx.l, 1.0 / rx.c_ret  # k = 1 + C_GB/C_ret = 4
    off_peak = np.geomspace(2 * f0, 4 * f0, 41)
    return {
        "two rows": (freqs[:2], p[:2], ["c_ret"], rx),
        "one frequency": (np.full(5, f0), np.full(5, p[20]), ["c_ret"], rx),
        "c1 < 0": (freqs, _powers_of(1e6, -1e-12, 1e20, freqs), ["c_ret"], rx),
        "c2 < 0": (freqs, _powers_of(1e6, 1e-3, -1e16, freqs), ["c_ret"], rx),
        "alpha^2 < 0": (
            off_peak,
            _powers_of(-3.0 * beta * gamma, beta**2, gamma**2, off_peak),
            ["c_ret"],
            rx,
        ),
        "c_gb, r_s and l free": (freqs, p, ["c_gb", "r_s", "l"], rx),
        "c_gb < 0 (L fixed at 8x)": (freqs, p, ["c_gb"], replace(rx, l=8.0 * rx.l)),
        "r_s < 0 (C_GB fixed at 3x)": (freqs, p, ["r_s"], replace(rx, c_gb=3.0 * rx.c_gb)),
    }


@pytest.mark.parametrize("case", list(_linear_start_none_cases()))
def test_the_linear_start_gives_none_where_it_has_no_solution(case):
    freqs, p, free, rx = _linear_start_none_cases()[case]
    assert analysis._linear_start(freqs, p, free, rx, SRC, BODY) is None


def _extreme_fits():
    rx = _LINEAR_TRUTH
    observed = _observed_sweep(rx)
    far = np.geomspace(1e150, 4e150, 41)
    return {
        "powers of 1e-300": (
            replace(observed, p_out_rms=observed.p_out_rms * (1e-300 / observed.p_out_rms.max())),
            ["c_ret", "c_gb"],
            rx,
        ),
        "frequencies of 1e150": (simulate_frequency_sweep(rx, SRC, BODY, far), ["c_ret"], rx),
        "L = 0 with c_gb free": (observed, ["c_gb"], replace(rx, l=0.0)),
    }


@pytest.mark.parametrize("case", list(_extreme_fits()))
def test_the_linear_start_and_the_fit_raise_no_warning_on_extreme_inputs(case):
    # Every warning is an error in this suite.
    observed, free, rx = _extreme_fits()[case]
    values = analysis._linear_start(observed.values, observed.p_out_rms, free, rx, SRC, BODY)
    assert values is None or all(0.0 < x < math.inf for x in values)
    try:
        fit_params(observed, free, rx, SRC, BODY)
    except ValueError:
        pass


# ── sensitivities ───────────────────────────────────────────────────────


def test_f0_sensitivity_to_inductance():
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3, l=0.33e-3)
    s = sensitivity(rx, "f0", "l")
    f0 = resonant_frequency(rx)
    assert s.analytic == pytest.approx(-f0 / (2 * rx.l), rel=1e-15)
    assert s.analytic == pytest.approx(-2.424e9, rel=1e-3)
    assert s.value == pytest.approx(s.analytic, rel=1e-6)


def test_f0_sensitivity_to_capacitance():
    rx = ReceiverParams(c_ret=2e-12, c_gb=1e-12, r_l=1e3, l=1e-3)
    for param in ("c_ret", "c_gb"):
        s = sensitivity(rx, "f0", param)
        f0 = resonant_frequency(rx)
        assert s.analytic == pytest.approx(-f0 / (2 * (rx.c_ret + rx.c_gb)), rel=1e-15)
        assert s.value == pytest.approx(s.analytic, rel=1e-6)


def test_gain_sensitivity_to_ground_coupling():
    rx = ReceiverParams(c_ret=1e-12, c_gb=1e-12, r_l=1e3, l=1e-3)
    s = sensitivity(rx, "gain", "c_gb")
    assert s.analytic == pytest.approx(-2.5e11, rel=1e-12)  # -c_ret/(c_ret+c_gb)^2
    assert s.value == pytest.approx(s.analytic, rel=1e-6)
    s2 = sensitivity(rx, "gain", "c_ret")
    assert s2.analytic == pytest.approx(2.5e11, rel=1e-12)
    assert s2.value == pytest.approx(s2.analytic, rel=1e-6)


def test_power_sensitivity_is_closed_form():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, r_l=1e3, l=4.222e-3, r_s=100.0)
    s = sensitivity(rx, "power", "r_s", f=1e6, src=SRC, body=BODY)
    assert s.analytic == s.value
    assert math.isfinite(s.value) and s.value < 0.0  # more loss, less power


@settings(max_examples=100, deadline=None, derandomize=True)
@given(point=_jacobian_points())
def test_power_sensitivity_matches_a_central_difference(point):
    # A Richardson-extrapolated central difference of received_power with a
    # relative step of 1e-6: truncation O(h^4) and round-off ~eps/h both stay
    # far below the tolerance.
    rx, src, body, f = point
    for param in ReceiverParams.__dataclass_fields__:
        x0 = getattr(rx, param)
        if x0 == 0.0:
            continue

        def power(v):
            return received_power(replace(rx, **{param: v}), src, body, f).p_out_rms

        def central(h):
            return (power(x0 + h) - power(x0 - h)) / (2.0 * h)

        h = 1e-6 * x0
        slope = (4.0 * central(h / 2.0) - central(h)) / 3.0
        value = sensitivity(rx, "power", param, f=f, src=src, body=body).value
        assert abs(value - slope) <= 1e-6 * (abs(slope) + power(x0) / x0), param


def test_sensitivity_validation():
    rx = ReceiverParams(c_ret=1e-12, r_l=1e3, l=1e-3)
    with pytest.raises(ValueError, match="unknown target"):
        sensitivity(rx, "bandwidth", "l")
    with pytest.raises(ValueError, match="unknown receiver parameter"):
        sensitivity(rx, "f0", "c_body")
    with pytest.raises(ValueError, match="needs f"):
        sensitivity(rx, "power", "l")


@pytest.mark.parametrize("f", [5e-324, 1e-300])
def test_power_sensitivity_past_double_precision_names_its_frequency(f):
    # j*w*C_ret underflows, so D and the power's gradient are not finite.
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3, l=0.33e-3)
    with pytest.raises(channel.NonFiniteResultError, match=f"^d p_out_rms / d l must be finite; at frequency = {f!r} it is nan$"):
        sensitivity(rx, "power", "l", f=f, src=SRC, body=BODY)


def test_sensitivity_to_a_field_at_zero():
    rx = ReceiverParams(c_ret=1e-12, r_l=1e3, l=1e-3)  # c_gb = 0 here
    assert sensitivity(rx, "gain", "c_gb").value == -1.0 / rx.c_ret
    assert sensitivity(rx, "gain", "c_ret").value == 0.0
    f0 = resonant_frequency(rx)
    assert sensitivity(rx, "f0", "c_gb").value == pytest.approx(-f0 / (2 * rx.c_ret), rel=1e-15)


def _mp_one_sided_power_slope(rx, src, body, f, name, h):
    """(P(h) - P(0)) / h for the field ``name`` at 0, in 60-digit arithmetic
    on the textbook transfer function."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        values = {k: mp.mpf(getattr(rx, k)) for k in ("c_ret", "c_gb", "l", "r_l", "c_l", "r_s")}
        w = 2 * mp.pi * mp.mpf(f)
        v_b = mp.mpf(body_potential(src, body, f))

        def power(theta):
            v = dict(values, **{name: theta})
            return abs(v_b * mp_transfer(w, **v)) ** 2 / v["r_l"]

        h = mp.mpf(h)
        return float((power(h) - power(mp.mpf(0))) / h)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(point=_jacobian_points())
def test_power_sensitivity_at_zero_matches_a_one_sided_difference(point):
    # P is smooth in each of r_s, l, c_gb and c_l at 0, so a one-sided step
    # of 1e-30 of the field's scale leaves a truncation error of the order
    # of 1e-30 relative.
    rx, src, body, f = point
    scale = {"r_s": 1e3, "l": 1e-3, "c_gb": 1e-12, "c_l": 1e-12}
    for name, unit in scale.items():
        rx0 = replace(rx, **{name: 0.0})
        value = sensitivity(rx0, "power", name, f=f, src=src, body=body).value
        slope = _mp_one_sided_power_slope(rx0, src, body, f, name, unit * 1e-30)
        p0 = received_power(rx0, src, body, f).p_out_rms
        assert abs(value - slope) <= 1e-12 * (abs(slope) + p0 / unit), name


# ── quality factor ──────────────────────────────────────────────────────


def _series_branch_sweep(r_s: float, l: float, c: float, points=2001, span=4.0):
    """Power dissipated in the series loss of a driven series RLC branch."""
    f_res = 1.0 / (2 * math.pi * math.sqrt(l * c))
    net = acnet.Netlist(
        nodes=(0, "a", "b", "c"),
        elements=(
            acnet.vsource("a", 0, 1.0),
            acnet.resistor("a", "b", r_s),
            acnet.inductor("b", "c", l),
            acnet.capacitor("c", 0, c),
        ),
        output_probe=("a", "b"),
    )
    freqs = np.geomspace(f_res / span, f_res * span, points)
    p = np.abs(acnet.solve_many(net, freqs).probe_voltage) ** 2 / r_s
    return SweepResult(axis="frequency", values=freqs, p_out_rms=p)


def test_q_factor_matches_series_rlc_relation():
    r_s, l, c = 1000.0, 0.33e-3, 30e-12
    estimate = q_factor(_series_branch_sweep(r_s, l, c))
    q_expected = math.sqrt(l / c) / r_s
    assert q_expected == pytest.approx(3.32, abs=0.01)
    assert estimate.q == pytest.approx(q_expected, rel=0.01)
    assert not estimate.lower_bound


def test_q_doubles_when_loss_halves():
    q1 = q_factor(_series_branch_sweep(1000.0, 0.33e-3, 30e-12)).q
    q2 = q_factor(_series_branch_sweep(500.0, 0.33e-3, 30e-12)).q
    assert q2 == pytest.approx(2.0 * q1, rel=0.01)


def test_lossless_sweep_hits_grid_resolution():
    # A nearly unloaded resonance: the half-power span collapses into the
    # cells adjacent to the peak, so only a lower bound is resolved.
    rx = ReceiverParams(c_ret=30e-12, r_l=0.01, l=0.33e-3)
    f0 = resonant_frequency(rx)
    sweep = simulate_frequency_sweep(rx, SRC, BODY, np.geomspace(f0 * 0.9, f0 * 1.1, 1001))
    estimate = q_factor(sweep)
    assert estimate.lower_bound
    assert estimate.q > 1e3


def _q_by_walk(sweep):
    """Reference: walk out from the peak one row at a time to the first row
    at or below half power, then interpolate as ``q_factor`` does."""
    x, p = sweep.values, sweep.p_out_rms
    i = int(np.argmax(p))
    half = p[i] / 2.0
    crossings = []
    for step in (-1, 1):
        j = i
        while 0 <= j + step < len(p) and p[j + step] > half:
            j += step
        if not 0 <= j + step < len(p):
            return None
        a, b = j, j + step
        crossings.append(float(x[a] + (half - p[a]) * (x[b] - x[a]) / (p[b] - p[a])))
    span = crossings[1] - crossings[0]
    step_local = max(x[i] - x[i - 1], x[i + 1] - x[i])
    return float(x[i] / span), bool(span < 2.0 * step_local)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p=st.one_of(
        # Small integers put rows exactly at half power.
        st.lists(st.integers(1, 4), min_size=3, max_size=40).map(lambda v: np.array(v, dtype=float)),
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=40).map(np.array),
    )
)
def test_q_factor_matches_the_row_walk_bit_for_bit(p):
    sweep = SweepResult(axis="frequency", values=np.arange(1.0, len(p) + 1.0), p_out_rms=p)
    expected = _q_by_walk(sweep) if 0 < int(np.argmax(p)) < len(p) - 1 else None
    if expected is None:
        with pytest.raises(WindowTruncationError):
            q_factor(sweep)
    else:
        estimate = q_factor(sweep)
        assert (estimate.q, estimate.lower_bound) == expected


def test_q_factor_window_truncation():
    narrow = _series_branch_sweep(1000.0, 0.33e-3, 30e-12, points=101, span=1.05)
    with pytest.raises(WindowTruncationError):
        q_factor(narrow)


# ── oracle and approximation gaps ───────────────────────────────────────


def test_oracle_gap_is_tiny():
    rng = np.random.default_rng(41)
    rx = random_receiver(rng)
    freqs = np.geomspace(2e5, 8e6, 12)
    gaps = analysis.oracle_gap(rx, freqs)
    assert float(np.max(gaps)) < 1e-9


def test_approximation_gap_exposes_source_resistance_drop():
    rx = ReceiverParams(c_ret=6e-12, r_l=1000.0, l=4.222e-3)
    src = GroundedTx(v_in=5.0, convention="pp", r_src=50.0)
    body = BodyModel(c_b=150e-12, r_b=500.0)
    freqs = np.geomspace(5e5, 2e6, 8)
    gaps = analysis.approximation_gap(rx, src, body, freqs)
    # The closed form ignores the series drop, so it over-predicts power.
    assert np.all(gaps > 0.0)
    ideal = analysis.approximation_gap(rx, GroundedTx(5.0, "pp"), BodyModel(c_b=150e-12), freqs)
    assert float(np.max(np.abs(ideal))) < 1e-9


def test_input_voltage_sweep_is_quadratic():
    rx = ReceiverParams(c_ret=1e-12, c_gb=1.93e-12, l=3.38e-3, r_l=1000.0)
    f0 = resonant_frequency(rx)
    sweep = simulate("input_voltage", rx, GroundedTx(12.0, "pp"), BODY, np.linspace(1, 12, 12), f=f0)
    slope = np.polyfit(np.log(sweep.values), np.log(sweep.p_out_rms), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-6)
