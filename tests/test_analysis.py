"""Peak detection, capacitance inversions, fitting, sensitivities, and Q."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bodychannel import acnet, analysis
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
    GroundedTx,
    ReceiverParams,
    body_potential,
    resonant_frequency,
    resonant_gain,
)
from helpers import random_receiver

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
    assert sw.rows() == [(1e6, None, 1.0), (2e6, None, 2.0)]


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


def test_numerical_ripple_below_floor_is_ignored():
    rx = ReceiverParams(c_ret=30e-12, r_l=1000.0, l=0.33e-3)
    grid = np.geomspace(1e6, 2.56e6, 101)
    sweep = simulate_frequency_sweep(rx, SRC, BODY, grid)
    p = sweep.p_out_rms.copy()
    p[20] *= 1.0 + 1e-7  # sub-floor bump far from the peak
    rippled = SweepResult(axis="frequency", values=grid, p_out_rms=p, model=sweep.model)
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


# ── capacitance inversions ──────────────────────────────────────────────


def test_fit_total_capacitance_values():
    c1 = fit_total_capacitance(0.33e-3, 1.6e6)
    assert c1 == pytest.approx(30.0e-12, rel=1e-3)
    c2 = fit_total_capacitance(4.222e-3, 1.0e6)
    assert c2 == pytest.approx(6.0e-12, rel=1e-3)


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


def test_power_sensitivity_has_no_closed_form():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, r_l=1e3, l=4.222e-3, r_s=100.0)
    s = sensitivity(rx, "power", "r_s", f=1e6, src=SRC, body=BODY)
    assert s.analytic is None
    assert math.isfinite(s.value) and s.value < 0.0  # more loss, less power


def test_sensitivity_validation():
    rx = ReceiverParams(c_ret=1e-12, r_l=1e3, l=1e-3)
    with pytest.raises(ValueError, match="unknown target"):
        sensitivity(rx, "bandwidth", "l")
    with pytest.raises(ValueError, match="unknown receiver parameter"):
        sensitivity(rx, "f0", "c_body")
    with pytest.raises(ValueError, match="positive"):
        sensitivity(rx, "f0", "c_gb")  # c_gb = 0 here
    with pytest.raises(ValueError, match="needs f"):
        sensitivity(rx, "power", "l")


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
    rows = acnet.sweep(net, freqs)
    p = np.array([abs(r.probe_voltage) ** 2 / r_s for r in rows])
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
