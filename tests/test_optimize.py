"""Load matching, inductor selection, current-limited optimization,
multi-receiver powering, and topology curves."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodychannel.channel import (
    BodyModel,
    GroundedTx,
    NonFiniteResultError,
    ReceiverParams,
    ResonantWearableTx,
    WearableTx,
    body_potential,
    channel_response,
    received_power,
    resonant_frequency,
)
from bodychannel.optimize import (
    InfeasibleError,
    LoadingAssumptionWarning,
    UnboundedObjectiveError,
    compare_topologies,
    joint_loading_check,
    max_power_under_current_limit,
    multi_receiver_power,
    optimal_inductor,
    optimal_load,
)
from bodychannel.safety import contact_current
from helpers import draw_source, log_uniform, log_uniform_floats

BODY = BodyModel(c_b=150e-12)
SRC = GroundedTx(v_in=5.0, convention="pp")


def _lossy_rx(r_s: float) -> ReceiverParams:
    return ReceiverParams(c_ret=30e-12, r_l=1000.0, l=0.33e-3, r_s=r_s)


# ── load optimization ───────────────────────────────────────────────────


def test_matched_load_equals_series_loss():
    # d/dR [R/(R+r_s)^2] = 0 at R = r_s for the lossy resonant channel.
    for r_s in (100.0, 500.0, 1000.0, 10000.0):
        rx = _lossy_rx(r_s)
        result = optimal_load(rx, SRC, BODY, resonant_frequency(rx), (10.0, 1e5))
        assert result.argmax == pytest.approx(r_s, rel=1e-12)
        assert not result.constraint_active
        assert not result.used_grid_fallback


def test_optimal_load_trace_invariant():
    rx = _lossy_rx(1000.0)
    result = optimal_load(rx, SRC, BODY, resonant_frequency(rx), (100.0, 1e4))
    assert result.trace
    assert all(result.objective_at_argmax >= y for _, y in result.trace)


def test_bounds_clip_activates_constraint():
    rx = _lossy_rx(1000.0)
    result = optimal_load(rx, SRC, BODY, resonant_frequency(rx), (2000.0, 10000.0))
    assert result.argmax == 2000.0
    assert result.constraint_active and result.constraint_name == "lower bound"


def test_lossless_load_objective_is_unbounded():
    rx = _lossy_rx(0.0)
    with pytest.raises(UnboundedObjectiveError):
        optimal_load(rx, SRC, BODY, resonant_frequency(rx), (100.0, 1e4))


def test_golden_section_matches_dense_grid_argmax():
    rng = np.random.default_rng(43)
    v_b = body_potential(SRC, BODY, 1e6)
    for _ in range(50):
        rx = ReceiverParams(
            c_ret=log_uniform(rng, 0.5e-12, 5e-12),
            c_gb=float(rng.uniform(0.0, 10e-12)),
            l=log_uniform(rng, 0.1e-3, 10e-3),
            r_l=1000.0,
            c_l=float(rng.uniform(0.0, 2e-12)),
            r_s=log_uniform(rng, 50.0, 5e3),
        )
        f = resonant_frequency(rx)
        result = optimal_load(rx, SRC, BODY, f, (10.0, 1e5))
        # Independent dense-grid oracle, vectorized over candidate loads.
        loads = np.geomspace(10.0, 1e5, 10001)
        w = 2 * math.pi * f
        z_load = loads / (1 + 1j * w * rx.c_l * loads)
        ratio = 1 + rx.c_gb / rx.c_ret
        h = z_load / ((rx.r_s + 1j * w * rx.l + z_load) * ratio + 1 / (1j * w * rx.c_ret))
        powers = (v_b * np.abs(h)) ** 2 / loads
        k = int(np.argmax(powers))
        step = loads[min(k + 1, len(loads) - 1)] - loads[k]
        assert abs(result.argmax - loads[k]) <= max(step, 1e-3 * loads[k])


# ── inductor selection ──────────────────────────────────────────────────


def test_optimal_inductor_for_30pf_at_1_6_mhz():
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3)
    l = optimal_inductor(rx, 1.6e6)
    assert l == pytest.approx(1.0 / ((2 * math.pi * 1.6e6) ** 2 * 30e-12), rel=1e-12)
    assert l == pytest.approx(0.33e-3, rel=0.01)


def test_optimal_inductor_inverse_square_law():
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3)
    assert optimal_inductor(rx, 3.2e6) == pytest.approx(optimal_inductor(rx, 1.6e6) / 4.0, rel=1e-12)


def test_optimal_inductor_round_trip():
    rng = np.random.default_rng(47)
    for _ in range(20):
        rx = ReceiverParams(
            c_ret=log_uniform(rng, 0.2e-12, 30e-12),
            c_gb=float(rng.uniform(0.0, 10e-12)),
            r_l=1e3,
        )
        f_target = log_uniform(rng, 1e5, 1e7)
        rx_tuned = replace(rx, l=optimal_inductor(rx, f_target))
        assert resonant_frequency(rx_tuned) == pytest.approx(f_target, rel=1e-12)


# ── current-limited optimization ────────────────────────────────────────

# Calibrated so the optimum delivers 2.1 mW into 1 kOhm: with r_s = 1 kOhm
# and a 12 Vpp drive, the matched-load draw is sqrt(P/R) = 1.449 mA rms.
_KAPPA = 12.0 / (2 * math.sqrt(2)) / math.sqrt(2.1e-3 * 4e6 / 1e3) - 1.0
_RX_LIMIT = replace(
    ReceiverParams(c_ret=1e-12, c_gb=_KAPPA * 1e-12, r_l=1000.0, r_s=1000.0),
    l=optimal_inductor(ReceiverParams(c_ret=1e-12, c_gb=_KAPPA * 1e-12, r_l=1e3), 1.6e6),
)
_SRC12 = GroundedTx(v_in=12.0, convention="pp")
_SMALL_BODY = BodyModel(c_b=15e-12)  # keeps the body return current under 1 mA


def test_slack_current_limit_reproduces_matched_load():
    f = resonant_frequency(_RX_LIMIT)
    bounded = max_power_under_current_limit(
        _RX_LIMIT, _SRC12, _SMALL_BODY, f, 10e-3, bounds=(10.0, 1e5)
    )
    unconstrained = optimal_load(_RX_LIMIT, _SRC12, _SMALL_BODY, f, (10.0, 1e5))
    assert not bounded.constraint_active
    assert bounded.argmax == pytest.approx(unconstrained.argmax, rel=1e-6)
    assert bounded.objective_at_argmax == pytest.approx(2.1e-3, rel=1e-3)
    draw = math.sqrt(bounded.objective_at_argmax / bounded.argmax)
    assert draw == pytest.approx(1.449e-3, rel=1e-3)


def test_slack_current_limit_on_a_bound_names_the_bound():
    rx = _lossy_rx(1000.0)
    f = resonant_frequency(rx)
    for bounds, argmax, name in (((10.0, 500.0), 500.0, "upper bound"), ((2000.0, 1e4), 2000.0, "lower bound")):
        capped = max_power_under_current_limit(rx, SRC, BODY, f, 5e-3, bounds=bounds)
        free = optimal_load(rx, SRC, BODY, f, bounds)
        assert capped.argmax == free.argmax == argmax
        assert capped.constraint_active and capped.constraint_name == free.constraint_name == name


def test_tight_current_limit_pushes_load_up():
    f = resonant_frequency(_RX_LIMIT)
    result = max_power_under_current_limit(
        _RX_LIMIT, _SRC12, _SMALL_BODY, f, 1e-3, bounds=(10.0, 1e5)
    )
    assert result.constraint_active and result.constraint_name == "load-current"
    v_b = body_potential(_SRC12, _SMALL_BODY, f)
    r_boundary = v_b / ((1.0 + _KAPPA) * 1e-3) - 1000.0  # I(R) = V_B/((R+r_s)(1+kappa))
    assert result.argmax == pytest.approx(r_boundary, rel=1e-3)
    assert result.argmax > 1000.0


def test_vacuous_current_limit_matches_optimal_load():
    f = resonant_frequency(_RX_LIMIT)
    huge = max_power_under_current_limit(
        _RX_LIMIT, _SRC12, _SMALL_BODY, f, 1e9, bounds=(10.0, 1e5)
    )
    unconstrained = optimal_load(_RX_LIMIT, _SRC12, _SMALL_BODY, f, (10.0, 1e5))
    assert huge.argmax == pytest.approx(unconstrained.argmax, rel=1e-9)
    assert huge.objective_at_argmax == pytest.approx(unconstrained.objective_at_argmax, rel=1e-9)


def test_body_current_above_limit_is_infeasible():
    f = resonant_frequency(_RX_LIMIT)
    with pytest.raises(InfeasibleError, match="body return current"):
        max_power_under_current_limit(_RX_LIMIT, _SRC12, BodyModel(c_b=150e-12), f, 1e-3)


def test_tightening_limit_never_gains_power():
    f = resonant_frequency(_RX_LIMIT)
    tiny_body = BodyModel(c_b=5e-12)  # body return stays near 0.2 mA
    objectives = []
    for i_limit in (5e-3, 2e-3, 1.2e-3, 0.8e-3, 0.5e-3):
        result = max_power_under_current_limit(
            _RX_LIMIT, _SRC12, tiny_body, f, i_limit, bounds=(10.0, 1e5)
        )
        objectives.append(result.objective_at_argmax)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(objectives, objectives[1:]))


def test_limit_equal_to_a_grid_current_still_brackets_the_boundary():
    # The load current of a broadcast sweep and the closed-form boundary can
    # round differently.  A limit set to the sweep's current at any load must
    # still keep that load feasible.
    f = resonant_frequency(_RX_LIMIT)
    body = BodyModel(c_b=5e-12)
    grid = np.geomspace(10.0, 1e5, 128)
    broadcast = np.abs(channel_response(_RX_LIMIT, _SRC12, body, f, r_l=grid)[0]) / grid
    i_body = contact_current(_SRC12, body, f)
    for k in (k for k in range(1, len(grid)) if broadcast[k] > i_body):
        result = max_power_under_current_limit(
            _RX_LIMIT, _SRC12, body, f, float(broadcast[k]), bounds=(10.0, 1e5)
        )
        assert result.argmax >= grid[k] * (1.0 - 1e-9)


@pytest.mark.parametrize("f", [0.0, -1.0, math.nan])
def test_load_optimizers_reject_a_bad_frequency(f):
    rx = _lossy_rx(100.0)
    with pytest.raises(ValueError, match="frequency"):
        optimal_load(rx, SRC, BODY, f, (100.0, 1e4))
    with pytest.raises(ValueError, match="frequency"):
        max_power_under_current_limit(rx, SRC, BODY, f, 1e-3, bounds=(100.0, 1e4))


def test_load_optimizers_name_a_power_that_is_not_finite():
    # C_L = 1e300 F overflows j*w*C_L*A, so the power at the optimum is
    # inf/inf; it is named, and numpy's warning (an error under this suite's
    # filterwarnings) stays inside.
    rx = replace(_lossy_rx(1000.0), c_l=1e300)
    message = "p_out_rms at R_L = 100.0 ohm must be finite; at frequency = 1600000.0 it is nan"
    with pytest.raises(NonFiniteResultError) as excinfo:
        optimal_load(rx, SRC, BODY, 1.6e6, (100.0, 1e4))
    assert str(excinfo.value) == message
    with pytest.raises(NonFiniteResultError) as excinfo:
        max_power_under_current_limit(rx, SRC, BODY, 1.6e6, 1.0, bounds=(100.0, 1e4))
    assert str(excinfo.value) == message


def test_unreachable_load_current_reports_closest_candidate():
    # Bounds capped at 100 ohm: every candidate draws over 2.6 mA while the
    # body return current (0.64 mA) stays under the 1 mA limit.
    f = resonant_frequency(_RX_LIMIT)
    with pytest.raises(InfeasibleError) as excinfo:
        max_power_under_current_limit(
            _RX_LIMIT, _SRC12, _SMALL_BODY, f, 1e-3, bounds=(10.0, 100.0)
        )
    assert excinfo.value.candidate == pytest.approx(100.0)
    assert excinfo.value.violation > 0.0


# ── closed-form load optima ─────────────────────────────────────────────


@st.composite
def _lossy_channels(draw):
    """A lossy receiver (r_s > 0; C_GB and C_L zero or not), one of the three
    source kinds, and a frequency between half and twice its resonance."""

    def optional(lo, hi):
        return draw(st.just(0.0) | log_uniform_floats(lo, hi))

    rx = ReceiverParams(
        c_ret=draw(log_uniform_floats(0.5e-12, 60e-12)),
        c_gb=optional(0.1e-12, 20e-12),
        l=draw(log_uniform_floats(0.1e-3, 10e-3)),
        r_l=1000.0,
        c_l=optional(0.05e-12, 5e-12),
        r_s=draw(log_uniform_floats(50.0, 5e3)),
    )
    src = draw_source(draw)
    body = BodyModel(c_b=draw(log_uniform_floats(0.1e-12, 5e-12)))
    f = resonant_frequency(rx) * draw(st.floats(0.5, 2.0))
    return rx, src, body, f


@settings(max_examples=300, deadline=None, derandomize=True)
@given(channel=_lossy_channels(), share=log_uniform_floats(1e-3, 1.5))
def test_closed_form_load_optima_match_a_dense_grid(channel, share):
    rx, src, body, f = channel
    bounds = (10.0, 1e6)
    loads = np.geomspace(*bounds, 4001)
    v_o, powers = channel_response(rx, src, body, f, r_l=loads)
    currents = np.abs(v_o) / loads
    # The premise of both closed forms: the load current falls strictly with
    # R_L and the power has a single maximum.
    assert np.all(np.diff(currents) < 0.0)
    k = int(np.argmax(powers))
    assert np.all(np.diff(powers[: k + 1]) > 0.0) and np.all(np.diff(powers[k + 1 :]) < 0.0)

    best = optimal_load(rx, src, body, f, bounds)
    assert abs(best.argmax - loads[k]) <= np.diff(loads)[max(k - 1, 0) : k + 1].max()
    assert best.objective_at_argmax >= powers[k] * (1.0 - 1e-12)

    i_limit = share * float(np.abs(channel_response(rx, src, body, f, r_l=best.argmax)[0])) / best.argmax
    if contact_current(src, body, f) > i_limit:
        with pytest.raises(InfeasibleError, match="body return current"):
            max_power_under_current_limit(rx, src, body, f, i_limit, bounds=bounds)
        return
    if currents[-1] > i_limit:
        with pytest.raises(InfeasibleError, match=r"closest is 1e\+06 ohm"):
            max_power_under_current_limit(rx, src, body, f, i_limit, bounds=bounds)
        return
    capped = max_power_under_current_limit(rx, src, body, f, i_limit, bounds=bounds)
    draw = float(np.abs(channel_response(rx, src, body, f, r_l=capped.argmax)[0])) / capped.argmax
    # Within round-off of the limit: R* and r_c may tie to a few ulps.
    assert draw <= i_limit * (1.0 + 1e-12)
    if capped.constraint_active:
        assert abs(draw - i_limit) <= 1e-12 * i_limit
    feasible = currents <= i_limit
    assert capped.objective_at_argmax >= powers[feasible].max() * (1.0 - 1e-12)


# ── multi-receiver powering ─────────────────────────────────────────────


def test_receivers_power_independently_at_their_resonances():
    rx_a = ReceiverParams(c_ret=6e-12, r_l=1000.0, l=4.222e-3)
    rx_b = ReceiverParams(c_ret=30e-12, r_l=1000.0, l=0.33e-3)
    points = multi_receiver_power([rx_a, rx_b], SRC, BODY)
    assert points[0].frequency == pytest.approx(1.0e6, rel=1e-3)
    assert points[1].frequency == pytest.approx(1.6e6, rel=1e-2)
    for rx, pt in zip((rx_a, rx_b), points):
        standalone = received_power(rx, SRC, BODY, resonant_frequency(rx))
        assert pt.p_out_rms == pytest.approx(standalone.p_out_rms, rel=1e-12)


def test_single_receiver_degenerates_to_received_power():
    rx = ReceiverParams(c_ret=6e-12, r_l=1000.0, l=4.222e-3)
    (point,) = multi_receiver_power([rx], SRC, BODY)
    assert point.p_out_rms == received_power(rx, SRC, BODY, resonant_frequency(rx)).p_out_rms


def test_well_separated_receivers_barely_interact():
    # Branch impedance at resonance is about R_L (portable receivers), kept
    # two orders above the body-to-ground impedance.
    wearable_src = WearableTx(v_in=5.0, convention="pp", c_ret_tx=1e-12)
    body = BodyModel(c_b=100e-12)
    rx_a = ReceiverParams(c_ret=1e-12, r_l=200e3, l=25.33e-3)
    rx_b = ReceiverParams(c_ret=2e-12, r_l=200e3, l=4.95e-3)
    for rx in (rx_a, rx_b):
        f0 = resonant_frequency(rx)
        z_cb = 1.0 / (2 * math.pi * f0 * body.c_b)
        assert rx.r_l >= 100.0 * z_cb
    records = joint_loading_check([rx_a, rx_b], wearable_src, body)
    for record in records:
        assert abs(record.deviation) < 0.01


def test_duplicated_receiver_shares_the_body_potential():
    rx = ReceiverParams(c_ret=6e-12, r_l=1000.0, l=4.222e-3)
    wearable_src = WearableTx(v_in=5.0, convention="pp", c_ret_tx=1e-12)
    with pytest.warns(LoadingAssumptionWarning):
        records = joint_loading_check([rx, rx], wearable_src, BODY)
    for record in records:
        assert record.joint_power_rms < record.independent.p_out_rms
        assert record.deviation < 0.0


# ── topology comparison ─────────────────────────────────────────────────

TX = ResonantWearableTx(1.0, "rms", c_ret_tx=1e-12, q=10.0)


def test_topology_ordering_at_receiver_resonance():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    body = BodyModel(c_b=100e-12)
    f0 = resonant_frequency(rx)
    freqs = np.geomspace(f0 / 10, f0 * 10, 1601)
    gains = compare_topologies(rx, TX, body, freqs)
    k = int(np.argmin(np.abs(freqs - f0)))
    assert gains["M2M"][k] >= gains["M2W"][k] >= gains["W2W"][k]
    for gain_db in gains.values():
        assert np.all(np.isfinite(gain_db))


def test_wearable_divider_ratio_is_exact():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    body = BodyModel(c_b=100e-12)
    freqs = np.geomspace(1e5, 1e7, 101)
    gains = compare_topologies(rx, TX, body, freqs)
    ratio = 10 ** ((gains["M2W"] - gains["W2W"]) / 20.0)
    expected = (100e-12 + 1e-12) / 1e-12
    assert np.max(np.abs(ratio - expected)) < 1e-9 * expected


def test_resonant_wearable_recovers_q_at_center():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    body = BodyModel(c_b=100e-12)
    f0 = resonant_frequency(rx)
    freqs = np.unique(np.concatenate([np.geomspace(1e5, 1e7, 101), [f0]]))
    q = 10.0
    gains = compare_topologies(rx, ResonantWearableTx(1.0, "rms", c_ret_tx=1e-12, q=q), body, freqs)
    k = int(np.where(freqs == f0)[0][0])
    boost = gains["W2W-resonant"][k] - gains["W2W"][k]
    assert boost == pytest.approx(20 * math.log10(q), abs=1e-9)
    # Far from the center the tank helps less than its peak boost.
    assert gains["W2W-resonant"][0] - gains["W2W"][0] < boost


def test_compare_topologies_validation():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    body = BodyModel(c_b=100e-12)
    with pytest.raises(ValueError):
        compare_topologies(rx, TX, body, [1e6])
    with pytest.raises(ValueError):
        compare_topologies(rx, TX, body, [2e6, 1e6])
    with pytest.raises(ValueError):
        compare_topologies(rx, ResonantWearableTx(1.0, "rms", c_ret_tx=0.0, q=10.0), body, [1e6, 2e6])
    with pytest.raises(ValueError):
        compare_topologies(rx, ResonantWearableTx(1.0, "rms", c_ret_tx=1e-12, q=0.5), body, [1e6, 2e6])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_compare_topologies_rejects_non_finite_c_ret_tx_and_q(bad):
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    body = BodyModel(c_b=100e-12)
    with pytest.raises(ValueError, match="c_ret_tx must be finite"):
        compare_topologies(rx, ResonantWearableTx(1.0, "rms", c_ret_tx=bad, q=10.0), body, [1e6, 2e6])
    with pytest.raises(ValueError, match="q must be finite"):
        compare_topologies(rx, ResonantWearableTx(1.0, "rms", c_ret_tx=1e-12, q=bad), body, [1e6, 2e6])
