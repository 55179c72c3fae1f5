"""Contact current, limit-table handling, compliance checks, and the
maximum-safe-input inversion."""

import math
import re

import numpy as np
import pytest

from bodychannel.channel import (
    BodyModel,
    GroundedTx,
    ReceiverParams,
    ResonantWearableTx,
    WearableTx,
    to_rms,
)
from bodychannel.safety import (
    BASIC_RESTRICTIONS_NOTE,
    IncompleteTableError,
    LimitBand,
    LimitTable,
    UncoveredBandError,
    check,
    contact_current,
    load_limit_table,
    max_safe_input,
)
from helpers import log_uniform

TABLE = LimitTable(
    source_label="test-limits (placeholder)",
    bands=(LimitBand(f_lo=1e5, f_hi=3e7, contact_current_limit=20e-3, e_field_limit=100.0, h_field_limit=1.0),),
)
SRC12 = GroundedTx(v_in=12.0, convention="pp")
BODY150 = BodyModel(c_b=150e-12)


# ── contact current ─────────────────────────────────────────────────────


def test_contact_current_at_reference_conditions():
    f = 1.747e6
    expected = 2 * math.pi * f * 150e-12 * to_rms(12.0, "pp")
    got = contact_current(SRC12, BODY150, f)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(6.99e-3, rel=1e-3)


def test_contact_current_linear_in_drive():
    f = 1.747e6
    one = contact_current(GroundedTx(6.0, "pp"), BODY150, f)
    two = contact_current(GroundedTx(12.0, "pp"), BODY150, f)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_contact_current_vanishes_toward_dc():
    values = [contact_current(SRC12, BODY150, f) for f in (1e6, 1e4, 1e2, 1.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-8


def test_contact_current_monotone_in_each_input():
    f = 1e6
    assert contact_current(SRC12, BodyModel(c_b=200e-12), f) > contact_current(SRC12, BODY150, f)
    assert contact_current(SRC12, BODY150, 2e6) > contact_current(SRC12, BODY150, f)


def test_contact_current_mna_agrees_without_series_drops():
    f = 1.747e6
    closed = contact_current(SRC12, BODY150, f)
    solved = contact_current(SRC12, BODY150, f, mna=True)
    assert solved == pytest.approx(closed, rel=1e-9)
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3, l=0.33e-3)
    with_rx = contact_current(SRC12, BODY150, f, rx=rx, mna=True)
    assert with_rx == pytest.approx(closed, rel=1e-9)  # ideal source pins the body


def test_receiver_loading_needs_the_mna():
    # The closed form has no receiver: with r_s and r_b the MNA's loaded body
    # current (1.956 mA) is well below it (2.666 mA), so rx must not be dropped.
    f, body = 1.6e6, BodyModel(c_b=150e-12, r_b=300.0)
    src = GroundedTx(v_in=5.0, convention="pp")
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3, l=0.33e-3, r_s=50.0)
    assert contact_current(src, body, f) == pytest.approx(2.666e-3, rel=1e-3)
    assert contact_current(src, body, f, rx=rx, mna=True) == pytest.approx(1.956e-3, rel=1e-3)
    with pytest.raises(ValueError, match=r"receiver loading \(rx\) needs mna=True"):
        contact_current(src, body, f, rx=rx)
    with pytest.raises(ValueError, match=r"receiver loading \(rx\) needs mna=True"):
        check(src, body, f, TABLE, rx=rx)
    assert check(src, body, f, TABLE, rx=rx, mna=True).contact_current_rms == contact_current(
        src, body, f, rx=rx, mna=True
    )


def test_series_resistance_strictly_reduces_mna_current():
    f = 1.747e6
    body_lossy = BodyModel(c_b=150e-12, r_b=500.0)
    closed = contact_current(SRC12, body_lossy, f)
    solved = contact_current(SRC12, body_lossy, f, mna=True)
    assert solved < closed


def test_contact_current_for_wearable_sources():
    f = 1e6
    wearable = WearableTx(v_in=12.0, convention="pp", c_ret_tx=1e-12)
    boosted = ResonantWearableTx(v_in=12.0, convention="pp", c_ret_tx=1e-12, q=10.0)
    i_w = contact_current(wearable, BODY150, f)
    i_b = contact_current(boosted, BODY150, f)
    assert i_b == pytest.approx(i_w * 10.0 * 151.0 / 150.0, rel=1e-9)


# ── compliance checks ───────────────────────────────────────────────────


def test_check_passes_with_reference_margin():
    report = check(SRC12, BODY150, 1.747e6, TABLE)
    assert report.passed
    assert report.margin == pytest.approx(20e-3 / report.contact_current_rms, rel=1e-12)
    assert report.margin == pytest.approx(2.863, abs=2e-3)
    assert report.note == BASIC_RESTRICTIONS_NOTE


def test_check_fails_above_limit():
    hot = GroundedTx(v_in=60.0, convention="pp")
    report = check(hot, BODY150, 1.747e6, TABLE)
    assert not report.passed
    assert report.margin < 1.0


def test_measured_field_violation_fails_overall():
    report = check(SRC12, BODY150, 1.747e6, TABLE, measured_e=150.0, measured_h=0.2)
    assert not report.passed
    failures = [fc.name for fc in report.field_checks if not fc.passed]
    assert failures == ["e_field"]
    ok = check(SRC12, BODY150, 1.747e6, TABLE, measured_e=50.0, measured_h=0.2)
    assert ok.passed and len(ok.field_checks) == 2


@pytest.mark.parametrize("field", ["measured_e", "measured_h"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_a_measured_field_that_is_negative_or_not_finite_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got {value!r}$"):
        check(SRC12, BODY150, 1.747e6, TABLE, **{field: value})


def test_a_measured_field_of_zero_is_checked():
    report = check(SRC12, BODY150, 1.747e6, TABLE, measured_e=0.0, measured_h=0.0)
    assert report.passed
    assert [(fc.name, fc.measured) for fc in report.field_checks] == [("e_field", 0.0), ("h_field", 0.0)]


def test_uncovered_frequency_is_an_error():
    with pytest.raises(UncoveredBandError):
        check(SRC12, BODY150, 5e4, TABLE)
    with pytest.raises(UncoveredBandError):
        check(SRC12, BODY150, 3e7, TABLE)  # bands are half-open [lo, hi)
    # A frequency that no band could cover fails the range rule before the lookup.
    for f in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match=f"^frequency must be finite and > 0, got {f!r}$"):
            check(SRC12, BODY150, f, TABLE)
        with pytest.raises(ValueError, match=f"^frequency must be finite and > 0, got {f!r}$"):
            max_safe_input(BODY150, f, TABLE, SRC12)
    assert type(check(SRC12, BODY150, np.float64(1.6e6), TABLE).frequency) is float


def test_missing_limits_are_errors():
    no_contact = LimitTable(
        source_label="partial",
        bands=(LimitBand(f_lo=1e5, f_hi=3e7, contact_current_limit=None, e_field_limit=100.0),),
    )
    with pytest.raises(IncompleteTableError):
        check(SRC12, BODY150, 1e6, no_contact)
    no_fields = LimitTable(
        source_label="partial",
        bands=(LimitBand(f_lo=1e5, f_hi=3e7, contact_current_limit=20e-3),),
    )
    with pytest.raises(IncompleteTableError):
        check(SRC12, BODY150, 1e6, no_fields, measured_e=10.0)


# ── maximum safe input ──────────────────────────────────────────────────


def test_max_safe_input_at_reference_conditions():
    f = 1.747e6
    v_max = max_safe_input(BODY150, f, TABLE, SRC12)
    v_b_rms = 20e-3 / (2 * math.pi * f * 150e-12)
    assert v_b_rms == pytest.approx(12.15, abs=5e-3)
    assert v_max == pytest.approx(v_b_rms * 2 * math.sqrt(2), rel=1e-12)
    assert v_max == pytest.approx(34.4, abs=0.05)


def test_max_safe_input_linear_in_limit():
    half = LimitTable(
        source_label="half",
        bands=(LimitBand(f_lo=1e5, f_hi=3e7, contact_current_limit=10e-3),),
    )
    assert max_safe_input(BODY150, 1.747e6, half, SRC12) == pytest.approx(
        max_safe_input(BODY150, 1.747e6, TABLE, SRC12) / 2.0, rel=1e-12
    )


def test_max_safe_input_round_trips_through_check():
    rng = np.random.default_rng(53)
    for _ in range(30):
        f = log_uniform(rng, 2e5, 2e7)
        body = BodyModel(c_b=log_uniform(rng, 50e-12, 300e-12))
        limit = log_uniform(rng, 1e-3, 50e-3)
        table = LimitTable(
            source_label="draw",
            bands=(LimitBand(f_lo=1e5, f_hi=3e7, contact_current_limit=limit),),
        )
        kind = rng.integers(0, 3)
        if kind == 0:
            src = GroundedTx(v_in=1.0, convention="pp")
        elif kind == 1:
            src = WearableTx(v_in=1.0, convention="amplitude", c_ret_tx=1e-12)
        else:
            src = ResonantWearableTx(v_in=1.0, convention="rms", c_ret_tx=1e-12, q=5.0)
        v_max = max_safe_input(body, f, table, src)
        report = check(type(src)(**{**src.__dict__, "v_in": v_max}), body, f, table)
        assert report.margin == pytest.approx(1.0, abs=1e-9)


# ── limit-table loading and validation ──────────────────────────────────


def test_load_limit_table_round_trip(tmp_path):
    path = tmp_path / "limits.lmt"
    path.write_text(
        "# demo table\n"
        "source_label demo edition\n"
        "band 1e5 1e6 10 50 0.5\n"
        "band 1e6 3e7 20 - 1.0\n",
        encoding="utf-8",
    )
    table = load_limit_table(path)
    assert table.source_label == "demo edition"
    assert len(table.bands) == 2
    assert table.band_for(5e5).contact_current_limit == pytest.approx(10e-3)
    band_hi = table.band_for(2e6)
    assert band_hi.contact_current_limit == pytest.approx(20e-3)
    assert band_hi.e_field_limit is None
    assert band_hi.h_field_limit == 1.0


def test_load_limit_table_errors(tmp_path):
    cases = {
        "missing_label.lmt": "band 1e5 1e6 10\n",
        "bad_directive.lmt": "source_label x\nbands 1e5 1e6 10\n",
        "short_band.lmt": "source_label x\nband 1e5 1e6\n",
        "dash_bounds.lmt": "source_label x\nband - 1e6 10\n",
        "overlap.lmt": "source_label x\nband 1e5 1e6 10\nband 5e5 2e6 10\n",
        "unsorted.lmt": "source_label x\nband 1e6 2e6 10\nband 1e5 9e5 10\n",
        "double_label.lmt": "source_label x\nsource_label y\nband 1e5 1e6 10\n",
    }
    for name, content in cases.items():
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError):
            load_limit_table(path)


@pytest.mark.parametrize(
    "content, lineno, message",
    [
        ("source_label x\nband 1e5 1e6 10\nband 5e5 2e6 10\n", 3, "limit bands must be sorted and non-overlapping"),
        ("source_label x\nband 1e5 1e6 10\nband 2e6 inf 10\n", 3, "f_hi must be finite and > 0, got inf"),
        ("# header\nsource_label\n", 2, "source_label has no text"),
        ("source_label x\n\nband 1e5 1e6 ten\n", 3, "could not convert string to float"),
    ],
    ids=["overlap", "infinite_f_hi", "empty_label", "bad_number"],
)
def test_load_limit_table_errors_name_the_file_and_line(tmp_path, content, lineno, message):
    path = tmp_path / "limits.lmt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:{lineno}: {message}")):
        load_limit_table(path)


def test_limit_table_invariants():
    with pytest.raises(ValueError):
        LimitTable(source_label=" ", bands=())
    with pytest.raises(ValueError):
        LimitTable(
            source_label="x",
            bands=(LimitBand(f_lo=1e6, f_hi=1e5, contact_current_limit=1e-3),),
        )
    with pytest.raises(ValueError):
        LimitTable(
            source_label="x",
            bands=(LimitBand(f_lo=1e5, f_hi=1e6, contact_current_limit=-1e-3),),
        )
    valid = dict(f_lo=1e5, f_hi=1e6, contact_current_limit=1e-3, e_field_limit=10.0, h_field_limit=1.0)
    for name in valid:
        for bad in (math.inf, math.nan):
            band = LimitBand(**{**valid, name: bad})
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                LimitTable(source_label="x", bands=(band,))
