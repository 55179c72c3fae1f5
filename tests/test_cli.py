"""Scenario parsing, command orchestration, CSV schema, exit codes, and
measured-data import."""

import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodychannel import acnet, analysis, cli
from bodychannel.analysis import AXES, SweepResult, simulate_frequency_sweep
from bodychannel.channel import BodyModel, GroundedTx, NonFiniteResultError, ReceiverParams, resonant_frequency
from bodychannel.cli import (
    COMMANDS,
    ConfigError,
    CsvFormatError,
    DuplicateAxisError,
    ResultTable,
    UnsortedRowsWarning,
    import_measured,
    load_scenario,
    main,
    parse_quantity,
    run,
    sweep_to_table,
)
from helpers import REPO_ROOT, SCENARIO_DIR, shipped_cli_runs

BASE_SCENARIO = """\
[receiver]
C_ret = 1p
C_GB = 5p
L = 4.222m
R_L = 1k
C_L = 0
r_s = 0

[source]
kind = grounded
V_in = 12
convention = pp
R_S = 0

[body]
C_B = 150p
R_B = 0

[sweep]
axis = frequency
lo = 100k
hi = 10M
points = 201
spacing = log
"""


def _scenario(tmp_path, text=BASE_SCENARIO, name="case.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ── dependencies ────────────────────────────────────────────────────────


def test_cli_import_loads_no_scipy():
    # The runtime needs numpy only; scipy is a test oracle.
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    code = (
        "import bodychannel.cli, sys; "
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ── quantity and scenario parsing ───────────────────────────────────────


def test_parse_quantity_suffixes():
    assert parse_quantity("1p") == 1e-12
    assert parse_quantity("4.222m") == pytest.approx(4.222e-3, rel=1e-15)
    assert parse_quantity("10k") == 10e3
    assert parse_quantity("1.6M") == 1.6e6
    assert parse_quantity("330n") == pytest.approx(330e-9, rel=1e-15)
    assert parse_quantity("2u") == pytest.approx(2e-6, rel=1e-15)
    assert parse_quantity("1e-12") == 1e-12
    assert parse_quantity("-3.5") == -3.5


def test_parse_quantity_rejects_garbage():
    for bad in ("1q", "ten", "", "1.2.3", "nan", "inf"):
        with pytest.raises(ConfigError):
            parse_quantity(bad)


def test_load_scenario_full(tmp_path):
    config = load_scenario(_scenario(tmp_path))
    rx = config.receiver
    assert rx.c_ret == pytest.approx(1e-12, rel=1e-15)
    assert rx.c_gb == pytest.approx(5e-12, rel=1e-15)
    assert rx.l == pytest.approx(4.222e-3, rel=1e-15)  # suffix scaling, not a literal
    assert (rx.r_l, rx.c_l, rx.r_s) == (1000.0, 0.0, 0.0)
    assert config.source == GroundedTx(v_in=12.0, convention="pp", r_src=0.0)
    assert config.body == BodyModel(c_b=150e-12, r_b=0.0)
    assert config.sweep.points == 201 and config.sweep.spacing == "log"
    assert len(config.sha256) == 64


def test_unknown_key_is_rejected_with_path(tmp_path):
    text = BASE_SCENARIO.replace("C_L = 0", "C_L = 0\nC_X = 1p")
    with pytest.raises(ConfigError, match=r"receiver\.C_X"):
        load_scenario(_scenario(tmp_path, text))


def test_missing_key_is_rejected_with_path(tmp_path):
    text = BASE_SCENARIO.replace("C_L = 0\n", "")
    with pytest.raises(ConfigError, match=r"receiver\.C_L"):
        load_scenario(_scenario(tmp_path, text))


def test_unknown_section_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[rx\]"):
        load_scenario(_scenario(tmp_path, BASE_SCENARIO + "\n[rx]\nC_ret = 1p\n"))


def test_misnumbered_receiver_section_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="receiver2"):
        load_scenario(_scenario(tmp_path, BASE_SCENARIO + "\n[receiver1]\nC_ret = 1p\n"))


def test_keys_need_a_section(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(_scenario(tmp_path, "stray = 1\n" + BASE_SCENARIO))


def test_wearable_source_block(tmp_path):
    text = BASE_SCENARIO.replace(
        "kind = grounded\nV_in = 12\nconvention = pp\nR_S = 0",
        "kind = wearable\nV_in = 5\nconvention = rms\nC_ret_tx = 1p",
    )
    config = load_scenario(_scenario(tmp_path, text))
    assert config.source.c_ret_tx == 1e-12


def test_bad_source_kind(tmp_path):
    text = BASE_SCENARIO.replace("kind = grounded", "kind = floor")
    with pytest.raises(ConfigError, match="source.kind"):
        load_scenario(_scenario(tmp_path, text))


def test_negative_physical_value_carries_section(tmp_path):
    text = BASE_SCENARIO.replace("R_L = 1k", "R_L = -5")
    with pytest.raises(ConfigError, match="receiver"):
        load_scenario(_scenario(tmp_path, text))


# ── shipped scenarios ───────────────────────────────────────────────────


def test_shipped_scenarios_all_parse():
    names = {p.name for p in SCENARIO_DIR.glob("*.scn")}
    assert names == {
        "fig4a.scn", "fig4c.scn", "rx1.scn", "rx2.scn", "rx3.scn", "safety_example.scn",
        "resonant_wearable.scn", "wearable_inductance.scn",
    }
    for name in names:
        load_scenario(SCENARIO_DIR / name)


def test_the_shipped_fit_data_is_what_its_recorded_command_writes(tmp_path, monkeypatch):
    # resonant_wearable.scn records the command that wrote its [fit] data.
    command = re.search(r"^#\s+(bodychannel .*)$", (SCENARIO_DIR / "resonant_wearable.scn").read_text(), re.M)[1]
    argv = command.split()[1:]
    out = argv.index("--out") + 1
    committed = SCENARIO_DIR / argv[out]
    argv[out] = str(tmp_path / "fit.csv")
    monkeypatch.chdir(SCENARIO_DIR)
    assert main(argv) == 0
    assert (tmp_path / "fit.csv").read_bytes() == committed.read_bytes()


def test_the_shipped_fit_recovers_the_receiver_that_wrote_its_data():
    config = load_scenario(SCENARIO_DIR / "resonant_wearable.scn")
    truth = load_scenario(SCENARIO_DIR / "fit_data" / "resonant_wearable_truth.scn").receiver
    table, code = run("fit", config)
    assert code == 0
    (c_ret, c_gb, _, _, converged), = table.rows
    assert converged == 1.0
    assert c_ret == pytest.approx(truth.c_ret, rel=1e-12)
    assert c_gb == pytest.approx(truth.c_gb, rel=1e-12)
    assert (config.receiver.c_ret, config.receiver.c_gb) != (truth.c_ret, truth.c_gb)


def test_sweep_freq_on_calibrated_scenario(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-freq", "--config", str(SCENARIO_DIR / "fig4a.scn"), "--out", str(out)])
    assert code == 0
    sweep = import_measured(out, axis="frequency")
    peak = sweep.values[int(np.argmax(sweep.p_out_rms))]
    assert peak == pytest.approx(1.6e6, rel=0.01)


def test_optimize_load_on_lossy_scenario(tmp_path):
    out = tmp_path / "opt.csv"
    code = main(["optimize-load", "--config", str(SCENARIO_DIR / "fig4c.scn"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[-2].split(",")
    values = [float(v) for v in lines[-1].split(",")]
    row = dict(zip(header, values))
    assert row["load_opt[ohm]"] == pytest.approx(1000.0, rel=1e-3)
    assert row["constraint_active"] == 0.0


def test_sweep_vin_reaches_calibrated_power(tmp_path):
    out = tmp_path / "vin.csv"
    code = main(["sweep-vin", "--config", str(SCENARIO_DIR / "rx3.scn"), "--out", str(out)])
    assert code == 0
    sweep = import_measured(out, axis="input_voltage")
    assert sweep.values[-1] == 12.0
    assert sweep.p_out_rms[-1] == pytest.approx(2.10e-3, rel=0.05)
    slope = np.polyfit(np.log(sweep.values), np.log(sweep.p_out_rms), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-6)


def test_safety_scenario_passes(tmp_path):
    out = tmp_path / "safety.csv"
    code = main(["safety", "--config", str(SCENARIO_DIR / "safety_example.scn"), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "contact_current_rms[A]" in text
    row = [float(v) for v in text.splitlines()[-1].split(",")]
    assert row[1] == pytest.approx(6.99e-3, rel=1e-3)
    assert row[3] == pytest.approx(2.863, abs=2e-3)


def test_safety_failure_exits_4(tmp_path):
    text = (SCENARIO_DIR / "safety_example.scn").read_text()
    hot = text.replace("V_in = 12", "V_in = 60")
    path = tmp_path / "hot.scn"
    path.write_text(hot, encoding="utf-8")
    limits = (SCENARIO_DIR / "example_limits.lmt").read_text()
    (tmp_path / "example_limits.lmt").write_text(limits, encoding="utf-8")
    code = main(["safety", "--config", str(path), "--out", str(tmp_path / "r.csv")])
    assert code == 4


def test_max_safe_vin_value(tmp_path):
    out = tmp_path / "msv.csv"
    code = main(["max-safe-vin", "--config", str(SCENARIO_DIR / "safety_example.scn"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[-2].startswith("v_in_max[Vpp]")
    v_max = float(lines[-1].split(",")[0])
    assert v_max == pytest.approx(34.4, abs=0.05)


def test_resonance_emits_single_importable_row(tmp_path):
    out = tmp_path / "res.csv"
    code = main(["resonance", "--config", str(SCENARIO_DIR / "fig4a.scn"), "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 2  # header + one row
    f0 = float(lines[1].split(",")[0])
    assert f0 == pytest.approx(1.6e6, rel=0.01)


def test_oracle_check_passes_default_tolerance(tmp_path):
    out = tmp_path / "oracle.csv"
    code = main([
        "oracle-check", "--config", str(SCENARIO_DIR / "fig4a.scn"),
        "--points", "40", "--out", str(out),
    ])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert max(float(r.split(",")[1]) for r in rows) < 1e-9


def test_oracle_flag_matches_closed_form(tmp_path):
    base = tmp_path / "closed.csv"
    forced = tmp_path / "mna.csv"
    argv = ["sweep-freq", "--config", str(SCENARIO_DIR / "fig4a.scn"), "--points", "25"]
    assert main(argv + ["--out", str(base)]) == 0
    assert main(argv + ["--oracle", "--out", str(forced)]) == 0
    a = import_measured(base, axis="frequency")
    b = import_measured(forced, axis="frequency")
    assert np.max(np.abs(a.p_out_rms - b.p_out_rms) / b.p_out_rms) < 1e-9


@pytest.mark.parametrize(
    "sweep",
    [
        "axis = frequency\nlo = 100k\nhi = 10M\npoints = 301\nspacing = log\n",
        "axis = load\nlo = 100\nhi = 10k\npoints = 301\nspacing = log\nfrequency = 2.3M\n",
        "axis = inductance\nlo = 0.1m\nhi = 10m\npoints = 301\nspacing = log\n",
        "axis = input_voltage\nlo = 1\nhi = 12\npoints = 301\nspacing = lin\n",
    ],
)
def test_every_oracle_axis_matches_closed_form(tmp_path, sweep):
    # Grounded source with R_S = R_B = 0: closed form and netlist model one circuit.
    text = BASE_SCENARIO.replace("r_s = 0", "r_s = 120").split("[sweep]")[0] + "[sweep]\n" + sweep
    config = load_scenario(_scenario(tmp_path, text))
    command = {
        "frequency": "sweep-freq",
        "load": "sweep-load",
        "inductance": "sweep-inductance",
        "input_voltage": "sweep-vin",
    }[config.sweep.axis]
    closed, _ = run(command, config)
    mna, _ = run(command, config, oracle=True)
    a, b = np.asarray(closed.rows), np.asarray(mna.rows)
    assert np.array_equal(a[:, 0], b[:, 0])
    v_closed, v_mna = a[:, 1] + 1j * a[:, 2], b[:, 1] + 1j * b[:, 2]
    assert np.max(np.abs(v_closed - v_mna) / np.abs(v_mna)) <= 1e-9
    assert np.max(np.abs(a[:, 4] - b[:, 4]) / b[:, 4]) <= 1e-9


# ── determinism ─────────────────────────────────────────────────────────


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep-freq", "--config", str(SCENARIO_DIR / "fig4a.scn"), "--points", "301"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ── exit codes ──────────────────────────────────────────────────────────


def test_validation_failure_exits_2(tmp_path):
    bad = _scenario(tmp_path, BASE_SCENARIO.replace("C_ret = 1p", "C_ret = 1q"))
    assert main(["sweep-freq", "--config", str(bad)]) == 2
    missing = tmp_path / "nope.scn"
    assert main(["sweep-freq", "--config", str(missing)]) == 2


@pytest.mark.parametrize("points", ["0", "1", "-5", "2.5", "many"])
def test_points_must_be_an_integer_of_at_least_two(tmp_path, points, capsys):
    path = _scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep-freq", "--config", str(path), "--points", points])
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err


@pytest.mark.parametrize("points", [0, 1, -5])
def test_run_rejects_points_below_two(tmp_path, points):
    config = load_scenario(_scenario(tmp_path))
    with pytest.raises(ConfigError, match="points"):
        run("sweep-freq", config, points=points)


def test_run_section_is_an_unknown_section(tmp_path, capsys):
    path = _scenario(tmp_path, BASE_SCENARIO + "\n[run]\nseed = 1\n")
    assert main(["sweep-freq", "--config", str(path)]) == 2
    assert "[run]: unknown section" in capsys.readouterr().err


def test_seed_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-freq", "--config", str(_scenario(tmp_path)), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_axis_mismatch_exits_2(tmp_path):
    path = _scenario(tmp_path)
    assert main(["sweep-load", "--config", str(path)]) == 2
    assert main(["optimize-load", "--config", str(path)]) == 2


def test_model_error_exits_3(tmp_path):
    text = BASE_SCENARIO.replace("axis = frequency", "axis = load")
    path = _scenario(tmp_path, text)
    # r_s = 0: the load objective is unbounded, a model-level failure.
    assert main(["optimize-load", "--config", str(path)]) == 3


def test_safety_without_table_exits_2(tmp_path):
    path = _scenario(tmp_path)
    assert main(["safety", "--config", str(path)]) == 2


def test_safety_with_an_infinite_limit_exits_2(tmp_path, capsys):
    path = _scenario(tmp_path, (SCENARIO_DIR / "safety_example.scn").read_text())
    (tmp_path / "example_limits.lmt").write_text("source_label x\nband 1e3 1e8 inf\n", encoding="utf-8")
    assert main(["safety", "--config", str(path)]) == 2
    assert "contact_current_limit must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "band, message",
    [
        ("band 5e5 2e6 10", "limit bands must be sorted and non-overlapping"),
        ("band 2e6 inf 10", "f_hi must be finite"),
    ],
    ids=["overlap", "infinite_f_hi"],
)
def test_safety_with_a_bad_band_names_its_line_and_exits_2(tmp_path, capsys, band, message):
    path = _scenario(tmp_path, (SCENARIO_DIR / "safety_example.scn").read_text())
    table = tmp_path / "example_limits.lmt"
    table.write_text(f"source_label x\nband 1e5 1e6 10\n{band}\n", encoding="utf-8")
    assert main(["safety", "--config", str(path)]) == 2
    assert f"{table.resolve()}:3: {message}" in capsys.readouterr().err


def test_oracle_check_rejects_a_bad_tolerance_before_solving(tmp_path, capsys):
    # The node-level solve fails on this grid (a model error, exit 3), so the
    # tolerance must be checked before it runs.
    text = (SCENARIO_DIR / "fig4a.scn").read_text()
    path = _scenario(tmp_path, text.replace("lo = 100k", "lo = 1e-300").replace("hi = 10M", "hi = 2e-300"))
    argv = ["oracle-check", "--config", str(path), "--points", "3"]
    assert main(argv) == 3
    assert main(argv + ["--tolerance", "nan"]) == 2
    assert "tolerance: must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
def test_oracle_check_rejects_a_tolerance_that_is_not_finite_and_positive(tolerance, capsys):
    argv = ["oracle-check", "--config", str(SCENARIO_DIR / "fig4a.scn"), "--points", "7"]
    assert main(argv + ["--tolerance", tolerance]) == 2
    assert "tolerance: must be finite and > 0" in capsys.readouterr().err


def test_plot_data_needs_out_file(tmp_path):
    path = _scenario(tmp_path)
    assert main(["sweep-freq", "--config", str(path), "--plot-data"]) == 2


def test_plot_data_writes_two_column_files(tmp_path):
    path = _scenario(tmp_path)
    out = tmp_path / "curve.csv"
    code = main(["sweep-freq", "--config", str(path), "--points", "16", "--out", str(out), "--plot-data"])
    assert code == 0
    plot = tmp_path / "curve.csv.p_out_rms.plot"
    assert plot.exists()
    data_lines = [l for l in plot.read_text().splitlines() if l and not l.startswith("#")]
    assert len(data_lines) == 16
    assert all(len(l.split()) == 2 for l in data_lines)


# ── multi receiver and topology commands ────────────────────────────────

MULTI_SCENARIO = BASE_SCENARIO.replace("C_GB = 5p", "C_GB = 0") + """
[receiver2]
C_ret = 30p
C_GB = 0
L = 0.33m
R_L = 1k
C_L = 0
r_s = 0
"""


def test_multi_lists_each_receiver(tmp_path):
    path = _scenario(tmp_path, MULTI_SCENARIO)
    out = tmp_path / "multi.csv"
    assert main(["multi", "--config", str(path), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "receiver,frequency[Hz],v_o_mag[V],p_out_rms[W]"
    assert len(lines) == 3
    f1 = float(lines[1].split(",")[1])
    f2 = float(lines[2].split(",")[1])
    assert f1 == pytest.approx(2.449e6, rel=1e-2)  # 4.222 mH on 1 pF
    assert f2 == pytest.approx(1.6e6, rel=1e-2)


def test_multi_joint_mode_adds_deviation_columns(tmp_path):
    path = _scenario(tmp_path, MULTI_SCENARIO)
    out = tmp_path / "joint.csv"
    assert main(["multi", "--config", str(path), "--joint", "--out", str(out)]) == 0
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header.endswith("p_joint_rms[W],deviation_rel")


TOPOLOGY_SCENARIO = BASE_SCENARIO.replace(
    "kind = grounded\nV_in = 12\nconvention = pp\nR_S = 0",
    "kind = resonant-wearable\nV_in = 12\nconvention = pp\nC_ret_tx = 1p\nQ = 10",
)


def test_compare_topologies_orders_pairings(tmp_path):
    path = _scenario(tmp_path, TOPOLOGY_SCENARIO)
    out = tmp_path / "topo.csv"
    assert main(["compare-topologies", "--config", str(path), "--points", "64", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "frequency[Hz],m2m_gain[dB],m2w_gain[dB],w2w_gain[dB],w2w_resonant_gain[dB]"
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    assert np.all(rows[:, 1] >= rows[:, 2] - 1e-9)  # M2M >= M2W everywhere here
    assert np.all(rows[:, 2] >= rows[:, 3])  # M2W >= W2W


def test_compare_topologies_needs_resonant_wearable_source(tmp_path):
    path = _scenario(tmp_path)
    assert main(["compare-topologies", "--config", str(path)]) == 2


def test_fit_command_recovers_parameters(tmp_path):
    truth = ReceiverParams(c_ret=1.3e-12, c_gb=4.2e-12, l=4.222e-3, r_l=1000.0)
    src = GroundedTx(v_in=12.0, convention="pp")
    body = BodyModel(c_b=150e-12)
    f0 = resonant_frequency(truth)
    sweep = simulate_frequency_sweep(truth, src, body, np.geomspace(f0 / 3, f0 * 3, 41))
    table = sweep_to_table(sweep)
    data_path = tmp_path / "measured.csv"
    data_path.write_text(table.to_csv(), encoding="utf-8")

    text = BASE_SCENARIO + f"\n[fit]\ndata = {data_path.name}\nfree = C_ret,C_GB\n"
    path = _scenario(tmp_path, text)
    out = tmp_path / "fit.csv"
    assert main(["fit", "--config", str(path), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    row = dict(zip(lines[0].split(","), [float(v) for v in lines[1].split(",")]))
    assert row["C_ret[F]"] == pytest.approx(truth.c_ret, rel=5e-3)
    assert row["C_GB[F]"] == pytest.approx(truth.c_gb, rel=5e-3)
    assert row["converged"] == 1.0


_EXP_RANGE_TRUTH = ReceiverParams(
    c_ret=3.3561825205574013e-11, c_gb=1.7017936321731197e-12, l=0.33e-3, r_l=1000.0,
    r_s=468.83779493693976,
)


def _exp_range_fit_scenario(tmp_path):
    """Noiseless data, and a fit of C_ret, C_GB and r_s started at 1.3x, 0.7x
    and 1.5x truth."""
    truth = _EXP_RANGE_TRUTH
    f0 = resonant_frequency(truth)
    sweep = simulate_frequency_sweep(
        truth, GroundedTx(5.0, "pp"), BodyModel(c_b=150e-12), np.linspace(0.8 * f0, 1.2 * f0, 101)
    )
    (tmp_path / "measured.csv").write_text(sweep_to_table(sweep).to_csv(), encoding="utf-8")
    text = (
        BASE_SCENARIO.replace("C_ret = 1p", f"C_ret = {1.3 * truth.c_ret!r}")
        .replace("C_GB = 5p", f"C_GB = {0.7 * truth.c_gb!r}")
        .replace("L = 4.222m", "L = 0.33m")
        .replace("r_s = 0", f"r_s = {1.5 * truth.r_s!r}")
        .replace("V_in = 12", "V_in = 5")
    )
    return _scenario(tmp_path, text + "\n[fit]\ndata = measured.csv\nfree = C_ret,C_GB,r_s\n")


def test_fit_step_past_exp_range_is_rejected_not_a_crash(tmp_path, capsys, monkeypatch):
    # From the given start alone (no linear start), an undamped log-space
    # step overflows math.exp.  The step is rejected, and the fit then stops
    # by name on the parameter it has driven out of the data's reach.
    overflows = []
    exp = math.exp

    def recording_exp(x):
        try:
            return exp(x)
        except OverflowError:
            overflows.append(x)
            raise

    monkeypatch.setattr(analysis, "_linear_start", lambda *args: None)
    monkeypatch.setattr(math, "exp", recording_exp)
    path = _exp_range_fit_scenario(tmp_path)
    assert main(["fit", "--config", str(path)]) == 3
    assert "the data is insensitive to parameter 'c_gb'" in capsys.readouterr().err
    assert overflows


def test_fit_from_the_linear_start_recovers_the_exp_range_fit(tmp_path):
    path = _exp_range_fit_scenario(tmp_path)
    out = tmp_path / "fit.csv"
    assert main(["fit", "--config", str(path), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    row = dict(zip(lines[0].split(","), [float(v) for v in lines[1].split(",")]))
    truth = _EXP_RANGE_TRUTH
    for column, value in (("C_ret[F]", truth.c_ret), ("C_GB[F]", truth.c_gb), ("r_s[ohm]", truth.r_s)):
        assert row[column] == pytest.approx(value, rel=1e-12)
    assert row["converged"] == 1.0


def test_fit_on_a_negative_power_exits_2_naming_the_line(tmp_path, capsys):
    data = "frequency[Hz],p_out_rms[W]\n1e6,0.001\n2e6,-0.002\n3e6,0.003\n"
    (tmp_path / "measured.csv").write_text(data, encoding="utf-8")
    path = _scenario(tmp_path, BASE_SCENARIO + "\n[fit]\ndata = measured.csv\nfree = C_ret\n")
    assert main(["fit", "--config", str(path)]) == 2
    assert "measured.csv:3: negative power -0.002" in capsys.readouterr().err


def test_fit_without_section_exits_2(tmp_path):
    path = _scenario(tmp_path)
    assert main(["fit", "--config", str(path)]) == 2


def test_sweep_table_matches_the_row_loop_bit_for_bit():
    # The row-by-row build with the scalar abs(v) is the reference; the
    # array np.abs would differ from it in the last bit on some rows.
    config = load_scenario(SCENARIO_DIR / "fig4a.scn")
    grid = config.sweep.grid(20000)
    sweep = simulate_frequency_sweep(config.receiver, config.source, config.body, grid)
    rows = [[x, v.real, v.imag, abs(v), p] for x, v, p in zip(sweep.values, sweep.v_o, sweep.p_out_rms)]
    assert sweep_to_table(sweep).rows == rows
    power_only = SweepResult(axis="frequency", values=sweep.values, p_out_rms=sweep.p_out_rms)
    assert sweep_to_table(power_only).rows == [list(r) for r in zip(sweep.values, sweep.p_out_rms)]


# ── measured-data import ────────────────────────────────────────────────


def test_round_trip_is_lossless(tmp_path):
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    sweep = simulate_frequency_sweep(
        rx, GroundedTx(12.0, "pp"), BodyModel(c_b=150e-12), np.geomspace(1e5, 1e7, 40)
    )
    path = tmp_path / "dump.csv"
    path.write_text(sweep_to_table(sweep).to_csv(), encoding="utf-8")
    back = import_measured(path, axis="frequency")
    assert not back.power_only
    np.testing.assert_array_equal(back.values, sweep.values)
    np.testing.assert_array_equal(back.p_out_rms, sweep.p_out_rms)
    np.testing.assert_array_equal(back.v_o, sweep.v_o)


def test_power_only_import(tmp_path):
    path = tmp_path / "two_col.csv"
    path.write_text(
        "frequency[Hz],p_out_rms[W]\n1000000.0,0.001\n2000000.0,0.002\n", encoding="utf-8"
    )
    sweep = import_measured(path, axis="frequency")
    assert sweep.power_only
    assert sweep.p_out_rms.tolist() == [0.001, 0.002]


def test_import_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "frequency[Hz],p_out_rms[W]\n1e6,0.001\n1e6,0.002\n2e6,0.003\n", encoding="utf-8"
    )
    with pytest.raises(DuplicateAxisError) as excinfo:
        import_measured(path, axis="frequency")
    assert excinfo.value.offenders == [1e6]


def test_import_reports_malformed_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "frequency[Hz],p_out_rms[W]\n1e6,0.001\noops,0.002\n", encoding="utf-8"
    )
    with pytest.raises(CsvFormatError) as excinfo:
        import_measured(path, axis="frequency")
    assert excinfo.value.line == 3
    assert "3" in str(excinfo.value)


def test_import_rejects_nonpositive_axis(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text(
        "frequency[Hz],p_out_rms[W]\n-1e6,0.001\n2e6,0.002\n", encoding="utf-8"
    )
    with pytest.raises(CsvFormatError):
        import_measured(path, axis="frequency")


@pytest.mark.parametrize(
    "rows, line",
    [
        ("1e6,nan\n2e6,0.002\n", 2),
        ("1e6,0.001\n2e6,-inf\n", 3),
        ("1e6,0.001\n2e6,inf\n", 3),
        ("1e6,0.001\ninf,0.002\n", 3),
    ],
)
def test_import_rejects_non_finite_fields_with_line(tmp_path, rows, line):
    path = tmp_path / "nonfinite.csv"
    path.write_text("frequency[Hz],p_out_rms[W]\n" + rows, encoding="utf-8")
    with pytest.raises(CsvFormatError, match="non-finite") as excinfo:
        import_measured(path, axis="frequency")
    assert excinfo.value.line == line


# Zeros of either sign and subnormals, drawn often on purpose.
_TINY = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308))
_POWER = st.one_of(_TINY, st.floats(min_value=0.0, allow_infinity=False)).filter(lambda p: p >= 0.0)
# |v_o| is written too, so the parts stay where their magnitude is finite.
_PART = st.one_of(_TINY, st.floats(min_value=-1e150, max_value=1e150))


@st.composite
def _sweeps(draw):
    """Sweeps on any axis and schema: subnormal and zero powers, signed zeros
    and subnormals in both parts of v_o."""
    values = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                           min_size=2, max_size=8, unique=True))
    n = len(values)
    powers = draw(st.lists(_POWER, min_size=n, max_size=n))
    v_o = None
    if draw(st.booleans()):
        v_o = np.empty(n, dtype=complex)
        v_o.real = draw(st.lists(_PART, min_size=n, max_size=n))
        v_o.imag = draw(st.lists(_PART, min_size=n, max_size=n))
    axis = draw(st.sampled_from(AXES))
    return SweepResult(axis=axis, values=sorted(values), p_out_rms=powers, v_o=v_o)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweep=_sweeps())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, sweep):
    path = tmp_path_factory.mktemp("round_trip") / "sweep.csv"
    path.write_text(sweep_to_table(sweep).to_csv(), encoding="utf-8")
    back = import_measured(path, axis=sweep.axis)
    assert back.power_only == sweep.power_only
    assert back.values.tobytes() == sweep.values.tobytes()
    assert back.p_out_rms.tobytes() == sweep.p_out_rms.tobytes()
    if not sweep.power_only:
        assert back.v_o.tobytes() == sweep.v_o.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweep=_sweeps(), data=st.data(), token=st.sampled_from(("nan", "inf", "-inf", "NaN", "+inf")))
def test_import_rejects_a_non_finite_field_with_its_line(tmp_path_factory, sweep, data, token):
    lines = sweep_to_table(sweep).to_csv().splitlines()
    row = data.draw(st.integers(1, len(lines) - 1))  # line 1 is the header
    fields = lines[row].split(",")
    fields[data.draw(st.integers(0, len(fields) - 1))] = token
    lines[row] = ",".join(fields)
    path = tmp_path_factory.mktemp("non_finite") / "sweep.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CsvFormatError) as excinfo:
        import_measured(path, axis=sweep.axis)
    assert excinfo.value.line == row + 1


def test_import_sorts_with_warning(tmp_path):
    path = tmp_path / "unsorted.csv"
    path.write_text(
        "frequency[Hz],p_out_rms[W]\n2e6,0.002\n1e6,0.001\n", encoding="utf-8"
    )
    with pytest.warns(UnsortedRowsWarning):
        sweep = import_measured(path, axis="frequency")
    assert sweep.values.tolist() == [1e6, 2e6]


def _write_rows(directory, header, rows):
    path = directory / "sweep.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sweep=_sweeps(), data=st.data())
def test_import_resorts_shuffled_rows_bit_for_bit(tmp_path_factory, sweep, data):
    header, *rows = sweep_to_table(sweep).to_csv().splitlines()
    shuffled = data.draw(st.permutations(rows).filter(lambda p: p != rows))
    directory = tmp_path_factory.mktemp("shuffled")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = import_measured(_write_rows(directory, header, rows), axis=sweep.axis)
    with pytest.warns(UnsortedRowsWarning):
        back = import_measured(_write_rows(directory, header, shuffled), axis=sweep.axis)
    assert back.values.tobytes() == expected.values.tobytes()
    assert back.p_out_rms.tobytes() == expected.p_out_rms.tobytes()
    if not sweep.power_only:
        assert back.v_o.tobytes() == expected.v_o.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sweep=_sweeps(), data=st.data())
def test_import_lists_exactly_the_duplicated_axis_values(tmp_path_factory, sweep, data):
    header, *rows = sweep_to_table(sweep).to_csv().splitlines()
    repeated = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
    copies = [rows[i] for i in sorted(repeated) for _ in range(data.draw(st.integers(1, 2)))]
    lines = data.draw(st.permutations(rows + copies))
    path = _write_rows(tmp_path_factory.mktemp("duplicates"), header, lines)
    with pytest.raises(DuplicateAxisError) as excinfo:
        import_measured(path, axis=sweep.axis)
    assert excinfo.value.offenders == sorted(sweep.values[i] for i in repeated)


_FAULTS = {
    "field count": (lambda fields: fields + ["1.0"], None),
    "malformed number": (lambda fields: fields[:-1] + ["1.0.0"], "malformed"),
    "non-positive axis": (lambda fields: ["-0.0"] + fields[1:], "non-positive axis"),
    "negative power": (lambda fields: fields[:-1] + ["-1e-3"], "negative power"),
    "non-finite field": (lambda fields: fields[:-1] + ["inf"], "non-finite"),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sweep=_sweeps(), data=st.data(), fault=st.sampled_from(sorted(_FAULTS)))
def test_import_names_the_line_of_a_single_fault(tmp_path_factory, sweep, data, fault):
    header, *rows = sweep_to_table(sweep).to_csv().splitlines()
    lines = data.draw(st.permutations(rows))
    k = data.draw(st.integers(0, len(lines) - 1))
    corrupt, message = _FAULTS[fault]
    lines[k] = ",".join(corrupt(lines[k].split(",")))
    path = _write_rows(tmp_path_factory.mktemp("fault"), header, lines)
    with pytest.raises(CsvFormatError, match=message) as excinfo:
        import_measured(path, axis=sweep.axis)
    assert excinfo.value.line == k + 2  # line 1 is the header


@pytest.mark.parametrize("axis", AXES)
def test_import_of_a_header_with_no_rows_names_line_1(tmp_path, axis):
    header = sweep_to_table(SweepResult(axis=axis, values=[1.0, 2.0], p_out_rms=[0.0, 0.0]))
    path = _write_rows(tmp_path, header.to_csv().splitlines()[0], [])
    with pytest.raises(CsvFormatError, match="need at least 2 data rows") as excinfo:
        import_measured(path, axis=axis)
    assert excinfo.value.line == 1


def test_import_rejects_wrong_axis_header(tmp_path):
    path = tmp_path / "axis.csv"
    path.write_text("load[ohm],p_out_rms[W]\n100,0.1\n200,0.2\n", encoding="utf-8")
    with pytest.raises(CsvFormatError):
        import_measured(path, axis="frequency")


def test_every_sweep_command_reimports_cleanly(tmp_path):
    text = BASE_SCENARIO.replace("r_s = 0", "r_s = 1k")
    commands = {
        "sweep-freq": ("frequency", text),
        "sweep-load": ("load", text.replace("axis = frequency\nlo = 100k\nhi = 10M", "axis = load\nlo = 100\nhi = 10k")),
        "sweep-inductance": ("inductance", text.replace("axis = frequency\nlo = 100k\nhi = 10M", "axis = inductance\nlo = 0.1m\nhi = 10m")),
        "sweep-vin": ("input_voltage", text.replace("axis = frequency\nlo = 100k\nhi = 10M", "axis = input_voltage\nlo = 1\nhi = 12")),
    }
    for command, (axis, scenario_text) in commands.items():
        path = _scenario(tmp_path, scenario_text, name=f"{command}.scn")
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--points", "16", "--out", str(out)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = import_measured(out, axis=axis)
        assert len(sweep) == 16


# ── result table basics ─────────────────────────────────────────────────


def test_result_table_requires_rectangular_rows():
    with pytest.raises(ValueError):
        ResultTable(columns=["a", "b"], rows=[[1.0]])
    with pytest.raises(ValueError):
        ResultTable(columns=["a", "a"], rows=[])


def test_result_table_header_order_is_stable():
    table = ResultTable(columns=["x"], rows=[[1.0]], provenance={"config_sha256": "ff", "command": "c", "version": "v"})
    lines = table.to_csv().splitlines()
    assert lines[0] == "# config_sha256=ff"
    assert lines[1] == "# command=c"
    assert lines[2] == "# version=v"


# ── every command on every shipped scenario ─────────────────────────────


def _run_quietly(argv) -> int:
    """``main(argv)`` with every warning recorded; none may be raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, f"{argv}: {[str(w.message) for w in caught]}"
    return code


def test_every_command_on_every_shipped_scenario_exits_cleanly_with_finite_cells(tmp_path, capsys):
    out = tmp_path / "out.csv"
    runs = shipped_cli_runs(out)
    for argv in runs:
        out.unlink(missing_ok=True)
        assert _run_quietly(argv) in (0, 2, 3, 4), argv
        if out.exists():
            rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
            assert rows, argv
            assert all(math.isfinite(float(c)) for row in rows for c in row.split(",")), argv
    capsys.readouterr()
    assert len(runs) == 416


def _at_frequency(scenario: str, frequency: str) -> str:
    """The text of a shipped scenario with ``sweep.frequency`` set to ``frequency``."""
    lines = (SCENARIO_DIR / scenario).read_text().splitlines()
    lines = [line for line in lines if not line.startswith("frequency")]
    k = lines.index("[sweep]") + 1
    return "\n".join([*lines[:k], f"frequency = {frequency}", *lines[k:]]) + "\n"


_EXTREME_FREQUENCY_RUNS = [
    *(
        ("optimize-inductor", scenario, frequency)
        for scenario in sorted(p.name for p in SCENARIO_DIR.glob("*.scn"))
        for frequency in ("1e-200", "1e200")
    ),
    *((command, "fig4c.scn", "5e-324") for command in ("sweep-load", "sweep-load --oracle", "optimize-load")),
    *(("sweep-vin", scenario, "5e-324") for scenario in ("rx1.scn", "rx2.scn", "rx3.scn")),
]


@pytest.mark.parametrize(
    ("command", "scenario", "frequency"), _EXTREME_FREQUENCY_RUNS, ids=[" ".join(run) for run in _EXTREME_FREQUENCY_RUNS]
)
def test_an_extreme_operating_frequency_is_a_model_error(tmp_path, capsys, command, scenario, frequency):
    # (2*pi*f)^2 underflows or overflows, or 1/(j*w*C_ret) divides by a
    # complex zero: each is named instead of ending in a traceback.
    shutil.copytree(SCENARIO_DIR, tmp_path, dirs_exist_ok=True)  # the files a scenario names
    path = _scenario(tmp_path, _at_frequency(scenario, frequency))
    out = tmp_path / "out.csv"
    assert _run_quietly([*command.split(), "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("model error:")


def test_an_oracle_run_at_an_underflowing_frequency_names_the_admittances(tmp_path, capsys):
    # s*C underflows to 0 at 5e-324 Hz; the topology is not at fault.
    path = _scenario(tmp_path, _at_frequency("fig4c.scn", "5e-324"))
    assert _run_quietly(["sweep-load", "--oracle", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert "in double precision the admittance of the capacitor between 'body' and 0 is 0" in err
    assert "source loops" not in err


_NON_FINITE_MULTI = {
    "C_GB = 1e300": ({"C_GB": "1e300"}, 8.761191269246237e-150),
    "C_L = 1e300": ({"C_L": "1e300"}, 1599567.362927827),
    "C_ret = 1e-300, C_GB = 1e30": ({"C_ret": "1e-300", "C_GB": "1e30"}, 8.761191269246238e-15),
    "C_ret = 1e-300, C_L = 1e30": ({"C_ret": "1e-300", "C_L": "1e30"}, 8.761191269246238e150),
}


def _fig4c_with(keys: dict) -> str:
    """The text of fig4c.scn with each key of ``keys`` set to its value."""
    text = (SCENARIO_DIR / "fig4c.scn").read_text()
    for key, value in keys.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


@pytest.mark.parametrize(("keys", "f0"), _NON_FINITE_MULTI.values(), ids=_NON_FINITE_MULTI)
def test_multi_whose_cells_are_not_finite_exits_3(tmp_path, capsys, keys, f0):
    # k = 1 + C_GB/C_ret or the load's C_L overflows in Python float
    # arithmetic, which warns nothing; received_power names the receiver's
    # resonant frequency.
    out = tmp_path / "multi.csv"
    assert _run_quietly(["multi", "--config", str(_scenario(tmp_path, _fig4c_with(keys))), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == f"model error: p_out_rms must be finite; at frequency = {f0!r} it is nan\n"


_OVERFLOWING_SWEEPS = {
    "sweep-load C_GB = 1e300": ("sweep-load", {"C_GB": "1e300"}, "load = 100.0 it is nan"),
    "sweep-load C_L = 1e300, R_L = 1e-300": ("sweep-load", {"C_L": "1e300", "R_L": "1e-300"}, "load = 100.0 it is nan"),
    "resonance V_in = 1e300": ("resonance", {"V_in": "1e300"}, "frequency = 1599567.362927827 it is inf"),
    "resonance --oracle V_in = 1e300": ("resonance --oracle", {"V_in": "1e300"}, "frequency = 1599567.362927827 it is inf"),
}


@pytest.mark.parametrize(("command", "keys", "where"), _OVERFLOWING_SWEEPS.values(), ids=_OVERFLOWING_SWEEPS)
def test_a_sweep_past_double_precision_exits_3_without_a_numpy_warning(tmp_path, capsys, command, keys, where):
    # The kernel's overflow stays inside simulate; the sweep names its first bad point.
    out = tmp_path / "sweep.csv"
    path = _scenario(tmp_path, _fig4c_with(keys))
    assert _run_quietly([*command.split(), "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == f"model error: p_out_rms must be finite; at {where}\n"


def test_multi_joint_whose_independent_power_is_zero_exits_3(tmp_path, capsys):
    # r_s = 1e300 ohm: the independent power underflows to 0, and the joint
    # check's relative deviation would divide by it.
    out = tmp_path / "multi.csv"
    path = _scenario(tmp_path, _fig4c_with({"r_s": "1e300"}))
    assert _run_quietly(["multi", "--joint", "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        "model error: receiver 0: the joint loading check divides by its independent power 0.0 W "
        "at frequency = 1599567.362927827, which must be finite and > 0\n"
    )


_OVERFLOWING_TOPOLOGIES = {
    "C_ret = 1e300, r_s = 1e-15": ({"C_ret": "1e300", "r_s": "1e-15"}, "the M2M gain in dB", "nan"),
    "Q = 1e200": ({"Q": "1e200"}, "the W2W-resonant gain in dB", "-inf"),
    "C_B = 1e15, R_L = 1e-300": ({"C_B": "1e15", "R_L": "1e-300"}, "the W2W gain in dB", "-inf"),
}


@pytest.mark.parametrize(("keys", "name", "value"), _OVERFLOWING_TOPOLOGIES.values(), ids=_OVERFLOWING_TOPOLOGIES)
def test_compare_topologies_past_double_precision_exits_3_without_a_numpy_warning(tmp_path, capsys, keys, name, value):
    path = _shipped_with(tmp_path, "resonant_wearable.scn", keys)
    out = tmp_path / "topologies.csv"
    assert _run_quietly(["compare-topologies", "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == f"model error: {name} must be finite; at frequency = 500000.0 it is {value}\n"


def _shipped_with(tmp_path, scenario: str, keys: dict):
    """A copy of the shipped ``scenario`` (beside the files it names) with
    each key of ``keys`` set to its value."""
    shutil.copytree(SCENARIO_DIR, tmp_path, dirs_exist_ok=True)
    text = (SCENARIO_DIR / scenario).read_text()
    for key, value in keys.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return _scenario(tmp_path, text)


def test_oracle_check_whose_gap_is_not_finite_exits_3_without_a_numpy_warning(tmp_path, capsys):
    # Up to hi = 1e300 Hz the MNA load voltage underflows to 0, and the gap divides by it.
    out = tmp_path / "gaps.csv"
    path = _shipped_with(tmp_path, "fig4a.scn", {"hi": "1e300"})
    assert _run_quietly(["oracle-check", "--config", str(path), "--points", "50", "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        "model error: the oracle gap must be finite; at frequency = 3.7275937203148007e+173 it is inf\n"
    )


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["closed form", "oracle"])
def test_safety_whose_contact_current_underflows_exits_3(tmp_path, capsys, oracle):
    # V_in = 5e-324 V: the contact current is 0, and the margin divides by it.
    out = tmp_path / "safety.csv"
    path = _shipped_with(tmp_path, "safety_example.scn", {"V_in": "5e-324"})
    assert _run_quietly(["safety", "--config", str(path), *oracle, "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        "model error: the margin must be finite; at frequency = 1747000.0 it divides by zero\n"
    )


@pytest.mark.parametrize("command", COMMANDS)
def test_a_bad_limit_table_fails_every_command_when_the_scenario_loads(tmp_path, capsys, command):
    # The table is parsed once, with the scenario, so no command runs on a
    # scenario whose table is bad.
    path = _scenario(tmp_path, (SCENARIO_DIR / "safety_example.scn").read_text())
    table = tmp_path / "example_limits.lmt"
    table.write_text("source_label x\nband 1e5 one 10\n", encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {table.resolve()}:2: could not convert string to float: 'one'\n"


def test_result_table_rejects_a_cell_that_is_not_finite():
    for value, shown in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
        with pytest.raises(NonFiniteResultError, match=re.escape(f"column 'b' of row 2 is {shown}, not finite")):
            ResultTable(columns=["a", "b"], rows=[[1.0, 2.0], [3.0, value]])


def test_optimize_load_whose_power_is_not_finite_exits_3(tmp_path, capsys):
    # C_L = 1e300 F: the power at the clipped optimum is inf/inf.
    text = (SCENARIO_DIR / "fig4c.scn").read_text().replace("C_L = 0", "C_L = 1e300")
    out = tmp_path / "opt.csv"
    assert _run_quietly(["optimize-load", "--config", str(_scenario(tmp_path, text)), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        "model error: p_out_rms at R_L = 100.0 ohm must be finite; at frequency = 1599567.362927827 "
        "it is nan\n"
    )


# ── the flags each command reads ────────────────────────────────────────

#: a shipped scenario on which each command's plain run exits 0
_PASSING_SCENARIO = {
    "sweep-freq": "fig4a.scn",
    "sweep-load": "fig4c.scn",
    "sweep-inductance": "wearable_inductance.scn",
    "sweep-vin": "rx1.scn",
    "resonance": "fig4a.scn",
    "optimize-load": "fig4c.scn",
    "optimize-inductor": "safety_example.scn",
    "safety": "safety_example.scn",
    "max-safe-vin": "safety_example.scn",
    "fit": "resonant_wearable.scn",
    "multi": "rx1.scn",
    "compare-topologies": "resonant_wearable.scn",
    "oracle-check": "safety_example.scn",
}
#: each flag on the command line, its value in run(), and what it changes
#: in a table (given whether the run solved a netlist)
_FLAG_EFFECT = {
    "points": (["--points", "7"], 7, lambda table, solved: len(table.rows) == 7),
    "tolerance": (["--tolerance", "0.5"], 0.5, lambda table, solved: table.provenance["tolerance"] == "0.5"),
    "joint": (["--joint"], True, lambda table, solved: table.columns[-2:] == ["p_joint_rms[W]", "deviation_rel"]),
    "oracle": (["--oracle"], True, lambda table, solved: solved),
}


@pytest.mark.parametrize("flag", _FLAG_EFFECT)
@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_reads_the_flags_it_declares_and_exits_2_on_any_other(command, flag, capsys, monkeypatch):
    path = SCENARIO_DIR / _PASSING_SCENARIO[command]
    argv, value, effect = _FLAG_EFFECT[flag]
    if flag not in cli._FLAGS[command]:
        assert _run_quietly([command, "--config", str(path), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {command} does not read --{flag}\n")
        return
    assert _run_quietly([command, "--config", str(path)]) == 0
    solved = []
    solve_many = acnet.solve_many
    monkeypatch.setattr(acnet, "solve_many", lambda *args, **kw: solved.append(1) or solve_many(*args, **kw))
    table, code = run(command, load_scenario(path), **{flag: value})
    assert code == 0
    assert effect(table, bool(solved))


def test_each_command_reads_the_flags_its_handler_declares():
    assert cli._FLAGS == {
        **dict.fromkeys(("sweep-freq", "sweep-load", "sweep-inductance", "sweep-vin"), ("points", "oracle")),
        "resonance": ("oracle",),
        "optimize-load": (),
        "optimize-inductor": (),
        "safety": ("oracle",),
        "max-safe-vin": (),
        "fit": (),
        "multi": ("joint",),
        "compare-topologies": ("points",),
        "oracle-check": ("points", "tolerance", "oracle"),
    }


def test_a_flag_that_is_none_or_false_is_not_given():
    # The call shapes of perfbench/worker.py: every command with oracle=False,
    # and oracle-check with oracle=True.
    for command in COMMANDS:
        config = load_scenario(SCENARIO_DIR / _PASSING_SCENARIO[command])
        assert run(command, config, points=None, tolerance=None, joint=False, oracle=False)[1] == 0
    assert run("oracle-check", load_scenario(SCENARIO_DIR / "fig4a.scn"), oracle=True)[1] == 0


def test_a_flag_of_zero_is_given():
    config = load_scenario(SCENARIO_DIR / "fig4a.scn")
    with pytest.raises(ConfigError, match="^tolerance: must be finite and > 0, got 0.0$"):
        run("oracle-check", config, tolerance=0.0)
    with pytest.raises(ConfigError, match="^resonance does not read --points$"):
        run("resonance", config, points=0)


def test_run_reads_the_flag_table_without_inspecting_a_handler(monkeypatch):
    def no_inspect(*args, **kw):
        raise AssertionError("inspect.signature called per run")

    monkeypatch.setattr(inspect, "signature", no_inspect)
    table, code = run("sweep-freq", load_scenario(SCENARIO_DIR / "fig4a.scn"), points=3, oracle=True)
    assert (len(table.rows), code) == (3, 0)
