"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
as they execute).
"""

import math
import time
from dataclasses import replace

import numpy as np

from bodychannel import acnet, analysis, cli, optimize, safety
from bodychannel.channel import (
    BodyModel,
    GroundedTx,
    ReceiverParams,
    ResonantWearableTx,
    body_potential,
    resonant_frequency,
    resonant_gain,
    to_rms,
    transfer_function,
)
from helpers import SCENARIO_DIR, log_uniform, random_body, random_receiver, unit_source


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} {name}: {detail}"


def test_c01_resonance_reproduction():
    config = cli.load_scenario(SCENARIO_DIR / "fig4a.scn")
    assert config.sweep.points == 10000
    start = time.perf_counter()
    table, code = cli.run("sweep-freq", config)
    elapsed = time.perf_counter() - start
    rows = np.asarray(table.rows)
    peak = rows[int(np.argmax(rows[:, 4])), 0]
    rel = abs(peak - 1.6e6) / 1.6e6
    ok = code == 0 and rel < 0.01 and elapsed < 1.0
    _report(1, "resonance-reproduction", ok, f"peak {peak:.5g} Hz, {rel:.2%} off 1.6 MHz, {elapsed:.3f} s")


def test_c02_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        rx = random_receiver(rng)  # includes r_s > 0 draws
        # Random drive with the body potential as the source (ideal grounded
        # drive): the closed form and the netlist model the same circuit.
        convention = ("pp", "amplitude", "rms")[int(rng.integers(0, 3))]
        src = GroundedTx(v_in=log_uniform(rng, 0.5, 20.0), convention=convention)
        body = random_body(rng)
        net = acnet.build_channel_netlist(rx, src, body)
        for _ in range(20):
            f = log_uniform(rng, 1.5e5, 8e6)
            v_net = acnet.solve_many(net, f).probe_voltage[0]
            v_o = body_potential(src, body, f) * transfer_function(rx, f)
            worst = max(worst, abs(v_o - v_net) / abs(v_net))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(2, "oracle-equivalence", ok, f"worst rel diff {worst:.2e} over 2000 solves, {elapsed:.2f} s")


def test_c03_resonant_gain_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        base = random_receiver(rng, lossless=True)
        f0 = resonant_frequency(base)
        gain = resonant_gain(base)
        for r_l in (100.0, 1000.0, 10000.0):
            for c_l in (0.0, 1e-12):
                rx = replace(base, r_l=r_l, c_l=c_l)
                worst = max(worst, abs(abs(transfer_function(rx, f0)) - gain))
    ok = worst < 1e-9
    _report(3, "resonant-gain-identity", ok, f"worst |gap| {worst:.2e} over 1200 cases")


def test_c04_load_optimum_reproduction():
    config = cli.load_scenario(SCENARIO_DIR / "fig4c.scn")
    table, code = cli.run("optimize-load", config)
    argmax = table.rows[0][0]
    rel = abs(argmax - 1000.0) / 1000.0
    sweep_table, sweep_code = cli.run("sweep-load", config)
    powers = np.asarray(sweep_table.rows)[:, 4]
    interior_maxima = [
        i for i in range(1, len(powers) - 1) if powers[i] > powers[i - 1] and powers[i] > powers[i + 1]
    ]
    ok = code == 0 and sweep_code == 0 and rel <= 1e-3 and len(interior_maxima) == 1
    _report(4, "load-optimum-reproduction", ok, f"argmax {argmax:.4g} ohm, {rel:.2%} off, {len(interior_maxima)} interior max")


def test_c05_power_endpoint_reproduction():
    targets = {"rx1.scn": 135e-6, "rx2.scn": 531e-6, "rx3.scn": 2.10e-3}
    detail = []
    ok = True
    for name, target in targets.items():
        config = cli.load_scenario(SCENARIO_DIR / name)
        table, code = cli.run("sweep-vin", config)
        rows = np.asarray(table.rows)
        p_final = rows[-1, 4]
        rel = abs(p_final - target) / target
        slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 4]), 1)[0]
        detail.append(f"{name}: {p_final:.4g} W ({rel:.2%} off), slope {slope:.4f}")
        ok = ok and code == 0 and rel <= 0.05 and abs(slope - 2.000) <= 0.01
    _report(5, "power-endpoint-reproduction", ok, "; ".join(detail))


def test_c06_receiver_power_ratios():
    powers = {}
    for name in ("rx1.scn", "rx2.scn", "rx3.scn"):
        config = cli.load_scenario(SCENARIO_DIR / name)
        table, _ = cli.run("sweep-vin", config)
        powers[name] = table.rows[-1][4]
    ratio_32 = powers["rx3.scn"] / powers["rx2.scn"]
    ratio_31 = powers["rx3.scn"] / powers["rx1.scn"]
    ok = 3.75 <= ratio_32 <= 4.15 and ratio_31 > 10.0
    _report(6, "receiver-power-ratios", ok, f"rx3/rx2 {ratio_32:.3f}, rx3/rx1 {ratio_31:.2f}")


def test_c07_topology_ordering():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1000.0)
    body = BodyModel(c_b=100e-12)
    c_ret_tx = 1e-12
    f0 = resonant_frequency(rx)
    freqs = np.unique(np.concatenate([np.geomspace(f0 / 10, f0 * 10, 801), [f0]]))
    src = ResonantWearableTx(1.0, "rms", c_ret_tx=c_ret_tx, q=10.0)
    gains = optimize.compare_topologies(rx, src, body, freqs)
    k = int(np.where(freqs == f0)[0][0])
    ordered = gains["M2M"][k] >= gains["M2W"][k] >= gains["W2W"][k]
    ratio = 10 ** ((gains["M2W"][k] - gains["W2W"][k]) / 20.0)
    expected = (body.c_b + c_ret_tx) / c_ret_tx
    ratio_ok = abs(ratio - expected) < 1e-9 * expected
    ok = bool(ordered and ratio_ok)
    _report(7, "topology-ordering", ok, f"ordered {ordered}, M2W/W2W {ratio:.9f} vs {expected}")


def test_c08_fit_recovery():
    src = GroundedTx(v_in=5.0, convention="pp")
    body = BodyModel(c_b=150e-12)
    start = time.perf_counter()

    rng = np.random.default_rng(107)
    worst_clean = 0.0
    for _ in range(50):
        truth = random_receiver(rng, lossless=False, with_c_l=False)
        f0 = resonant_frequency(truth)
        grid = np.geomspace(f0 / 3, f0 * 3, 41)
        observed = analysis.simulate_frequency_sweep(truth, src, body, grid)
        init = replace(truth, c_ret=truth.c_ret * 1.5, c_gb=truth.c_gb * 0.7)
        report = analysis.fit_params(observed, ["c_ret", "c_gb"], init, src, body)
        err = max(
            abs(report.fitted_params[n] - getattr(truth, n)) / getattr(truth, n)
            for n in ("c_ret", "c_gb")
        )
        worst_clean = max(worst_clean, err)

    truth = ReceiverParams(c_ret=1.5e-12, c_gb=4.5e-12, l=3e-3, r_l=1000.0, r_s=300.0)
    f0 = resonant_frequency(truth)
    grid = np.geomspace(f0 / 3, f0 * 3, 41)
    clean = analysis.simulate_frequency_sweep(truth, src, body, grid)
    errors = []
    for seed in range(50):
        noise_rng = np.random.default_rng(1000 + seed)
        noisy = analysis.SweepResult(
            axis="frequency",
            values=grid,
            p_out_rms=clean.p_out_rms * np.abs(noise_rng.normal(1.0, 0.01, size=len(grid))),
        )
        init = replace(truth, c_ret=truth.c_ret * 1.5, c_gb=truth.c_gb * 0.7)
        report = analysis.fit_params(noisy, ["c_ret", "c_gb"], init, src, body)
        errors.append(
            max(
                abs(report.fitted_params[n] - getattr(truth, n)) / getattr(truth, n)
                for n in ("c_ret", "c_gb")
            )
        )
    p95 = float(np.percentile(errors, 95))
    elapsed = time.perf_counter() - start
    ok = worst_clean < 0.005 and p95 < 0.05 and elapsed < 30.0
    _report(8, "fit-recovery", ok, f"clean worst {worst_clean:.2%}, noisy p95 {p95:.2%}, {elapsed:.1f} s")


def test_c09_safety_inversion():
    rng = np.random.default_rng(109)
    worst_margin_gap = 0.0
    for _ in range(100):
        f = log_uniform(rng, 2e5, 2e7)
        body = BodyModel(c_b=log_uniform(rng, 50e-12, 300e-12))
        limit = log_uniform(rng, 1e-3, 50e-3)
        table = safety.LimitTable(
            source_label="draw",
            bands=(safety.LimitBand(f_lo=1e5, f_hi=3e7, contact_current_limit=limit),),
        )
        src = GroundedTx(v_in=1.0, convention="pp")
        v_max = safety.max_safe_input(body, f, table, src)
        report = safety.check(GroundedTx(v_in=v_max, convention="pp"), body, f, table)
        worst_margin_gap = max(worst_margin_gap, abs(report.margin - 1.0))

    f_ref, c_b, v_pp = 1.747e6, 150e-12, 12.0
    current = safety.contact_current(GroundedTx(v_pp, "pp"), BodyModel(c_b=c_b), f_ref)
    oracle = 2 * math.pi * f_ref * c_b * to_rms(v_pp, "pp")
    gap_vs_oracle = abs(current - oracle) / oracle
    gap_vs_quoted = abs(current - 6.99e-3) / 6.99e-3
    ok = worst_margin_gap < 1e-9 and gap_vs_oracle < 1e-12 and gap_vs_quoted <= 1e-3
    _report(
        9,
        "safety-inversion",
        ok,
        f"margin gap {worst_margin_gap:.1e}, current {current * 1e3:.4f} mA vs 6.99 mA",
    )


def test_c10_determinism(tmp_path):
    command_map = {
        "fig4a.scn": ("sweep-freq", "resonance"),
        "fig4c.scn": ("optimize-load", "sweep-load"),
        "rx1.scn": ("sweep-vin",),
        "rx2.scn": ("sweep-vin",),
        "rx3.scn": ("sweep-vin",),
        "safety_example.scn": ("safety", "max-safe-vin"),
    }
    checked = 0
    identical = True
    for name, commands in command_map.items():
        for command in commands:
            outputs = []
            for attempt in range(2):
                out = tmp_path / f"{name}.{command}.{attempt}.csv"
                code = cli.main(
                    [command, "--config", str(SCENARIO_DIR / name), "--out", str(out)]
                )
                assert code == 0, f"{command} on {name} exited {code}"
                outputs.append(out.read_bytes())
            identical = identical and outputs[0] == outputs[1]
            checked += 1
    ok = identical and checked == 9
    _report(10, "determinism", ok, f"{checked} scenario/command pairs byte-identical")
