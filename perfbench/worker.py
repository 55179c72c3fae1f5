"""One benchmark process: set up, run a deck of ops, check their outputs.

    python perfbench/worker.py --deck DIR/deck.json --mode setup|measure|trace [--seconds S]

Prints ``READY`` once imports are done and the deck's scenarios are loaded
(the end of set-up), then, except in ``setup`` mode, one JSON line with the
results.  Op latencies cover only the call into the package; each output is
checked afterwards, outside the timed region, and an output identical to
one already checked for the same op is accepted by its fingerprint.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
from bodychannel import acnet, analysis, cli, optimize, safety
from bodychannel.channel import BodyModel, GroundedTx

import reference as ref
from run import more
from tracer import Tracer, counts, merge

SAMPLES = 8  # points per MNA op re-solved by the reference solver
MNA_TOL = 1e-8  # package MNA vs the reference dense solve
C02_TOL = 1e-9  # closed form vs MNA where both model the same circuit
CLOSED_TOL = 1e-9  # package closed form vs the reference closed form
FIT_TOL = 0.02  # fitted vs seeded true parameters (data noise sigma 1e-3)
Q_TOL = 0.01  # grid-interpolated Q vs the exact w0*L/(R_L + r_s); 3x the worst of 3000 draws


class CheckError(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckError(message)


def close(actual, expected, tol, what):
    err = ref.rel_err(actual, expected)
    expect(err <= tol, f"{what}: relative error {err:.3e} > {tol:g}")


def grid(sweep, points=None):
    n = points or sweep["points"]
    if sweep["spacing"] == "log":
        return np.geomspace(sweep["lo"], sweep["hi"], n)
    return np.linspace(sweep["lo"], sweep["hi"], n)


def sample(n, k=SAMPLES):
    return np.unique(np.linspace(0, n - 1, k).round().astype(int))


def fingerprint(out):
    """Digest of everything a check looks at.  A rendered CSV determines its
    table exactly (floats are written with repr), so it stands in for it."""
    items = out if isinstance(out, tuple) else (out,)
    has_csv = any(isinstance(item, str) for item in items)
    h = hashlib.sha1()
    for item in items:
        if isinstance(item, str):
            h.update(item.encode())
        elif isinstance(item, cli.ResultTable):
            if not has_csv:
                h.update(repr(item.provenance).encode())
                h.update(np.asarray(item.rows, dtype=float).tobytes())
        elif isinstance(item, np.ndarray):
            h.update(item.tobytes())
        else:
            h.update(repr(item).encode())
    return h.digest()


class Deck:
    """Loaded scenarios plus one (call, check) pair per op."""

    def __init__(self, path: Path):
        self.dir = path.parent
        self.spec = json.loads(path.read_text(encoding="utf-8"))
        self.configs = {}
        self.tables = {}
        for op in self.spec["ops"]:
            config = cli.load_scenario(self.dir / op["scn"])
            self.configs[op["scn"]] = config
            if op["kind"] == "safety_mna":
                self.tables[op["scn"]] = safety.load_limit_table(config.limit_table_path)
        self.ops = [self.build(op) for op in self.spec["ops"]]

    def build(self, op):
        """(call, check) for one op."""
        kind = op["kind"]
        config = self.configs[op["scn"]]
        model = op["model"]
        if kind == "run":
            command, oracle, csv = op["command"], op.get("oracle", False), op.get("csv", False)

            def call():
                table, code = cli.run(command, config, oracle=oracle)
                return (table, code, table.to_csv()) if csv else (table, code)

            return call, lambda out: check_run(op, model, config, out)
        if kind == "approximation_gap":
            xs = grid(model["sweep"])
            return (lambda: analysis.approximation_gap(config.receiver, config.source, config.body, xs),
                    lambda out: check_gap(op, model, config, xs, out))
        if kind == "joint":
            return (lambda: optimize.joint_loading_check(config.receivers, config.source, config.body),
                    lambda out: check_joint(model, config, out))
        if kind == "safety_mna":
            table, f = self.tables[op["scn"]], config.sweep.frequency
            return (lambda: safety.check(config.source, config.body, f, table, rx=config.receiver, mna=True),
                    lambda out: check_safety_mna(op, model, config, f, out))
        if kind == "peak_q":
            xs = grid(model["sweep"])

            def call():
                sweep = analysis.simulate_frequency_sweep(config.receiver, config.source, config.body, xs)
                return analysis.find_resonant_peak(sweep), analysis.q_factor(sweep)

            return call, lambda out: check_peak(model, out)
        if kind == "max_power":
            rx, f = config.receiver, float(ref.resonance(model["receivers"][0]))
            bounds = tuple(op["bounds"])
            return (lambda: optimize.max_power_under_current_limit(
                        rx, config.source, config.body, f, op["i_limit"], bounds=bounds),
                    lambda out: check_max_power(op, model, f, out))
        if kind == "sensitivity":
            return (lambda: analysis.sensitivity(config.receiver, op["target"], op["param"], f=op["f"],
                                                 src=config.source, body=config.body),
                    lambda out: check_sensitivity(op, model, out))
        raise ValueError(f"unknown op kind {kind!r}")


def rows_of(table):
    return np.asarray(table.rows, dtype=float)


def check_csv(table, text):
    lines = text.split("\n")
    header = len(table.provenance)
    expect(lines[header] == ",".join(table.columns), "CSV header line")
    expect(len(lines) == header + 1 + len(table.rows) + 1 and lines[-1] == "", "CSV row count")
    for i in sample(len(table.rows)):
        values = [float(v) for v in lines[header + 1 + i].split(",")]
        expect(values == [float(v) for v in table.rows[i]], f"CSV row {i} does not read back")


def sweep_frequency(model):
    sweep = model["sweep"]
    return sweep["frequency"] if "frequency" in sweep else float(ref.resonance(model["receivers"][0]))


def check_sweep(op, model, config, table):
    """Sweep rows against the reference closed form (all rows), and for MNA
    runs against the reference dense solve (sampled rows)."""
    axis = model["sweep"]["axis"]
    rx, src, body = model["receivers"][0], model["source"], model["body"]
    rows = rows_of(table)
    xs = grid(model["sweep"])
    expect(rows.shape == (len(xs), 5) and np.array_equal(rows[:, 0], xs), "axis column differs from the grid")
    v = rows[:, 1] + 1j * rows[:, 2]
    close(rows[:, 3], np.abs(v), 1e-12, "v_o_mag")
    r_l = xs if axis == "load" else rx["R_L"]
    close(rows[:, 4], np.abs(v) ** 2 / r_l, 1e-12, "p_out_rms")
    if axis == "frequency":
        f, model_rx, model_src = xs, rx, src
    elif axis == "load":
        f, model_rx, model_src = sweep_frequency(model), dict(rx, R_L=xs), src
    elif axis == "inductance":
        model_rx, model_src = dict(rx, L=xs), src
        f = ref.resonance(model_rx)
    else:
        f, model_rx, model_src = sweep_frequency(model), rx, dict(src, V_in=xs)
    if not op.get("oracle"):
        close(v, ref.load_voltage(model_rx, model_src, body, f), CLOSED_TOL, "closed-form v_o")
        return
    if op["netlist_kind"] == 0:
        close(v, ref.load_voltage(model_rx, model_src, body, f), C02_TOL, "closed form vs MNA v_o")
    for i in sample(len(xs)):
        x = float(xs[i])
        rx_i, src_i, f_i = config.receiver, config.source, f if np.ndim(f) == 0 else float(f[i])
        if axis == "load":
            rx_i = replace(rx_i, r_l=x)
        elif axis == "inductance":
            rx_i = replace(rx_i, l=x)
        elif axis == "input_voltage":
            src_i = replace(src_i, v_in=x)
        net = acnet.build_channel_netlist(rx_i, src_i, config.body)
        volts = ref.mna_voltages(net, [f_i])
        plus, minus = net.output_probe
        close(v[i], volts[plus][0] - volts[minus][0], MNA_TOL, f"MNA v_o at row {i}")


def check_run(op, model, config, out):
    table, code = out[0], out[1]
    if len(out) == 3:
        check_csv(table, out[2])
    command = op["command"]
    expect(code == 0, f"{command} exited {code}")
    rows = rows_of(table)
    if command in ("sweep-freq", "sweep-load", "sweep-inductance", "sweep-vin"):
        check_sweep(op, model, config, table)
    elif command == "oracle-check":
        xs = grid(model["sweep"])
        expect(np.array_equal(rows[:, 0], xs), "oracle-check grid")
        expect(float(np.max(rows[:, 1])) <= C02_TOL, "oracle-check gap above 1e-9")
        rx = model["receivers"][0]
        unit = {"kind": "grounded", "V_in": 1.0, "convention": "rms"}
        net = acnet.build_channel_netlist(config.receiver, GroundedTx(1.0, "rms"), BodyModel(c_b=100e-12))
        idx = sample(len(xs))
        volts = ref.mna_voltages(net, xs[idx])
        plus, minus = net.output_probe
        close(volts[plus] - volts[minus], ref.load_voltage(rx, unit, None, xs[idx]), C02_TOL, "reference gap")
    elif command == "compare-topologies":
        check_topologies(model, rows)
    elif command == "fit":
        truth = op["truth"]
        for j, key in enumerate(truth):
            close(rows[0, j], truth[key], FIT_TOL, f"fitted {key}")
    elif command == "optimize-load":
        rx, src, body = model["receivers"][0], model["source"], model["body"]
        loads = grid(dict(model["sweep"], points=20001))
        p = ref.power(dict(rx, R_L=loads), src, body, sweep_frequency(model))
        k = int(np.argmax(p))
        close(rows[0, 0], loads[k], 2e-3, "optimal load vs dense grid")
        close(rows[0, 1], p[k], 1e-5, "optimal power vs dense grid")
    elif command == "optimize-inductor":
        rx, f = model["receivers"][0], model["sweep"]["frequency"]
        close(rows[0, 0], 1.0 / ((ref.TWO_PI * f) ** 2 * (rx["C_ret"] + rx["C_GB"])), 1e-12, "inductance")
        close(rows[0, 1], f, 1e-9, "achieved resonance")
    elif command == "safety":
        src, body, f = model["source"], model["body"], model["sweep"]["frequency"]
        current = ref.contact_current(src, body, f)
        close(rows[0, 1], current, CLOSED_TOL, "contact current")
        close(rows[0, 2], op["limit"], 1e-12, "limit")
        close(rows[0, 3], op["limit"] / current, 1e-9, "margin")
        expect(rows[0, 4] == 1.0, "safety verdict")
    elif command == "max-safe-vin":
        src, body, f = model["source"], model["body"], model["sweep"]["frequency"]
        close(ref.contact_current(dict(src, V_in=rows[0, 0]), body, f), op["limit"], 1e-9, "current at v_max")
    elif command == "multi":
        src, body = model["source"], model["body"]
        expect(rows.shape[0] == len(model["receivers"]), "one row per receiver")
        for i, rx in enumerate(model["receivers"]):
            f0 = ref.resonance(rx)
            close(rows[i, 1], f0, 1e-12, "receiver resonance")
            close(rows[i, 2], abs(ref.load_voltage(rx, src, body, f0)), CLOSED_TOL, "receiver |v_o|")
            close(rows[i, 3], ref.power(rx, src, body, f0), CLOSED_TOL, "receiver power")
    else:
        raise CheckError(f"no check for {command}")


def check_topologies(model, rows):
    rx, src, body = model["receivers"][0], model["source"], model["body"]
    xs = grid(model["sweep"])
    expect(np.array_equal(rows[:, 0], xs), "compare-topologies grid")
    f0 = ref.resonance(rx)
    m2w = np.abs(ref.transfer(rx, xs))
    w2w = m2w * src["C_ret_tx"] / (body["C_B"] + src["C_ret_tx"])
    bandpass = 1.0 / np.sqrt(1.0 + src["Q"] ** 2 * (xs / f0 - f0 / xs) ** 2)
    c_ret = 1000.0 * rx["C_GB"] if rx["C_GB"] > 0.0 else rx["C_ret"]
    m2m_rx = dict(rx, C_ret=c_ret, L=1.0 / ((ref.TWO_PI * f0) ** 2 * (c_ret + rx["C_GB"])))
    m2m = np.abs(ref.transfer(m2m_rx, xs))
    expected = 20.0 * np.log10(np.stack([m2m, m2w, w2w, w2w * src["Q"] * bandpass], axis=1))
    err = float(np.max(np.abs(rows[:, 1:] - expected)))
    expect(err <= 1e-9, f"topology gains off by {err:.3e} dB")


def check_gap(op, model, config, xs, gaps):
    rx, src, body = model["receivers"][0], model["source"], model["body"]
    expect(gaps.shape == xs.shape, "one gap per frequency")
    if op["netlist_kind"] == 0:
        expect(float(np.max(np.abs(gaps))) <= C02_TOL, "closed form vs MNA power gap above 1e-9")
    idx = sample(len(xs))
    net = acnet.build_channel_netlist(config.receiver, config.source, config.body)
    volts = ref.mna_voltages(net, xs[idx])
    plus, minus = net.output_probe
    p_mna = np.abs(volts[plus] - volts[minus]) ** 2 / rx["R_L"]
    expected = ref.power(rx, src, body, xs[idx]) / p_mna - 1.0
    err = float(np.max(np.abs(gaps[idx] - expected) / np.maximum(1.0, np.abs(expected))))
    expect(err <= MNA_TOL, f"approximation gap off by {err:.3e}")


def check_joint(model, config, records):
    src, body = model["source"], model["body"]
    net, probes = acnet.build_multi_receiver_netlist(config.receivers, config.source, config.body)
    expect(len(records) == len(model["receivers"]), "one record per receiver")
    for rec, rx, (out, fg) in zip(records, model["receivers"], probes):
        f0 = ref.resonance(rx)
        close(rec.frequency, f0, 1e-12, "joint frequency")
        close(rec.independent.p_out_rms, ref.power(rx, src, body, f0), CLOSED_TOL, "independent power")
        volts = ref.mna_voltages(net, [rec.frequency])
        close(rec.joint_power_rms, np.abs(volts[out][0] - volts[fg][0]) ** 2 / rx["R_L"], MNA_TOL, "joint power")


def check_safety_mna(op, model, config, f, report):
    net = acnet.build_channel_netlist(config.receiver, config.source, config.body)
    v_body = ref.mna_voltages(net, [f])["body"][0]
    current = abs(v_body * ref.TWO_PI * f * model["body"]["C_B"])
    close(report.contact_current_rms, current, MNA_TOL, "MNA contact current")
    if op["netlist_kind"] == 0:
        close(report.contact_current_rms, ref.contact_current(model["source"], model["body"], f), C02_TOL,
              "closed form vs MNA contact current")
    close(report.margin, report.limit / report.contact_current_rms, 1e-12, "margin")
    expect(report.passed == (report.contact_current_rms <= report.limit), "verdict")


def check_peak(model, out):
    (f_peak, p_peak), q = out
    rx, src, body = model["receivers"][0], model["source"], model["body"]
    f0 = ref.resonance(rx)
    close(f_peak, f0, 1e-6, "peak frequency")
    close(p_peak, ref.power(rx, src, body, f0), 1e-8, "peak power")
    q_exact = ref.TWO_PI * f0 * rx["L"] / (rx["R_L"] + rx["r_s"])
    expect(not q.lower_bound, "Q reported as a lower bound")
    close(q.q, q_exact, Q_TOL, "Q")


def check_max_power(op, model, f, result):
    rx, src, body = model["receivers"][0], model["source"], model["body"]
    loads = np.geomspace(*op["bounds"], 20001)
    model_rx = dict(rx, R_L=loads)
    feasible = np.abs(ref.load_voltage(model_rx, src, body, f)) / loads <= op["i_limit"]
    p = np.where(feasible, ref.power(model_rx, src, body, f), -1.0)
    k = int(np.argmax(p))
    close(result.argmax, loads[k], 3e-3, "current-limited optimum vs dense grid")
    close(result.objective_at_argmax, p[k], 3e-3, "current-limited power vs dense grid")


def check_sensitivity(op, model, result):
    rx, src, body = model["receivers"][0], model["source"], model["body"]
    key = {"c_ret": "C_ret", "c_gb": "C_GB", "l": "L", "r_l": "R_L", "r_s": "r_s"}[op["param"]]
    x0 = rx[key]
    if op["target"] == "power":
        # Five-point central difference: truncation O(h^4) stays far below
        # the tolerance even on the sharpest resonances drawn.
        h = 1e-5 * x0

        def p(v):
            return ref.power(dict(rx, **{key: v}), src, body, op["f"])

        slope = (p(x0 - 2 * h) - 8 * p(x0 - h) + 8 * p(x0 + h) - p(x0 + 2 * h)) / (12.0 * h)
        err = abs(result.value - slope) / (abs(slope) + p(x0) / x0)
        expect(err <= 1e-5, f"power sensitivity off by {err:.3e}")
        return
    expect(result.analytic is not None, "analytic derivative missing")
    scale = abs(result.analytic) + (ref.resonance(rx) if op["target"] == "f0" else 1.0) / x0
    err = abs(result.value - result.analytic) / scale
    expect(err <= 1e-6, f"{op['target']} sensitivity off by {err:.3e}")


def run_pass(deck, verified, lat, errors, tracer=None):
    """One pass over the deck; returns (attempted, failed, rows)."""
    attempted = failed = rows = 0
    for i, (call, check) in enumerate(deck.ops):
        op = deck.spec["ops"][i]
        attempted += 1
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            lat.append(time.perf_counter() - t0)
            failed += 1
            errors.append(f"op {i} ({op['kind']} {op.get('command', '')}) raised {exc!r}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        lat.append(time.perf_counter() - t0)
        rows += op["rows"]
        fp = fingerprint(out)
        if verified.get(i) == fp:
            continue
        try:
            check(out)
            verified[i] = fp
        except Exception as exc:  # a check that cannot run counts as failed
            failed += 1
            errors.append(f"op {i} ({op['kind']} {op.get('command', '')}) {exc}")
    return attempted, failed, rows


def measure(deck, seconds, min_ops):
    verified, lat, errors = {}, [], []
    attempted = failed = rows = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        a, f, r = run_pass(deck, verified, lat, errors)
        attempted, failed, rows = attempted + a, failed + f, rows + r
        if not more(start, time.perf_counter() - t0, seconds, attempted, min_ops):
            break
    return {"lat": lat, "deck_ops": len(deck.ops), "rows": rows, "attempted": attempted, "failed": failed,
            "errors": errors[:5],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def trace(deck, seconds, tracer, setup):
    """Pairs of an untraced and a traced pass over the same deck.  Each
    traced pass is reported together with the traced set-up spans."""
    verified, errors = {}, []
    plain_s, traced_s, snaps = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat = []
        a, f, _ = run_pass(deck, verified, lat, errors)
        plain_s.append(sum(lat))
        tracer.install()
        lat = []
        try:
            a2, f2, _ = run_pass(deck, verified, lat, errors, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(sum(lat))
        snaps.append(tracer.snapshot())
        attempted, failed = attempted + a + a2, failed + f + f2
        if not more(start, time.perf_counter() - t0, seconds, attempted // 2):
            break
    repeatable = all(counts(s) == counts(snaps[0]) for s in snaps[1:])
    if not repeatable:
        errors.append("traced passes over the same deck gave different call counts")
    return {"snapshots": [merge([setup, snap]) for snap in snaps], "plain_s": plain_s,
            "traced_s": traced_s, "attempted": attempted, "failed": failed + (not repeatable),
            "errors": errors[:5]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--deck", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int, default=1, help="measure: ops to run at least")
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            deck = Deck(args.deck)
        finally:
            tracer.active = False
            tracer.uninstall()
        setup = tracer.snapshot()
    else:
        deck = Deck(args.deck)
    print("READY", flush=True)
    if args.mode == "measure":
        result = measure(deck, args.seconds, args.min_ops)
    elif args.mode == "trace":
        result = trace(deck, args.seconds, tracer, setup)
    else:
        return 0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
