"""Seeded input generator: scenario files, limit tables, measured CSVs and
the op list ("deck") of one workload.

Every value is drawn from the fixed ranges in ``RANGES``, which cover the
shipped scenarios.  A deck's shape (op types, grid sizes, netlist kinds)
is fixed per workload so that the cost mix does not change with the seed;
the seed draws the component values.  An input is never redrawn after a
failure: a failing op counts against the run.
"""

import json
import math
import random
from pathlib import Path

import numpy as np

import reference as ref

#: Draw ranges; ``C_GB``, ``r_s``, ``R_S`` and ``R_B`` are also drawn as 0
#: where a netlist kind asks for it.  Log-uniform unless marked otherwise.
RANGES = {
    "C_ret": (0.5e-12, 50e-12),
    "C_GB": (0.0, 20e-12),  # uniform
    "L": (0.1e-3, 5e-3),
    "R_L": (100.0, 10e3),
    "r_s": (10.0, 2e3),
    "V_in": (1.0, 12.0),  # uniform
    "C_B": (50e-12, 300e-12),
    "R_S": (10.0, 1e3),
    "R_B": (10.0, 1e3),
    "C_ret_tx": (0.5e-12, 5e-12),
    "Q": (2.0, 20.0),  # uniform
}
RX_KEYS = ("C_ret", "C_GB", "L", "R_L", "C_L", "r_s")
CONVENTIONS = ("pp", "amplitude", "rms")
FIT_NOISE = 1e-3  # relative sigma of the multiplicative noise on fit data

#: Netlist kinds for MNA ops: (source kind, resistive R_S/R_B, r_s > 0).
#: Kind 0 is the only one where closed form and MNA model the same circuit.
NETLIST_KINDS = (
    ("grounded", False, True),
    ("grounded", True, False),
    ("wearable", False, False),
    ("wearable", True, True),
    ("resonant-wearable", False, True),
    ("resonant-wearable", True, False),
)
ORACLE_SIZES = (1000, 2000, 10000)
CLOSED_SIZES = (2000, 5000, 10000, 20000)
PEAK_SIZES = (401, 1001, 2001)
FIT_ROWS = (41, 101, 201)
#: Free-parameter sets the measured sweep can identify (c_gb, r_s and l
#: together are not: only (R_L + r_s)*a and L*a are observable with a fixed).
FIT_FREE = {
    1: (("C_ret",), ("C_GB",), ("L",), ("r_s",)),
    2: (("C_ret", "C_GB"), ("C_ret", "L"), ("C_GB", "L"), ("C_ret", "r_s"), ("C_GB", "r_s"), ("r_s", "L")),
    3: (("C_ret", "C_GB", "L"), ("C_ret", "C_GB", "r_s"), ("C_ret", "r_s", "L")),
}


class Gen:
    def __init__(self, workload: str, seed: int, out: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.out = out
        self.count = 0

    def logu(self, lo, hi):
        return math.exp(self.rng.uniform(math.log(lo), math.log(hi)))

    def lu(self, key):
        return self.logu(*RANGES[key])

    def uniform(self, key):
        return self.rng.uniform(*RANGES[key])

    def receiver(self, r_s=True, c_gb=True):
        return {
            "C_ret": self.lu("C_ret"),
            "C_GB": self.rng.uniform(0.1e-12, RANGES["C_GB"][1]) if c_gb else 0.0,
            "L": self.lu("L"),
            "R_L": self.lu("R_L"),
            "C_L": 0.0,
            "r_s": self.lu("r_s") if r_s else 0.0,
        }

    def source(self, kind="grounded", resistive=False):
        src = {"kind": kind, "V_in": self.uniform("V_in"), "convention": self.rng.choice(CONVENTIONS)}
        if kind == "grounded":
            src["R_S"] = self.lu("R_S") if resistive else 0.0
        else:
            src["C_ret_tx"] = self.lu("C_ret_tx")
            if kind == "resonant-wearable":
                src["Q"] = self.uniform("Q")
        return src

    def body(self, resistive=False, c_b=None):
        return {"C_B": self.lu("C_B") if c_b is None else c_b, "R_B": self.lu("R_B") if resistive else 0.0}

    def netlist_model(self, kind_index):
        kind, resistive, lossy = NETLIST_KINDS[kind_index]
        return self.receiver(r_s=lossy), self.source(kind, resistive), self.body(resistive)

    def limits(self, current_a):
        """Limit table whose one band sits 1.5-5x above ``current_a``."""
        name = f"lim{self.count}.lmt"
        self.count += 1
        limit_ma = current_a * 1e3 * self.rng.uniform(1.5, 5.0)
        (self.out / name).write_text(
            f"source_label generated-limits\nband 1e4 1e9 {limit_ma!r}\n", encoding="utf-8"
        )
        return name, limit_ma * 1e-3

    def scenario(self, receivers, src, body, sweep=None, safety=None, fit=None):
        """Write a scenario file; returns its name and the model dict."""
        lines = []
        for i, rx in enumerate(receivers):
            lines.append("[receiver]" if i == 0 else f"[receiver{i + 1}]")
            lines += [f"{k} = {rx[k]!r}" for k in RX_KEYS]
        lines.append("[source]")
        lines += [f"{k} = {v if isinstance(v, str) else repr(v)}" for k, v in src.items()]
        lines += ["[body]", f"C_B = {body['C_B']!r}", f"R_B = {body['R_B']!r}"]
        if sweep is not None:
            lines.append("[sweep]")
            lines += [f"{k} = {v if isinstance(v, str) else repr(v)}" for k, v in sweep.items()]
        if safety is not None:
            lines += ["[safety]", f"limit_table = {safety}"]
        if fit is not None:
            lines += ["[fit]", f"data = {fit[0]}", f"free = {','.join(fit[1])}"]
        name = f"s{self.count}.scn"
        self.count += 1
        (self.out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = {"receivers": receivers, "source": src, "body": body, "sweep": sweep}
        return name, model

    def op(self, kind, receivers, src, body, rows, sweep=None, safety=None, fit=None, **extra):
        name, model = self.scenario(receivers, src, body, sweep, safety, fit)
        return {"kind": kind, "scn": name, "rows": rows, "model": model, **extra}

    def freq_sweep(self, rx, points, span=10.0):
        f0 = float(ref.resonance(rx))
        return {"axis": "frequency", "lo": f0 / span, "hi": f0 * span, "points": points, "spacing": "log"}

    def fixed_sweep(self, rx, axis, points):
        lo, hi, spacing = {
            "load": (100.0, 10e3, "log"),
            "inductance": (RANGES["L"][0], RANGES["L"][1], "log"),
            "input_voltage": (1.0, 12.0, "lin"),
        }[axis]
        sweep = {"axis": axis, "lo": lo, "hi": hi, "points": points, "spacing": spacing}
        if axis != "inductance" and self.rng.random() < 0.5:
            sweep["frequency"] = float(ref.resonance(rx)) * self.rng.uniform(0.8, 1.25)
        return sweep


SWEEP_AXIS = {
    "sweep-freq": "frequency",
    "sweep-load": "load",
    "sweep-inductance": "inductance",
    "sweep-vin": "input_voltage",
}


def oracle_mna(g: Gen):
    """Every MNA op type at 1k and 2k points, the frequency-axis types also
    at 10k, on a fixed schedule of netlist kinds; plus joint and safety ops.
    The MNA half of ``sweeps``."""
    ops = []
    types = ("sweep-freq", "sweep-load", "sweep-inductance", "sweep-vin", "oracle-check", "approximation_gap")
    for t, kind in enumerate(types):
        axis = SWEEP_AXIS.get(kind, "frequency")
        for s, points in enumerate(ORACLE_SIZES):
            if points == ORACLE_SIZES[-1] and axis != "frequency":
                continue
            k = (t + 3 * s) % len(NETLIST_KINDS)
            rx, src, body = g.netlist_model(k)
            sweep = g.freq_sweep(rx, points) if axis == "frequency" else g.fixed_sweep(rx, axis, points)
            op_kind = "approximation_gap" if kind == "approximation_gap" else "run"
            ops.append(g.op(op_kind, [rx], src, body, points, sweep, command=kind, oracle=True,
                            csv=False, netlist_kind=k))
    for n_rx, k in zip((2, 3, 4), (0, 1, 4)):
        rx, src, body = g.netlist_model(k)
        receivers = [rx] + [g.netlist_model(k)[0] for _ in range(n_rx - 1)]
        ops.append(g.op("joint", receivers, src, body, n_rx, netlist_kind=k))
    for k in (0, 1, 3):
        rx, src, body = g.netlist_model(k)
        f = float(ref.resonance(rx)) * g.rng.uniform(0.5, 2.0)
        lim, _ = g.limits(float(ref.contact_current(src, body, f)))
        sweep = {"axis": "frequency", "lo": f / 2, "hi": f * 2, "points": 11, "spacing": "log", "frequency": f}
        ops.append(g.op("safety_mna", [rx], src, body, 1, sweep, safety=lim, netlist_kind=k))
    return ops


def closed_sweeps(g: Gen):
    """Closed-form sweeps on all four axes plus compare-topologies, 2k-20k
    points.  The closed-form half of ``sweeps``."""
    ops = []
    kinds = ("grounded", "wearable", "resonant-wearable")
    for t, command in enumerate(("sweep-freq", "sweep-load", "sweep-inductance", "sweep-vin", "compare-topologies")):
        for s, points in enumerate(CLOSED_SIZES):
            rx = g.receiver(r_s=(t + s) % 2 == 0)
            kind = "resonant-wearable" if command == "compare-topologies" else kinds[(t + s) % 3]
            src, body = g.source(kind), g.body()
            axis = SWEEP_AXIS.get(command, "frequency")
            sweep = g.freq_sweep(rx, points) if axis == "frequency" else g.fixed_sweep(rx, axis, points)
            ops.append(g.op("run", [rx], src, body, points, sweep, command=command, oracle=False, csv=True))
    return ops


def _resonant_receiver(g: Gen, q_lo=3.0, q_hi=30.0, loss_share=(0.2, 0.6)):
    """Receiver whose resonance has quality Q = w0*L/(R_L + r_s) in [q_lo, q_hi]."""
    c_ret = g.logu(RANGES["C_ret"][0], 10e-12)
    rx = {"C_ret": c_ret, "C_GB": c_ret * g.rng.uniform(0.05, 2.0), "L": g.lu("L"), "C_L": 0.0}
    r_total = ref.TWO_PI * float(ref.resonance(rx)) * rx["L"] / g.rng.uniform(q_lo, q_hi)
    rx["r_s"] = r_total * g.rng.uniform(*loss_share)
    rx["R_L"] = r_total - rx["r_s"]
    return rx


def _fit_op(g: Gen, rows: int, n_free: int):
    truth = _resonant_receiver(g)
    src, body = g.source(), g.body()
    free = g.rng.choice(FIT_FREE[n_free])
    f0 = float(ref.resonance(truth))
    freqs = np.geomspace(f0 / 3.0, f0 * 3.0, rows)
    p = ref.power(truth, src, body, freqs)
    noisy = [float(v) * (1.0 + FIT_NOISE * g.rng.gauss(0.0, 1.0)) for v in p]
    data = f"fit{g.count}.csv"
    g.count += 1
    lines = ["frequency[Hz],p_out_rms[W]"] + [f"{x!r},{y!r}" for x, y in zip(freqs.tolist(), noisy)]
    (g.out / data).write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = dict(truth)
    for key in free:
        start[key] = truth[key] * g.rng.choice((0.8, 1.25))
    return g.op("run", [start], src, body, 1, fit=(data, free), command="fit", csv=True,
                truth={k: truth[k] for k in free})


def _max_power_op(g: Gen):
    """Lossy receiver on a small body, with a load-current limit that binds
    when the body current leaves room for one, else a vacuous one."""
    rx = g.receiver(r_s=True)
    src = g.source()
    body = g.body(c_b=g.logu(5e-12, 20e-12))
    f = float(ref.resonance(rx))
    loads = np.geomspace(10.0, 1e5, 4001)
    model = dict(rx, R_L=loads)
    i_load = np.abs(ref.load_voltage(model, src, body, f)) / loads
    i_opt = float(i_load[int(np.argmax(ref.power(model, src, body, f)))])
    i_floor = max(1.2 * float(ref.contact_current(src, body, f)), 1.5 * float(i_load[-1]))
    if i_floor < 0.8 * i_opt:
        i_limit = g.rng.uniform(i_floor, 0.8 * i_opt)
    else:
        i_limit = 2.0 * max(i_floor, i_opt)
    return g.op("max_power", [rx], src, body, 1, i_limit=i_limit, bounds=[10.0, 1e5])


def design_loop(g: Gen):
    """Many small scalar design ops, each a chain of tiny model evaluations.

    The mix puts the median inside the optimize-load group, whose cost is
    the most uniform (a fixed golden-section schedule): 45 cheap ops below
    it, 15 peak/Q ops just below, 60 fits and current-limited optima above.
    Five draws of every fit shape make the tail a quantile of many fits.
    """
    ops = [_fit_op(g, rows, n) for rows in FIT_ROWS for n in (1, 2, 3) for _ in range(5)]
    for i in range(15):
        # Q <= 12 keeps at least 12 grid steps inside the half-power span.
        rx = _resonant_receiver(g, q_hi=12.0, loss_share=(0.0, 0.5))
        ops.append(g.op("peak_q", [rx], g.source(("grounded", "wearable")[i % 2]), g.body(), 1,
                        g.freq_sweep(rx, PEAK_SIZES[i % 3], span=4.0)))
    for _ in range(45):
        rx = g.receiver(r_s=True)
        ops.append(g.op("run", [rx], g.source(), g.body(), 1, g.fixed_sweep(rx, "load", 201),
                        command="optimize-load", csv=True))
    ops += [_max_power_op(g) for _ in range(15)]
    for _ in range(9):
        rx = g.receiver()
        sweep = dict(g.freq_sweep(rx, 101), frequency=g.logu(200e3, 10e6))
        ops.append(g.op("run", [rx], g.source(), g.body(), 1, sweep, command="optimize-inductor", csv=True))
    for _ in range(3):
        for target, params in (("f0", ("l", "c_ret", "c_gb")), ("gain", ("c_ret", "c_gb")),
                               ("power", ("c_ret", "c_gb", "l", "r_l", "r_s"))):
            rx = g.receiver()
            f = float(ref.resonance(rx)) * g.rng.uniform(0.8, 1.25)
            ops.append(g.op("sensitivity", [rx], g.source(), g.body(), 1, target=target,
                            param=g.rng.choice(params), f=f))
    for command in ("safety", "max-safe-vin"):
        for _ in range(9):
            rx, src, body = g.receiver(), g.source(), g.body()
            f = g.logu(200e3, 10e6)
            lim, limit = g.limits(float(ref.contact_current(src, body, f)))
            sweep = {"axis": "frequency", "lo": 100e3, "hi": 10e6, "points": 101, "spacing": "log", "frequency": f}
            ops.append(g.op("run", [rx], src, body, 1, sweep, safety=lim, command=command, csv=True,
                            limit=limit))
    for i in range(9):
        n_rx = 2 + i % 3
        receivers = [g.receiver() for _ in range(n_rx)]
        ops.append(g.op("run", receivers, g.source(("grounded", "wearable")[i % 2]), g.body(), n_rx,
                        command="multi", csv=True))
    return ops


def sweeps(g: Gen):
    """The MNA oracle ops, then the closed-form sweeps, in one pass."""
    return oracle_mna(g) + closed_sweeps(g)


WORKLOADS = {
    "sweeps": sweeps,
    "design_loop": design_loop,
}


def generate(workload: str, seed: int, out: Path) -> Path:
    """Write the inputs of ``workload`` for ``seed`` under ``out``; returns
    the path of the deck file listing the ops in run order."""
    out.mkdir(parents=True, exist_ok=True)
    g = Gen(workload, seed, out)
    ops = WORKLOADS[workload](g)
    deck = out / "deck.json"
    deck.write_text(json.dumps({"workload": workload, "seed": seed, "ops": ops}), encoding="utf-8")
    return deck
