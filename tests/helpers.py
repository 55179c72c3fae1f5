"""Shared draw helpers and paths for the test suite."""

import importlib
import inspect
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from bodychannel.channel import BodyModel, GroundedTx, ReceiverParams, ResonantWearableTx, WearableTx
from bodychannel.cli import COMMANDS

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def public_functions(short: str) -> list:
    """Functions defined in ``bodychannel.<short>`` whose names do not start
    with an underscore: the rule perfbench/tracer.py wraps by."""
    module = importlib.import_module(f"bodychannel.{short}")
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    ]


def shipped_cli_runs(out):
    """The argv of every command on every shipped scenario, plain and with
    ``--oracle``, ``--joint`` and ``--points 7``, each writing its CSV to
    ``out``: 13 commands x 8 scenarios x 4 variants = 416 runs."""
    return [
        [command, "--config", str(scenario), "--out", str(out), *variant]
        for scenario in sorted(SCENARIO_DIR.glob("*.scn"))
        for command in COMMANDS
        for variant in ([], ["--oracle"], ["--joint"], ["--points", "7"])
    ]


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def log_uniform_floats(lo, hi):
    """Hypothesis strategy: floats spread evenly in log between lo and hi."""
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def draw_source(draw):
    """A 5 Vpp source of each of the three kinds, drawn in a composite strategy."""
    kind = draw(st.sampled_from(("grounded", "wearable", "resonant-wearable")))
    if kind == "grounded":
        return GroundedTx(5.0, "pp")
    c_ret_tx = draw(log_uniform_floats(0.5e-12, 5e-12))
    if kind == "wearable":
        return WearableTx(5.0, "pp", c_ret_tx=c_ret_tx)
    return ResonantWearableTx(5.0, "pp", c_ret_tx=c_ret_tx, q=10.0)


def random_receiver(rng, lossless=False, with_c_l=True, with_c_gb=True, parasitic_c_l=False):
    """Receiver draw spanning the plausible wearable/portable ranges.

    ``parasitic_c_l`` keeps the load shunt well below the return-path budget
    so the secondary L-C_L mode stays far above the resonance of interest
    (needed by peak-location properties; value identities hold regardless).
    """
    c_ret = log_uniform(rng, 0.2e-12, 5e-12)
    c_gb = float(rng.uniform(0.1e-12, 10e-12)) if with_c_gb else 0.0
    if not with_c_l:
        c_l = 0.0
    elif parasitic_c_l:
        c_l = float(rng.uniform(0.0, (c_ret + c_gb) / 10.0))
    else:
        c_l = float(rng.uniform(0.0, 5e-12))
    return ReceiverParams(
        c_ret=c_ret,
        c_gb=c_gb,
        l=log_uniform(rng, 0.05e-3, 10e-3),
        r_l=log_uniform(rng, 100.0, 10e3),
        c_l=c_l,
        r_s=0.0 if lossless else float(rng.uniform(0.0, 2e3)),
    )


def random_body(rng):
    return BodyModel(c_b=log_uniform(rng, 50e-12, 300e-12), r_b=0.0)


def unit_source():
    return GroundedTx(v_in=1.0, convention="rms")


def random_frequency(rng, lo=1.5e5, hi=8e6):
    return log_uniform(rng, lo, hi)


def admittance(element, f):
    """Textbook admittance 1/R, j*w*C or 1/(j*w*L) of a passive netlist element at ``f`` Hz."""
    jw = 2j * math.pi * f
    return {"R": 1.0 / element.value, "C": jw * element.value, "L": 1.0 / (jw * element.value)}[element.kind.value]


def mp_transfer(w, c_ret, c_gb, l, r_l, c_l, r_s):
    """Textbook transfer function H = V_o / V_B at angular frequency ``w``:
    Z_L = R_L || C_L and H = Z_L / ((r_s + j*w*L + Z_L) * (1 + C_GB/C_ret)
    + 1/(j*w*C_ret)), in the precision of its (mpmath) arguments."""
    z_load = r_l / (1 + 1j * w * c_l * r_l)
    return z_load / ((r_s + 1j * w * l + z_load) * (1 + c_gb / c_ret) + 1 / (1j * w * c_ret))
