#!/usr/bin/env python3
"""Calibrating receiver parasitics from measurements: the capacitance
ratio from a single resonant power reading, and a least-squares fit of
C_ret and C_GB from a full sweep."""

from dataclasses import replace

import numpy as np

from bodychannel.analysis import (
    capacitance_ratio_from_power,
    fit_params,
    simulate_frequency_sweep,
)
from bodychannel.channel import (
    BodyModel,
    GroundedTx,
    ReceiverParams,
    resonant_frequency,
    to_rms,
)

src = GroundedTx(v_in=12.0, convention="pp")
body = BodyModel(c_b=150e-12)
v_b = to_rms(src.v_in, src.convention)

print("ground-coupling ratio from single resonant power readings")
print("-" * 60)
print(f"(12 Vpp drive -> body potential {v_b:.3f} V rms, 1 kOhm load)")
for label, p_rms in (("portable", 2.10e-3), ("custom wearable", 531e-6), ("pocket wearable", 135e-6)):
    rho = capacitance_ratio_from_power(p_rms, 1000.0, v_b)
    print(f"  {label:16s} {p_rms * 1e6:8.1f} uW -> C_GB/C_ret = {rho:5.2f} "
          f"(resonant gain {1 / (1 + rho):.3f})")

print("\nfull-sweep fit: recover C_ret and C_GB from noisy powers")
print("-" * 60)
truth = ReceiverParams(c_ret=1.2e-12, c_gb=4.0e-12, l=3.3e-3, r_l=1000.0, r_s=250.0)
f0 = resonant_frequency(truth)
grid = np.geomspace(f0 / 3, f0 * 3, 41)
clean = simulate_frequency_sweep(truth, src, body, grid)

rng = np.random.default_rng(7)
noisy = clean.p_out_rms * np.abs(rng.normal(1.0, 0.01, size=len(grid)))
observed = replace(clean, p_out_rms=noisy, v_o=None, circuit=None)

start = replace(truth, c_ret=2.0e-12, c_gb=2.0e-12)  # deliberately wrong guess
report = fit_params(observed, ["c_ret", "c_gb"], start, src, body)

print(f"truth:  C_ret = {truth.c_ret * 1e12:.3f} pF, C_GB = {truth.c_gb * 1e12:.3f} pF")
print(f"start:  C_ret = {start.c_ret * 1e12:.3f} pF, C_GB = {start.c_gb * 1e12:.3f} pF")
fitted = report.fitted_params
print(f"fitted: C_ret = {fitted['c_ret'] * 1e12:.3f} pF, "
      f"C_GB = {fitted['c_gb'] * 1e12:.3f} pF")
for name in ("c_ret", "c_gb"):
    err = abs(fitted[name] - getattr(truth, name)) / getattr(truth, name)
    print(f"  {name}: {err:.2%} off truth")
print(f"converged after {report.iterations} accepted steps "
      f"(residual rms {report.residual_rms * 1e6:.3f} uW)")
