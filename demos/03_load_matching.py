#!/usr/bin/env python3
"""Load selection: with series loss the power curve has an interior
optimum at R_L = r_s, and a current cap pushes the optimum to larger
loads."""

import math

import numpy as np

from bodychannel.analysis import simulate
from bodychannel.channel import BodyModel, GroundedTx, ReceiverParams, resonant_frequency
from bodychannel.optimize import max_power_under_current_limit, optimal_load

src = GroundedTx(v_in=5.0, convention="pp")
body = BodyModel(c_b=15e-12)
rx = ReceiverParams(c_ret=30e-12, r_l=1000.0, l=0.33e-3, r_s=1000.0)
f0 = resonant_frequency(rx)

print(f"lossy resonant receiver (r_s = {rx.r_s:.0f} ohm) at f0 = {f0 / 1e6:.3f} MHz")
print("-" * 60)

sweep = simulate("load", rx, src, body, np.geomspace(100, 10e3, 13), f=f0)
p_max = sweep.p_out_rms.max()
for r, p in zip(sweep.values, sweep.p_out_rms):
    bar = "#" * int(50 * p / p_max)
    print(f"  R_L = {r:8.1f} ohm  {p * 1e6:8.2f} uW  {bar}")

result = optimal_load(rx, src, body, f0, (100.0, 10e3))
print(f"\nclosed-form optimum: R_L = {result.argmax:.1f} ohm "
      f"({result.objective_at_argmax * 1e6:.2f} uW)")
print("matched load equals the series loss, as the derivative of "
      "R/(R+r_s)^2 predicts")

print("\nnow cap the rms load current:")
for i_limit in (5e-3, 1e-3, 0.5e-3):
    capped = max_power_under_current_limit(rx, src, body, f0, i_limit, bounds=(100.0, 100e3))
    draw = math.sqrt(capped.objective_at_argmax / capped.argmax)
    label = capped.constraint_name or "none"
    print(f"  I <= {i_limit * 1e3:4.1f} mA: R_L = {capped.argmax:9.1f} ohm, "
          f"P = {capped.objective_at_argmax * 1e6:7.2f} uW, draw {draw * 1e3:5.2f} mA, "
          f"binding: {label}")
