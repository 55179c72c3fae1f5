#!/usr/bin/env python3
"""Choosing the series inductor: the resonant frequency follows
1/sqrt(L * C_total), so the parasitic budget fixes L for a target band."""

import numpy as np

from bodychannel.analysis import fit_total_capacitance, simulate
from bodychannel.channel import BodyModel, GroundedTx, ReceiverParams, resonant_frequency
from bodychannel.optimize import optimal_inductor

body = BodyModel(c_b=150e-12)
src = GroundedTx(v_in=5.0, convention="pp")
rx = ReceiverParams(c_ret=30e-12, r_l=1000.0)

print("inductor selection for a 30 pF parasitic budget")
print("-" * 56)
for target in (0.5e6, 1.0e6, 1.6e6, 3.0e6, 6.0e6):
    l_opt = optimal_inductor(rx, target)
    achieved = resonant_frequency(ReceiverParams(c_ret=rx.c_ret, r_l=rx.r_l, l=l_opt))
    print(f"  target {target / 1e6:5.2f} MHz -> L = {l_opt * 1e3:8.4f} mH "
          f"(check: f0 = {achieved / 1e6:.4f} MHz)")

print("\nresonant frequency as the inductance is swept:")
inductances = np.geomspace(0.05e-3, 5e-3, 9)
sweep = simulate("inductance", rx, src, body, inductances)
for l_val in inductances:
    rx_l = ReceiverParams(c_ret=rx.c_ret, r_l=rx.r_l, l=float(l_val))
    print(f"  L = {l_val * 1e3:7.3f} mH -> f0 = {resonant_frequency(rx_l) / 1e6:6.3f} MHz")
print("(power at each point is evaluated at that inductor's own resonance;")
print(f" it stays flat at {sweep.p_out_rms[0] * 1e3:.3f} mW because the gain "
      "depends only on the capacitance ratio)")

print("\ninverting the relation: a measured peak pins down C_total")
for l_val, f_peak in ((0.33e-3, 1.6e6), (4.222e-3, 1.0e6)):
    c_tot = fit_total_capacitance(l_val, f_peak)
    print(f"  L = {l_val * 1e3:6.3f} mH, peak {f_peak / 1e6:.2f} MHz "
          f"-> C_ret + C_GB = {c_tot * 1e12:.2f} pF")
