"""Reference physics used to generate inputs and to check outputs.

Written from the published formulas, not from the package's code paths:
the closed form of the channel (transfer function, body potential, power)
and a plain dense MNA solve built from a netlist's public ``elements``.
Receivers, sources and bodies are dicts keyed by scenario-file names
(``C_ret``, ``C_GB``, ``L``, ``R_L``, ``C_L``, ``r_s``; ``kind``, ``V_in``,
``convention``, ``R_S``, ``C_ret_tx``, ``Q``; ``C_B``, ``R_B``).  Values may
be numpy arrays, which broadcast against the frequency argument.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi
RMS = {"pp": 1.0 / (2.0 * math.sqrt(2.0)), "amplitude": 1.0 / math.sqrt(2.0), "rms": 1.0}


def resonance(rx):
    """f0 = 1 / (2*pi*sqrt(L * (C_ret + C_GB)))."""
    return 1.0 / (TWO_PI * np.sqrt(rx["L"] * (rx["C_ret"] + rx["C_GB"])))


def body_potential(src, body):
    """Rms body potential of the closed form (source and tissue drops ignored)."""
    vin = src["V_in"] * RMS[src["convention"]]
    if src["kind"] == "grounded":
        return vin
    if src["kind"] == "wearable":
        return vin * src["C_ret_tx"] / (body["C_B"] + src["C_ret_tx"])
    return vin * src["Q"] * src["C_ret_tx"] / body["C_B"]


def transfer(rx, f):
    """H = Z_load / ((Z_s + Z_load) * (1 + C_GB/C_ret) + 1/(j*w*C_ret))."""
    w = TWO_PI * np.asarray(f, dtype=float)
    z_load = rx["R_L"] / (1.0 + 1j * w * rx["C_L"] * rx["R_L"])
    z_s = rx["r_s"] + 1j * w * rx["L"]
    return z_load / ((z_s + z_load) * (1.0 + rx["C_GB"] / rx["C_ret"]) + 1.0 / (1j * w * rx["C_ret"]))


def load_voltage(rx, src, body, f):
    """Closed-form rms load voltage V_o = V_B * H(f)."""
    return body_potential(src, body) * transfer(rx, f)


def power(rx, src, body, f):
    """Closed-form rms load power |V_o|^2 / R_L."""
    return np.abs(load_voltage(rx, src, body, f)) ** 2 / rx["R_L"]


def contact_current(src, body, f):
    """Closed-form body return current 2*pi*f*C_B*V_B."""
    return TWO_PI * f * body["C_B"] * body_potential(src, body)


def mna_voltages(netlist, freqs):
    """Node voltages of ``netlist`` at each frequency by one dense solve per
    frequency, stamped from ``netlist.elements`` (node 0 is earth).

    Returns ``{node: complex array over freqs}``.
    """
    w = TWO_PI * np.atleast_1d(np.asarray(freqs, dtype=float))
    nodes = [n for n in netlist.nodes if n != 0]
    index = {n: i for i, n in enumerate(nodes)}
    sources = [e for e in netlist.elements if e.kind.value == "V"]
    size = len(nodes) + len(sources)
    a = np.zeros((len(w), size, size), dtype=complex)
    b = np.zeros((len(w), size), dtype=complex)
    for e in netlist.elements:
        ia, ib = index.get(e.node_a), index.get(e.node_b)
        if e.kind.value == "V":
            row = len(nodes) + sources.index(e)
            for i, sign in ((ia, 1.0), (ib, -1.0)):
                if i is not None:
                    a[:, i, row] += sign
                    a[:, row, i] += sign
            b[:, row] = e.value * np.exp(1j * e.phase)
            continue
        y = {
            "R": np.full(len(w), 1.0 / e.value, dtype=complex),
            "C": 1j * w * e.value,
            "L": 1.0 / (1j * w * e.value),
        }[e.kind.value]
        for i in (ia, ib):
            if i is not None:
                a[:, i, i] += y
        if ia is not None and ib is not None:
            a[:, ia, ib] -= y
            a[:, ib, ia] -= y
    x = np.linalg.solve(a, b[..., None])[..., 0]
    out = {n: x[:, i] for n, i in index.items()}
    out[0] = np.zeros(len(w), dtype=complex)
    return out


def rel_err(actual, expected):
    """Largest elementwise |actual - expected| / |expected|."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return float(np.max(np.abs(actual - expected) / np.abs(expected)))
