"""MNA solver: element impedances, canonical circuits, invariants, and the
channel netlist builders."""

import cmath
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodychannel import acnet, analysis
from bodychannel.acnet import (
    GROUND,
    Kind,
    Netlist,
    NetlistError,
    SingularNetworkError,
    build_channel_netlist,
    build_multi_receiver_netlist,
    capacitor,
    inductor,
    resistor,
    solve_many,
    vsource,
)
from bodychannel.channel import (
    TWO_PI,
    BodyModel,
    GroundedTx,
    ReceiverParams,
    ResonantWearableTx,
    WearableTx,
    _power,
    _response as closed_form_response,
    channel_response,
    resonant_frequency,
    transfer_function,
    v_in_rms,
)
from helpers import admittance, mp_transfer, random_body, random_frequency, random_receiver, unit_source


# ── element impedances ──────────────────────────────────────────────────


def solved_impedance(element, f: float) -> complex:
    """V / I of ``element`` placed alone across a 1 V source, as solved."""
    alone = dataclasses.replace(element, node_a="a", node_b=GROUND)
    net = Netlist(nodes=(0, "a"), elements=(vsource("a", 0, 1.0), alone), output_probe=("a", 0))
    res = solve_many(net, f)
    return res.probe_voltage[0] / -res.source_current[0]


def test_capacitor_impedance_half_picofarad_at_1mhz():
    z = solved_impedance(capacitor("a", "b", 0.5e-12), 1e6)
    expected = 1.0 / (2 * math.pi * 1e6 * 0.5e-12)
    assert abs(z) == pytest.approx(expected, rel=1e-12)
    assert abs(z) > 300e3  # return-path impedance dwarfs kilo-ohm loads
    assert z.real == 0.0 and z.imag < 0.0


def test_resistor_impedance_frequency_independent():
    r = resistor("a", "b", 1000.0)
    for f in (1e3, 1e6, 1e9):
        assert solved_impedance(r, f) == 1000.0 + 0j


def test_inductor_impedance_matches_branch_voltage_over_current():
    l_val, f = 0.33e-3, 1.6e6
    z = solved_impedance(inductor("a", "b", l_val), f)
    assert abs(z) == pytest.approx(2 * math.pi * f * l_val, rel=1e-12)
    assert abs(z) == pytest.approx(3317.5, rel=1e-3)

    # Independent check: series V -> L -> R, branch V/I from the solved network.
    net = Netlist(
        nodes=(0, "a", "b"),
        elements=(vsource("a", 0, 1.0), inductor("a", "b", l_val), resistor("b", 0, 1e3)),
        output_probe=("a", "b"),
    )
    res = solve_many(net, f)
    i_branch = -res.source_current[0]  # series loop current
    assert abs(res.probe_voltage[0] / i_branch) == pytest.approx(abs(z), rel=1e-9)


# ── canonical solves ────────────────────────────────────────────────────


def _divider() -> Netlist:
    return Netlist(
        nodes=(0, "in", "mid"),
        elements=(
            vsource("in", 0, 1.0),
            resistor("in", "mid", 1e3),
            resistor("mid", 0, 1e3),
        ),
        output_probe=("mid", 0),
    )


def test_equal_series_resistors_halve_the_source():
    res = solve_many(_divider(), 1e6)
    assert res.probe_voltage[0] == pytest.approx(0.5 + 0j, abs=1e-12)


def test_rc_corner_magnitude_is_inverse_sqrt2():
    r_val, c_val = 1e3, 1e-9
    f_corner = 1.0 / (2 * math.pi * r_val * c_val)
    net = Netlist(
        nodes=(0, "in", "out"),
        elements=(
            vsource("in", 0, 1.0),
            resistor("in", "out", r_val),
            capacitor("out", 0, c_val),
        ),
        output_probe=("out", 0),
    )
    res = solve_many(net, f_corner)
    assert abs(res.probe_voltage[0]) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_sweep_divider_constant_over_frequency():
    res = solve_many(_divider(), np.linspace(1e5, 1e7, 10))
    mags = np.abs(res.probe_voltage).tolist()
    assert mags == pytest.approx([0.5] * 10, rel=1e-12)


def test_channel_sweep_peak_sits_at_closed_form_resonance():
    rx = ReceiverParams(c_ret=6e-12, r_l=1000.0, l=4.222e-3)
    body = BodyModel(c_b=150e-12)
    net = build_channel_netlist(rx, unit_source(), body)
    freqs = np.geomspace(1e5, 1e7, 1001)
    k = int(np.argmax(np.abs(solve_many(net, freqs).probe_voltage)))
    f0 = resonant_frequency(rx)
    step = freqs[k + 1] - freqs[k]
    assert abs(freqs[k] - f0) <= step


# ── invariants ──────────────────────────────────────────────────────────


def _kcl_residual(net: Netlist, res, f: float) -> float:
    """Recompute the KCL residual of the one-point solve ``res`` at ``f``
    from scratch, independent of the solver."""
    currents = {n: 0j for n in net.nodes if n != GROUND}
    max_i = 0.0
    source_idx = 0
    sources = [e for e in net.elements if e.kind is Kind.VSOURCE]
    for e in net.elements:
        if e.kind is Kind.VSOURCE:
            continue
        i = (res.node_voltages[e.node_a][0] - res.node_voltages[e.node_b][0]) * admittance(e, f)
        max_i = max(max_i, abs(i))
        if e.node_a != GROUND:
            currents[e.node_a] += i
        if e.node_b != GROUND:
            currents[e.node_b] -= i
    assert len(sources) == 1
    i_src = res.source_current[0]
    max_i = max(max_i, abs(i_src))
    e = sources[source_idx]
    if e.node_a != GROUND:
        currents[e.node_a] += i_src
    if e.node_b != GROUND:
        currents[e.node_b] -= i_src
    return max(abs(v) for v in currents.values()) / max_i


def test_kcl_residual_below_threshold_on_random_channels():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rx = random_receiver(rng)
        net = build_channel_netlist(rx, unit_source(), random_body(rng))
        f = random_frequency(rng)
        assert _kcl_residual(net, solve_many(net, f), f) < 1e-9


def test_linearity_in_source_amplitude():
    rng = np.random.default_rng(11)
    rx = random_receiver(rng)
    body = random_body(rng)
    f = random_frequency(rng)
    alpha = 7.3
    v1 = solve_many(build_channel_netlist(rx, GroundedTx(1.0, "rms"), body), f).node_voltages
    v2 = solve_many(build_channel_netlist(rx, GroundedTx(alpha, "rms"), body), f).node_voltages
    for node, v in v1.items():
        if node == GROUND:
            continue
        assert abs(v2[node][0] - alpha * v[0]) <= 1e-12 * abs(alpha * v[0])


def test_oracle_equivalence_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(30):
        rx = random_receiver(rng)
        net = build_channel_netlist(rx, unit_source(), random_body(rng))
        for _ in range(5):
            f = random_frequency(rng)
            h_net = solve_many(net, f).probe_voltage[0]
            h = transfer_function(rx, f)
            assert abs(h_net - h) / abs(h) < 1e-9


# ── netlist construction and validation ─────────────────────────────────


def test_netlist_requires_ground():
    with pytest.raises(NetlistError):
        Netlist(
            nodes=("a", "b"),
            elements=(vsource("a", "b", 1.0),),
            output_probe=("a", "b"),
        )


def test_netlist_rejects_disconnected_island():
    with pytest.raises(NetlistError, match="not connected"):
        Netlist(
            nodes=(0, "a", "x", "y"),
            elements=(
                vsource("a", 0, 1.0),
                resistor("x", "y", 1.0),
            ),
            output_probe=("a", 0),
        )


def test_netlist_rejects_missing_source_and_bad_probe():
    with pytest.raises(NetlistError, match="voltage source"):
        Netlist(
            nodes=(0, "a"),
            elements=(resistor("a", 0, 1.0),),
            output_probe=("a", 0),
        )
    with pytest.raises(NetlistError, match="probe"):
        Netlist(
            nodes=(0, "a"),
            elements=(vsource("a", 0, 1.0),),
            output_probe=("a", "zz"),
        )


def test_netlist_rejects_nonpositive_passive_values():
    for element in (resistor("a", 0, 0.0), capacitor("a", 0, 0.0)):
        with pytest.raises(NetlistError, match="value > 0"):
            Netlist(
                nodes=(0, "a"),
                elements=(vsource("a", 0, 1.0), element),
                output_probe=("a", 0),
            )


@pytest.mark.parametrize(
    "element",
    [
        resistor("a", 0, math.inf),
        capacitor("a", 0, math.nan),
        vsource("b", 0, math.nan),
        vsource("b", 0, 1.0, phase=math.inf),
    ],
)
def test_netlist_rejects_non_finite_values_naming_the_element(element):
    elements = (vsource("a", 0, 1.0), element, resistor("b", 0, 1e3))
    with pytest.raises(NetlistError, match=f"{element.kind.name} between .* finite"):
        Netlist(nodes=(0, "a", "b"), elements=elements, output_probe=("b", 0))


def test_parallel_ideal_sources_are_singular():
    net = Netlist(
        nodes=(0, "a"),
        elements=(vsource("a", 0, 1.0), vsource("a", 0, 2.0), resistor("a", 0, 1e3)),
        output_probe=("a", 0),
    )
    with pytest.raises(SingularNetworkError, match=re.escape(f"sweep failed at {1e6:.6g} Hz: singular network")):
        solve_many(net, 1e6)


@pytest.mark.parametrize("element", [resistor("a", 0, 5e-324), inductor("a", 0, 5e-324)])
def test_an_admittance_that_overflows_names_its_frequency(element):
    # 1/R and 1/(s*L) overflow to inf for a subnormal value.
    net = Netlist(
        nodes=(0, "a"),
        elements=(vsource("a", 0, 1.0), resistor("a", 0, 1e3), element),
        output_probe=("a", 0),
    )
    with pytest.raises(SingularNetworkError, match=re.escape(f"sweep failed at {1e6:.6g} Hz: ")):
        solve_many(net, 1e6)


def test_a_frequency_whose_admittances_leave_double_precision_names_them():
    # At 5e-324 Hz, s*C underflows to 0 and 1/(s*L) overflows: the channel
    # netlist is singular through no fault of its topology, so the error
    # names those elements, not a source loop.
    rx = ReceiverParams(c_ret=30e-12, r_l=1e3, l=0.33e-3, r_s=1e3)
    with pytest.raises(SingularNetworkError) as excinfo:
        acnet._response(rx, GroundedTx(5.0, "pp"), BodyModel(c_b=150e-12), [5e-324])
    assert str(excinfo.value) == (
        f"sweep failed at {5e-324:.6g} Hz: in double precision the admittance of the capacitor "
        "between 'body' and 0 is 0, of the inductor between 'n1' and 'out' is not finite, "
        "of the capacitor between 'fg' and 0 is 0"
    )


# ── channel netlist builder ─────────────────────────────────────────────


def test_builder_omits_zero_c_gb():
    rx = ReceiverParams(c_ret=1e-12, r_l=1e3, l=1e-3, c_gb=0.0)
    net = build_channel_netlist(rx, unit_source(), BodyModel(c_b=100e-12))
    caps = [e for e in net.elements if e.kind is Kind.CAPACITOR]
    assert not any({e.node_a, e.node_b} == {"fg", "body"} for e in caps)
    rx2 = ReceiverParams(c_ret=1e-12, r_l=1e3, l=1e-3, c_gb=5e-12)
    net2 = build_channel_netlist(rx2, unit_source(), BodyModel(c_b=100e-12))
    caps2 = [e for e in net2.elements if e.kind is Kind.CAPACITOR]
    assert any({e.node_a, e.node_b} == {"fg", "body"} for e in caps2)


def test_builder_ideal_grounded_source_pins_body():
    rx = ReceiverParams(c_ret=1e-12, r_l=1e3, l=1e-3, c_gb=5e-12)
    src = GroundedTx(v_in=3.0, convention="rms", r_src=0.0)
    net = build_channel_netlist(rx, src, BodyModel(c_b=100e-12, r_b=0.0))
    for f in (1e5, 1e6, 9e6):
        res = solve_many(net, f)
        assert res.node_voltages["body"][0] == pytest.approx(3.0 + 0j, abs=1e-12)


def test_builder_merges_shorted_receiver_branch():
    # l = 0 and r_s = 0: the load hangs directly off the body node.
    rx = ReceiverParams(c_ret=1e-12, r_l=1e3, l=0.0)
    net = build_channel_netlist(rx, unit_source(), BodyModel(c_b=100e-12))
    assert net.output_probe == ("body", "fg")


def test_builder_full_params_match_closed_form():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4.222e-3, r_l=1e3, c_l=1e-12, r_s=250.0)
    net = build_channel_netlist(rx, unit_source(), BodyModel(c_b=150e-12))
    for f in (2e5, 1e6, 5e6):
        h_net = solve_many(net, f).probe_voltage[0]
        assert h_net == pytest.approx(transfer_function(rx, f), rel=1e-9)


def test_multi_receiver_builder_lays_out_each_branch_in_order():
    rx = ReceiverParams(c_ret=1e-12, c_gb=5e-12, l=4e-3, r_l=1e3, c_l=2e-12, r_s=250.0)
    src = GroundedTx(1.0, "rms", r_src=50.0)
    net, probes = build_multi_receiver_netlist([rx, rx], src, BodyModel(c_b=150e-12, r_b=100.0))

    def branch(k, series):
        out, fg = f"out{k}", f"fg{k}"
        return [("R", "body", series), ("L", series, out), ("R", out, fg), ("C", out, fg), ("C", fg, "body"), ("C", fg, 0)]

    transmit = [("V", "vin", 0), ("R", "vin", "n1"), ("R", "n1", "body"), ("C", "body", 0)]
    layout = [(e.kind.value, e.node_a, e.node_b) for e in net.elements]
    assert layout == transmit + branch(0, "n2") + branch(1, "n3")
    assert net.nodes == (0, "vin", "n1", "body", "n2", "out0", "fg0", "n3", "out1", "fg1")
    assert probes == [("out0", "fg0"), ("out1", "fg1")] and net.output_probe == probes[0]


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _sparse_channels(draw):
    """A receiver, source and body of any of the three source kinds, with
    R_S, R_B, r_s, L, C_L and C_GB each zero or not."""

    def optional(lo, hi):
        return draw(st.just(0.0) | _log_uniform(lo, hi))

    rx = ReceiverParams(
        c_ret=draw(_log_uniform(0.2e-12, 5e-12)),
        c_gb=optional(0.1e-12, 10e-12),
        l=optional(0.05e-3, 10e-3),
        r_l=draw(_log_uniform(100.0, 10e3)),
        c_l=optional(0.05e-12, 5e-12),
        r_s=optional(10.0, 2e3),
    )
    body = BodyModel(c_b=draw(_log_uniform(50e-12, 300e-12)), r_b=optional(10.0, 1e3))
    kind = draw(st.sampled_from(("grounded", "wearable", "resonant-wearable")))
    if kind == "grounded":
        src = GroundedTx(5.0, "pp", r_src=optional(10.0, 1e3))
    elif kind == "wearable":
        src = WearableTx(5.0, "pp", c_ret_tx=draw(_log_uniform(0.5e-12, 5e-12)))
    else:
        src = ResonantWearableTx(5.0, "pp", c_ret_tx=draw(_log_uniform(0.5e-12, 5e-12)), q=10.0)
    return rx, src, body


@settings(max_examples=200, deadline=None, derandomize=True)
@given(channel=_sparse_channels())
def test_one_receiver_multi_netlist_is_the_channel_netlist(channel):
    rx, src, body = channel
    single = build_channel_netlist(rx, src, body)
    multi, probes = build_multi_receiver_netlist([rx], src, body)

    def rename(node):
        return {"out0": "out", "fg0": "fg"}.get(node, node)

    assert tuple(map(rename, multi.nodes)) == single.nodes
    renamed = [dataclasses.replace(e, node_a=rename(e.node_a), node_b=rename(e.node_b)) for e in multi.elements]
    assert renamed == list(single.elements)
    assert tuple(map(rename, multi.output_probe)) == single.output_probe
    assert [tuple(map(rename, p)) for p in probes] == [single.output_probe]
    with pytest.raises(NetlistError, match="at least one receiver"):
        build_multi_receiver_netlist([], src, body)


@st.composite
def _multi_channels(draw):
    """One to three receivers, each drawn as in :func:`_sparse_channels`,
    on the source and body of the first."""
    rx, src, body = draw(_sparse_channels())
    others = draw(st.lists(_sparse_channels().map(lambda channel: channel[0]), max_size=2))
    return [rx, *others], src, body


def _divider_load_voltages(receivers, src, body, f: float) -> list:
    """Load voltage of each receiver from the two-line impedance divider
    (Maity et al., IEEE TBME 66(6), 2019): Z_in = (Z_sL || Z_GB) + Z_ret per
    receiver, Z_sh = 1/(jwC_B + sum 1/Z_in), V_B = V Z_sh/(Z_ser + Z_sh)."""
    s = 1j * TWO_PI * f

    def parallel(*zs):
        return 1.0 / sum(1.0 / z for z in zs)

    if isinstance(src, GroundedTx):
        v, z_ser = v_in_rms(src), src.r_src + body.r_b
    else:
        v, z_ser = v_in_rms(src) * getattr(src, "q", 1.0), 1.0 / (s * src.c_ret_tx) + body.r_b
    branches = []
    for rx in receivers:
        z_load = parallel(rx.r_l, *([1.0 / (s * rx.c_l)] if rx.c_l else []))
        z_sl = rx.r_s + s * rx.l + z_load
        z_arm = parallel(z_sl, *([1.0 / (s * rx.c_gb)] if rx.c_gb else []))
        branches.append((z_load / z_sl, z_arm, z_arm + 1.0 / (s * rx.c_ret)))
    z_sh = 1.0 / (s * body.c_b + sum(1.0 / z_in for _, _, z_in in branches))
    v_b = v * z_sh / (z_ser + z_sh)
    return [v_b * z_arm / z_in * share for share, z_arm, z_in in branches]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(channel=_multi_channels())
def test_multi_receiver_netlist_matches_the_impedance_divider(channel):
    # An independent reference for the netlists: the divider is written here
    # from the circuit, not from the builder or the closed-form kernel.
    receivers, src, body = channel
    rx0 = receivers[0]
    f0 = resonant_frequency(rx0) if rx0.l > 0.0 else 1e6
    freqs = f0 * np.geomspace(0.5, 2.0, 5)
    net, probes = build_multi_receiver_netlist(receivers, src, body)
    res = solve_many(net, freqs)
    for k, f in enumerate(freqs):
        refs = _divider_load_voltages(receivers, src, body, float(f))
        # At a high-Q resonance the MNA matrix is ill conditioned, and any
        # double solve is good to about eps * cond there, above 1e-10.
        bound = max(1e-10, np.finfo(float).eps * _dense_solve(net, float(f))[1])
        for i, ((out, fg), ref) in enumerate(zip(probes, refs)):
            got = res.node_voltages[out][k] - res.node_voltages[fg][k]
            assert abs(got - ref) <= bound * abs(ref), f"receiver {i} at {f:.6g} Hz"


# ── batched solve ───────────────────────────────────────────────────────


def _dense_solve(net: Netlist, f: float) -> tuple:
    """Node voltages by one plain dense solve stamped from ``net.elements``,
    and the 2-norm condition number of the stamped matrix."""
    nodes = [n for n in net.nodes if n != GROUND]
    index = {n: i for i, n in enumerate(nodes)}
    sources = [e for e in net.elements if e.kind is Kind.VSOURCE]
    size = len(nodes) + len(sources)
    a = np.zeros((size, size), dtype=complex)
    b = np.zeros(size, dtype=complex)
    for e in net.elements:
        ia, ib = index.get(e.node_a), index.get(e.node_b)
        if e.kind is Kind.VSOURCE:
            k = len(nodes) + sources.index(e)
            b[k] = e.value * cmath.exp(1j * e.phase)
            for i, sign in ((ia, 1.0), (ib, -1.0)):
                if i is not None:
                    a[i, k] += sign
                    a[k, i] += sign
            continue
        y = admittance(e, f)
        for i, j, sign in ((ia, ia, 1.0), (ib, ib, 1.0), (ia, ib, -1.0), (ib, ia, -1.0)):
            if i is not None and j is not None:
                a[i, j] += sign * y
    x = np.linalg.solve(a, b)
    return {n: complex(x[index[n]]) if n in index else 0j for n in net.nodes}, np.linalg.cond(a)


@st.composite
def _channels(draw):
    """A receiver, source and body of one of the six netlist kinds: three
    source kinds, with R_S, R_B and r_s all zero or all nonzero.  The first
    item says whether the closed form models the same circuit."""
    kind = draw(st.sampled_from(("grounded", "wearable", "resonant-wearable")))
    lossy = draw(st.booleans())

    def loss(lo, hi):
        return draw(_log_uniform(lo, hi)) if lossy else 0.0

    rx = ReceiverParams(
        c_ret=draw(_log_uniform(0.2e-12, 5e-12)),
        c_gb=draw(st.just(0.0) | _log_uniform(0.1e-12, 10e-12)),
        l=draw(_log_uniform(0.05e-3, 10e-3)),
        r_l=draw(_log_uniform(100.0, 10e3)),
        c_l=draw(st.just(0.0) | _log_uniform(0.05e-12, 5e-12)),
        r_s=loss(10.0, 2e3),
    )
    body = BodyModel(c_b=draw(_log_uniform(50e-12, 300e-12)), r_b=loss(10.0, 1e3))
    v_in = draw(st.floats(1.0, 12.0))
    if kind == "grounded":
        src = GroundedTx(v_in, "rms", r_src=loss(10.0, 1e3))
    elif kind == "wearable":
        src = WearableTx(v_in, "rms", c_ret_tx=draw(_log_uniform(0.5e-12, 5e-12)))
    else:
        src = ResonantWearableTx(
            v_in, "rms", c_ret_tx=draw(_log_uniform(0.5e-12, 5e-12)), q=draw(st.floats(2.0, 20.0))
        )
    return kind == "grounded" and not lossy, rx, src, body


#: The element each swept axis varies: the last of its kind, so the load
#: resistor and the return-path capacitor c_ret.
_SWEPT_KIND = {"load": Kind.RESISTOR, "inductance": Kind.INDUCTOR, "capacitance": Kind.CAPACITOR}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    channel=_channels(),
    f=_log_uniform(1.5e5, 8e6),
    axis=st.sampled_from(("frequency", "load", "inductance", "capacitance")),
)
def test_solve_many_matches_dense_solve_and_closed_form(channel, f, axis):
    same_circuit, rx, src, body = channel
    net = build_channel_netlist(rx, src, body)
    scale = np.geomspace(0.5, 2.0, 5)
    if axis == "frequency":
        element = values = None
        freqs = f * scale
        nets = [net] * len(scale)
    else:
        element = max(i for i, e in enumerate(net.elements) if e.kind is _SWEPT_KIND[axis])
        values = net.elements[element].value * scale
        freqs = np.full(len(scale), f)
        nets = []
        for x in values:
            elements = list(net.elements)
            elements[element] = dataclasses.replace(elements[element], value=float(x))
            nets.append(Netlist(net.nodes, elements, net.output_probe))
    res = solve_many(net, freqs, element, values)

    for k, (net_k, f_k) in enumerate(zip(nets, freqs)):
        ref, cond = _dense_solve(net_k, float(f_k))
        scale_v = max(abs(v) for v in ref.values())
        err = max(abs(res.node_voltages[n][k] - ref[n]) for n in net.nodes) / scale_v
        # Two backward-stable solves of one system agree to about eps * cond;
        # near a high-Q resonance that is above 1e-12 for any double solver.
        assert err <= max(1e-12, np.finfo(float).eps * cond), f"point {k}: {err:.3e}"

    # The closed form takes no per-point capacitance.
    overrides = {"frequency": {}, "load": {"r_l": values}, "inductance": {"l": values}}
    if same_circuit and axis in overrides:
        v_o, _ = channel_response(rx, src, body, freqs, **overrides[axis])
        assert np.max(np.abs(res.probe_voltage - v_o) / np.abs(v_o)) <= 1e-9


def _mp_transfer(rx, f):
    """H = V_o / V_B of the receiver at ``f`` Hz in 40-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        values = (rx.c_ret, rx.c_gb, rx.l, rx.r_l, rx.c_l, rx.r_s)
        return complex(mp_transfer(2 * mp.pi * mp.mpf(f), *map(mp.mpf, values)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(channel=_channels())
def test_solve_many_matches_a_40_digit_transfer_function_near_resonance(channel):
    # A unit grounded source with R_S = R_B = 0 pins the body node at 1 V,
    # so the probe voltage is H itself; C02's 1e-9 bound applies.
    _, rx, _, _ = channel
    net = build_channel_netlist(rx, unit_source(), BodyModel(c_b=100e-12))
    freqs = resonant_frequency(rx) * np.geomspace(0.5, 2.0, 7)
    v_o = solve_many(net, freqs).probe_voltage
    for k, f in enumerate(freqs):
        exact = _mp_transfer(rx, float(f))
        assert abs(v_o[k] - exact) / abs(exact) <= 1e-9, f"point {k}"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(channel=_channels(), f=_log_uniform(1.5e5, 8e6))
def test_mna_drive_sweep_matches_a_dense_solve_at_each_drive(channel, f):
    # The MNA drive sweep solves once and scales by the drive; the reference
    # stamps and solves a netlist built at each drive voltage.
    _, rx, src, body = channel
    drives = src.v_in * np.geomspace(0.5, 2.0, 5)
    sweep = analysis.simulate("input_voltage", rx, src, body, drives, f=f, mna=True)

    for k, v_in in enumerate(drives):
        net = build_channel_netlist(rx, dataclasses.replace(src, v_in=float(v_in)), body)
        ref, cond = _dense_solve(net, f)
        v_plus, v_minus = net.output_probe
        err = abs(sweep.v_o[k] - (ref[v_plus] - ref[v_minus])) / max(abs(v) for v in ref.values())
        assert err <= max(1e-12, np.finfo(float).eps * cond), f"drive {k}: {err:.3e}"


def test_grid_longer_than_a_block_equals_points_solved_alone():
    rx = ReceiverParams(c_ret=3e-12, c_gb=1.5e-12, r_l=2e3, l=2e-3, c_l=0.4e-12, r_s=150.0)
    net = build_channel_netlist(rx, ResonantWearableTx(6.0, "pp", 3e-12, 7.0), BodyModel(150e-12, 200.0))
    freqs = np.geomspace(1e5, 1e7, 2 * acnet.BLOCK + 37)
    load = max(i for i, e in enumerate(net.elements) if e.kind is Kind.RESISTOR)
    loads = np.geomspace(100.0, 1e4, len(freqs))
    whole = solve_many(net, freqs)
    swept = solve_many(net, freqs, load, loads)
    for k in (0, 1, acnet.BLOCK - 1, acnet.BLOCK, acnet.BLOCK + 1, 2 * acnet.BLOCK, len(freqs) - 1):
        alone = solve_many(net, freqs[k])
        for node, v in alone.node_voltages.items():
            assert v[0] == whole.node_voltages[node][k]
        assert solve_many(net, freqs[k], load, loads[k]).probe_voltage[0] == swept.probe_voltage[k]


def test_a_load_sweep_point_equals_the_point_solved_alone():
    # Three or more admittances meet at the body node.  Their sum must not
    # depend on how many points share a block: a matrix product's BLAS
    # kernel, which changes with the row count, summed these in another order.
    rx = ReceiverParams(c_ret=math.exp(-27.0), r_l=math.exp(5.0), c_gb=math.exp(-26.0), c_l=math.exp(-27.0))
    net = build_channel_netlist(rx, WearableTx(1.0, "pp", c_ret_tx=math.exp(-27.0)), BodyModel(math.exp(-22.0), math.exp(3.0)))
    load = net.elements.index(resistor(*net.output_probe, rx.r_l))
    loads = rx.r_l * np.geomspace(0.5, 2.0, 5)
    swept = solve_many(net, math.exp(15.5), load, loads)
    for k, r_l in enumerate(loads):
        alone = solve_many(net, math.exp(15.5), load, r_l)
        for node, v in alone.node_voltages.items():
            assert v[0] == swept.node_voltages[node][k]


@st.composite
def _kernel_channels(draw):
    """A receiver, source and body of any of the three source kinds, with
    R_S, R_B, r_s, L, C_L and C_GB each zero or not, so the netlist may
    hold up to four resistors and a kernel that sweeps the wrong one fails."""

    def zero_or(lo, hi):
        return draw(st.just(0.0) | _log_uniform(lo, hi))

    rx = ReceiverParams(
        c_ret=draw(_log_uniform(0.2e-12, 5e-12)),
        c_gb=zero_or(0.1e-12, 10e-12),
        l=zero_or(0.05e-3, 10e-3),
        r_l=draw(_log_uniform(100.0, 10e3)),
        c_l=zero_or(0.05e-12, 5e-12),
        r_s=zero_or(10.0, 2e3),
    )
    body = BodyModel(c_b=draw(_log_uniform(50e-12, 300e-12)), r_b=zero_or(10.0, 1e3))
    kind = draw(st.sampled_from(("grounded", "wearable", "resonant-wearable")))
    v_in = draw(st.floats(1.0, 12.0))
    if kind == "grounded":
        return rx, GroundedTx(v_in, "pp", r_src=zero_or(10.0, 1e3)), body
    c_ret_tx = draw(_log_uniform(0.5e-12, 5e-12))
    if kind == "wearable":
        return rx, WearableTx(v_in, "pp", c_ret_tx=c_ret_tx), body
    return rx, ResonantWearableTx(v_in, "pp", c_ret_tx=c_ret_tx, q=draw(st.floats(2.0, 20.0))), body


def test_kernel_takes_the_closed_form_kernels_parameters():
    assert inspect.signature(acnet._response) == inspect.signature(closed_form_response)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    channel=_kernel_channels(),
    f=_log_uniform(1.5e5, 8e6),
    axis=st.sampled_from(("load", "inductance", "input_voltage")),
)
def test_kernel_sweep_equals_a_netlist_rebuilt_at_each_point(channel, f, axis):
    # The kernel stamps one netlist and varies one element (or scales the
    # drive); the reference rebuilds and solves the netlist at each point.
    rx, src, body = channel
    scale = np.geomspace(0.5, 2.0, 5)
    if axis == "load":
        values, rebuild = rx.r_l * scale, lambda x: (dataclasses.replace(rx, r_l=x), src)
    elif axis == "inductance":
        values, rebuild = 2e-3 * scale, lambda x: (dataclasses.replace(rx, l=x), src)
    else:
        values, rebuild = src.v_in * scale, lambda x: (rx, dataclasses.replace(src, v_in=x))
    freqs = np.array([resonant_frequency(rebuild(float(x))[0]) for x in values]) if axis == "inductance" else f
    keyword = {"load": "r_l", "inductance": "l", "input_voltage": "v_in"}[axis]
    v_o, p = acnet._response(rx, src, body, freqs, **{keyword: values})
    sweep = analysis.simulate(axis, rx, src, body, values, f=f, mna=True)
    assert np.array_equal(sweep.v_o, v_o) and np.array_equal(sweep.p_out_rms, p)

    refs = [
        solve_many(build_channel_netlist(*rebuild(float(x)), body), f_k)
        for x, f_k in zip(values, np.broadcast_to(freqs, values.shape))
    ]
    ref_v = np.array([ref.probe_voltage[0] for ref in refs])
    assert np.array_equal(p, _power(v_o, values if axis == "load" else rx.r_l))
    if axis == "input_voltage":
        # One solve scaled by the drive agrees to rounding, not bit for bit.
        # The probe is a difference of node voltages that can cancel, so the
        # bound is relative to the largest node voltage.
        node_scale = np.array([max(abs(v[0]) for v in ref.node_voltages.values()) for ref in refs])
        assert np.all(np.abs(v_o - ref_v) <= 1e-12 * node_scale)
    else:
        assert np.array_equal(v_o, ref_v)


def test_singular_point_inside_a_stack_names_its_frequency():
    # A parallel L-C tank alone between node m and ground: at w = 2**20 rad/s
    # every admittance is a power of two, so j*w*C and 1/(j*w*L) cancel
    # exactly and the row of node m vanishes at that one point.
    f_res = 2.0**20 / TWO_PI
    assert TWO_PI * f_res == 2.0**20
    net = Netlist(
        nodes=(0, "in", "m"),
        elements=(
            vsource("in", 0, 1.0),
            resistor("in", 0, 1e3),
            capacitor("m", 0, 2.0**-30),
            inductor("m", 0, 2.0**-10),
        ),
        output_probe=("in", 0),
    )
    freqs = [0.5 * f_res, 0.9 * f_res, f_res, 1.1 * f_res]
    with pytest.raises(SingularNetworkError, match=f"sweep failed at {f_res:.6g} Hz: .*'m'"):
        solve_many(net, freqs)
    assert solve_many(net, freqs[:2]).probe_voltage == pytest.approx([1.0, 1.0])


def test_solve_many_input_validation():
    net = _divider()
    with pytest.raises(ValueError, match="finite and > 0"):
        solve_many(net, [1e6, math.inf])
    with pytest.raises(ValueError, match="finite and > 0"):
        solve_many(net, [1e6, -1e6])
    with pytest.raises(ValueError, match="nonempty"):
        solve_many(net, [])
    for f in (0.0, -5.0, math.nan):
        with pytest.raises(ValueError, match="finite and > 0"):
            solve_many(net, f)
    with pytest.raises(ValueError, match="together"):
        solve_many(net, [1e6], element=1)
    with pytest.raises(ValueError, match="RESISTOR"):
        solve_many(net, [1e6, 2e6], element=1, values=[1e3, 0.0])


@pytest.mark.parametrize(
    ("element", "why"),
    [(99, "not an index in 0..2"), (-1, "not an index in 0..2"), (0, "a voltage source")],
)
def test_solve_many_rejects_an_element_that_is_not_a_passive(element, why):
    with pytest.raises(ValueError, match=f"element {element} is {why}: expected the index of a passive element"):
        solve_many(_divider(), [1e6], element=element, values=[1e3])
