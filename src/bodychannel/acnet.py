"""Generic linear AC networks and a batched modified-nodal-analysis solver.

This is the brute-force oracle for every closed-form result in
:mod:`bodychannel.channel`: any channel configuration can be rendered as a
netlist and solved exactly, node by node.

The MNA system stacks node-voltage unknowns (every node except the earth
reference, node 0) with one branch-current unknown per voltage source:

    [ Y(w)  B ] [ v ]   [ 0 ]
    [ B'    0 ] [ i ] = [ e ]

A netlist is stamped once into the incidence row a_e of every passive
element (+1 at node_a, -1 at node_b), the source incidence B and the source
phasors e, so that at angular frequency w, with s = j*w,

    Y(w) = sum_e y_e * a_e a_e',   y_e = 1/R, s*C or 1/(s*L)

(Ho, Ruehli & Brennan, "The modified nodal approach to network analysis",
IEEE TCAS 1975).  :func:`solve_many` builds this system for a whole grid of
points, in blocks of :data:`BLOCK` points so that memory does not grow with
the grid, and solves each block with one stacked dense solve with partial
pivoting.  One passive element may take a different value at every point,
so load and inductance sweeps reuse one stamping; the network is linear in
its sources, so a drive sweep is one solve scaled by the drive.  Every
point must pass a KCL residual check, and a point that fails names its
frequency.  Against a 40-digit reference on 400 random receivers, each at
f0 and four frequencies in 0.1-10*f0, the probe voltage's relative error
had median 2e-15, p99 6e-11 and maximum 4e-9: the probe is a difference of
node voltages that can cancel, so a few badly conditioned points exceed
the 1e-9 oracle tolerance.  :func:`_response` evaluates the channel
netlist with the signature of ``channel._response``, the closed form's
kernel.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass, replace
from typing import Hashable, Optional, Sequence

import numpy as np

from .channel import (
    BodyModel,
    GroundedTx,
    ReceiverParams,
    ResonantWearableTx,
    SourceModel,
    TWO_PI,
    WearableTx,
    _power,
    _require_range,
    v_in_rms,
)

NodeId = Hashable

#: Earth-ground reference node id.
GROUND: NodeId = 0


class NetlistError(ValueError):
    """Raised for structural problems: missing ground, disconnected nodes, bad probe."""


class SingularNetworkError(RuntimeError):
    """Raised when the MNA system cannot be solved; names the offending node if known."""


class Kind(enum.Enum):
    RESISTOR = "R"
    CAPACITOR = "C"
    INDUCTOR = "L"
    VSOURCE = "V"


@dataclass(frozen=True)
class Element:
    """One two-terminal element.  ``value`` is ohms, farads, henries, or
    source amplitude in volts; ``phase`` (radians) applies to sources only."""

    kind: Kind
    node_a: NodeId
    node_b: NodeId
    value: float
    phase: float = 0.0


def resistor(a: NodeId, b: NodeId, ohms: float) -> Element:
    return Element(Kind.RESISTOR, a, b, ohms)


def capacitor(a: NodeId, b: NodeId, farads: float) -> Element:
    return Element(Kind.CAPACITOR, a, b, farads)


def inductor(a: NodeId, b: NodeId, henries: float) -> Element:
    return Element(Kind.INDUCTOR, a, b, henries)


def vsource(a: NodeId, b: NodeId, volts: float, phase: float = 0.0) -> Element:
    """Ideal voltage source driving node ``a`` positive relative to ``b``."""
    return Element(Kind.VSOURCE, a, b, volts, phase)


@dataclass(frozen=True)
class Netlist:
    """Immutable element list with an output probe (v_plus, v_minus).

    Construction validates the structural invariants: node 0 present and
    reachable from every node, at least one voltage source, declared nodes
    only, and positive values for passive elements.
    """

    nodes: tuple
    elements: tuple
    output_probe: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "output_probe", tuple(self.output_probe))
        declared = set(self.nodes)
        if GROUND not in declared:
            raise NetlistError("netlist must declare the earth reference node 0")
        if len(declared) != len(self.nodes):
            raise NetlistError("duplicate node ids in node list")
        if not any(e.kind is Kind.VSOURCE for e in self.elements):
            raise NetlistError("netlist needs at least one voltage source")
        for e in self.elements:
            if e.node_a not in declared or e.node_b not in declared:
                raise NetlistError(f"element {e} references an undeclared node")
            if e.node_a == e.node_b:
                raise NetlistError(f"element {e} is shorted to itself")
            if not (math.isfinite(e.value) and math.isfinite(e.phase)):
                raise NetlistError(
                    f"{e.kind.name} between {e.node_a!r} and {e.node_b!r} must have a "
                    f"finite value and phase, got value={e.value!r}, phase={e.phase!r}"
                )
            if e.kind is not Kind.VSOURCE and not e.value > 0.0:
                raise NetlistError(
                    f"{e.kind.name} between {e.node_a!r} and {e.node_b!r} "
                    f"must have value > 0, got {e.value!r}"
                )
        if len(self.output_probe) != 2:
            raise NetlistError("output_probe must be a (v_plus, v_minus) pair")
        for n in self.output_probe:
            if n not in declared:
                raise NetlistError(f"probe node {n!r} is not declared")
        # Every node must reach ground; a floating island makes the system singular.
        adjacency: dict = {n: set() for n in self.nodes}
        for e in self.elements:
            adjacency[e.node_a].add(e.node_b)
            adjacency[e.node_b].add(e.node_a)
        seen = {GROUND}
        stack = [GROUND]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        floating = declared - seen
        if floating:
            raise NetlistError(f"nodes not connected to ground: {sorted(map(str, floating))}")


@dataclass(frozen=True)
class SolveManyResult:
    """Solved states over a grid, one entry per point in grid order.

    ``node_voltages`` maps every node id (including ground) to an array of
    complex phasors; ``source_current`` is the current through the first
    voltage source, flowing a -> b externally."""

    node_voltages: dict
    source_current: np.ndarray
    probe_voltage: np.ndarray


#: Points per stacked solve.  A stacked array of 8x8 complex systems (a
#: 7-node channel) takes 1 MiB per block, so peak memory does not grow with
#: the grid.
BLOCK = 1024


class _Stamped:
    """A netlist stamped once over its node unknowns, bordered by the
    source incidence B.  Each passive element keeps its value, its kind as
    0/1 masks and its incidence row (+1 at node_a, -1 at node_b), so that a
    block of points has one admittance array
    ``y[point, element] = 1/R + s*C + 1/(s*L)``, stamped into the node
    block of the matrix.  Element ``swept`` (the index of a passive in
    ``elements``, or None) takes its value at each point from ``values``."""

    def __init__(self, netlist: Netlist, swept: Optional[int]):
        self.nodes = [node for node in netlist.nodes if node != GROUND]
        index = {node: i for i, node in enumerate(self.nodes)}
        passive_at = [i for i, e in enumerate(netlist.elements) if e.kind is not Kind.VSOURCE]
        source_at = [i for i, e in enumerate(netlist.elements) if e.kind is Kind.VSOURCE]
        n, m = len(self.nodes), len(source_at)
        self.n, self.size = n, n + m
        self.probe = netlist.output_probe

        incidence = np.zeros((len(netlist.elements), n))
        for k, e in enumerate(netlist.elements):
            if e.node_a in index:
                incidence[k, index[e.node_a]] = 1.0
            if e.node_b in index:
                incidence[k, index[e.node_b]] = -1.0
        self.inc = incidence[passive_at]
        self.src_inc = incidence[source_at]
        self.passives = [netlist.elements[i] for i in passive_at]
        # Each passive's stamp: +y at (a, a) and (b, b) and -y at (a, b) and
        # (b, a), for its terminals that are not ground.
        self.diagonal, self.off_diagonal = [], []
        for k, e in enumerate(self.passives):
            ends = [index[node] for node in (e.node_a, e.node_b) if node in index]
            self.diagonal += [(k, i) for i in ends]
            if len(ends) == 2:
                self.off_diagonal += [(k, *ends), (k, *ends[::-1])]
        self.values = np.array([e.value for e in self.passives])
        self.is_r, self.is_c, self.is_l = (
            np.array([e.kind is kind for e in self.passives], dtype=float)
            for kind in (Kind.RESISTOR, Kind.CAPACITOR, Kind.INDUCTOR)
        )
        self.swept = None if swept is None else passive_at.index(swept)
        sources = [netlist.elements[i] for i in source_at]
        self.emf = np.array([e.value * cmath.exp(1j * e.phase) for e in sources])

        self.base = np.zeros((self.size, self.size))
        self.base[:n, n:] = self.src_inc.T
        self.base[n:, :n] = self.src_inc

    def solve(self, f: np.ndarray, values: Optional[np.ndarray]) -> np.ndarray:
        """Unknowns (node voltages, then source currents) at each point of
        ``f``; raises :class:`SingularNetworkError` naming the frequency of
        the first point that is singular or fails the KCL check."""
        n = self.n
        s = 1j * (TWO_PI * f[:, None])
        v = np.tile(self.values, (len(f), 1))
        if self.swept is not None:
            v[:, self.swept] = values
        a = np.empty((len(f), self.size, self.size), dtype=complex)
        a[:] = self.base
        rhs = np.zeros((len(f), self.size, 1), dtype=complex)
        rhs[:, n:, 0] = self.emf
        with np.errstate(invalid="ignore", over="ignore"):
            # An admittance that overflows leaves a point singular or failing
            # the KCL check below, which names its frequency.
            y = self.is_r / v + s * (self.is_c * v) + (self.is_l / v) / s
            # Stamped element by element, each entry sums its admittances in
            # element order at every point.  A matrix product's order depends
            # on the BLAS kernel, which changes with the number of points, so
            # a point's result would depend on the block it is solved in.
            for k, i in self.diagonal:
                a[:, i, i] += y[:, k]
            for k, i, j in self.off_diagonal:
                a[:, i, j] -= y[:, k]
            try:
                x = np.linalg.solve(a, rhs)[:, :, 0]
            except np.linalg.LinAlgError:
                if len(f) == 1:
                    raise self._singular(f[0], v[0], a[0]) from None
                # Name the first failing point: solve the block one point at a time.
                for k in range(len(f)):
                    self.solve(f[k : k + 1], None if values is None else values[k : k + 1])
                raise

            # KCL at every node: branch currents out of the node, including
            # the source currents, must cancel to 1e-9 of the largest one.
            i_branch = y * (x[:, :n] @ self.inc.T)
            i_src = x[:, n:]
            residual = np.abs(i_branch @ self.inc + i_src @ self.src_inc).max(axis=1)
            max_branch = np.abs(np.concatenate((i_branch, i_src), axis=1)).max(axis=1)
            finite = np.isfinite(x).all(axis=1)
            bad = ~finite | (residual > 1e-9 * max_branch)
        if bad.any():
            k = int(np.argmax(bad))
            if not finite[k]:
                raise self._singular(f[k], v[k], a[k])
            raise self._failure(
                f[k],
                f"KCL residual {residual[k]:.3e} exceeds 1e-9 of max branch current "
                f"{max_branch[k]:.3e}; system is ill conditioned",
            )
        return x

    def _singular(self, f: float, v: np.ndarray, a: np.ndarray) -> SingularNetworkError:
        """The error for a singular point at frequency ``f``, with element
        values ``v`` and matrix ``a``: it names each element whose admittance
        is 0 or not finite in double precision, else a dead node, else a
        source loop."""
        s = 1j * (TWO_PI * f)
        with np.errstate(all="ignore"):
            y = np.where(self.is_r, 1.0 / v, np.where(self.is_c, s * v, 1.0 / (s * v)))
        degenerate = [
            f"the {e.kind.name.lower()} between {e.node_a!r} and {e.node_b!r} "
            f"is {'0' if y_e == 0 else 'not finite'}"
            for e, y_e in zip(self.passives, y.tolist())
            if y_e == 0 or not cmath.isfinite(y_e)
        ]
        dead = ", ".join(repr(node) for node, row in zip(self.nodes, a) if not row.any())
        if degenerate:
            why = "in double precision the admittance of " + ", of ".join(degenerate)
        elif dead:
            why = f"singular network: node(s) {dead} have no admittance to the rest"
        else:
            why = "singular network: MNA matrix is not invertible (check for source loops)"
        return self._failure(f, why)

    @staticmethod
    def _failure(f: float, why: str) -> SingularNetworkError:
        return SingularNetworkError(f"sweep failed at {f:.6g} Hz: {why}")


def solve_many(
    netlist: Netlist, freqs, element: Optional[int] = None, values=None
) -> SolveManyResult:
    """Solve the network at every point of a grid of finite, positive
    frequencies in any order.

    ``element`` optionally indexes one passive entry of ``netlist.elements``
    (a load resistor or an inductor, for load and inductance sweeps) that
    takes ``values[k]`` at point k in place of its own value.  ``freqs``
    and ``values`` broadcast against each other, so a fixed frequency may
    be a scalar.  A drive sweep needs no element: the network is linear in
    its sources, so it is one solve scaled by the drive.

    Raises :class:`SingularNetworkError` naming the frequency of the first
    point that cannot be solved or fails the KCL residual check (residual
    at every node below 1e-9 of the largest branch-current magnitude).
    """
    if (element is None) != (values is None):
        raise ValueError("element and values must be given together")
    freqs = np.asarray(freqs, dtype=float)
    if values is not None:
        count = len(netlist.elements)
        in_range = isinstance(element, (int, np.integer)) and 0 <= element < count
        kind = netlist.elements[element].kind if in_range else None
        if kind in (None, Kind.VSOURCE):
            why = f"not an index in 0..{count - 1}" if kind is None else "a voltage source"
            raise ValueError(
                f"element {element!r} is {why}: expected the index of a passive element "
                "(resistor, capacitor or inductor)"
            )
        freqs, values = np.broadcast_arrays(freqs, np.atleast_1d(np.asarray(values, dtype=float)))
        _require_range(f"values for element {element} ({kind.name})", values)
    freqs = np.ascontiguousarray(np.atleast_1d(freqs))
    if freqs.ndim != 1 or len(freqs) == 0:
        raise ValueError("frequencies must form a nonempty one-dimensional grid")
    _require_range("frequency", freqs)
    stamped = _Stamped(netlist, element)
    x = np.empty((len(freqs), stamped.size), dtype=complex)
    for start in range(0, len(freqs), BLOCK):
        stop = start + BLOCK
        x[start:stop] = stamped.solve(
            freqs[start:stop], None if values is None else values[start:stop]
        )
    voltages = {GROUND: np.zeros(len(freqs), dtype=complex)}
    for i, node in enumerate(stamped.nodes):
        voltages[node] = x[:, i]
    v_plus, v_minus = stamped.probe
    return SolveManyResult(
        node_voltages=voltages,
        source_current=x[:, stamped.n],
        probe_voltage=voltages[v_plus] - voltages[v_minus],
    )


def _build_netlist(src: SourceModel, body: BodyModel, receivers: Sequence[ReceiverParams], tags):
    """Transmit side plus one receiver branch per entry of ``receivers``.

    The source (its amplitude the rms drive, times q for the resonant
    wearable variant) drives its series coupling (r_src or c_ret_tx), then
    r_b, into the body node; c_b runs from the body to ground.  Receiver
    ``k`` runs body -> r_s -> L -> ``out<tag>``, its load (r_l parallel
    c_l) to the floating ground ``fg<tag>``, then c_gb back to the body and
    c_ret to ground.  A zero-valued series part is a short: it is left out
    and its two nodes merge, so with no nonzero transmit part the source
    pins the body node, and with no nonzero r_s or L the output is the body
    node.  A zero-valued shunt capacitor (c_l, c_gb) is an open and is left
    out, so no epsilon-valued part adds an artificial pole.  Returns
    ``(netlist, probes)``, where ``probes[k]`` is the (output,
    floating-ground) pair of receiver ``k``; the netlist's own probe is
    receiver 0, or the body node when there is no receiver.
    """
    if isinstance(src, GroundedTx):
        amplitude, coupling = v_in_rms(src), (Kind.RESISTOR, src.r_src)
    elif isinstance(src, WearableTx):
        amplitude, coupling = v_in_rms(src), (Kind.CAPACITOR, src.c_ret_tx)
    elif isinstance(src, ResonantWearableTx):
        amplitude, coupling = v_in_rms(src) * src.q, (Kind.CAPACITOR, src.c_ret_tx)
    else:
        raise TypeError(f"unknown source model {type(src).__name__}")
    elements: list = []
    inner = itertools.count(1)

    def series(start: NodeId, end: NodeId, parts) -> NodeId:
        """Lay the nonzero ``(kind, value)`` parts in series from ``start``
        to ``end`` through inner nodes n1, n2, ...; with none, the two
        nodes merge and ``start`` is returned."""
        parts = [part for part in parts if part[1] > 0.0]
        if not parts:
            return start
        nodes = [start, *(f"n{next(inner)}" for _ in parts[1:]), end]
        elements.extend(Element(kind, a, b, v) for (kind, v), a, b in zip(parts, nodes, nodes[1:]))
        return end

    transmit = (coupling, (Kind.RESISTOR, body.r_b))
    drive = "vin" if any(value > 0.0 for _, value in transmit) else "body"
    elements.append(vsource(drive, GROUND, amplitude))
    series(drive, "body", transmit)
    elements.append(capacitor("body", GROUND, body.c_b))
    probes = []
    for rx, tag in zip(receivers, tags):
        out = series("body", f"out{tag}", ((Kind.RESISTOR, rx.r_s), (Kind.INDUCTOR, rx.l)))
        fg = f"fg{tag}"
        elements.append(resistor(out, fg, rx.r_l))
        if rx.c_l > 0.0:
            elements.append(capacitor(out, fg, rx.c_l))
        if rx.c_gb > 0.0:
            elements.append(capacitor(fg, "body", rx.c_gb))
        elements.append(capacitor(fg, GROUND, rx.c_ret))
        probes.append((out, fg))
    nodes = dict.fromkeys([GROUND, *(n for e in elements for n in (e.node_a, e.node_b))])
    probe = probes[0] if probes else ("body", GROUND)
    return Netlist(nodes=tuple(nodes), elements=tuple(elements), output_probe=probe), probes


def build_channel_netlist(
    rx: ReceiverParams, src: SourceModel, body: BodyModel
) -> Netlist:
    """Render the full channel as a netlist with the probe across the load.

    Topology: source (with its series coupling) through the body resistance
    to the body node; c_b from body to ground; receiver branch body -> r_s
    -> L -> output node ``out``; load (r_l parallel c_l) from output to the
    floating ground node ``fg``; c_gb floating ground -> body; c_ret
    floating ground -> ground.  Zero-valued optional elements are omitted.
    """
    return _build_netlist(src, body, [rx], [""])[0]


def build_multi_receiver_netlist(
    receivers: Sequence[ReceiverParams], src: SourceModel, body: BodyModel
):
    """All receiver branches on one shared body node, for mutual-loading studies.

    Returns ``(netlist, probes)`` where ``probes[i]`` is the (output,
    floating-ground) node pair ``(out<i>, fg<i>)`` of receiver ``i``.  The
    netlist's own probe points at receiver 0.
    """
    if not receivers:
        raise NetlistError("need at least one receiver")
    return _build_netlist(src, body, receivers, range(len(receivers)))


def _response(rx: ReceiverParams, src: SourceModel, body: BodyModel, f, r_l=None, l=None, v_in=None):
    """Rms load voltages and powers ``(v_o, p_out_rms)`` of the channel
    netlist: ``channel._response``'s counterpart, with its parameters and
    without input checks beyond :func:`solve_many`'s.

    At most one of ``r_l``, ``l`` and ``v_in`` is given; it broadcasts
    against ``f`` over a one-dimensional grid.  The netlist is stamped once
    and solved once: a swept load resistance or inductance replaces the
    value of the resistor between the probe nodes or of the inductor at
    each point, and a drive sweep scales the solve by ``v_in / src.v_in``,
    since the network is linear in its source.
    """
    if l is not None:
        rx = replace(rx, l=float(np.ravel(l)[0]))  # the netlist needs an inductor to sweep
    net = build_channel_netlist(rx, src, body)
    element = values = None
    if r_l is not None:
        element, values = net.elements.index(resistor(*net.output_probe, rx.r_l)), r_l
    elif l is not None:
        element, values = [e.kind for e in net.elements].index(Kind.INDUCTOR), l
    v_o = solve_many(net, f, element, values).probe_voltage
    if v_in is not None:
        v_o = v_o * (v_in / src.v_in)
    return v_o, _power(v_o, rx.r_l if r_l is None else r_l)
