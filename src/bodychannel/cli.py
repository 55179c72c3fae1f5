"""Command-line surface: scenario configs, sweep orchestration, optimization
and safety commands, CSV emission, and measured-data import.

Scenario files are a strict INI subset (``[section]`` headers, ``key = value``
lines, ``#`` comments and blank lines); quantities are SI base units with
optional suffix multipliers p n u m k M.  Emitted CSVs carry a
provenance header (config hash, command, version) and re-import losslessly.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, acnet, analysis, optimize, safety
from .analysis import AXES, AXIS_LABEL, SweepResult
from .channel import (
    BodyModel,
    GroundedTx,
    NonFiniteResultError,
    ReceiverParams,
    ResonantWearableTx,
    SourceModel,
    WearableTx,
    received_power,
    resonant_frequency,
)
from .safety import LimitTable

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_SAFETY = 4

class ConfigError(ValueError):
    """Scenario validation failure; messages carry the section.key path."""


class CsvFormatError(ValueError):
    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


class DuplicateAxisError(ValueError):
    def __init__(self, path, offenders):
        super().__init__(f"{path}: duplicate axis values {offenders}")
        self.offenders = offenders


class UnsortedRowsWarning(UserWarning):
    """Imported rows were not sorted; they have been re-sorted ascending."""


_SUFFIX = {"p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3, "k": 1e3, "M": 1e6}


def parse_quantity(text: str, where: str = "value") -> float:
    """Parse a decimal with an optional single-letter SI suffix multiplier."""
    token = text.strip()
    scale = 1.0
    if token and token[-1] in _SUFFIX:
        scale = _SUFFIX[token[-1]]
        token = token[:-1]
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse quantity {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: quantity must be finite, got {text!r}")
    return value * scale


@dataclass
class SweepSpec:
    axis: str
    lo: float
    hi: float
    points: int
    spacing: str  # "lin" | "log"
    frequency: Optional[float] = None  # fixed operating f for non-frequency axes

    def grid(self, points: Optional[int] = None) -> np.ndarray:
        n = self.points if points is None else points
        if n < 2:
            raise ConfigError(f"points: need at least 2, got {n}")
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, n)
        return np.linspace(self.lo, self.hi, n)


@dataclass
class FitSpec:
    data: Path
    free: list


@dataclass
class ScenarioConfig:
    receivers: list
    source: SourceModel
    body: BodyModel
    sweep: Optional[SweepSpec]
    limit_table_path: Optional[Path]
    #: the table at ``limit_table_path``, parsed when the scenario loads
    limit_table: Optional[LimitTable]
    fit: Optional[FitSpec]
    sha256: str

    @property
    def receiver(self) -> ReceiverParams:
        return self.receivers[0]


#: config key -> model field, in the order the keys are read; the receiver's
#: map also names the fields of the fit's free tokens
_RECEIVER_FIELDS = {
    "C_ret": "c_ret", "C_GB": "c_gb", "L": "l", "R_L": "r_l", "C_L": "c_l", "r_s": "r_s"
}
_BODY_FIELDS = {"C_B": "c_b", "R_B": "r_b"}
_SOURCES = {
    "grounded": (GroundedTx, {"R_S": "r_src"}),
    "wearable": (WearableTx, {"C_ret_tx": "c_ret_tx"}),
    "resonant-wearable": (ResonantWearableTx, {"C_ret_tx": "c_ret_tx", "Q": "q"}),
}
#: fit.free tokens and the units of their output columns
_PARAM_UNIT = {"C_ret": "F", "C_GB": "F", "r_s": "ohm", "L": "H"}


def _parse_sections(text: str, path) -> dict:
    """Section name -> {key: value} of a scenario's text, both in file order.

    The grammar is ``[section]`` header lines, ``key = value`` lines, ``#``
    comments (a line of its own, or after whitespace at the end of a line)
    and blank lines; keys keep their case.  A line that is none of these, a
    duplicate section or key, a key before the first section, ``:`` as the
    delimiter and an indented line (a continuation of the value above, in
    ``configparser``) raise :class:`ConfigError` naming the file and line.
    """
    sections = {}
    items = None

    def error(message: str) -> ConfigError:
        return ConfigError(f"{path}:{lineno}: {message}")

    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        at = line.find("#")
        while at > 0:
            if line[at - 1].isspace():
                line = line[:at].rstrip()
                break
            at = line.find("#", at + 1)
        if raw[0].isspace():
            raise error("a line may not be indented (values take one line)")
        if line[0] == "[":
            if len(line) < 3 or line[-1] != "]":
                raise error(f"expected a [section] header, got {line!r}")
            name = line[1:-1]
            if name in sections:
                raise error(f"duplicate section [{name}]")
            items = sections[name] = {}
            continue
        key, equals, value = line.partition("=")
        key = key.rstrip()
        if ":" in key:
            raise error("use '=' between key and value, not ':'")
        if not (equals and key):
            raise error(f"expected [section] or key = value, got {line!r}")
        if items is None:
            raise error(f"{key}: keys must live inside a section")
        if key in items:
            raise error(f"duplicate key {name}.{key}")
        items[key] = value.strip()
    return sections


def _section(sections: dict, name: str, required: bool = True):
    if name not in sections:
        if required:
            raise ConfigError(f"missing required section [{name}]")
        return None
    return dict(sections[name])


def _take(items: dict, section: str, key: str) -> str:
    try:
        return items.pop(key)
    except KeyError:
        raise ConfigError(f"{section}.{key}: required key is missing") from None


def _reject_unknown(items: dict, section: str) -> None:
    if items:
        key = sorted(items)[0]
        raise ConfigError(f"{section}.{key}: unknown key")


def _build(model, section: str, items: dict, keys: dict, **fixed):
    """``model`` from the quantities of ``section``, read in ``keys`` order
    (config key -> field) beside the ``fixed`` fields; any other key fails."""
    values = {
        field: parse_quantity(_take(items, section, key), f"{section}.{key}")
        for key, field in keys.items()
    }
    _reject_unknown(items, section)
    try:
        return model(**fixed, **values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _build_source(items: dict) -> SourceModel:
    kind = _take(items, "source", "kind")
    if kind not in _SOURCES:
        raise ConfigError(f"source.kind: expected one of {tuple(_SOURCES)}, got {kind!r}")
    v_in = parse_quantity(_take(items, "source", "V_in"), "source.V_in")
    convention = _take(items, "source", "convention")
    model, keys = _SOURCES[kind]
    return _build(model, "source", items, keys, v_in=v_in, convention=convention)


def _build_sweep(items: dict) -> SweepSpec:
    axis = _take(items, "sweep", "axis")
    if axis not in AXES:
        raise ConfigError(f"sweep.axis: expected one of {AXES}, got {axis!r}")
    lo = parse_quantity(_take(items, "sweep", "lo"), "sweep.lo")
    hi = parse_quantity(_take(items, "sweep", "hi"), "sweep.hi")
    points_text = _take(items, "sweep", "points")
    try:
        points = int(points_text)
    except ValueError:
        raise ConfigError(f"sweep.points: expected an integer, got {points_text!r}") from None
    spacing = _take(items, "sweep", "spacing")
    if spacing not in ("lin", "log"):
        raise ConfigError(f"sweep.spacing: expected lin or log, got {spacing!r}")
    frequency = None
    if "frequency" in items:
        frequency = parse_quantity(items.pop("frequency"), "sweep.frequency")
        if not frequency > 0.0:
            raise ConfigError("sweep.frequency: must be > 0")
    _reject_unknown(items, "sweep")
    if not (lo > 0.0 and hi > lo):
        raise ConfigError(f"sweep: need 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    if points < 2:
        raise ConfigError(f"sweep.points: need at least 2, got {points}")
    return SweepSpec(axis=axis, lo=lo, hi=hi, points=points, spacing=spacing, frequency=frequency)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; unknown sections or keys fail."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config must be UTF-8") from None
    sections = _parse_sections(text, path)
    if sections.get("DEFAULT"):  # configparser's defaults section has no meaning here
        key = sorted(sections["DEFAULT"])[0]
        raise ConfigError(f"{key}: keys must live inside a section")

    extra = []
    for name in sections:
        if name.startswith("receiver") and name != "receiver":
            suffix = name[len("receiver"):]
            if not suffix.isdigit() or int(suffix) < 2:
                raise ConfigError(f"[{name}]: extra receivers are named receiver2, receiver3, ...")
            extra.append(name)
        elif name not in ("receiver", "source", "body", "sweep", "safety", "fit"):
            raise ConfigError(f"[{name}]: unknown section")
    # A stable sort by number: [receiver02] and [receiver2] both stay, in file order.
    extra.sort(key=lambda n: int(n[len("receiver"):]))
    receivers = [
        _build(ReceiverParams, name, _section(sections, name), _RECEIVER_FIELDS)
        for name in ["receiver", *extra]
    ]
    source = _build_source(_section(sections, "source"))
    body = _build(BodyModel, "body", _section(sections, "body"), _BODY_FIELDS)

    sweep_items = _section(sections, "sweep", required=False)
    sweep = _build_sweep(sweep_items) if sweep_items is not None else None

    limit_table_path = limit_table = None
    safety_items = _section(sections, "safety", required=False)
    if safety_items is not None:
        rel = _take(safety_items, "safety", "limit_table")
        _reject_unknown(safety_items, "safety")
        limit_table_path = (path.parent / rel).resolve()
        if not limit_table_path.exists():
            raise ConfigError(f"safety.limit_table: file not found: {limit_table_path}")
        try:
            limit_table = safety.load_limit_table(limit_table_path)
        except ValueError as exc:  # names the table's file and line
            raise ConfigError(str(exc)) from None

    fit_spec = None
    fit_items = _section(sections, "fit", required=False)
    if fit_items is not None:
        data_rel = _take(fit_items, "fit", "data")
        free_text = _take(fit_items, "fit", "free")
        _reject_unknown(fit_items, "fit")
        tokens = [t.strip() for t in free_text.split(",") if t.strip()]
        for t in tokens:
            if t not in _PARAM_UNIT:
                raise ConfigError(
                    f"fit.free: unknown parameter {t!r}; expected from {sorted(_PARAM_UNIT)}"
                )
        data_path = (path.parent / data_rel).resolve()
        if not data_path.exists():
            raise ConfigError(f"fit.data: file not found: {data_path}")
        fit_spec = FitSpec(data=data_path, free=tokens)

    return ScenarioConfig(
        receivers=receivers,
        source=source,
        body=body,
        sweep=sweep,
        limit_table_path=limit_table_path,
        limit_table=limit_table,
        fit=fit_spec,
        sha256=hashlib.sha256(raw).hexdigest(),
    )


@dataclass
class ResultTable:
    """Rectangular numeric table with unit-bearing column names and a
    timestamp-free provenance header.  A cell that is not finite raises
    :class:`NonFiniteResultError` naming its column and row."""

    columns: list
    rows: list
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must match the column count")
        # One C-level pass over the cells; numpy's fixed cost per call would
        # dominate the one-row tables of the design commands.
        if not all(map(math.isfinite, chain.from_iterable(self.rows))):
            i, j = np.argwhere(~np.isfinite(np.array(self.rows, dtype=float)))[0]
            raise NonFiniteResultError(
                f"column {self.columns[j]!r} of row {i + 1} is {float(self.rows[i][j])!r}, not finite"
            )

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.provenance.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


FULL_SCHEMA_TAIL = ("v_o_re[V]", "v_o_im[V]", "v_o_mag[V]", "p_out_rms[W]")


def sweep_to_table(sweep: SweepResult) -> ResultTable:
    """Render a sweep in the canonical CSV schema."""
    label = AXIS_LABEL[sweep.axis]
    if sweep.power_only:
        columns = [label, "p_out_rms[W]"]
        data = [sweep.values, sweep.p_out_rms]
    else:
        columns = [label, *FULL_SCHEMA_TAIL]
        v = sweep.v_o
        # np.hypot rounds |v| as the scalar abs(v) does; the array np.abs can
        # differ from it in the last bit.
        data = [sweep.values, v.real, v.imag, np.hypot(v.real, v.imag), sweep.p_out_rms]
    return ResultTable(columns=columns, rows=np.column_stack(data).tolist())


def import_measured(path, axis: str) -> SweepResult:
    """Read a sweep CSV (full or power-only schema) into a SweepResult.

    Rows arriving out of order are re-sorted ascending with a warning;
    duplicate axis values and malformed rows are rejected with the line
    number.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {AXES}")
    path = Path(path)
    expected = AXIS_LABEL[axis]
    header = None
    power_only = False
    data = []
    lines_seen = []
    for lineno, rawline in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = rawline.strip()
        if not text or text[0] == "#":
            continue
        if header is None:
            header = [c.strip() for c in text.split(",")]
            if header == [expected, *FULL_SCHEMA_TAIL]:
                power_only = False
            elif header == [expected, "p_out_rms[W]"]:
                power_only = True
            else:
                raise CsvFormatError(path, lineno, f"unrecognized header for axis {axis!r}: {text!r}")
            continue
        parts = text.split(",")
        if len(parts) != len(header):
            raise CsvFormatError(
                path, lineno, f"expected {len(header)} fields, got {len(parts)}"
            )
        try:
            values = list(map(float, parts))
        except ValueError:
            raise CsvFormatError(path, lineno, f"malformed numeric field in {text!r}") from None
        if not values[0] > 0.0:
            raise CsvFormatError(path, lineno, f"non-positive axis value {values[0]!r}")
        if -math.inf < values[-1] < 0.0:
            raise CsvFormatError(path, lineno, f"negative power {values[-1]!r}")
        data.append(values)
        lines_seen.append(lineno)
    if header is None:
        raise CsvFormatError(path, 1, "missing header line")
    if len(data) < 2:
        raise CsvFormatError(path, lines_seen[-1] if lines_seen else 1, "need at least 2 data rows")

    arr = np.asarray(data, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(finite.all(axis=1).argmin())
        raise CsvFormatError(path, lines_seen[i], f"non-finite field in row {data[i]}")
    x = arr[:, 0]
    if not (np.diff(x) > 0.0).all():
        # One stable sort of the axis gives both the order and the duplicates.
        order = np.argsort(x, kind="stable")
        x = x[order]
        repeated = x[1:][x[1:] == x[:-1]]
        if repeated.size:
            raise DuplicateAxisError(path, np.unique(repeated).tolist())
        warnings.warn(
            UnsortedRowsWarning(f"{path}: rows were not sorted by axis; re-sorted ascending"),
            stacklevel=2,
        )
        arr = arr[order]

    if power_only:
        return SweepResult(axis=axis, values=arr[:, 0], p_out_rms=arr[:, 1])
    # Assigned part by part: re + 1j*im would turn a written -0.0 into +0.0.
    v_o = np.empty(len(arr), dtype=complex)
    v_o.real, v_o.imag = arr[:, 1], arr[:, 2]
    return SweepResult(axis=axis, values=arr[:, 0], p_out_rms=arr[:, 4], v_o=v_o)


def _require_axis(config: ScenarioConfig, axis: str) -> SweepSpec:
    if config.sweep is None:
        raise ConfigError("this command needs a [sweep] section")
    if config.sweep.axis != axis:
        raise ConfigError(f"sweep.axis: this command needs axis = {axis}, got {config.sweep.axis!r}")
    return config.sweep


def _operating_frequency(config: ScenarioConfig, required: Optional[str] = None) -> float:
    """sweep.frequency.  Without it, a command that needs it fails with the
    message ``required``; the others run at the receiver resonance."""
    if config.sweep is not None and config.sweep.frequency is not None:
        return config.sweep.frequency
    if required is not None:
        raise ConfigError(required)
    return resonant_frequency(config.receiver)


_SWEEP_AXIS = {
    "sweep-freq": "frequency",
    "sweep-load": "load",
    "sweep-inductance": "inductance",
    "sweep-vin": "input_voltage",
}


def _sweep(axis: str, config: ScenarioConfig, points: Optional[int] = None, oracle: bool = False) -> tuple:
    spec = _require_axis(config, axis)
    f = _operating_frequency(config) if axis in ("load", "input_voltage") else None
    xs = spec.grid(points)
    sweep = analysis.simulate(axis, config.receiver, config.source, config.body, xs, f, mna=oracle)
    return sweep_to_table(sweep), EXIT_OK, {} if f is None else {"frequency_hz": repr(f)}


def _resonance(config: ScenarioConfig, oracle: bool = False) -> tuple:
    rx = config.receiver
    f0 = resonant_frequency(rx)
    if oracle:
        sweep = analysis.simulate("frequency", rx, config.source, config.body, [f0], mna=True)
        return sweep_to_table(sweep), EXIT_OK, {}
    # One point of a frequency sweep, bit for bit (abs rounds as np.hypot).
    point = received_power(rx, config.source, config.body, f0)
    v = point.v_o
    row = [f0, v.real, v.imag, abs(v), point.p_out_rms]
    return ResultTable(columns=[AXIS_LABEL["frequency"], *FULL_SCHEMA_TAIL], rows=[row]), EXIT_OK, {}


def _optimize_load(config: ScenarioConfig) -> tuple:
    spec = _require_axis(config, "load")
    f = _operating_frequency(config)
    bounds = (spec.lo, spec.hi)
    result = optimize.optimal_load(config.receiver, config.source, config.body, f, bounds)
    table = ResultTable(
        columns=["load_opt[ohm]", "p_out_rms[W]", "constraint_active"],
        rows=[[result.argmax, result.objective_at_argmax, float(result.constraint_active)]],
    )
    extra = {"frequency_hz": repr(f), "constraint": result.constraint_name or "none"}
    return table, EXIT_OK, extra


def _optimize_inductor(config: ScenarioConfig) -> tuple:
    f = _operating_frequency(config, "optimize-inductor needs sweep.frequency as the target")
    l_opt = optimize.optimal_inductor(config.receiver, f)
    achieved = resonant_frequency(replace(config.receiver, l=l_opt))
    table = ResultTable(
        columns=["inductance_opt[H]", "resonant_frequency[Hz]"],
        rows=[[l_opt, achieved]],
    )
    return table, EXIT_OK, {}


_SAFETY_NEEDS_FREQUENCY = "safety commands need sweep.frequency (the operating point)"


def _safety(config: ScenarioConfig, oracle: bool = False) -> tuple:
    limits = _load_limits(config)
    f = _operating_frequency(config, _SAFETY_NEEDS_FREQUENCY)
    rx = config.receiver if oracle else None
    report = safety.check(config.source, config.body, f, limits, rx=rx, mna=oracle)
    table = ResultTable(
        columns=["frequency[Hz]", "contact_current_rms[A]", "limit_rms[A]", "margin", "passed"],
        rows=[[f, report.contact_current_rms, report.limit, report.margin, float(report.passed)]],
    )
    code = EXIT_OK if report.passed else EXIT_SAFETY
    return table, code, {"limit_source": limits.source_label}


def _max_safe_vin(config: ScenarioConfig) -> tuple:
    limits = _load_limits(config)
    f = _operating_frequency(config, _SAFETY_NEEDS_FREQUENCY)
    src = config.source
    v_max = safety.max_safe_input(config.body, f, limits, src)
    unit = {"pp": "Vpp", "amplitude": "Vamp", "rms": "Vrms"}[src.convention]
    table = ResultTable(
        columns=[f"v_in_max[{unit}]", "frequency[Hz]", "limit_rms[A]"],
        rows=[[v_max, f, limits.band_for(f).contact_current_limit]],
    )
    return table, EXIT_OK, {"limit_source": limits.source_label}


def _fit(config: ScenarioConfig) -> tuple:
    if config.fit is None:
        raise ConfigError("fit needs a [fit] section with data and free keys")
    observed = import_measured(config.fit.data, axis="frequency")
    tokens = config.fit.free
    free_fields = [_RECEIVER_FIELDS[t] for t in tokens]
    report = analysis.fit_params(observed, free_fields, config.receiver, config.source, config.body)
    columns = [f"{t}[{_PARAM_UNIT[t]}]" for t in tokens]
    columns += ["residual_rms[W]", "iterations", "converged"]
    row = [report.fitted_params[name] for name in free_fields]
    row += [report.residual_rms, float(report.iterations), float(report.converged)]
    return ResultTable(columns=columns, rows=[row]), EXIT_OK, {}


def _multi(config: ScenarioConfig, joint: bool = False) -> tuple:
    receivers, src, body = config.receivers, config.source, config.body
    columns = ["receiver", "frequency[Hz]", "v_o_mag[V]", "p_out_rms[W]"]
    if joint:
        records = optimize.joint_loading_check(receivers, src, body)
        points = [r.independent for r in records]
        joint_cells = [[r.joint_power_rms, r.deviation] for r in records]
        columns += ["p_joint_rms[W]", "deviation_rel"]
    else:
        points = optimize.multi_receiver_power(receivers, src, body)
        joint_cells = [[] for _ in points]
    rows = [
        [float(i + 1), pt.frequency, abs(pt.v_o), pt.p_out_rms, *more]
        for i, (pt, more) in enumerate(zip(points, joint_cells))
    ]
    return ResultTable(columns=columns, rows=rows), EXIT_OK, {}


#: the columns of the four pairings, in the order ``compare_topologies`` gives them
_TOPOLOGY_COLUMNS = ("m2m_gain[dB]", "m2w_gain[dB]", "w2w_gain[dB]", "w2w_resonant_gain[dB]")


def _compare_topologies(config: ScenarioConfig, points: Optional[int] = None) -> tuple:
    spec = _require_axis(config, "frequency")
    src = config.source
    if not isinstance(src, ResonantWearableTx):
        raise ConfigError(
            "compare-topologies needs source.kind = resonant-wearable "
            "(supplies C_ret_tx and Q for the wearable curves)"
        )
    xs = spec.grid(points)
    gains = optimize.compare_topologies(config.receiver, src, config.body, xs)
    table = ResultTable(
        columns=["frequency[Hz]", *_TOPOLOGY_COLUMNS],
        rows=np.column_stack([xs, *gains.values()]).tolist(),
    )
    return table, EXIT_OK, {}


def _oracle_check(
    config: ScenarioConfig, points: Optional[int] = None, tolerance: float = 1e-9, oracle: bool = True
) -> tuple:
    # oracle: the check always solves the netlist, so --oracle changes nothing.
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigError(f"tolerance: must be finite and > 0, got {tolerance!r}")
    xs = _require_axis(config, "frequency").grid(points)
    gaps = analysis.oracle_gap(config.receiver, xs)
    table = ResultTable(
        columns=["frequency[Hz]", "rel_diff"],
        rows=np.column_stack([xs, gaps]).tolist(),
    )
    code = EXIT_OK if float(np.max(gaps)) <= tolerance else EXIT_MODEL
    return table, code, {"tolerance": repr(tolerance)}


_HANDLERS = {
    **{command: partial(_sweep, axis) for command, axis in _SWEEP_AXIS.items()},
    "resonance": _resonance,
    "optimize-load": _optimize_load,
    "optimize-inductor": _optimize_inductor,
    "safety": _safety,
    "max-safe-vin": _max_safe_vin,
    "fit": _fit,
    "multi": _multi,
    "compare-topologies": _compare_topologies,
    "oracle-check": _oracle_check,
}

COMMANDS = tuple(_HANDLERS)

#: command -> the flags it reads: its handler's parameters after the scenario
_FLAGS = {command: tuple(inspect.signature(h).parameters)[1:] for command, h in _HANDLERS.items()}


def run(
    command: str,
    config: ScenarioConfig,
    points: Optional[int] = None,
    tolerance: Optional[float] = None,
    joint: bool = False,
    oracle: bool = False,
) -> tuple:
    """Execute one command against a validated scenario.

    A flag is given when it is neither None nor False; the handler receives
    the given flags only, and a given flag that the command does not read
    raises ConfigError naming both.  Returns ``(ResultTable, exit_code)``;
    raises ConfigError for validation problems and model-level exceptions
    for the rest (main() maps both to exit codes).
    """
    try:
        handler = _HANDLERS[command]
    except KeyError:
        raise ConfigError(f"unknown command {command!r}") from None
    given = {}
    for flag, value in dict(points=points, tolerance=tolerance, joint=joint, oracle=oracle).items():
        if value is not None and value is not False:
            if flag not in _FLAGS[command]:
                raise ConfigError(f"{command} does not read --{flag}")
            given[flag] = value
    table, code, extra = handler(config, **given)
    table.provenance = {"config_sha256": config.sha256, "command": command, "version": __version__, **extra}
    return table, code


def _load_limits(config: ScenarioConfig) -> LimitTable:
    if config.limit_table is None:
        raise ConfigError("safety commands need a [safety] section with limit_table")
    return config.limit_table


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".part")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit_plot_data(out_path: Path, table: ResultTable) -> list:
    """One gnuplot-ready two-column file per non-axis column."""
    written = []
    x_col = table.columns[0]
    for j, col in enumerate(table.columns[1:], start=1):
        name = col.split("[", 1)[0]
        target = out_path.with_name(out_path.name + f".{name}.plot")
        lines = [f"# {k}={v}" for k, v in table.provenance.items()]
        lines.append(f"# {x_col} {col}")
        for row in table.rows:
            lines.append(f"{row[0]!r} {row[j]!r}")
        _write_atomic(target, "\n".join(lines) + "\n")
        written.append(target)
    return written


def _points_arg(text: str) -> int:
    try:
        points = int(text)
    except ValueError:
        points = None
    if points is None or points < 2:
        raise argparse.ArgumentTypeError(f"need an integer >= 2, got {text!r}")
    return points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bodychannel",
        description="Simulate, calibrate, and optimize resonant body power channels.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario file (.scn)")
    parser.add_argument("--out", default="-", help="output CSV path, or - for stdout")
    parser.add_argument("--plot-data", action="store_true", help="also write two-column plot files")
    parser.add_argument("--points", type=_points_arg, help="override sweep.points (an integer >= 2)")
    parser.add_argument("--tolerance", type=float, help="relative tolerance for oracle-check")
    parser.add_argument("--joint", action="store_true", help="multi: verify against the joint network")
    parser.add_argument("--oracle", action="store_true", help="solve the netlist (MNA) instead of the closed form")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_scenario(args.config)
        if args.plot_data and args.out == "-":
            raise ConfigError("--plot-data needs --out pointing at a file")
        flags = {flag: getattr(args, flag) for flag in ("points", "tolerance", "joint", "oracle")}
        table, code = run(args.command, config, **flags)
    except (ConfigError, CsvFormatError, DuplicateAxisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, acnet.SingularNetworkError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL

    text = table.to_csv()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        out_path = Path(args.out)
        _write_atomic(out_path, text)
        if args.plot_data:
            _emit_plot_data(out_path, table)
    return code


if __name__ == "__main__":
    sys.exit(main())
