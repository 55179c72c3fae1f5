"""Command-line surface: scenario configs, sweep orchestration, optimization
and safety commands, CSV emission, and measured-data import.

Scenario files are INI-style with strict keys; quantities are SI base units
with optional suffix multipliers p n u m k M.  Emitted CSVs carry a
provenance header (config hash, command, version) and re-import losslessly.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, acnet, analysis, optimize, safety
from .analysis import AXES, AXIS_LABEL, SweepResult
from .channel import (
    BodyModel,
    GroundedTx,
    ReceiverParams,
    ResonantWearableTx,
    SourceModel,
    WearableTx,
    resonant_frequency,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_SAFETY = 4

COMMANDS = (
    "sweep-freq",
    "sweep-load",
    "sweep-inductance",
    "sweep-vin",
    "resonance",
    "optimize-load",
    "optimize-inductor",
    "safety",
    "max-safe-vin",
    "fit",
    "multi",
    "compare-topologies",
    "oracle-check",
)


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

    def grid(self, points_override: Optional[int] = None) -> np.ndarray:
        n = points_override or self.points
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
    seed: Optional[int]
    fit: Optional[FitSpec]
    sha256: str
    base_dir: Path

    @property
    def receiver(self) -> ReceiverParams:
        return self.receivers[0]


_RECEIVER_KEYS = ("C_ret", "C_GB", "L", "R_L", "C_L", "r_s")
_BODY_KEYS = ("C_B", "R_B")
_SWEEP_REQUIRED = ("axis", "lo", "hi", "points", "spacing")
_SOURCE_KINDS = ("grounded", "wearable", "resonant-wearable")

#: config tokens -> ReceiverParams field names (shared with the fit command)
PARAM_TOKEN = {"C_ret": "c_ret", "C_GB": "c_gb", "r_s": "r_s", "L": "l"}
_PARAM_UNIT = {"C_ret": "F", "C_GB": "F", "r_s": "ohm", "L": "H"}


def _section(cp: configparser.ConfigParser, name: str, required: bool = True):
    if not cp.has_section(name):
        if required:
            raise ConfigError(f"missing required section [{name}]")
        return None
    return dict(cp.items(name))


def _take(items: dict, section: str, key: str) -> str:
    try:
        return items.pop(key)
    except KeyError:
        raise ConfigError(f"{section}.{key}: required key is missing") from None


def _reject_unknown(items: dict, section: str) -> None:
    if items:
        key = sorted(items)[0]
        raise ConfigError(f"{section}.{key}: unknown key")


def _build_receiver(section: str, items: dict) -> ReceiverParams:
    values = {k: parse_quantity(_take(items, section, k), f"{section}.{k}") for k in _RECEIVER_KEYS}
    _reject_unknown(items, section)
    try:
        return ReceiverParams(
            c_ret=values["C_ret"],
            c_gb=values["C_GB"],
            l=values["L"],
            r_l=values["R_L"],
            c_l=values["C_L"],
            r_s=values["r_s"],
        )
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _build_source(items: dict) -> SourceModel:
    kind = _take(items, "source", "kind").strip()
    if kind not in _SOURCE_KINDS:
        raise ConfigError(f"source.kind: expected one of {_SOURCE_KINDS}, got {kind!r}")
    v_in = parse_quantity(_take(items, "source", "V_in"), "source.V_in")
    convention = _take(items, "source", "convention").strip()
    if convention not in ("pp", "amplitude", "rms"):
        raise ConfigError(
            f"source.convention: expected pp, amplitude, or rms, got {convention!r}"
        )
    try:
        if kind == "grounded":
            r_src = parse_quantity(_take(items, "source", "R_S"), "source.R_S")
            _reject_unknown(items, "source")
            return GroundedTx(v_in=v_in, convention=convention, r_src=r_src)
        c_ret_tx = parse_quantity(_take(items, "source", "C_ret_tx"), "source.C_ret_tx")
        if kind == "wearable":
            _reject_unknown(items, "source")
            return WearableTx(v_in=v_in, convention=convention, c_ret_tx=c_ret_tx)
        q = parse_quantity(_take(items, "source", "Q"), "source.Q")
        _reject_unknown(items, "source")
        return ResonantWearableTx(v_in=v_in, convention=convention, c_ret_tx=c_ret_tx, q=q)
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from None


def _build_sweep(items: dict) -> SweepSpec:
    axis = _take(items, "sweep", "axis").strip()
    if axis not in AXES:
        raise ConfigError(f"sweep.axis: expected one of {AXES}, got {axis!r}")
    lo = parse_quantity(_take(items, "sweep", "lo"), "sweep.lo")
    hi = parse_quantity(_take(items, "sweep", "hi"), "sweep.hi")
    points_text = _take(items, "sweep", "points")
    try:
        points = int(points_text)
    except ValueError:
        raise ConfigError(f"sweep.points: expected an integer, got {points_text!r}") from None
    spacing = _take(items, "sweep", "spacing").strip()
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
    if spacing == "log" and lo <= 0.0:
        raise ConfigError("sweep: log spacing needs lo > 0")
    return SweepSpec(axis=axis, lo=lo, hi=hi, points=points, spacing=spacing, frequency=frequency)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; unknown sections or keys fail."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#",),
        comment_prefixes=("#",),
        interpolation=None,
        strict=True,
    )
    cp.optionxform = str  # keep key case: C_ret and c_ret differ
    try:
        cp.read_string(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config must be UTF-8") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if cp.defaults():
        key = sorted(cp.defaults())[0]
        raise ConfigError(f"{key}: keys must live inside a section")

    receiver_sections = ["receiver"]
    for name in cp.sections():
        if name.startswith("receiver") and name != "receiver":
            suffix = name[len("receiver"):]
            if not suffix.isdigit() or int(suffix) < 2:
                raise ConfigError(f"[{name}]: extra receivers are named receiver2, receiver3, ...")
            receiver_sections.append(name)
        elif name not in ("receiver", "source", "body", "sweep", "safety", "run", "fit"):
            raise ConfigError(f"[{name}]: unknown section")
    receiver_sections = ["receiver"] + sorted(
        (n for n in receiver_sections if n != "receiver"), key=lambda n: int(n[len("receiver"):])
    )

    receivers = []
    for name in receiver_sections:
        items = _section(cp, name)
        receivers.append(_build_receiver(name, items))

    source = _build_source(_section(cp, "source"))
    body_items = _section(cp, "body")
    body_values = {k: parse_quantity(_take(body_items, "body", k), f"body.{k}") for k in _BODY_KEYS}
    _reject_unknown(body_items, "body")
    try:
        body = BodyModel(c_b=body_values["C_B"], r_b=body_values["R_B"])
    except ValueError as exc:
        raise ConfigError(f"body: {exc}") from None

    sweep_items = _section(cp, "sweep", required=False)
    sweep = _build_sweep(sweep_items) if sweep_items is not None else None

    limit_table_path = None
    safety_items = _section(cp, "safety", required=False)
    if safety_items is not None:
        rel = _take(safety_items, "safety", "limit_table")
        _reject_unknown(safety_items, "safety")
        limit_table_path = (path.parent / rel).resolve()
        if not limit_table_path.exists():
            raise ConfigError(f"safety.limit_table: file not found: {limit_table_path}")

    seed = None
    run_items = _section(cp, "run", required=False)
    if run_items is not None:
        seed_text = _take(run_items, "run", "seed")
        _reject_unknown(run_items, "run")
        try:
            seed = int(seed_text)
        except ValueError:
            raise ConfigError(f"run.seed: expected an integer, got {seed_text!r}") from None

    fit_spec = None
    fit_items = _section(cp, "fit", required=False)
    if fit_items is not None:
        data_rel = _take(fit_items, "fit", "data")
        free_text = _take(fit_items, "fit", "free")
        _reject_unknown(fit_items, "fit")
        tokens = [t.strip() for t in free_text.split(",") if t.strip()]
        for t in tokens:
            if t not in PARAM_TOKEN:
                raise ConfigError(
                    f"fit.free: unknown parameter {t!r}; expected from {sorted(PARAM_TOKEN)}"
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
        seed=seed,
        fit=fit_spec,
        sha256=hashlib.sha256(raw).hexdigest(),
        base_dir=path.parent,
    )


@dataclass
class ResultTable:
    """Rectangular numeric table with unit-bearing column names and a
    timestamp-free provenance header."""

    columns: list
    rows: list
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must match the column count")

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
        rows = [[x, p] for x, p in zip(sweep.values, sweep.p_out_rms)]
    else:
        columns = [label, *FULL_SCHEMA_TAIL]
        rows = [
            [x, v.real, v.imag, abs(v), p]
            for x, v, p in zip(sweep.values, sweep.v_o, sweep.p_out_rms)
        ]
    return ResultTable(columns=columns, rows=rows)


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
        if not text or text.startswith("#"):
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
            values = [float(p) for p in parts]
        except ValueError:
            raise CsvFormatError(path, lineno, f"malformed numeric field in {text!r}") from None
        if not values[0] > 0.0:
            raise CsvFormatError(path, lineno, f"non-positive axis value {values[0]!r}")
        data.append(values)
        lines_seen.append(lineno)
    if header is None:
        raise CsvFormatError(path, 1, "missing header line")
    if len(data) < 2:
        raise CsvFormatError(path, lines_seen[-1] if lines_seen else 1, "need at least 2 data rows")

    axis_values = [row[0] for row in data]
    seen: dict = {}
    offenders = []
    for v in axis_values:
        seen[v] = seen.get(v, 0) + 1
    offenders = sorted(v for v, n in seen.items() if n > 1)
    if offenders:
        raise DuplicateAxisError(path, offenders)
    if any(b < a for a, b in zip(axis_values, axis_values[1:])):
        warnings.warn(
            UnsortedRowsWarning(f"{path}: rows were not sorted by axis; re-sorted ascending"),
            stacklevel=2,
        )
        data.sort(key=lambda row: row[0])

    arr = np.asarray(data, dtype=float)
    if power_only:
        return SweepResult(axis=axis, values=arr[:, 0], p_out_rms=arr[:, 1])
    return SweepResult(
        axis=axis,
        values=arr[:, 0],
        p_out_rms=arr[:, 4],
        v_o=arr[:, 1] + 1j * arr[:, 2],
    )


def _require_axis(config: ScenarioConfig, axis: str) -> SweepSpec:
    if config.sweep is None:
        raise ConfigError("this command needs a [sweep] section")
    if config.sweep.axis != axis:
        raise ConfigError(f"sweep.axis: this command needs axis = {axis}, got {config.sweep.axis!r}")
    return config.sweep


def _operating_frequency(config: ScenarioConfig) -> float:
    """Fixed-frequency commands use sweep.frequency, else the receiver resonance."""
    if config.sweep is not None and config.sweep.frequency is not None:
        return config.sweep.frequency
    return resonant_frequency(config.receiver)


def run(
    command: str,
    config: ScenarioConfig,
    points: Optional[int] = None,
    tolerance: Optional[float] = None,
    joint: bool = False,
    oracle: bool = False,
    seed: Optional[int] = None,
) -> tuple:
    """Execute one command against a validated scenario.

    Returns ``(ResultTable, exit_code)``; raises ConfigError for validation
    problems and model-level exceptions for the rest (main() maps both to
    exit codes).
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    rx, src, body = config.receiver, config.source, config.body
    extra_provenance: dict = {}

    if command == "sweep-freq":
        spec = _require_axis(config, "frequency")
        xs = spec.grid(points)
        sweep = (
            analysis.simulate_mna_sweep("frequency", rx, src, body, xs)
            if oracle
            else analysis.simulate_frequency_sweep(rx, src, body, xs)
        )
        table, code = sweep_to_table(sweep), EXIT_OK

    elif command == "sweep-load":
        spec = _require_axis(config, "load")
        f = _operating_frequency(config)
        xs = spec.grid(points)
        sweep = (
            analysis.simulate_mna_sweep("load", rx, src, body, xs, f)
            if oracle
            else analysis.simulate_load_sweep(rx, src, body, f, xs)
        )
        extra_provenance["frequency_hz"] = repr(f)
        table, code = sweep_to_table(sweep), EXIT_OK

    elif command == "sweep-inductance":
        spec = _require_axis(config, "inductance")
        xs = spec.grid(points)
        sweep = (
            analysis.simulate_mna_sweep("inductance", rx, src, body, xs)
            if oracle
            else analysis.simulate_inductance_sweep(rx, src, body, xs)
        )
        table, code = sweep_to_table(sweep), EXIT_OK

    elif command == "sweep-vin":
        spec = _require_axis(config, "input_voltage")
        f = _operating_frequency(config)
        xs = spec.grid(points)
        sweep = (
            analysis.simulate_mna_sweep("input_voltage", rx, src, body, xs, f)
            if oracle
            else analysis.simulate_input_voltage_sweep(rx, src, body, f, xs)
        )
        extra_provenance["frequency_hz"] = repr(f)
        table, code = sweep_to_table(sweep), EXIT_OK

    elif command == "resonance":
        f0 = resonant_frequency(rx)
        xs = np.array([f0])
        sweep = (
            analysis.simulate_mna_sweep("frequency", rx, src, body, xs)
            if oracle
            else analysis.simulate_frequency_sweep(rx, src, body, xs)
        )
        table, code = sweep_to_table(sweep), EXIT_OK

    elif command == "optimize-load":
        spec = _require_axis(config, "load")
        f = _operating_frequency(config)
        result = optimize.optimal_load(rx, src, body, f, (spec.lo, spec.hi))
        extra_provenance["frequency_hz"] = repr(f)
        extra_provenance["constraint"] = result.constraint_name or "none"
        table = ResultTable(
            columns=["load_opt[ohm]", "p_out_rms[W]", "constraint_active"],
            rows=[[result.argmax, result.objective_at_argmax, float(result.constraint_active)]],
        )
        code = EXIT_OK

    elif command == "optimize-inductor":
        if config.sweep is None or config.sweep.frequency is None:
            raise ConfigError("optimize-inductor needs sweep.frequency as the target")
        f_target = config.sweep.frequency
        l_opt = optimize.optimal_inductor(rx, f_target)
        achieved = resonant_frequency(replace(rx, l=l_opt))
        table = ResultTable(
            columns=["inductance_opt[H]", "resonant_frequency[Hz]"],
            rows=[[l_opt, achieved]],
        )
        code = EXIT_OK

    elif command == "safety":
        table_obj = _load_limits(config)
        f = _safety_frequency(config)
        report = safety.check(src, body, f, table_obj, rx=rx if oracle else None, mna=oracle)
        extra_provenance["limit_source"] = table_obj.source_label
        table = ResultTable(
            columns=[
                "frequency[Hz]",
                "contact_current_rms[A]",
                "limit_rms[A]",
                "margin",
                "passed",
            ],
            rows=[[f, report.contact_current_rms, report.limit, report.margin, float(report.passed)]],
        )
        code = EXIT_OK if report.passed else EXIT_SAFETY

    elif command == "max-safe-vin":
        table_obj = _load_limits(config)
        f = _safety_frequency(config)
        v_max = safety.max_safe_input(body, f, table_obj, src)
        band = table_obj.band_for(f)
        unit = {"pp": "Vpp", "amplitude": "Vamp", "rms": "Vrms"}[src.convention]
        extra_provenance["limit_source"] = table_obj.source_label
        table = ResultTable(
            columns=[f"v_in_max[{unit}]", "frequency[Hz]", "limit_rms[A]"],
            rows=[[v_max, f, band.contact_current_limit]],
        )
        code = EXIT_OK

    elif command == "fit":
        if config.fit is None:
            raise ConfigError("fit needs a [fit] section with data and free keys")
        observed = import_measured(config.fit.data, axis="frequency")
        free_fields = [PARAM_TOKEN[t] for t in config.fit.free]
        report = analysis.fit_params(observed, free_fields, rx, src, body)
        columns = [f"{t}[{_PARAM_UNIT[t]}]" for t in config.fit.free]
        row = [report.fitted_params[PARAM_TOKEN[t]] for t in config.fit.free]
        columns += ["residual_rms[W]", "iterations", "converged"]
        row += [report.residual_rms, float(report.iterations), float(report.converged)]
        table = ResultTable(columns=columns, rows=[row])
        code = EXIT_OK

    elif command == "multi":
        points_out = optimize.multi_receiver_power(config.receivers, src, body)
        if joint:
            records = optimize.joint_loading_check(config.receivers, src, body)
            table = ResultTable(
                columns=[
                    "receiver",
                    "frequency[Hz]",
                    "v_o_mag[V]",
                    "p_out_rms[W]",
                    "p_joint_rms[W]",
                    "deviation_rel",
                ],
                rows=[
                    [
                        float(r.receiver_index + 1),
                        r.frequency,
                        abs(r.independent.v_o),
                        r.independent.p_out_rms,
                        r.joint_power_rms,
                        r.deviation,
                    ]
                    for r in records
                ],
            )
        else:
            table = ResultTable(
                columns=["receiver", "frequency[Hz]", "v_o_mag[V]", "p_out_rms[W]"],
                rows=[
                    [float(i + 1), pt.frequency, abs(pt.v_o), pt.p_out_rms]
                    for i, pt in enumerate(points_out)
                ],
            )
        code = EXIT_OK

    elif command == "compare-topologies":
        spec = _require_axis(config, "frequency")
        if not isinstance(src, ResonantWearableTx):
            raise ConfigError(
                "compare-topologies needs source.kind = resonant-wearable "
                "(supplies C_ret_tx and Q for the wearable curves)"
            )
        xs = spec.grid(points)
        curves = optimize.compare_topologies(rx, body, xs, c_ret_tx=src.c_ret_tx, q=src.q)
        by_name = {c.topology: c for c in curves}
        table = ResultTable(
            columns=[
                "frequency[Hz]",
                "m2m_gain[dB]",
                "m2w_gain[dB]",
                "w2w_gain[dB]",
                "w2w_resonant_gain[dB]",
            ],
            rows=[
                [
                    float(xs[i]),
                    float(by_name["M2M"].gain_db[i]),
                    float(by_name["M2W"].gain_db[i]),
                    float(by_name["W2W"].gain_db[i]),
                    float(by_name["W2W-resonant"].gain_db[i]),
                ]
                for i in range(len(xs))
            ],
        )
        code = EXIT_OK

    else:  # oracle-check
        spec = _require_axis(config, "frequency")
        xs = spec.grid(points)
        gaps = analysis.oracle_gap(rx, xs)
        tol = tolerance if tolerance is not None else 1e-9
        extra_provenance["tolerance"] = repr(tol)
        table = ResultTable(
            columns=["frequency[Hz]", "rel_diff"],
            rows=[[float(x), float(g)] for x, g in zip(xs, gaps)],
        )
        code = EXIT_OK if float(np.max(gaps)) <= tol else EXIT_MODEL

    provenance = {
        "config_sha256": config.sha256,
        "command": command,
        "version": __version__,
    }
    effective_seed = seed if seed is not None else config.seed
    if effective_seed is not None:
        provenance["seed"] = str(effective_seed)
    provenance.update(extra_provenance)
    table.provenance = provenance
    return table, code


def _load_limits(config: ScenarioConfig):
    if config.limit_table_path is None:
        raise ConfigError("safety commands need a [safety] section with limit_table")
    try:
        return safety.load_limit_table(config.limit_table_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _safety_frequency(config: ScenarioConfig) -> float:
    if config.sweep is None or config.sweep.frequency is None:
        raise ConfigError("safety commands need sweep.frequency (the operating point)")
    return config.sweep.frequency


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


_MODEL_ERRORS = (
    acnet.NetlistError,
    acnet.SingularElementError,
    acnet.SingularNetworkError,
    analysis.AmbiguousPeakError,
    analysis.WindowTruncationError,
    analysis.InconsistentMeasurementError,
    analysis.IdentifiabilityError,
    optimize.UnboundedObjectiveError,
    optimize.InfeasibleError,
    safety.UncoveredBandError,
    safety.IncompleteTableError,
)


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
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--points", type=_points_arg, help="override sweep.points (an integer >= 2)")
    parser.add_argument("--tolerance", type=float, help="relative tolerance for oracle-check")
    parser.add_argument("--joint", action="store_true", help="multi: verify against the joint network")
    parser.add_argument("--oracle", action="store_true", help="force the node-level MNA path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_scenario(args.config)
        if args.plot_data and args.out == "-":
            raise ConfigError("--plot-data needs --out pointing at a file")
        table, code = run(
            args.command,
            config,
            points=args.points,
            tolerance=args.tolerance,
            joint=args.joint,
            oracle=args.oracle,
            seed=args.seed,
        )
    except (ConfigError, CsvFormatError, DuplicateAxisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _MODEL_ERRORS as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as exc:
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
