"""Inputs at the edges of double precision, in the library and through the CLI.

Both properties draw from one value set: subnormal, tiny, huge, zero,
negative and non-finite numbers beside typical component values.  A public
closed form returns finite numbers or raises a ``ValueError`` subclass; a
CLI run exits 0, 2, 3 or 4 with no traceback and no numpy warning, and
every CSV it writes holds finite numbers only.
"""

import contextlib
import io
import math
import re
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodychannel import analysis, channel, cli, optimize, safety
from bodychannel.acnet import SingularNetworkError
from bodychannel.channel import BodyModel, GroundedTx, ReceiverParams, ResonantWearableTx, WearableTx, body_potential
from bodychannel.safety import LimitBand, LimitTable
from helpers import SCENARIO_DIR, public_functions

VALUES = (5e-324, 1e-300, 1e300, 1e-30, 1e30, 0.0, -1.0, math.nan, math.inf, 1e-12, 30e-12, 1e3, 0.33e-3, 1e-15, 1e15)

# ── the library ─────────────────────────────────────────────────────────

#: one source of each kind from a drive and a return capacitance
_SOURCES = (
    lambda v_in, c_ret_tx: GroundedTx(v_in, "rms"),
    lambda v_in, c_ret_tx: WearableTx(v_in, "pp", c_ret_tx),
    lambda v_in, c_ret_tx: ResonantWearableTx(v_in, "rms", c_ret_tx, 10.0),
)
_SENSITIVITIES = [(target, param) for target in ("f0", "gain") for param in ("c_ret", "c_gb", "l")]
_FIELDS = ("c_ret", "r_l", "l", "c_gb", "c_l", "r_s")
#: one band over every positive frequency of VALUES
_TABLE = LimitTable("every frequency", (LimitBand(5e-324, 1e308, contact_current_limit=0.02),))
_BODY = BodyModel(c_b=150e-12)
#: a lossy resonant receiver, and three of its fields drawn per selector k
_RX = ReceiverParams(c_ret=30e-12, r_l=1e3, l=0.33e-3, r_s=50.0)
_RX_DRAWS = (
    ("c_ret", "c_gb", "l"),
    ("c_ret", "r_l", "r_s"),
    ("l", "r_l", "c_l"),
    ("c_gb", "c_l", "r_s"),
    ("c_ret", "l", "r_s"),
    ("r_l", "c_gb", "l"),
)


def _receiver(k, a, b, c):
    """``_RX`` with the three fields of ``_RX_DRAWS[k]`` set to a, b and c."""
    return replace(_RX, **dict(zip(_RX_DRAWS[k], (a, b, c))))


def _point(op):
    return [op.v_b, op.v_o, op.p_out_rms]


#: the grid of the closed-form sweeps that the peak, Q and the fit read
_PEAK_GRID = np.geomspace(1e2, 1e13, 201)
#: the free fields of a fit, per receiver draw, each with a positive start in _RX
_FREE = (("c_ret", "l"), ("r_s",), ("l", "r_s"), ("c_ret",), ("c_ret", "r_s", "l"), ("l",))


def _closed_form_sweep(k, a, b, c, d):
    """The closed-form frequency sweep of ``_receiver(k, a, b, c)`` from a
    grounded source of d V peak to peak."""
    return analysis.simulate_frequency_sweep(_receiver(k, a, b, c), GroundedTx(d, "pp"), _BODY, _PEAK_GRID)


def _fit(k, a, b, c, d):
    """The residual and fitted fields of a fit of ``_FREE[k]`` from ``_RX`` to
    :func:`_closed_form_sweep`."""
    report = analysis.fit_params(_closed_form_sweep(k, a, b, c, d), _FREE[k], _RX, GroundedTx(d, "pp"), _BODY)
    return [report.residual_rms, *report.fitted_params.values()]


def _bare_sweep(k, a, b, c, d):
    """A five-row sweep with no circuit, as imported: frequencies a + i*b
    (in Python floats, so the draw itself warns nothing), powers 0, c, d, c, 0."""
    a, b = float(a), float(b)
    return analysis.SweepResult("frequency", [a + i * b for i in range(5)], [0.0, c, d, c, 0.0])


#: name (a public function, with a variant in brackets) -> the call on a
#: selector k (a source kind, a sensitivity, a receiver draw) and four
#: drawn values, returning the numbers and arrays it gives
CLOSED_FORMS = {
    # channel
    "to_rms": lambda k, a, b, c, d: [channel.to_rms(a, ("pp", "amplitude", "rms")[k % 3])],
    "from_rms": lambda k, a, b, c, d: [channel.from_rms(a, ("pp", "amplitude", "rms")[k % 3])],
    "v_in_rms": lambda k, a, b, c, d: [channel.v_in_rms(_SOURCES[k % 3](a, b))],
    "body_potential": lambda k, a, b, c, d: [body_potential(_SOURCES[k % 3](a, b), BodyModel(c_b=c), d)],
    "transfer_function": lambda k, a, b, c, d: [channel.transfer_function(_receiver(k, a, b, c), d)],
    "transfer_function [grid]": lambda k, a, b, c, d: [channel.transfer_function(_receiver(k, a, b, c), [d, 1e6])],
    "resonant_frequency": lambda k, a, b, c, d: [channel.resonant_frequency(_receiver(k, a, b, c))],
    "resonant_gain": lambda k, a, b, c, d: [channel.resonant_gain(_receiver(k, a, b, c))],
    "no_inductor_voltage": lambda k, a, b, c, d: [
        channel.no_inductor_voltage(
            ReceiverParams(c_ret=a, r_l=b, c_gb=1e-12, c_l=1e-12 * (k % 2)), c, d, simplified=k >= 3
        )
    ],
    "received_power": lambda k, a, b, c, d: _point(
        channel.received_power(_receiver(k, a, b, c), _SOURCES[k % 3](5.0, 1e-12), _BODY, d)
    ),
    "channel_response": lambda k, a, b, c, d: channel.channel_response(
        _receiver(k, a, b, c), _SOURCES[k % 3](5.0, 1e-12), _BODY, [d, 1e6]
    ),
    "channel_response [load]": lambda k, a, b, c, d: channel.channel_response(
        _RX, _SOURCES[k % 3](a, 1e-12), _BODY, d, r_l=[b, c, 1e3]
    ),
    # analysis
    "simulate": lambda k, a, b, c, d: [
        getattr(
            analysis.simulate(
                analysis.AXES[k % 4], _receiver(k, a, b, c), _SOURCES[k % 3](5.0, 1e-12), _BODY, [d, 2.0 * d],
                f=1e6, mna=k >= 4,
            ),
            name,
        )
        for name in ("p_out_rms", "v_o")
    ],
    "simulate_frequency_sweep": lambda k, a, b, c, d: [
        analysis.simulate_frequency_sweep(_receiver(k, a, b, c), _SOURCES[k % 3](5.0, 1e-12), _BODY, [d, 2.0 * d]).p_out_rms
    ],
    "fit_total_capacitance": lambda k, a, b, c, d: [analysis.fit_total_capacitance(a, b)],
    "capacitance_ratio_from_power": lambda k, a, b, c, d: [analysis.capacitance_ratio_from_power(a, b, c)],
    "sensitivity": lambda k, a, b, c, d: [
        analysis.sensitivity(ReceiverParams(c_ret=a, c_gb=b, l=c, r_l=1e3), *_SENSITIVITIES[k]).value
    ],
    "sensitivity [power]": lambda k, a, b, c, d: [
        analysis.sensitivity(
            ReceiverParams(c_ret=a, c_gb=b, l=c, r_l=1e3, r_s=50.0), "power", _FIELDS[k],
            f=d, src=GroundedTx(1e3, "rms"), body=_BODY,
        ).value
    ],
    "find_resonant_peak": lambda k, a, b, c, d: list(analysis.find_resonant_peak(_closed_form_sweep(k, a, b, c, d))),
    "find_resonant_peak [grid]": lambda k, a, b, c, d: list(analysis.find_resonant_peak(_bare_sweep(k, a, b, c, d))),
    "q_factor": lambda k, a, b, c, d: [analysis.q_factor(_closed_form_sweep(k, a, b, c, d)).q],
    "q_factor [grid]": lambda k, a, b, c, d: [analysis.q_factor(_bare_sweep(k, a, b, c, d)).q],
    "fit_params": _fit,
    "oracle_gap": lambda k, a, b, c, d: [analysis.oracle_gap(_receiver(k, a, b, c), [d, 2.0 * d])],
    "approximation_gap": lambda k, a, b, c, d: [
        analysis.approximation_gap(_receiver(k, a, b, c), _SOURCES[k % 3](5.0, 1e-12), _BODY, [d, 2.0 * d])
    ],
    # optimize
    "optimal_load": lambda k, a, b, c, d: [
        getattr(optimize.optimal_load(_receiver(k, a, b, c), _SOURCES[k % 3](5.0, 1e-12), _BODY, d, (1.0, 1e6)), name)
        for name in ("argmax", "objective_at_argmax")
    ],
    "optimal_load [bounds]": lambda k, a, b, c, d: [
        optimize.optimal_load(_RX, _SOURCES[k % 3](c, 1e-12), _BODY, d, (a, b)).objective_at_argmax
    ],
    "optimal_inductor": lambda k, a, b, c, d: [optimize.optimal_inductor(ReceiverParams(c_ret=a, c_gb=b, r_l=1e3), c)],
    "max_power_under_current_limit": lambda k, a, b, c, d: [
        getattr(
            optimize.max_power_under_current_limit(
                replace(_RX, c_ret=a), _SOURCES[k % 3](b, 1e-12), _BODY, c, d
            ),
            name,
        )
        for name in ("argmax", "objective_at_argmax")
    ],
    "max_power_under_current_limit [bounds]": lambda k, a, b, c, d: [
        optimize.max_power_under_current_limit(
            _RX, _SOURCES[k % 3](5.0, 1e-12), _BODY, 1.6e6, c, bounds=(a, b)
        ).objective_at_argmax
    ],
    "multi_receiver_power": lambda k, a, b, c, d: [
        x for op in optimize.multi_receiver_power([_receiver(k, a, b, c), _RX], _SOURCES[k % 3](d, 1e-12), _BODY)
        for x in _point(op)
    ],
    "joint_loading_check": lambda k, a, b, c, d: [
        x
        for record in optimize.joint_loading_check([_receiver(k, a, b, c), _RX], _SOURCES[k % 3](d, 1e-12), _BODY)
        for x in (record.joint_power_rms, record.deviation)
    ],
    "compare_topologies": lambda k, a, b, c, d: list(
        optimize.compare_topologies(
            _receiver(k, a, b, c), ResonantWearableTx(1.0, "rms", 1e-12, 10.0), _BODY, [d, 2.0 * d]
        ).values()
    ),
    # safety
    "contact_current": lambda k, a, b, c, d: [safety.contact_current(_SOURCES[k % 3](a, b), BodyModel(c_b=c), d)],
    "contact_current [netlist]": lambda k, a, b, c, d: [
        safety.contact_current(_SOURCES[k % 3](a, b), BodyModel(c_b=c), d, mna=True)
    ],
    "max_safe_input": lambda k, a, b, c, d: [
        safety.max_safe_input(BodyModel(c_b=c), d, _TABLE, _SOURCES[k % 3](1.0, b))
    ],
    "check": lambda k, a, b, c, d: [
        getattr(safety.check(_SOURCES[k % 3](a, b), BodyModel(c_b=c), d, _TABLE), name)
        for name in ("contact_current_rms", "margin")
    ],
}

#: public functions of channel, analysis, optimize and safety that the
#: property does not call, and why
EXEMPT = {
    "load_limit_table": "reads a file; each band's numbers pass the one range rule",
}

#: a drawn value: an element of VALUES as a Python float or a numpy float64
_VALUE = st.sampled_from(VALUES) | st.sampled_from(VALUES).map(np.float64)
_F64 = np.float64


@settings(max_examples=3000, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(CLOSED_FORMS)),
    k=st.integers(0, len(_SENSITIVITIES) - 1),
    x=st.tuples(*[_VALUE] * 4),
)
@example(name="fit_total_capacitance", k=0, x=(5e-324, 5e-324, 0.0, 0.0))
@example(name="fit_total_capacitance", k=0, x=(5e-324, 1.0, 0.0, 0.0))
@example(name="capacitance_ratio_from_power", k=0, x=(5e-324, 5e-324, 5e-324, 0.0))
@example(name="sensitivity", k=5, x=(5e-324, 5e-324, 0.33e-3, 0.0))  # d gain / d l
@example(name="sensitivity", k=3, x=(5e-324, 5e-324, 0.33e-3, 0.0))  # d gain / d c_ret
@example(name="sensitivity", k=0, x=(5e-324, 1e-300, 0.33e-3, 0.0))  # d f0 / d c_ret
@example(name="contact_current", k=0, x=(5e-324, 0.0, 1e30, 1e300))
@example(name="body_potential", k=2, x=(1e-300, 1e300, 5e-324, 1e6))
@example(name="max_safe_input", k=1, x=(1.0, 5e-324, 5e-324, 1e6))
@example(name="check", k=0, x=(5e-324, 0.0, 150e-12, 1e6))
# (V_B / I_limit)^2 overflows in Python floats: an OverflowError, not a ValueError
@example(name="max_power_under_current_limit", k=0, x=(30e-12, 1e300, 1e-300, 1e30))
# p * d log P / d c_gb is 0 * inf: numpy's invalid-value warning
@example(name="sensitivity [power]", k=3, x=(1e-30, 5e-324, 1e-12, 1e300))
# numpy float64 arguments computed in numpy and warned
@example(name="fit_total_capacitance", k=0, x=(_F64(5e-324), _F64(5e-324), 0.0, 0.0))
@example(name="capacitance_ratio_from_power", k=0, x=(1e-3, 1e3, _F64(5e-324), 0.0))
@example(name="optimal_inductor", k=0, x=(30e-12, 0.0, _F64(1e300), 0.0))
@example(name="check", k=0, x=(5e-324, 0.0, 150e-12, _F64(1e-300)))
# the netlist's power |v_o|^2 / R_L overflowed outside any np.errstate
@example(name="oracle_gap", k=0, x=(1e300, 1e300, _F64(1e-15), _F64(1e3)))
# an amplitude that is not finite, and one whose conversion overflows
@example(name="to_rms", k=0, x=(math.inf, 0.0, 0.0, 0.0))
@example(name="from_rms", k=0, x=(1e308, 0.0, 0.0, 0.0))
# the closed-form peak's cubic overflowed Python's ** (as OverflowError), with
# C_L = 1e160 and with R_L = 1e150 (the r_s = 50 of _RX rides along)
@example(name="find_resonant_peak", k=2, x=(1e-3, 1e3, 1e160, 5.0))
@example(name="find_resonant_peak", k=2, x=(1e-3, 1e150, 1e4, 5.0))
# L = 1e-300: (tau*k*L)^2 underflows to 0, and the peak is the L = 0 one
@example(name="find_resonant_peak", k=2, x=(1e-300, 1e3, 1e-12, 5.0))
# the parabola through the top three rows overflowed, as did Q's crossings
@example(name="find_resonant_peak [grid]", k=0, x=(1e300, 0.2e300, 1e308, 1.7e308))
@example(name="q_factor [grid]", k=0, x=(1e300, 0.2e300, 1e308, 1.7e308))
# subnormal rows: the half-power span is 0, and Q divided by it
@example(name="q_factor [grid]", k=0, x=(5e-324, 5e-324, 5e-324, 1e-323))
def test_a_closed_form_gives_finite_numbers_or_a_value_error(name, k, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the property
        warnings.simplefilter("ignore", optimize.LoadingAssumptionWarning)  # the package's own, by design
        warnings.simplefilter("ignore", analysis.WindowTruncationWarning)  # likewise
        try:
            results = CLOSED_FORMS[name](k, *x)
        except (ValueError, SingularNetworkError):  # the second only from a netlist-backed call
            return
    assert all(np.isfinite(r).all() for r in results), results


@pytest.mark.parametrize("short", ("channel", "analysis", "optimize", "safety"))
def test_the_library_property_calls_every_public_function(short):
    covered = {name.split(" [")[0] for name in CLOSED_FORMS}
    names = public_functions(short)
    missing = [name for name in names if name not in covered and name not in EXEMPT]
    assert not missing, f"bodychannel.{short} functions neither in CLOSED_FORMS nor EXEMPT: {missing}"


def test_every_exemption_names_a_public_function():
    public = {name for short in ("channel", "analysis", "optimize", "safety") for name in public_functions(short)}
    assert set(EXEMPT) <= public - {name.split(" [")[0] for name in CLOSED_FORMS}


# ── the CLI ─────────────────────────────────────────────────────────────

SCENARIOS = ("fig4a.scn", "fig4c.scn", "safety_example.scn", "resonant_wearable.scn", "rx1.scn", "wearable_inductance.scn")
KEYS = ("C_ret", "C_GB", "L", "R_L", "C_L", "r_s", "C_B", "R_B", "V_in", "lo", "hi", "frequency", "C_ret_tx", "R_S")
#: VALUES as a scenario writes them, with SI suffixes for the typical ones
TEXTS = ("5e-324", "1e-300", "1e300", "1e-30", "1e30", "0", "-1", "nan", "inf", "1p", "30p", "1k", "0.33m", "1e-15", "1e15")
#: the flags drawn per run, with the value each takes when set; --points is always 50
_FLAG_ARGS = {"tolerance": ["--tolerance", "1e-6"], "joint": ["--joint"], "oracle": ["--oracle"]}


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """A copy of the shipped scenarios beside the tables and data they name."""
    return shutil.copytree(SCENARIO_DIR, tmp_path_factory.mktemp("fuzz"), dirs_exist_ok=True)


def _with_key(text: str, key: str, value: str) -> str:
    """``text`` with ``key`` set to ``value``; a key the scenario lacks
    (``frequency``, ``C_ret_tx``, ``R_S``) goes at the top of its section."""
    line = f"{key} = {value}"
    if re.search(rf"^{key} = ", text, flags=re.M):
        return re.sub(rf"^{key} = .*$", line, text, flags=re.M)
    section = "[sweep]" if key == "frequency" else "[source]"
    return text.replace(f"{section}\n", f"{section}\n{line}\n")


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(
    scenario=st.sampled_from(SCENARIOS),
    keys=st.tuples(*[st.tuples(st.sampled_from(KEYS), st.sampled_from(TEXTS))] * 2),
    command=st.sampled_from(cli.COMMANDS),
    set_flags=st.tuples(*[st.booleans()] * len(_FLAG_ARGS)),
)
@example(scenario="fig4a.scn", keys=(("hi", "1e300"),) * 2, command="oracle-check", set_flags=(False,) * 3)
@example(scenario="safety_example.scn", keys=(("V_in", "5e-324"),) * 2, command="safety", set_flags=(False,) * 3)
def test_a_cli_run_exits_with_a_code_and_writes_finite_numbers(scenario_dir, scenario, keys, command, set_flags):
    text = (scenario_dir / scenario).read_text()
    for key, value in keys:
        text = _with_key(text, key, value)
    path = scenario_dir / "fuzzed.scn"
    path.write_text(text, encoding="utf-8")
    out = scenario_dir / "fuzzed.csv"
    out.unlink(missing_ok=True)

    reads = cli._FLAGS[command]
    argv = [command, "--config", str(path), "--out", str(out)]
    argv += ["--points", "50"] if "points" in reads else []
    for (flag, args), chosen in zip(_FLAG_ARGS.items(), set_flags):
        argv += args if chosen and flag in reads else []
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)  # a traceback fails the property here

    assert code in (0, 2, 3, 4), (argv, text, stderr.getvalue())
    foreign = [
        w
        for w in caught
        if not (issubclass(w.category, UserWarning) and w.category.__module__.startswith("bodychannel."))
    ]
    assert not foreign, (argv, text, [str(w.message) for w in foreign])
    if out.exists():
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(",")), (argv, text)
