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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodychannel import analysis, cli, safety
from bodychannel.channel import BodyModel, GroundedTx, ReceiverParams, ResonantWearableTx, WearableTx, body_potential
from bodychannel.safety import LimitBand, LimitTable
from helpers import SCENARIO_DIR

VALUES = (5e-324, 1e-300, 1e300, 1e-30, 1e30, 0.0, -1.0, math.nan, math.inf, 1e-12, 30e-12, 1e3, 0.33e-3, 1e-15, 1e15)

# ── the library ─────────────────────────────────────────────────────────

#: one source of each kind from a drive and a return capacitance
_SOURCES = (
    lambda v_in, c_ret_tx: GroundedTx(v_in, "rms"),
    lambda v_in, c_ret_tx: WearableTx(v_in, "pp", c_ret_tx),
    lambda v_in, c_ret_tx: ResonantWearableTx(v_in, "rms", c_ret_tx, 10.0),
)
_SENSITIVITIES = [(target, param) for target in ("f0", "gain") for param in ("c_ret", "c_gb", "l")]
#: one band over every positive frequency of VALUES
_TABLE = LimitTable("every frequency", (LimitBand(5e-324, 1e308, contact_current_limit=0.02),))

#: name -> the call on a selector k (a source kind or a sensitivity) and four
#: drawn values, returning the floats it gives
CLOSED_FORMS = {
    "fit_total_capacitance": lambda k, a, b, c, d: [analysis.fit_total_capacitance(a, b)],
    "capacitance_ratio_from_power": lambda k, a, b, c, d: [analysis.capacitance_ratio_from_power(a, b, c)],
    "sensitivity": lambda k, a, b, c, d: [
        analysis.sensitivity(ReceiverParams(c_ret=a, c_gb=b, l=c, r_l=1e3), *_SENSITIVITIES[k]).value
    ],
    "body_potential": lambda k, a, b, c, d: [body_potential(_SOURCES[k % 3](a, b), BodyModel(c_b=c), d)],
    "contact_current": lambda k, a, b, c, d: [safety.contact_current(_SOURCES[k % 3](a, b), BodyModel(c_b=c), d)],
    "max_safe_input": lambda k, a, b, c, d: [
        safety.max_safe_input(BodyModel(c_b=c), d, _TABLE, _SOURCES[k % 3](1.0, b))
    ],
    "check": lambda k, a, b, c, d: [
        getattr(safety.check(_SOURCES[k % 3](a, b), BodyModel(c_b=c), d, _TABLE), name)
        for name in ("contact_current_rms", "margin")
    ],
}


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(CLOSED_FORMS)),
    k=st.integers(0, len(_SENSITIVITIES) - 1),
    x=st.tuples(*[st.sampled_from(VALUES)] * 4),
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
def test_a_closed_form_gives_finite_numbers_or_a_value_error(name, k, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the property
        try:
            results = CLOSED_FORMS[name](k, *x)
        except ValueError:
            return
    assert all(math.isfinite(r) for r in results), results


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
