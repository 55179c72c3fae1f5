"""Every scenario section is read by one rule: a key error names
``{section}.{key}``, a model's own error names its section, and extra
receivers keep their numeric order."""

from dataclasses import replace

import pytest

from bodychannel.cli import ConfigError, load_scenario

SOURCES = {
    "grounded": [("kind", "grounded"), ("V_in", "12"), ("convention", "pp"), ("R_S", "50")],
    "wearable": [("kind", "wearable"), ("V_in", "5"), ("convention", "rms"), ("C_ret_tx", "1p")],
    "resonant-wearable": [
        ("kind", "resonant-wearable"), ("V_in", "5"), ("convention", "amplitude"),
        ("C_ret_tx", "1p"), ("Q", "10"),
    ],
}

#: Keys that are not quantities, and the one optional key.
NOT_QUANTITY = {"kind", "convention", "axis", "points", "spacing", "limit_table", "data", "free"}
OPTIONAL = {("sweep", "frequency")}


def _receiver(c_ret: str) -> list:
    return [("C_ret", c_ret), ("C_GB", "5p"), ("L", "4.222m"), ("R_L", "1k"), ("C_L", "0"), ("r_s", "10")]


def _sections(kind: str = "grounded") -> dict:
    return {
        "receiver": _receiver("1p"),
        "receiver2": _receiver("2p"),
        "receiver3": _receiver("3p"),
        "source": SOURCES[kind],
        "body": [("C_B", "150p"), ("R_B", "0")],
        "sweep": [
            ("axis", "load"), ("lo", "100"), ("hi", "10k"), ("points", "11"),
            ("spacing", "log"), ("frequency", "1.6M"),
        ],
        "safety": [("limit_table", "limits.lmt")],
        "fit": [("data", "measured.csv"), ("free", "C_ret,C_GB")],
    }


def _write(tmp_path, sections: dict, head: str = ""):
    (tmp_path / "limits.lmt").write_text("source_label x\nband 1e3 1e8 10\n", encoding="utf-8")
    (tmp_path / "measured.csv").write_text(
        "frequency[Hz],p_out_rms[W]\n1e6,0.001\n2e6,0.002\n", encoding="utf-8"
    )
    text = head + "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in items) + "\n"
        for name, items in sections.items()
    )
    path = tmp_path / "case.scn"
    path.write_text(text, encoding="utf-8")
    return path


def _error(tmp_path, sections: dict, head: str = "") -> str:
    with pytest.raises(ConfigError) as excinfo:
        load_scenario(_write(tmp_path, sections, head))
    return str(excinfo.value)


def _with(sections: dict, section: str, edit) -> dict:
    return {**sections, section: edit(list(sections[section]))}


# Every key of every section under a grounded source, and each kind's source keys.
KEYS = [
    ("grounded", section, key)
    for section, items in _sections().items()
    if section != "source"
    for key, _ in items
] + [(kind, "source", key) for kind, items in SOURCES.items() for key, _ in items]


def _ids(cases):
    return [f"{kind}-{section}.{key}" for kind, section, key in cases]


def test_every_synthetic_scenario_parses(tmp_path):
    for kind in SOURCES:
        config = load_scenario(_write(tmp_path, _sections(kind)))
        assert [rx.c_ret for rx in config.receivers] == [1e-12, 2e-12, 3e-12]
        assert config.fit.free == ["C_ret", "C_GB"]
        assert config.limit_table_path.name == "limits.lmt"


MISSING = [case for case in KEYS if case[1:] not in OPTIONAL]


@pytest.mark.parametrize("kind, section, key", MISSING, ids=_ids(MISSING))
def test_a_missing_key_names_section_and_key(tmp_path, kind, section, key):
    sections = _with(_sections(kind), section, lambda items: [kv for kv in items if kv[0] != key])
    assert _error(tmp_path, sections) == f"{section}.{key}: required key is missing"


SECTIONS = [("grounded", name, "extra") for name in _sections() if name != "source"] + [
    (kind, "source", "extra") for kind in SOURCES
]


@pytest.mark.parametrize("kind, section, key", SECTIONS, ids=_ids(SECTIONS))
def test_an_extra_key_names_section_and_key(tmp_path, kind, section, key):
    sections = _with(_sections(kind), section, lambda items: items + [(key, "1")])
    assert _error(tmp_path, sections) == f"{section}.{key}: unknown key"


QUANTITIES = [case for case in KEYS if case[2] not in NOT_QUANTITY]


@pytest.mark.parametrize("kind, section, key", QUANTITIES, ids=_ids(QUANTITIES))
def test_an_unparsable_quantity_names_section_and_key(tmp_path, kind, section, key):
    sections = _with(
        _sections(kind), section, lambda items: [(k, "y" if k == key else v) for k, v in items]
    )
    assert _error(tmp_path, sections) == f"{section}.{key}: cannot parse quantity 'y'"


#: (kind, section, key, text, model field, value): a value each model rejects.
REJECTED = [
    ("grounded", "receiver", "R_L", "-5", "r_l", -5.0),
    ("grounded", "receiver2", "C_L", "-1p", "c_l", -1e-12),
    ("grounded", "receiver3", "C_ret", "0", "c_ret", 0.0),
    ("grounded", "body", "C_B", "-150p", "c_b", -150e-12),
    ("grounded", "source", "V_in", "-1", "v_in", -1.0),
    ("grounded", "source", "R_S", "-50", "r_src", -50.0),
    ("grounded", "source", "convention", "x", "convention", "x"),
    ("wearable", "source", "C_ret_tx", "0", "c_ret_tx", 0.0),
    ("resonant-wearable", "source", "Q", "0.5", "q", 0.5),
]


def _model(config, section: str):
    if section.startswith("receiver"):
        return config.receivers[int(section[len("receiver"):] or 1) - 1]
    return getattr(config, section)


@pytest.mark.parametrize(
    "kind, section, key, text, name, value", REJECTED, ids=[f"{c[1]}.{c[2]}" for c in REJECTED]
)
def test_a_model_error_names_its_section_once(tmp_path, kind, section, key, text, name, value):
    good = _model(load_scenario(_write(tmp_path, _sections(kind))), section)
    with pytest.raises(ValueError) as expected:
        replace(good, **{name: value})
    sections = _with(
        _sections(kind), section, lambda items: [(k, text if k == key else v) for k, v in items]
    )
    assert _error(tmp_path, sections) == f"{section}: {expected.value}"


def test_extra_receivers_are_read_in_numeric_order(tmp_path):
    s = _sections()
    sections = {"receiver": s["receiver"], "receiver3": s["receiver3"], "receiver2": s["receiver2"]}
    sections.update((name, s[name]) for name in ("source", "body"))
    config = load_scenario(_write(tmp_path, sections))
    assert [rx.c_ret for rx in config.receivers] == [1e-12, 2e-12, 3e-12]


def test_receiver02_and_receiver2_are_both_kept_in_file_order(tmp_path):
    s = _sections()
    sections = {
        "receiver": s["receiver"],
        "receiver3": s["receiver3"],
        "receiver02": _receiver("4p"),
        "receiver2": s["receiver2"],
        "source": s["source"],
        "body": s["body"],
    }
    config = load_scenario(_write(tmp_path, sections))
    assert [rx.c_ret for rx in config.receivers] == [1e-12, 4e-12, 2e-12, 3e-12]


def test_a_default_section_key_must_live_inside_a_section(tmp_path):
    message = _error(tmp_path, _sections(), head="[DEFAULT]\nstray = 1\n\n")
    assert message == "stray: keys must live inside a section"


@pytest.mark.parametrize("token", ["R_L", "C_L", "c_ret", "Q"])
def test_a_fit_token_outside_the_fit_parameters_is_rejected(tmp_path, token):
    sections = _with(_sections(), "fit", lambda items: [("data", "measured.csv"), ("free", f"C_ret,{token}")])
    assert _error(tmp_path, sections) == (
        f"fit.free: unknown parameter {token!r}; expected from ['C_GB', 'C_ret', 'L', 'r_s']"
    )
