"""The scenario file grammar: a strict subset of INI read without
``configparser``, which serves here as the oracle."""

import configparser

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodychannel.channel import GroundedTx
from bodychannel.cli import ConfigError, _parse_sections, load_scenario
from helpers import SCENARIO_DIR

RECEIVER = "[receiver]\nC_ret = 1p\nC_GB = 0\nL = 1m\nR_L = 1k\nC_L = 0\nr_s = 0\n"
REST = "[source]\nkind = grounded\nV_in = 5\nconvention = pp\nR_S = 0\n\n[body]\nC_B = 150p\nR_B = 0\n"


#: text -> (line, message): what the grammar rejects, each naming its line.
REJECTED = {
    "a duplicate section": (RECEIVER + "[receiver]\n", 8, "duplicate section [receiver]"),
    "a duplicate key": (RECEIVER + "C_ret = 2p\n", 8, "duplicate key receiver.C_ret"),
    "a key before any section": ("stray = 1\n" + RECEIVER, 1, "stray: keys must live inside a section"),
    "':' as the delimiter": (RECEIVER.replace("C_ret = 1p", "C_ret: 1p"), 2, "use '=' between key and value, not ':'"),
    "':' before '='": (RECEIVER.replace("C_ret = 1p", "C_ret : x = 1p"), 2, "use '=' between key and value, not ':'"),
    "an indented continuation": (
        RECEIVER.replace("C_ret = 1p", "C_ret = 1p\n  2p"), 3, "a line may not be indented (values take one line)"
    ),
    "an indented key": (RECEIVER.replace("C_GB", " C_GB"), 3, "a line may not be indented (values take one line)"),
    "text after a header": ("[receiver] x\n", 1, "expected a [section] header, got '[receiver] x'"),
    "an empty header": ("[]\n", 1, "expected a [section] header, got '[]'"),
    "a line without '='": (RECEIVER.replace("C_ret = 1p", "C_ret 1p"), 2, "expected [section] or key = value, got 'C_ret 1p'"),
    "an empty key": (RECEIVER.replace("C_ret = 1p", "= 1p"), 2, "expected [section] or key = value, got '= 1p'"),
}


@pytest.mark.parametrize(("text", "line", "message"), REJECTED.values(), ids=REJECTED)
def test_a_line_outside_the_grammar_is_rejected_with_its_line(tmp_path, text, line, message):
    path = tmp_path / "case.scn"
    path.write_text(text + REST, encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}:{line}: {message}"


def test_an_empty_default_section_is_an_unknown_section(tmp_path):
    # configparser would read [DEFAULT] as defaults for every section; the
    # grammar has none.
    path = tmp_path / "case.scn"
    path.write_text("[DEFAULT]\n" + RECEIVER + REST, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^\[DEFAULT\]: unknown section$"):
        load_scenario(path)


def test_comments_blank_lines_and_key_case(tmp_path):
    text = (
        "# a scenario\n\n"
        + RECEIVER.replace("C_ret = 1p", "C_ret = 2p  # inline\n   # indented comment\n\n")
        + REST.replace("kind = grounded", "kind = grounded\t# tab before the comment")
    )
    path = tmp_path / "case.scn"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    config = load_scenario(path)
    assert config.receiver.c_ret == 2e-12
    assert config.source == GroundedTx(v_in=5.0, convention="pp", r_src=0.0)
    # Keys keep their case: c_ret is not C_ret.
    path.write_text(RECEIVER.replace("C_ret", "c_ret") + REST, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^receiver\.C_ret: required key is missing$"):
        load_scenario(path)


def test_every_shipped_scenario_reads_as_configparser_reads_it():
    for path in sorted(SCENARIO_DIR.rglob("*.scn")):
        text = path.read_text(encoding="utf-8")
        assert _parse_sections(text, path) == _configparser_sections(text)


def _configparser_sections(text: str) -> dict:
    """Section -> {key: value} as the scenario loader's former configparser read them."""
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#",), comment_prefixes=("#",), interpolation=None, strict=True
    )
    cp.optionxform = str
    cp.read_string(text)
    return {name: dict(cp.items(name)) for name in cp.sections()}


_NAMES = st.sampled_from(["receiver", "source", "Receiver", "a b", "s]", "[s"])
_KEYS = st.sampled_from(["C_ret", "c_ret", "R_L", "a b", ""])
_SEPARATORS = st.sampled_from([" = ", "=", "= ", " : ", ":", " = = "])
_VALUES = st.sampled_from(["1p", "", "1#2", "1 #2", "1\t# c", "a:b", "x = y", "#"])
_LINES = st.one_of(
    st.builds(lambda name, tail: f"[{name}]{tail}", _NAMES, st.sampled_from(["", "  # c", " x", "]"])),
    st.builds(lambda k, s, v: k + s + v, _KEYS, _SEPARATORS, _VALUES),
    st.sampled_from(["# c", "#", "", "   ", "[]", "[receiver", "C_ret 1p"]),
)
_INDENTS = st.sampled_from(["", "", "", "  ", "\t"])
#: Texts of any of these lines, and texts of lines inside the grammar only.
_TEXTS = st.one_of(
    st.lists(st.builds(str.__add__, _INDENTS, _LINES), max_size=12).map("\n".join),
    st.lists(
        st.one_of(
            st.builds("[{}]{}".format, _NAMES, st.sampled_from(["", "  # c"])),
            st.builds("{}{}{}".format, _KEYS.filter(bool), st.sampled_from([" = ", "=", " = = "]), _VALUES),
            st.sampled_from(["# c", "", "  # c"]),
        ),
        max_size=8,
        unique=True,
    ).map(lambda lines: "\n".join(["[top]", *lines])),
)

#: The messages of what the grammar drops from configparser's syntax.
_SUBSET_ONLY = ("a line may not be indented", "not ':'", "expected a [section] header")


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(text=_TEXTS)
@example(text="[receiver]\nC_ret = 1p # c\nR_L=1k#2\n\n[source]\n# c\nkind = a = b")
def test_the_grammar_reads_as_configparser_or_rejects_what_it_drops(text):
    try:
        expected = _configparser_sections(text)
    except configparser.Error:
        expected = None
    try:
        actual = _parse_sections(text, "case.scn")
    except ConfigError as exc:
        # configparser rejects it too, or it lies outside the subset.
        assert expected is None or any(part in str(exc) for part in _SUBSET_ONLY), (text, str(exc))
        return
    assert actual == expected
    assert [list(items) for items in actual.values()] == [list(items) for items in expected.values()]
