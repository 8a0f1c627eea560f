"""Property tests: both config parsers return or raise ConfigError, nothing else.

The inputs are edits of the bundled configs: a value replaced (wrong type,
fractional integer, zero, negative, non-finite, huge), a key or list entry
dropped, or an unknown key added, anywhere in the tree.  One test applies
every single edit with a fixed set of values, and builds the initial data of
each edit that parses, as both commands do before they run; the other draws
one to three edits with arbitrary values.
"""

import json
from pathlib import Path

import pytest

from branesim.cli import initial_data, parse_mcf_config, parse_run_config
from branesim.solver import ConfigError

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CASES = [
    (parse_run_config, "flat_n1.json"),
    (parse_run_config, "string_n1.json"),
    (parse_run_config, "membrane_n2.json"),
    (parse_mcf_config, "mcf_sine.json"),
]
CASE_IDS = [name for _, name in CASES]
SPECIAL = [0, -1, -0.5, 1.5, 64.7, 2.0, 10**400, 1e308, float("nan"), float("inf")]
SPECIAL += ["", "2", "x", True, False, None, [], {}]
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)


def _load(name):
    return json.loads((CONFIG_DIR / name).read_text())


def _paths(doc, prefix=()):
    """Every location in a JSON tree, as a tuple of keys and list indices."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _edit(doc, path, op, value):
    """``doc`` with the location ``path`` replaced by ``value``, dropped, or given an extra key."""
    if not path:
        return value if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "replace":
        parent[path[-1]] = value
    elif op == "drop":
        del parent[path[-1]]
    elif isinstance(parent[path[-1]], dict):
        parent[path[-1]]["surprise"] = value
    return doc


def _returns_or_raises_config_error(parser, doc):
    try:
        return parser(doc)
    except ConfigError:
        return None


def _builds_or_raises_config_error(cfg):
    """Builds the initial data of a parsed config through the check both commands run first."""
    try:
        initial_data(cfg)
    except ConfigError:
        pass


@pytest.mark.parametrize("parser,name", CASES, ids=CASE_IDS)
def test_config_parsers_every_single_edit(parser, name):
    edits = [("drop", None), ("extra", 0)] + [("replace", v) for v in SPECIAL]
    for path in _paths(_load(name)):
        for op, value in edits:
            cfg = _returns_or_raises_config_error(parser, _edit(_load(name), path, op, value))
            if cfg is not None:
                _builds_or_raises_config_error(cfg)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_config_parsers_random_edits(case, data):
    parser, name = case
    doc = _load(name)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(["replace", "drop", "extra"]))
        doc = _edit(doc, path, op, data.draw(VALUES))
    _returns_or_raises_config_error(parser, doc)
