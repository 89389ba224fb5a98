"""Every config value of a kind its rule does not take is a config error
that names the value's dotted key, for each rule `load_config` applies: the
rows of `cli.RULES` (the world table is checked by its spec) and the rows of
each `sweep.points` table."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadapt.cli import RULES, load_config
from metadapt.errors import ConfigError
from metadapt.rules import NAMES, Rule
from metadapt.training import MetaConfig

_VALUES = {
    "whole": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "text": st.text(max_size=8),
    "list": st.lists(st.integers(), min_size=1, max_size=3),
    "table": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}

#: The kinds of value no rule of each kind takes.
_WRONG = {
    "a whole number": ("float", "bool", "text", "list", "table"),
    "a number": ("bool", "text", "list", "table"),
    'a number or "inf"': ("bool", "text", "list", "table"),
    "true or false": ("whole", "float", "text", "list", "table"),
    "a string": ("whole", "float", "bool", "list", "table"),
    NAMES: ("whole", "float", "bool", "text", "table"),
    "a list of tables": ("whole", "float", "bool", "text", "list", "table"),
}


def _rows(rules: dict, prefix: str = ""):
    for name, rule in rules.items():
        if isinstance(rule, Rule):
            yield f"{prefix}{name}", rule
        elif name != "world":
            yield from _rows(rule, f"{prefix}{name}.")


def _wrong_value(rule: Rule):
    values = st.one_of(*(_VALUES[kind] for kind in _WRONG[rule.kind]))
    if rule.kind == 'a number or "inf"':
        values = values.filter(lambda v: v != "inf")
    return values if rule.null else st.one_of(st.none(), values)


_CASES = ([(key, key, rule) for key, rule in _rows(RULES)]
          + [(f"sweep.points[0].{name}", name, rule) for name, rule in MetaConfig.RULES.items()])


@pytest.mark.parametrize("key, name, rule", _CASES, ids=[case[0] for case in _CASES])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_value_of_the_wrong_kind_is_a_config_error_naming_its_key(data, key, name, rule):
    value = data.draw(_wrong_value(rule), label="value")
    if key != name:  # a row of a sweep point
        override = f"sweep.points={json.dumps([{name: value}])}"
    else:
        override = f"{key}={json.dumps(value)}"
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        load_config(None, [override])
