"""Every config value of a kind its rule does not take is a config error
that names the value's dotted key, for each rule `load_config` applies: the
rows of `cli.RULES` (the world table is checked by its spec) and the rows of
each `sweep.points` table. A world table is a config error or a spec that
fills every role and split."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadapt.cli import RULES, load_config
from metadapt.corpus import Registry, SyntheticWorldSpec
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


_LANGUAGES = ["apa", "bel", "cor", "dun"]
_DOMAINS = ["general", "gears", "herbs", "stars"]
_SIZES = ("train_size", "adapt_size", "valid_size", "test_size", "pretrain_train_size")


@st.composite
def _world_tables(draw):
    """World tables over small pools, at most one value of each spoilt: the
    pretrain domain or a held-out name becomes any name of its pool or one
    unknown name, or a size 0 or null; other sizes are 1 to 3."""
    languages = draw(st.lists(st.sampled_from(_LANGUAGES), min_size=2, max_size=4, unique=True))
    domains = draw(st.lists(st.sampled_from(_DOMAINS), min_size=2, max_size=4, unique=True))
    pretrain = draw(st.sampled_from(domains))
    others = [d for d in domains if d != pretrain]
    table = {
        "languages": languages, "domains": domains, "pretrain_domain": pretrain,
        "heldout_domains": draw(st.lists(st.sampled_from(others), max_size=2, unique=True)),
        "heldout_languages": draw(st.lists(st.sampled_from(languages), max_size=2, unique=True)),
        "content_vocab_size": draw(st.integers(1, 40)),
        "domain_vocab_size": draw(st.integers(1, 40)),
    } | {key: draw(st.integers(1, 3)) for key in _SIZES}
    spoilt = draw(st.sampled_from([None, "pretrain_domain", "heldout_domains",
                                   "heldout_languages", *_SIZES]))
    if spoilt == "pretrain_domain":
        table[spoilt] = draw(st.sampled_from(_DOMAINS + ["unknown"]))
    elif spoilt in ("heldout_domains", "heldout_languages"):
        pool = _DOMAINS if spoilt == "heldout_domains" else _LANGUAGES
        table[spoilt] = table[spoilt] + [draw(st.sampled_from(pool + ["unknown"]))]
    elif spoilt:
        table[spoilt] = draw(st.sampled_from([0, None]))
    return table


@settings(max_examples=500, deadline=None, derandomize=True)
@given(table=_world_tables())
def test_an_accepted_world_spec_fills_every_role_and_split(table):
    """A world table is either a config error, or a spec whose registry
    gives every role at least one DLP and every split at least one pair."""
    try:
        spec = SyntheticWorldSpec.from_dict(table, "world")
    except ConfigError:
        return
    registry = Registry(root=Path("unused"), spec=spec)
    assert {row.role for row in registry.rows} == {"pretrain", "meta_train", "heldout"}
    assert all(size >= 1 for row in registry.rows for size in row.sizes.values())
