"""The kind and range of every configuration value, and the one check of them.

Each dataclass that a config table feeds declares its fields' rules as
`RULES` and checks itself with `check` in `__post_init__`; `cli.RULES` adds
the values only the command line reads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral, Real

from .errors import ConfigError

#: The kind of a list of names, each one whitespace-free token and one
#: component of a file path (world names become both).
NAMES = "a list of names (ASCII letters, digits, _ or -)"
_NAME = re.compile(r"[A-Za-z0-9_-]+")

#: Each kind and each range as messages and the README name it, and its test.
KINDS = {
    "a whole number": lambda v: isinstance(v, Integral) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v),
    'a number or "inf"': lambda v: (KINDS["a number"](v)
                                    or (isinstance(v, float) and v == math.inf)),
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    NAMES: lambda v: (
        isinstance(v, (list, tuple)) and all(isinstance(s, str) and _NAME.fullmatch(s) for s in v)),
    "two whole numbers": lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                                    and all(map(KINDS["a whole number"], v))),
    "a list of tables": lambda v: isinstance(v, list) and all(isinstance(t, dict) for t in v),
}
RANGES = {
    "": lambda v: True,
    "non-negative": lambda v: v >= 0,
    "positive": lambda v: v > 0,
    "at least 1": lambda v: v >= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    # the world spec names this range from corpus.MAX_SENTENCE_TOKENS: a KeyError if they part
    "1 <= first <= second <= 175": lambda v: 1 <= v[0] <= v[1] <= 175,
    "two or more, distinct": lambda v: len(set(v)) == len(v) >= 2,
}


@dataclass(frozen=True)
class Rule:
    """A kind and a range (keys of KINDS and RANGES), and None too if
    `null`. A rule with `choices` takes one of those names, or a list of one
    or more distinct ones; its `range` names that set, and `noun` one name."""

    kind: str
    range: str = ""
    null: bool = False
    choices: tuple[str, ...] | None = None
    noun: str = ""


def check(rules: dict[str, Rule], values: dict, where: str) -> None:
    """Raise a ConfigError naming the first of `values` that breaks its rule
    (a name without a rule is not checked); `where.format(name)` names it."""
    for name, rule in rules.items():
        if name not in values or (values[name] is None and rule.null):
            continue
        value, label = values[name], where.format(name)
        if rule.choices is None:
            if not KINDS[rule.kind](value):
                raise ConfigError(f"{label} must be {'null or ' * rule.null}{rule.kind}, "
                                  f"got {value!r}")
            if not RANGES[rule.range](value):
                raise ConfigError(f"{label} must be {rule.range}, got {value!r}")
            continue
        many = rule.kind == NAMES
        if many and not KINDS[rule.kind](value):
            raise ConfigError(f"{label}: expected a list of {rule.noun} names, got {value!r}")
        unknown = [n for n in (value if many else [value]) if n not in rule.choices]
        if unknown:
            raise ConfigError(f"{label}: unknown {rule.noun} {', '.join(map(repr, unknown))}; "
                              f"{rule.range}: {', '.join(rule.choices)}")
        if many and (not value or len(set(value)) != len(value)):
            raise ConfigError(f"{label} must be {rule.range}, got {value!r}")
