"""Every config field's ConfigError text, pinned value by value.

``data/config_messages.json`` maps ``<class>.<field>`` and a bad value's label
to the exact message its construction raises, or to null where the value is
legal. It was written from the hand-written checks that the per-field rules
replaced, so the rules must keep every message byte for byte.
"""

import json
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from batbench import models
from batbench.cli import RunConfig
from batbench.errors import ConfigError
from batbench.models.config import check_settings

MESSAGES = json.loads(
    (Path(__file__).resolve().parent / "data" / "config_messages.json").read_text()
)
CLASSES = [spec.config_cls for spec in models.FAMILIES] + [RunConfig]
BAD_VALUES = {
    "None": None, "True": True, "False": False, "-1": -1, "0": 0, "2": 2,
    "2.5": 2.5, "-0.5": -0.5, "0.5": 0.5, "'1'": "1", "'rbf'": "rbf", "''": "",
    "[1]": [1], "10**400": 10**400, "inf": float("inf"), "nan": float("nan"),
}
CASES = [(cls, f.name) for cls in CLASSES for f in fields(cls)]


def test_table_covers_every_field_and_value():
    assert sorted(MESSAGES) == sorted(f"{cls.__name__}.{name}" for cls, name in CASES)
    assert all(list(row) == list(BAD_VALUES) for row in MESSAGES.values())


@pytest.mark.parametrize("cls, name", CASES,
                         ids=[f"{cls.__name__}.{name}" for cls, name in CASES])
def test_config_error_text_is_pinned(cls, name):
    expected = MESSAGES[f"{cls.__name__}.{name}"]
    for label, value in BAD_VALUES.items():
        try:
            cls(**{name: value})
            message = None
        except ConfigError as exc:
            message = str(exc)
        assert message == expected[label], label


def test_a_field_without_a_rule_fails_at_construction():
    @dataclass(frozen=True)
    class Bare:
        n: int = 1
        __post_init__ = check_settings

    with pytest.raises(TypeError, match="Bare.n has no rule"):
        Bare()
