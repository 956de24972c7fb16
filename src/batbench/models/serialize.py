"""JSON round-trip for trained models: family tag plus constructor arguments.

A model's state is its constructor's parameters in signature order, each read
back from the attribute of the same name. Arrays are written as nested lists,
and tree ensembles as lists of tree states.
"""

from __future__ import annotations

import functools
import inspect
import json

import numpy as np

from .tree import TreeModel

FORMAT_VERSION = 1


@functools.cache
def _fields(cls) -> tuple[str, ...]:
    return tuple(inspect.signature(cls).parameters)


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, TreeModel):
        return _state(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _state(model) -> dict:
    return {name: _encode(getattr(model, name)) for name in _fields(type(model))}


def _decode(value):
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [TreeModel(**state) for state in value]
    return value


def model_to_dict(model) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "state": _state(model),
    }


def model_from_dict(doc: dict):
    from . import FAMILIES  # the family table imports this module

    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version: {doc.get('format_version')!r}")
    family = doc["family"]
    cls = next((s.model_cls for s in FAMILIES if s.family == family), None)
    if cls is None:
        raise ValueError(f"unknown model family {family!r}")
    return cls(**{name: _decode(value) for name, value in doc["state"].items()})


def save_model(model, path) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model_to_dict(model)))


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
