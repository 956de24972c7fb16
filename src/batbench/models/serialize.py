"""JSON round-trip for trained models: family tag plus constructor arguments.

A model's state is its constructor's parameters in signature order, each read
back from the attribute of the same name. Arrays are written as nested lists,
and tree ensembles as lists of tree states. A model file holds one tree's
lists at a time: save_model writes a tree list tree by tree, and load_model
builds each tree as soon as it is parsed.
"""

from __future__ import annotations

import functools
import inspect
import json

import numpy as np

from .tree import TreeModel

FORMAT_VERSION = 1
_HELD = "\0"  # stands in the document for a tree list that save_model writes


@functools.cache
def _fields(cls) -> tuple[str, ...]:
    return tuple(inspect.signature(cls).parameters)


def _encode(value, held=None):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, TreeModel):
        return _state(value)
    if isinstance(value, tuple):
        if held is not None and value and isinstance(value[0], TreeModel):
            held.append(value)  # save_model writes these trees one at a time
            return _HELD
        return [_encode(v) for v in value]
    return value


def _state(model, held=None) -> dict:
    return {name: _encode(getattr(model, name), held) for name in _fields(type(model))}


def _tree(obj: dict):
    """load_model's object_hook: a tree's state becomes its TreeModel as
    soon as it is parsed, so no more than one tree is held as lists."""
    return TreeModel(**obj) if obj.keys() == set(_fields(TreeModel)) else obj


def _decode(value):
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [TreeModel(**state) for state in value]
    return value


def model_to_dict(model) -> dict:
    return _document(model)


def _document(model, held=None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "state": _state(model, held),
    }


def model_from_dict(doc: dict):
    from . import FAMILIES  # the family table imports this module

    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version: {doc.get('format_version')!r}")
    family = doc["family"]
    cls = next((s.model_cls for s in FAMILIES if s.family == family), None)
    if cls is None:
        raise ValueError(f"unknown model family {family!r}")
    state = doc["state"]
    if isinstance(state, TreeModel):  # load_model's hook built it
        state = {name: getattr(state, name) for name in _fields(TreeModel)}
    return cls(**{name: _decode(value) for name, value in state.items()})


def save_model(model, path) -> None:
    """Write json.dumps(model_to_dict(model)) with the C encoder, which
    json.dump does not use, and each tree list one tree at a time."""
    held: list[tuple] = []
    parts = json.dumps(_document(model, held)).split(json.dumps(_HELD))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(parts[0])
        for trees, part in zip(held, parts[1:]):
            fh.write("[" + json.dumps(_state(trees[0])))
            for tree in trees[1:]:
                fh.write(", " + json.dumps(_state(tree)))
            fh.write("]" + part)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh, object_hook=_tree))
