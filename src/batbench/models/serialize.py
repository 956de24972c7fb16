"""Model files: one ``.npz`` (numpy's ``.npy`` arrays in a zip, NEP 1). Each
array-valued constructor parameter is an entry of its name, a tree ensemble
its TreeStack (``<field>.<column>``, ``.roots``, ``.target_means``), and the
``header`` entry the uint8 bytes of a JSON object: format version, family and
every other parameter. Version 1 files, one JSON document, still load."""

from __future__ import annotations

import functools
import inspect
import json
import zipfile

import numpy as np

from .tree import _NODE_FIELDS, TreeModel, TreeStack

FORMAT_VERSION = 2


@functools.cache
def _fields(cls) -> tuple[str, ...]:
    return tuple(inspect.signature(cls).parameters)


def _model_cls(doc: dict, version: int):
    from . import FAMILIES  # the family table imports this module

    cls = next((s.model_cls for s in FAMILIES if s.family == doc.get("family")), None)
    if cls is None or doc.get("format_version") != version:
        raise ValueError(f"unknown model family {doc.get('family')!r} or unsupported "
                         f"format_version {doc.get('format_version')!r}")
    return cls


def save_model(model, path) -> None:
    """Write ``path`` as named, the same bytes for the same model."""
    stack, state, arrays = getattr(model, "_stack", None), {}, {}
    for name in _fields(type(model)):
        value = getattr(model, name)
        if stack is not None and value is stack.trees:
            arrays.update({f"{name}.{c}": getattr(stack, c) for c in (*_NODE_FIELDS, "roots")})
            arrays[f"{name}.target_means"] = [t.training_target_mean for t in value]
        elif isinstance(value, np.ndarray):
            arrays[name] = value
        else:
            state[name] = value
    header = {"format_version": FORMAT_VERSION, "family": model.family, "state": state}
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), np.uint8), **arrays)


def load_model(path):
    """The model saved at ``path``; a file that holds none raises ValueError."""
    try:
        if not zipfile.is_zipfile(path):  # version 1
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            return _model_cls(doc, 1)(**{
                name: [TreeModel(**s) for s in value] if isinstance(value, list)
                and value and isinstance(value[0], dict) else value
                for name, value in doc["state"].items()})
        with np.load(path, allow_pickle=False) as npz:
            header = json.loads(npz["header"].tobytes())
            cls, state = _model_cls(header, FORMAT_VERSION), header["state"]
            for name in _fields(cls):
                if f"{name}.roots" in npz:
                    columns = {c: npz[f"{name}.{c}"] for c in _NODE_FIELDS}
                    state[name] = TreeStack(columns, npz[f"{name}.roots"], state["n_features_in"],
                                            npz[f"{name}.target_means"].tolist())
                elif name in npz:
                    state[name] = npz[name]
            return cls(**state)
    except (AttributeError, KeyError, TypeError, zipfile.BadZipFile) as err:
        raise ValueError(f"malformed model file {path}: {err!r}") from err
