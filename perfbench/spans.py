"""Timing wrappers around the layer boundaries of mge, installed from outside.

`install()` replaces each function named in TARGETS by a wrapper that
records one span per call: (id, parent id, name, start, end, thread,
outcome).  Spans stay in memory and `dump()` writes them as JSON at exit.
The engine source is not modified; the wrappers are patched into every mge
module that binds the function by name (verify, enumerator and cli import
`find_embedding`, `is_isomorphic` and `construct` directly), and into the
class for methods, properties and cached properties.

Each thread keeps its own span stack, because `verify._pmap` runs work on a
thread pool; a span opened on a pool thread has no parent.  Per-element hot
calls (`TableGroup.mul`, `bfs_closure`, `_hashable`, `perms.compose`) are
left alone on purpose: their wrapper cost would swamp the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from functools import cached_property


def _found(result):
    return result is not None


def _passed(result):
    return result.status == "pass"


def _entries(result):
    return len(result.entries)


def _witness_kind(args):
    return f"verify.replay_witness.{args[0].get('kind')}"


# (module, attribute path, span name or a function of the call's arguments,
#  outcome of the call's result or None)
TARGETS = [
    ("expressions", "parse_expr", "expressions.parse_expr", None),
    ("groups", "construct", "groups.construct", None),
    ("groups", "build_perm_group", "groups.build_perm_group", None),
    ("groups", "build_product", "groups.build_product", None),
    ("groups", "TableGroup.labels", "groups.labels", None),
    ("groups", "TableGroup.table_hash", "groups.table_hash", None),
    ("registry", "Resolved.build", "registry.build", None),
    ("enumerator", "enumerate_groups", "enumerator.enumerate_groups", None),
    ("enumerator", "Catalog.from_json", "enumerator.Catalog.from_json", _entries),
    ("morphisms", "Fingerprint.of", "morphisms.Fingerprint.of", None),
    ("morphisms", "rich_invariant_key", "morphisms.rich_invariant_key", None),
    ("morphisms", "is_isomorphic", "morphisms.is_isomorphic", _found),
    ("morphisms", "find_embedding", "morphisms.find_embedding", _found),
    ("morphisms", "Morphism.witness_words", "morphisms.witness_words", None),
    ("verify", "verify_claim", "verify.verify_claim", _passed),
    ("verify", "generated_subgroup", "verify.generated_subgroup", None),
    ("verify", "minimal_embedding_search", "verify.minimal_embedding_search", None),
    ("verify", "contains_all_of_order", "verify.contains_all", None),
    ("verify", "contains_all_upto", "verify.contains_all", None),
    ("verify", "replay_witness", _witness_kind, bool),
    ("cli", "main", "cli.main", None),
]


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, outcome):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)  # atomic under the interpreter lock
            parent = stack[-1] if stack else -1
            label = name if isinstance(name, str) else name(args)
            stack.append(sid)
            result, returned = None, False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                out = outcome(result) if outcome and returned else None
                spans.append((sid, parent, label, t0, t1, threading.get_ident(), out))

        return wrapper

    def dump(self, path) -> None:
        names: dict[str, int] = {}
        rows = []
        for sid, parent, label, t0, t1, tid, out in self.spans:
            rows.append([sid, parent, names.setdefault(label, len(names)), t0, t1, tid, out])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh)


def _patch_function(rec: Recorder, mod, attr: str, name, outcome) -> None:
    orig = getattr(mod, attr)
    wrapper = rec.wrap(orig, name, outcome)
    bound = 0
    for m in list(sys.modules.values()):
        mname = getattr(m, "__name__", "")
        if mname != "mge" and not mname.startswith("mge."):
            continue
        for key, val in list(vars(m).items()):
            if val is orig:
                setattr(m, key, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"{mod.__name__}.{attr} is bound nowhere")


def _patch_member(rec: Recorder, cls, attr: str, name, outcome) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(rec.wrap(raw.__func__, name, outcome)))
    elif isinstance(raw, cached_property):
        cp = cached_property(rec.wrap(raw.func, name, outcome))
        cp.__set_name__(cls, attr)
        setattr(cls, attr, cp)
    elif isinstance(raw, property):
        setattr(cls, attr, property(rec.wrap(raw.fget, name, outcome)))
    elif callable(raw):
        setattr(cls, attr, rec.wrap(raw, name, outcome))
    else:
        raise RuntimeError(f"cannot wrap {cls.__name__}.{attr} ({type(raw).__name__})")


def install() -> Recorder:
    """Import every mge layer and wrap the TARGETS.  Raises if a target is
    missing, so a rename in the engine cannot silently drop a layer."""
    rec = Recorder()
    for modname in ("expressions", "groups", "registry", "enumerator",
                    "morphisms", "verify", "cli"):
        importlib.import_module(f"mge.{modname}")
    for modname, path, name, outcome in TARGETS:
        mod = sys.modules[f"mge.{modname}"]
        if "." in path:
            clsname, attr = path.split(".")
            _patch_member(rec, getattr(mod, clsname), attr, name, outcome)
        else:
            _patch_function(rec, mod, path, name, outcome)
    return rec
