"""Spans around the library's layers, recorded from outside the library.

Tracer.install wraps every public function of the quantinfo modules that are
already imported, and binds each wrapper in every quantinfo namespace that
holds the original, so `from .quantum import as_basis` in mub.py is traced as
well as quantum.as_basis. The validators (as_* and as_povm) form their own
layer, "validate", and numpy.linalg's eigvalsh, eigh and qr form "linalg".
Spans are kept in memory as [name, layer, start, end, parent, raised] and
only summarised or written out after the traced phase.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all layers plus the time no span
covers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("probability", "quantum", "mub", "channel", "coding", "entangle", "serialize", "cli")
VALIDATORS = frozenset({
    "as_distribution", "as_joint_distribution", "as_doubly_stochastic",
    "as_hermitian", "as_density", "as_basis", "as_povm",
})
LINALG = ("eigvalsh", "eigh", "qr")
HASH = "trace.hash"  # time spent hashing validator inputs; no layer owns it

NAME, LAYER, START, END, PARENT, RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.inputs: set[bytes] = set()
        self.heap_leaves = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def wrap(self, name: str, layer: str, fn, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(record)
            stack.append(sid)
            record[START] = clock()
            try:
                if before is not None:
                    before(sid, args, kwargs)
                return fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
        return traced

    def _hash_input(self, sid, args, kwargs):
        start = time.perf_counter()
        value = args[0] if args else next(iter(kwargs.values()), None)
        self.inputs.add(content_key(value))
        # a leaf span under the validator, so hashing counts as nobody's work
        self.spans.append([HASH, None, start, time.perf_counter(), sid, False])

    def _count_leaves(self, sid, args, kwargs):
        self.heap_leaves += int(np.size(args[0] if args else kwargs["p"]))

    def _bind(self, original, replacement):
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("quantinfo"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every imported quantinfo module's public functions, and numpy.linalg."""
        for layer in LAYERS:
            mod = sys.modules.get(f"quantinfo.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if attr in VALIDATORS:
                    wrapper = self.wrap(f"{layer}.{attr}", "validate", fn, self._hash_input)
                elif attr == "question_strategy":
                    # heap leaves are computed from the input, not measured
                    wrapper = self.wrap(f"{layer}.{attr}", layer, fn, self._count_leaves)
                else:
                    wrapper = self.wrap(f"{layer}.{attr}", layer, fn)
                self._bind(fn, wrapper)
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._undo.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self.wrap(f"linalg.{attr}", "linalg", fn))

    def uninstall(self):
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    # ------------------------------------------------------------ summary

    def export(self) -> dict:
        return {"spans": self.spans, "inputs": sorted(k.hex() for k in self.inputs),
                "heap_leaves": self.heap_leaves}


def content_key(value) -> bytes:
    """Digest of an input by content, so equal arrays count as one input."""
    h = hashlib.blake2b(digest_size=16)
    try:
        arr = np.ascontiguousarray(np.asarray(value))
        if arr.dtype == object:
            raise ValueError
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    except ValueError:  # ragged or non-numeric: fall back to its text
        h.update(repr(value).encode())
    return h.digest()


def summarise(spans, wall_s: float) -> dict:
    """Per-layer calls, self time and errors, and the time no layer covers."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    layers = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
              for name in LAYERS + ("validate", "linalg")}
    per_name: dict[str, int] = {}
    for span, covered in zip(spans, child_time):
        layer = span[LAYER]
        if layer is None:
            continue
        entry = layers[layer]
        entry["calls"] += 1
        entry["self_s"] += span[END] - span[START] - covered
        entry["errors"] += bool(span[RAISED])
        per_name[span[NAME]] = per_name.get(span[NAME], 0) + 1
    attributed = sum(entry["self_s"] for entry in layers.values())
    return {"layers": layers, "calls_by_name": per_name,
            "unattributed_s": wall_s - attributed}
