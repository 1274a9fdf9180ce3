"""Span tracing of shapespline from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent, document id) in flat in-memory
arrays.  A module-level function is replaced under every name any
``shapespline`` module binds it to, because modules import each other's
functions by name (``spline`` does ``from .criteria import check_...``);
a method is replaced on its class.  ``uninstall()`` restores the
originals.  A target that does not exist is listed in ``absent`` and
skipped, so the tracer keeps working when a later version removes or
renames a function.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

from layers import TARGETS


class Tracer:
    def __init__(self, targets: dict = TARGETS):
        self.labels = list(targets)
        self.targets = targets
        self.absent = []
        self._restore = []
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.doc = array("q")
        self.current_doc = -1
        self._stack = [-1]

    def _wrap(self, label_id: int, fn):
        name, start, end, parent, doc, stack = (
            self.name, self.start, self.end, self.parent, self.doc, self._stack
        )
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name)
            name.append(label_id)
            parent.append(stack[-1])
            doc.append(tracer.current_doc)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("shapespline") and m]
        for label_id, label in enumerate(self.labels):
            mod_name, path = self.targets[label]
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(label)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = None if owner is None else vars(owner).get(attr)
            if not callable(fn) or isinstance(fn, type):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label_id, fn)
            if outer:  # method: replace on the class
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def aggregate(self):
        """(calls, self_ns) per label, as numpy arrays indexed like ``labels``.

        A span's self time is its duration minus the durations of its
        direct children; calls nest strictly, so children never overlap.
        """
        if len(self._stack) != 1:
            raise RuntimeError("aggregate() called inside an open span")
        n_labels = len(self.labels)
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = np.bincount(names, weights=dur - child, minlength=n_labels)
        calls = np.bincount(names, minlength=n_labels)
        return calls, self_ns

    def save(self, path) -> None:
        """Write the spans recorded since the last ``clear()``."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            doc=np.frombuffer(self.doc, dtype=np.int64),
        )
