"""In-memory span tracer that wraps etfnc functions from the outside.

A ``Tracer`` replaces named functions with timing wrappers for the
duration of a ``with`` block and puts every original back on exit. A
module-level function is wrapped in every loaded module of etfnc
that binds it, because callers that did ``from .x import f`` look the
name up in their own module; a method is wrapped on its class.

Each call records one span ``(name, start, end, parent)``; hooks may add
counts at the same boundary. Spans stay in memory until the caller
writes them out.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "etfnc"


class Tracer:
    """Wrap ``targets`` while active; collect spans and counters.

    ``targets`` maps a span name to ``"module:qualname"``. ``hooks``
    maps a span name to ``hook(args, kwargs, result, counters)``, called
    after each successful call. Targets that do not resolve are skipped
    and listed in ``missing``.
    """

    def __init__(self, targets, hooks=None):
        self.targets = dict(targets)
        self.hooks = dict(hooks or {})
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self.missing = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def __enter__(self):
        try:
            for name, spec in self.targets.items():
                self._install(name, spec)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, name, spec):
        module_name, qualname = spec.split(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(name)
            return
        wrapper = self._wrap(name, original)
        if path:  # a method: callers find it on the class
            self._patch(owner, attr, original, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != PACKAGE:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return traced


def summarize(spans, names):
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    child spans (calls run on one thread, so children never overlap).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in names}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
    return out
