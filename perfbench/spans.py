"""Span recording around calls into revsym's public functions.

:func:`install` wraps each public function of the traced modules and then
replaces every reference to the original function object that the loaded
``revsym`` modules hold: module attributes, and values inside module-level
dicts, lists, tuples and dataclass instances (such as ``cli._CLOSED_FORMS``).
Callers that look a function up at call time therefore reach the wrapper,
whichever module they import it from.  A function that a later version
renames or removes simply records no spans.

Spans stay in memory in a :class:`Recorder` and are written out by the
process that ran the command, when it exits.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from typing import Any, Callable

# module -> (layer, functions).  Layer None makes each function its own
# layer; functions None traces every public function of the module.
SPANNED = {
    "revsym.dissection_oracle": (None, ("enumerate_count", "count_chord_diagrams", "count_by_series")),
    "revsym.power_series": (None, ("lagrange_coefficients", "revert_direct")),
    "revsym.closed_forms": ("closed_forms", None),
    "revsym.symbols": ("symbols", None),
}
# modules whose calls are counted but get no span
COUNTED = {"revsym.exact_arith": ("exact_arith", None)}


def _lagrange_work(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"terms": len(result), "bits": max((abs(v).bit_length() for v in result), default=0)}


def _first_arg(name: str) -> Callable[[tuple, dict, Any], dict]:
    def work(args: tuple, kwargs: dict, result: Any) -> dict:
        return {name: args[0] if args else kwargs[name]}
    return work


# layer -> what to keep from a call that returned, for the computed work counts
WORK = {
    "dissection_oracle.enumerate_count": _first_arg("n"),
    "dissection_oracle.count_chord_diagrams": _first_arg("p"),
    "power_series.lagrange_coefficients": _lagrange_work,
}


class Recorder:
    """Spans as ``[layer, parent, start, end, work]`` lists, and call counts.

    Start and end are read from ``clock``, which the child process sets to
    a clock that leaves out the time its speed probes take.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        sid = len(self.spans)
        span = [layer, self._stack[-1] if self._stack else None, self.clock(), None, None]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = self.clock()
            self._stack.pop()
        work = WORK.get(layer)
        if work is not None:
            span[4] = work(args, kwargs, result)
        return result

    def count(self, layer: str) -> None:
        self.counts[layer] = self.counts.get(layer, 0) + 1


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


def _wrapper(recorder: Recorder, layer: str, fn: Callable, spanned: bool) -> Callable:
    if spanned:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return recorder.call(layer, fn, args, kwargs)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            recorder.count(layer)
            return fn(*args, **kwargs)
    return traced


def _replace(value: Any, targets: dict[int, Callable], seen: set[int], depth: int = 0) -> Any:
    """``value`` with every target function swapped for its wrapper.

    Dicts, lists and dataclass instances are changed in place; a tuple that
    holds a target is rebuilt, so the caller must store the returned value.
    """
    if id(value) in targets:
        return targets[id(value)]
    if depth > 4 or id(value) in seen:
        return value
    if isinstance(value, dict):
        seen.add(id(value))
        for key, item in value.items():
            new = _replace(item, targets, seen, depth + 1)
            if new is not item:
                value[key] = new
    elif isinstance(value, list):
        seen.add(id(value))
        for i, item in enumerate(value):
            new = _replace(item, targets, seen, depth + 1)
            if new is not item:
                value[i] = new
    elif isinstance(value, tuple):
        seen.add(id(value))
        items = [_replace(item, targets, seen, depth + 1) for item in value]
        if any(new is not old for new, old in zip(items, value)):
            return type(value)._make(items) if hasattr(value, "_fields") else tuple(items)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        seen.add(id(value))
        for f in dataclasses.fields(value):
            item = getattr(value, f.name)
            new = _replace(item, targets, seen, depth + 1)
            if new is not item:
                object.__setattr__(value, f.name, new)
    return value


def install(recorder: Recorder) -> None:
    """Route calls to the traced public functions of loaded revsym modules through ``recorder``."""
    targets: dict[int, Callable] = {}
    for modname, (layer, names) in {**SPANNED, **COUNTED}.items():
        module = sys.modules.get(modname)
        if module is None:
            continue
        for name in names or _public_functions(module):
            fn = getattr(module, name, None)
            if inspect.isfunction(fn):
                layer_name = layer or f"{modname.split('.', 1)[1]}.{name}"
                targets[id(fn)] = _wrapper(recorder, layer_name, fn, modname in SPANNED)
    for modname, module in list(sys.modules.items()):
        if modname != "revsym" and not modname.startswith("revsym."):
            continue
        seen: set[int] = set()
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            new = _replace(value, targets, seen)
            if new is not value:
                setattr(module, key, new)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per layer: span durations minus the time their direct child spans cover."""
    children = [0.0] * len(spans)
    for layer, parent, start, end, _work in spans:
        if parent is not None:
            children[parent] += end - start
    out: dict[str, float] = {}
    for sid, (layer, _parent, start, end, _work) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - children[sid]
    return out

