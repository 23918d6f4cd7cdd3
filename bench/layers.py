"""Per-layer timing of one CLI run, taken from outside the program.

For the traced run only, the names that the calling modules look up are
rebound to timing wrappers, and restored afterwards; no program file is
edited. Coarse calls become spans (name, parent span, start, end), kept in
memory. Calls made millions of times are only counted and timed in
aggregate. A name that the program no longer has is skipped, so its
metrics read as 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# (module, attribute path, layer name). Each layer name may be bound in
# several modules; all of them feed the same layer.
SPANNED = (
    ("minetax.cli", "evolve", "bilevel.evolve"),
    ("minetax.bilevel", "best_response", "lower.best_response"),
    ("minetax.lower", "best_response_fixed_tech", "lower.best_response_fixed_tech"),
    ("minetax.bilevel", "nondominated_sort", "bilevel.nondominated_sort"),
    ("minetax.bilevel", "crowding_distance", "bilevel.crowding_distance"),
    ("minetax.bilevel", "sbx_crossover", "variation.sbx_crossover"),
    ("minetax.bilevel", "polynomial_mutation", "variation.polynomial_mutation"),
    ("minetax.bilevel", "ParetoArchive.insert", "bilevel.archive_insert"),
    ("minetax.bilevel", "ParetoArchive.hypervolume", "bilevel.hypervolume"),
    ("minetax.bilevel", "leader_objectives", "model.leader_objectives"),
    ("minetax.lower", "leader_objectives", "model.leader_objectives"),
)
AGGREGATED = (
    ("minetax.lower", "cumulative_cost", "model.cumulative_cost"),
    ("minetax.model", "cumulative_cost", "model.cumulative_cost"),
)
LAYERS = sorted({name for _, _, name in SPANNED + AGGREGATED})
# Entered once after the initial population and once per generation (it
# feeds `hv_history`), so the times it is entered split a CLI run into
# phases of the same work in every repeat of one seed.
PHASE_MARK = ("minetax.bilevel", "ParetoArchive.hypervolume")


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    agg_calls: dict[str, int] = field(default_factory=dict)
    agg_seconds: dict[str, float] = field(default_factory=dict)
    admitted: int = 0
    untagged: int = 0
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = Span(name, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            self._observe(name, result)
            return result

        return wrapper

    def aggregate(self, name: str, fn: Callable) -> Callable:
        self.agg_calls.setdefault(name, 0)
        self.agg_seconds.setdefault(name, 0.0)
        calls, seconds = self.agg_calls, self.agg_seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1

        return wrapper

    def _observe(self, name: str, result: Any) -> None:
        if name == "bilevel.archive_insert" and result:
            self.admitted += 1
        elif name == "lower.best_response" and not getattr(
            result, "optimality_tag", True
        ):
            self.untagged += 1

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, seconds) of a layer; nested calls of one layer count once
        in the seconds."""
        if name in self.agg_calls:
            return self.agg_calls[name], self.agg_seconds[name]
        calls, seconds = 0, 0.0
        for s in self.spans:
            if s.name == name:
                calls += 1
                if not self._inside(s, name):
                    seconds += s.end - s.start
        return calls, seconds

    def _inside(self, span: Span, name: str) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def as_records(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]


def _resolve(module: str, path: str) -> tuple[Optional[Any], str]:
    """Owner object and attribute name of 'module:path', or (None, '')."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None, ""
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, ""
    if not callable(vars(owner).get(attr)):
        return None, ""
    return owner, attr


class traced:
    """Context manager: rebind the layer names to a Tracer's wrappers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        for group, wrap in (
            (SPANNED, self.tracer.span),
            (AGGREGATED, self.tracer.aggregate),
        ):
            for module, path, name in group:
                owner, attr = _resolve(module, path)
                if owner is None:
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class phase_marks:
    """Context manager: call `on_mark()` each time the phase mark is
    entered. If the program no longer has it, a CLI run is one phase."""

    def __init__(self, on_mark: Callable[[], None]):
        self.on_mark = on_mark
        self._saved: Optional[tuple[Any, str, Any]] = None

    def __enter__(self) -> None:
        owner, attr = _resolve(*PHASE_MARK)
        if owner is None:
            return
        original, on_mark = vars(owner)[attr], self.on_mark

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            on_mark()
            return original(*args, **kwargs)

        self._saved = (owner, attr, original)
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        if self._saved is not None:
            owner, attr, original = self._saved
            setattr(owner, attr, original)
            self._saved = None
