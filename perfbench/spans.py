"""Outside-in spans: time calls into the program by wrapping the names its
callers look up, without changing a line of the program.

Python resolves a module-level name at call time, so replacing
``pilegame.verify.closed_form_table`` with a timing wrapper makes every call
``run_checks`` makes to it a span, and putting the original back undoes it.
Spans stay in memory and are written out once, at the end.

A span's layer is the part of its name before the first dot, for example
``exact`` in ``exact.closed_form_table``; layers are the package's modules.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType


@dataclass(frozen=True)
class Span:
    op: int  # spans of one operation share this id
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Wraps module attributes, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[ModuleType, str, object]] = []

    def wrap(self, module: ModuleType, attr: str, name) -> None:
        """Record a span for every call made through ``module.attr``.

        ``name`` is the span name, or a function of (args, kwargs) giving it.
        """
        original = getattr(module, attr)
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(namer(args, kwargs), original, *args, **kwargs)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def new_op(self) -> int:
        """Start a new operation; later spans carry its id, which is returned."""
        self._op += 1
        return self._op

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in when the call ends
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(self._op, span_id, parent, name, start, end)

    def restore(self) -> None:
        """Put every original back and check that each one is in place."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        for module, attr, original in self._installed:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")
        self._installed.clear()

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")

    # Aggregation ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        children = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        return {span.id: span.duration - children[span.id] for span in self.spans}

    def per_op(self, by_layer: bool = False, self_time: bool = False) -> dict[int, dict[str, float]]:
        """op -> {span name (or layer): summed duration (or self time)}."""
        own = self.self_times() if self_time else None
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            key = span.layer if by_layer else span.name
            out[span.op][key] += own[span.id] if self_time else span.duration
        return out


def snapshot(modules: list[ModuleType]) -> dict[tuple[str, str], object]:
    """Identity of every attribute of ``modules``, to prove nothing is left wrapped."""
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def assert_pristine(modules: list[ModuleType], before: dict) -> None:
    now = snapshot(modules)
    changed = [k for k, v in before.items() if now.get(k) is not v]
    if changed:
        raise RuntimeError(f"attributes still replaced: {changed}")


def per_op_medians(per_op: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over operations of each key; an operation without the key counts 0."""
    ops = list(per_op.values())
    keys = {k for op in ops for k in op}
    return {k: statistics.median(op.get(k, 0.0) for op in ops) for k in keys}
