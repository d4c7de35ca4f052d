"""Spans around the benchmark's calls into xlingua, kept in memory.

A span records its name (``<module>.<function>``), start, end, parent span,
operation id and phase (``setup`` or ``run``).  Self time is a span's
duration minus the durations of its direct children.  When disabled, a
call costs one attribute test.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    phase: str
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _count_normalize(counts, args, result, span):
    counts["normalize.docs"] += 1


def _count_train(counts, args, result, span):
    thesaurus = args[1]
    counts[f"profiles.train_s.{result.lang}"] += span.end - span.start
    counts["profiles.trained"] += len(result.profiles)
    counts["profiles.skipped"] += len(thesaurus.descriptors) - len(result.profiles)


def _count_assign(counts, args, result, span):
    doc, profiles = args[0], args[1]
    vocab = profiles.csr()[1]
    tokens = sum(doc.lemma_freq.values())
    counts["assign.calls"] += 1
    counts["assign.empty"] += not result.entries
    counts["assign.nnz"] += len(result.entries)
    counts["assign.tokens"] += tokens
    counts["assign.oov_tokens"] += sum(
        c for lemma, c in doc.lemma_freq.items() if lemma not in vocab
    )


# Counters taken at the layer boundary, from a call's arguments and result.
COUNTERS = {
    "normalize.normalize": _count_normalize,
    "profiles.train_profiles": _count_train,
    "assign.assign": _count_assign,
}


class Recorder:
    """Routes calls into xlingua; records a span per call while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self.op = ""
        self._stack: list[int] = []

    def call(self, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self.counts[self.phase], args, result, span)
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op, self.phase)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def wrapped(self, module, names):
        """Route ``module.<name>`` lookups made inside the program through call()."""
        saved = {n: getattr(module, n) for n in names}
        for n, fn in saved.items():
            setattr(module, n, functools.partial(self.call, fn))
        try:
            yield
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (phase, layer)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[(s.phase, s.layer)] += s.end - s.start - child[i]
        return out

    def per_unit(self, units: dict[str, int]) -> dict[str, float]:
        """Self seconds per layer, call seconds per span name and counters,
        each summed over phases after dividing by that phase's unit count
        (traced set-ups, traced passes)."""
        out: dict[str, float] = defaultdict(float)
        for (phase, layer), secs in self.self_times().items():
            out[f"self.{layer}"] += secs / units[phase]
        for s in self.spans:
            out[f"call.{s.name}"] += (s.end - s.start) / units[s.phase]
            if s.error:
                out[f"{s.layer}.errors"] += 1 / units[s.phase]
        for phase, counts in self.counts.items():
            for key, value in counts.items():
                out[key] += value / units[phase]
        return out
