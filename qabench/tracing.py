"""Spans and counters for the traced run, recorded from outside the program.

The program is not edited: :meth:`Recorder.install` wraps the public
entry point of each layer in a span and :meth:`Recorder.uninstall` puts
the originals back, so untraced rounds run the unmodified code.  Spans
are kept in memory as ``(id, name, start, end, parent, op)`` tuples and
written to one file at the end of the run, with each layer's self time
(its spans' durations minus the parts their child spans cover).

``op`` is positive for a measured operation and negative for a set-up.
A span opened on a thread with no open span of its own (a
``ResilientServer`` worker) takes as parent the innermost span open on
the client thread, so ``serve`` self time excludes the ``answer`` span
that ran on the worker.
"""

from __future__ import annotations

import gc
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager


def _targets():
    """(owner, attribute, span name, is classmethod) of every wrapped
    callable.  Module functions are wrapped where ``repro.core.system``
    looks them up."""
    import repro.core.system as system
    from repro.core.extraction import TripleExtractor
    from repro.core.mapping import TripleMapper
    from repro.core.querygen import QueryGenerator
    from repro.kb.builder import KnowledgeBase
    from repro.nlp.pipeline import Pipeline
    from repro.serve.server import ResilientServer
    from repro.sparql.engine import SparqlEngine

    return (
        (ResilientServer, "answer", "serve", False),
        (system.QuestionAnsweringSystem, "answer", "answer", False),
        (Pipeline, "annotate", "annotate", False),
        (TripleExtractor, "extract", "extract", False),
        (TripleMapper, "map", "map", False),
        (QueryGenerator, "generate", "generate", False),
        (SparqlEngine, "query", "execute", False),
        (system, "answer_matches_type", "typecheck", False),
        (system, "build_pattern_store", "construct.patterns", False),
        (system, "build_wordnet", "construct.wordnet", False),
        (system, "build_similar_property_pairs", "construct.wordnet", False),
        (system, "build_adjective_map", "construct.wordnet", False),
        (KnowledgeBase, "from_backend", "construct.kb_index", True),
    )


class Recorder:
    """In-memory span store, boundary counts and GC observations."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._client = threading.get_ident()
        self._originals: list[tuple] = []
        self._ops = 0
        self._setups = 0
        self.op = 0
        self.in_op = False
        #: Counted at layer boundaries; read like program counters.
        self.calls = {
            "bench.execute_calls": 0,
            "bench.generated_candidates": 0,
            "bench.winners": 0,
        }
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = None

    def new_setup(self) -> None:
        self._setups += 1
        self.op = -self._setups

    def next_op(self) -> None:
        self._ops += 1
        self.op = self._ops

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self._originals:  # not installed: an untraced round
            yield 0
            return
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            client = self._stacks.get(self._client)
            parent = client[-1] if client else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op))

    def _wrap(self, function, name):
        recorder, calls = self, self.calls

        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = function(*args, **kwargs)
            if name == "execute":
                calls["bench.execute_calls"] += 1
            elif name == "generate":
                calls["bench.generated_candidates"] += len(result)
            elif name == "answer" and result.query is not None:
                calls["bench.winners"] += 1
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point and start observing the GC."""
        if self._originals:
            return
        for owner, attribute, name, is_classmethod in _targets():
            original = owner.__dict__[attribute]
            if is_classmethod:
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put the original callables back (untraced rounds run them)."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter() if self.in_op else None
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- summaries ---------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans)

    def write(self, path: str, summary: "TraceSummary", extra: dict) -> None:
        document = {
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "self_time_s": summary.layer_self_times(),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class TraceSummary:
    """Self times and durations of recorded spans, computed once."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.own = {span[0]: span[3] - span[2] for span in spans}
        for span in spans:
            if span[4] in self.own:
                self.own[span[4]] -= span[3] - span[2]

    def layer_self_times(self) -> dict[str, dict]:
        """Per span name: measured ops vs set-ups, self seconds summed."""
        out: dict[str, dict] = {}
        for span in self.spans:
            kind = "ops" if span[5] > 0 else "setup"
            entry = out.setdefault(span[1], {"ops": 0.0, "setup": 0.0})
            entry[kind] += self.own[span[0]]
        return out

    def busy_s(self, name: str) -> float:
        """Self seconds of ``name`` inside measured operations."""
        return sum(
            self.own[span[0]] for span in self.spans
            if span[1] == name and span[5] > 0
        )

    def p50_ms(self, name: str) -> float:
        durations = [
            span[3] - span[2] for span in self.spans
            if span[1] == name and span[5] > 0
        ]
        return statistics.median(durations) * 1000.0 if durations else 0.0

    def per_setup_s(self, name: str) -> float:
        """Median over set-ups of the self seconds ``name`` took in each."""
        totals: dict[int, float] = {}
        for span in self.spans:
            if span[5] < 0:
                totals.setdefault(span[5], 0.0)
                if span[1] == name:
                    totals[span[5]] += self.own[span[0]]
        return statistics.median(totals.values()) if totals else 0.0

    def outside_ms(self, outer: str, inner: str) -> list[float]:
        """Per ``outer`` span: its duration minus its ``inner``
        descendants, in ms (e.g. server time around ``answer``)."""
        inside: dict[int, float] = {}
        for span in self.spans:
            if span[1] != inner:
                continue
            ancestor = self.by_id.get(span[4])
            while ancestor is not None and ancestor[1] != outer:
                ancestor = self.by_id.get(ancestor[4])
            if ancestor is not None:
                inside[ancestor[0]] = inside.get(ancestor[0], 0.0) + (
                    span[3] - span[2]
                )
        return [
            ((span[3] - span[2]) - inside.get(span[0], 0.0)) * 1000.0
            for span in self.spans
            if span[1] == outer
        ]
