"""The benchmark's workloads, driven through the public API only.

Each workload prepares its inputs and expectations (untimed), sets up a
replica one or more times (each set-up is one ``setup_s`` sample), then
hands ``run.py`` rounds of operations.  An operation is ``(key, call)``:
the call is what a user makes and is what ``run.py`` times.  After a
round ``run.py`` turns the raw outputs into canonical values and asks the
workload which passed.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
from functools import partial

from oracle import ZipfStream, canonical_term, load_expectations

HERE = os.path.dirname(os.path.abspath(__file__))

#: Segment shards of the synthetic KB; the scatter executor runs them
#: inline, one after another, in the serving process.
SHARDS = 4


def _child(script: str, *arguments: str) -> str:
    """Run one of the benchmark's scripts in a child process, so its
    memory does not count toward this process's peak RSS; returns its
    standard output."""
    return subprocess.run(
        [sys.executable, os.path.join(HERE, script), *arguments],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout


def build_in_child(scale: int, seed: int, out: str) -> dict:
    """Build a segment directory with ``build.py``; returns its timings."""
    stdout = _child("build.py", "--scale", str(scale), "--seed", str(seed),
                    "--shards", str(SHARDS), "--out", out)
    return json.loads(stdout.splitlines()[-1])


def expect_in_child(workload: str, scale: int, seed: int, workdir: str):
    """The workload's expectations, computed by ``oracle.py``."""
    path = os.path.join(workdir, "expected.json")
    _child("oracle.py", "--workload", workload, "--scale", str(scale),
           "--seed", str(seed), "--out", path)
    return load_expectations(workload, path)


def answer_key(answer) -> tuple:
    """A QA answer as comparable values (answer terms, verdict, stage)."""
    return (
        tuple(term.n3() for term in answer.answers),
        answer.boolean,
        answer.failure_stage,
    )


class Workload:
    name = ""
    #: Every run completes at least this many rounds, and ``peak_rss_mb``
    #: is read when they are done, so it covers the same work in every
    #: run however fast the program is (the caches keep growing after).
    MIN_ROUNDS = 20
    #: Rounds per window of the tail-latency and goodput medians: at
    #: least 1,000 operations where a run holds several such windows.
    WINDOW_ROUNDS = 1

    def __init__(self, seed: int, recorder, workdir: str) -> None:
        self.seed = seed
        self.rec = recorder
        self.workdir = workdir
        self.setup_samples: list[float] = []
        #: Run-level check failures (a wrong tally, a bad expectation).
        self.errors: list[str] = []
        #: Extra per-layer figures the workload measures itself.
        self.layer_figures: dict[str, float] = {}

    def prepare(self) -> None:
        """Untimed: inputs, expectations, anything outside set-up."""

    def setup(self) -> None:
        """Set up the replica several times; keep the last."""

    def begin_round(self, index: int) -> list[tuple]:
        raise NotImplementedError

    def canonical(self, raw):
        raise NotImplementedError

    def corrupt(self, output):
        raise NotImplementedError

    def check(self, index: int, outputs: list[tuple]) -> list[bool]:
        raise NotImplementedError

    def counters(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class QaldCold(Workload):
    """The 100 QALD test and 20 dev questions, answered in passes; every
    pass loads its own curated KB and builds its own system."""

    name = "qald_cold"
    WINDOW_ROUNDS = 9
    #: The paper's Table 2 over the in-scope test questions.
    TALLY = (55, 18, 15)

    def prepare(self) -> None:
        from repro.qald import load_dev_questions, load_questions

        self.questions = load_questions() + load_dev_questions()
        self.gold = expect_in_child(self.name, 0, self.seed, self.workdir)
        self.rng = random.Random(self.seed)
        self.reference: dict[int, tuple] = {}
        self.system = None

    def begin_round(self, index: int) -> list[tuple]:
        from repro.api import QuestionAnsweringSystem, load_curated_kb

        self.system = None
        gc.collect()  # the previous replica is gone before this one starts
        order = list(self.questions)
        self.rng.shuffle(order)
        self.rec.new_setup()
        start = time.perf_counter()
        with self.rec.span("kb.load"):
            kb = load_curated_kb()
        with self.rec.span("construct"):
            self.system = QuestionAnsweringSystem.over(kb)
        self.setup_samples.append(time.perf_counter() - start)
        return [
            (question.qid, partial(self.system.answer, question.text))
            for question in order
        ]

    def canonical(self, raw):
        return answer_key(raw)

    def corrupt(self, output):
        return (("<corrupted>",), None, None)

    def check(self, index: int, outputs: list[tuple]) -> list[bool]:
        answered = correct = 0
        for qid, (answers, boolean, __) in outputs:
            if qid not in self.gold:
                continue
            gold = self.gold[qid]
            if answers or boolean is not None:
                answered += 1
                if isinstance(gold, bool):
                    correct += boolean == gold
                else:
                    correct += frozenset(answers) == gold
        tally = (len(self.gold), answered, correct)
        if tally != self.TALLY:
            self.errors.append(
                f"pass {index}: Table 2 tally {tally}, expected {self.TALLY}"
            )
        if index == 0:
            self.reference = dict(outputs)
        return [
            output[2] != "internal" and output == self.reference[qid]
            for qid, output in outputs
        ]

    def counters(self) -> dict:
        return self.system.metrics()["counters"]


class SynthZipf(Workload):
    """Template questions over the synthetic KB's labels, drawn with a
    seeded Zipf skew, served by ``ResilientServer`` over segments."""

    name = "synth_zipf"
    SCALE = 16
    EXPONENT = 1.1
    ROUND = 500
    WINDOW_ROUNDS = 2
    SETUPS = 3

    def prepare(self) -> None:
        self.server = None
        self.segments = os.path.join(self.workdir, "segments")
        build = build_in_child(self.SCALE, self.seed, self.segments)
        self.layer_figures["kb.build_segments_s"] = build["build_segments_s"]
        groups = expect_in_child(self.name, self.SCALE, self.seed, self.workdir)
        self.expected = dict(pair for group in groups for pair in group)
        self.stream = ZipfStream(
            [[question for question, __ in group] for group in groups],
            self.EXPONENT, self.seed,
        )

    def _stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        gc.collect()

    def setup(self) -> None:
        from repro.api import (
            QuestionAnsweringSystem, ResilientServer, ServerConfig, load_kb,
        )

        for __ in range(self.SETUPS):
            self._stop()
            self.rec.new_setup()
            start = time.perf_counter()
            with self.rec.span("kb.load"):
                kb = load_kb(self.segments)
            with self.rec.span("construct"):
                system = QuestionAnsweringSystem.over(kb)
            with self.rec.span("serve.start"):
                self.server = ResilientServer(system, ServerConfig(workers=1))
            self.setup_samples.append(time.perf_counter() - start)
            del kb, system

    def begin_round(self, index: int) -> list[tuple]:
        return [
            (question, partial(self.server.answer, question))
            for question in self.stream.take(self.ROUND)
        ]

    def canonical(self, raw):
        return (
            frozenset(canonical_term(term) for term in raw.answers),
            raw.failure_stage,
        )

    def corrupt(self, output):
        return (frozenset({"<corrupted>"}), None)

    def check(self, index: int, outputs: list[tuple]) -> list[bool]:
        return [
            stage != "internal" and answers == self.expected[question]
            for question, (answers, stage) in outputs
        ]

    def counters(self) -> dict:
        return self.server.metrics()["counters"]

    def close(self) -> None:
        self._stop()


WORKLOADS = {
    workload.name: workload for workload in (QaldCold, SynthZipf)
}
