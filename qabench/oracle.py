"""Expected outputs, computed apart from the program under test.

``synth_zipf`` derives its expectations in plain Python from the
records that ``repro.kb.generate_records`` returns (the same records
``load_synthetic_kb`` materialises), without the SPARQL engine, the KB
indexes or the QA pipeline, so a wrong answer from the engine or the
pipeline cannot also be the expectation.  ``qald_cold`` takes the gold
answers of the QALD questions.

Run as a child process, so the records and tables it builds do not
count toward the peak RSS of the process that serves the workload::

    python3 qabench/oracle.py --workload synth_zipf --scale 16 --seed 1 --out FILE

(``--scale`` is ignored for ``qald_cold``.)

It writes the workload's expectations to ``FILE`` as JSON, in the
compact form that :func:`load_expectations` reads back.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import random
import sys


def synthetic_records(scale: int, seed: int):
    """The records ``load_synthetic_kb(scale, seed)`` materialises,
    generated again with the same sizes."""
    from repro.kb import generate_records

    return generate_records(
        num_writers=100 * scale,
        books_per_writer=3,
        num_cities=50 * scale,
        num_countries=max(10, 2 * scale),
        num_companies=20 * scale,
        seed=seed,
    )


def canonical_term(term):
    """An answer term as a plain value: an IRI by its local name, a
    numeric literal as a float, any other literal by its lexical form."""
    if term is None:
        return None
    value = getattr(term, "value", None)
    if value is not None:  # IRI
        return value.rsplit("/", 1)[1]
    lexical = term.lexical
    try:
        return float(lexical)
    except ValueError:
        return lexical


class _Tables:
    """Plain dict views of the synthetic records."""

    def __init__(self, records) -> None:
        self.writers, self.novels, self.cities = {}, {}, {}
        self.countries, self.companies = {}, {}
        self.labels = {}
        by_class = {
            "Writer": self.writers,
            "Novel": self.novels,
            "City": self.cities,
            "Country": self.countries,
            "Company": self.companies,
        }
        for record in records:
            by_class[record.classes[0]][record.name] = record.facts
            self.labels[record.name] = record.display_label()
        self.books_by = {}
        for name, facts in self.novels.items():
            self.books_by.setdefault(facts["author"], set()).add(name)
        self.born_in = {}
        for name, facts in self.writers.items():
            self.born_in.setdefault(facts["birthPlace"], set()).add(name)


# -- synth_zipf: questions over the generator's labels ---------------------

#: (entity kind, question template, expected-answer function).  Every
#: template is one the pipeline answers for every entity of its kind.
#: Left out (see README): book-title questions, "When was X born?" and
#: "How many people live in X?" -- the section 2.1/2.2 coverage limits
#: counted in the paper's Table 2 recall refuse them.
TEMPLATES = (
    ("writer", "Where was {} born?", lambda t, n: {t.writers[n]["birthPlace"]}),
    ("writer", "What is the birth place of {}?",
     lambda t, n: {t.writers[n]["birthPlace"]}),
    ("writer", "How tall is {}?", lambda t, n: {float(t.writers[n]["height"])}),
    ("writer", "What is the height of {}?",
     lambda t, n: {float(t.writers[n]["height"])}),
    ("writer", "Which books were written by {}?", lambda t, n: t.books_by[n]),
    ("writer", "Which books did {} write?", lambda t, n: t.books_by[n]),
    ("city", "In which country is {}?", lambda t, n: {t.cities[n]["country"]}),
    ("city", "What is the population of {}?",
     lambda t, n: {float(t.cities[n]["populationTotal"])}),
    ("birth_city", "Which writers were born in {}?", lambda t, n: t.born_in[n]),
    ("country", "What is the capital of {}?",
     lambda t, n: {t.countries[n]["capital"]}),
    ("country", "What is the population of {}?",
     lambda t, n: {float(t.countries[n]["populationTotal"])}),
    ("company", "Where is the headquarters of {}?",
     lambda t, n: {t.companies[n]["headquarter"]}),
    ("company", "Where is {} headquartered?",
     lambda t, n: {t.companies[n]["headquarter"]}),
    ("company", "How many employees does {} have?",
     lambda t, n: {float(t.companies[n]["numberOfEmployees"])}),
)


def question_universe(records) -> list[list[tuple[str, frozenset]]]:
    """Every (question, expected answer set) the templates make, one list
    per template, in a fixed order."""
    tables = _Tables(records)
    entities = {
        "writer": sorted(tables.writers),
        "city": sorted(tables.cities),
        "birth_city": sorted(tables.born_in),
        "country": sorted(tables.countries),
        "company": sorted(tables.companies),
    }
    return [
        [
            (template.format(tables.labels[name]),
             frozenset(expect(tables, name)))
            for name in entities[kind]
        ]
        for kind, template, expect in TEMPLATES
    ]


class ZipfStream:
    """Seeded Zipf draws over the questions of every template.

    Ranks go round-robin over the templates in their fixed order, each
    template's questions in a seeded shuffle, so every seed puts the same
    template mix at the head and differs only in the entities asked
    about.  Rank ``r`` (1-based) is drawn with probability proportional
    to ``r ** -exponent``.
    """

    def __init__(self, groups, exponent: float, seed: int) -> None:
        rng = random.Random(seed)
        queues = []
        for group in groups:
            queue = list(group)
            rng.shuffle(queue)
            queues.append(queue)
        self._items = []
        for depth in range(max(len(queue) for queue in queues)):
            self._items.extend(
                queue[depth] for queue in queues if depth < len(queue)
            )
        weights = [rank ** -exponent for rank in range(1, len(self._items) + 1)]
        self._cumulative = list(itertools.accumulate(weights))
        self._rng = rng

    def take(self, count: int) -> list:
        total = self._cumulative[-1]
        return [
            self._items[
                bisect.bisect_left(self._cumulative, self._rng.random() * total)
            ]
            for __ in range(count)
        ]


# -- qald_cold: the gold answers -------------------------------------------

def qald_gold() -> dict:
    """QALD test question id -> gold answer (a bool, or the N3 forms of
    the answer terms) for every in-scope question."""
    from repro.api import load_curated_kb
    from repro.qald import QaldEvaluator, load_questions

    evaluator = QaldEvaluator(load_curated_kb(), None)
    gold = {}
    for question in load_questions():
        if question.in_scope:
            answer = evaluator.gold_answers(question)
            if not isinstance(answer, bool):
                answer = sorted(term.n3() for term in answer)
            gold[question.qid] = answer
    return gold


# -- child process entry point and its reader ------------------------------

def expectations(workload: str, scale: int, seed: int):
    """The workload's expectations as JSON-ready values."""
    if workload == "qald_cold":
        return qald_gold()
    records = synthetic_records(scale, seed)
    return [
        [(question, list(answers)) for question, answers in group]
        for group in question_universe(records)
    ]


def load_expectations(workload: str, path: str):
    """Read what ``expectations`` wrote to ``path``, back in the form the
    workload checks against: QALD gold keyed by question id with answer
    sets, or template groups of (question, answer set) pairs."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if workload == "qald_cold":
        return {
            int(qid): answer if isinstance(answer, bool) else frozenset(answer)
            for qid, answer in data.items()
        }
    return [
        [(question, frozenset(answers)) for question, answers in group]
        for group in data
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(expectations(args.workload, args.scale, args.seed), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
