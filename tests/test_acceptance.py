"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Every check is exact (no tolerances); the stated runtime ceilings are
asserted where the criterion names one.
"""

import time

import pytest

from chinese_monoid.core import congruence_class, eq_oracle, words_up_to
from chinese_monoid.harness import run_suite
from chinese_monoid.representation import (arc_element_image, eq_via_embedding, image,
                                           leaf_representations)
from chinese_monoid.tree import enumerate_leaves, tribonacci
from oracles import arc_unit_tuple, decode_staircase


@pytest.fixture
def announce(capsys):
    def _announce(number: int, label: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"criterion {number} [{verdict}] {label}{suffix}")
        assert ok, f"criterion {number} failed: {label} {detail}"
    return _announce


def test_criterion_1_leaf_counts_match_tribonacci(announce):
    start = time.perf_counter()
    expected = [3, 5, 9, 17, 31, 57, 105, 193, 355, 653]
    got = [len(enumerate_leaves(n)) for n in range(3, 13)]
    recurrence = [tribonacci(n) for n in range(3, 13)]
    elapsed = time.perf_counter() - start
    ok = got == expected == recurrence and elapsed < 5.0
    announce(1, "leaf counts n=3..12 equal Tribonacci", ok,
             f"counts={got}, {elapsed:.2f}s")


def test_criterion_2_canonical_form_uniqueness(announce):
    start = time.perf_counter()
    bad = []
    for n, max_len in ((3, 5), (4, 4)):
        seen = set()
        for word in words_up_to(n, max_len):
            if word in seen:
                continue
            cls = congruence_class(word)
            seen |= cls
            members = [m for m in cls if decode_staircase(m, n) is not None]
            if len(members) != 1:
                bad.append((n, word, len(members)))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    announce(2, "every class has exactly one staircase member "
                "(n=3 len<=5, n=4 len<=4)", ok, f"{elapsed:.2f}s")


def test_criterion_3_faithfulness(announce):
    start = time.perf_counter()
    reports = [run_suite("faithfulness", n=3, max_len=5),
               run_suite("faithfulness", n=4, max_len=4)]
    # the reports compare the oracle partition with the image signatures,
    # which is the all-pairs check; exercise the pairwise entry points too
    spot = [((3, 2, 1), (2, 3, 1)), ((1, 2), (2, 1)), ((2, 1, 2), (2, 2, 1)),
            ((1, 1, 2, 3, 1), (1, 1, 2, 1, 3))]
    agree = all(eq_oracle(w, v) == eq_via_embedding(3, w, v) for w, v in spot)
    elapsed = time.perf_counter() - start
    failures = [f for report in reports for f in report.failures]
    pairs = sum(report.instances for report in reports)
    ok = not failures and agree and elapsed < 60.0
    announce(3, "oracle and embedding agree on all pairs", ok,
             f"{pairs} pairs, {elapsed:.2f}s")


def test_criterion_4_annihilation_identities(announce):
    start = time.perf_counter()
    report = run_suite("boxplus", max_n=5, max_word_len=3)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60.0
    announce(4, "variants 22/23/32 hold for all tuples, |w|<=3, n<=5", ok,
             f"{report.instances} instances, {elapsed:.2f}s")


def test_criterion_5_adjan_identity(announce):
    report = run_suite("identity", samples=200, max_n=5, max_len=4, seed=0)
    ok = report.passed and report.params["oracle_cross_checks"] > 0
    announce(5, "200 seeded samples satisfy the bicyclic identity", ok,
             f"cross-checked {report.params['oracle_cross_checks']} by oracle")


def test_criterion_6_arc_element_images(announce):
    bad = []
    for n in range(3, 7):
        for rep in leaf_representations(n):
            for arc in rep.leaf.arcs:
                value = arc_element_image(rep, arc)
                if value != arc_unit_tuple(rep, arc):
                    bad.append((n, rep.leaf.id, arc))
                x, y = arc
                for g in range(1, n + 1):
                    if image(rep, (y, x, g)) != image(rep, (g, y, x)):
                        bad.append((n, rep.leaf.id, arc, g))
    announce(6, "arc elements are single-integer-component units, n<=6",
             not bad, f"violations={bad[:3]}" if bad else "")


def test_criterion_7_schema_arithmetic(announce):
    bad = []
    for n in range(3, 11):
        reps = leaf_representations(n)
        if any(rep.c + 2 * rep.d != n for rep in reps):
            bad.append(f"c+2d != {n}")
        if sum(rep.c + 2 * rep.d for rep in reps) != n * tribonacci(n):
            bad.append(f"total != {n}*T_{n}")
    announce(7, "c+2d = n per leaf and n*T_n in total, n<=10", not bad,
             "; ".join(bad))


def test_criterion_8_incomparability_witnesses(announce):
    report = run_suite("incomparability", n=4)
    announce(8, "all ordered leaf pairs of rank 4 yield witnesses",
             report.passed, f"{report.instances} pairs")


def test_criterion_9_first_level_centrality(announce):
    report = run_suite("centrality", max_n=4, max_len=4)
    announce(9, "dot/arc distinguished elements are central mod their "
                "first-level pairs, n<=4, |w|<=4",
             report.passed, f"{report.instances} instances")
