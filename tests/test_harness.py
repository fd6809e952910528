import random

import pytest

from chinese_monoid import harness
from chinese_monoid.bicyclic import IDENTITY, P, Q
from chinese_monoid.core import (congruence_class, eq_oracle, first_level_pairs,
                                 format_word, words_up_to)
from chinese_monoid.harness import (DEFAULT_BATTERY, SUITE_NAMES,
                                    BoundsExceeded, UnknownSuite, run_suite)
from chinese_monoid.representation import (Component, LeafRepresentation, arc_element_image,
                                           image, leaf_representations)
from chinese_monoid.tree import tribonacci
from oracles import arc_unit_tuple


def test_suite_names_are_complete():
    assert set(SUITE_NAMES) == {"counts", "faithfulness", "boxplus", "identity",
                                "centrality", "incomparability", "schema"}
    assert {name for name, _ in DEFAULT_BATTERY} == set(SUITE_NAMES)


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("primes")


@pytest.mark.parametrize("name,params", [
    ("counts", {"max_n": 8}),
    ("faithfulness", {"n": 3, "max_len": 3}),
    ("boxplus", {"max_n": 4, "max_word_len": 2}),
    ("identity", {"samples": 25}),
    ("centrality", {"max_n": 3, "max_len": 3}),
    ("incomparability", {"n": 4}),
    ("schema", {"max_n": 6}),
])
def test_suites_pass_at_small_scale(name, params):
    report = run_suite(name, **params)
    assert report.passed, report.failures
    assert report.instances > 0
    assert report.elapsed >= 0.0


def test_counts_report_contents():
    report = run_suite("counts", max_n=10)
    assert report.instances == 8
    assert report.params["max_n"] == 10


@pytest.mark.parametrize("name,params", [
    ("counts", {"max_n": 2}),
    ("counts", {"max_n": 40}),
    ("faithfulness", {"n": 5}),
    ("faithfulness", {"n": 4, "max_len": 7}),
    ("boxplus", {"max_n": 9}),
    ("identity", {"samples": 0}),
    ("centrality", {"max_len": 9}),
    ("incomparability", {"n": 11}),
    ("schema", {"max_n": 30}),
    ("faithfulness", {"n": 3, "max_len": 0}),
    ("faithfulness", {"n": 3, "max_len": -3}),
    ("counts", {"corrupt": True}),
    ("identity", {"n": 3}),
    ("counts", {"max_n": None}),
    ("counts", {"max_n": 3.5}),
    ("faithfulness", {"corrupt": None}),
    ("faithfulness", {"n": "4"}),
])
def test_bounds_are_enforced(name, params):
    with pytest.raises(BoundsExceeded):
        run_suite(name, **params)


@pytest.mark.parametrize("seed", [None, 2.5, "x"])
def test_a_seed_that_is_not_an_int_is_refused_before_the_runner(monkeypatch, seed):
    def runner(params, rng):
        raise AssertionError("the runner started")
    monkeypatch.setitem(harness.SUITES, "identity", (runner, harness.SUITES["identity"][1]))
    with pytest.raises(BoundsExceeded, match=f"identity needs an int seed, got {seed!r}"):
        run_suite("identity", seed=seed)


@pytest.mark.parametrize("name,params,bound", [
    ("identity", {"samples": 0}, "1 <= samples <= 10000"),
    ("boxplus", {"max_word_len": -1}, "0 <= max_word_len <= 4"),
])
def test_bound_messages_state_the_full_range(name, params, bound):
    with pytest.raises(BoundsExceeded, match=bound):
        run_suite(name, **params)


# Each suite's parameters in report order: name -> (default, low, high).
TABLE = {
    "counts": {"max_n": (12, 3, 16)},
    "faithfulness": {"n": (3, 3, 4), "max_len": (5, 1, 6), "corrupt": (False, False, True)},
    "boxplus": {"max_n": (5, 3, 6), "max_word_len": (3, 0, 4)},
    "identity": {"samples": (200, 1, 10_000), "max_n": (5, 3, 6), "max_len": (4, 1, 6)},
    "centrality": {"max_n": (4, 3, 5), "max_len": (4, 0, 5)},
    "incomparability": {"n": (4, 3, 10)},
    "schema": {"max_n": (10, 3, 12)},
}


def test_suite_table_is_pinned():
    assert [(name, list(table.items())) for name, (_, table) in harness.SUITES.items()] == \
        [(name, list(table.items())) for name, table in TABLE.items()]


@pytest.mark.parametrize("name,key", [(name, key) for name, table in TABLE.items()
                                      for key in table])
def test_every_range_is_checked_before_the_runner(monkeypatch, name, key):
    def runner(params, rng):
        raise AssertionError("the runner started")
    monkeypatch.setitem(harness.SUITES, name, (runner, harness.SUITES[name][1]))
    _, low, high = TABLE[name][key]
    for value in (low - 1, high + 1):
        with pytest.raises(BoundsExceeded, match=f"{name} needs {low} <= {key} <= {high}"):
            run_suite(name, **{key: value})
    with pytest.raises(AssertionError):
        run_suite(name, **{key: high})


@pytest.mark.parametrize("n", [3, 4])
def test_centrality_labels_agree_with_the_oracle(n):
    # Every dot and arc congruence, and the dot congruence at s = 2 without
    # its commutator of a_2, a_3, under which a_2 is not central.
    words = list(words_up_to(n, 3))
    checks = [(first_level_pairs("dot", s, n), (s,)) for s in range(2, n)]
    checks += [(first_level_pairs("arc", s, n), (s, s - 1)) for s in range(2, n + 1)]
    weakened = first_level_pairs("dot", 2, n) - {((3, 2), (2, 3))}
    assert len(weakened) == len(checks[0][0]) - 1
    checks.append((weakened, (2,)))
    verdicts = []
    for pairs, head in checks:
        class_id = harness._class_partition((head + w for w in words), pairs)
        labels = []
        for w in words:
            labelled = class_id.get(w + head) == class_id[head + w]
            assert labelled is eq_oracle(head + w, w + head, pairs), (sorted(pairs), head, w)
            labels.append(labelled)
        # The suite's verdict: head commutes with every w iff with each letter.
        letters = all(eq_oracle(head + (g,), (g,) + head, pairs) for g in range(1, n + 1))
        assert letters is all(labels), (sorted(pairs), head)
        verdicts += labels
    assert False in verdicts and True in verdicts


def test_centrality_passes_without_labelling_any_word(monkeypatch):
    def forbidden(*args):
        raise AssertionError("labelled the words")
    monkeypatch.setattr(harness, "_class_partition", forbidden)
    report = run_suite("centrality")
    assert report.passed and report.instances == 2068


def without_commutators(real):
    def pairs(kind, s, n):
        return frozenset(pair for pair in real(kind, s, n) if len(pair[0]) != 2)
    return pairs


def without_a3_a2(real):
    # Only the dot congruence at s = 2 is weakened: a_2 no longer commutes with a_3.
    def pairs(kind, s, n):
        weak = {((3, 2), (2, 3))} if (kind, s) == ("dot", 2) else set()
        return real(kind, s, n) - weak
    return pairs


def per_word_centrality(max_n, max_len):
    """The suite's report, checked by the oracle word by word."""
    failures = []
    instances = 0
    for n in range(3, max_n + 1):
        checks = [("dot", s, (s,)) for s in range(2, n)]
        checks += [("arc", s, (s, s - 1)) for s in range(2, n + 1)]
        for kind, s, head in checks:
            pairs = harness.first_level_pairs(kind, s, n)
            for w in words_up_to(n, max_len):
                instances += 1
                if not eq_oracle(head + w, w + head, pairs):
                    failures.append(f"{kind} n={n} s={s} w={format_word(w)!r}")
    return instances, failures


@pytest.mark.parametrize("weaken", [without_commutators, without_a3_a2])
@pytest.mark.parametrize("max_n,max_len", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_centrality_lists_the_failures_of_the_per_word_loop(monkeypatch, weaken, max_n, max_len):
    monkeypatch.setattr(harness, "first_level_pairs", weaken(harness.first_level_pairs))
    report = run_suite("centrality", max_n=max_n, max_len=max_len)
    assert not report.passed
    assert (report.instances, report.failures) == per_word_centrality(max_n, max_len)


@pytest.mark.parametrize("weaken", [without_commutators, without_a3_a2])
def test_centrality_at_max_len_0_passes_under_a_weakened_congruence(monkeypatch, weaken):
    # A letter fails, but the only word, (), commutes with everything.
    real_partition = harness._class_partition
    labelled = []

    def partition(words, extra):
        labelled.append(extra)
        return real_partition(words, extra)
    monkeypatch.setattr(harness, "_class_partition", partition)
    monkeypatch.setattr(harness, "first_level_pairs", weaken(harness.first_level_pairs))
    report = run_suite("centrality", max_n=5, max_len=0)
    assert labelled and report.passed and report.instances == 3 + 5 + 7


def test_centrality_reports_a_weakened_congruence(monkeypatch):
    monkeypatch.setattr(harness, "first_level_pairs", without_commutators(harness.first_level_pairs))
    report = run_suite("centrality", max_n=3, max_len=2)
    assert not report.passed
    assert report.failures[0].startswith("dot n=3 s=2 w=")


def assert_fails(report, failures):
    # No suite passes vacuously: each failure branch reports, in order.
    assert report.as_json_dict()["pass"] is False
    assert report.failures == failures


def test_counts_reports_a_wrong_leaf_count(monkeypatch):
    monkeypatch.setattr(harness, "tribonacci", lambda k: 0)
    assert_fails(run_suite("counts", max_n=4),
                 ["n=3: 3 leaves, expected T_3=0", "n=4: 5 leaves, expected T_4=0"])


def test_faithfulness_default_max_len_is_the_same_at_every_n():
    for n, words in ((3, 364), (4, 1365)):
        report = run_suite("faithfulness", n=n)
        assert report.passed and report.params["max_len"] == 5
        assert report.instances == words * (words - 1) // 2


def test_identity_reports_each_method(monkeypatch):
    # At max_len 1 every x and y has one letter, so every sample reaches the
    # oracle, unless the embedding has already failed it.
    samples = ["sample 0: n=4 x=(1,) y=(4,)", "sample 1: n=4 x=(4,) y=(2,)",
               "sample 2: n=5 x=(3,) y=(1,)"]

    def forbidden(*args):
        raise AssertionError("ran the oracle")
    with monkeypatch.context() as patch:
        patch.setattr(harness.rep_mod, "eq_via_embedding", lambda n, w, v: False)
        patch.setattr(harness, "eq_oracle", forbidden)
        report = run_suite("identity", samples=3, max_len=1)
    assert_fails(report, [f"{sample} (embedding)" for sample in samples])
    monkeypatch.setattr(harness, "eq_oracle", lambda w, v: False)
    report = run_suite("identity", samples=3, max_len=1)
    assert_fails(report, [f"{sample} (oracle)" for sample in samples])
    assert report.params["oracle_cross_checks"] == 0


def test_incomparability_refuses_max_len_and_reports_bogus_witnesses(monkeypatch):
    # Every witness built from two leaves' arcs has 2 or 3 letters: no bound to set.
    with pytest.raises(BoundsExceeded, match="incomparability does not read max_len"):
        run_suite("incomparability", n=3, max_len=3)
    pairs = ["('d2 A', 'a2')", "('d2 A', 'a3')", "('a2', 'd2 A')", "('a2', 'a3')",
             "('a3', 'd2 A')", "('a3', 'a2')"]
    monkeypatch.setattr(harness, "incomparability_witness", lambda r1, r2: ((1, 2), (1, 2)))
    assert_fails(run_suite("incomparability", n=3),
                 [f"{pair}: bogus witness ((1, 2), (1, 2))" for pair in pairs])


def test_schema_reports_tampered_tables(monkeypatch):
    # 'd2 A' gets a_3 -> p in its arc's bicyclic column, so a_3 a_1 -> p^2;
    # 'a2' loses its last component, the free generator 3.
    real = harness.leaf_representations

    def tampered(n):
        d2a, a2, *rest = real(n)
        columns = (d2a.columns[0], (P, IDENTITY, P)) + d2a.columns[2:]
        return (LeafRepresentation(d2a.leaf, d2a.schema, columns),
                LeafRepresentation(a2.leaf, a2.schema[:-1], a2.columns[:-1]), *rest)
    monkeypatch.setattr(harness, "leaf_representations", tampered)
    report = run_suite("schema", max_n=3)
    assert_fails(report, ["n=3 leaf 'd2 A': arc (1, 3) image not a unit",
                          "n=3 leaf 'a2': c+2d = 2 != 3",
                          "n=3: sum of c+2d over leaves is 8, expected 9"])
    assert report.instances == 7


def reference_schema(max_n):
    """The schema suite with one `arc_element_image` per arc, each compared
    with `arc_unit_tuple`: the reference for the row-wise check."""
    failures = []
    instances = 0
    for n in range(3, max_n + 1):
        total = 0
        for rep in harness.leaf_representations(n):
            instances += 1 + len(rep.leaf.arcs)
            total += rep.c + 2 * rep.d
            if rep.c + 2 * rep.d != n:
                failures.append(f"n={n} leaf {rep.leaf.id!r}: c+2d = {rep.c + 2 * rep.d} != {n}")
            failures += (f"n={n} leaf {rep.leaf.id!r}: arc {arc} image not a unit"
                         for arc in rep.leaf.arcs
                         if arc_element_image(rep, arc) != arc_unit_tuple(rep, arc))
        instances += 1
        if total != n * tribonacci(n):
            failures.append(f"n={n}: sum of c+2d over leaves is {total}, "
                            f"expected {n * tribonacci(n)}")
    return instances, failures


def _tamper(rep, kind, rng):
    """One seeded defect in a leaf table, around one of its arcs (x, y): a B
    entry changed at x or y in another arc's column, an N column given 1 at x
    or y, the arc's own Z component duplicated or relabelled N, or any
    component dropped."""
    schema, columns = list(rep.schema), list(rep.columns)
    x, y = rng.choice(rep.leaf.arcs)
    if kind in ("b_entry", "n_endpoint"):
        index = rng.choice([i for i, comp in enumerate(schema) if comp.kind == kind[0].upper()
                            and comp.origin != ("arc", x, y)])
        column = list(columns[index])
        g = rng.choice((x, y))
        column[g - 1] = 1 if kind == "n_endpoint" else rng.choice(
            [e for e in (P, Q, IDENTITY, (2, 0), (0, 2), (1, 1)) if e != column[g - 1]])
        columns[index] = tuple(column)
    elif kind == "own_z_twice":
        index = schema.index(Component("Z", ("arc", x, y)))
        at = rng.randint(0, len(schema))
        schema.insert(at, schema[index])
        columns.insert(at, columns[index])
    elif kind == "own_z_as_n":
        schema[schema.index(Component("Z", ("arc", x, y)))] = Component("N", ("arc", x, y))
    else:  # "dropped"
        index = rng.randrange(len(schema))
        del schema[index], columns[index]
    return LeafRepresentation(rep.leaf, schema, columns)


def test_schema_matches_the_per_arc_reference_on_every_leaf():
    for max_n in range(3, 13):
        report = run_suite("schema", max_n=max_n)
        assert report.passed
        assert (report.instances, report.failures) == reference_schema(max_n)


@pytest.mark.parametrize("kind", ["b_entry", "n_endpoint", "own_z_twice", "own_z_as_n", "dropped"])
def test_schema_matches_the_per_arc_reference_on_tampered_tables(monkeypatch, kind):
    real = harness.leaf_representations
    arcs_needed = 2 if kind == "b_entry" else 1  # the arc, and another arc's B column
    failed = 0
    for seed in range(12):
        def tampered(n):
            rng = random.Random(seed * 100 + n)
            reps = list(real(n))
            for index in rng.sample(range(len(reps)), min(3, len(reps))):
                rep = reps[index]
                if len(rep.leaf.arcs) >= arcs_needed and (kind != "n_endpoint" or rep.c):
                    reps[index] = _tamper(rep, kind, rng)
            return tuple(reps)
        monkeypatch.setattr(harness, "leaf_representations", tampered)
        report = run_suite("schema", max_n=7)
        assert (report.instances, report.failures) == reference_schema(7), seed
        failed += not report.passed
    # A duplicated own Z column reads 1 wherever the arc's own does: no defect.
    assert failed == 0 if kind == "own_z_twice" else failed >= 10


def test_failure_injection_breaks_faithfulness():
    for seed in range(4):
        report = run_suite("faithfulness", n=3, max_len=3, corrupt=True, seed=seed)
        assert not report.passed
        assert "corrupted_leaf" in report.params


def pairwise_faithfulness(n, max_len, corrupt, seed):
    """Every pair of words compared by its own oracle class and leaf images."""
    words = list(words_up_to(n, max_len))
    first_member = {}
    for w in words:
        for member in congruence_class(w):
            first_member.setdefault(member, w)
    reps = leaf_representations(n)
    if corrupt:
        reps, _ = harness._corrupt_one(reps, random.Random(seed))
    images = {w: [image(rep, w) for rep in reps] for w in words}
    failures = []
    instances = 0
    for a, wa in enumerate(words):
        for wb in words[a + 1:]:
            instances += 1
            oracle_eq = first_member[wa] == first_member[wb]
            embed_eq = images[wa] == images[wb]
            if oracle_eq != embed_eq:
                failures.append(f"({format_word(wa)!r}, {format_word(wb)!r}): "
                                f"oracle={oracle_eq}, embedding={embed_eq}")
                if len(failures) >= 20:
                    return instances, failures + ["... further discrepancies suppressed"]
    return instances, failures


@pytest.mark.parametrize("n,max_len", [(3, m) for m in range(1, 6)] + [(4, m) for m in range(1, 6)])
def test_faithfulness_partitions_match_the_pairwise_scan(monkeypatch, n, max_len):
    clean = run_suite("faithfulness", n=n, max_len=max_len)
    assert clean.passed and (clean.instances, clean.failures) == \
        pairwise_faithfulness(n, max_len, False, 0)
    if max_len < 3:
        # The tampered relation class {y x y, y y x} has length 3: a shorter
        # self-test could not fail, so it is refused before any word is listed.
        def forbidden(*args):
            raise AssertionError("listed the words")
        monkeypatch.setattr(harness, "words_up_to", forbidden)
        with pytest.raises(BoundsExceeded, match="max_len >= 3"):
            run_suite("faithfulness", n=n, max_len=max_len, corrupt=True)
        return
    for seed in range(5):
        report = run_suite("faithfulness", n=n, max_len=max_len, corrupt=True, seed=seed)
        assert (report.instances, report.failures) == \
            pairwise_faithfulness(n, max_len, True, seed), seed


def test_faithfulness_reports_a_tampered_partition(monkeypatch):
    # Merging two classes, merging two and splitting a third (the class and
    # image counts stay equal), and merging two images must each be reported.
    real_partition, real_values = harness._class_partition, harness.column_values

    def tampered(words, extra=harness.core.NO_EXTRA):
        class_id = real_partition(words, extra)
        merged = {w: class_id[(1, 2)] if c == class_id[(2, 1)] else c
                  for w, c in class_id.items()}
        return merged if split is None else {**merged, split: -1}

    merged_12 = ["('1 2', '2 1'): oracle=True, embedding=False"]
    for split, want in ((None, merged_12),
                        ((2, 3, 1), merged_12 + ["('2 3 1', '3 1 2'): oracle=False, embedding=True",
                                                 "('2 3 1', '3 2 1'): oracle=False, embedding=True"])):
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_class_partition", tampered)
            assert run_suite("faithfulness", n=3, max_len=3).failures == want

    def merged_images(reps, words):
        values = real_values(reps, words)
        return {**values, (2, 1): values[(1, 2)]}

    monkeypatch.setattr(harness, "column_values", merged_images)
    report = run_suite("faithfulness", n=3, max_len=3)
    assert report.failures == ["('1 2', '2 1'): oracle=False, embedding=True"]
    assert report.instances == 40 * 39 // 2


def test_corruption_never_reaches_the_shared_columns():
    # The leaves of a rank share their columns; --corrupt must tamper with a
    # copy, so later runs in the same process see the true tables.
    for seed in range(4):
        assert not run_suite("faithfulness", n=4, max_len=3, corrupt=True, seed=seed).passed
    assert run_suite("faithfulness", n=4, max_len=3).passed
    for rep in leaf_representations(4):
        for comp, column in zip(rep.schema, rep.columns):
            allowed = (P, IDENTITY, Q) if comp.kind == "B" else (0, 1)
            assert set(column) <= set(allowed), (rep.leaf.id, comp)


def test_reports_are_deterministic():
    first = run_suite("identity", samples=40, seed=7)
    second = run_suite("identity", samples=40, seed=7)
    assert first.as_json_dict() == second.as_json_dict()
    third = run_suite("incomparability", n=4)
    assert third.as_json_dict() == run_suite("incomparability", n=4).as_json_dict()


def test_json_dict_shape():
    report = run_suite("counts", max_n=5)
    payload = report.as_json_dict()
    assert payload["format"] == 1
    assert payload["suite"] == "counts"
    assert payload["pass"] is True
    assert payload["failures"] == []
    assert "elapsed" not in payload
