import pytest

from chinese_monoid import harness
from chinese_monoid.bicyclic import IDENTITY, P, Q
from chinese_monoid.core import eq_oracle, first_level_pairs, words_up_to
from chinese_monoid.harness import (DEFAULT_BATTERY, SUITE_NAMES,
                                    BoundsExceeded, UnknownSuite, run_suite)
from chinese_monoid.representation import leaf_representations


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
    ("incomparability", {"n": 4, "max_len": 6}),
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
    ("faithfulness", {"n": 4, "max_len": 6}),
    ("boxplus", {"max_n": 9}),
    ("identity", {"samples": 0}),
    ("centrality", {"max_len": 9}),
    ("incomparability", {"n": 9}),
    ("schema", {"max_n": 30}),
    ("faithfulness", {"n": 3, "max_len": 0}),
    ("faithfulness", {"n": 3, "max_len": -3}),
    ("counts", {"corrupt": True}),
    ("identity", {"n": 3}),
])
def test_bounds_are_enforced(name, params):
    with pytest.raises(BoundsExceeded):
        run_suite(name, **params)


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
    "faithfulness": {"n": (3, 3, 4), "max_len": (None, 1, 6), "corrupt": (False, False, True)},
    "boxplus": {"max_n": (5, 3, 6), "max_word_len": (3, 0, 4)},
    "identity": {"samples": (200, 1, 10_000), "max_n": (5, 3, 6), "max_len": (4, 1, 6)},
    "centrality": {"max_n": (4, 3, 5), "max_len": (4, 0, 5)},
    "incomparability": {"n": (4, 3, 5), "max_len": (6, 1, 8)},
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
        for w in words:
            labelled = class_id.get(w + head) == class_id[head + w]
            assert labelled is eq_oracle(head + w, w + head, pairs), (sorted(pairs), head, w)
            verdicts.append(labelled)
    assert False in verdicts and True in verdicts


def test_centrality_reports_a_weakened_congruence(monkeypatch):
    real = harness.first_level_pairs

    def without_commutators(kind, s, n):
        return frozenset(pair for pair in real(kind, s, n) if len(pair[0]) != 2)
    monkeypatch.setattr(harness, "first_level_pairs", without_commutators)
    report = run_suite("centrality", max_n=3, max_len=2)
    assert not report.passed
    assert report.failures[0].startswith("dot n=3 s=2 w=")


def test_failure_injection_breaks_faithfulness():
    for seed in range(4):
        report = run_suite("faithfulness", n=3, max_len=3, corrupt=True, seed=seed)
        assert not report.passed
        assert "corrupted_leaf" in report.params


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
    third = run_suite("incomparability", n=4, max_len=6)
    assert third.as_json_dict() == run_suite("incomparability", n=4, max_len=6).as_json_dict()


def test_json_dict_shape():
    report = run_suite("counts", max_n=5)
    payload = report.as_json_dict()
    assert payload["format"] == 1
    assert payload["suite"] == "counts"
    assert payload["pass"] is True
    assert payload["failures"] == []
    assert "elapsed" not in payload
