import pytest

from chinese_monoid.harness import (DEFAULT_BATTERY, SUITE_NAMES,
                                    BoundsExceeded, UnknownSuite, run_suite)


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
])
def test_bounds_are_enforced(name, params):
    with pytest.raises(BoundsExceeded):
        run_suite(name, **params)


def test_failure_injection_breaks_faithfulness():
    for seed in range(4):
        report = run_suite("faithfulness", n=3, max_len=3, corrupt=True, seed=seed)
        assert not report.passed
        assert "corrupted_leaf" in report.params


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
