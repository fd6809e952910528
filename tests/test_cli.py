import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chinese_monoid
from chinese_monoid import harness
from chinese_monoid.cli import main
from chinese_monoid.tree import enumerate_leaves


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_leaves_plain(capsys):
    code, out, _ = run(capsys, "leaves", "-n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert [line.split("\t")[0] for line in lines] == ["d2 A", "a2", "a3"]


def test_leaves_json(capsys):
    code, out, _ = run(capsys, "leaves", "-n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == 1
    assert [leaf["id"] for leaf in payload["leaves"]] == \
        ["d2 A", "d3 A", "a2", "a3 A", "a4"]
    assert all(leaf["c"] + 2 * leaf["d"] == 4 for leaf in payload["leaves"])


def test_eq_both_methods(capsys):
    code, out, _ = run(capsys, "eq", "-n", "3", "3 2 1", "2 3 1", "--method", "both")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eq", "-n", "3", "1 2", "2 1")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "eq", "-n", "3", "cba", "3 2 1", "--method", "oracle")
    assert code == 0 and out.strip() == "true"


def test_eq_below_rank_3_runs_every_method(capsys):
    # No leaf exists below rank 3, but the letter counts and projections
    # still decide equality there, so both methods run and must agree.
    code, out, _ = run(capsys, "eq", "-n", "1", "1", "1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eq", "-n", "2", "2 1 1", "1 2 1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eq", "-n", "2", "1 2", "2 1", "--method", "both")
    assert code == 0 and out.strip() == "false"
    # Over the oracle's bound, the projections alone answer.
    word = " ".join(["2", "1"] * 33)
    code, out, _ = run(capsys, "eq", "-n", "2", word, word[::-1], "--method", "embedding")
    assert code == 0 and out.strip() == "false"
    relation = "2 2 1 " + word[6:]  # the first factor 2 1 2 rewritten to 2 2 1
    code, out, _ = run(capsys, "eq", "-n", "2", word, relation, "--method", "embedding")
    assert code == 0 and out.strip() == "true"


def test_normalize_and_mul(capsys):
    code, out, _ = run(capsys, "normalize", "-n", "3", "3 2 1")
    assert code == 0
    assert json.loads(out) == {"n": 3, "k": [[0], [0, 1], [1, 0, 0]]}
    code, out2, _ = run(capsys, "mul", "-n", "3", "3", "2 1")
    assert code == 0 and out2 == out


def test_image_command(capsys):
    code, out, _ = run(capsys, "image", "-n", "3", "--leaf", "d2 A", "3 2 1")
    assert code == 0
    assert out.strip() == "(N:1, B:p^0q^0, Z:1)"


def test_repr_json(capsys):
    code, out, _ = run(capsys, "repr", "-n", "3", "--leaf", "a2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == 1
    assert payload["images"]["1"] == [{"p": 1, "q": 0}, 1, 0]


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "-n", "3", "--leaf1", "a2", "--leaf2", "a3")
    assert code == 0
    assert out.startswith("w = ")


def test_tree_ascii_and_dot(capsys):
    code, out, _ = run(capsys, "tree", "-n", "3")
    assert code == 0
    assert out.splitlines()[0] == "root"
    assert "  d2" in out
    code, out, _ = run(capsys, "tree", "-n", "3", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("label=") == 5
    with pytest.raises(SystemExit) as exc:  # the listing is the default: no --ascii
        main(["tree", "-n", "3", "--ascii"])
    assert exc.value.code == 2


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # `chinese-monoid tree -n 16 | head -1`: the listing (about 680 kB) is
    # far more than a pipe holds, so the writer meets the closed pipe.
    env = {**os.environ, "PYTHONPATH": str(Path(chinese_monoid.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "chinese_monoid.cli", "tree", "-n", "16"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"root\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
    assert proc.returncode == 141


def test_verify_pass_and_fail(capsys):
    code, out, err = run(capsys, "verify", "counts")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["suite"] == "counts"
    assert "[pass] counts" in err
    code, out, err = run(capsys, "verify", "faithfulness", "--n", "3",
                         "--max-len", "3", "--corrupt")
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "counterexample" in err


def test_corrupt_self_test_below_length_3_exits_2(capsys):
    code, out, err = run(capsys, "verify", "faithfulness", "--n", "3",
                         "--max-len", "2", "--corrupt")
    assert code == 2 and out == ""
    assert "max_len >= 3" in err


def test_verify_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "verify", "identity", "--samples", "30", "--seed", "5")
    _, second, _ = run(capsys, "verify", "identity", "--samples", "30", "--seed", "5")
    assert first == second


@pytest.mark.parametrize("command, bound, rest", [
    ("normalize", 1000, ["1"]),
    ("mul", 1000, ["1", "2"]),
    ("eq", 1000, ["1", "2"]),
    ("tree", 16, []),
    ("leaves", 16, []),
    ("repr", 1000, ["--leaf", "a2"]),
    ("image", 1000, ["--leaf", "a2", "1"]),
    ("witness", 1000, ["--leaf1", "a2", "--leaf2", "a3"]),
])
def test_every_rank_bound_is_enforced(capsys, command, bound, rest):
    code, out, err = run(capsys, command, "-n", str(bound + 1), *rest)
    assert (code, out, err) == (2, "", f"error: {command} needs n <= {bound}, got {bound + 1}\n")


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "-n", "3", "9 9")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "leaves", "-n", "2")
    assert code == 2
    code, _, err = run(capsys, "repr", "-n", "3", "--leaf", "d2")
    assert code == 2
    code, _, err = run(capsys, "verify", "counts", "--max-n", "99")
    assert code == 2
    code, _, err = run(capsys, "repr", "-n", "3", "--leaf", "")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "image", "-n", "3", "--leaf", " ", "1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "witness", "-n", "3", "--leaf1", "a2", "--leaf2", "a2")
    assert code == 2 and "must differ" in err
    code, out, err = run(capsys, "verify", "incomparability", "--max-len", "3")
    assert code == 2 and "incomparability does not read max_len" in err and out == ""
    # n(n-1)/2 = 499,500 projections at n = 1000: 60 letters fit, 61 do not.
    code, out, err = run(capsys, "normalize", "-n", "1000", " ".join(["1"] * 61))
    assert code == 2 and "n(n-1)/2 * letters" in err and out == ""
    code, out, err = run(capsys, "mul", "-n", "1000", " ".join(["1"] * 31), " ".join(["2"] * 30))
    assert code == 2 and "n(n-1)/2 * letters" in err and out == ""
    for method in ("embedding", "both"):
        code, out, err = run(capsys, "eq", "-n", "1000", " ".join(["1"] * 31),
                             " ".join(["1"] * 30), "--method", method)
        assert code == 2 and "n(n-1)/2 * letters" in err and out == ""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "primes"])
    assert exc.value.code == 2
    code, out, err = run(capsys, "verify", "all", "--max-n", "4")
    assert code == 2 and "error:" in err and out == ""
    code, out, err = run(capsys, "verify", "counts", "--corrupt")
    assert code == 2 and "does not read corrupt" in err and out == ""


def test_image_refuses_words_past_its_bound_before_any_image(capsys, monkeypatch):
    import chinese_monoid.cli as cli

    def forbidden(*args):
        raise AssertionError("computed an image")
    monkeypatch.setattr(cli, "image", forbidden)
    # A leaf table at n = 1000 has 1000 components: 30,000 letters fit, 30,001 do not.
    code, out, err = run(capsys, "image", "-n", "1000", "--leaf", "a1000", " ".join(["1"] * 30_001))
    assert (code, out) == (2, "")
    assert err == "error: needs n * letters <= 30,000,000, got 30,001,000\n"
    # A bad leaf id is still reported before a bad word.
    code, _, err = run(capsys, "image", "-n", "1000", "--leaf", "a1001", "1001")
    assert (code, err) == (2, "error: step ('a', 1001) not allowed here; "
                              "legal: ('d', 2..999) or ('a', 2..1000)\n")


def test_witness_answers_at_the_largest_rank(capsys):
    # The pair is built from the leaves' arcs, so the rank does not bound the work.
    code, out, _ = run(capsys, "witness", "-n", "1000", "--leaf1", "a2", "--leaf2", "a1000")
    assert code == 0
    assert out.splitlines()[:2] == ["w = 999 1000", "v = 1000 999"]


def test_witness_refuses_max_len_before_any_table(capsys, monkeypatch):
    import chinese_monoid.cli as cli

    def forbidden(*args):
        raise AssertionError("built a leaf table")
    monkeypatch.setattr(cli, "build_representation", forbidden)
    # The pair always has 2 or 3 letters, so there is no length to bound.
    with pytest.raises(SystemExit) as exc:
        main(["witness", "-n", "1000", "--leaf1", "a2", "--leaf2", "a1000", "--max-len", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-len 3" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["witness", "--help"])
    assert "--max-len" not in capsys.readouterr().out


def test_the_oracle_is_not_bounded_by_projections(capsys):
    word = " ".join(["1"] * 61)
    assert run(capsys, "eq", "-n", "1000", word, word, "--method", "oracle")[:2] == (0, "true\n")


def test_the_oracle_refuses_long_words_before_any_work(capsys, monkeypatch):
    import chinese_monoid.cli as cli
    import chinese_monoid.core as core

    def forbidden(*args):
        raise AssertionError("ran the closure")
    monkeypatch.setattr(core, "_closure", forbidden)
    word = " ".join(["2", "1"] * (cli.MAX_ORACLE_LETTERS // 2) + ["1"])  # one letter over
    for n, method in (("3", "oracle"), ("3", "both"), ("2", "oracle"), ("2", "both")):
        code, out, err = run(capsys, "eq", "-n", n, word, word[::-1], "--method", method)
        assert code == 2 and out == ""
        assert f"<= {cli.MAX_ORACLE_LETTERS} letters per word" in err
        assert "--method embedding" in err


def test_a_class_past_the_cap_is_inconclusive_not_a_usage_error(capsys, monkeypatch):
    # Valid input within every bound: a false verdict must close the class of
    # 420 words, past a cap of 50.
    import chinese_monoid.cli as cli
    import chinese_monoid.core as core

    monkeypatch.setattr(cli, "eq_oracle", functools.partial(core.eq_oracle, cap=50))
    for method in ("oracle", "both"):
        code, out, err = run(capsys, "eq", "-n", "3", "3 2 1 3 2 1 3 2 1", "1 1 1 2 2 2 3 3 3",
                             "--method", method)
        assert (code, out) == (1, "")
        assert err == ("inconclusive: congruence class of '3 2 1 3 2 1 3 2 1' exceeds cap 50; "
                       "use --method embedding\n")
    assert run(capsys, "eq", "-n", "3", "3 2 1 3 2 1 3 2 1", "1 1 1 2 2 2 3 3 3",
               "--method", "embedding")[:2] == (0, "false\n")


# sha256 of the concatenated stdout of each group.  This output is byte-stable:
# a change to the tree code or the leaf tables must leave it as it is.
GOLDEN = {
    "tree": ([("tree", "-n", str(n)) for n in range(3, 13)],
             "e9753ccff77794573fbe875fb1e3f94928b7d3cec7e09f4a73e81458383e7359"),
    "tree --dot": ([("tree", "-n", str(n), "--dot") for n in range(3, 13)],
                   "923f24cd7356c7e1961321c47af19f236fb755a599d52c30e3be78240b81a982"),
    "leaves --json": ([("leaves", "-n", str(n), "--json") for n in range(3, 13)],
                      "92443c42e46a5fcbb447dc84820d760c06a907a3ed4bcce92dc7567539c99d06"),
    "repr -n 7 --json": ([("repr", "-n", "7", "--leaf", leaf.id, "--json")
                          for leaf in enumerate_leaves(7)],
                         "f2ac3a82324c1ce5488a0b51d84cf6b29d661077c69f12ca0a5131ad1ea1c361"),
    "verify all --seed 0": ([("verify", "all", "--seed", "0")],
                            "730e86a7a5b54d14314c2ef5d26aa417a2c5f20b5d6f466c465566bc68a77ed7"),
    "repr": ([("repr", "-n", str(n), "--leaf", leaf.id)
              for n in range(3, 8) for leaf in enumerate_leaves(n)],
             "06745c72bb4b23fa7120e2ebb5463a1f204b0b25ea592372c7d050ba17ae5609"),
    "witness": ([("witness", "-n", str(n), "--leaf1", a.id, "--leaf2", b.id)
                 for n in (4, 5)
                 for a in enumerate_leaves(n) for b in enumerate_leaves(n) if a != b],
                "808d60747ae9e258cbea394c1bab024a3a22796c2c2533b0a2f7e1c7f3886846"),
}


@pytest.mark.parametrize("group", GOLDEN)
def test_cli_output_matches_the_golden_digest(capsys, group):
    commands, digest = GOLDEN[group]
    text = "".join(run(capsys, *argv)[1] for argv in commands)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_every_verify_flag_states_and_enforces_its_range(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for suite, (_, table) in harness.SUITES.items():
        for name, (default, low, high) in table.items():
            if isinstance(default, bool):
                assert f"--{name} switch read by {suite}" in help_text
                continue
            assert f"{suite} ({low}..{high})" in help_text
            code, out, err = run(capsys, "verify", suite, "--" + name.replace("_", "-"),
                                 str(high + 1))
            assert code == 2 and out == ""
            assert f"error: {suite} needs {low} <= {name} <= {high}, got {high + 1}" in err


def test_leaf_lookups_enumerate_no_leaves(capsys, monkeypatch):
    import chinese_monoid.representation as representation
    import chinese_monoid.tree as tree

    def forbidden(*args):
        raise AssertionError("enumerated the leaves")
    for module, name in ((tree, "enumerate_leaves"), (representation, "enumerate_leaves"),
                         (representation, "leaf_representations")):
        monkeypatch.setattr(module, name, forbidden)
    assert representation.eq_via_embedding(16, (16, 1, 2), (2, 16, 1))
    assert run(capsys, "repr", "-n", "16", "--leaf", "a2")[0] == 0
    assert run(capsys, "image", "-n", "16", "--leaf", "d2 A", "16 1")[0] == 0
    assert run(capsys, "witness", "-n", "4", "--leaf1", "a2", "--leaf2", "a4")[0] == 0


def test_method_disagreement_is_fatal(capsys, monkeypatch):
    import chinese_monoid.cli as cli
    import chinese_monoid.core as core
    monkeypatch.setattr(cli, "eq_via_embedding", lambda n, w, v: True)
    code, _, err = run(capsys, "eq", "-n", "3", "1 2", "2 1", "--method", "both")
    assert code == 1
    assert "METHOD DISAGREEMENT" in err
    # The embedding answers and the oracle, called after it, only confirms.
    for w, v, verdict in (("1 2", "2 1", True), ("2 1 1", "1 2 1", False)):
        calls = []
        monkeypatch.setattr(cli, "eq_via_embedding",
                            lambda n, w, v, verdict=verdict: calls.append("embedding") or verdict)
        monkeypatch.setattr(cli, "eq_oracle",
                            lambda w, v: calls.append("oracle") or core.eq_oracle(w, v))
        assert run(capsys, "eq", "-n", "3", w, v, "--method", "both") == \
            (1, "", f"METHOD DISAGREEMENT on ({w!r}, {v!r}): "
                    f"oracle={not verdict}, embedding={verdict}\n")
        assert calls == ["embedding", "oracle"]


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    import chinese_monoid.cli as cli

    def broken(word, n):
        raise ValueError("exponents must be nonnegative")
    monkeypatch.setattr(cli, "to_staircase", broken)
    with pytest.raises(ValueError):
        main(["normalize", "-n", "3", "3 2 1"])


def test_internal_index_error_is_not_a_usage_error(monkeypatch):
    # The suites generate every index themselves: only a bug can raise here.
    import chinese_monoid.core as core

    def broken(*args, **kwargs):
        raise core.IndexConstraintViolated("index 0 outside 1..3")
    monkeypatch.setattr(core, "boxplus_failures", broken)
    with pytest.raises(core.IndexConstraintViolated):
        main(["verify", "boxplus", "--max-n", "3", "--max-word-len", "0"])


def test_internal_unknown_suite_is_not_a_usage_error(monkeypatch):
    # argparse refuses an unknown suite name and `all` runs the fixed battery:
    # only a bug in the battery can name a suite that does not exist.
    monkeypatch.setattr(harness, "DEFAULT_BATTERY", (("countz", {}),))
    with pytest.raises(harness.UnknownSuite, match="unknown suite 'countz'"):
        main(["verify", "all"])
