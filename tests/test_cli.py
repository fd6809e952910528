import json

import pytest

from chinese_monoid.cli import main


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


def test_eq_below_rank_3_uses_the_oracle(capsys):
    code, out, _ = run(capsys, "eq", "-n", "1", "1", "1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eq", "-n", "2", "2 1 1", "1 2 1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eq", "-n", "2", "1 2", "2 1", "--method", "both")
    assert code == 0 and out.strip() == "false"


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


def test_verify_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "verify", "identity", "--samples", "30", "--seed", "5")
    _, second, _ = run(capsys, "verify", "identity", "--samples", "30", "--seed", "5")
    assert first == second


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
    code, out, err = run(capsys, "witness", "-n", "3", "--leaf1", "a2", "--leaf2", "a3",
                         "--max-len", "-1")
    assert code == 2 and "max-len" in err and out == ""
    code, _, err = run(capsys, "eq", "-n", "2", "1", "1", "--method", "embedding")
    assert code == 2 and "rank must be >= 3" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "primes"])
    assert exc.value.code == 2


def test_method_disagreement_is_fatal(capsys, monkeypatch):
    import chinese_monoid.cli as cli
    monkeypatch.setattr(cli, "eq_via_embedding", lambda n, w, v: True)
    code, _, err = run(capsys, "eq", "-n", "3", "1 2", "2 1", "--method", "both")
    assert code == 1
    assert "METHOD DISAGREEMENT" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    import chinese_monoid.cli as cli

    def broken(word, n):
        raise ValueError("exponents must be nonnegative")
    monkeypatch.setattr(cli, "to_staircase", broken)
    with pytest.raises(ValueError):
        main(["normalize", "-n", "3", "3 2 1"])
