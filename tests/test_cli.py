import json
import re
import time

import pytest

from bcslab.cli import main

TRI = "# triangle\ngraph 3 3\ne 1 2 R\ne 2 3 B\ne 1 3 R\n"
ALLRED = "graph 3 2\ne 1 2 R\ne 2 3 R\n"


@pytest.fixture()
def tri_path(tmp_path):
    p = tmp_path / "tri.graph"
    p.write_text(TRI)
    return str(p)


@pytest.fixture()
def allred_path(tmp_path):
    p = tmp_path / "allred.graph"
    p.write_text(ALLRED)
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_yes_exit_zero(tri_path, capsys):
    code, out = _run(capsys, ["solve", "--algo", "oracle", "--kind", "subgraph", "-k", "2", tri_path])
    doc = json.loads(out)
    assert code == 0 and doc["answer"] == "yes" and doc["format"] == 1
    assert sorted(doc["witness"]) == doc["witness"]


def test_solve_no_exit_one(allred_path, capsys):
    code, out = _run(capsys, ["solve", "--algo", "oracle", "--kind", "path", "-k", "2", allred_path])
    assert code == 1 and json.loads(out)["answer"] == "no"


def test_solve_odd_k_exit_two(tri_path, capsys):
    code = main(["solve", "--algo", "algebraic", "--kind", "tree", "-k", "3", tri_path])
    assert code == 2


def test_solve_each_algo(tri_path, capsys):
    for algo in ("oracle", "split", "colorcoding", "algebraic"):
        code, out = _run(capsys, ["solve", "--algo", algo, "--kind", "subgraph", "-k", "2", tri_path])
        assert code == 0, algo
        assert json.loads(out)["answer"] == "yes"
    code, out = _run(capsys, ["solve", "--algo", "repsets", "--kind", "path", "-k", "2", tri_path])
    assert code == 0


def test_solve_deterministic_modulo_millis(tri_path, capsys):
    argv = ["solve", "--algo", "algebraic", "--kind", "path", "-k", "2", "--seed", "9",
            "--witness", tri_path]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    strip = lambda s: re.sub(r'"millis": \d+', '"millis": 0', s)
    assert strip(out1) == strip(out2)


def test_solve_witness_extraction_failure_exit_two(tri_path, capsys, monkeypatch):
    # the sieve says yes on the whole graph and misses on every smaller one, so
    # no deletion pass leaves a valid witness: an error, not yes without one
    from bcslab.algebra import mldetect

    calls = []

    def detect(*args):
        calls.append(args)
        return len(calls) == 1

    monkeypatch.setattr(mldetect, "detect_multilinear", detect)
    code = main(["solve", "--algo", "algebraic", "--kind", "path", "-k", "2", "--witness",
                 tri_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "no valid witness" in captured.err and "Traceback" not in captured.err


def test_oracle_count(tri_path, capsys):
    code, out = _run(capsys, ["oracle", "--kind", "path", "-k", "2", "--count", tri_path])
    assert code == 0 and json.loads(out)["count"] == 2


def test_shrink_roundtrip(tmp_path, capsys):
    g = "graph 9 8\n" + "".join(
        f"e {u} {v} {c}\n"
        for u, v, c in [(1, 3, "R"), (1, 4, "R"), (1, 5, "R"), (1, 2, "R"),
                        (2, 6, "B"), (2, 7, "B"), (2, 8, "B"), (2, 9, "B")]
    )
    gp = tmp_path / "g.graph"
    gp.write_text(g)
    wp = tmp_path / "w.json"
    wp.write_text(json.dumps({"kind": "tree", "edges": list(range(8))}))
    code, out = _run(capsys, ["shrink", "-k", "2", str(gp), str(wp)])
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "tree" and 2 <= len(doc["edges"]) <= 7


def test_generate_steiner(tmp_path, capsys):
    src = tmp_path / "src.graph"
    src.write_text("graph 3 2\ne 1 2 B\ne 2 3 B\n")
    out_prefix = str(tmp_path / "gen")
    code, _ = _run(capsys, ["generate", "steiner", "-k", "2", "--terminals", "1,3",
                            "--out", out_prefix, str(src)])
    assert code == 0
    side = json.loads((tmp_path / "gen.json").read_text())
    assert side["target"] == 4 and side["kind"] == "subgraph"
    text = (tmp_path / "gen.graph").read_text()
    assert text.startswith("graph 5 4")


def test_generate_splitpath(tmp_path, capsys):
    src = tmp_path / "src.graph"
    src.write_text("graph 3 3\ne 1 2 B\ne 2 3 B\ne 1 3 B\n")
    out_prefix = str(tmp_path / "gen2")
    code, _ = _run(capsys, ["generate", "splitpath", "-k", "2", "--u0", "1",
                            "--out", out_prefix, str(src)])
    assert code == 0
    side = json.loads((tmp_path / "gen2.json").read_text())
    assert side["target"] == 4 and side["kind"] == "path"


def test_crosscheck_empty_dir(tmp_path, capsys):
    code, out = _run(capsys, ["crosscheck", "--dir", str(tmp_path)])
    doc = json.loads(out)
    assert code == 0 and doc["instances"] == 0 and doc["disagreements"] == []


def test_crosscheck_small(capsys):
    code, out = _run(capsys, ["crosscheck", "--max-n", "3", "--trials", "8"])
    doc = json.loads(out)
    assert code == 0
    assert doc["disagreements"] == []
    assert doc["algebraic"]["false_positives"] == 0
    assert doc["algebraic"]["false_negatives"] == 0


def test_bench_csv_shape(capsys):
    code, out = _run(capsys, ["bench", "--algo", "repsets", "--kind", "path",
                              "--ks", "2,4", "--n", "8", "--runs", "1"])
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "algo,kind,k,n,m,median_ms,runs"
    assert len(lines) == 3


def test_bench_empty_family(capsys):
    code, out = _run(capsys, ["bench", "--algo", "repsets", "--kind", "path", "--ks", ""])
    assert code == 0 and out.strip() == "algo,kind,k,n,m,median_ms,runs"


@pytest.mark.parametrize("flags,message", [
    (["--algo", "repsets", "--runs", "0"], "at least one run"),
    (["--algo", "algebraic", "--trials", "0"], "at least one trial"),
])
def test_bench_without_work_exit_two(capsys, flags, message):
    assert main(["bench", "--kind", "path", "--ks", "2", "--n", "6"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_bench_repsets_other_kind_exit_two(capsys):
    assert main(["bench", "--algo", "repsets", "--kind", "tree", "--ks", "2", "--n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "kind=path only" in captured.err


def test_solve_out_of_memory_exit_two(tri_path, capsys, monkeypatch):
    # exit 1 would read as "no"; the sieve's allocation failing is no answer
    from bcslab.algebra import mldetect

    def fail(c, sub):
        raise MemoryError

    monkeypatch.setattr(mldetect, "_eval_fast", fail)
    assert main(["solve", "--algo", "algebraic", "--kind", "path", "-k", "2", tri_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "out of memory" in captured.err


def test_crosscheck_random_below_four_vertices_exit_two(capsys):
    assert main(["crosscheck", "--random", "2", "--random-n", "3"]) == 2
    assert "max_n" in capsys.readouterr().err


def test_bad_graph_file_exit_two(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("graph 2 1\ne 1 2 X\n")
    assert main(["solve", "--algo", "oracle", "-k", "2", str(p)]) == 2


def test_shrink_witness_without_kind_exit_two(tmp_path, capsys):
    gp = tmp_path / "g.graph"
    gp.write_text(TRI)
    wp = tmp_path / "w.json"
    wp.write_text(json.dumps({"edges": [0, 1]}))
    assert main(["shrink", "-k", "2", str(gp), str(wp)]) == 2
    assert '"kind"' in capsys.readouterr().err


@pytest.mark.parametrize("edges", [["a"], [0.5], [[0]], [True, 0], [0, None]])
def test_shrink_witness_non_integer_edges_exit_two(tmp_path, capsys, edges):
    gp = tmp_path / "g.graph"
    gp.write_text(TRI)
    wp = tmp_path / "w.json"
    wp.write_text(json.dumps({"kind": "subgraph", "edges": edges}))
    assert main(["shrink", "-k", "2", str(gp), str(wp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "integer edge indices" in captured.err


def test_shrink_deeply_nested_witness_exit_two(tmp_path, capsys):
    gp = tmp_path / "g.graph"
    gp.write_text(TRI)
    wp = tmp_path / "w.json"
    wp.write_text("[" * 100000)
    assert main(["shrink", "-k", "2", str(gp), str(wp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nested too deeply" in captured.err


@pytest.mark.parametrize("kind", ["subgraph", "tree", "path"])
def test_algebraic_large_k_on_few_edges_is_no_at_once(kind, tmp_path, capsys):
    # fewer edges than k: the answer comes before any circuit is built, where
    # a circuit for k = 400 once ran out of recursion depth
    p = tmp_path / "tiny.graph"
    p.write_text("graph 4 3\ne 1 2 R\ne 2 3 B\ne 3 4 R\n")
    t0 = time.perf_counter()
    code, out = _run(capsys, ["solve", "--algo", "algebraic", "--kind", kind, "-k", "400", str(p)])
    assert code == 1 and json.loads(out)["answer"] == "no"
    assert time.perf_counter() - t0 < 1.0


def _path_file(tmp_path, edges):
    p = tmp_path / "path.graph"
    p.write_text(f"graph {edges + 1} {edges}\n" + "".join(
        f"e {i + 1} {i + 2} {'RB'[i % 2]}\n" for i in range(edges)))
    return str(p)


def test_algebraic_k_past_cap_exit_two(tmp_path, capsys):
    # enough edges for k = 400, which once ran the builders out of recursion
    # depth: past the sieve's k cap the answer is an error that names the cap
    from bcslab.algebra.mldetect import MAX_K

    p = _path_file(tmp_path, 401)
    t0 = time.perf_counter()
    code = main(["solve", "--algo", "algebraic", "--kind", "path", "-k", "400", p])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"cap of k = {MAX_K}" in captured.err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("kind", ["tree", "subgraph"])
def test_algebraic_tree_subgraph_k_past_cap_exit_two(kind, tmp_path, capsys):
    # tree and subgraph circuits outgrow path circuits: their cap is lower
    from bcslab.algebra.mldetect import MAX_K_TREE_SUBGRAPH

    p = _path_file(tmp_path, 20)
    t0 = time.perf_counter()
    code = main(["solve", "--algo", "algebraic", "--kind", kind, "-k", "14", p])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"cap of k = {MAX_K_TREE_SUBGRAPH} for a {kind}" in captured.err
    assert time.perf_counter() - t0 < 1.0


def test_repsets_large_k_on_few_edges_is_no_at_once(tmp_path, capsys):
    # fewer edges than k: no before any wedge is built
    p = tmp_path / "tiny.graph"
    p.write_text("graph 4 3\ne 1 2 R\ne 2 3 B\ne 3 4 R\n")
    t0 = time.perf_counter()
    code, out = _run(capsys, ["solve", "--algo", "repsets", "--kind", "path", "-k", "64", str(p)])
    assert code == 1 and json.loads(out)["answer"] == "no"
    assert time.perf_counter() - t0 < 1.0


def test_repsets_k_past_cap_exit_two(tmp_path, capsys):
    from bcslab.repsets import MAX_K

    p = _path_file(tmp_path, 60)
    t0 = time.perf_counter()
    code = main(["solve", "--algo", "repsets", "--kind", "path", "-k", "40", p])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"cap of k = {MAX_K}" in captured.err
    assert time.perf_counter() - t0 < 1.0


def test_oracle_count_atleast_exit_two(tri_path, capsys):
    # the count is of witnesses of exactly k edges
    code = main(["oracle", "--kind", "subgraph", "-k", "2", "--count", "--mode", "atleast",
                 tri_path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "--mode atleast" in captured.err


# a balanced path of 8 edges with no balanced subgraph, tree or path of exactly 6
RRBBBBRR = "graph 9 8\n" + "".join(f"e {v} {v + 1} {c}\n" for v, c in enumerate("RRBBBBRR", 1))


@pytest.mark.parametrize("kind", ["subgraph", "tree", "path"])
@pytest.mark.parametrize("algo", ["oracle", "split", "colorcoding", "repsets", "algebraic"])
def test_solve_atleast_is_yes_or_exit_two(algo, kind, tmp_path, capsys):
    # at least 6 edges holds with all 8; a solver that decides exactly k would
    # answer a false "no", so it exits 2 naming the mode
    path = tmp_path / "rrbbbbrr.graph"
    path.write_text(RRBBBBRR)
    exact = main(["solve", "--algo", "oracle", "--kind", kind, "-k", "6", str(path)])
    capsys.readouterr()
    code = main(["solve", "--algo", algo, "--kind", kind, "-k", "6", "--mode", "atleast",
                 str(path)])
    captured = capsys.readouterr()
    assert exact == 1
    if algo == "oracle":
        doc = json.loads(captured.out)
        assert code == 0 and doc["answer"] == "yes" and doc["witness"] == list(range(8))
    elif algo == "split":
        # split answers at least k on split graphs; a path of 9 vertices is not one
        assert code == 2 and "split" in captured.err and "--mode" not in captured.err
    else:
        assert code == 2 and captured.out == "" and "--mode atleast" in captured.err


@pytest.mark.parametrize("k", ["2", "4"])
def test_algebraic_zero_trials_exit_two(k, tri_path, capsys):
    # checked up front, also where fewer than k edges would answer no (k = 4)
    assert main(["solve", "--algo", "algebraic", "-k", k, "--trials", "0", tri_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "trial" in captured.err


@pytest.mark.parametrize("flag", [["--trials", "5"], ["--delta", "0.1"], ["--ell", "16"],
                                  ["--witness"]])
def test_oracle_rejects_flags_it_does_not_read(flag, tri_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--kind", "path", "-k", "2", *flag, tri_path])
    assert exc.value.code == 2


def test_oracle_matches_solve_oracle(tri_path, capsys):
    # one decision path: the same answer and witness as solve --algo oracle
    for kind in ("subgraph", "tree", "path"):
        code, out = _run(capsys, ["oracle", "--kind", kind, "-k", "2", tri_path])
        code2, out2 = _run(capsys, ["solve", "--algo", "oracle", "--kind", kind, "-k", "2",
                                    tri_path])
        doc, doc2 = json.loads(out), json.loads(out2)
        del doc["millis"], doc2["millis"]
        assert (code, doc) == (code2, doc2) and doc["algo"] == "oracle"


def test_shrink_long_alternating_path(tmp_path, capsys):
    from bcslab.graphs import Witness, WitnessKind, parse_graph, validate_witness

    text = "graph 2001 2000\n" + "".join(
        f"e {i + 1} {i + 2} {'RB'[i % 2]}\n" for i in range(2000))
    gp = tmp_path / "p.graph"
    gp.write_text(text)
    wp = tmp_path / "w.json"
    wp.write_text(json.dumps({"kind": "path", "edges": list(range(2000))}))
    code, out = _run(capsys, ["shrink", "-k", "4", str(gp), str(wp)])
    w = Witness.from_json(out)
    assert code == 0 and w.kind is WitnessKind.PATH and 4 <= w.size <= 7
    assert validate_witness(parse_graph(text), w, w.size).valid
