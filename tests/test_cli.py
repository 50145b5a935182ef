"""Command-line interface: outputs, error paths, determinism, budgets."""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from prodsim import Digraph, cells, cli, rooted_word_graph, tangled_cord, word_label
from prodsim.cli import main
from oracles import TANGLED_REFERENCE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_bijection_example(self, capsys):
        code, out, _ = run(capsys, "normalize", "133212")
        assert code == 0 and out == "122313\n"

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "normalize", "e")
        assert code == 0 and out == "e\n"

    def test_invalid_word(self, capsys):
        code, out, err = run(capsys, "normalize", "121")
        assert code == 2
        assert "NotDoubleOccurrence" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "word.txt"
        code, out, _ = run(capsys, "normalize", "1212", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "1212\n"

    def test_output_in_missing_directory(self, capsys, tmp_path):
        # an unwritable --output is bad input: one error line, exit 2
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, "normalize", "11", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: FileNotFoundError") and "Traceback" not in err
        assert not target.parent.exists()

    def test_bad_output_fails_before_any_work(self, capsys, monkeypatch, tmp_path):
        def unreachable(*args):
            raise AssertionError("the complex was built for an unwritable --output")

        monkeypatch.setattr(cli, "build_complex", unreachable)
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "table", "6", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: FileNotFoundError") and "Traceback" not in err

    def test_output_check_leaves_files_alone(self, capsys, tmp_path):
        # the check creates no file when the command fails, and truncates
        # none that exists
        target = tmp_path / "out.txt"
        assert run(capsys, "normalize", "121", "--output", str(target))[0] == 2
        assert not target.exists()
        target.write_text("kept\n")
        assert run(capsys, "normalize", "121", "--output", str(target))[0] == 2
        assert target.read_text() == "kept\n"

    def test_broken_pipe_still_exits_0(self, capsys, monkeypatch):
        # BrokenPipeError is an OSError, but a closed reader is not an error
        def closed(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "cmd_normalize", closed)
        assert run(capsys, "normalize", "11") == (0, "", "")


class TestSuccessors:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "successors", "1234523541")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "word 1234523541"
        assert "factor 23 repeat" in lines
        assert "factor 45 return" in lines
        assert [l for l in lines if l.startswith("successor ")] == [
            "successor 123231", "successor 123321", "successor 12341243"]

    def test_square_word(self, capsys):
        code, out, _ = run(capsys, "successors", "1212")
        assert code == 0
        assert "successor e" in out.splitlines()

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "successors", "e")
        assert code == 0
        assert out == "word e\n"


class TestGraph:
    def test_rooted_pentagon_json(self, capsys):
        code, out, _ = run(capsys, "graph", "rooted", "121323", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["vertices"]) == 5
        assert len(obj["edges"]) == 5

    def test_global_two(self, capsys):
        code, out, _ = run(capsys, "graph", "global", "2", "--format", "json")
        obj = json.loads(out)
        assert sorted(obj["vertices"]) == ["1,1", "1,1,2,2", "1,2,1,2", "1,2,2,1", "e"]

    def test_construct_lantern_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "construct", "lantern", "4")
        assert code == 0
        assert out.startswith("digraph G {")
        assert '"v0" -> "v1";' in out

    def test_construct_subcommand(self, capsys):
        code, out, _ = run(capsys, "construct", "tennis", "diagonal", "--format", "json")
        obj = json.loads(out)
        assert ["v0", "v3"] in obj["edges"]

    def test_bad_source(self, capsys):
        code, _, err = run(capsys, "graph", "bogus", "1")
        assert code == 2 and "error" in err


class TestHomology:
    def test_rooted_t5(self, capsys):
        code, out, _ = run(capsys, "homology", "rooted", "1213243545")
        assert code == 0
        lines = out.splitlines()
        assert "1\t2\t-" in lines
        assert "2\t6\t-" in lines

    def test_construct_tennis(self, capsys):
        code, out, _ = run(capsys, "homology", "construct", "tennis")
        assert "2\t1\t-" in out.splitlines()

    def test_single_vertex(self, capsys):
        code, out, _ = run(capsys, "homology", "rooted", "e", "--max-dim", "1")
        assert code == 0
        assert "0\t1\t-" in out.splitlines()

    def test_bad_max_dim_exits_before_the_word_graph(self, capsys, monkeypatch):
        # argparse rejects the flag, so no word graph is built first
        def never(size):
            raise AssertionError(f"global_word_graph({size}) was called")

        monkeypatch.setattr(cli, "global_word_graph", never)
        for value in ("0", "-1", "two"):
            with pytest.raises(SystemExit) as exc:
                main(["homology", "global", "5", "--max-dim", value])
            assert exc.value.code == 2
            assert "--max-dim: expected int >= 1" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "homology", "rooted", "121323", "--format", "json")
        obj = json.loads(out)
        assert obj["0"] == {"betti": 1, "torsion": []}
        assert obj["1"] == {"betti": 1, "torsion": []}
        assert obj["2"] == {"betti": 0, "torsion": []}
        assert obj["euler"] == 0

    def test_homology_releases_its_cells(self, capsys, monkeypatch):
        # the summary takes the complex's cells; no matrix can be built
        # again, and the error says why
        complexes = []
        summary = cli.homology_summary

        def keeping(cx):
            complexes.append(cx)
            return summary(cx)

        monkeypatch.setattr(cli, "homology_summary", keeping)
        code, out, _ = run(capsys, "homology", "rooted", "12132435465767")
        assert code == 0 and "2\t54\t-" in out.splitlines()
        [cx] = complexes
        assert cx.cells is None
        for n in (1, 2, 3):
            with pytest.raises(RuntimeError, match="cells were released"):
                cx.boundary_matrix(n)


class TestGraphHandOver:
    @pytest.mark.parametrize("argv", [("homology", "global", "3"),
                                      ("homology", "rooted", "1213243545"),
                                      ("table", "8")])
    def test_no_graph_is_alive_while_cells_grow(self, capsys, monkeypatch, argv):
        # the command hands its graph over and build_complex drops it once
        # it holds the index form, so the first layer of cells grows with
        # no graph of the command's alive; the spy only counts graphs
        def graphs():
            return sum(isinstance(o, Digraph) for o in gc.get_objects())

        grow = cells._add_layer
        alive = []

        def first_layer(*args):
            if not alive:
                alive.append(graphs() - before)
            return grow(*args)

        monkeypatch.setattr(cells, "_add_layer", first_layer)
        gc.collect()
        before = graphs()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and alive == [0]


class TestTable:
    def test_rows_match_reference(self, capsys):
        code, out, _ = run(capsys, "table", "5")
        assert code == 0
        assert out.splitlines() == [
            "n\tword\tbeta1\tbeta2\tvertices",
            "2\t1,2,1,2\t0\t0\t2",
            "3\t1,2,1,3,2,3\t1\t0\t5",
            "4\t1,2,1,3,2,4,3,4\t1\t2\t8",
            "5\t1,2,1,3,2,4,3,5,4,5\t2\t6\t13",
        ]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "2")
        assert out.splitlines()[1:] == ["2\t1,2,1,2\t0\t0\t2"]

    def test_max_dim_flag_rejected(self, capsys):
        # the table needs cells through dimension 3 for exact beta1 and beta2
        with pytest.raises(SystemExit) as exc:
            main(["table", "4", "--max-dim", "2"])
        assert exc.value.code == 2
        assert "--max-dim" in capsys.readouterr().err

    def test_budget_exhausted_marks_partial(self, capsys):
        code, out, _ = run(capsys, "table", "4", "--budget", "0")
        assert code == 3
        assert "# budget exceeded" in out

    def test_progress_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "table", "9")
        assert code == 0
        assert "computing tangled cord n=9" in err
        assert "computing" not in out

    def test_progress_comes_before_the_work(self, capsys, monkeypatch):
        # each stderr line announces a phase before it runs, not after
        seen = []

        def recording(fn):
            def call(*args):
                seen.append(capsys.readouterr().err)
                return fn(*args)
            return call

        monkeypatch.setattr(cli, "build_complex", recording(cli.build_complex))
        monkeypatch.setattr(cli, "homology_summaries", recording(cli.homology_summaries))
        code, out, err = run(capsys, "table", "9")
        assert code == 0 and out.startswith("n\tword")
        assert seen == ["table: computing tangled cord n=9\n",
                        "table: homology of n=2..9, one reduction per degree\n"]
        assert err == ""

    def test_budget_after_the_homology_omits_every_row(self, capsys, monkeypatch):
        # the rows are only formatted from the finished reduction, so the
        # last check comes after it and an expiry there omits every row
        check = cli._Budget.check
        labels = []

        def expiring(self, label):
            labels.append(label)
            if label == "after the homology":
                raise cli.BudgetExceeded(label)
            check(self, label)

        monkeypatch.setattr(cli._Budget, "check", expiring)
        code, out, err = run(capsys, "table", "6")
        assert code == 3
        assert labels == ["before the complex", "after the word graph", "before the homology",
                          "after the homology"]
        assert "table: homology of n=2..6, one reduction per degree" in err
        assert out.splitlines() == ["n\tword\tbeta1\tbeta2\tvertices",
                                    "# budget exceeded; rows n>=2 omitted"]

    def test_the_table_releases_its_cells(self, capsys, monkeypatch):
        # the reduction takes the complex's cells; no matrix can be built
        # again, and the error says why
        complexes = []
        summaries = cli.homology_summaries

        def keeping(cx, born_by):
            complexes.append(cx)
            return summaries(cx, born_by)

        monkeypatch.setattr(cli, "homology_summaries", keeping)
        code, out, _ = run(capsys, "table", "7")
        assert code == 0 and len(out.splitlines()) == 7
        [cx] = complexes
        assert cx.cells is None
        for n in (1, 2, 3):
            with pytest.raises(RuntimeError, match="cells were released"):
                cx.boundary_matrix(n)

    def test_budget_before_the_complex_omits_every_row(self, capsys):
        code, out, _ = run(capsys, "table", "6", "--budget", "0")
        assert code == 3
        assert out.splitlines()[1:] == ["# budget exceeded; rows n>=2 omitted"]

    def test_budget_spent_on_the_word_graph_skips_the_cells(self, capsys, monkeypatch):
        # a word graph that outlasts the budget is never searched for cells
        calls = []

        def slow_graph(word):
            time.sleep(0.25)
            return rooted_word_graph(word)

        monkeypatch.setattr(cli, "rooted_word_graph", slow_graph)
        monkeypatch.setattr(cli, "build_complex", lambda *args: calls.append(args))
        code, out, _ = run(capsys, "table", "6", "--budget", "0.2")
        assert code == 3 and calls == []
        assert out.splitlines()[1:] == ["# budget exceeded; rows n>=2 omitted"]

    def test_every_tangled_cord_is_born_in_the_largest_graph(self):
        # the rows nest: T_n lies in G_14 for n = 2..14, and the vertices
        # born by n are G_n, F(n+2) of them (2 at n = 2)
        g = rooted_word_graph(tangled_cord(14)).graph
        birth = cli._tangled_births(g, 14)
        fib = [0, 1]
        while len(fib) < 17:
            fib.append(fib[-1] + fib[-2])
        for n in range(2, 15):
            assert word_label(tangled_cord(n)) in g
            born = sum(1 for b in birth.values() if b <= n)
            assert born == (2 if n == 2 else fib[n + 2]) == TANGLED_REFERENCE[n][2]
        assert len(birth) == len(g.vertices)

    def test_births_need_nested_cords(self):
        t2, t3 = (word_label(tangled_cord(n)) for n in (2, 3))
        with pytest.raises(ValueError, match="n=4 is missing"):
            cli._tangled_births(rooted_word_graph(tangled_cord(3)).graph, 4)
        with pytest.raises(ValueError, match="n=2 is not a successor of n=3"):
            cli._tangled_births(Digraph([t2, t3], []), 3)

    def test_homology_budget(self, capsys):
        code, out, _ = run(capsys, "homology", "rooted", "1212", "--budget", "0")
        assert code == 3
        assert "# budget exceeded" in out

    def test_homology_budget_counts_the_word_graph(self, capsys, monkeypatch):
        # the clock starts before the word graph, which alone can take many
        # seconds (global 7), so a spent budget never builds it
        calls = []
        monkeypatch.setattr(cli, "_graph_from_source", calls.append)
        code, out, _ = run(capsys, "homology", "global", "7", "--budget", "0")
        assert code == 3 and calls == []
        assert out == "# budget exceeded (before complex construction); no results\n"

    def test_homology_budget_spent_on_the_graph_skips_the_cells(self, capsys, monkeypatch):
        # the clock is checked again between the graph and the cell search,
        # whose memory grows with the graph (at global 7 it does not fit in
        # memory), so a graph that outlasts the budget is never searched
        calls = []

        def slow_graph(args):
            time.sleep(0.25)
            return Digraph(["a", "b"], [("a", "b")])

        monkeypatch.setattr(cli, "_graph_from_source", slow_graph)
        monkeypatch.setattr(cli, "build_complex", lambda *args: calls.append(args))
        code, out, _ = run(capsys, "homology", "global", "7", "--budget", "0.2")
        assert code == 3 and calls == []
        assert out == "# budget exceeded (after graph construction); no results\n"


class TestDeterminism:
    def test_table_byte_identical(self, capsys):
        _, first, _ = run(capsys, "table", "4")
        _, second, _ = run(capsys, "table", "4")
        assert first == second

    def test_homology_byte_identical(self, capsys):
        _, first, _ = run(capsys, "homology", "construct", "sphere_chain", "2")
        _, second, _ = run(capsys, "homology", "construct", "sphere_chain", "2")
        assert first == second

    def test_verify_seed_stable(self, capsys):
        args = ("verify", "--suite", "snf", "--seed", "5", "--cases", "25")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestVerify:
    def test_default_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--cases", "15")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(": PASS" in line for line in lines)

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2 and "unknown suite" in err

    def test_budget_exhausted_exits_3(self, capsys):
        code, out, _ = run(capsys, "verify", "--cases", "5", "--budget", "0")
        assert code == 3
        assert out == "suite boundary: SKIPPED (budget exceeded)\n"

    def test_failure_before_budget_expiry_exits_1(self, capsys, monkeypatch):
        def failing(rng, cases):
            time.sleep(0.05)
            return False, "injected failure"
        monkeypatch.setitem(cli.SUITES, "failing", failing)
        code, out, _ = run(capsys, "verify", "--suite", "failing", "--suite", "snf",
                           "--budget", "0.01")
        assert code == 1
        assert out.splitlines() == ["suite failing: FAIL (injected failure)",
                                    "suite snf: SKIPPED (budget exceeded)"]

    def test_product_suite_checks_the_kunneth_formula(self, capsys, monkeypatch):
        # ranks one too small keep every graph isomorphism but give every
        # connected graph beta0 = 2, and [2, ...] is not the convolution of
        # two such
        real = cli.rational_rank
        monkeypatch.setattr(cli, "rational_rank", lambda m: real(m) - 1)
        code, out, _ = run(capsys, "verify", "--suite", "product", "--cases", "3")
        assert code == 1
        assert out.startswith("suite product: FAIL (concatenation homology breaks the Kunneth")

    def test_product_suite_fails_when_no_pair_is_checked(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "are_coprime", lambda w1, w2: False)
        code, out, _ = run(capsys, "verify", "--suite", "product", "--cases", "5")
        assert code == 1
        assert out == "suite product: FAIL (only 0 coprime pairs of 5 in 250 attempts)\n"

    def test_reverse_suite_fails_on_a_non_isomorphic_pair(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "is_isomorphic", lambda g, h: False)
        code, out, _ = run(capsys, "verify", "--suite", "reverse", "--cases", "5")
        assert code == 1
        assert out.startswith("suite reverse: FAIL (reverse graph not isomorphic for ")

    def test_snf_suite_fails_on_a_wrong_rank(self, capsys, monkeypatch):
        real = cli.rational_rank
        monkeypatch.setattr(cli, "rational_rank", lambda m: real(m) + 1)
        code, out, _ = run(capsys, "verify", "--suite", "snf", "--cases", "5")
        assert code == 1
        assert out.startswith("suite snf: FAIL (snf rank disagrees with rational rank on ")

    def test_boundary_not_squaring_to_zero_fails(self, capsys, monkeypatch):
        # every cell's first facet gets the wrong sign, injected into the
        # facet rule that boundary assembly reads, tie tables included
        from prodsim import cells
        shape_rule = cells._shape_rule

        def flipped(shape):
            axes, ((positions, sub_shape, sign, ties), *rest) = shape_rule(shape)
            if ties is not None:
                ties = cells._Ties(sub_shape, positions, -sign, ties.tied)
            return axes, ((positions, sub_shape, -sign, ties), *rest)

        monkeypatch.setattr(cells, "_shape_rule", flipped)
        code, out, _ = run(capsys, "verify", "--suite", "snf", "--suite", "boundary",
                           "--cases", "15")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("suite snf: PASS")
        assert lines[1].startswith("suite boundary: FAIL (d.d != 0 on ")
        assert len(lines) == 2


class TestNumericFlags:
    @pytest.mark.parametrize("argv", [["table", "4"], ["homology", "rooted", "1212"],
                                      ["verify", "--cases", "5"]])
    @pytest.mark.parametrize("budget", ["nan", "-1", "-0.5", "soon"])
    def test_bad_budget_exits_2(self, capsys, argv, budget):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", budget])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize("cases", ["0", "-3", "many"])
    def test_bad_cases_exits_2(self, capsys, cases):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--cases", cases])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--cases" in captured.err and captured.out == ""


class TestModuleEntryPoint:
    def test_python_dash_m_matches_main(self, capsys):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv, want in ((["table", "4"], 0), (["normalize", "121"], 2)):
            done = subprocess.run([sys.executable, "-m", "prodsim", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            code, out, _ = run(capsys, *argv)
            assert done.returncode == code == want
            assert done.stdout == out
            assert bool(out) == (want == 0)
