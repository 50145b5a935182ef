"""Self-test of the benchmark in smoke mode: `table 8`, `global 3` and 20 words.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted expected value makes the gate fail with exit code 1, and
that without the prodsim sources the benchmark exits non-zero and prints no
result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("per_layer" if trace else "end_to_end")


def _corrupt_table(monkeypatch):
    monkeypatch.setitem(workloads.TANGLED_REFERENCE, 8, (1, 87, 55))


def _corrupt_global(monkeypatch):
    monkeypatch.setitem(workloads.GLOBAL_REFERENCE, 3,
                        {**workloads.GLOBAL_REFERENCE[3], "euler": -2})


def _corrupt_words(monkeypatch):
    real = workloads.sample_words
    monkeypatch.setattr(workloads, "sample_words",
                        lambda seed, size, count: real(seed + 1, size, count))


@pytest.mark.parametrize("workload,corrupt", [
    ("tangled_table", _corrupt_table),
    ("global_5", _corrupt_global),
    ("rooted_sample", _corrupt_words),
])
def test_corrupted_expectation_fails_the_gate(workload, corrupt, monkeypatch, capsys):
    corrupt(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_rooted_gate_rejects_broken_invariants():
    from prodsim import build_complex, homology_summary, rooted_word_graph

    words = workloads.sample_words(0, 6, 3)
    output = []
    for w in words:
        s = homology_summary(build_complex(rooted_word_graph(w).graph, 3), max_deg=3)
        output.append([list(w.symbols), sorted(s.betti.items()), s.euler,
                       sorted(s.cell_counts.items())])
    assert workloads.check_rooted(output, words) == (3, 0, [])
    output[0][1] = [(0, 2)] + output[0][1][1:]  # beta_0 = 2
    output[2][2] += 1  # euler off by one
    attempted, failed, bad = workloads.check_rooted(output, words)
    assert (attempted, failed) == (3, 2), bad


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "tangled_table", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
