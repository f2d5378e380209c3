"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They show that a report disagreeing with the stored reference is counted as
a failure, that traced counts repeat exactly at one seed, that self times add
up to the traced wall time, and that the benchmark refuses to run without
the sources.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402
from qromlab import cli, lemmas, qworlds, rom  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# A few cheap command lines that reach every layer the trace wraps; only the
# probes (orthogonality checks) need the full sweep.
SMALL = [
    ["lemmas", "--scheme", "lamport", "--n", "1", "--l", "1", "--seed", "3"],
    ["lemmas", "--scheme", "winternitz", "--n", "1", "--l", "2", "--w", "3", "--seed", "3"],
    ["qgame", "--scheme", "lamport", "--n", "1", "--a", "1", "--mode", "modified",
     "--q0", "1", "--q1", "1", "--seed", "3"],
    ["attack", "--kind", "classical", "--n", "3", "--l", "1", "--q", "4", "--trials", "300",
     "--seed", "3"],
    ["attack", "--kind", "grover", "--n", "3", "--l", "1", "--trials", "200", "--seed", "3"],
    ["worlds", "--n", "4", "--l", "1", "--w", "2"],
]


@pytest.fixture(scope="module")
def two_traces():
    return [run.trace_pass(cli, SMALL, f"test-{k}") for k in range(2)]


def test_traced_counts_repeat_exactly(two_traces):
    first, second = (layers.per_layer(t, wall, wall, cpu) for t, wall, cpu, _ in two_traces)
    assert {k: first[k] for k in layers.COUNT_METRICS} == {k: second[k] for k in layers.COUNT_METRICS}
    assert first["cli.main.calls"] == len(SMALL)
    assert first["attacks.trials"] == 500
    for name in ("qsim.operator_norm.calls", "qsim.operator_norm.iterations", "qsim.embed.applies",
                 "qsim.uniform_projector.applies", "qworlds.U_h.applies",
                 "qworlds.P.applies", "qworlds.P.terms", "qworlds.qtilde.applies",
                 "qworlds.bsign.applies", "game.probability_tensor.calls", "rom.derive_seed.calls",
                 "rom.oracle.queries", "rom.enumerate.support", "ots.keygen.calls",
                 "ots.verify.calls", "attacks.grover_state.calls", "lemmas.reports"):
        assert first[name] > 0, name


def test_self_times_sum_to_traced_wall(two_traces):
    for tracer, wall, cpu, outcomes in two_traces:
        values = layers.per_layer(tracer, wall, wall, cpu)
        assert abs(values["trace.self_sum_ratio"] - 1.0) < 0.05
        assert all(o.code == 0 for o in outcomes)


def test_trace_leaves_no_wrapper_behind(two_traces):
    assert cli.main.__module__ == "qromlab.cli"
    assert rom.derive_seed.__module__ == "qromlab.rom"
    assert lemmas.build_query_unitary is qworlds.build_query_unitary
    assert rom.RandomOracleTable.__call__ is rom.RandomOracleTable.query
    assert rom.RandomOracleTable.query.__qualname__ == "RandomOracleTable.query"


def _failures(argvs, reference):
    _, outcomes = run.run_pass(cli, argvs)
    return run.check_passes([outcomes], reference)[1]


def test_tampered_reference_counts_as_failure():
    argvs = workloads.invocations("classical", workloads.DEFAULT_SEEDS["classical"])
    argvs = [argvs[0], argvs[-1]]  # one attack, one exact enumeration
    reference = workloads.reference_for("classical", workloads.DEFAULT_SEEDS["classical"])
    assert _failures(argvs, reference) == 0
    tampered = copy.deepcopy(reference)
    tampered[workloads.reference_key(argvs[0])]["wins"] += 1
    stdout = tampered[workloads.reference_key(argvs[1])]["stdout"]
    tampered[workloads.reference_key(argvs[1])]["stdout"] = stdout.replace("true", "True", 1)
    assert _failures(argvs, tampered) == 2


def test_tampered_game_reference_counts_as_failure():
    seed = workloads.DEFAULT_SEEDS["qgame"]
    argv = [a for a in workloads.invocations("qgame", seed) if "winternitz" in a and "0" in a][-1]
    reference = workloads.reference_for("qgame", seed)
    assert _failures([argv], reference) == 0
    tampered = copy.deepcopy(reference)
    tampered[workloads.reference_key(argv)]["p_win_plain"] += 1e-6
    assert _failures([argv], tampered) == 1


def test_sweep_check_compares_rows_with_the_reference():
    seed = workloads.DEFAULT_SEEDS["sweep"]
    ref = workloads.reference_for("sweep", seed)[workloads.reference_key(
        workloads.invocations("sweep", seed)[0])]
    assert workloads.check_lemma_rows(ref["header"], ref["rows"], ref) == []
    rows = copy.deepcopy(ref["rows"])
    rows[5]["measured"] = repr(float(rows[5]["measured"]) + 1e-6)
    rows[7]["pass"] = "false"
    problems = workloads.check_lemma_rows(ref["header"], rows, ref)
    assert any("row 5" in p for p in problems) and any("row 7" in p for p in problems)


def test_nonzero_exit_is_a_failure():
    # n*l*w = 18 is beyond the enumeration guard: the CLI exits 1.
    assert _failures([["worlds", "--n", "9", "--l", "1", "--w", "2"]], None) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classical", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
