"""The benchmark's trace wraps package functions by name (``bench/layers.py``)
and checks every report it collects (``bench/workloads.py``).

Installing the wrappers and taking them out again fails at once when a
refactor drops or renames a name the trace reads, and the benchmark's own
output checks run here on the reference-seed commands of every workload,
so the tier-1 suite catches a moved row, probability or win count, not only
the benchmark step.  Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qromlab import cli, lemmas, qworlds, rom  # noqa: E402


def test_trace_wrappers_install_and_restore():
    originals = (cli.main, lemmas.build_query_unitary, qworlds.query_unitary_as_function,
                 rom.RandomOracleTable.query)
    patcher = layers.install(tracer.Tracer("t", hot=layers.HOT))
    try:
        assert cli.main is not originals[0]
        assert qworlds.query_unitary_as_function is not originals[2]
    finally:
        patcher.restore()
    assert (cli.main, lemmas.build_query_unitary, qworlds.query_unitary_as_function,
            rom.RandomOracleTable.query) == originals
    assert rom.RandomOracleTable.__call__ is rom.RandomOracleTable.query


@pytest.mark.parametrize("workload,commands", [("sweep", 1), ("qgame", 8), ("classical", 7)])
def test_reports_pass_the_benchmark_output_checks(workload, commands):
    seed = workloads.DEFAULT_SEEDS[workload]
    reference = workloads.reference_for(workload, seed)
    argvs = workloads.invocations(workload, seed)
    assert reference is not None and len(argvs) == commands
    for argv in argvs:
        assert workloads.reference_key(argv) in reference
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(argv))
        outcome = workloads.Outcome(argv, code, out.getvalue())
        assert code == 0 and workloads.check_outcome(outcome, reference) == []
