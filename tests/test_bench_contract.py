"""The benchmark's trace wraps package functions by name (``bench/layers.py``).

Installing the wrappers and taking them out again fails at once when a
refactor drops or renames a name the trace reads, so the tier-1 suite catches
it, not only the benchmark step.  Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import tracer  # noqa: E402
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
