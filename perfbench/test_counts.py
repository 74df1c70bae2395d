"""The traced run's exact counts repeat for one seed (small scale).

Counts the program makes per answer are only comparable between two
commits when they repeat exactly for one seed; on the library workloads
they must.  Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS

EXACT = (
    "solver.calls", "dependency.kept_ratio", "history.statements",
    "compress.rows", "exec.rows_out", "delta.rows",
)


@pytest.mark.parametrize("name", ["lib-slice", "lib-reenact"])
def test_counts_repeat_for_one_seed(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = dataclasses.replace(WORKLOADS[name], rows=1_200, updates=10)
    first, second = (
        run.run_library(workload, seed=5, seconds=0.1, trace=True)
        for _ in range(2)
    )
    for result in (first, second):
        assert result["mismatches"] == 0 and result["failed"] == 0
    assert {k: first["metrics"][k] for k in EXACT} == {
        k: second["metrics"][k] for k in EXACT
    }
    assert first["metrics"]["exec.rows_out"] > 0
    assert first["metrics"]["history.statements"] > 0 or name == "lib-slice"
    assert first["metrics"]["solver.calls"] > 0 or name == "lib-reenact"
