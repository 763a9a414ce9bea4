"""The benchmark's correctness check as a test: one seed-0 pass of every
workload in ``perfbench/workloads.py``, checked against the stored
reference, so a change that moves a reference output fails here too."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_op_matches_its_reference(monkeypatch, tmp_path):
    # perfbench is read, never written: no bytecode cache lands there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    import workloads

    mismatches = {}
    for name, workload in workloads.WORKLOADS.items():
        expected, values = worker.load_reference(name)
        wl = workload(str(PERFBENCH.parent), 0)
        wl.setup()
        ops = wl.ops(str(tmp_path), False)
        assert sorted(op.name for op in ops) == sorted(expected), name
        for op in ops:
            outcome = op.collect(op.run())
            mismatch = workloads.check(outcome, expected[op.name], values[op.name],
                                       wl.seeded(op.name))
            if mismatch is not None:
                mismatches[f"{name}: {op.name}"] = mismatch
    assert not mismatches
