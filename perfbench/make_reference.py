"""Write the seed-0 reference outputs the benchmark checks every op against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It runs one untraced pass of every workload at seed 0 and stores each op's
exit code and labels in ``reference/expected.json`` and its numeric outputs
in ``reference/values.npz``.  Ops that fail at that commit are stored with
their exit code, so a known failure stays visible as a failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    expected: dict = {}
    arrays: dict = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench_work_", dir=root) as workdir:
        for name, cls in WORKLOADS.items():
            wl = cls(root, 0)
            wl.setup()
            expected[name] = {}
            for op in wl.ops(workdir, traced=False):
                out = op.collect(op.run())
                expected[name][op.name] = {"exit": out.exit, "labels": out.labels}
                for key, value in out.values.items():
                    arrays[f"{name}|{op.name}|{key}"] = value
                print(f"{name:14s} {op.name:22s} exit {out.exit}")
    ref = os.path.join(HERE, "reference")
    os.makedirs(ref, exist_ok=True)
    with open(os.path.join(ref, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(os.path.join(ref, "values.npz"), **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
