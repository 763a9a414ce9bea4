"""entbath benchmark: one workload, timed end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-batch --seed 0 --seconds 20 --trace 0

Set-up is timed apart from the work: ``setup_s`` is the median wall time of
several fresh interpreters that import ``entbath`` and ``entbath.cli`` and
load the workload's configs.  The work runs in one more fresh interpreter
(``worker.py``), which repeats passes of the workload for ``--seconds`` and
checks every op against ``reference/``.  With ``--trace 0`` the per-pass
end-to-end metrics are reported as medians over the passes; with
``--trace 1`` the worker runs one untraced pass and then traced passes, and
reports the per-layer metrics of ``tracing.LAYER_METRICS``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero, with no result printed, when the program under test is missing
or the benchmark itself breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s


UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ENTBATH_THREADS", None)  # the shipped pool size, not the caller's
    return env


def run_child(cmd: list[str], env: dict, timeout: float) -> float:
    """Run a child to completion; its wall seconds, or raise on failure.

    The child gets its own process group, so a timeout also stops the pool
    workers it may have started.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {err.strip()}")
    return wall


def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    needed = [os.path.join(root, "src", "entbath", "__init__.py"),
              os.path.join(root, "configs", "ohmic_trace.yaml"),
              os.path.join(root, "configs", "symmetric_trace.yaml")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: not an entbath checkout, missing {missing}", file=sys.stderr)
        return 2

    env = child_env(root)
    worker = os.path.join(HERE, "worker.py")
    base = [sys.executable, worker, "--root", root, "--workload", args.workload,
            "--seed", str(args.seed)]
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_child(base + ["--setup-only"], env, 60.0) for _ in range(probes)]
        with tempfile.TemporaryDirectory(prefix=".perfbench_work_", dir=root) as workdir:
            result_path = os.path.join(workdir, "result.json")
            remaining = TIME_LIMIT_S - (time.perf_counter() - started)
            run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--deadline", str(remaining - 5.0), "--workdir", workdir,
                              "--result", result_path], env, remaining)
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    attempted, failed = res["ops"], res["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: 1 warm-up op, "
          f"{res['passes']} untraced and {res['traced_passes']} traced passes")
    print("env " + json.dumps({**res["env"], "commit": git_commit(root)}, sort_keys=True))
    for err in res["errors"]:
        print(f"incorrect: {err}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of ops={attempted} failed)")

    if args.trace:
        metrics = {}
        for name, unit, moves, workloads, note in LAYER_METRICS:
            value = res["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:40s} {value:>14.6g} {unit:6s} moves {moves} on {workloads}: {note}")
        print(f"counts repeat across traced passes: {res['counts_repeat']}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            **res["end_to_end"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        for k, v in values.items():
            print(f"{k:12s} {v:>12.6g} {UNITS[k]}")
        print("pass wall_s: " + " ".join(f"{w:.4f}" for w in res["pass_wall_s"]))
        print("setup_s probes: " + " ".join(f"{s:.4f}" for s in setups))
    print(json.dumps({"correct": not res["errors"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
