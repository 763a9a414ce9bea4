"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by ``run.py`` as a fresh interpreter; writes its result as JSON to
``--result``.  With ``--setup-only`` it stops after set-up, which is how
``run.py`` times set-up from a fresh interpreter.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, Outcome, check

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def cpu_seconds() -> float:
    """User plus system CPU of this process and the children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def peak_rss_mb() -> float:
    """Highest RSS of this process and of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def load_reference(workload: str):
    with open(os.path.join(REFERENCE_DIR, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    values: dict[str, dict] = {op: {} for op in expected}
    with np.load(os.path.join(REFERENCE_DIR, "values.npz")) as npz:
        for key in npz.files:
            wl, op, name = key.split("|")
            if wl == workload:
                values[op][name] = npz[key]
    return expected, values


def run_ops(ops, wl, reference, errors: list[str]) -> dict:
    """Time each op; check each outcome outside the timed region."""
    expected, ref_values = reference
    walls, cpus = [], []
    failed = 0
    for op in ops:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as err:  # an op that raises counts as failed
            raw = err
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        if isinstance(raw, Exception):
            outcome = Outcome(f"exception {type(raw).__name__}: {raw}")
        else:
            outcome = op.collect(raw)
        mismatch = check(outcome, expected[op.name], ref_values[op.name], wl.seeded(op.name))
        if mismatch is not None:
            errors.append(f"{op.name}: {mismatch}")
        if mismatch is not None or outcome.exit != 0:
            failed += 1
    return {"wall_s": sum(walls), "op_wall_s": walls, "op_cpu_s": cpus,
            "ops": len(ops), "failed": failed}


def per_pass_median(passes: list[dict], key: str) -> float:
    """One pass's figure: the sum over ops of each op's median across passes."""
    return sum(statistics.median(col) for col in zip(*(p[key] for p in passes)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--deadline", type=float, default=150.0,
                    help="start no pass that would end later than this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir")
    ap.add_argument("--result")
    args = ap.parse_args()
    started = time.perf_counter()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import entbath
    import entbath.cli  # noqa: F401  (part of set-up by definition)

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(entbath.__file__).startswith(src + os.sep):
        print(f"entbath imported from {entbath.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.root, args.seed)
    setup_trace = Tracer()
    if args.trace:
        setup_trace.install_config()
    wl.setup()
    setup_trace.uninstall()
    if args.setup_only:
        return 0

    reference = load_reference(args.workload)
    errors: list[str] = []
    passes: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []

    # the first op pays one-time costs (first LAPACK calls, first-touch page
    # faults); it is checked, but neither timed nor counted as an op
    pool_probe = Tracer()
    if args.trace:
        pool_probe.install_pool_probe()
    run_ops(wl.ops(args.workdir, False)[:1], wl, reference, errors)
    pool_probe.uninstall()
    t_begin = time.perf_counter()

    def run_pass(traced_pass: bool) -> dict:
        return run_ops(wl.ops(args.workdir, traced_pass), wl, reference, errors)

    def done(last: dict) -> bool:
        elapsed = time.perf_counter() - t_begin
        late = time.perf_counter() - started + 1.5 * last["wall_s"] > args.deadline
        return elapsed >= args.seconds or late

    if args.trace:
        # one untraced pass of the same run, to measure the tracing overhead
        passes.append(run_pass(False))
        while True:
            tracer = Tracer()
            tracer.install_layers()
            try:
                traced.append(run_pass(True))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_values())
            if done(traced[-1]):
                break
    else:
        while True:
            passes.append(run_pass(False))
            if done(passes[-1]):
                break

    result = {
        "ops": sum(p["ops"] for p in [*passes, *traced]),
        "failed": sum(p["failed"] for p in [*passes, *traced]),
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "errors": errors,
        "env": environment(),
    }
    if args.trace:
        # counts repeat across passes; median_low keeps them whole numbers
        per_layer = {
            k: (statistics.median if k.endswith("_s") else statistics.median_low)(
                [d[k] for d in layers])
            for k in layers[0]
        }
        per_layer["config.load_config_s"] = setup_trace.total["load_config"]
        per_layer["cli.pool_workers"] = pool_probe.maxima.get("pool_workers", 0)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - passes[0]["wall_s"]
        result["per_layer"] = per_layer
        result["counts_repeat"] = all(
            d[k] == layers[0][k] for d in layers for k in d if not k.endswith("_s")
        )
    else:
        result["end_to_end"] = {
            "wall_s": per_pass_median(passes, "op_wall_s"),
            "cpu_s": per_pass_median(passes, "op_cpu_s"),
            "peak_rss_mb": peak_rss_mb(),
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
