"""The three benchmark workloads: inputs from a seed, the ops of one pass,
and the check of each op's outputs.

An op is one library call or one CLI invocation.  Each op returns an
``Outcome``: its exit code, its text labels (phase names, check tags) and
its numeric outputs.  Seed 0 reproduces the shipped inputs and is checked
against the stored reference; other seeds draw new squeezings and a new
``sweep.r_grid`` but keep every size, so the ops whose inputs changed are
checked against invariants instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

OHMIC_YAML = "configs/ohmic_trace.yaml"
SYMMETRIC_YAML = "configs/symmetric_trace.yaml"
EXPONENTS = (1, 0.5, 3)
# E_N and dispersions must match the reference this closely: loose enough for
# a re-factorization of the same physics, tight enough to catch a change of it.
ATOL = 1e-9
# ranges the non-zero seeds draw from; the sizes of every op stay fixed
SQUEEZING_RANGE = (-2.0, 2.0)
R_GRID_RANGE = (0.0, 2.0)
R_GRID_SIZE = 4


@dataclass
class Outcome:
    exit: int | str
    labels: dict[str, str] = field(default_factory=dict)
    values: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Reading CLI artifacts
# ---------------------------------------------------------------------------

def read_csv(path: str, out: Outcome) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for j, name in enumerate(names):
        col = [row[j] for row in rows]
        try:
            out.values[name] = np.array([float(v) for v in col])
        except ValueError:
            out.labels[name] = " ".join(col)


def read_json(path: str, out: Outcome) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("artifact_version", "config", "config_sha256"):
        doc.pop(key, None)  # input echo, not output

    def walk(node, name):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{name}.{k}" if name else k)
        elif isinstance(node, list) and all(isinstance(v, (int, float)) for v in node):
            out.values[name] = np.array(node, dtype=float)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.values[name] = np.array(float(node))
        else:
            out.labels[name] = json.dumps(node)

    walk(doc, "")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One library call or CLI invocation.

    ``run`` is the timed call; ``collect`` turns what it returned into an
    Outcome (reading artifacts back), outside the timed region.
    """

    name: str
    run: Callable[[], object]
    collect: Callable[[object], Outcome]


class Workload:
    name = ""
    why = ""

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        """Load the configs the workload runs on (timed as set-up)."""
        raise NotImplementedError

    def ops(self, workdir: str, traced: bool) -> list[Op]:
        """The ops of one pass, in order."""
        raise NotImplementedError

    def seeded(self, op: str) -> bool:
        """True when the op's inputs differ from the seed-0 reference inputs."""
        return False

    def path(self, rel: str) -> str:
        return os.path.join(self.root, rel)


class ExactBatch(Workload):
    name = "exact-batch"
    why = ("one position-coupled drift (N=597) feeds three exact negativity "
           "traces, so the normal-mode engine and per-drift caching dominate")

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        if seed == 0:
            self.squeezings = (2.0, -2.0, 0.0)
        else:
            rng = random.Random(seed)
            self.squeezings = tuple(rng.uniform(*SQUEEZING_RANGE) for _ in range(3))

    def setup(self) -> None:
        from entbath import config

        self.cfg = config.load_config(self.path(OHMIC_YAML))

    def ops(self, workdir, traced):
        from entbath import bath, exact, gaussian

        cfg = self.cfg
        ev = cfg.evolution
        held: dict = {}

        def build():
            sd = bath.SpectralDensity(
                float(cfg.spectral.n), cfg.spectral.gamma0, cfg.spectral.cutoff, cfg.system.m
            )
            n = bath.modes_for_window(cfg.spectral.cutoff, ev.t_max)
            b = bath.discretize(sd, n, cfg.bath.temperature)
            osc = gaussian.OscillatorParams(cfg.system.m, cfg.system.omega1, cfg.system.omega2)
            held["drift"] = exact.build_position_model(osc, b)
            return held["drift"]

        def drift_outcome(d):
            return Outcome(0, values={
                "n_modes": np.array(float(d.bath.n_modes)),
                "dim": np.array(float(d.dim)),
                "m_minus": np.array(d.m_minus),
                "omega_minus": np.array(d.omega_minus),
            })

        def trace(r):
            run = exact.EvolutionConfig(ev.t_max, ev.dt, ev.sample_stride)
            return exact.negativity_trace(gaussian.separable_squeezed(r), held["drift"], run)

        def trace_outcome(tr):
            return Outcome(0, values={
                name: getattr(tr, name)
                for name in ("times", "e_n", "dx_plus_sq", "dp_plus_sq",
                             "dx_minus_sq", "dp_minus_sq")
            })

        ops = [Op("drift", build, drift_outcome)]
        for i, r in enumerate(self.squeezings):
            ops.append(Op(f"trace{i}", lambda r=r: trace(r), trace_outcome))
        return ops

    def seeded(self, op):
        return self.seed != 0 and op != "drift"


class CliWorkload(Workload):
    """Runs ``entbath.cli.main`` in-process and reads back its artifacts."""

    def invoke(self, name: str, argv: list[str], artifacts: list[str] = (),
               stdout_tags: bool = False) -> Op:
        """Op for one CLI call that writes the given artifact paths."""
        import entbath.cli as cli

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, buf.getvalue()

        def collect(raw):
            code, stdout = raw
            out = Outcome(code)
            for path in artifacts:
                if code == 0:
                    (read_json if path.endswith(".json") else read_csv)(path, out)
                if os.path.exists(path):
                    os.remove(path)
            if stdout_tags:
                for line in stdout.splitlines():
                    tag, _, rest = line.partition(": ")
                    if tag in ("ok", "FAIL"):
                        out.labels[rest.split(" (")[0]] = tag
            return out

        return Op(name, run, collect)


class SymmetricCli(CliWorkload):
    name = "symmetric-cli"
    why = ("the shipped symmetric config through the CLI: the general "
           "momentum-coupled exact path once per drift, moment RK4 and validate")

    def setup(self) -> None:
        from entbath import config

        config.load_config(self.path(SYMMETRIC_YAML))

    def ops(self, workdir, traced):
        yaml = self.path(SYMMETRIC_YAML)
        trace_csv = os.path.join(workdir, "trace.csv")
        moments_csv = os.path.join(workdir, "moments.csv")
        asy_json = os.path.join(workdir, "asymptotics.json")
        return [
            self.invoke("negativity-trace",
                        ["negativity-trace", yaml, "--out", trace_csv, "--with-moments"],
                        [trace_csv]),
            self.invoke("moments", ["moments", yaml, "--out", moments_csv],
                        [moments_csv]),
            self.invoke("asymptotics", ["asymptotics", yaml, "--out", asy_json],
                        [asy_json]),
            self.invoke("validate", ["validate", yaml], stdout_tags=True),
        ]


class ClosedForm(CliWorkload):
    name = "closed-form"
    why = ("the shipped ohmic config for n in {1, 0.5, 3}: phase-diagram with "
           "its process pool, asymptotics and moments; FDT quadrature and T0 dominate")

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        if seed == 0:
            self.r_grid = None  # the shipped sweep.r_grid
        else:
            rng = random.Random(seed)
            self.r_grid = sorted(rng.uniform(*R_GRID_RANGE) for _ in range(R_GRID_SIZE))

    def overrides(self, n) -> list[str]:
        sets = [f"spectral.n={n}"]
        if self.r_grid is not None:
            sets.append("sweep.r_grid=[" + ", ".join(repr(r) for r in self.r_grid) + "]")
        return sets

    def setup(self) -> None:
        from entbath import config

        for n in EXPONENTS:
            config.load_config(self.path(OHMIC_YAML), self.overrides(n))

    def ops(self, workdir, traced):
        yaml = self.path(OHMIC_YAML)
        ops = []
        for n in EXPONENTS:
            sets = [a for item in self.overrides(n) for a in ("--set", item)]
            # work inside pool workers is invisible to the tracer, so the
            # traced pass runs the sweep in-process
            pd_sets = sets + ["--set", "sweep.parallelism=1"] if traced else sets
            csv = os.path.join(workdir, f"phases_n{n}.csv")
            summary = os.path.join(workdir, f"phases_n{n}.json")
            asy_json = os.path.join(workdir, f"asymptotics_n{n}.json")
            mom_csv = os.path.join(workdir, f"moments_n{n}.csv")
            ops += [
                self.invoke(f"phase-diagram n={n}",
                            ["phase-diagram", yaml, *pd_sets, "--out", csv, "--summary", summary],
                            [csv, summary]),
                self.invoke(f"asymptotics n={n}",
                            ["asymptotics", yaml, *sets, "--out", asy_json], [asy_json]),
                self.invoke(f"moments n={n}",
                            ["moments", yaml, *sets, "--out", mom_csv], [mom_csv]),
            ]
        return ops

    def seeded(self, op):
        return self.r_grid is not None and op.startswith("phase-diagram")


WORKLOADS = {w.name: w for w in (ExactBatch, SymmetricCli, ClosedForm)}


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def check(outcome: Outcome, ref: dict, ref_values: dict, seeded: bool) -> str | None:
    """None when the op's outputs are correct, else the reason they are not.

    ``ref`` holds the seed-0 exit code and labels, ``ref_values`` the seed-0
    numeric outputs of the same op.  A ``seeded`` op ran on other inputs of
    the same sizes, so only the exit code, the shapes and the invariants
    (finite outputs, E_N >= 0) must agree.
    """
    if outcome.exit != ref["exit"]:
        return f"exit {outcome.exit}, reference {ref['exit']}"
    if set(outcome.values) != set(ref_values):
        return f"outputs {sorted(outcome.values)}, reference {sorted(ref_values)}"
    for name, got in outcome.values.items():
        want = ref_values[name]
        if got.shape != want.shape:
            return f"{name}: shape {got.shape}, reference {want.shape}"
        if not np.all(np.isfinite(got)):
            return f"{name}: not finite"
        if name.lower().startswith("e_n") and got.size and got.min() < 0.0:
            return f"{name}: negative E_N {got.min():.3e}"
        if not seeded:
            err = float(np.max(np.abs(got - want), initial=0.0))
            if not err <= ATOL:
                return f"{name}: max |diff| {err:.3e} > {ATOL:g}"
    if seeded:
        if set(outcome.labels) != set(ref["labels"]):
            return "label names differ from the reference"
    elif outcome.labels != ref["labels"]:
        diff = sorted(k for k in set(outcome.labels) | set(ref["labels"])
                      if outcome.labels.get(k) != ref["labels"].get(k))
        return f"labels differ: {diff}"
    return None
