"""Per-layer tracing from outside the library.

Each layer of ``entbath`` is timed by replacing the public functions it
exposes with wrappers, at the module attribute the calling code looks up
(for example ``entbath.exact.normal_mode_form``, which ``negativity_trace``
resolves as a module global).  Nothing inside ``src/`` is edited; the
wrappers are installed for the traced passes only and removed afterwards.

Timed wrappers keep a stack of open spans so that a layer's self time is
its inclusive time minus the time covered by its wrapped children.  Hot
leaf functions (``j_omega``, the RK4 steppers, the symplectic eigensolver)
get count-only wrappers, which add no clock reads.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

# (metric, unit, end-to-end metric it should move, workloads, expectation).
# This is the layer map a later change cites when it claims a gain.
LAYER_METRICS = [
    ("config.load_config_s", "s", "setup_s", "all", "seconds in load_config during set-up"),
    ("bath.discretize_s", "s", "wall_s", "all", "size context; negligible share of time"),
    ("bath.n_modes", "count", "wall_s", "all", "largest bath discretized in a pass"),
    ("exact.build_s", "s", "wall_s,cpu_s", "exact-batch", "dense Hamiltonian build and eigvalsh check"),
    ("exact.matrix_dim", "count", "peak_rss_mb", "exact-batch", "largest drift dimension 4+2N"),
    ("exact.normal_mode_form_s", "s", "wall_s,cpu_s", "exact-batch", "flat on symmetric-cli for position-only changes"),
    ("exact.normal_mode_form_calls", "count", "wall_s,cpu_s", "exact-batch", "3 at the seed: one per state"),
    ("exact.negativity_trace_s", "s", "wall_s,cpu_s,peak_rss_mb", "exact-batch", "inclusive trace time"),
    ("exact.sampling_self_s", "s", "wall_s,cpu_s", "exact-batch", "trace self time: sampling without factorization and readout"),
    ("exact.samples", "count", "wall_s", "exact-batch", "samples produced by all traces"),
    ("exact.evolve_s", "s", "wall_s", "symmetric-cli", "validate's RK4 oracle and normal-mode evolve"),
    ("gaussian.readout_s", "s", "wall_s", "exact-batch", "log_negativity, basis_change and physicality check in traces"),
    ("gaussian.log_negativity_calls", "count", "wall_s", "exact-batch", "one per trace sample"),
    ("gaussian.eig_fallbacks", "count", "wall_s", "exact-batch", "symplectic_eigenvalues(general=True) calls"),
    ("moments.integrate_s", "s", "wall_s", "symmetric-cli,closed-form", "zero on exact-batch"),
    ("moments.integrate_calls", "count", "wall_s", "symmetric-cli,closed-form", "zero on exact-batch"),
    ("moments.rk4_steps", "count", "wall_s", "symmetric-cli,closed-form", "moment-route RK4 steps"),
    ("asymptotics.fdt_dispersions_s", "s", "wall_s,cpu_s", "closed-form", "about zero on the other workloads"),
    ("asymptotics.fdt_dispersions_calls", "count", "wall_s,cpu_s", "closed-form", "about zero on the other workloads"),
    ("asymptotics.j_omega_calls", "count", "wall_s,cpu_s", "closed-form", "quadrature integrand evaluations"),
    ("asymptotics.critical_temperature_s", "s", "wall_s,cpu_s", "closed-form", "T0 bisection, including its FDT calls"),
    ("asymptotics.critical_temperature_calls", "count", "wall_s,cpu_s", "closed-form", "one per phase-diagram and asymptotics run"),
    ("asymptotics.coefficient_limits_s", "s", "wall_s", "closed-form", "perturbative coefficients"),
    ("cli.phase_diagram_s", "s", "wall_s,cpu_s,peak_rss_mb", "closed-form", "traced serially, see sweep.parallelism=1"),
    ("cli.pool_workers", "count", "cpu_s,peak_rss_mb", "closed-form", "pool size of the untraced phase-diagram"),
    ("cli.write_s", "s", "wall_s", "closed-form,symmetric-cli", "write_csv plus write_json"),
    ("cli.bytes_written", "B", "wall_s", "closed-form,symmetric-cli", "artifact bytes"),
    ("trace.wall_s", "s", "wall_s", "all", "wall seconds of one traced pass"),
    ("trace.overhead_s", "s", "wall_s", "all", "traced wall_s minus untraced wall_s of the same run"),
]


class Tracer:
    """Aggregated spans and counters, for one traced phase of a run."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self.bytes_written = 0
        self._open: list[float] = []  # child seconds of each open span
        self._installed: list[tuple[object, str, object]] = []

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    # -- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._open:
                    self._open[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn, when=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when(args, kwargs):
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; skip if absent."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- layers -----------------------------------------------------------

    def install_config(self) -> None:
        import entbath.cli as cli
        import entbath.config as config

        for owner in (config, cli):
            self.patch(owner, "load_config", lambda f: self.timed("load_config", f))

    def install_pool_probe(self) -> None:
        """Record the pool size phase-diagram asks for; no clock reads."""
        import entbath.cli as cli

        def make(pool_cls):
            tracer = self

            class CountingPool(pool_cls):
                def __init__(self, max_workers=None, *args, **kwargs):
                    tracer.note_max("pool_workers", max_workers or os.cpu_count() or 1)
                    super().__init__(max_workers, *args, **kwargs)

            return CountingPool

        self.patch(cli, "ProcessPoolExecutor", make)

    def install_layers(self) -> None:
        import entbath.asymptotics as asy
        import entbath.bath as bath
        import entbath.cli as cli
        import entbath.exact as ex
        import entbath.gaussian as gs
        import entbath.moments as mo

        def on_bath(args, kwargs, result):
            self.note_max("n_modes", result.n_modes)

        def on_drift(args, kwargs, result):
            self.note_max("matrix_dim", result.dim)

        def on_trace(args, kwargs, result):
            self.calls["samples"] += len(result.times)

        def on_write(args, kwargs, result):
            path = args[0] if args else kwargs.get("path")
            if path is not None and os.path.exists(path):
                self.bytes_written += os.path.getsize(path)

        timed = lambda name, after=None: (lambda f: self.timed(name, f, after))
        counted = lambda name, when=None: (lambda f: self.counted(name, f, when))

        for owner in (bath, cli):
            self.patch(owner, "discretize", timed("discretize", on_bath))
        for attr in ("build_position_model", "build_symmetric_model"):
            self.patch(ex, attr, timed("build", on_drift))
        self.patch(ex, "normal_mode_form", timed("normal_mode_form"))
        self.patch(ex, "negativity_trace", timed("negativity_trace", on_trace))
        self.patch(ex, "evolve", timed("evolve"))
        # readout as called from the trace: exact's own references
        self.patch(ex, "log_negativity", timed("log_negativity"))
        self.patch(ex, "basis_change", timed("basis_change"))
        self.patch(gs.CovarianceMatrix, "validate_physical", timed("validate_physical"))
        self.patch(
            gs, "symplectic_eigenvalues",
            counted("eig_fallbacks", lambda a, k: k.get("general", False)),
        )
        self.patch(mo, "integrate", timed("integrate"))
        for attr in ("step_position_model", "step_symmetric_model"):
            self.patch(mo, attr, counted("rk4_steps"))
        self.patch(asy, "fdt_dispersions", timed("fdt_dispersions"))
        self.patch(asy, "j_omega", counted("j_omega"))
        self.patch(asy, "critical_temperature", timed("critical_temperature"))
        self.patch(asy, "coefficient_limits", timed("coefficient_limits"))
        self.patch(cli, "cmd_phase_diagram", timed("phase_diagram"))
        for attr in ("write_csv", "write_json"):
            self.patch(cli, attr, timed("write", on_write))

    # -- report -----------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Per-pass values of every traced layer metric, keyed by name."""
        t, c = self.total, self.calls
        readout = t["log_negativity"] + t["basis_change"] + t["validate_physical"]
        return {
            "bath.discretize_s": t["discretize"],
            "bath.n_modes": self.maxima.get("n_modes", 0),
            "exact.build_s": t["build"],
            "exact.matrix_dim": self.maxima.get("matrix_dim", 0),
            "exact.normal_mode_form_s": t["normal_mode_form"],
            "exact.normal_mode_form_calls": c["normal_mode_form"],
            "exact.negativity_trace_s": t["negativity_trace"],
            "exact.sampling_self_s": self.self_time["negativity_trace"],
            "exact.samples": c["samples"],
            "exact.evolve_s": t["evolve"],
            "gaussian.readout_s": readout,
            "gaussian.log_negativity_calls": c["log_negativity"],
            "gaussian.eig_fallbacks": c["eig_fallbacks"],
            "moments.integrate_s": t["integrate"],
            "moments.integrate_calls": c["integrate"],
            "moments.rk4_steps": c["rk4_steps"],
            "asymptotics.fdt_dispersions_s": t["fdt_dispersions"],
            "asymptotics.fdt_dispersions_calls": c["fdt_dispersions"],
            "asymptotics.j_omega_calls": c["j_omega"],
            "asymptotics.critical_temperature_s": t["critical_temperature"],
            "asymptotics.critical_temperature_calls": c["critical_temperature"],
            "asymptotics.coefficient_limits_s": t["coefficient_limits"],
            "cli.phase_diagram_s": t["phase_diagram"],
            "cli.write_s": t["write"],
            "cli.bytes_written": self.bytes_written,
        }
