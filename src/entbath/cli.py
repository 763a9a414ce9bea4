"""Command-line front end: traces, phase diagrams, asymptotics, validation.

Subcommands: negativity-trace, phase-diagram, moments, asymptotics, validate.
All outputs are CSV/JSON; every artifact embeds the config echo and its
sha256 hash.  Exit codes: 0 success, 2 config error, 3 physics refusal
(recurrence window / unstable Hamiltonian / step size), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import exact as ex
from . import moments as mo
from .bath import DiscreteBath, SpectralDensity, discretize, modes_for_window
from .config import (
    RunConfig,
    canonical_dict,
    canonical_json,
    config_hash,
    from_dict,
    load_config,
)
from .errors import (
    ConfigError,
    NumericalError,
    RecurrenceWindowError,
    StepSizeError,
    UnphysicalStateError,
    UnstableHamiltonianError,
)
from .gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
    separable_squeezed,
    symplectic_eigenvalues,
    two_mode_squeezed,
)

EXIT_CONFIG = 2
EXIT_REFUSAL = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# Config -> engine objects
# ---------------------------------------------------------------------------

def spectral_density(cfg: RunConfig) -> SpectralDensity:
    sp = cfg.spectral
    return SpectralDensity(float(sp.n), sp.gamma0, sp.cutoff, cfg.system.m)


def oscillator(cfg: RunConfig) -> OscillatorParams:
    sy = cfg.system
    return OscillatorParams(sy.m, sy.omega1, sy.omega2, sy.c12, sy.c12_tilde)


def make_bath(cfg: RunConfig) -> DiscreteBath:
    n = cfg.bath.n_modes
    if n is None:
        n = modes_for_window(cfg.spectral.cutoff, cfg.evolution.t_max)
    return discretize(spectral_density(cfg), n, cfg.bath.temperature)


def build_drift(cfg: RunConfig, bath: DiscreteBath) -> ex.DriftMatrix:
    if cfg.model == "symmetric":
        return ex.build_symmetric_model(oscillator(cfg), bath)
    return ex.build_position_model(oscillator(cfg), bath)


def initial_system_state(
    cfg: RunConfig, m_scale: float, omega_scale: float
) -> CovarianceMatrix:
    """Prepared two-oscillator state, squeezing measured at the given scale.

    An unphysical ``custom_covariance`` is a config error, refused here
    before any route runs.
    """
    ini = cfg.initial_state
    if ini.kind == "custom_covariance":
        try:
            v = CovarianceMatrix(np.array(ini.covariance, dtype=float), Ordering.PHYSICAL)
            v.validate_physical()
        except UnphysicalStateError as err:
            raise ConfigError(f"initial_state.covariance: {err}") from err
        return v
    if ini.kind == "coherent":
        base = separable_squeezed(0.0, m_scale, omega_scale)
    elif ini.kind == "separable_squeezed":
        base = separable_squeezed(ini.r, m_scale, omega_scale)
    else:
        base = basis_change(
            two_mode_squeezed(ini.r, m_scale, omega_scale), Ordering.PHYSICAL
        )
    # admix thermal noise: uniform scaling sets the minus-mode purity product
    scale = ini.purity_product / 0.5
    return CovarianceMatrix(scale * base.matrix, Ordering.PHYSICAL)


def minus_mode_readout(
    v_sys: CovarianceMatrix, m_minus: float, omega_minus: float
) -> tuple[float, float, np.ndarray]:
    """(signed r, purity product, 2x2 block) of the minus mode of a state."""
    nm = basis_change(v_sys, Ordering.NORMAL).matrix
    dx = math.sqrt(nm[2, 2])
    dp = math.sqrt(nm[3, 3])
    r = 0.5 * math.log(m_minus * omega_minus * dx / dp)
    return r, dx * dp, nm[2:, 2:]


def plus_frequency(cfg: RunConfig) -> float:
    """Frequency of the bath-coupled plus mode in the closed-form routes.

    omega+ = sqrt((omega1^2 + omega2^2)/2 + c12) for position coupling and
    omega1 for the symmetric model.  A plus mode, or an omega1 (where the
    perturbative coefficients are taken), at or above the cutoff has no
    damped equilibrium and is a config error.
    """
    sy = cfg.system
    omega_plus = sy.omega1
    if cfg.model == "position":
        try:
            _, omega_plus = oscillator(cfg).plus_mode_position()
        except ValueError as err:
            raise ConfigError(f"system.c12: {err}") from err
    lam = cfg.spectral.cutoff
    if max(omega_plus, sy.omega1) >= lam:
        raise ConfigError(
            f"system.omega1/omega2: omega1={sy.omega1!r} and omega_plus={omega_plus!r} "
            f"must lie below spectral.cutoff={lam!r}"
        )
    return omega_plus


def equilibrium_plus(cfg: RunConfig, temperature: float) -> tuple[float, float]:
    """Asymptotic (dx+, dp+): fluctuation-dissipation route for position
    coupling, closed form for the symmetric model."""
    sd = spectral_density(cfg)
    m = cfg.system.m
    omega_plus = plus_frequency(cfg)
    if cfg.model == "symmetric":
        coeffs = asy.coefficient_limits(sd, omega_plus, temperature, None, "symmetric")
        return asy.equilibrium_dispersions_symmetric(coeffs, m, omega_plus)
    return asy.fdt_dispersions(sd, omega_plus, temperature, m)


def minus_scale(cfg: RunConfig) -> tuple[float, float]:
    """(m-, omega-) implied by the renormalized system parameters."""
    osc = oscillator(cfg)
    if cfg.model == "symmetric":
        return osc.minus_mode_symmetric()
    return osc.minus_mode_position()


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _header_lines(cfg: RunConfig) -> list[str]:
    return [
        f"entbath {__version__}",
        f"config_sha256 {config_hash(cfg)}",
        f"config {canonical_json(cfg)}",
    ]


def _warn_on_hash_change(path: str | None, cfg: RunConfig) -> None:
    if path is None or not os.path.exists(path):
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(4096)
    except OSError:
        return
    digest = config_hash(cfg)
    if "config_sha256" in head and digest not in head:
        print(
            f"warning: overwriting {path} produced by a different config",
            file=sys.stderr,
        )


def write_csv(path: str, cfg: RunConfig, names: list[str], columns: list) -> None:
    """Deterministic CSV: shortest round-trip floats, config echo header."""
    _warn_on_hash_change(path, cfg)
    lines = [f"# {h}" for h in _header_lines(cfg)]
    lines.append(",".join(names))
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_json(path: str | None, cfg: RunConfig, payload: dict) -> None:
    _warn_on_hash_change(path, cfg)
    doc = {
        "artifact_version": __version__,
        "config_sha256": config_hash(cfg),
        "config": canonical_dict(cfg),
        **payload,
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# negativity-trace and moments
# ---------------------------------------------------------------------------

def _moments_trace(cfg: RunConfig, v_sys: CovarianceMatrix, times: np.ndarray):
    """Moment-ODE E_N and dispersions interpolated onto the given times."""
    plus_frequency(cfg)  # refuses a plus mode at or above the cutoff
    sd = spectral_density(cfg)
    sy = cfg.system
    m_minus, omega_minus = minus_scale(cfg)
    nm = basis_change(v_sys, Ordering.NORMAL).matrix
    state = mo.MomentState(
        nm[0, 0], nm[1, 1], 2.0 * nm[0, 1], nm[2, 2], nm[3, 3], 2.0 * nm[2, 3]
    )
    t = cfg.bath.temperature
    if cfg.model == "symmetric":
        coeffs = asy.coefficient_limits(sd, sy.omega1, t, None, "symmetric")
    else:
        regime = asy.Regime.ZERO_T if t == 0.0 else asy.Regime.HIGH_T
        coeffs = asy.coefficient_limits(sd, sy.omega1, t, regime, "position")
    traj = mo.integrate(
        state,
        coeffs,
        sy.m,
        sy.omega1,
        float(times[-1]),
        model="position" if cfg.model == "position" else "symmetric",
        m_minus=m_minus,
        omega_minus=omega_minus,
        sample_every=5,
    )
    tt = np.array([s.time for s in traj])
    cols = {
        "e_n": mo.negativities(traj),
        "dx_plus_sq": np.array([s.x2_plus for s in traj]),
        "dp_plus_sq": np.array([s.p2_plus for s in traj]),
        "dx_minus_sq": np.array([s.x2_minus for s in traj]),
        "dp_minus_sq": np.array([s.p2_minus for s in traj]),
    }
    return {k: np.interp(times, tt, v) for k, v in cols.items()}


def _asymptotic_trace(cfg: RunConfig, v_sys, drift, times):
    t_bath = cfg.bath.temperature
    if cfg.model == "symmetric":
        # dressed plus mode thermalizes at the renormalized mass scale,
        # which at equal couplings coincides with the exact minus-mode mass
        omega = cfg.system.omega1
        coth = 1.0 if t_bath == 0.0 else 1.0 / math.tanh(omega / (2.0 * t_bath))
        dx_p = math.sqrt(coth / (2.0 * drift.m_minus * omega))
        dp_p = math.sqrt(drift.m_minus * omega * coth / 2.0)
    else:
        dx_p, dp_p = equilibrium_plus(cfg, t_bath)
    r, product, _ = minus_mode_readout(v_sys, drift.m_minus, drift.omega_minus)
    r_crit = 0.5 * math.log(drift.m_minus * drift.omega_minus * dx_p / dp_p)
    s_crit = 0.5 * math.log(4.0 * dx_p * dp_p * product)
    e = asy.entanglement_oscillation(r, r_crit, s_crit, drift.omega_minus, times)
    return np.maximum(e, 0.0)


def cmd_negativity_trace(cfg: RunConfig, out: str, with_moments: bool) -> int:
    bath = make_bath(cfg)
    drift = build_drift(cfg, bath)
    v_sys = initial_system_state(cfg, drift.m_minus, drift.omega_minus)
    ev = cfg.evolution
    integrator = (
        ex.Integrator.RK4 if ev.integrator == "rk4" else ex.Integrator.NORMAL_MODE
    )
    run_cfg = ex.EvolutionConfig(ev.t_max, ev.dt, ev.sample_stride, integrator)
    tr = ex.negativity_trace(v_sys, drift, run_cfg)

    names = ["t", "E_N_exact"]
    cols: list = [tr.times, tr.e_n]
    if with_moments:
        mtr = _moments_trace(cfg, v_sys, tr.times)
        names.append("E_N_moments")
        cols.append(mtr["e_n"])
    names.append("E_N_asymptotic")
    cols.append(_asymptotic_trace(cfg, v_sys, drift, tr.times))
    names += ["dx_plus_sq", "dp_plus_sq", "dx_minus_sq", "dp_minus_sq"]
    cols += [tr.dx_plus_sq, tr.dp_plus_sq, tr.dx_minus_sq, tr.dp_minus_sq]
    write_csv(out, cfg, names, cols)
    return 0


def cmd_moments(cfg: RunConfig, out: str) -> int:
    m_minus, omega_minus = minus_scale(cfg)
    v_sys = initial_system_state(cfg, m_minus, omega_minus)
    ev = cfg.evolution
    times = np.arange(0.0, ev.t_max + ev.dt, ev.dt * ev.sample_stride)
    mtr = _moments_trace(cfg, v_sys, times)
    write_csv(
        out,
        cfg,
        ["t", "E_N_moments", "dx_plus_sq", "dp_plus_sq", "dx_minus_sq", "dp_minus_sq"],
        [times, mtr["e_n"], mtr["dx_plus_sq"], mtr["dp_plus_sq"],
         mtr["dx_minus_sq"], mtr["dp_minus_sq"]],
    )
    return 0


# ---------------------------------------------------------------------------
# phase-diagram
# ---------------------------------------------------------------------------

def _initial_minus_r(cfg: RunConfig, r: float) -> float:
    """Signed minus-mode squeezing of the configured state kind."""
    if cfg.initial_state.kind == "coherent":
        return 0.0
    if cfg.initial_state.kind == "two_mode_squeezed":
        return -r
    return r


def _phase_cell(payload: tuple[str, float, float]) -> dict:
    cfg_json, r, temperature = payload
    cfg = from_dict(json.loads(cfg_json))
    dx_p, dp_p = equilibrium_plus(cfg, temperature)
    m_minus, omega_minus = minus_scale(cfg)
    product = cfg.initial_state.purity_product
    r_minus = _initial_minus_r(cfg, r)
    dx_m = math.sqrt(product / (m_minus * omega_minus)) * math.exp(r_minus)
    dp_m = math.sqrt(product * m_minus * omega_minus) * math.exp(-r_minus)
    cp = asy.critical_params(dx_p, dp_p, dx_m, dp_m, m_minus, omega_minus)
    mean, amp = asy.mean_and_amplitude(r_minus, cp.r_crit, cp.s_crit)
    phase = asy.classify(r_minus, cp.r_crit, cp.s_crit)
    return {
        "r": r,
        "T": temperature,
        "phase": phase.value,
        "e_mean": mean,
        "e_amp": amp,
        "r_crit": cp.r_crit,
        "s_crit": cp.s_crit,
        "e_c": cp.e_c,
    }


def _workers(cfg: RunConfig) -> int:
    if cfg.sweep.parallelism is not None:
        return cfg.sweep.parallelism
    env = os.environ.get("ENTBATH_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as err:
            raise ConfigError(f"ENTBATH_THREADS: expected integer, got {env!r}") from err
    return os.cpu_count() or 1


def cmd_phase_diagram(cfg: RunConfig, out: str, summary_out: str | None) -> int:
    sw = cfg.sweep
    if not sw.r_grid:
        raise ConfigError("sweep.r_grid: required for phase-diagram")
    if not sw.t_grid:
        raise ConfigError("sweep.t_grid: required for phase-diagram")
    if cfg.initial_state.kind == "custom_covariance":
        raise ConfigError(
            "initial_state.kind: custom_covariance has no squeezing to sweep; "
            "phase-diagram sets it from sweep.r_grid"
        )
    cells = [(canonical_json(cfg), float(r), float(t)) for r in sw.r_grid for t in sw.t_grid]
    workers = _workers(cfg)
    if workers == 1 or len(cells) == 1:
        rows = [_phase_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_phase_cell, cells))
    rows.sort(key=lambda row: (row["r"], row["T"]))
    names = ["r", "T", "phase", "e_mean", "e_amp", "r_crit", "s_crit", "e_c"]
    write_csv(out, cfg, names, [[row[k] for row in rows] for k in names])
    write_json(summary_out, cfg, {"summary": _phase_summary(cfg, rows)})
    return 0


def _phase_summary(cfg: RunConfig, rows: list[dict]) -> dict:
    temps = sorted({row["T"] for row in rows})
    by_t = {
        t: next(row for row in rows if row["T"] == t) for t in temps
    }
    summary: dict = {
        "boundary_curves": {
            "T": temps,
            "s_crit": [by_t[t]["s_crit"] for t in temps],
            "abs_r_crit": [abs(by_t[t]["r_crit"]) for t in temps],
        },
        "phase_counts": {
            p: sum(1 for row in rows if row["phase"] == p) for p in ("SD", "SDR", "NSD")
        },
    }
    if cfg.model == "position":
        sd = spectral_density(cfg)
        sy = cfg.system
        omega_plus = plus_frequency(cfg)

        def variance(t: float) -> float:
            return asy.fdt_dispersions(sd, omega_plus, t, sy.m)[0] ** 2

        summary["t0"] = asy.critical_temperature(variance, sy.m, omega_plus)
        dx0, dp0 = asy.fdt_dispersions(sd, omega_plus, 0.0, sy.m)
        r1, r2 = asy.r1_r2(dx0, dp0, sy.m, omega_plus)
        summary["r1"] = r1
        summary["r2"] = r2
    else:
        summary["t0"] = None
    return summary


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def cmd_asymptotics(cfg: RunConfig, out: str | None) -> int:
    sd = spectral_density(cfg)
    sy = cfg.system
    t = cfg.bath.temperature
    omega_plus = plus_frequency(cfg)
    m_minus, omega_minus = minus_scale(cfg)
    v_sys = initial_system_state(cfg, m_minus, omega_minus)
    if cfg.initial_state.kind == "custom_covariance":
        r_minus, product, _ = minus_mode_readout(v_sys, m_minus, omega_minus)
    else:
        r_minus = _initial_minus_r(cfg, cfg.initial_state.r)
        product = cfg.initial_state.purity_product
    dx_p, dp_p = equilibrium_plus(cfg, t)
    dx_m = math.sqrt(product / (m_minus * omega_minus)) * math.exp(r_minus)
    dp_m = math.sqrt(product * m_minus * omega_minus) * math.exp(-r_minus)
    cp = asy.critical_params(dx_p, dp_p, dx_m, dp_m, m_minus, omega_minus)
    payload: dict = {
        "dx_plus": dx_p,
        "dp_plus": dp_p,
        "r_crit": cp.r_crit,
        "s_crit": cp.s_crit,
        "e_c": cp.e_c,
        "phase": asy.classify(r_minus, cp.r_crit, cp.s_crit).value,
    }
    if cfg.model == "symmetric":
        coeffs = asy.coefficient_limits(sd, sy.omega1, t, None, "symmetric")
        payload["coefficients"] = {
            "gamma_tilde": coeffs.gamma, "diffusion_tilde": coeffs.diffusion
        }
    else:
        regime = asy.Regime.ZERO_T if t == 0.0 else asy.Regime.HIGH_T
        coeffs = asy.coefficient_limits(sd, sy.omega1, t, regime, "position")
        payload["coefficients"] = {
            "gamma": coeffs.gamma,
            "diffusion": coeffs.diffusion,
            "anomalous": coeffs.anomalous,
        }
        dx0, dp0 = asy.fdt_dispersions(sd, omega_plus, 0.0, sy.m)
        r1, r2 = asy.r1_r2(dx0, dp0, sy.m, omega_plus)
        payload["r1"] = r1
        payload["r2"] = r2
        payload["t0"] = asy.critical_temperature(
            lambda tt: asy.fdt_dispersions(sd, omega_plus, tt, sy.m)[0] ** 2,
            sy.m,
            omega_plus,
        )
        if sd.exponent == 1.0 and t == 0.0:
            gamma = coeffs.gamma
            dx_e, dp_e = asy.ohmic_exact_zero_t_dispersions(
                gamma, omega_plus, sd.cutoff, sy.m
            )
            payload["ohmic_zero_t_exact"] = {"dx_plus": dx_e, "dp_plus": dp_e}
            payload["ohmic_zero_t_weak_coupling"] = asy.ohmic_weak_zero_t(
                gamma, omega_plus, sd.cutoff
            )
    write_json(out, cfg, payload)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig) -> int:
    """Invariant suite on a downsized copy of the config."""
    sd = spectral_density(cfg)
    ev = cfg.evolution
    # named refusals on the config as given
    if ev.integrator == "rk4":
        ex.check_rk4_step(ev.dt, sd.cutoff, label="evolution.dt",
                          note=" for the RK4 integrator")
    if cfg.bath.n_modes is not None:
        ex.check_recurrence(
            ev.t_max, 2.0 * math.pi * cfg.bath.n_modes / sd.cutoff,
            label="evolution.t_max", note=f" for bath.n_modes={cfg.bath.n_modes}",
        )

    n = 48
    bath = discretize(sd, n, cfg.bath.temperature)
    t_val = 0.5 * ex.RECURRENCE_MARGIN * bath.recurrence_time
    drift = build_drift(cfg, bath)
    v_sys = initial_system_state(cfg, drift.m_minus, drift.omega_minus)
    v0 = ex.initial_covariance(v_sys, bath)

    checks: list[tuple[str, bool, str]] = []
    s = drift.normal_modes.propagator(t_val)
    defect = ex.symplecticity_defect(s)
    checks.append(("symplecticity", defect <= 1e-8, f"defect={defect:.3e}"))

    # short, fine-stepped horizon for the RK4 cross-check
    dt_rk = 0.2 * ex.RK4_STEP_FACTOR / sd.cutoff
    n_rk = max(1, int(round(min(2.0, t_val) / dt_rk)))
    cfg_nm = ex.EvolutionConfig(n_rk * dt_rk, dt_rk, n_rk, ex.Integrator.NORMAL_MODE)
    cfg_rk = ex.EvolutionConfig(n_rk * dt_rk, dt_rk, n_rk, ex.Integrator.RK4)
    _, series_nm = ex.evolve(v0, drift, cfg_nm)
    _, series_rk = ex.evolve(v0, drift, cfg_rk)
    diff = float(np.abs(series_nm[-1].matrix - series_rk[-1].matrix).max())
    checks.append(("rk4 vs normal-mode", diff <= 1e-5, f"max diff={diff:.3e}"))

    nu0 = symplectic_eigenvalues(v0.matrix)
    nu1 = symplectic_eigenvalues(series_nm[-1].matrix)
    purity = float(np.abs(nu1 / nu0 - 1.0).max())
    checks.append(("purity conservation", purity <= 1e-6, f"rel drift={purity:.3e}"))

    e0 = ex.energy_of(drift, v0)
    e1 = ex.energy_of(drift, series_nm[-1])
    energy = abs(e1 / e0 - 1.0)
    checks.append(("energy conservation", energy <= 1e-6, f"rel drift={energy:.3e}"))

    tr = ex.negativity_trace(
        v_sys, drift, ex.EvolutionConfig(t_val, t_val / 200.0, 1, ex.Integrator.NORMAL_MODE)
    )
    checks.append(("reduced-state physicality", True, f"{len(tr.times)} samples"))

    ok = True
    for name, passed, detail in checks:
        tag = "ok" if passed else "FAIL"
        print(f"{tag}: {name} ({detail})")
        ok = ok and passed
    if not ok:
        raise NumericalError("validation checks failed")
    print("validate: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="entbath",
        description="Entanglement dynamics of two oscillators in a common bath",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("negativity-trace", "phase-diagram", "moments", "asymptotics", "validate"):
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML run configuration")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field, e.g. bath.temperature=10")
        if name in ("negativity-trace", "phase-diagram", "moments"):
            p.add_argument("--out", required=True, help="output CSV path")
        if name == "phase-diagram":
            p.add_argument("--summary", default=None, help="JSON summary path (default stdout)")
        if name == "asymptotics":
            p.add_argument("--out", default=None, help="output JSON path (default stdout)")
        if name == "negativity-trace":
            p.add_argument("--with-moments", action="store_true",
                           help="add the master-equation moment column")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.command == "negativity-trace":
            return cmd_negativity_trace(cfg, args.out, args.with_moments)
        if args.command == "phase-diagram":
            return cmd_phase_diagram(cfg, args.out, args.summary)
        if args.command == "moments":
            return cmd_moments(cfg, args.out)
        if args.command == "asymptotics":
            return cmd_asymptotics(cfg, args.out)
        return cmd_validate(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (RecurrenceWindowError, UnstableHamiltonianError, StepSizeError) as err:
        print(f"refused: {err}", file=sys.stderr)
        return EXIT_REFUSAL
    except (NumericalError, UnphysicalStateError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
