"""One run's physics decisions, shared by every route.

A ``Scenario`` is built once per ``RunConfig``.  When made, it decides the
configured system for every route: position coupling needs a named
exponent, the symmetric model resonance, momentum coupling the symmetric
model, and the 4x4 system block as configured must be stable
(``_stable_block``); each refusal is a ``ConfigError`` naming its field.
It then builds the bath, the oscillators and the drift, derives the plus
and minus modes in one place, decides which route applies and refuses with
a named ``ConfigError`` where none does:

* the exact route (the exact columns of ``negativity_trace``, ``validate``)
  takes any config the scenario accepts;
* the moment and closed-form routes damp a plus mode at omega+ and rotate a
  bath-free minus mode, which holds only for resonant oscillators whose
  plus mode lies below the cutoff; a detuned trace leaves out its
  closed-form column.

Every route returns columns or a payload; writing them is the CLI's job.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import asymptotics as asy
from . import bath as bt
from . import exact as ex
from . import moments as mo
from .config import RunConfig
from .errors import ConfigError, UnphysicalStateError
from .gaussian import (
    CovarianceMatrix,
    Ordering,
    OscillatorParams,
    basis_change,
    physicality_margins,
    separable_squeezed,
    squeezing_exp,
    squeezing_of,
    symplectic_eigenvalues,
    two_mode_squeezed,
)

DISPERSIONS = ["dx_plus_sq", "dp_plus_sq", "dx_minus_sq", "dp_minus_sq"]
PHASE_COLUMNS = ["r", "T", "phase", "e_mean", "e_amp", "r_crit", "s_crit", "e_c"]
VALIDATE_MODES = 48  # bath size of validate's downsized copy
# bytes that the two (N+2)^2 float64 mode matrices A and W of a config's
# bath may take (N = 8190 at most); a larger bath is refused before it is made
MODE_MATRIX_BUDGET = 1 << 30
# system_hamiltonian's one structural refusal per model, as the field to blame
STRUCTURE_ERRORS = {
    "symmetric": "system.omega2: symmetric model requires omega1 == omega2",
    "position": "system.c12_tilde: momentum coupling needs model=symmetric",
}


def minus_mode_readout(
    v_sys: CovarianceMatrix, m_minus: float, omega_minus: float
) -> tuple[float, float]:
    """(signed r, purity product) of the minus mode of a state."""
    nm = basis_change(v_sys, Ordering.NORMAL).matrix
    dx = math.sqrt(nm[2, 2])
    dp = math.sqrt(nm[3, 3])
    return squeezing_of(dx, dp, m_minus, omega_minus), dx * dp


class Scenario:
    """The physics of one ``RunConfig``, with one method per CLI route."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        sy, sp = cfg.system, cfg.spectral
        self.model = cfg.model
        if self.model == "position" and sp.n not in (0.5, 1, 3):
            raise ConfigError(
                "spectral.n: position coupling has closed forms only for "
                f"exponents 0.5, 1 and 3, got {sp.n}"
            )
        self.mass = sy.m
        self.temperature = cfg.bath.temperature
        self.spectral_density = bt.SpectralDensity(float(sp.n), sp.gamma0, sp.cutoff, sy.m)
        self.oscillator = OscillatorParams(sy.m, sy.omega1, sy.omega2, sy.c12, sy.c12_tilde)
        self.system_block = self._stable_block()
        self._fdt_rules: dict[float, asy.FdtRule] = {}  # by plus mass

    def _stable_block(self) -> np.ndarray:
        """The 4x4 system block as configured, refused unless it is stable.

        The rule, for every route: its stiffness block (x rows) and its
        momentum block (p rows) are both positive definite.  A builder
        drift's Schur complement over its bath is this block (for the
        symmetric model, each 2x2 block times a positive factor), so the
        rule is the drift's own positive semidefiniteness check made strict
        and decided before any bath is built.  A positive definite 2x2
        block has (K11 + K22)/2 > |K12|, so both x± oscillators of
        ``exact.mode_scales`` exist.
        """
        try:
            block = ex.system_hamiltonian(self.oscillator, self.model)[0]
        except ValueError as err:
            raise ConfigError(STRUCTURE_ERRORS[self.model]) from err
        stiffness = "system.c12"
        if not self.oscillator.resonant:
            stiffness += " and system.omega1/omega2"
        for name, rows, fields in (("stiffness", slice(0, 4, 2), stiffness),
                                   ("momentum", slice(1, 4, 2), "system.c12_tilde")):
            lo = float(np.linalg.eigvalsh(block[rows, rows])[0])
            if lo <= 0.0:
                raise ConfigError(
                    f"{fields}: the configured {name} block is not positive definite "
                    f"(smallest eigenvalue {lo:.4g}), so the oscillators are unstable"
                )
        return block

    # -- builders ---------------------------------------------------------

    def bath(self, n_modes: int | None = None) -> bt.DiscreteBath:
        """Discrete bath of ``n_modes``, of ``bath.n_modes``, or sized for t_max.

        A bath the config sizes is refused when its drift's two mode
        matrices would exceed ``MODE_MATRIX_BUDGET``.
        """
        if n_modes is None:
            n_modes = self.cfg.bath.n_modes
            sized_by = f"bath.n_modes: a bath of N={n_modes} modes"
            if n_modes is None:
                lam, t_max = self.cfg.spectral.cutoff, self.cfg.evolution.t_max
                n_modes = bt.modes_for_window(lam, t_max)
                sized_by = (f"spectral.cutoff/evolution.t_max: cutoff={lam!r} and "
                            f"t_max={t_max!r} size a bath of N={n_modes} modes")
            size = 2 * 8 * (n_modes + 2) ** 2
            if size > MODE_MATRIX_BUDGET:
                raise ConfigError(f"{sized_by}, whose two (N+2)^2 mode matrices need {size} "
                                  f"bytes, above the budget of {MODE_MATRIX_BUDGET}")
        return bt.discretize(self.spectral_density, n_modes, self.temperature)

    def drift(self, bath: bt.DiscreteBath) -> ex.DriftMatrix:
        if self.model == "symmetric":
            return ex.build_symmetric_model(self.oscillator, bath)
        return ex.build_position_model(self.oscillator, bath)

    def initial_state(self, m_minus: float, omega_minus: float) -> CovarianceMatrix:
        """Prepared two-oscillator state, squeezing measured at (m-, omega-).

        An unphysical ``custom_covariance`` is a config error, refused here
        before any route runs.
        """
        ini = self.cfg.initial_state
        if ini.kind == "custom_covariance":
            try:
                v = CovarianceMatrix(np.array(ini.covariance, dtype=float), Ordering.PHYSICAL)
                v.validate_physical()
            except UnphysicalStateError as err:
                raise ConfigError(f"initial_state.covariance: {err}") from err
            return v
        if ini.kind == "two_mode_squeezed":
            base = basis_change(
                two_mode_squeezed(ini.r, m_minus, omega_minus), Ordering.PHYSICAL
            )
        else:
            r = ini.r if ini.kind == "separable_squeezed" else 0.0
            base = separable_squeezed(r, m_minus, omega_minus)
        # admix thermal noise: uniform scaling sets the minus-mode purity product
        return CovarianceMatrix(ini.purity_product / 0.5 * base.matrix, Ordering.PHYSICAL)

    def minus_squeezing(self, r: float) -> float:
        """Signed minus-mode squeezing of the configured state kind at r."""
        kind = self.cfg.initial_state.kind
        if kind == "coherent":
            return 0.0
        return -r if kind == "two_mode_squeezed" else r

    # -- mode decisions ---------------------------------------------------

    def route_scales(self, drift: ex.DriftMatrix | None = None) -> tuple[float, float, float]:
        """(plus mass, m-, omega-) at which a route prepares and reads its state.

        The exact trace (given its ``drift``) uses the minus mode of the
        drift's bare system block, whose mass also sets the symmetric plus
        mode's thermal state; the moment and closed-form routes use
        ``system.m`` and the minus mode of the block as configured.  For the
        symmetric model the two differ (m- = 2.17 against 1 on
        configs/symmetric_trace.yaml), so the moment column of a trace
        rotates a state prepared at the other scale.
        """
        if drift is not None:
            return drift.m_minus, drift.m_minus, drift.omega_minus
        return (self.mass, *ex.mode_scales(self.system_block))

    def plus_frequency(self) -> float:
        """omega+ of the moment and closed-form routes, refusing configs
        they cannot treat.

        Their minus mode is bath-free only for resonant oscillators, and a
        plus mode at or above the cutoff has no damped equilibrium.
        omega+ is the x+ frequency of the configured block,
        sqrt((omega1^2 + omega2^2)/2 + c12), for position coupling and
        omega1 for the symmetric model.  It is decided once per scenario;
        a refusal is not kept, so every call raises it again.
        """
        return self._omega_plus

    @functools.cached_property
    def _omega_plus(self) -> float:
        sy = self.cfg.system
        if not self.oscillator.resonant:
            raise ConfigError(
                f"system.omega1/omega2: omega1={sy.omega1!r} != omega2={sy.omega2!r}; "
                "the moment and closed-form routes need resonant oscillators"
            )
        omega_plus = sy.omega1
        if self.model == "position":
            omega_plus = ex.mode_scales(self.system_block, 1.0)[1]
        lam = self.cfg.spectral.cutoff
        if omega_plus >= lam:
            raise ConfigError(
                f"system.omega1/omega2: omega_plus={omega_plus!r} "
                f"must lie below spectral.cutoff={lam!r}"
            )
        return omega_plus

    def plus_equilibrium(self, temperature: float, mass: float) -> tuple[float, float]:
        """Asymptotic (dx+, dp+) of a plus mode of the given mass: the
        fluctuation-dissipation integral for position coupling, the thermal
        state at omega+ for the symmetric model."""
        omega_plus = self.plus_frequency()
        if self.model == "symmetric":
            t = temperature
            coth = 1.0 if t == 0.0 else 1.0 / math.tanh(omega_plus / (2.0 * t))
            dx = math.sqrt(coth / (2.0 * mass * omega_plus))
            return dx, math.sqrt(mass * omega_plus * coth / 2.0)
        if mass not in self._fdt_rules:
            self._fdt_rules[mass] = asy.FdtRule(self.spectral_density, omega_plus, mass)
        return self._fdt_rules[mass].dispersions(temperature)

    def coefficients(self):
        """Master-equation coefficients at omega+ and the bath temperature;
        position coupling takes the zero-T forms at T = 0, the high-T ones above."""
        return asy.coefficient_limits(
            self.spectral_density, self.plus_frequency(), self.temperature, self.model
        )

    def moment_coefficients(self):
        """``coefficients``, refused for position coupling when their fixed
        point breaks the uncertainty relation (high-T forms at low T, n=3)."""
        coeffs = self.coefficients()
        if self.model == "position":
            m, omega = self.route_scales()[0], self.plus_frequency()
            dxdp = math.prod(asy.equilibrium_dispersions_position(coeffs, m, omega))
            if dxdp**2 < 0.25 - mo.UNCERTAINTY_ATOL:
                raise UnphysicalStateError(
                    f"the moment route's fixed point has dx+ dp+ = {dxdp:.4g} < 1/2 at "
                    f"spectral.n={self.cfg.spectral.n!r}, T={self.temperature!r}")
        return coeffs

    def zero_t_criticals(self) -> dict:
        """T0 and the T=0 island edges r1, r2 of position coupling."""
        m, omega_plus = self.route_scales()[0], self.plus_frequency()
        r1, r2 = asy.r1_r2(*self.plus_equilibrium(0.0, m), m, omega_plus)
        t0 = asy.critical_temperature(
            lambda t: self.plus_equilibrium(t, m)[0] ** 2, m, omega_plus
        )
        return {"t0": t0, "r1": r1, "r2": r2}

    def _criticals(self, plus, r_minus: float, product: float) -> asy.CriticalParams:
        _, m_minus, omega_minus = self.route_scales()
        dx_m = math.sqrt(product / (m_minus * omega_minus)) * squeezing_exp(r_minus, r_minus)
        dp_m = math.sqrt(product * m_minus * omega_minus) * squeezing_exp(-r_minus, r_minus)
        return asy.critical_params(*plus, dx_m, dp_m, m_minus, omega_minus)

    # -- routes -----------------------------------------------------------

    def _moment_columns(self, v_sys: CovarianceMatrix, times: np.ndarray, coeffs) -> dict:
        """Moment-route E_N and dispersion columns at the uniform ``times``
        under ``coeffs``: the plus rows are stepped onto ``times`` by the
        fewest whole RK4 steps per sample spacing (the interpolation only
        absorbs rounding), and the minus rows are rotated exactly to them."""
        m_plus, m_minus, omega_minus = self.route_scales()
        omega_plus = self.plus_frequency()
        nm = basis_change(v_sys, Ordering.NORMAL).matrix
        state = mo.MomentState(nm[0, 0], nm[1, 1], 2 * nm[0, 1], nm[2, 2], nm[3, 3], 2 * nm[2, 3])
        spacing = float(times[1] - times[0]) if len(times) > 1 else 0.0
        per_sample = mo.whole_steps(spacing, omega_plus, coeffs.gamma)
        traj = mo.integrate(
            state, coeffs, m_plus, omega_plus, float(times[-1]), spacing / per_sample,
            model=self.model, sample_every=per_sample,
        )
        plus = np.stack([np.interp(times, traj.times, col) for col in traj.plus.T], axis=1)
        minus = state.minus_rows(m_minus, omega_minus, times)
        cols = [mo.negativities(plus, minus), *plus.T[:2], *minus.T[:2]]
        return dict(zip(["E_N_moments", *DISPERSIONS], cols))

    def _asymptotic_column(self, v_sys, drift, times) -> np.ndarray:
        m_plus, m_minus, omega_minus = self.route_scales(drift)
        dx_p, dp_p = self.plus_equilibrium(self.temperature, m_plus)
        r, product = minus_mode_readout(v_sys, m_minus, omega_minus)
        r_crit = squeezing_of(dx_p, dp_p, m_minus, omega_minus)
        s_crit = 0.5 * math.log(4.0 * dx_p * dp_p * product)
        e = asy.entanglement_oscillation(r, r_crit, s_crit, omega_minus, times)
        return np.maximum(e, 0.0)

    def negativity_trace(self, with_moments: bool) -> tuple[list[str], list]:
        """Exact E_N and dispersions; the moment column on request and the
        closed-form column for resonant oscillators."""
        asymptotic = self.oscillator.resonant
        if with_moments or asymptotic:
            self.plus_frequency()  # refuse before the exact run
        coeffs = self.moment_coefficients() if with_moments else None
        drift = self.drift(self.bath())
        _, m_minus, omega_minus = self.route_scales(drift)
        v_sys = self.initial_state(m_minus, omega_minus)
        ev = self.cfg.evolution
        tr = ex.negativity_trace(
            v_sys, drift, ex.EvolutionConfig(ev.t_max, ev.dt, ev.sample_stride)
        )
        names, cols = ["t", "E_N_exact"], [tr.times, tr.e_n]
        if with_moments:
            names.append("E_N_moments")
            cols.append(self._moment_columns(v_sys, tr.times, coeffs)["E_N_moments"])
        if asymptotic:
            names.append("E_N_asymptotic")
            cols.append(self._asymptotic_column(v_sys, drift, tr.times))
        cols += [tr.dx_plus_sq, tr.dp_plus_sq, tr.dx_minus_sq, tr.dp_minus_sq]
        return names + DISPERSIONS, cols

    def moments(self) -> tuple[list[str], list]:
        """Moment-route trace on the evolution's sample grid."""
        coeffs = self.moment_coefficients()
        _, m_minus, omega_minus = self.route_scales()
        v_sys = self.initial_state(m_minus, omega_minus)
        ev = self.cfg.evolution
        times = ex.EvolutionConfig(ev.t_max, ev.dt, ev.sample_stride).sample_times()
        cols = self._moment_columns(v_sys, times, coeffs)
        return ["t", *cols], [times, *cols.values()]

    def phase_diagram(self) -> tuple[list[dict], dict]:
        """Phase rows over sweep.r_grid x sweep.t_grid, sorted by (r, T), and
        their summary; the plus equilibrium is computed once per temperature."""
        sw = self.cfg.sweep
        if not sw.r_grid:
            raise ConfigError("sweep.r_grid: required for phase-diagram")
        if not sw.t_grid:
            raise ConfigError("sweep.t_grid: required for phase-diagram")
        if self.cfg.initial_state.kind == "custom_covariance":
            raise ConfigError(
                "initial_state.kind: custom_covariance has no squeezing to sweep; "
                "phase-diagram sets it from sweep.r_grid"
            )
        m_plus = self.route_scales()[0]
        temps = [float(t) for t in sw.t_grid]
        plus = {t: self.plus_equilibrium(t, m_plus) for t in temps}
        product = self.cfg.initial_state.purity_product
        rows = []
        for r in map(float, sw.r_grid):
            r_minus = self.minus_squeezing(r)
            for t in temps:
                cp = self._criticals(plus[t], r_minus, product)
                mean, amp = asy.mean_and_amplitude(r_minus, cp.r_crit, cp.s_crit)
                phase = asy.classify(r_minus, cp.r_crit, cp.s_crit).value
                cell = (r, t, phase, mean, amp, cp.r_crit, cp.s_crit, cp.e_c)
                rows.append(dict(zip(PHASE_COLUMNS, cell)))
        rows.sort(key=lambda row: (row["r"], row["T"]))
        return rows, self._phase_summary(rows)

    def _phase_summary(self, rows: list[dict]) -> dict:
        temps = sorted({row["T"] for row in rows})
        by_t = {t: next(row for row in rows if row["T"] == t) for t in temps}
        summary: dict = {
            "boundary_curves": {
                "T": temps,
                "s_crit": [by_t[t]["s_crit"] for t in temps],
                "abs_r_crit": [abs(by_t[t]["r_crit"]) for t in temps],
            },
            "phase_counts": {
                p: sum(1 for row in rows if row["phase"] == p) for p in ("SD", "SDR", "NSD")
            },
            "t0": None,
        }
        if self.model == "position":
            summary.update(self.zero_t_criticals())
        return summary

    def asymptotics(self) -> dict:
        """Equilibrium dispersions, criticals, phase and coefficients."""
        omega_plus = self.plus_frequency()
        m_plus, m_minus, omega_minus = self.route_scales()
        ini = self.cfg.initial_state
        if ini.kind == "custom_covariance":
            v_sys = self.initial_state(m_minus, omega_minus)
            r_minus, product = minus_mode_readout(v_sys, m_minus, omega_minus)
        else:
            r_minus, product = self.minus_squeezing(ini.r), ini.purity_product
        dx_p, dp_p = self.plus_equilibrium(self.temperature, m_plus)
        cp = self._criticals((dx_p, dp_p), r_minus, product)
        payload: dict = {
            "dx_plus": dx_p,
            "dp_plus": dp_p,
            "r_crit": cp.r_crit,
            "s_crit": cp.s_crit,
            "e_c": cp.e_c,
            "phase": asy.classify(r_minus, cp.r_crit, cp.s_crit).value,
        }
        coeffs = self.coefficients()
        if self.model == "symmetric":
            payload["coefficients"] = {
                "gamma_tilde": coeffs.gamma, "diffusion_tilde": coeffs.diffusion
            }
            return payload
        payload["coefficients"] = {
            "gamma": coeffs.gamma, "diffusion": coeffs.diffusion, "anomalous": coeffs.anomalous
        }
        payload.update(self.zero_t_criticals())
        sd = self.spectral_density
        if sd.exponent == 1.0 and self.temperature == 0.0:
            gamma, lam = coeffs.gamma, sd.cutoff
            notes = []
            try:  # the weak-coupling logs need positive arguments
                payload["ohmic_zero_t_weak_coupling"] = asy.ohmic_weak_zero_t(
                    gamma, omega_plus, lam)
            except ValueError as err:
                notes.append(f"ohmic_zero_t_weak_coupling left out: its closed form {err}, "
                             f"here gamma={gamma!r}, omega_plus={omega_plus!r} and cutoff={lam!r}")
            try:  # the exact closed form holds only when underdamped
                dx_e, dp_e = asy.ohmic_exact_zero_t_dispersions(gamma, omega_plus, lam, m_plus)
                payload["ohmic_zero_t_exact"] = {"dx_plus": dx_e, "dp_plus": dp_e}
            except ValueError as err:
                notes.append(f"ohmic_zero_t_exact left out: its closed form {err}, "
                             f"here gamma={gamma!r} and omega_plus={omega_plus!r}")
            if notes:
                payload["notes"] = notes
        return payload

    def validate(self) -> list[tuple[str, bool, str]]:
        """Named refusals on the config as given, then (name, passed, detail)
        of each invariant check on a downsized copy."""
        sd, n_modes = self.spectral_density, self.cfg.bath.n_modes
        if n_modes is not None:
            t_rec = bt.grid_recurrence_time(sd.cutoff, n_modes)
            bt.check_recurrence(self.cfg.evolution.t_max, t_rec, label="evolution.t_max",
                                note=f" for bath.n_modes={n_modes}")

        bath = self.bath(VALIDATE_MODES)
        t_val = 0.5 * bt.RECURRENCE_MARGIN * bath.recurrence_time
        drift = self.drift(bath)
        _, m_minus, omega_minus = self.route_scales(drift)
        v_sys = self.initial_state(m_minus, omega_minus)
        v0 = ex.initial_covariance(v_sys, bath)

        checks: list[tuple[str, bool, str]] = []
        defect = ex.symplecticity_defect(drift.normal_modes.propagator(t_val))
        checks.append(("symplecticity", defect <= 1e-8, f"defect={defect:.3e}"))

        # short, fine-stepped horizon for the RK4 cross-check
        dt_rk = 0.2 * ex.RK4_STEP_FACTOR / sd.cutoff
        n_rk = max(1, int(round(min(2.0, t_val) / dt_rk)))
        short = ex.EvolutionConfig(n_rk * dt_rk, dt_rk, n_rk)
        _, series_nm = ex.evolve(v0, drift, short)
        _, series_rk = ex.evolve(v0, drift, short, rk4=True)
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

        times = ex.EvolutionConfig(t_val, t_val / 200.0).sample_times()
        margin = float(physicality_margins(drift.reduced_channel(times).blocks(v_sys)).min())
        checks.append(("reduced-state physicality", margin >= -ex.REDUCED_PHYSICALITY_ATOL,
                       f"{len(times)} samples, min nu-1/2={margin:.3e}"))
        return checks
