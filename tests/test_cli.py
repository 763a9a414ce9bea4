"""Command-line interface: config handling, determinism, exit codes."""

import json

import numpy as np
import pytest
import yaml

from entbath.cli import main
from entbath.config import (
    apply_override,
    canonical_json,
    config_hash,
    from_dict,
    load_config,
    validate,
)
from entbath.errors import ConfigError

BASE = {
    "model": "position",
    "spectral": {"n": 1, "gamma0": 0.1, "cutoff": 20.0},
    "initial_state": {"kind": "separable_squeezed", "r": 2.0},
    "evolution": {"dt": 0.02, "t_max": 5.0, "sample_stride": 10},
    "sweep": {"r_grid": [0.1, 2.0], "t_grid": [0.0, 10.0]},
}


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(BASE))
    return str(path)


# ---------------------------------------------------------------------------
# Config layer
# ---------------------------------------------------------------------------

def test_unknown_keys_named():
    with pytest.raises(ConfigError, match="bogus"):
        from_dict({"bogus": {}})
    with pytest.raises(ConfigError, match="spectral.bogus"):
        from_dict({"spectral": {"bogus": 1}})


def test_validation_names_fields():
    cfg = from_dict(dict(BASE))
    cfg.spectral.gamma0 = -1.0
    with pytest.raises(ConfigError, match="spectral.gamma0"):
        validate(cfg)
    cfg = from_dict(dict(BASE))
    cfg.initial_state.purity_product = 0.3
    with pytest.raises(ConfigError, match="purity_product"):
        validate(cfg)
    cfg = from_dict(dict(BASE))
    cfg.model = "symmetric"
    cfg.system.omega2 = 1.1
    with pytest.raises(ConfigError, match="system.omega2"):
        validate(cfg)
    cfg = from_dict(dict(BASE))
    cfg.spectral.n = 2.0
    with pytest.raises(ConfigError, match="spectral.n"):
        validate(cfg)


def test_overrides_parse_yaml_scalars():
    cfg = from_dict(dict(BASE))
    apply_override(cfg, "bath.temperature=10.5")
    assert cfg.bath.temperature == 10.5
    apply_override(cfg, "model=symmetric")
    assert cfg.model == "symmetric"
    with pytest.raises(ConfigError):
        apply_override(cfg, "no_equals_sign")
    with pytest.raises(ConfigError):
        apply_override(cfg, "bath.unknown=1")


def test_canonical_json_is_key_sorted_and_hash_stable():
    a = from_dict(dict(BASE))
    b = from_dict(dict(BASE))
    assert canonical_json(a) == canonical_json(b)
    assert config_hash(a) == config_hash(b)
    apply_override(b, "bath.temperature=1")
    assert config_hash(a) != config_hash(b)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.yaml")


# ---------------------------------------------------------------------------
# Subcommands and exit codes
# ---------------------------------------------------------------------------

def test_asymptotics_json(cfg_file, tmp_path, capsys):
    out = tmp_path / "asy.json"
    assert main(["asymptotics", cfg_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key in ("dx_plus", "dp_plus", "r_crit", "s_crit", "phase", "config_sha256"):
        assert key in doc
    assert doc["phase"] in ("SD", "SDR", "NSD")


def test_trace_deterministic(cfg_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["negativity-trace", cfg_file, "--out", str(a)]) == 0
    assert main(["negativity-trace", cfg_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()
    assert header[0].startswith("# entbath")
    assert "E_N_exact" in header[3]


def test_moments_shares_trace_schema(cfg_file, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moments", cfg_file, "--out", str(out)]) == 0
    cols = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert cols.split(",")[0] == "t"
    assert "dx_plus_sq" in cols


def test_moments_samples_on_the_trace_grid(cfg_file, tmp_path):
    # dt does not divide t_max: both grids stop at 0.9, none passes t_max
    sets = ["--set", "evolution.t_max=1.0", "--set", "evolution.dt=0.3",
            "--set", "evolution.sample_stride=1"]
    trace, moments = tmp_path / "t.csv", tmp_path / "m.csv"
    assert main(["negativity-trace", cfg_file, *sets, "--out", str(trace)]) == 0
    assert main(["moments", cfg_file, *sets, "--out", str(moments)]) == 0
    t = _read_csv(trace)["t"]
    assert t[-1] == pytest.approx(0.9, abs=1e-12)
    np.testing.assert_array_equal(_read_csv(moments)["t"], t)


def test_moment_columns_are_taken_at_the_trace_times(tmp_path):
    # c12 = 0.1 gives omega+ = sqrt(1.1), whose default RK4 step does not
    # divide the trace spacing: the minus columns are still the free rotation
    # at the trace times, and the plus columns and E_N carry RK4 error only
    import os

    from entbath import moments as mo
    from entbath.gaussian import Ordering, basis_change, free_rotation
    from entbath.scenario import Scenario

    yaml_path = os.path.join(
        os.path.dirname(__file__), os.pardir, "configs", "ohmic_trace.yaml"
    )
    override = "system.c12=0.1"
    out = tmp_path / "m.csv"
    assert main(["moments", yaml_path, "--set", override, "--out", str(out)]) == 0
    cols = _read_csv(out)
    scenario = Scenario(load_config(yaml_path, [override]))
    m_plus, m_minus, omega_minus = scenario.route_scales()
    nm = basis_change(scenario.initial_state(m_minus, omega_minus), Ordering.NORMAL).matrix
    rot = free_rotation(nm[2:, 2:], m_minus, omega_minus, cols["t"])
    np.testing.assert_allclose(cols["dx_minus_sq"], rot[:, 0, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(cols["dp_minus_sq"], rot[:, 1, 1], rtol=0, atol=1e-12)
    # a 100-times finer reference on the same grid (the parent's interpolated
    # columns were off by 1.0e-2 in dx_plus_sq and 1.5e-3 in E_N)
    state = mo.MomentState(nm[0, 0], nm[1, 1], 2.0 * nm[0, 1], nm[2, 2], nm[3, 3],
                           2.0 * nm[2, 3])
    t = cols["t"]
    fine = mo.integrate(state, scenario.moment_coefficients(), m_plus,
                        scenario.plus_frequency(), float(t[-1]), (t[1] - t[0]) / 100,
                        m_minus=m_minus, omega_minus=omega_minus, sample_every=100)
    np.testing.assert_allclose(fine.times, t, rtol=0, atol=1e-9)
    np.testing.assert_allclose(cols["dx_plus_sq"], fine.plus[:, 0], rtol=0, atol=1e-6)
    np.testing.assert_allclose(cols["dp_plus_sq"], fine.plus[:, 1], rtol=0, atol=1e-6)
    e_n = mo.negativities(fine.plus, fine.minus)
    np.testing.assert_allclose(cols["E_N_moments"], e_n, rtol=0, atol=1e-6)


def test_phase_diagram_parallelism_invariant(cfg_file, tmp_path):
    # sweep.parallelism is accepted but ignored and left out of the hash, so
    # whole artifacts, config echo included, are identical
    outs = []
    for par in (1, 2):
        csv = tmp_path / f"pd{par}.csv"
        js = tmp_path / f"pd{par}.json"
        code = main([
            "phase-diagram", cfg_file, "--out", str(csv), "--summary", str(js),
            "--set", f"sweep.parallelism={par}",
        ])
        assert code == 0
        doc = json.loads(js.read_text())
        assert set(doc["summary"]["phase_counts"]) == {"SD", "SDR", "NSD"}
        outs.append((csv.read_bytes(), js.read_bytes()))
    assert outs[0] == outs[1]


def test_phase_diagram_requires_grids(cfg_file, tmp_path):
    code = main([
        "phase-diagram", cfg_file, "--out", str(tmp_path / "x.csv"),
        "--set", "sweep.r_grid=null",
    ])
    assert code == 2


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: position\n")  # spectral.n missing
    assert main(["asymptotics", str(bad)]) == 2
    assert "spectral.n" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    (["evolution.t_max=.inf"], "evolution.t_max"),
    (["spectral.gamma0=.nan"], "spectral.gamma0"),
    (["initial_state.r=.nan"], "initial_state.r"),
    (["initial_state.kind=custom_covariance",
      "initial_state.covariance=[[a,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"],
     "initial_state.covariance"),
], ids=["inf-t_max", "nan-gamma0", "nan-r", "text-covariance"])
def test_non_finite_or_non_numeric_is_config_error(overrides, field, cfg_file, tmp_path, capsys):
    argv = ["negativity-trace", cfg_file, "--out", str(tmp_path / "t.csv")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert field in capsys.readouterr().err


def test_exit_code_refusals(cfg_file, tmp_path, capsys):
    code = main([
        "negativity-trace", cfg_file, "--out", str(tmp_path / "t.csv"),
        "--set", "bath.n_modes=4", "--set", "evolution.t_max=100",
    ])
    assert code == 3
    assert "recurrence" in capsys.readouterr().err
    code = main([
        "validate", cfg_file,
        "--set", "evolution.integrator=rk4", "--set", "evolution.dt=0.02",
    ])
    assert code == 3


def test_validate_passes(cfg_file, capsys):
    assert main(["validate", cfg_file]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "symplecticity" in out


def test_validate_reports_physicality_margin(cfg_file, capsys, monkeypatch):
    from entbath import exact as ex

    argv = ["validate", cfg_file]
    assert main(argv) == 0
    out = capsys.readouterr().out
    line = next(s for s in out.splitlines() if "reduced-state physicality" in s)
    head, _, margin = line.rstrip(")").partition(" samples, min nu-1/2=")
    assert head == "ok: reduced-state physicality (201"
    assert -ex.REDUCED_PHYSICALITY_ATOL <= float(margin) < 1e-6
    # an unphysical channel fails the check instead of passing it
    original = ex.ReducedChannel.blocks
    monkeypatch.setattr(
        ex.ReducedChannel, "blocks", lambda self, v: 0.5 * original(self, v)
    )
    assert main(argv) == 4
    assert "FAIL: reduced-state physicality" in capsys.readouterr().out


def test_hash_mismatch_warning_on_overwrite(cfg_file, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["negativity-trace", cfg_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([
        "negativity-trace", cfg_file, "--out", str(out),
        "--set", "initial_state.r=1.0",
    ]) == 0
    assert "different config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["bath.n_modes", "evolution.sample_stride", "sweep.parallelism"]
)
def test_bool_rejected_for_integer_fields(key):
    cfg = from_dict(dict(BASE))
    apply_override(cfg, f"{key}=true")
    with pytest.raises(ConfigError, match=key):
        validate(cfg)


@pytest.mark.parametrize("command", ["negativity-trace", "moments", "asymptotics"])
def test_unphysical_custom_covariance_is_config_error(command, cfg_file, tmp_path, capsys):
    # oscillator 1 has <x^2><p^2> = 0.01 < 1/4: below the uncertainty bound
    cov = "[[0.1,0,0,0],[0,0.1,0,0],[0,0,0.5,0],[0,0,0,0.5]]"
    argv = [command, cfg_file, "--set", "initial_state.kind=custom_covariance",
            "--set", f"initial_state.covariance={cov}"]
    if command != "asymptotics":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert "initial_state.covariance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["asymptotics", "moments", "phase-diagram"])
def test_plus_mode_at_or_above_cutoff_is_config_error(command, cfg_file, tmp_path, capsys):
    argv = [command, cfg_file, "--set", "system.omega1=25", "--set", "system.omega2=25"]
    if command != "asymptotics":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "system.omega1" in err
    assert "spectral.cutoff" in err


@pytest.mark.parametrize("command", ["asymptotics", "moments", "phase-diagram"])
def test_unstable_minus_mode_is_config_error(command, cfg_file, tmp_path, capsys):
    # c12 = 1.5 > omega^2 leaves the minus oscillator without a real frequency
    argv = [command, cfg_file, "--set", "system.c12=1.5"]
    if command != "asymptotics":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert "system.c12" in capsys.readouterr().err


DETUNED = ["--set", "system.omega1=1.05", "--set", "system.omega2=0.95"]


@pytest.mark.parametrize(
    "command", ["asymptotics", "moments", "phase-diagram", "negativity-trace"]
)
def test_detuned_is_config_error_in_resonant_routes(command, cfg_file, tmp_path, capsys):
    # the closed-form and moment routes treat a bath-free minus mode, which
    # only resonant oscillators have; negativity-trace asks for moments here
    argv = [command, cfg_file, *DETUNED, "--set", "bath.temperature=10"]
    if command != "asymptotics":
        argv += ["--out", str(tmp_path / "out.csv")]
    if command == "negativity-trace":
        argv.append("--with-moments")
    assert main(argv) == 2
    assert "system.omega1/omega2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["moments", "negativity-trace"])
@pytest.mark.parametrize("temperature, code", [("0.3", 4), ("0", 0), ("10", 0)])
def test_moment_route_checks_its_fixed_point(command, temperature, code, cfg_file,
                                             tmp_path, capsys):
    # the coefficients settle at dx+ dp+ = 0.30 < 1/2 at T = 0.3 (the high-T
    # forms at low T), at 0.597 at T = 0 and at 10.06 at T = 10
    out = tmp_path / "out.csv"
    argv = [command, cfg_file, "--set", f"bath.temperature={temperature}", "--out", str(out)]
    if command == "negativity-trace":
        argv.append("--with-moments")
    assert main(argv) == code
    if code:
        err = capsys.readouterr().err
        assert "fixed point has dx+ dp+ = 0.3019 < 1/2" in err
        assert "spectral.n=1, T=0.3" in err
        assert not out.exists()


def test_detuned_trace_leaves_out_asymptotic_column(cfg_file, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["negativity-trace", cfg_file, *DETUNED, "--out", str(out)]) == 0
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header.split(",") == [
        "t", "E_N_exact", "dx_plus_sq", "dp_plus_sq", "dx_minus_sq", "dp_minus_sq"
    ]


def _read_csv(path) -> dict:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    return dict(zip(lines[0].split(","), rows.T))


def test_master_equation_taken_at_omega_plus(cfg_file, tmp_path):
    from entbath import asymptotics as asy
    from entbath.bath import SpectralDensity

    # c12 = 0.2 moves omega+ to sqrt(1.2) while omega1 stays 1
    sets = ["--set", "system.c12=0.2", "--set", "evolution.t_max=150"]
    asy_json, mom_csv = tmp_path / "asy.json", tmp_path / "m.csv"
    assert main(["asymptotics", cfg_file, *sets, "--out", str(asy_json)]) == 0
    assert main(["moments", cfg_file, *sets, "--out", str(mom_csv)]) == 0
    omega_plus = 1.2 ** 0.5
    coeffs = asy.coefficient_limits(SpectralDensity(1.0, 0.1, 20.0), omega_plus, 0.0)
    doc = json.loads(asy_json.read_text())
    assert doc["coefficients"] == pytest.approx(
        {"gamma": coeffs.gamma, "diffusion": coeffs.diffusion,
         "anomalous": coeffs.anomalous}, rel=1e-12
    )
    dx, dp = asy.equilibrium_dispersions_position(coeffs, 1.0, omega_plus)
    cols = _read_csv(mom_csv)
    late = cols["t"] >= 140.0
    np.testing.assert_allclose(cols["dx_plus_sq"][late], dx**2, rtol=1e-6)
    np.testing.assert_allclose(cols["dp_plus_sq"][late], dp**2, rtol=1e-6)


@pytest.mark.xfail(strict=True, reason=(
    "symmetric model: the trace prepares its state at the drift's renormalized "
    "minus mode (m- = 2.17) while its moment column rotates it at system.m = 1"
))
def test_symmetric_trace_moment_column_matches_moments(tmp_path):
    import os

    yaml_path = os.path.join(
        os.path.dirname(__file__), os.pardir, "configs", "symmetric_trace.yaml"
    )
    sets = ["--set", "evolution.t_max=50"]
    trace, moments = tmp_path / "t.csv", tmp_path / "m.csv"
    assert main(["negativity-trace", yaml_path, *sets, "--with-moments",
                 "--out", str(trace)]) == 0
    assert main(["moments", yaml_path, *sets, "--out", str(moments)]) == 0
    a, b = _read_csv(trace), _read_csv(moments)
    np.testing.assert_allclose(a["t"], b["t"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(a["E_N_moments"], b["E_N_moments"], rtol=0, atol=1e-9)


@pytest.mark.parametrize("command", ["phase-diagram", "asymptotics"])
def test_scenario_builds_one_fdt_rule_per_op(command, tmp_path, monkeypatch):
    # T enters the FDT rule only through coth: the cells, r1/r2 and every
    # step of the T0 bisection reweight one rule, built at one resonance
    import os

    from entbath import asymptotics as asy

    calls = []
    resonance = asy._resonance
    monkeypatch.setattr(asy, "_resonance", lambda *a: calls.append(a) or resonance(*a))
    yaml_path = os.path.join(
        os.path.dirname(__file__), os.pardir, "configs", "ohmic_trace.yaml"
    )
    argv = [command, yaml_path, "--out", str(tmp_path / "out")]
    if command == "phase-diagram":
        argv += ["--summary", str(tmp_path / "summary.json")]
    assert main(argv) == 0
    assert len(calls) == 1


CUSTOM_STATES = ([0.5, 0.5, 0.5, 0.5], [3.0, 0.1, 3.0, 0.1])


def _custom_overrides(diagonal):
    cov = [[diagonal[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    return ["initial_state.kind=custom_covariance",
            f"initial_state.covariance={json.dumps(cov)}"]


def test_asymptotics_reads_custom_covariance(cfg_file, tmp_path):
    from entbath import asymptotics as asy
    from entbath.scenario import Scenario, minus_mode_readout

    docs = []
    for diagonal in CUSTOM_STATES:
        overrides = _custom_overrides(diagonal)
        out = tmp_path / "asy.json"
        argv = ["asymptotics", cfg_file, "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        doc = json.loads(out.read_text())

        cfg = load_config(cfg_file, overrides)
        scenario = Scenario(cfg)
        m_plus, m_minus, omega_minus = scenario.route_scales()
        v_sys = scenario.initial_state(m_minus, omega_minus)
        r, _, block = minus_mode_readout(v_sys, m_minus, omega_minus)
        dx_p, dp_p = scenario.plus_equilibrium(cfg.bath.temperature, m_plus)
        cp = asy.critical_params(dx_p, dp_p, block[0, 0] ** 0.5, block[1, 1] ** 0.5,
                                 m_minus, omega_minus)
        assert doc["r_crit"] == pytest.approx(cp.r_crit, rel=1e-12)
        assert doc["s_crit"] == pytest.approx(cp.s_crit, rel=1e-12)
        assert doc["phase"] == asy.classify(r, cp.r_crit, cp.s_crit).value
        docs.append(doc)
    assert docs[0]["s_crit"] != pytest.approx(docs[1]["s_crit"], rel=1e-3)


def test_phase_diagram_refuses_custom_covariance(cfg_file, tmp_path, capsys):
    argv = ["phase-diagram", cfg_file, "--out", str(tmp_path / "pd.csv")]
    for item in _custom_overrides(CUSTOM_STATES[1]):
        argv += ["--set", item]
    assert main(argv) == 2
    assert "custom_covariance" in capsys.readouterr().err


def test_import_leaves_scipy_unloaded():
    import os
    import subprocess
    import sys

    import entbath

    src = os.path.dirname(os.path.dirname(os.path.abspath(entbath.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, entbath, entbath.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('multiprocessing', 'concurrent.futures')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True, env=env)
    assert done.stdout.split() == ["[]", "[]"]
