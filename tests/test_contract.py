"""The CLI's exit-code contract, property-tested in process.

Every subcommand, on both shipped configs, under 1-4 ``--set`` overrides
drawn from edge values of every field: the exit code is 0, 2, 3 or 4; a
nonzero exit ends stderr with its named kind of refusal; a success writes
only finite numbers and no negative E_N.  A warning is an error here, as
everywhere in the suite.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbath.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
COMMANDS = [["negativity-trace"], ["negativity-trace", "--with-moments"], ["phase-diagram"],
            ["moments"], ["asymptotics"], ["validate"]]
REFUSALS = ("config error:", "refused:", "numerical failure:")
# YAML values at and past the edges of each field; bath.n_modes stays at
# most 400 and t_max at most 40 (with an absurd 1e300), so a bath stays small
EDGES = {
    "model": ["position", "symmetric", "bogus"],
    "spectral.n": ["1", "0.5", "3", "2", "0", "-1", ".nan"],
    "spectral.gamma0": ["0.1", "5", "1.0e-12", "1.0e+3", "0", "-0.1", ".inf"],
    "spectral.cutoff": ["20", "60", "1.5", "1.0", "0.5", "1.0e-3", ".inf"],
    "system.m": ["1", "0.01", "100", "0", "-1"],
    "system.omega1": ["1", "0.01", "1.05", "25", "0"],
    "system.omega2": ["1", "0.95", "25", "-1"],
    "system.c12": ["0", "0.2", "-0.2", "0.5", "-0.5", "1.5"],
    "system.c12_tilde": ["0", "0.1", "0.2", "-0.5", "1.5"],
    "bath.temperature": ["0", "1.0e-3", "0.3", "10", "1.0e+4", "-1", ".nan"],
    "bath.n_modes": ["1", "2", "48", "400", "0", "true", "1.5"],
    "initial_state.kind": ["two_mode_squeezed", "separable_squeezed", "coherent",
                           "custom_covariance", "bogus"],
    "initial_state.r": ["0", "1.0e-9", "-1.5", "6", "20", "-25", "25", "355", ".nan"],
    "initial_state.purity_product": ["0.5", "0.49", "1000", "1.0e+8", ".inf"],
    "initial_state.covariance": [
        "[[0.5,0,0,0],[0,0.5,0,0],[0,0,0.5,0],[0,0,0,0.5]]",
        "[[4,0,0,0],[0,0.0625,0,0],[0,0,0.5,0],[0,0,0,0.5]]",
        "[[1,0,0.9,0],[0,1,0,-0.9],[0.9,0,1,0],[0,-0.9,0,1]]",
        "[[0.1,0,0,0],[0,0.1,0,0],[0,0,0.5,0],[0,0,0,0.5]]",
        "[[1,2,0,0],[2,1,0,0],[0,0,1,0],[0,0,0,1]]",
        "[[1,2]]", "null",
    ],
    "evolution.dt": ["0.02", "0.005", "1.0e-6", "0.3", "5", "1.0e+299", "0", "-0.1"],
    "evolution.t_max": ["0.01", "0.02", "0.3", "40", "1.0e+300", "0", ".inf"],
    "evolution.sample_stride": ["1", "3", "1000", "0", "true"],
    "sweep.r_grid": ["[0.1, 2.0]", "[]", "[0]", "[-25, 25]", "[400]", "null"],
    "sweep.t_grid": ["[0]", "[0, 0.3, 10]", "[-1]", "[1.0e+4]", "null"],
    "sweep.parallelism": ["1", "2", "0", "true"],
}
# calls that once broke the contract, with the exit code each now gives
# (None: any the contract allows)
OVERRIDES = [
    # D < 0 below cutoff = e^(1/2) omega+: a ValueError traceback
    (["moments"], "ohmic_trace", ["spectral.cutoff=1.5", "spectral.gamma0=5"], 4),
    (["negativity-trace", "--with-moments"], "ohmic_trace",
     ["spectral.cutoff=1.5", "spectral.gamma0=5"], 4),
    # a mixed state failed the absolute rk4 check; at 1e8 the purity drift
    # read nan (it is finite now, and still above its bound)
    (["validate"], "ohmic_trace", ["initial_state.purity_product=1000"], 0),
    (["validate"], "ohmic_trace", ["initial_state.purity_product=1.0e+8"], None),
    # modes_for_window counted down from N ~ 4e300 one mode at a time
    (["negativity-trace"], "ohmic_trace",
     ["evolution.t_max=1.0e+300", "evolution.dt=1.0e+299"], 2),
    # a sample grid of 5e300 (a ValueError traceback) or 1.5e10 points
    (["moments"], "ohmic_trace", ["evolution.t_max=1.0e+300"], 2),
    (["negativity-trace"], "symmetric_trace", ["evolution.dt=1.0e-9"], 2),
    # 1e302 RK4 steps of the moment route
    (["moments"], "symmetric_trace", ["evolution.t_max=1.0e+300", "evolution.dt=1.0e+299"], 2),
]


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _check_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    for row in lines[1:]:
        for name, cell in zip(names, row.split(","), strict=True):
            if name == "phase":
                assert cell in ("SD", "SDR", "NSD"), cell
                continue
            value = float(cell)
            assert math.isfinite(value), (name, cell)
            assert not name.startswith("E_N") or value >= 0.0, (name, cell)


def _run(command, name, sets):
    """``main`` on one call; checks the contract and returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        csv, doc = os.path.join(tmp, "out.csv"), os.path.join(tmp, "out.json")
        argv = [*command, os.path.join(CONFIG_DIR, f"{name}.yaml")]
        argv += {"negativity-trace": ["--out", csv], "moments": ["--out", csv],
                 "phase-diagram": ["--out", csv, "--summary", doc],
                 "asymptotics": ["--out", doc]}.get(command[0], [])
        for item in sets:
            argv += ["--set", item]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        if code:
            lines = err.getvalue().splitlines()
            assert lines and lines[-1].startswith(REFUSALS), (argv, err.getvalue())
            return code
        if csv in argv:
            _check_csv(csv)
        if doc in argv:
            with open(doc, encoding="utf-8") as fh:
                assert all(math.isfinite(x) for x in _numbers(json.load(fh))), argv
        return code


@st.composite
def calls(draw):
    command = draw(st.sampled_from(COMMANDS))
    name = draw(st.sampled_from(["ohmic_trace", "symmetric_trace"]))
    keys = draw(st.lists(st.sampled_from(sorted(EDGES)), min_size=1, max_size=4, unique=True))
    sets = [f"{key}={draw(st.sampled_from(EDGES[key]))}" for key in keys]
    if not {"evolution.t_max", "bath.n_modes"} & set(keys):
        sets.insert(0, "evolution.t_max=20")
    return command, name, sets


@given(calls())
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_every_call_keeps_the_exit_code_contract(call):
    _run(*call)


@pytest.mark.parametrize("command, name, sets, code", OVERRIDES)
def test_calls_that_broke_the_contract_keep_it(command, name, sets, code):
    assert _run(command, name, sets) == code or code is None
