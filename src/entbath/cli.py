"""Command-line front end: traces, phase diagrams, asymptotics, validation.

Subcommands: negativity-trace, phase-diagram, moments, asymptotics, validate.
Each one asks ``entbath.scenario.Scenario`` for its columns or payload and
writes them.  All outputs are CSV/JSON; every artifact embeds the config
echo and its sha256 hash.  Exit codes: 0 success, 2 config error (an
output path that cannot be opened for writing included), 3 physics refusal
(recurrence window / unstable Hamiltonian / step size), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .config import RunConfig, canonical_json, json_hash, load_config
from .errors import (
    ConfigError,
    NumericalError,
    RecurrenceWindowError,
    StepSizeError,
    UnphysicalStateError,
    UnstableHamiltonianError,
)
from .scenario import PHASE_COLUMNS, Scenario

EXIT_CONFIG = 2
EXIT_REFUSAL = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _echo(cfg: RunConfig) -> tuple[str, str]:
    """The config's canonical JSON and its sha256, computed once per artifact."""
    canonical = canonical_json(cfg)
    return canonical, json_hash(canonical)


def _warn_on_hash_change(path: str | None, digest: str) -> None:
    if path is None or not os.path.exists(path):
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(4096)
    except (OSError, UnicodeDecodeError):  # unreadable or not text: no artifact
        return
    if "config_sha256" in head and digest not in head:
        print(
            f"warning: overwriting {path} produced by a different config",
            file=sys.stderr,
        )


def _cells(column):
    """One CSV column: strings as given, numbers as shortest round-trip floats."""
    if len(column) and isinstance(column[0], str):
        return column
    return map(repr, np.asarray(column, dtype=float).tolist())


def _write(path: str, text: str, option: str) -> None:
    """Write ``text`` to ``path``, refusing a path that cannot be opened for
    writing as a config error of ``option``."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as err:
        raise ConfigError(f"{option}: cannot write {path} ({err.strerror})") from err
    with fh:
        fh.write(text)


def write_csv(path: str, cfg: RunConfig, names: list[str], columns: list) -> None:
    """Deterministic CSV: shortest round-trip floats, config echo header."""
    canonical, digest = _echo(cfg)
    _warn_on_hash_change(path, digest)
    lines = [
        f"# entbath {__version__}",
        f"# config_sha256 {digest}",
        f"# config {canonical}",
        ",".join(names),
        *map(",".join, zip(*map(_cells, columns))),
    ]
    _write(path, "\n".join(lines) + "\n", "--out")


def write_json(path: str | None, cfg: RunConfig, payload: dict, option: str = "--out") -> None:
    canonical, digest = _echo(cfg)
    _warn_on_hash_change(path, digest)
    doc = {
        "artifact_version": __version__,
        "config_sha256": digest,
        "config": json.loads(canonical),
        **payload,
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write(path, text, option)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_negativity_trace(cfg: RunConfig, out: str, with_moments: bool) -> int:
    write_csv(out, cfg, *Scenario(cfg).negativity_trace(with_moments))
    return 0


def cmd_moments(cfg: RunConfig, out: str) -> int:
    write_csv(out, cfg, *Scenario(cfg).moments())
    return 0


def cmd_phase_diagram(cfg: RunConfig, out: str, summary_out: str | None) -> int:
    rows, summary = Scenario(cfg).phase_diagram()
    write_csv(out, cfg, PHASE_COLUMNS, [[row[k] for row in rows] for k in PHASE_COLUMNS])
    write_json(summary_out, cfg, {"summary": summary}, option="--summary")
    return 0


def cmd_asymptotics(cfg: RunConfig, out: str | None) -> int:
    write_json(out, cfg, Scenario(cfg).asymptotics())
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    """Invariant suite on a downsized copy of the config."""
    ok = True
    for name, passed, detail in Scenario(cfg).validate():
        print(f"{'ok' if passed else 'FAIL'}: {name} ({detail})")
        ok = ok and passed
    if not ok:
        raise NumericalError("validation checks failed")
    print("validate: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on a process's first ``main`` and reused."""
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
