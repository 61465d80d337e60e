"""Command line entry point: ``uq <experiment> --config <file> --out <dir>``.

Experiments: converge, rates, lds, reference, compare.  Configs are JSON;
omitted keys get documented defaults and ``--full-scale`` switches to the
paper-scale defaults.  Exit codes: 0 success, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .fem import AssemblyError, SolverError
from .harness import (
    OUT_ROOT,
    CompareConfig,
    ConfigError,
    ConvergeConfig,
    LdsConfig,
    NumericalError,
    RatesConfig,
    ReferenceConfig,
    cmd_compare,
    cmd_converge,
    cmd_lds,
    cmd_rates,
    cmd_reference,
)

_COMMANDS = {
    "converge": (ConvergeConfig, cmd_converge),
    "rates": (RatesConfig, cmd_rates),
    "lds": (LdsConfig, cmd_lds),
    "reference": (ReferenceConfig, cmd_reference),
    "compare": (CompareConfig, cmd_compare),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uq",
        description="Estimator experiments for the random jump-diffusion problem",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        p.add_argument("--out", default=None,
                       help=f"output directory (default {OUT_ROOT}/<experiment>)")
        p.add_argument("--full-scale", action="store_true",
                       help="use the paper-scale defaults instead of the desk-scale ones")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cls, command = _COMMANDS[args.experiment]
    out_dir = Path(args.out) if args.out else Path(OUT_ROOT) / args.experiment
    # the output directory is made before the run, so that a path that cannot
    # be one fails at once; a failed run removes what it made while empty
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    try:
        config = cls.from_dict(_load_config(args.config), full_scale=args.full_scale)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        command(config, out_dir)
    except (ConfigError, NumericalError, SolverError, AssemblyError) as exc:
        with contextlib.suppress(OSError):      # stops at a directory that is not empty
            for path in created:
                path.rmdir()
        if isinstance(exc, ConfigError):
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{args.experiment}: results written to {out_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
