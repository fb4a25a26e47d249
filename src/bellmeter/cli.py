"""Command-line interface: reproduce each figure of the study as a data file.

Subcommands: `discriminate` (success-probability sweep), `multimeter`
(inconclusive-rate sweep), `hom-scan` (mirror scan through the dip) and
`analyze` (offline re-estimation from raw count columns).  Each handler
imports the modules it runs, so `analyze` loads no optics.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .counts import COUNT_COLUMNS, DiscriminationPoint, Estimates, MultimeterPoint, count_table, estimate_table
from .dataset import Dataset
from .errors import SchemaViolationError

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

# most points a sweep grid may have, checked before the grid is built
_MAX_GRID_POINTS = 10**6

_COORD_COLUMNS = [
    f.name for f in fields(DiscriminationPoint) + fields(MultimeterPoint) if f.metadata.get("grid")
]


def _parse_float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip() != ""]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"list values must be finite, got {text!r}")
    return values


def _parse_range(text: str) -> list[float]:
    """Parse 'start:stop:step' with an inclusive stop; a bare number is a single point."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"expected 'start:stop:step', got {text!r}")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"range bounds and step must be finite, got {text!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    span = (stop - start) / step + 1e-9  # in float, so a huge span is inf, not an error
    if not span < _MAX_GRID_POINTS:
        raise ValueError(f"range {text!r} has more than _MAX_GRID_POINTS = {_MAX_GRID_POINTS} points")
    count = math.floor(span) + 1
    return [round(start + i * step, 9) for i in range(count)]


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    from .experiment import ExperimentConfig, config_from_dict, with_pairs_per_point

    if args.config:
        data = json.loads(Path(args.config).read_text())
        config = config_from_dict(data)
    else:
        config = ExperimentConfig()
    if getattr(args, "ideal", False):
        config = config.idealized()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return with_pairs_per_point(config, args.pairs)


def cmd_sweep(args: argparse.Namespace) -> int:
    """`discriminate` and `multimeter`: run the task's sweep and write its dataset.

    The columns are those of the task's sweep (counts.sweep_columns).
    Estimates the counts of a point leave undefined are NaN; an empty grid
    gives an empty dataset.
    """
    from .experiment import config_to_dict

    config = _load_config(args)
    metadata = {
        "command": args.command,
        "argv": _recorded_argv(args),
        "task": args.task,
        "seed": config.seed,
        "pairs_per_point": args.pairs,
        "config": config_to_dict(config),
    }
    if args.task == "discriminator":
        from .discriminator import discriminator_columns

        epsilons, thetas = _parse_float_list(args.epsilon), _parse_range(args.theta_range)
        if len(epsilons) * len(thetas) > _MAX_GRID_POINTS:
            raise ValueError(f"the epsilon x theta grid has more than _MAX_GRID_POINTS = {_MAX_GRID_POINTS} points")
        columns = discriminator_columns(epsilons, thetas, config)
    else:
        from .multimeter import multimeter_columns

        columns = multimeter_columns(_parse_range(args.phi_range), args.eta, config)
        metadata["eta"] = args.eta
    dataset = Dataset(list(columns), list(columns.values()), metadata)
    dataset.write(args.out)
    print(f"wrote {len(dataset)} rows to {args.out}")
    return 0


def cmd_hom_scan(args: argparse.Namespace) -> int:
    from .experiment import config_to_dict, hom_scan

    config = _load_config(args)
    if args.positions is not None:
        positions = _parse_float_list(args.positions)
    else:
        positions = _parse_range(args.range)
    result = hom_scan(positions, config)
    rates = [result.rate_pp, result.rate_mp, result.rate_pm, result.rate_mm]
    dataset = Dataset(
        ["position", "rate_pp", "rate_mp", "rate_pm", "rate_mm"],
        [result.positions, *rates],
        metadata={
            "command": "hom-scan",
            "argv": _recorded_argv(args),
            "seed": config.seed,
            "config": config_to_dict(config),
            "fitted_visibility": result.visibility,
            "curve_visibilities": list(result.curve_visibilities),
        },
    )
    dataset.write(args.out)
    vis = "n/a" if result.visibility is None else f"{result.visibility:.4f}"
    print(f"wrote {len(dataset)} rows to {args.out} (fitted visibility {vis})")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    dataset = Dataset.read(args.input)
    for column in COUNT_COLUMNS:
        if column not in dataset.columns:
            raise SchemaViolationError(f"input dataset is missing required column {column!r}")
    estimates = estimate_table(count_table({name: dataset.column(name) for name in COUNT_COLUMNS}))
    coord_columns = [c for c in _COORD_COLUMNS if c in dataset.columns]
    out = Dataset(
        coord_columns + list(Estimates._fields),
        [dataset.column(c) for c in coord_columns] + list(estimates.T),
        metadata={"command": "analyze", "argv": _recorded_argv(args), "input": str(args.input)},
    )
    if args.out:
        out.write(args.out)
        nan_rows = ", ".join(
            f"{name} {n}" for name, n in zip(Estimates._fields, np.isnan(estimates).sum(axis=0))
        )
        print(f"wrote {len(out)} rows to {args.out} (NaN rows: {nan_rows})")
    else:
        try:
            sys.stdout.writelines(out.tsv())
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (`| head`); the pattern of Python's
            # signal docs: stdout goes to devnull, so the interpreter's last
            # flush cannot fail again, and the command exits quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return 0


def _recorded_argv(args: argparse.Namespace) -> list[str]:
    return list(getattr(args, "_argv", []))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellmeter",
        description="Simulate programmable polarization measurements on a partial Bell analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, pairs_default: int = 100_000):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, default=None, help="master random seed (overrides config)")
        p.add_argument("--ideal", action="store_true", help="switch off every imperfection")
        p.add_argument("--pairs", type=float, default=pairs_default,
                       help="expected photon pairs per input setting and sweep point")

    p_disc = sub.add_parser("discriminate", help="success-probability sweep of the discriminator")
    add_common(p_disc)
    p_disc.add_argument("--epsilon", default="0,12,24,36", help="comma list of ellipticities (deg)")
    p_disc.add_argument("--theta-range", default="0:90:4", help="axis-angle grid start:stop:step (deg)")
    p_disc.add_argument("--out", default="discriminate.tsv", help="output dataset path")
    p_disc.set_defaults(func=cmd_sweep, task="discriminator")

    p_multi = sub.add_parser("multimeter", help="inconclusive-rate sweep of the multimeter")
    add_common(p_multi)
    p_multi.add_argument("--phi-range", default="-90:90:8", help="basis-phase grid start:stop:step (deg)")
    p_multi.add_argument("--eta", type=float, default=1.0, help="POVM parameter in [0, 1]")
    p_multi.add_argument("--out", default="multimeter.tsv", help="output dataset path")
    p_multi.set_defaults(func=cmd_sweep, task="multimeter")

    p_hom = sub.add_parser("hom-scan", help="coincidence rates vs mirror position")
    add_common(p_hom)
    p_hom.add_argument("--positions", default=None, help="comma list of mirror positions (um)")
    p_hom.add_argument("--range", default="-200:200:10", help="position grid start:stop:step (um)")
    p_hom.add_argument("--out", default="hom_scan.tsv", help="output dataset path")
    p_hom.set_defaults(func=cmd_hom_scan)

    p_an = sub.add_parser("analyze", help="recompute estimators from a raw-count dataset")
    p_an.add_argument("input", help="dataset file with the eight count columns")
    p_an.add_argument("--out", default=None, help="output path (default: print to stdout)")
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
