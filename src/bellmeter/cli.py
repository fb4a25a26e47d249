"""Command-line interface: reproduce each figure of the study as a data file.

Subcommands: `discriminate` (success-probability sweep), `multimeter`
(inconclusive-rate sweep), `hom-scan` (mirror scan through the dip) and
`analyze` (offline re-estimation from raw count columns).  Each has a
builder that imports only the modules it runs (`analyze` loads no optics)
and returns its column records (counts.Column), their blocks, sidecar keys
and summary suffix to run_command, which writes each block before the
next one is made and the sidecar after the last, so a key may depend on the
rows (`hom-scan`'s fit).
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import functools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NoReturn

import numpy as np

from .counts import (
    COUNT_COLUMNS,
    Column,
    DiscriminationPoint,
    Estimates,
    MultimeterPoint,
    estimate_table,
    first_bad_count,
    sweep_header,
)
from .dataset import TableReader, read_json, write_table
from .errors import SchemaViolationError

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

# most points a sweep grid may have, checked before the grid is built
_MAX_GRID_POINTS = 10**6

# _round_9 rounds a grid to 9 decimals in chunks of this many points, so its temporaries stay small
_ROUND_CHUNK = 2**14

# what a builder returns: the dataset columns, their blocks, the command's sidecar keys and a
# function giving the summary suffix once all is written
_Built = tuple[list[Column], Iterable, dict, Callable[[], str]]

# the columns `analyze` carries over, as the text that was read: the sweeps' coordinates
_COORD_COLUMNS = [
    c for c in sweep_header(DiscriminationPoint) + sweep_header(MultimeterPoint) if c.kind == "coordinate"
]
_ESTIMATE_COLUMNS = [Column(name, "derived") for name in Estimates._fields]


def _parse_float_list(text: str, flag: str = "list") -> np.ndarray:
    """Parse a comma list of numbers into a float64 array; each number x has the bits of the range x:x:1.

    ValueError naming `flag` if the list holds no number.
    """
    values = [_grid_number(part, flag, text) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise ValueError(f"{flag} gives no points")
    return _round_9(np.array(values, dtype=float) + 0.0)  # x + 0.0 is a range's start + 0 * step: -0 is 0.0


def _parse_range(text: str, flag: str = "range") -> np.ndarray:
    """Parse 'start:stop:step' with an inclusive stop into a float64 array; a bare number x is x:x:1.

    ValueError naming `flag` if the range has no point, as a descending one.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"expected 'start:stop:step', got {text!r}")
    values = [_grid_number(p, flag, text) for p in parts]
    if len(values) == 1:
        values += [values[0], 1.0]
    start, stop, step = values
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    span = (stop - start) / step + 1e-9  # in float, so a huge span is inf, not an error
    if not span < _MAX_GRID_POINTS:
        raise ValueError(f"range {text!r} has more than _MAX_GRID_POINTS = {_MAX_GRID_POINTS} points")
    count = math.floor(max(span, -1.0)) + 1  # no point for a descending range, whose span may be -inf
    if count == 0:
        raise ValueError(f"{flag} gives no points")
    points = np.arange(count, dtype=float)
    points *= step
    points += start  # the bits of start + i * step in Python floats
    _round_9(points)
    if np.any(points[:-1] >= points[1:]):
        raise ValueError(f"range {text!r} repeats points once they are rounded to 9 decimals")
    return points


def _grid_number(item: str, flag: str, text: str) -> float:
    """`item` of the grid flag value `text` as a float; ValueError naming the three unless it is a finite number."""
    try:
        if math.isfinite(value := float(item)):
            return value
    except ValueError:
        pass
    raise ValueError(f"{flag} {text!r}: item {item!r} is not a finite number")


def _round_9(values: np.ndarray) -> np.ndarray:
    """Round `values` in place to 9 decimals exactly as round(v, 9) does, and return them.

    round(v, 9) is the float nearest to k / 1e9, where k is the exact
    |v| * 1e9 rounded to an integer, ties to even, with the sign of v.
    With hi = fl(|v| * 1e9), k is rint(hi) when 0.5 - |hi - rint(hi)| >
    spacing(hi) / 2, and v becomes copysign(rint(hi) / 1e9, v), one
    correctly rounded division:
    - hi lies within half an ulp of the exact product, subnormal or not;
    - hi - rint(hi) is exact, so where the test holds the product rounds as hi does;
    - once hi has an ulp of 1 or more, the test fails, as on an overflow's NaN.
    Every other value goes through round() itself, but for the integers
    beyond 2^52, which it keeps.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a huge |v| * 1e9 overflows, and inf - inf is NaN
        for start in range(0, len(values), _ROUND_CHUNK):
            chunk = values[start : start + _ROUND_CHUNK]
            mag = np.abs(chunk)
            hi = mag * 1e9
            k = np.rint(hi)
            clear = 0.5 - np.abs(hi - k) > 0.5 * np.spacing(hi)  # clear of a tie
            rest = ~clear & (mag < 2.0**52)  # a float of |v| >= 2^52 is an integer, which round() keeps
            np.copysign(np.divide(k, 1e9, out=k), chunk, out=chunk, where=clear)
            if rest.any():
                chunk[rest] = [round(v, 9) for v in chunk[rest].tolist()]
    return values


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config drawn at: --seed and each --config value checked by its field's rule, then --ideal and --seed
    set and the joint rules run once at pair_rate 0 (config_from_dict; the worst-case mean only grows with the
    rate), then the rate set from --pairs (with_pairs_per_point).  Only an error of the file's values names it."""
    from .experiment import ExperimentConfig, check_fields, config_from_dict, with_pairs_per_point

    seed = {} if args.seed is None else {"seed": args.seed}
    check_fields(ExperimentConfig, seed)  # before the merge, so that its error does not name the file
    path = Path(args.config) if args.config else None
    data = read_json(path) if path else {}
    try:
        config = config_from_dict(data, args.ideal, pair_rate=0.0, **seed)
    except ValueError as exc:  # of the same type, naming the file as read_json does
        raise type(exc)(f"{path}: {exc}") from None
    return with_pairs_per_point(config, args.pairs)


def _simulation_keys(config: ExperimentConfig) -> dict:
    from .experiment import config_to_dict

    return {"seed": config.seed, "config": config_to_dict(config)}


def build_discriminate(args: argparse.Namespace) -> _Built:
    from .discriminator import discriminator_blocks
    from .polarization import discriminator_sums_are_finite

    config = _load_config(args)
    epsilons, thetas = _parse_float_list(args.epsilon, "--epsilon"), _parse_range(args.theta_range, "--theta-range")
    if len(epsilons) * len(thetas) > _MAX_GRID_POINTS:
        raise ValueError(f"the epsilon x theta grid has more than _MAX_GRID_POINTS = {_MAX_GRID_POINTS} points")
    if not discriminator_sums_are_finite(epsilons, thetas):
        raise ValueError("--epsilon + --theta-range overflows the half-wave plate angle")
    keys = {
        "task": "discriminator",
        "pairs_per_point": args.pairs,
        **_simulation_keys(config),
    }
    blocks = discriminator_blocks(epsilons, thetas, config)
    return sweep_header(DiscriminationPoint), blocks, keys, lambda: ""


def build_multimeter(args: argparse.Namespace) -> _Built:
    from .experiment import check_eta
    from .multimeter import multimeter_blocks

    config = _load_config(args)
    eta = round(float(check_eta(args.eta)) + 0.0, 9)  # a bare grid number, rounded once it is in bounds
    keys = {
        "task": "multimeter",
        "pairs_per_point": args.pairs,
        "eta": eta,
        **_simulation_keys(config),
    }
    blocks = multimeter_blocks(_parse_range(args.phi_range, "--phi-range"), eta, config)
    return sweep_header(MultimeterPoint), blocks, keys, lambda: ""


def build_hom_scan(args: argparse.Namespace) -> _Built:
    from .experiment import HOM_SCAN_COLUMNS, hom_scan_blocks

    config = _load_config(args)
    positions = (_parse_range(args.range, "--range") if args.positions is None
                 else _parse_float_list(args.positions, "--positions"))
    keys = _simulation_keys(config)
    blocks = hom_scan_blocks(positions, config, keys)

    def summary() -> str:
        vis = keys["fitted_visibility"]
        return f" (fitted visibility {'n/a' if vis is None else f'{vis:.4f}'})"

    return list(HOM_SCAN_COLUMNS), blocks, keys, summary


def build_analyze(args: argparse.Namespace) -> _Built:
    if args.out and os.path.exists(args.out) and os.path.samefile(args.input, args.out):
        raise ValueError(f"{args.out}: --out names the input {args.input}, which analyze would replace")
    table = TableReader(args.input)
    for column in COUNT_COLUMNS:
        if column not in table.columns:
            raise SchemaViolationError(f"{args.input}: input dataset is missing required column {column!r}")
    coordinates = [c for c in _COORD_COLUMNS if c.name in table.columns]
    nan_rows = np.zeros(len(Estimates._fields), dtype=np.int64)

    def blocks() -> Iterator[list]:
        read = False
        for block in table.blocks(COUNT_COLUMNS, [c.name for c in coordinates]):
            counts, cells = block[: len(COUNT_COLUMNS)], block[len(COUNT_COLUMNS) :]
            bad = first_bad_count(counts)
            if bad is not None:  # named by its file, line and column, as the reader names a cell
                raise ValueError(f"{table.cell(*bad)} is not a nonnegative integer below 2**63")
            estimates = estimate_table(np.array(counts, dtype=np.float64).T)
            nan_rows[:] += np.isnan(estimates).sum(axis=0)
            read = True
            yield cells + list(estimates.T)
        if not read:  # raised before the output is put in place, so none is written
            raise ValueError(f"{args.input} holds no data row")

    def summary() -> str:
        return f" (NaN rows: {', '.join(f'{name} {n}' for name, n in zip(Estimates._fields, nan_rows))})"

    return coordinates + _ESTIMATE_COLUMNS, blocks(), {"input": str(args.input)}, summary


def run_command(args: argparse.Namespace) -> int:
    """Write the dataset of the subcommand's builder to --out, or its TSV to stdout; the exit code.

    A builder returns the dataset columns (counts.Column records, whose
    kinds set the text of their cells), an iterable of column blocks, its
    command's sidecar keys (a dict it may fill while the blocks are made, so
    `command` and `argv` are added to it, not to a copy) and a function
    giving the summary suffix once every block is written.  Each block is
    written before the next one is made (dataset.write_table), so a failing
    command leaves no output.  An empty --out (`analyze` without one, or
    `--out=`) writes the TSV to stdout; with --out, stdout gets the summary
    line once the file is in place.  Either goes through _write_to, with one
    rule for a stdout that cannot take it, for every command: a pipe whose
    reader has gone (`| head`) gives exit code 1 quietly; any other OSError,
    as of a full device or of a stdout closed when the process started, is
    raised for main() to print as one error line.
    """
    columns, blocks, keys, summary = args.build(args)
    keys.update(command=args.command, argv=args.argv)
    if args.out:
        rows = write_table(Path(args.out), columns, blocks, keys)
        write = functools.partial(print, f"wrote {rows} rows to {args.out}{summary()}")
    else:
        write = functools.partial(write_table, None, columns, blocks, keys)
    try:
        _write_to("stdout", write)
    except BrokenPipeError:
        return 1
    return 0


def _write_to(name: str, write: Callable[[], object]) -> None:
    """Call `write`, which writes to sys.<name> ("stdout" or "stderr"), and flush that stream.

    An OSError of `write` or of the flush is raised, and so is EBADF for a
    stream closed when the process started (None), before `write` runs.  The
    text a stream could not take is dropped, as in Python's signal docs, by
    pointing its descriptor at devnull, so no later flush (run()'s) fails on it.
    """
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), f"<{name}>")
    try:
        write()
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellmeter",
        description="Simulate programmable polarization measurements on a partial Bell analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, default=None, help="master random seed (overrides config)")
        p.add_argument("--ideal", action="store_true", help="switch off every imperfection")
        p.add_argument("--pairs", type=float, default=100_000,
                       help="expected photon pairs per input setting and sweep point")

    p_disc = sub.add_parser("discriminate", help="success-probability sweep of the discriminator")
    add_common(p_disc)
    p_disc.add_argument("--epsilon", default="0,12,24,36", help="comma list of ellipticities (deg)")
    p_disc.add_argument("--theta-range", default="0:90:4", help="axis-angle grid start:stop:step (deg)")
    p_disc.add_argument("--out", default="discriminate.tsv", help="output dataset path")
    p_disc.set_defaults(build=build_discriminate)

    p_multi = sub.add_parser("multimeter", help="inconclusive-rate sweep of the multimeter")
    add_common(p_multi)
    p_multi.add_argument("--phi-range", default="-90:90:8", help="basis-phase grid start:stop:step (deg)")
    p_multi.add_argument("--eta", type=float, default=1.0, help="POVM parameter in [0, 1]")
    p_multi.add_argument("--out", default="multimeter.tsv", help="output dataset path")
    p_multi.set_defaults(build=build_multimeter)

    p_hom = sub.add_parser("hom-scan", help="coincidence rates vs mirror position")
    add_common(p_hom)
    grid = p_hom.add_mutually_exclusive_group()
    grid.add_argument("--positions", default=None, help="comma list of mirror positions (um)")
    grid.add_argument("--range", default="-200:200:10", help="position grid start:stop:step (um)")
    p_hom.add_argument("--out", default="hom_scan.tsv", help="output dataset path")
    p_hom.set_defaults(build=build_hom_scan)

    p_an = sub.add_parser("analyze", help="recompute estimators from a raw-count dataset")
    p_an.add_argument("input", help="dataset file with the eight count columns")
    p_an.add_argument("--out", default=None, help="output path (default: print to stdout)")
    p_an.set_defaults(build=build_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return run_command(args)
    except (ValueError, OSError) as exc:
        # a stderr that cannot take the line loses it; print(file=None) would write it to stdout
        with contextlib.suppress(OSError):
            _write_to("stderr", lambda: print(f"error: {exc}", file=sys.stderr))
        return 1


def run() -> NoReturn:
    """Exit the process with main()'s code: the entry of `bellmeter` and `python -m bellmeter.cli`.

    Once main() returns, its dataset is in place and its output flushed
    (run_command), and of the interpreter's shutdown only its first steps
    remain to be done: the atexit handlers and the flush of what they wrote.
    The rest, which frees every module and object (about 40 ms on a 2-vCPU
    Xeon once the sweep modules are loaded), os._exit skips, as
    multiprocessing ends its forked children.  SystemExit (a usage error,
    --help) and any other exception of main() propagate unchanged.  Callers
    that stay in the process call main(argv).
    """
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process was started with that descriptor closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
