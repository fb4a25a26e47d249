"""Coincidence counts, the estimators read from them, and the sweeps' row schemas.

The devices are read only through coincidence counts: the success
probability and the inconclusive rate are counts normalized by the shoulder
counts.  So this count core needs none of the optics, and it sits below
them: `analyze` loads no physics.

A sweep is columnar: its settings arrive as one (n, 3, 2) plate-angle array,
its counts leave the draw as one (n, 8) int64 table, columns COUNT_COLUMNS,
and sweep_columns names them and the other arrays of the sweep as dataset
columns; sweep_points builds point dataclasses from those columns.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from typing import Mapping, NamedTuple

import numpy as np

from .errors import InvalidNormalizationError, NoDataError


@dataclass(frozen=True)
class CountRecord:
    """The eight count sums entering the success and inconclusive-rate estimators.

    First index: detected Bell class (p = Psi+, m = Psi-).  Second index:
    input setting (p = plus-type input, m = minus-type input).  The sh_*
    fields are the corresponding shoulder (normalization) counts taken with
    45-degree linear inputs outside the dip.  The fields run input by input
    (main plus, main minus, shoulder plus, shoulder minus), Psi+ before Psi-;
    this is also the column order of the datasets (COUNT_COLUMNS).
    """

    c_pp: int
    c_mp: int
    c_pm: int
    c_mm: int
    sh_pp: int
    sh_mp: int
    sh_pm: int
    sh_mm: int

    def __post_init__(self):
        for name in COUNT_COLUMNS:
            object.__setattr__(self, name, _checked_count(name, getattr(self, name)))

    @property
    def conclusive_total(self) -> int:
        return self.c_pp + self.c_pm + self.c_mp + self.c_mm

    def normalized_rate(self, c_plus: int, c_minus: int) -> tuple[float, float]:
        """Shoulder-normalized mean rate and its first-order propagated error.

        Returns 1/2 [c_plus / (2 S+) + c_minus / (2 S-)] with the shoulder sums
        S+ = sh_pp + sh_mp and S- = sh_mm + sh_pm, and its standard error
        treating every count sum as Poisson with variance equal to its value.
        Raises InvalidNormalizationError unless both shoulder sums are positive.
        """
        s_plus = self.sh_pp + self.sh_mp
        s_minus = self.sh_mm + self.sh_pm
        if s_plus <= 0 or s_minus <= 0:
            raise InvalidNormalizationError(
                f"shoulder sums must be positive, got {s_plus} and {s_minus}"
            )
        value = 0.5 * (c_plus / (2.0 * s_plus) + c_minus / (2.0 * s_minus))
        var_a = c_plus / (4.0 * s_plus**2) + c_plus**2 / (4.0 * s_plus**3)
        var_b = c_minus / (4.0 * s_minus**2) + c_minus**2 / (4.0 * s_minus**3)
        return value, 0.5 * math.sqrt(var_a + var_b)

    def wrong_class_rate(self) -> tuple[float, float]:
        """Fraction of conclusive events with the wrong Bell class, and its binomial error.

        Raises NoDataError when no conclusive event was recorded.
        """
        total = self.conclusive_total
        if total <= 0:
            raise NoDataError("no conclusive events recorded")
        rate = (self.c_mp + self.c_pm) / total
        return rate, math.sqrt(rate * (1.0 - rate) / total)

    def estimates(self) -> Estimates:
        """Every estimate of the record, NaN where the counts leave it undefined.

        P_succ = normalized_rate(C++, C--), P_I = 1 - normalized_rate(C++ + C-+,
        C-- + C+-) (both NaN unless both shoulder sums are positive) and the
        wrong-class rate (NaN without conclusive events); a one-row
        estimate_table.
        """
        return Estimates(*estimate_table([astuple(self)])[0].tolist())


COUNT_COLUMNS = tuple(f.name for f in fields(CountRecord))


class Estimates(NamedTuple):
    """The estimates of one CountRecord; the fields are the estimate columns of `analyze`."""

    p_succ: float
    p_succ_stderr: float
    p_inconclusive: float
    pi_stderr: float
    error_rate: float
    error_rate_stderr: float


# counts are held in int64 tables
_COUNT_LIMIT = 2**63


def _checked_count(name: str, value) -> int:
    """`value` as an int, or ValueError naming `name` unless it is an integer in [0, 2**63)."""
    if not 0 <= value < _COUNT_LIMIT or int(value) != value:
        raise ValueError(f"{name} must be a nonnegative integer below 2**63, got {value}")
    return int(value)


def count_table(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """The (n, 8) int64 table of the COUNT_COLUMNS entries of `columns`, int or float arrays.

    Each column is checked in one pass: the first value that is not an
    integer in [0, 2**63) (NaN and infinities included) raises ValueError
    naming its column, as a CountRecord field would; an integral float such
    as 13.0 is taken as its integer.
    """
    table = np.empty((len(columns[COUNT_COLUMNS[0]]), len(COUNT_COLUMNS)), dtype=np.int64)
    for j, name in enumerate(COUNT_COLUMNS):
        values = np.asarray(columns[name])
        ok = (values >= 0) & (values < _COUNT_LIMIT) & (np.trunc(values) == values)
        if not ok.all():
            _checked_count(name, values[~ok][0].item())
        table[:, j] = values
    return table


def _normalized_rates(c_plus, c_minus, s_plus, s_minus):
    """CountRecord.normalized_rate over arrays, grouped as it is: (s * s) * s, var_a + var_b."""
    value = 0.5 * (c_plus / (2.0 * s_plus) + c_minus / (2.0 * s_minus))
    var_a = c_plus / (4.0 * (s_plus * s_plus)) + (c_plus * c_plus) / (4.0 * (s_plus * s_plus * s_plus))
    var_b = c_minus / (4.0 * (s_minus * s_minus)) + (c_minus * c_minus) / (
        4.0 * (s_minus * s_minus * s_minus)
    )
    return value, 0.5 * np.sqrt(var_a + var_b)


def estimate_table(counts) -> np.ndarray:
    """Every estimate of n count rows: an (n, 6) float64 array, columns Estimates._fields.

    `counts` is (n, 8), columns in COUNT_COLUMNS order.  Row i holds what
    CountRecord.normalized_rate and wrong_class_rate give for row i (see
    CountRecord.estimates), NaN where a shoulder sum is not positive (first
    four) or there is no conclusive count (last two).  The arithmetic is
    float64 from the start and keeps the scalar grouping, and IEEE + - * /
    and sqrt round correctly, so the result equals the scalar one bit for
    bit while the conclusive total is below 2**53 and both shoulder sums are
    below 2**26.5 (about 9.49e7: then s * s is exact and (s * s) * s is one
    rounding of s**3, as in the scalar code).  Beyond those bounds a value
    can differ from the scalar one in its last bits.  Every row is computed
    on its own: it does not depend on the other rows of the table.
    """
    table = np.asarray(counts, dtype=np.float64)
    if table.size == 0:
        table = table.reshape(0, len(COUNT_COLUMNS))
    if table.ndim != 2 or table.shape[1] != len(COUNT_COLUMNS):
        raise ValueError(f"a count table has shape (n, {len(COUNT_COLUMNS)}), got {table.shape}")
    c_pp, c_mp, c_pm, c_mm, sh_pp, sh_mp, sh_pm, sh_mm = table.T
    s_plus, s_minus = sh_pp + sh_mp, sh_mm + sh_pm
    total = c_pp + c_pm + c_mp + c_mm
    out = np.empty((len(table), len(Estimates._fields)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[:, 0], out[:, 1] = _normalized_rates(c_pp, c_mm, s_plus, s_minus)
        conclusive, out[:, 3] = _normalized_rates(c_pp + c_mp, c_mm + c_pm, s_plus, s_minus)
        out[:, 2] = 1.0 - conclusive
        rate = (c_mp + c_pm) / total
        out[:, 4] = rate
        out[:, 5] = np.sqrt(rate * (1.0 - rate) / total)
    out[~((s_plus > 0) & (s_minus > 0)), :4] = np.nan
    out[~(total > 0), 4:] = np.nan
    return out


def sweep_columns(point_type: type, counts: np.ndarray, **values: np.ndarray) -> dict[str, np.ndarray]:
    """The dataset columns of a sweep in order: the fields of `point_type` before its last, `counts`.

    Each such field is given in `values` and named by its "column" metadata
    where it has one; the COUNT_COLUMNS of the (n, 8) `counts` follow.
    """
    leading = fields(point_type)[:-1]
    columns = {f.metadata.get("column", f.name): values[f.name] for f in leading}
    return columns | dict(zip(COUNT_COLUMNS, counts.T))


def sweep_points(point_type: type, columns: Mapping[str, np.ndarray]) -> list:
    """One `point_type` per row of the sweep_columns `columns`, its counts a CountRecord."""
    leading = [columns[name].tolist() for name in list(columns)[: -len(COUNT_COLUMNS)]]
    counts = np.column_stack([columns[name] for name in COUNT_COLUMNS]).tolist()
    return [point_type(*row, CountRecord(*c)) for *row, c in zip(*leading, counts)]


@dataclass(frozen=True)
class DiscriminationPoint:
    """One sweep point: theory, optimal benchmark and simulated estimates.

    The fields before `counts` name the sweep's leading dataset columns
    (sweep_columns); the grid coordinates, which `analyze` carries over,
    carry "grid" metadata.
    """

    epsilon: float = field(metadata={"grid": True})
    theta: float = field(metadata={"grid": True})
    p_theory: float
    p_optimal: float
    p_estimated: float
    p_stderr: float
    error_rate: float
    error_rate_stderr: float
    counts: CountRecord


@dataclass(frozen=True)
class MultimeterPoint:
    """One sweep point of the multimeter run: theory and simulated estimates.

    The fields before `counts` name the sweep's leading dataset columns
    (sweep_columns), by "column" metadata where they have it; the grid
    coordinates, which `analyze` carries over, carry "grid" metadata.
    """

    phi: float = field(metadata={"grid": True})
    eta: float = field(metadata={"grid": True})
    pi_theory: float
    fidelity_theory: float
    p_inconclusive: float = field(metadata={"column": "pi_estimated"})
    pi_stderr: float
    fidelity: float = field(metadata={"column": "fidelity_estimated"})
    error_rate: float
    error_rate_stderr: float
    counts: CountRecord
