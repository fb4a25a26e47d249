"""The benchmark workloads: their CLI arguments, inputs and output checks.

Each check reads the dataset the command wrote with the benchmark's own
parser, so a fault in bellmeter's reader cannot hide a fault in its writer.
A check returns the number of failed output rows; rows that are missing, and
every row of a dataset whose sidecar is not strict JSON, count as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

COUNT_COLUMNS = ("c_pp", "c_mp", "c_pm", "c_mm", "sh_pp", "sh_mp", "sh_pm", "sh_mm")

# ExperimentConfig.realistic(), spelled out as the README's config-file format
REALISTIC_CONFIG = {
    "pair_rate": 100000.0,
    "period": 1.0,
    "repetitions": 10,
    "detector_efficiency": 0.5,
    "dark_count_rate": 100.0,
    "coincidence_window": 1e-08,
    "dip_sigma": 35.0,
    "shoulder_position": 150.0,
    "angle_jitter": 1.0,
    "seed": 12345,
    "analyzer": {
        "transmittance_h": 0.53,
        "transmittance_v": 0.48,
        "mode_overlap": 0.92,
        "geometric_phase": True,
        "detector_map": ["D1", "D2", "D4", "D3"],
    },
}

ANALYZE_ROWS = 20_000
# share of synthesized rows with a zero shoulder sum, and with zero conclusive counts
ANALYZE_PLANTED_SHARE = 0.01


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and raw cells of a TSV dataset; raises ValueError if its sidecar is not strict JSON."""
    sidecar = path.with_name(path.name + ".meta.json")
    meta = json.loads(sidecar.read_text(), parse_constant=_reject_constant)
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar} does not hold a JSON object")
    lines = path.read_text().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:] if line]


def _column_values(columns: list[str], rows: list[list[str]], name: str) -> list[float]:
    index = columns.index(name)
    return [float(row[index]) for row in rows]


class Workload:
    name: str
    expected_rows: int

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write the inputs the command reads."""

    def args(self, workdir: Path, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def failed_rows(self, columns: list[str], rows: list[list[str]]) -> int:
        raise NotImplementedError

    def check(self, out: Path) -> int:
        """Number of failed rows of the dataset at `out`."""
        try:
            columns, rows = read_table(out)
            failed = self.failed_rows(columns, rows[: self.expected_rows])
        except (OSError, ValueError, IndexError) as exc:
            print(f"# check {self.name}: {exc}", flush=True)
            return self.expected_rows
        return failed + max(0, self.expected_rows - len(rows))


class DiscriminateRealistic(Workload):
    """Default 4 x 23 grid under ExperimentConfig.realistic()."""

    name = "discriminate-realistic"
    expected_rows = 92

    def prepare(self, workdir: Path, seed: int) -> None:
        (workdir / "realistic.json").write_text(json.dumps(REALISTIC_CONFIG))

    def args(self, workdir: Path, seed: int, out: Path) -> list[str]:
        return ["discriminate", "--config", str(workdir / "realistic.json"),
                "--seed", str(seed), "--out", str(out)]

    def failed_rows(self, columns, rows) -> int:
        # a row fails on a NaN estimate, or an error rate >= 0.15 where the optimal
        # probability is not negligible (the acceptance suite's imperfection band)
        p_est = _column_values(columns, rows, "p_estimated")
        rate = _column_values(columns, rows, "error_rate")
        p_opt = _column_values(columns, rows, "p_optimal")
        return sum(
            math.isnan(p) or (o >= 0.005 and not r < 0.15) for p, r, o in zip(p_est, rate, p_opt)
        )


class MultimeterIdeal(Workload):
    """Ideal multimeter at eta = 0.5 on a 1-degree phase grid."""

    name = "multimeter-ideal"
    expected_rows = 181

    def args(self, workdir: Path, seed: int, out: Path) -> list[str]:
        return ["multimeter", "--ideal", "--eta", "0.5", "--phi-range=-90:90:1",
                "--seed", str(seed), "--out", str(out)]

    def failed_rows(self, columns, rows) -> int:
        # the ideal inconclusive rate is 1/4 at every phase for eta = 0.5.  A row fails
        # beyond 5 standard errors: at 4, one seed in about 90 would fail one of its 181
        # rows on Poisson noise alone
        pi = _column_values(columns, rows, "pi_estimated")
        err = _column_values(columns, rows, "pi_stderr")
        return sum(not abs(p - 0.25) <= 5.0 * e for p, e in zip(pi, err))


def synthesize_counts(seed: int, n_rows: int = ANALYZE_ROWS) -> np.ndarray:
    """Seeded count table with columns epsilon, theta and COUNT_COLUMNS.

    Counts are Poisson around analytic means: with N detected pairs per
    setting, each shoulder class averages N/4 and the correct main classes
    average N p, p = 2(|a|^2 - |a|^4).  A fixed share of rows has a zero
    shoulder sum and another has no conclusive counts, so the estimators'
    NaN branches run too.
    """
    rng = np.random.default_rng(seed)
    n_pairs = 25_000.0
    eps = rng.choice([0.0, 12.0, 24.0, 36.0], size=n_rows)
    theta = np.round(rng.uniform(0.0, 90.0, size=n_rows), 6)
    x, y = np.cos(np.radians(eps)), np.sin(np.radians(eps))
    a_sq = x**2 * np.cos(np.radians(theta)) ** 2 + y**2 * np.sin(np.radians(theta)) ** 2
    p = 2.0 * (a_sq - a_sq**2)
    right = rng.poisson(n_pairs * p * 0.97, size=(2, n_rows))
    wrong = rng.poisson(n_pairs * p * 0.03 + 1.0, size=(2, n_rows))
    shoulder = rng.poisson(n_pairs / 4.0, size=(4, n_rows))
    counts = np.stack([right[0], wrong[0], wrong[1], right[1], *shoulder]).T
    n_planted = int(n_rows * ANALYZE_PLANTED_SHARE)
    planted = rng.choice(n_rows, size=2 * n_planted, replace=False)
    counts[planted[:n_planted], 4:6] = 0  # sh_pp = sh_mp = 0
    counts[planted[n_planted:], 0:4] = 0  # no conclusive counts
    return np.column_stack([eps, theta, counts])


def _normalized_rate(c_a, c_b, s_a, s_b):
    """1/2 [c_a / (2 s_a) + c_b / (2 s_b)] and its first-order Poisson standard error."""
    value = 0.5 * (c_a / (2.0 * s_a) + c_b / (2.0 * s_b))
    var_a = c_a / (4.0 * s_a**2) + c_a**2 / (4.0 * s_a**3)
    var_b = c_b / (4.0 * s_b**2) + c_b**2 / (4.0 * s_b**3)
    return value, 0.5 * np.sqrt(var_a + var_b)


def reference_estimates(table: np.ndarray) -> np.ndarray:
    """p_succ, p_succ_stderr, p_inconclusive, pi_stderr, error_rate, error_rate_stderr per row.

    Written from the estimator formulas in the discriminator and multimeter
    docstrings, independently of bellmeter's code: NaN where a shoulder sum is
    not positive (first four) or there are no conclusive counts (last two).
    """
    c_pp, c_mp, c_pm, c_mm, sh_pp, sh_mp, sh_pm, sh_mm = table[:, 2:10].T
    s_plus, s_minus = sh_pp + sh_mp, sh_mm + sh_pm
    normalized = (s_plus > 0) & (s_minus > 0)
    total = c_pp + c_pm + c_mp + c_mm
    with np.errstate(divide="ignore", invalid="ignore"):
        p_succ, p_succ_err = _normalized_rate(c_pp, c_mm, s_plus, s_minus)
        conclusive, pi_err = _normalized_rate(c_pp + c_mp, c_mm + c_pm, s_plus, s_minus)
        rate = (c_mp + c_pm) / total
        rate_err = np.sqrt(rate * (1.0 - rate) / total)
    out = np.column_stack([p_succ, p_succ_err, 1.0 - conclusive, pi_err, rate, rate_err])
    out[~normalized, :4] = np.nan
    out[total <= 0, 4:] = np.nan
    return out


def write_count_table(table: np.ndarray, path: Path, seed: int) -> None:
    """Write the table as a bellmeter dataset: TSV plus a strict-JSON sidecar."""
    columns = ("epsilon", "theta") + COUNT_COLUMNS
    lines = ["\t".join(columns)]
    for row in table:
        lines.append("\t".join([repr(float(row[0])), repr(float(row[1]))] + [str(int(v)) for v in row[2:]]))
    path.write_text("\n".join(lines) + "\n")
    meta = {"command": "synthesized", "seed": seed, "columns": list(columns)}
    path.with_name(path.name + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


class AnalyzeBulk(Workload):
    """Offline re-estimation of a synthesized count table."""

    name = "analyze-bulk"
    expected_rows = ANALYZE_ROWS

    def prepare(self, workdir: Path, seed: int) -> None:
        self._table = synthesize_counts(seed, self.expected_rows)
        self._expected = reference_estimates(self._table)
        write_count_table(self._table, workdir / "counts.tsv", seed)

    def args(self, workdir: Path, seed: int, out: Path) -> list[str]:
        return ["analyze", str(workdir / "counts.tsv"), "--out", str(out)]

    def failed_rows(self, columns, rows) -> int:
        table, expected = self._table, self._expected
        names = ["epsilon", "theta", "p_succ", "p_succ_stderr", "p_inconclusive", "pi_stderr",
                 "error_rate", "error_rate_stderr"]
        got = np.array([_column_values(columns, rows, name) for name in names]).T
        want = np.column_stack([table[: len(rows), :2], expected[: len(rows)]])
        both_nan = np.isnan(got) & np.isnan(want)
        close = np.abs(got - want) <= 1e-12 * np.maximum(np.abs(got), np.abs(want))
        return int(np.count_nonzero(~(both_nan | close).all(axis=1)))


WORKLOADS = {w.name: w for w in (DiscriminateRealistic(), MultimeterIdeal(), AnalyzeBulk())}
