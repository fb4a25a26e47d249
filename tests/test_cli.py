import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellmeter
from bellmeter.analyzer import DETECTORS, AnalyzerConfig
from bellmeter.cli import _load_config, _parse_float_list, _parse_range, build_parser, main
from bellmeter.counts import CountRecord, MultimeterPoint
from bellmeter.dataset import TableReader, sidecar_path
from bellmeter.errors import SchemaViolationError
from bellmeter.experiment import ExperimentConfig, config_from_dict, hom_scan, with_pairs_per_point
from test_experiment import BOUNDED, bound_probes
from tsv_helpers import read_columns, write_columns


COUNT_HEADER = ["c_pp", "c_mp", "c_pm", "c_mm", "sh_pp", "sh_mp", "sh_pm", "sh_mm"]
ESTIMATE_HEADER = [
    "p_succ", "p_succ_stderr", "p_inconclusive", "pi_stderr", "error_rate", "error_rate_stderr",
]


# the environment of a child interpreter, which imports the bellmeter under test
SRC = str(Path(bellmeter.__file__).resolve().parents[1])
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def read_sidecar(path):
    return json.loads(sidecar_path(path).read_text())


def test_discriminate_single_point(tmp_path, capsys):
    out = tmp_path / "one.tsv"
    code = main([
        "discriminate", "--ideal", "--epsilon", "0", "--theta-range", "45:45:1",
        "--pairs", "20000", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    ds = read_columns(out)
    assert list(ds) == [
        "epsilon", "theta", "p_theory", "p_optimal", "p_estimated", "p_stderr",
        "error_rate", "error_rate_stderr", *COUNT_HEADER,
    ]
    assert len(ds["epsilon"]) == 1
    row = {name: ds[name][0] for name in ds}
    assert row["p_theory"] == 0.5
    assert abs(row["p_estimated"] - 0.5) <= 4 * row["p_stderr"]


def test_discriminate_default_grid_shape(tmp_path):
    out = tmp_path / "grid.tsv"
    code = main([
        "discriminate", "--ideal", "--pairs", "200", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    ds = read_columns(out)
    # 4 ellipticity curves, 23 theta points each
    assert len(ds["epsilon"]) == 4 * 23
    eps_values = sorted(set(ds["epsilon"]))
    assert eps_values == [0.0, 12.0, 24.0, 36.0]
    thetas = [r for r, e in zip(ds["theta"], ds["epsilon"]) if e == 0.0]
    assert thetas == [float(t) for t in range(0, 91, 4)]



def test_discriminate_matches_theory(tmp_path):
    out = tmp_path / "theory.tsv"
    assert main(["discriminate", "--ideal", "--seed", "50", "--epsilon", "24",
                 "--theta-range", "20:60:40", "--pairs", "200000", "--out", str(out)]) == 0
    ds = read_columns(out)
    assert ds["theta"].tolist() == [20.0, 60.0]
    for p_est, p_theory, p_stderr in zip(
        ds["p_estimated"], ds["p_theory"], ds["p_stderr"]
    ):
        assert abs(p_est - p_theory) <= 3 * p_stderr
    assert ds["error_rate"].tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["discriminate", "--epsilon="],
        ["discriminate", "--theta-range=90:0:1"],
        ["multimeter", "--phi-range=90:0:1"],
        ["hom-scan", "--positions="],
        # an empty --positions list is an empty scan, not the default --range
        ["hom-scan", "--positions=,"],
        ["hom-scan", "--range=0:-90:1e-320"],  # a descending range whose span is -inf
    ],
)
def test_an_empty_grid_fails_naming_its_flag(tmp_path, capsys, argv):
    # one rule for every command: a grid with no point fails, and nothing is written
    out = tmp_path / "empty.tsv"
    assert main([*argv, "--ideal", "--pairs", "100", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {argv[-1].split('=')[0]} gives no points\n")
    assert list(tmp_path.iterdir()) == []

def test_multimeter_command(tmp_path):
    out = tmp_path / "multi.tsv"
    code = main([
        "multimeter", "--ideal", "--eta", "0.5", "--phi-range=-16:16:16",
        "--pairs", "100000", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    ds = read_columns(out)
    assert list(ds) == [
        "phi", "eta", "pi_theory", "fidelity_theory", "pi_estimated", "pi_stderr",
        "fidelity_estimated", "error_rate", "error_rate_stderr", *COUNT_HEADER,
    ]
    assert len(ds["phi"]) == 3
    row = {name: ds[name][0] for name in ds}
    assert row["pi_theory"] == 0.25
    assert abs(row["fidelity_theory"] - 5.0 / 6.0) < 1e-12
    assert abs(row["fidelity_estimated"] - 5.0 / 6.0) < 0.02


def test_hom_scan_command(tmp_path):
    out = tmp_path / "hom.tsv"
    code = main([
        "hom-scan", "--ideal", "--range=-120:120:20", "--seed", "5",
        "--pairs", "100000", "--out", str(out),
    ])
    assert code == 0
    ds = read_columns(out)
    meta = read_sidecar(out)
    assert meta["fitted_visibility"] == pytest.approx(1.0, abs=0.02)
    positions = ds["position"].tolist()
    dip_idx = positions.index(0.0)
    assert ds["rate_mp"][dip_idx] < 0.02 * max(ds["rate_mp"])


@pytest.mark.parametrize(
    "geometric_phase, dipping, rising",
    [(True, ["rate_mp", "rate_pm"], ["rate_pp", "rate_mm"]), (False, ["rate_pp", "rate_mm"], ["rate_mp", "rate_pm"])],
)
def test_hom_scan_columns_dip_and_rise_where_the_physics_puts_them(tmp_path, geometric_phase, dipping, rising):
    # ideal inputs at full overlap: one class of each diagonal input empties and the other doubles,
    # and the geometric phase decides which; at +-300 um (8.6 dip widths) the photons are distinguishable
    config = {"detector_efficiency": 1.0, "dark_count_rate": 0.0, "angle_jitter": 0.0,
              "analyzer": {"geometric_phase": geometric_phase}}
    config_path, out = tmp_path / "config.json", tmp_path / "hom.tsv"
    config_path.write_text(json.dumps(config))
    argv = ["hom-scan", "--config", str(config_path), "--positions=-300,0,300", "--pairs", "100000"]
    assert main(argv + ["--out", str(out)]) == 0
    written = read_columns(out)
    assert list(written) == ["position", "rate_pp", "rate_mp", "rate_pm", "rate_mm"]
    result = hom_scan([-300.0, 0.0, 300.0], with_pairs_per_point(config_from_dict(config), 100_000))
    scanned = {"position": result.positions, **{name: getattr(result, name) for name in dipping + rising}}
    for columns in (written, scanned):
        assert columns["position"].tolist() == [-300.0, 0.0, 300.0]
        for name in dipping + rising:
            shoulder, center = min(columns[name][[0, 2]]), columns[name][1]
            assert center < 0.01 * shoulder if name in dipping else center > 1.8 * shoulder, (name, columns[name])


def test_hom_scan_at_a_tiny_period_warns_of_no_overflow(tmp_path):
    # rates near 1e303 once squared overflowed in the dip fit
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"period": 1e-300}))
    argv = ["hom-scan", "--config", str(cfg_path), "--out", str(tmp_path / "hom.tsv")]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bellmeter.cli", *argv], env=CLI_ENV, capture_output=True, text=True
    )
    assert done.returncode == 0 and done.stderr == ""
    assert read_sidecar(tmp_path / "hom.tsv")["fitted_visibility"] == pytest.approx(1.0, abs=0.02)


def test_hom_scan_runs_without_scipy(tmp_path):
    out = tmp_path / "hom.tsv"
    script = (
        "import sys; from bellmeter.cli import main; "
        f"code = main(['hom-scan', '--seed', '1', '--out', {str(out)!r}]); "
        "sys.exit(3 if 'scipy' in sys.modules else code)"
    )
    done = subprocess.run([sys.executable, "-c", script], env=CLI_ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert out.is_file()


# what every sweep command loads: the count core, the optics and the sampler
SWEEP_MODULES = {
    "bellmeter", "bellmeter.analyzer", "bellmeter.cli", "bellmeter.counts", "bellmeter.dataset",
    "bellmeter.errors", "bellmeter.experiment", "bellmeter.polarization",
}


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import bellmeter", {"bellmeter"}),
        (
            "from bellmeter.cli import main; "
            "assert main(['analyze', sys.argv[1], '--out', sys.argv[2]]) == 0",
            {"bellmeter", "bellmeter.cli", "bellmeter.counts", "bellmeter.dataset", "bellmeter.errors"},
        ),
        (
            "from bellmeter.cli import main; assert main(['discriminate', '--epsilon', '0', "
            "'--theta-range', '0:90:45', '--pairs', '100', '--out', sys.argv[2]]) == 0",
            SWEEP_MODULES | {"bellmeter.discriminator"},
        ),
        (
            "from bellmeter.cli import main; "
            "assert main(['multimeter', '--phi-range=-90:90:90', '--pairs', '100', '--out', sys.argv[2]]) == 0",
            SWEEP_MODULES | {"bellmeter.multimeter"},
        ),
        (
            "from bellmeter.cli import main; "
            "assert main(['hom-scan', '--range=-50:50:50', '--pairs', '100', '--out', sys.argv[2]]) == 0",
            SWEEP_MODULES,
        ),
    ],
    ids=["package", "analyze", "discriminate", "multimeter", "hom-scan"],
)
def test_fresh_interpreter_loads_only_what_it_runs(tmp_path, code, loaded):
    # the package root imports no module, `analyze` needs only the count core,
    # and no command loads the two-photon oracles (twophoton)
    counts, out = tmp_path / "counts.tsv", tmp_path / "est.tsv"
    write_columns(counts, COUNT_HEADER, [[c] for c in [400, 0, 0, 380, 300, 200, 150, 350]])
    script = f"import sys; {code}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'bellmeter'))"
    done = subprocess.run(
        [sys.executable, "-c", script, str(counts), str(out)], env=CLI_ENV, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr(sorted(loaded))


@pytest.mark.parametrize("sub", [[], ["discriminate"], ["multimeter"], ["hom-scan"], ["analyze"]],
                         ids=["bellmeter", "discriminate", "multimeter", "hom-scan", "analyze"])
def test_help_of_each_command_is_printed(capsys, sub):
    # argparse %-formats every help string only when it prints the help
    with pytest.raises(SystemExit) as done:
        main([*sub, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bellmeter")


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    assert build_parser() is build_parser()
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    argv = ["multimeter", "--ideal", "--phi-range=0:8:8", "--pairs", "100", "--seed", "1"]
    assert main(argv + ["--eta", "0.5", "--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert read_columns(first)["eta"].tolist() == [0.5, 0.5]
    assert read_columns(second)["eta"].tolist() == [1.0, 1.0]
    meta = read_sidecar(second)
    assert meta["eta"] == 1.0
    assert meta["argv"] == argv + ["--out", str(second)]


@pytest.mark.parametrize(
    "argv",
    [
        ["discriminate", "--ideal", "--epsilon", "12", "--theta-range", "20:60:20", "--pairs", "5000", "--seed", "99",
         "--out", "a.tsv"],
        ["multimeter", "--ideal", "--phi-range=-90:90:30", "--pairs", "1000", "--seed", "7", "--out", "a.tsv"],
        ["hom-scan", "--range=-50:50:25", "--pairs", "1000", "--seed", "7", "--out", "a.tsv"],
        ["analyze", "raw.tsv", "--out", "a.tsv"],
        ["analyze", "raw.tsv"],
    ],
    ids=["discriminate", "multimeter", "hom-scan", "analyze", "analyze-stdout"],
)
def test_dataset_reproducible_byte_for_byte(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["discriminate", "--theta-range", "0:90:45", "--pairs", "1000", "--seed", "7", "--out", "raw.tsv"]) == 0
    capsys.readouterr()
    if "--out" not in argv:  # the TSV on stdout, without a sidecar to replay
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first and first.startswith("epsilon\ttheta\tp_succ\t")
        return
    out = tmp_path / "a.tsv"
    assert main(argv) == 0
    first_bytes = out.read_bytes()
    first_meta = read_sidecar(out)
    assert main(first_meta["argv"]) == 0  # replay the recorded command
    assert out.read_bytes() == first_bytes
    second_meta = read_sidecar(out)
    first_meta.pop("timestamp"), second_meta.pop("timestamp")
    assert first_meta == second_meta


@pytest.mark.parametrize(
    "argv, coords, same",
    [
        (
            ["discriminate", "--ideal", "--pairs", "5", "--seed", "4"],
            ["epsilon", "theta"],
            {"p_succ": "p_estimated", "p_succ_stderr": "p_stderr"},
        ),
        (
            ["multimeter", "--ideal", "--eta", "0.5", "--pairs", "2", "--seed", "1"],
            ["phi", "eta"],
            {"p_inconclusive": "pi_estimated", "pi_stderr": "pi_stderr"},
        ),
    ],
    ids=["discriminate", "multimeter"],
)
def test_analyze_roundtrip_identity(tmp_path, argv, coords, same):
    # so few pairs leave some shoulder sums or conclusive counts at zero: NaN rows
    raw = tmp_path / "raw.tsv"
    assert main(argv + ["--out", str(raw)]) == 0
    out = tmp_path / "analyzed.tsv"
    assert main(["analyze", str(raw), "--out", str(out)]) == 0
    raw_ds = read_columns(raw)
    out_ds = read_columns(out)
    assert list(out_ds) == coords + ESTIMATE_HEADER
    same = {**same, "error_rate": "error_rate", "error_rate_stderr": "error_rate_stderr"}
    for analyzed, swept in same.items():
        assert any(map(math.isnan, raw_ds[swept]))
        # bit for bit, NaN matching NaN
        assert [v.hex() for v in out_ds[analyzed]] == [v.hex() for v in raw_ds[swept]]


def test_analyze_handcrafted_counts(tmp_path):
    path = tmp_path / "counts.tsv"
    columns = ["c_pp", "c_mp", "c_pm", "c_mm", "sh_pp", "sh_mp", "sh_pm", "sh_mm"]
    write_columns(path, columns, [[c] for c in [400, 0, 0, 380, 300, 200, 150, 350]])
    out = tmp_path / "est.tsv"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    row = {name: read_columns(out)[name][0] for name in ESTIMATE_HEADER}
    assert row["p_succ"] == pytest.approx(0.39, abs=1e-15)

    # all-zero conclusive counts: P_I = 1, error rate undefined
    write_columns(path, columns, [[c] for c in [0, 0, 0, 0, 300, 200, 150, 350]])
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    row = {name: read_columns(out)[name][0] for name in ESTIMATE_HEADER}
    assert row["p_inconclusive"] == 1.0
    assert math.isnan(row["error_rate"])


def test_analyze_missing_column_is_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    write_columns(path, ["c_pp", "c_mp"], [[1], [2]])
    code = main(["analyze", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "c_pm" in err


def test_analyze_short_row_exit_nonzero(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    main(["discriminate", "--ideal", "--epsilon", "0", "--theta-range", "10:30:10",
          "--pairs", "1000", "--seed", "2", "--out", str(raw)])
    lines = raw.read_text().splitlines()
    lines[-1] = "\t".join(lines[-1].split("\t")[:-3])
    raw.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(raw)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 4" in err and "Traceback" not in err


@pytest.mark.parametrize("cell, code", [("13.7", 1), ("inf", 1), ("13.0", 0)])
def test_analyze_rejects_fractional_counts(tmp_path, capsys, cell, code):
    path = tmp_path / "counts.tsv"
    header = "c_pp\tc_mp\tc_pm\tc_mm\tsh_pp\tsh_mp\tsh_pm\tsh_mm\n"
    path.write_text(header + f"{cell}\t0\t0\t380\t300\t200\t150\t350\n")
    assert main(["analyze", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("error:") and "c_pp" in captured.err
    else:
        assert captured.out.splitlines()[1].split("\t")[0] == repr(0.5 * (13 / 1000 + 380 / 1000))


def test_parse_range_builds_values_from_an_index():
    values = _parse_range("0:10000:0.1")
    assert len(values) == 100_001
    assert values[-1] == 10000.0
    assert _parse_range("0:1000:0.01")[70926] == 709.26
    assert _parse_range("-90:90:8").tolist() == [float(v) for v in range(-90, 91, 8)]
    # a descending range has no point, also where its span is -inf
    for text in ("90:0:1", "0:-90:1e-320"):
        with pytest.raises(ValueError, match="^range gives no points$"):
            _parse_range(text)


def test_parse_range_holds_the_grid_as_one_array():
    # 900,001 points: 7.2 MB of float64; a list of Python floats and its
    # shifted copy for the order check peaked at about 36 MB
    import tracemalloc

    tracemalloc.start()
    try:
        values = _parse_range("-90:90:0.0002")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.dtype == np.float64 and len(values) == 900_001 and values[-1] == 90.0
    assert peak < 12e6, peak


def assert_grid_is_rounded_per_point(text):
    # the grid of `text` equals one round(v, 9) per point, bit for bit, or
    # fails as that grid would, on points that repeat once rounded
    start, stop, step = map(float, text.split(":"))
    count = math.floor((stop - start) / step + 1e-9) + 1
    expected = np.array([round(start + i * step, 9) for i in range(count)])
    if np.any(expected[:-1] >= expected[1:]):
        with pytest.raises(ValueError, match="repeats points once they are rounded to 9 decimals"):
            _parse_range(text)
    else:
        assert _parse_range(text).view(np.int64).tolist() == expected.view(np.int64).tolist()


# where rounding to 9 decimals is hard: signed zeros, odd multiples of 2^-10 (whose
# product with 1e9 is an exact .5 tie), other dyadic values, both sides of 2^51 / 1e9,
# beyond which |v| * 1e9 has an ulp of 0.5, and of 2^52 / 1e9, beyond which |v| * 1e9
# may not be rounded in floats
GRID_STARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-(2**20), 2**20).map(lambda j: (2 * j + 1) / 2**10),
    st.integers(-(2**40), 2**40).map(lambda k: k / 2**20),
    st.floats(2251799.0, 2251800.5),
    st.floats(-4503600.5, -4503599.0),
    st.floats(4503599.0, 4503600.5),
    st.floats(-1e-8, 1e-8),
    st.floats(-2e7, 2e7),
)
GRID_STEPS = st.one_of(
    st.sampled_from([1e-9, 0.5e-9, 1e-10, 2**-10]),
    st.integers(1, 2**20).map(lambda k: k / 2**20),
    st.floats(1e-9, 10.0),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(start=GRID_STARTS, step=GRID_STEPS, count=st.integers(1, 40))
def test_grid_points_are_rounded_as_round_rounds_each(start, step, count):
    assert_grid_is_rounded_per_point(f"{start!r}:{start + (count - 1) * step!r}:{step!r}")


@pytest.mark.parametrize(
    "text",
    [
        "5e-10:5e-10:1",
        "1.5e-09:1.5e-09:1",
        "2.5e-09:2.5e-09:1",
        "-1e-10:-1e-10:1",  # rounds to -0.0
        "0.0009765625:20:0.0009765625",  # 20,480 points, across the 16,384-point chunk edge, every other a tie
        "0:1e308:1e303",  # all but the first beyond 2^52 / 1e9
        "15745512.275806915:15745512.275806915:1",  # rint(fl(v * 1e9)) / 1e9 misses round(v, 9)
        # fl(v * 1e9) lies in [2^51, 2^52) and is an exact .5, which rint takes to the wrong side
        "2381481.8755806866:2381481.8755806866:1",
        "2.4999999999999996e-09:2.4999999999999996e-09:1",  # the float neighbours of a tie
        "2.5000000000000005e-09:2.5000000000000005e-09:1",
    ],
)
def test_hard_grid_points_are_rounded_as_round_rounds_each(text):
    assert_grid_is_rounded_per_point(text)


@pytest.mark.parametrize("text", ["0.1234567891234", "5e-10", "-1e-10", "1e308", "7e307", "5e-324", "-5e-324"])
def test_a_bare_number_is_the_one_point_range(text):
    # rounded as round(v, 9) rounds it: 5e-10 becomes 1e-09 and -1e-10 becomes -0.0
    expected = np.array([round(float(text), 9)]).view(np.int64).tolist()
    assert _parse_range(text).view(np.int64).tolist() == expected
    assert _parse_range(f"{text}:{text}:1").view(np.int64).tolist() == expected


def test_a_bare_phi_is_written_rounded(tmp_path):
    out = tmp_path / "m.tsv"
    assert main(["multimeter", "--phi-range=0.1234567891234", "--pairs", "1000", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split("\t")[0] == "0.123456789"


@pytest.mark.parametrize("text", ["0.1234567891234", "-0", "1e-320", "5e-10", "-1e-10", "1e308", "7e307"])
def test_a_list_number_has_the_bits_of_the_bare_number(text):
    # a comma list follows the bare-number rule: -0 becomes 0.0, -1e-10 becomes -0.0
    expected = _parse_range(text).view(np.int64).tolist()
    assert _parse_float_list(text).view(np.int64).tolist() == expected
    assert _parse_float_list(f"1,{text},2").view(np.int64).tolist()[1:2] == expected


@pytest.mark.parametrize(
    "argv, first_cell",
    [
        (["discriminate", "--epsilon", "0.1234567891234", "--theta-range", "0"], "0.123456789"),
        (["hom-scan", "--positions=-0,1,2,3"], "0.0"),
        # far grids, which run without a RuntimeWarning (pytest turns each into an error):
        # mirror positions whose squares overflow in the dip fit,
        (["hom-scan", "--positions", "1e200,2e200,3e200,4e200"], "1e+200"),
        # 1,001 points across 2^52 / 1e9, where the grid's rounding hands over to round(),
        (["multimeter", "--phi-range=4503599.6:4503599.7:0.0001"], "4503599.6"),
        # and 10,001 axis angles up to 1e308
        (["discriminate", "--ideal", "--epsilon", "0", "--theta-range=0:1e308:1e304"], "0.0"),
    ],
    ids=["epsilon", "negative-zero-position", "far-positions", "far-phi", "far-theta"],
)
def test_a_list_value_is_written_rounded(tmp_path, argv, first_cell):
    out = tmp_path / "x.tsv"
    assert main(argv + ["--pairs", "1000", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split("\t")[0] == first_cell


@pytest.mark.parametrize(
    "argv, item",
    [
        (["discriminate", "--epsilon", "0:90:45"], "0:90:45"),  # a list item is no range
        (["hom-scan", "--positions", "1,a,2"], "a"),
        (["discriminate", "--theta-range", "0:90:x"], "x"),
        (["multimeter", "--phi-range=0:90:x"], "x"),
        (["hom-scan", "--range", "0:inf:1"], "inf"),
    ],
    ids=["epsilon", "positions", "theta-range", "phi-range", "range"],
)
def test_a_grid_item_that_is_no_finite_number_is_named_with_its_flag(tmp_path, capsys, argv, item):
    out = tmp_path / "x.tsv"
    assert main(argv + ["--pairs", "1000", "--out", str(out)]) == 1
    flag, text = argv[1].split("=") if "=" in argv[1] else argv[1:]
    assert capsys.readouterr().err == f"error: {flag} {text!r}: item {item!r} is not a finite number\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["discriminate", "--epsilon", "0", "--theta-range", "0:1e-10:1e-11"],
        ["multimeter", "--phi-range", "1e8:100000000.00001:1e-9"],
    ],
    ids=["below-the-rounding", "beyond-float-spacing"],
)
def test_range_whose_rounding_merges_points_exits_nonzero(tmp_path, capsys, argv):
    # each point is rounded to 9 decimals; a finer grid would repeat points
    out = tmp_path / "x.tsv"
    assert main(argv + ["--pairs", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {argv[-2]} {argv[-1]!r}: repeats points once they are rounded to 9 decimals\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["discriminate", "--epsilon", "1e-10,2e-10", "--theta-range", "0"],
        ["discriminate", "--epsilon", "0,-1e-10,5", "--theta-range", "0"],  # 0.0 and -0.0 are one point
        ["hom-scan", "--positions", "1,1.0000000001"],
    ],
    ids=["epsilon", "signed-zeros", "positions"],
)
def test_a_list_whose_rounding_merges_distinct_items_exits_nonzero(tmp_path, capsys, argv):
    # a comma list is rounded to 9 decimals as a range is; distinct items may not become one point
    out = tmp_path / "x.tsv"
    assert main(argv + ["--pairs", "100", "--out", str(out)]) == 1
    flag, text = argv[1:3]
    err = capsys.readouterr().err
    assert err == f"error: {flag} {text!r} has distinct items that are one point once rounded to 9 decimals\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, column, values",
    [
        (["discriminate", "--epsilon", "0,0,-0,0.0", "--theta-range", "0"], "epsilon", [0.0] * 4),
        (["hom-scan", "--positions=1,1"], "position", [1.0, 1.0]),
    ],
    ids=["epsilon", "positions"],
)
def test_a_list_that_repeats_an_item_writes_each_repeat(tmp_path, argv, column, values):
    out = tmp_path / "x.tsv"
    assert main(argv + ["--pairs", "100", "--out", str(out)]) == 0
    assert read_columns(out)[column].tolist() == values


@pytest.mark.parametrize("text", ["0:90", "0:90:1:2"])
def test_a_range_of_two_or_four_parts_is_named(tmp_path, capsys, text):
    out = tmp_path / "x.tsv"
    assert main(["discriminate", "--theta-range", text, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --theta-range {text!r}: expected 'start:stop:step'\n"
    assert list(tmp_path.iterdir()) == []


def test_invalid_flag_values_exit_nonzero(tmp_path, capsys):
    code = main(["discriminate", "--theta-range", "10:0:-5", "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    assert capsys.readouterr().err == "error: --theta-range '10:0:-5': step must be positive, got -5.0\n"
    code = main(["multimeter", "--eta", "1.5", "--out", str(tmp_path / "y.tsv")])
    assert code == 1


@pytest.mark.parametrize("text, written", [("-0", "0.0"), ("0.1234567891234", "0.123456789"), ("1", "1.0")])
def test_eta_is_rounded_as_a_bare_grid_number(tmp_path, text, written):
    out = tmp_path / "m.tsv"
    assert main(["multimeter", "--ideal", f"--eta={text}", "--phi-range", "0", "--pairs", "1000", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert (cells["eta"], cells["pi_theory"]) == (written, repr(float(written) / 2.0))
    assert json.dumps(read_sidecar(out)["eta"]) == written


@pytest.mark.parametrize("eta", ["-1e-10", "1.0000000001"])
def test_eta_is_checked_before_it_is_rounded(tmp_path, capsys, eta):
    # rounded first, each would pass as 0.0 or 1.0
    assert main(["multimeter", f"--eta={eta}", "--pairs", "100", "--out", str(tmp_path / "m.tsv")]) == 1
    assert capsys.readouterr().err == f"error: eta must lie in [0, 1], got {float(eta)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["multimeter", "analyze"])
def test_an_output_named_like_a_sidecar_is_refused(tmp_path, capsys, command):
    # it replaced the sidecar of the dataset it names with TSV text, and exited 0
    data = tmp_path / "q.tsv"
    assert main(["multimeter", "--phi-range=-90:90:45", "--pairs", "1000", "--out", str(data)]) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    target = sidecar_path(data)
    argv = ["multimeter", "--pairs", "1000"] if command == "multimeter" else ["analyze", str(data)]
    capsys.readouterr()
    assert main(argv + ["--out", str(target)]) == 1
    message = f"{target}: an output name must not end in .meta.json, the name of a sidecar"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("eta", ["nan", "inf"])
@pytest.mark.parametrize("out", ["x.tsv", ""])
def test_non_finite_eta_is_named_before_the_sidecar(tmp_path, capsys, monkeypatch, eta, out):
    # the sidecar records eta, so it is checked before the sidecar is serialized
    monkeypatch.chdir(tmp_path)
    assert main(["multimeter", "--eta", eta, "--pairs", "100", f"--out={out}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: eta must lie in [0, 1], got {eta}\n" and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["d", ".", ".."])
def test_an_out_that_is_a_directory_is_named(tmp_path, capsys, monkeypatch, out):
    # it failed only once the whole sweep was drawn, or on `.` and `..` with no name of the path
    import bellmeter.multimeter

    drawn = []
    sweep = bellmeter.multimeter.multimeter_blocks

    def blocks(*args):
        drawn.append(True)  # runs when the first block is asked for
        yield from sweep(*args)

    monkeypatch.setattr(bellmeter.multimeter, "multimeter_blocks", blocks)
    work = tmp_path / "a" / "b"
    (work / "d").mkdir(parents=True)
    monkeypatch.chdir(work)
    assert main(["multimeter", "--phi-range=-90:90:0.002", "--pairs", "1000", "--out", out]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {out!r}\n"
    assert drawn == []
    assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")) == ["a", "a/b", "a/b/d"]


@pytest.mark.parametrize("cut", [1, 2])
def test_analyze_names_a_last_line_cut_short(tmp_path, capsys, cut):
    # write_table ends every line, so a sidecar that records the columns tells a cut last line;
    # cutting 2 bytes left a shorter last count that analyze read as a full row
    raw, out = tmp_path / "raw.tsv", tmp_path / "est.tsv"
    assert main(["multimeter", "--phi-range=-90:90:30", "--pairs", "1000", "--out", str(raw)]) == 0
    raw.write_bytes(raw.read_bytes()[:-cut])
    capsys.readouterr()
    assert main(["analyze", str(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {raw}, line 8 has no line end: the file is cut short\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["raw.tsv", "raw.tsv.meta.json"]
    sidecar_path(raw).unlink()  # without the sidecar, a last line without a line end is read as a row
    assert main(["analyze", str(raw), "--out", str(out)]) == 0
    assert len(read_columns(out)["phi"]) == 7


def test_unwritable_output_exits_nonzero(capsys):
    code = main(["discriminate", "--ideal", "--pairs", "100", "--epsilon", "0",
                 "--theta-range", "45:45:1", "--out", "/proc/nope/x.tsv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_flow(tmp_path):
    config = {
        "pair_rate": 1000.0,
        "detector_efficiency": 1.0,
        "dark_count_rate": 0.0,
        "angle_jitter": 0.0,
        "seed": 4,
        "analyzer": {"mode_overlap": 0.9},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "from_config.tsv"
    code = main(["discriminate", "--config", str(cfg_path), "--epsilon", "0",
                 "--theta-range", "45:45:1", "--pairs", "10000", "--out", str(out)])
    assert code == 0
    meta = read_sidecar(out)
    assert meta["config"]["analyzer"]["mode_overlap"] == 0.9
    assert meta["seed"] == 4

    cfg_path.write_text(json.dumps({"not_a_field": 1}))
    assert main(["discriminate", "--config", str(cfg_path), "--out", str(out)]) == 1



@pytest.mark.parametrize(
    "config", [{"analyzer": {"mode_overlap": True}}, {"analyzer": {"mode_overlap": False}}]
)
def test_boolean_analyzer_number_exits_nonzero_without_dataset(tmp_path, capsys, config):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "multi.tsv"
    assert main(["multimeter", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["discriminate", "--epsilon", "12", "--theta-range", "0:90:45"],
        ["multimeter", "--phi-range=-90:90:45", "--eta", "0.5"],
        ["hom-scan", "--range=-100:100:50"],
    ],
)
def test_sidecar_config_is_the_config_the_counts_were_drawn_at(tmp_path, argv):
    # --pairs replaces a config file's pair_rate for every command, so the
    # sidecar records the rate the counts were drawn at and reruns the command
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"pair_rate": 1234.0, "period": 0.5, "repetitions": 4}))
    flags = argv + ["--pairs", "200", "--seed", "5", "--config", str(cfg_path)]
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    assert main(flags + ["--out", str(first)]) == 0
    config = read_sidecar(first)["config"]
    assert config["pair_rate"] * config["period"] * config["repetitions"] == pytest.approx(200.0, rel=1e-12)
    cfg_path.write_text(json.dumps(config))
    assert main(flags + ["--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def test_nan_pairs_exit_nonzero_without_dataset(tmp_path, capsys):
    out = tmp_path / "nan.tsv"
    code = main(["discriminate", "--ideal", "--epsilon", "0", "--theta-range", "45:45:1",
                 "--pairs", "nan", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_repetitions_in_config_exit_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"repetitions": 2.5}))
    code = main(["discriminate", "--config", str(cfg_path), "--epsilon", "0",
                 "--theta-range", "45:45:1", "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sidecar, message",
    [("{bad", "is not JSON: Expecting property name"), ("[1, 2]", "holds no JSON object")],
    ids=["no-json", "no-object"],
)
def test_analyze_names_a_bad_sidecar(tmp_path, capsys, sidecar, message):
    path = tmp_path / "counts.tsv"
    write_columns(path, COUNT_HEADER, [[c] for c in [400, 0, 0, 380, 300, 200, 150, 350]])
    sidecar_path(path).write_text(sidecar)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar_path(path)} {message}") and len(err.splitlines()) == 1


def test_analyze_refuses_a_header_that_is_not_the_columns_of_its_sidecar(tmp_path, capsys):
    # a header with c_mp and c_pm swapped read each count as the other and exited 0
    path, out = tmp_path / "m.tsv", tmp_path / "est.tsv"
    assert main(["multimeter", "--phi-range=-90:90:90", "--pairs", "1000", "--out", str(path)]) == 0
    header, rows = path.read_text().split("\n", 1)
    columns = [{"c_mp": "c_pm", "c_pm": "c_mp"}.get(name, name) for name in header.split("\t")]
    path.write_text("\t".join(columns) + "\n" + rows)
    capsys.readouterr()
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    recorded = read_sidecar(path)["columns"]
    assert recorded == header.split("\t")
    assert capsys.readouterr() == (
        "", f"error: {path}: header {columns} differs from the columns {recorded} that {sidecar_path(path)} records\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("sidecar", ["without-columns", "none"])
def test_analyze_of_a_table_whose_sidecar_records_no_columns_reads_its_header(tmp_path, sidecar):
    path = tmp_path / "m.tsv"
    assert main(["multimeter", "--phi-range=-90:90:90", "--pairs", "1000", "--out", str(path)]) == 0
    assert main(["analyze", str(path), "--out", str(tmp_path / "with-columns.tsv")]) == 0
    metadata = read_sidecar(path)
    del metadata["columns"]
    sidecar_path(path).write_text(json.dumps(metadata))
    if sidecar == "none":
        sidecar_path(path).unlink()
    assert main(["analyze", str(path), "--out", str(tmp_path / "est.tsv")]) == 0
    assert (tmp_path / "est.tsv").read_bytes() == (tmp_path / "with-columns.tsv").read_bytes()


@pytest.mark.parametrize(
    "text, key",
    [('{"seed": 1, "seed": 2}', "seed"), ('{"analyzer": {"mode_overlap": 0.9, "mode_overlap": 0.8}}', "mode_overlap")],
    ids=["top-level", "analyzer"],
)
def test_config_that_repeats_a_key_names_the_file_and_the_key(tmp_path, capsys, text, key):
    # json.loads keeps the last of two equal keys: the first config ran with seed 2 and exited 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    out = tmp_path / "x.tsv"
    assert main(["discriminate", "--config", str(cfg_path), "--pairs", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: duplicate key {key!r}\n"
    assert sorted(tmp_path.iterdir()) == [cfg_path]


def test_config_that_is_not_json_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{bad")
    out = tmp_path / "x.tsv"
    assert main(["discriminate", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path} is not JSON: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "content, error, message",
    [
        ([], SchemaViolationError, "a config must be a JSON object, got list"),
        ({"x": 1}, SchemaViolationError, "unknown config key 'x'"),
        ({"seed": -1}, ValueError, "seed must lie in [0, inf), got -1"),
        # at efficiency 0 the sweep wrote a table of zero counts and exited 0
        ({"detector_efficiency": 0}, ValueError, "detector_efficiency must lie in (0, 1], got 0"),
        # a JSON integer beyond the float range overflowed math.isfinite into a traceback
        ({"pair_rate": 10**400}, ValueError, f"pair_rate must be a finite number, got {10**400}"),
        ({"analyzer": {"mode_overlap": 10**400}}, ValueError, f"mode_overlap must be a finite number, got {10**400}"),
        ({"dip_sigma": 1e200}, ValueError, "dip_sigma must lie in [1e-100, 1e100], got 1e+200"),
        ({"angle_jitter": 1e308}, ValueError, "angle_jitter must lie in [0, 180], got 1e+308"),
        ({"analyzer": {"transmittance_h": 1}}, ValueError, "transmittance_h must lie in (0, 1), got 1"),
    ],
    ids=[
        "list", "unknown-key", "negative-seed", "zero-efficiency", "huge-pair-rate", "huge-mode-overlap",
        "wide-dip", "huge-jitter", "open-splitter",
    ],
)
def test_config_errors_name_the_file(tmp_path, capsys, content, error, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(content))
    out = tmp_path / "x.tsv"
    argv = ["discriminate", "--config", str(cfg_path), "--out", str(out)]
    with pytest.raises(error) as raised:
        _load_config(build_parser().parse_args(argv))
    assert type(raised.value) is error and str(raised.value) == f"{cfg_path}: {message}"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
    assert not out.exists()


def run_with_config(tmp_path, config, argv, name):
    """The exit code of `argv` with `config` as its --config file, both written as `name`, and the TSV it wrote."""
    cfg_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.tsv"
    cfg_path.write_text(json.dumps(config))
    code = main(argv + ["--config", str(cfg_path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize(
    "config, flags, same_as",
    [
        # --pairs sets the rate, so the file's rate took part in the worst-case-mean rule alone and failed it
        ({"pair_rate": 1e17, "repetitions": 100}, [], {"repetitions": 100}),
        # --ideal sets angle_jitter to 0, where the jittered-repetitions rule does not hold
        ({"repetitions": 5000}, ["--ideal"], {"repetitions": 5000, "angle_jitter": 0.0}),
        # --ideal sets dark_count_rate to 0, so there are no accidentals to pass the worst-case mean
        ({"dark_count_rate": 1e12, "coincidence_window": 1.0}, ["--ideal"], {"coincidence_window": 1.0}),
    ],
    ids=["replaced-pair-rate", "ideal-jitter", "ideal-dark-rate"],
)
def test_the_joint_rules_hold_the_config_drawn_at_not_replaced_file_values(tmp_path, capsys, config, flags, same_as):
    argv = ["multimeter", "--phi-range=0"] + flags
    code, tsv = run_with_config(tmp_path, config, argv, "config")
    assert (code, capsys.readouterr().err) == (0, "")
    assert tsv == run_with_config(tmp_path, same_as, argv, "same-as")[1]


@pytest.mark.parametrize(
    "config, flags, names_file, message",
    [
        ({"seed": -1}, ["--seed", "5"], True, "seed must lie in [0, inf), got -1"),
        # a bad file value fails by name although --ideal would replace it
        ({"detector_efficiency": 0}, ["--ideal"], True, "detector_efficiency must lie in (0, 1], got 0"),
        ({"analyzer": {"mode_overlap": 2}}, ["--ideal"], True, "mode_overlap must lie in [0, 1], got 2"),
        ({"seed": 3}, ["--seed=-3"], False, "seed must lie in [0, inf), got -3"),
        # the file's repetitions are fine alone; --pairs gives the rate that breaks the worst-case mean
        ({"repetitions": 100}, ["--pairs", "1e19"], False,
         "pair_rate * period * repetitions + 2 * dark_count_rate^2 * coincidence_window * period * repetitions"
         " must stay below 1e+18, got 1e+19"),
    ],
    ids=["file-seed", "ideal-efficiency", "ideal-mode-overlap", "flag-seed", "flag-pairs"],
)
def test_a_config_error_names_the_file_only_when_a_file_value_causes_it(tmp_path, capsys, config, flags, names_file,
                                                                         message):
    code, tsv = run_with_config(tmp_path, config, ["multimeter", "--phi-range=0"] + flags, "config")
    assert (code, tsv) == (1, None)
    named = f"{tmp_path / 'config.json'}: " if names_file else ""
    assert capsys.readouterr().err == f"error: {named}{message}\n"


@pytest.mark.parametrize("flags", [[], ["--ideal"], ["--seed", "6"], ["--ideal", "--seed", "6"]])
def test_the_config_drawn_at_is_the_file_config_idealized_reseeded_and_rated(tmp_path, flags):
    # where each step is a valid config, as here, the one merge equals building the file's config and
    # then applying --ideal (which keeps the detector_map), --seed and --pairs to it in turn
    data = {"seed": 11, "repetitions": 20, "analyzer": {"detector_map": ["D4", "D2", "D1", "D3"], "mode_overlap": 0.9}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    expected = config_from_dict(data)
    expected = expected.idealized() if "--ideal" in flags else expected
    expected = replace(expected, seed=6) if "--seed" in flags else expected
    args = build_parser().parse_args(["hom-scan", "--config", str(cfg_path), "--pairs", "2000", *flags])
    assert _load_config(args) == with_pairs_per_point(expected, 2000)


# the config keys that a flag replaces, with that flag: pair_rate under --pairs, which every command has by
# default, seed under --seed, and the fields --ideal switches off, of the analyzer all but detector_map
REPLACED = [
    (ExperimentConfig, "pair_rate", []),
    (ExperimentConfig, "seed", ["--seed", "5"]),
    *((ExperimentConfig, name, ["--ideal"]) for name in ("detector_efficiency", "dark_count_rate", "angle_jitter")),
    *((AnalyzerConfig, f.name, ["--ideal"]) for f in fields(AnalyzerConfig) if f.name != "detector_map"),
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_file_value_that_a_flag_replaces_leaves_the_output_as_it_is(data):
    owner, name, flags = data.draw(st.sampled_from(REPLACED))
    f = next(f for f in fields(owner) if f.name == name)
    value = data.draw(st.booleans() if f.type == "bool" else inside_bounds(f))
    config = {name: value} if owner is ExperimentConfig else {"analyzer": {name: value}}
    argv = CONTRACT_SWEEPS[data.draw(st.sampled_from(sorted(CONTRACT_SWEEPS)))] + flags
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        code, tsv = run_with_config(Path(tmp), config, argv, "config")
        assert code == 0, (config, argv)
        assert tsv == run_with_config(Path(tmp), {}, argv, "without")[1], (config, argv)


# the keys of a drawn config file: each field with "bounds" metadata, each bool field and the detector_map
FILE_FIELDS = [
    (owner, f) for owner in (ExperimentConfig, AnalyzerConfig) for f in fields(owner)
    if "bounds" in f.metadata or f.type == "bool" or f.name == "detector_map"
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_drawn_config_file_and_flags_load_as_the_file_config_idealized_reseeded_and_rated(data):
    # where building the file's config and applying --ideal, --seed and --pairs to it in turn raises
    # nothing, the one merge gives its result; where the merge raises, so does that chain
    file = {}
    for owner, f in data.draw(st.lists(st.sampled_from(FILE_FIELDS), unique=True)):
        if f.name == "detector_map":
            value = data.draw(st.permutations(DETECTORS))
        else:
            value = data.draw(st.booleans() if f.type == "bool" else inside_bounds(f))
        (file if owner is ExperimentConfig else file.setdefault("analyzer", {}))[f.name] = value
    ideal = data.draw(st.booleans())
    seed = data.draw(st.one_of(st.none(), st.integers(-3, 2**64)))
    pairs = data.draw(st.one_of(st.none(), st.floats(1e-3, 1e20)))
    flags = (["--ideal"] if ideal else []) + ([] if seed is None else [f"--seed={seed}"])
    flags += [] if pairs is None else [f"--pairs={pairs!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(file))
        args = build_parser().parse_args(["hom-scan", "--config", str(cfg_path), *flags])
        try:
            chain = config_from_dict(file)
            chain = chain.idealized() if ideal else chain
            chain = chain if seed is None else replace(chain, seed=seed)
            chain = with_pairs_per_point(chain, args.pairs)
        except ValueError:
            chain = None
        try:
            loaded = _load_config(args)
        except ValueError:
            assert chain is None, (file, flags)
        else:
            assert chain is None or loaded == chain, (file, flags)


def test_analyze_names_an_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path} is empty\n")


def test_analyze_names_a_data_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bin.tsv"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8 text: ") and len(err.splitlines()) == 1


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


def test_analyze_ignores_a_byte_order_mark(tmp_path):
    # a marked TSV and a marked sidecar give the analysis of the unmarked pair, byte for byte
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    assert main(["multimeter", "--phi-range=-90:90:30", "--pairs", "1000", "--out", str(plain)]) == 0
    marked.write_bytes(BOM + plain.read_bytes())
    sidecar_path(marked).write_bytes(BOM + sidecar_path(plain).read_bytes())
    for path in (plain, marked):
        assert main(["analyze", str(path), "--out", str(tmp_path / f"a-{path.name}")]) == 0
    analyzed = (tmp_path / "a-plain.tsv").read_bytes()
    assert analyzed.startswith(b"phi\teta\t") and (tmp_path / "a-marked.tsv").read_bytes() == analyzed


def test_a_byte_order_mark_before_a_count_column_is_read(tmp_path, capsys):
    path = tmp_path / "counts.tsv"
    write_columns(path, COUNT_HEADER, [[c] for c in [400, 0, 0, 380, 300, 200, 150, 350]])
    assert main(["analyze", str(path)]) == 0
    expected = capsys.readouterr().out
    path.write_bytes(BOM + path.read_bytes())
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_a_config_with_a_byte_order_mark_loads(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(BOM + json.dumps({"angle_jitter": 0.0, "seed": 5}).encode())
    args = build_parser().parse_args(["discriminate", "--config", str(cfg_path)])
    config = _load_config(args)
    assert (config.angle_jitter, config.seed) == (0.0, 5)


def test_every_command_names_the_encoding_of_its_files(tmp_path):
    # under -X warn_default_encoding an open() without encoding= warns, and
    # read text in the locale's encoding, not UTF-8
    config, data = tmp_path / "config.json", str(tmp_path / "multimeter.tsv")
    config.write_text(json.dumps({"angle_jitter": 0.0}), encoding="utf-8")
    runs = [
        ["discriminate", "--config", str(config), "--theta-range", "0:90:45", "--pairs", "1000",
         "--out", str(tmp_path / "discriminate.tsv")],
        ["multimeter", "--ideal", "--phi-range=-90:90:30", "--pairs", "1000", "--out", data],
        ["hom-scan", "--range=-50:50:25", "--pairs", "1000", "--out", str(tmp_path / "hom.tsv")],
        ["analyze", data, "--out", str(tmp_path / "estimates.tsv")],
        ["analyze", data],
    ]
    script = "import json, sys; from bellmeter.cli import main; sys.exit(max(map(main, json.loads(sys.argv[1]))))"
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", script,
         json.dumps(runs)],
        env=CLI_ENV, capture_output=True, text=True,
    )
    assert done.returncode == 0 and done.stderr == ""
    # four summary lines, then the TSV of `analyze` without --out
    assert (tmp_path / "estimates.tsv").read_text(encoding="utf-8") == done.stdout.split("\n", 4)[4]


def test_config_that_is_not_an_object_exit_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps([1, 2]))
    code = main(["discriminate", "--config", str(cfg_path), "--epsilon", "0",
                 "--theta-range", "45:45:1", "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, argv, expected",
    [
        # an efficiency whose square underflows wrote 12 rows of zero counts and exited 0
        ({"detector_efficiency": 1e-150}, ["discriminate", "--theta-range", "0:90:45"], 0.002),
        ({"detector_efficiency": 1e-200}, ["discriminate", "--theta-range", "0:90:45"], 0.002),
        # at the default config one pair expects at most 0.25 + 0.002 coincidences
        (None, ["multimeter", "--pairs", "1"], 0.252),
    ],
    ids=["efficiency-1e-150", "efficiency-1e-200", "one-pair"],
)
def test_a_sweep_that_can_expect_no_coincidence_fails(tmp_path, capsys, config, argv, expected):
    out = tmp_path / "x.tsv"
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg_path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector_efficiency^2 * pairs + 2 * dark_count_rate^2") and "at least 1" in err
    assert err.endswith(f", so that an input setting can expect a coincidence, got {expected}\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()
    assert main(argv + ["--ideal", "--pairs", "1", "--out", str(out)]) == 0  # efficiency 1, one pair


@pytest.mark.parametrize(
    "argv",
    [
        ["multimeter", "--phi-range=0:0:1", "--pairs", "0"],
        ["discriminate", "--epsilon", "0", "--theta-range", "0:0:1", "--pairs", "-100"],
        ["hom-scan", "--pairs", "0"],
        ["multimeter", "--phi-range=0:0:1", "--pairs", "nan"],
    ],
)
def test_non_positive_pairs_exit_nonzero_without_dataset(tmp_path, capsys, argv):
    out = tmp_path / "zero.tsv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pairs per point" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_huge_pairs_fail_before_sampling(tmp_path, capsys):
    out = tmp_path / "huge.tsv"
    code = main(["discriminate", "--epsilon", "0", "--theta-range", "0:0:1",
                 "--pairs", "1e300", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pair_rate" in err and "lam" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, pairs, shown",
    [
        ({"period": 1e-320}, [], "100000 / (1e-320 * 10)"),
        ({"period": 1e-10}, ["--pairs", "1e300"], "1e+300 / (1e-10 * 10)"),
        # period * repetitions overflows, and the rate of 0 would write a table of zero counts
        ({"period": 1e308, "dark_count_rate": 0}, [], "100000 / (1e+308 * 10)"),
    ],
    ids=["tiny-period", "huge-pairs", "huge-period"],
)
def test_a_rate_that_overflows_is_named_by_its_inputs(tmp_path, capsys, config, pairs, shown):
    # the quotient --pairs / (period * repetitions) is no finite rate above 0; the error names its three numbers,
    # not pair_rate, which the user never set, and not the file, as a joint rule at the --pairs rate
    (tmp_path / "c.json").write_text(json.dumps(config))
    out = tmp_path / "m.tsv"
    assert main(["multimeter", "--config", str(tmp_path / "c.json"), "--phi-range=0", *pairs, "--out", str(out)]) == 1
    want = f"error: pairs per point / (period * repetitions) must be a finite rate above 0, got {shown}\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["discriminate", "--epsilon", "nan"],
        ["hom-scan", "--positions", "inf"],
        ["hom-scan", "--positions", "nan,0"],
        ["multimeter", "--phi-range", "nan"],
        ["hom-scan", "--range", "inf"],
    ],
)
def test_non_finite_grid_values_exit_nonzero_without_dataset(tmp_path, capsys, argv):
    out = tmp_path / "bad.tsv"
    assert main(argv + ["--pairs", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{argv[-1]!r}" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_analyze_into_a_closed_pipe_exits_quietly(tmp_path):
    # `bellmeter analyze counts.tsv | head -n 1`: the output is far larger than a
    # pipe buffer, so the writer is still writing when the reader closes its end
    counts = tmp_path / "counts.tsv"
    write_columns(counts, COUNT_HEADER, [np.full(20_000, c) for c in [400, 0, 0, 380, 300, 200, 150, 350]])
    with subprocess.Popen(
        [sys.executable, "-m", "bellmeter.cli", "analyze", str(counts)],
        env=CLI_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as analyze:
        first = analyze.stdout.readline()
        analyze.stdout.close()
        err = analyze.stderr.read()
        assert analyze.wait(timeout=60) == 1
    assert first == "\t".join(ESTIMATE_HEADER) + "\n"
    assert err == ""


# The process entry, cli.run, ends the process with os._exit once main() returns.  Its
# children run with block-buffered stdout, as without PYTHONUNBUFFERED, so output that
# run() failed to flush would be lost.
BUFFERED_ENV = {name: value for name, value in CLI_ENV.items() if name != "PYTHONUNBUFFERED"}


def run_entry(args, cwd, **kwargs):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=BUFFERED_ENV, capture_output=True, timeout=120, **kwargs
    )


def test_the_process_entry_writes_what_main_writes(tmp_path, capsys, monkeypatch):
    argv = ["multimeter", "--eta", "0.5", "--phi-range=-90:90:30", "--pairs", "1000", "--seed", "3", "--out", "m.tsv"]
    child, here = tmp_path / "child", tmp_path / "here"
    child.mkdir()
    here.mkdir()
    done = run_entry(["-m", "bellmeter.cli", *argv], child, text=True)
    monkeypatch.chdir(here)
    assert main(argv) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    assert done.stdout == "wrote 7 rows to m.tsv\n"
    assert (child / "m.tsv").read_bytes() == (here / "m.tsv").read_bytes()
    sidecars = [read_sidecar(where / "m.tsv") for where in (child, here)]
    for sidecar in sidecars:
        del sidecar["timestamp"]
    assert sidecars[0] == sidecars[1]


# runs the command of its arguments through run(), its second block of counts interrupted as by Ctrl-C
INTERRUPT_SECOND_BLOCK = """
import sys
from bellmeter import cli, experiment
draw, calls = experiment._draw_block, []
def draw_until_the_second_block(*args):
    calls.append(args)
    if len(calls) == 2:
        raise KeyboardInterrupt
    return draw(*args)
experiment._draw_block = draw_until_the_second_block
cli.run()
"""


def test_an_interrupted_sweep_exits_130_and_keeps_the_previous_output(tmp_path, monkeypatch):
    # 901 points of 10 jittered periods run in 3 blocks; an interrupt printed a traceback and died by SIGINT
    argv = ["discriminate", "--epsilon", "0", "--theta-range", "0:90:0.1", "--pairs", "100", "--out", "d.tsv"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    done = run_entry(["-c", INTERRUPT_SECOND_BLOCK, *argv], tmp_path, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (130, "", "error: interrupted\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def interrupt(*args):
        raise KeyboardInterrupt

    # in the process, main() lets the interrupt propagate
    monkeypatch.setattr("bellmeter.experiment._draw_block", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_the_tsv_on_a_stdout_pipe_equals_the_out_file(tmp_path):
    counts, out = tmp_path / "counts.tsv", tmp_path / "est.tsv"
    write_columns(counts, COUNT_HEADER, [np.arange(20_000) % (c + 1) for c in [400, 0, 0, 380, 300, 200, 150, 350]])
    done = run_entry(["-m", "bellmeter.cli", "analyze", str(counts)], tmp_path)
    assert main(["analyze", str(counts), "--out", str(out)]) == 0
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.read_bytes()
    assert len(done.stdout.splitlines()) == 20_001


# how a child's stdout or stderr is set up before the command runs in its place (os.execv)
DESCRIPTORS = {
    "closed": "os.close(1)",
    "full": "os.dup2(os.open('/dev/full', os.O_WRONLY), 1)",
    "closed-pipe": "read, write = os.pipe(); os.close(read); os.dup2(write, 1)",  # the reader has gone
    "stderr-closed": "os.close(2)",
    "stderr-full": "os.dup2(os.open('/dev/full', os.O_WRONLY), 2)",
}
ONE_POINT = ["multimeter", "--phi-range=0", "--pairs", "1000", "--out", "m.tsv"]


@pytest.mark.parametrize(
    "argv, descriptor, code, stderr",
    [
        (["multimeter", "--eta", "2", "--out", "x.tsv"], None, 1, "error: eta must lie in [0, 1], got 2.0\n"),
        (["discriminate", "--config", "huge.json", "--out", "x.tsv"], None, 1,
         f"error: huge.json: pair_rate must be a finite number, got {10**400}\n"),
        (["multimeter", "--bogus"], None, 2, "bellmeter: error: unrecognized arguments: --bogus\n"),
        (["hom-scan", "--positions=0,1,2,3,4", "--range=0:100:1", "--out", "x.tsv"], None, 2,
         "bellmeter hom-scan: error: argument --range: not allowed with argument --positions\n"),
        # a stdout that cannot take the TSV or the summary line fails every command alike:
        # one error line, or none once the reader of the pipe has gone
        (["analyze", "counts.tsv"], "closed", 1, "error: [Errno 9] Bad file descriptor: '<stdout>'\n"),
        (["analyze", "counts.tsv"], "full", 1, "error: [Errno 28] No space left on device\n"),
        (ONE_POINT, "closed", 1, "error: [Errno 9] Bad file descriptor: '<stdout>'\n"),
        (ONE_POINT, "full", 1, "error: [Errno 28] No space left on device\n"),
        (ONE_POINT, "closed-pipe", 1, ""),
        # a stderr that cannot take the error line loses it, and the code stays 1
        (["multimeter", "--eta", "2", "--out", "x.tsv"], "stderr-full", 1, ""),
        (["multimeter", "--eta", "2", "--out", "x.tsv"], "stderr-closed", 1, ""),
    ],
    ids=[
        "bad-eta", "huge-pair-rate", "usage", "positions-and-range", "analyze-closed-stdout",
        "analyze-full-stdout", "summary-closed-stdout", "summary-full-stdout", "summary-closed-pipe",
        "stderr-full", "stderr-closed",
    ],
)
def test_the_process_entry_exits_with_the_code_of_a_failure(tmp_path, argv, descriptor, code, stderr):
    (tmp_path / "huge.json").write_text(json.dumps({"pair_rate": 10**400}))
    # one row, so its analysis fits in stdout's buffer, where a failed write stays for a later flush to retry
    write_columns(tmp_path / "counts.tsv", COUNT_HEADER, [[c] for c in [400, 0, 0, 380, 300, 200, 150, 350]])
    args = ["-m", "bellmeter.cli", *argv]
    if descriptor is not None:
        launch = f"import os, sys; {DESCRIPTORS[descriptor]}; os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
        args = ["-S", "-c", launch, *args]
    done = run_entry(args, tmp_path, text=True)
    assert (done.returncode, done.stdout) == (code, "")
    if code == 2:  # argparse's usage, then its error line
        assert done.stderr.startswith("usage: ") and done.stderr.endswith(stderr)
    else:
        assert done.stderr == stderr
    assert not (tmp_path / "x.tsv").exists()


@pytest.mark.parametrize("stderr", ["full", "closed"])
def test_main_returns_1_when_stderr_cannot_take_the_error_line(tmp_path, capsys, monkeypatch, stderr):
    # the line is dropped, not raised and not written to stdout (where print(file=None) writes)
    with open("/dev/full", "w", buffering=1) as full:  # line-buffered, as a process's stderr is
        monkeypatch.setattr(sys, "stderr", full if stderr == "full" else None)
        descriptors = len(os.listdir("/proc/self/fd"))
        assert main(["multimeter", "--eta", "2", "--out", str(tmp_path / "x.tsv")]) == 1
        assert len(os.listdir("/proc/self/fd")) == descriptors  # the one opened on devnull is closed
        monkeypatch.undo()
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []


def test_the_process_entry_runs_the_atexit_handlers(tmp_path):
    script = (
        "import atexit, sys; from bellmeter.cli import run; "
        "atexit.register(print, 'atexit handler ran'); "
        "sys.argv[1:] = ['multimeter', '--phi-range=0', '--pairs', '1000', '--out', 'm.tsv']; run()"
    )
    done = run_entry(["-c", script], tmp_path, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "wrote 1 rows to m.tsv\natexit handler ran\n", "")


def test_main_returns_its_code_and_leaves_the_process_running(tmp_path):
    script = (
        "from bellmeter.cli import main; "
        "print([main(['multimeter', '--phi-range=0', '--pairs', '1000', '--out', 'm.tsv']), "
        "main(['multimeter', '--eta', '2', '--out', 'x.tsv'])])"
    )
    done = run_entry(["-c", script], tmp_path, text=True)
    assert done.returncode == 0
    assert done.stdout == "wrote 1 rows to m.tsv\n[0, 1]\n"
    assert done.stderr == "error: eta must lie in [0, 1], got 2.0\n"


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_is_named(tmp_path, capsys, where):
    out = tmp_path / "seed.tsv"
    argv = ["multimeter", "--phi-range=0:0:1", "--pairs", "100", "--out", str(out)]
    if where == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not out.exists()


def test_analyze_names_a_non_numeric_cell(tmp_path, capsys):
    path = tmp_path / "counts.tsv"
    header = "c_pp\tc_mp\tc_pm\tc_mm\tsh_pp\tsh_mp\tsh_pm\tsh_mm\n"
    path.write_text(header + "400\t0\t0\t380\t300\t200\t150\t350\n" + "1\t2\tabc\t4\t5\t6\t7\t8\n")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(path) in err and "line 3" in err and "'c_pm'" in err and "'abc'" in err


@pytest.mark.parametrize("bad", [math.nan, math.inf, [1.0, -math.inf]])
def test_dataset_with_non_json_metadata_writes_nothing(tmp_path, bad):
    path = tmp_path / "sub" / "bad.tsv"
    with pytest.raises(ValueError, match="strict JSON"):
        write_columns(path, ["x"], [[1.0]], {"visibility": bad})
    assert not path.parent.exists()


def test_metadata_that_is_not_strict_json_is_named_with_its_value(tmp_path):
    # the check before the first block gives the indented encoder's whole message
    out = tmp_path / "sub" / "bad.tsv"
    with pytest.raises(ValueError) as raised:
        write_columns(out, ["x"], [[1.0]], {"visibility": math.nan})
    message = f"metadata of {out} is not strict JSON: Out of range float values are not JSON compliant: nan"
    assert str(raised.value) == message
    assert not out.parent.exists()


def test_a_late_sidecar_key_that_is_not_json_leaves_the_previous_output(tmp_path, capsys, monkeypatch):
    # the fitted visibilities join the sidecar keys after the last block is written
    out = tmp_path / "hom.tsv"
    argv = ["hom-scan", "--range=-50:50:25", "--pairs", "100", "--out", str(out)]
    assert main(argv + ["--seed", "3"]) == 0
    before = {file.name: file.read_bytes() for file in tmp_path.iterdir()}
    monkeypatch.setattr("bellmeter.experiment._fit_visibility", lambda *args: (math.nan, 0.0))
    capsys.readouterr()
    assert main(argv + ["--seed", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: metadata of {out} is not strict JSON") and len(err.splitlines()) == 1
    assert {file.name: file.read_bytes() for file in tmp_path.iterdir()} == before


ANALYZE_HEADER = "theta\t" + "\t".join(COUNT_HEADER)
ANALYZE_ROW = ["12.5", "13", "0", "0", "380", "300", "200", "150", "350"]


@pytest.mark.parametrize(
    "column, cell, error",
    [
        ("c_pm", "abc", "line 5000, column 'c_pm': 'abc' is not a number"),
        ("sh_mm", None, "line 5000: 8 cells, but the header has 9"),
        ("c_pp", "13.7", "line 5000, column 'c_pp': '13.7' is not a nonnegative integer below 2**63"),
        ("c_pp", "-1", "line 5000, column 'c_pp': '-1' is not a nonnegative integer below 2**63"),
        ("c_pp", "nan", "line 5000, column 'c_pp': 'nan' is not a nonnegative integer below 2**63"),
        ("c_pp", "inf", "line 5000, column 'c_pp': 'inf' is not a nonnegative integer below 2**63"),
        ("c_pp", str(2**63), f"line 5000, column 'c_pp': '{2**63}' is not a nonnegative integer below 2**63"),
        ("c_pp", "13.0", None),
        ("theta", "12", None),
        ("theta", "nan", "line 5000, column 'theta': 'nan' is not a finite number"),
        ("theta", "inf", "line 5000, column 'theta': 'inf' is not a finite number"),
        ("theta", "1e400", "line 5000, column 'theta': '1e400' is not a finite number"),
        # every count cell of every line as <n>.0, so each block goes through the int()/float() parse
        ("every count", "{}.0", None),
    ],
)
def test_analyze_read_rules_hold_past_the_first_block(tmp_path, capsys, column, cell, error):
    # line 5000 lies in the second block of 4096 rows that are parsed together
    rows = [list(ANALYZE_ROW) for _ in range(4999)]
    if column == "every count":
        rows = [row[:1] + [cell.format(count) for count in row[1:]] for row in rows]
    else:
        index = ["theta", *COUNT_HEADER].index(column)
        if cell is None:
            del rows[-1][index:]
        else:
            rows[-1][index] = cell
    path = tmp_path / "counts.tsv"
    path.write_text("\n".join([ANALYZE_HEADER] + ["\t".join(row) for row in rows]) + "\n")
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    if error:
        assert code == 1 and captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and error in captured.err
        if "line" in error:
            assert captured.err == f"error: {path}, {error}\n"
        return
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "theta\t" + "\t".join(ESTIMATE_HEADER) and len(lines) == 5000
    # 13.0 counts as 13; a coordinate is carried over as the text that was read
    first, last = lines[1].split("\t"), lines[-1].split("\t")
    assert first[0] == "12.5" and last[0] == ("12" if column == "theta" else "12.5")
    assert last[1:] == first[1:] and len(set(lines[1:-1])) == 1
    # each line is the analysis of the counts as integers, so the output is that of an all-integer file
    assert first[1:] == [format(v, ".13") for v in CountRecord(*map(int, ANALYZE_ROW[1:])).estimates()]


def test_analyze_names_the_first_bad_count_row_by_row(tmp_path, capsys):
    # blank lines count as lines; of two bad counts, the one on the earlier line is named, whatever its column
    rows = ["\t".join(ANALYZE_ROW)] * 5
    rows[2] = "\t".join(ANALYZE_ROW[:-1] + ["2.5"])
    rows[4] = "\t".join(["12.5", "-3"] + ANALYZE_ROW[2:])
    path = tmp_path / "counts.tsv"
    path.write_text("\n".join([ANALYZE_HEADER, "", rows[0], "", *rows[1:]]) + "\n")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}, line 6, column 'sh_mm': '2.5' is not a nonnegative integer below 2**63\n"
    )


@pytest.mark.parametrize(
    "later, message",
    [
        (["nan"] + ANALYZE_ROW[1:], "line 4, column 'theta': 'nan' is not a finite number"),
        (ANALYZE_ROW[:-1], "line 4: 8 cells, but the header has 9"),
    ],
    ids=["coordinate-not-finite", "short-row"],
)
def test_analyze_checks_the_reader_rules_of_a_block_before_its_counts(tmp_path, capsys, later, message):
    # within one block, row width, cells that are no number and coordinates that are not finite are checked on
    # every row before any count is: a reader error on line 4 wins over the negative count on line 3
    path = tmp_path / "counts.tsv"
    bad_count = ["12.5", "-1"] + ANALYZE_ROW[2:]
    path.write_text("\n".join([ANALYZE_HEADER, "\t".join(ANALYZE_ROW), "\t".join(bad_count), "\t".join(later)]) + "\n")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}, {message}\n")


def test_analyze_prints_what_it_writes(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    assert main(["multimeter", "--ideal", "--eta", "0.5", "--pairs", "2", "--seed", "1",
                 "--out", str(raw)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(raw)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "analyzed.tsv"
    assert main(["analyze", str(raw), "--out", str(out)]) == 0
    assert printed == out.read_text()
    assert "nan" in printed


def test_an_empty_out_streams_the_tsv(tmp_path, capsys, monkeypatch):
    # `--out=` names no file: the TSV goes to stdout, as for `analyze` without --out
    monkeypatch.chdir(tmp_path)
    argv = ["discriminate", "--ideal", "--epsilon", "0", "--theta-range", "0:90:45", "--pairs", "10", "--seed", "1"]
    assert main(argv + ["--out", "raw.tsv"]) == 0
    capsys.readouterr()
    assert main(argv + ["--out="]) == 0
    assert capsys.readouterr().out == Path("raw.tsv").read_text()
    assert main(["analyze", "raw.tsv", "--out="]) == 0
    streamed = capsys.readouterr().out
    assert main(["analyze", "raw.tsv"]) == 0
    assert capsys.readouterr().out == streamed and streamed.startswith("epsilon\ttheta\tp_succ\t")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["raw.tsv", "raw.tsv.meta.json"]


def test_analyze_summary_counts_nan_rows_per_estimate(tmp_path, capsys):
    path = tmp_path / "counts.tsv"
    rows = [
        [400, 0, 0, 380, 300, 200, 150, 350],
        [1, 2, 3, 4, 0, 0, 5, 6],  # no plus shoulder: P_succ and P_I undefined
        [0, 0, 0, 0, 1, 1, 1, 1],  # no conclusive count: the error rate undefined
        [0, 0, 0, 0, 1, 1, 1, 1],
    ]
    write_columns(path, COUNT_HEADER, [list(column) for column in zip(*rows)])
    out = tmp_path / "est.tsv"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote 4 rows to {out} (NaN rows: p_succ 1, p_succ_stderr 1, p_inconclusive 1,"
        " pi_stderr 1, error_rate 2, error_rate_stderr 2)\n"
    )


def test_analyze_rejects_a_duplicate_column_name(tmp_path, capsys):
    path = tmp_path / "counts.tsv"
    path.write_text(ANALYZE_HEADER + "\tc_pp\n" + "\t".join(ANALYZE_ROW) + "\t7\n")
    out = tmp_path / "est.tsv"
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path}: column 'c_pp' appears twice\n"
    assert not out.exists()


def test_analyze_names_the_file_missing_a_count_column(tmp_path, capsys):
    path = tmp_path / "counts.tsv"
    path.write_text("theta\tc_mp\n12.5\t0\n")
    out = tmp_path / "est.tsv"
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: input dataset is missing required column 'c_pp'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "epsilon, theta_range",
    [("1e308", "1e308"), ("0,1e308", "0:1e308:1e307"), ("-1e308", "-1e308"), ("1e308,-1e308", "-1e308")],
)
def test_overflowing_discriminator_grid_fails_on_one_line(tmp_path, capsys, epsilon, theta_range):
    # (epsilon + theta) / 2 is the half-wave plate angle; the sum must not overflow
    # anywhere on the grid (pytest turns every RuntimeWarning into an error here)
    out = tmp_path / "x.tsv"
    argv = ["discriminate", f"--epsilon={epsilon}", f"--theta-range={theta_range}", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --epsilon + --theta-range overflows the half-wave plate angle\n"
    assert list(tmp_path.iterdir()) == []


def test_discriminator_grid_at_the_largest_finite_sums_runs(tmp_path):
    out = tmp_path / "x.tsv"
    argv = ["discriminate", "--ideal", "--epsilon=1e308,-1e308", "--theta-range=7e307", "--pairs", "10"]
    assert main(argv + ["--out", str(out)]) == 0
    assert read_columns(out)["epsilon"].tolist() == [1e308, -1e308]


DISCRIMINATE_KEYS = {
    "argv", "columns", "command", "config", "pairs_per_point", "rounded", "seed", "task", "timestamp",
}


@pytest.mark.parametrize(
    "argv, keys, summary, rounded",
    [
        (["discriminate", "--epsilon", "0", "--theta-range", "0:90:45", "--seed", "3", "--pairs", "100"],
         DISCRIMINATE_KEYS, "wrote 3 rows to {out}\n",
         ["p_theory", "p_optimal", "p_estimated", "p_stderr", "error_rate", "error_rate_stderr"]),
        (["multimeter", "--phi-range=-90:90:90", "--seed", "3", "--pairs", "100"],
         DISCRIMINATE_KEYS | {"eta"}, "wrote 3 rows to {out}\n",
         ["pi_theory", "fidelity_theory", "pi_estimated", "pi_stderr", "fidelity_estimated", "error_rate",
          "error_rate_stderr"]),
        (["hom-scan", "--range=-50:50:25", "--seed", "3", "--pairs", "100"],
         {"argv", "columns", "command", "config", "curve_visibilities", "fitted_visibility", "rounded", "seed",
          "timestamp"},
         "wrote 5 rows to {out} (fitted visibility {vis})\n", ["rate_pp", "rate_mp", "rate_pm", "rate_mm"]),
        (["analyze", "{counts}"], {"argv", "columns", "command", "input", "rounded", "timestamp"},
         "wrote 1 rows to {out} (NaN rows: p_succ 0, p_succ_stderr 0, p_inconclusive 0, pi_stderr 0,"
         " error_rate 0, error_rate_stderr 0)\n", ESTIMATE_HEADER),
    ],
    ids=["discriminate", "multimeter", "hom-scan", "analyze"],
)
def test_each_command_records_its_sidecar_keys_and_summary(tmp_path, capsys, argv, keys, summary, rounded):
    # `rounded` lists exactly the derived columns: every column but the coordinates and the counts
    counts, out = tmp_path / "counts.tsv", tmp_path / "out.tsv"
    write_columns(counts, COUNT_HEADER, [[c] for c in [400, 0, 0, 380, 300, 200, 150, 350]])
    argv = [arg.format(counts=counts) for arg in argv] + ["--out", str(out)]
    assert main(argv) == 0
    meta = read_sidecar(out)
    assert set(meta) == keys
    assert meta["command"] == argv[0] and meta["argv"] == argv
    assert meta["columns"] == list(read_columns(out))
    assert meta["rounded"] == {"digits": 13, "columns": rounded}
    vis = f"{meta['fitted_visibility']:.4f}" if "fitted_visibility" in meta else None
    assert capsys.readouterr().out == summary.format(out=out, vis=vis)


def test_jittered_repetitions_beyond_a_block_exit_nonzero_without_dataset(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"repetitions": 4097, "angle_jitter": 1.0}))
    out = tmp_path / "x.tsv"
    code = main(["discriminate", "--config", str(cfg_path), "--epsilon", "0",
                 "--theta-range", "45:45:1", "--pairs", "100", "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: {cfg_path}: repetitions must be at most 4096 when angle_jitter > 0, got 4097\n"
    )


@pytest.mark.parametrize(
    "argv, limit",
    [
        # the point count overflows a float; as an int it would need a list of 1e324 points
        (["multimeter", "--phi-range=-1e308:1e308:1e-308"], None),
        (["multimeter", "--phi-range=0:10:1"], 10),
        (["hom-scan", "--range=0:10:1"], 10),
        # each range is within the limit, the epsilon x theta product is not
        (["discriminate", "--epsilon", "0,12,24", "--theta-range", "0:8:2"], 10),
    ],
)
def test_sweep_grid_is_bounded_before_it_is_built(tmp_path, capsys, monkeypatch, argv, limit):
    if limit is not None:
        monkeypatch.setattr("bellmeter.cli._MAX_GRID_POINTS", limit)
    out = tmp_path / "grid.tsv"
    assert main(argv + ["--pairs", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    flag = next(arg.split("=")[0] for arg in reversed(argv) if arg.startswith("--"))
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert flag in err and f"more than {limit or 10**6} points" in err and "_MAX_GRID_POINTS" not in err
    assert not out.exists()


def test_sweep_grid_at_the_limit_runs(tmp_path, monkeypatch):
    monkeypatch.setattr("bellmeter.cli._MAX_GRID_POINTS", 10)
    assert _parse_range("0:9:1").tolist() == [float(v) for v in range(10)]
    out = tmp_path / "grid.tsv"
    argv = ["discriminate", "--ideal", "--epsilon", "0,12", "--theta-range", "0:8:2"]
    assert main(argv + ["--pairs", "100", "--out", str(out)]) == 0
    assert len(read_columns(out)["epsilon"]) == 10


@pytest.mark.parametrize("rows", [0, 3])
def test_analyze_skips_a_block_of_blank_lines(tmp_path, capsys, monkeypatch, rows):
    # with 3 rows per block, the blank lines after 3 rows make a block of their own; blank lines alone
    # hold no data row, which fails with nothing written to stdout
    monkeypatch.setattr("bellmeter.dataset._BLOCK_ROWS", 3)
    path = tmp_path / "counts.tsv"
    path.write_text("\n".join([ANALYZE_HEADER] + ["\t".join(ANALYZE_ROW)] * rows) + "\n\n\n")
    if not rows:
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path} holds no data row\n")
        return
    assert main(["analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta\t" + "\t".join(ESTIMATE_HEADER) and len(lines) == 1 + rows


def test_cli_sweeps_build_no_per_point_objects(tmp_path, monkeypatch):
    # a CLI sweep goes from the grid to the TSV in columns; run_*_sweep builds
    # its points from the same columns, so they equal the dataset's rows
    from dataclasses import astuple, fields

    from bellmeter.counts import CountRecord
    from bellmeter.discriminator import DiscriminationPoint, run_discriminator_sweep
    from bellmeter.experiment import ExperimentConfig
    from bellmeter.multimeter import MultimeterPoint, run_multimeter_sweep

    built = dict.fromkeys([CountRecord, DiscriminationPoint, MultimeterPoint], 0)
    for cls in built:
        def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    disc, multi = tmp_path / "disc.tsv", tmp_path / "multi.tsv"
    common = ["--pairs", "50", "--seed", "5", "--config"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"repetitions": 3}))
    assert main(["discriminate", "--theta-range", "0:90:30", *common, str(cfg_path),
                 "--out", str(disc)]) == 0
    assert main(["multimeter", "--eta", "0.4", "--phi-range=-90:90:45", *common, str(cfg_path),
                 "--out", str(multi)]) == 0
    assert set(built.values()) == {0}

    cfg = ExperimentConfig(repetitions=3, seed=5)
    sweeps = [
        (disc, run_discriminator_sweep([0.0, 12.0, 24.0, 36.0], [0.0, 30.0, 60.0, 90.0], cfg, 50.0)),
        (multi, run_multimeter_sweep([-90.0, -45.0, 0.0, 45.0, 90.0], 0.4, cfg, 50.0)),
    ]
    for path, points in sweeps:
        header, *lines = path.read_text().splitlines()
        rounded = read_sidecar(path)["rounded"]["columns"]
        assert len(points) == len(lines) and built[type(points[0])] == len(points)
        leading = [f.name for f in fields(points[0])][:-1]
        rows = [[getattr(pt, name) for name in leading] + list(astuple(pt.counts)) for pt in points]
        # a derived cell is the point's value at 13 significant digits; a coordinate or a count is exact
        assert [line.split("\t") for line in lines] == [
            [format(v, ".13") if name in rounded else repr(v) for name, v in zip(header.split("\t"), row)]
            for row in rows
        ]
    assert built[CountRecord] == 16 + 5


@pytest.mark.parametrize("block", [1, 3])
def test_output_does_not_depend_on_the_block_size(tmp_path, monkeypatch, block):
    # jittered discriminator points of 3 periods each, and ideal multimeter points of one
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"repetitions": 3}))
    commands = {
        "discriminate": ["discriminate", "--config", str(cfg_path), "--theta-range", "0:90:15"],
        "multimeter": ["multimeter", "--ideal", "--eta", "0.5", "--phi-range=-90:90:20"],
    }

    def outputs(directory):
        directory.mkdir()
        written = {}
        for name, argv in commands.items():
            raw, analyzed = directory / f"{name}.tsv", directory / f"{name}-analyzed.tsv"
            assert main(argv + ["--pairs", "1000", "--seed", "5", "--out", str(raw)]) == 0
            assert main(["analyze", str(raw), "--out", str(analyzed)]) == 0
            written[raw.name], written[analyzed.name] = raw.read_bytes(), analyzed.read_bytes()
        return written

    expected = outputs(tmp_path / "default")
    for constant in ("dataset._BLOCK_ROWS", "experiment._MAX_STAGE_PERIODS"):
        monkeypatch.setattr(f"bellmeter.{constant}", block)
    assert outputs(tmp_path / "blocks") == expected


@pytest.mark.parametrize(
    "text, rows",
    [
        (ANALYZE_HEADER + "\n", 0),
        (ANALYZE_HEADER, 0),
        (ANALYZE_HEADER + "\n" + "\t".join(ANALYZE_ROW), 1),
        (ANALYZE_HEADER + "\n" + "\t".join(ANALYZE_ROW) + "\n", 1),
    ],
    ids=["header", "header-without-line-end", "last-line-without-line-end", "last-line"],
)
def test_analyze_reads_a_header_alone_and_a_last_line_without_line_end(tmp_path, capsys, text, rows):
    # a header alone holds no data row, which fails with no output pair written
    path, out = tmp_path / "counts.tsv", tmp_path / "est.tsv"
    path.write_text(text)
    if not rows:
        assert main(["analyze", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {path} holds no data row\n")
        assert list(tmp_path.iterdir()) == [path]
        return
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {rows} rows to {out} ")
    estimates = CountRecord(*map(int, ANALYZE_ROW[1:])).estimates()
    row = "\t".join([ANALYZE_ROW[0], *(format(v, ".13") for v in estimates)]) + "\n"
    assert row.split("\t")[1:3] == ["0.1965", "0.01305888586366"]  # repr: 0.01305888586365621
    assert out.read_text() == "theta\t" + "\t".join(ESTIMATE_HEADER) + "\n" + row * rows


def test_a_failing_analyze_leaves_the_previous_output_as_it_was(tmp_path, capsys, monkeypatch):
    # blocks of 2 rows: the bad cell on line 5 is read after the first block is written
    monkeypatch.setattr("bellmeter.dataset._BLOCK_ROWS", 2)
    path, out = tmp_path / "counts.tsv", tmp_path / "est.tsv"
    lines = [ANALYZE_HEADER] + ["\t".join(ANALYZE_ROW)] * 3
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    bad = ANALYZE_ROW[:2] + ["abc"] + ANALYZE_ROW[3:]
    path.write_text("\n".join(lines + ["\t".join(bad)]) + "\n")
    before = {file.name: file.read_bytes() for file in tmp_path.iterdir()}
    assert sorted(before) == ["counts.tsv", "est.tsv", "est.tsv.meta.json"]
    capsys.readouterr()
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}, line 5, column 'c_mp': 'abc' is not a number\n")
    assert {file.name: file.read_bytes() for file in tmp_path.iterdir()} == before
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spelling", ["same", "dotted", "hard-link"])
def test_analyze_into_its_own_input_is_refused(tmp_path, capsys, monkeypatch, spelling):
    # it replaced the count table and its sidecar with the estimates, so a rerun lost the counts
    monkeypatch.chdir(tmp_path)
    assert main(["multimeter", "--phi-range=-90:90:45", "--pairs", "1000", "--out", "raw.tsv"]) == 0
    out = {"same": "raw.tsv", "dotted": "./raw.tsv", "hard-link": "link.tsv"}[spelling]
    if spelling == "hard-link":
        os.link("raw.tsv", "link.tsv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(["analyze", "raw.tsv", "--out", out]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: --out names the input raw.tsv, which analyze would replace\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# Starts the command as a child of a small `python -S` process, by fork and exec,
# and prints the child's peak RSS in KiB and its exit code.  subprocess may start
# a child by vfork, which carries the parent's (pytest's) peak into ru_maxrss.
PEAK_RSS_HELPER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def peak_rss_mib(argv):
    done = subprocess.run(
        [sys.executable, "-S", "-c", PEAK_RSS_HELPER, sys.executable, "-m", "bellmeter.cli", *argv],
        env=CLI_ENV, capture_output=True, text=True, timeout=300,
    )
    peak_kib, code = map(int, done.stdout.split()[-2:])
    assert code == 0, done.stderr
    return peak_kib / 1024


def test_analyze_memory_stays_flat_in_the_rows(tmp_path):
    peaks = []
    for n in (1_000, 100_000):
        path = tmp_path / f"counts-{n}.tsv"
        counts = [np.full(n, c) for c in [400, 0, 0, 380, 300, 200, 150, 350]]
        write_columns(path, ["theta", *COUNT_HEADER], [np.linspace(0.0, 90.0, n), *counts])
        peaks.append(peak_rss_mib(["analyze", str(path), "--out", str(tmp_path / "est.tsv")]))
    assert peaks[1] - peaks[0] < 8.0, peaks


def test_sweep_memory_stays_flat_in_the_points(tmp_path):
    peaks = []
    for phi_range in ("-90:90:1", "-90:90:0.002"):  # 181 and 90,001 points
        argv = ["multimeter", "--ideal", f"--phi-range={phi_range}", "--out", str(tmp_path / "m.tsv")]
        peaks.append(peak_rss_mib(argv))
    assert peaks[1] - peaks[0] < 10.0, peaks


def test_hom_scan_memory_holds_only_the_fit_columns(tmp_path):
    # the scan keeps its positions and two rate columns for the fit, 24 bytes a
    # position, and the fit a few more arrays of n; the whole scan and an (n, 2)
    # least-squares design took 13 MiB more at 100,001 positions
    peaks = []
    for scan_range in ("-100:100:1", "-50000:50000:1"):  # 201 and 100,001 positions
        peaks.append(peak_rss_mib(["hom-scan", f"--range={scan_range}", "--out", str(tmp_path / "h.tsv")]))
    assert peaks[1] - peaks[0] < 8.0, peaks


# the CLI contract under drawn input: one command runs with a config field drawn from its "bounds"
# metadata, with a drawn grid flag value, or as `analyze` of a count table mutated from a real output
CONTRACT_SWEEPS = {
    "discriminate": ["discriminate", "--epsilon", "0,30", "--theta-range", "0:90:45", "--pairs", "1000"],
    "multimeter": ["multimeter", "--phi-range=-90:90:90", "--pairs", "1000"],
    "hom-scan": ["hom-scan", "--range=-100:100:100", "--pairs", "1000"],
}
# (command, flag, separator): the comma lists and start:stop:step ranges
CONTRACT_GRIDS = [
    ("discriminate", "--epsilon", ","), ("discriminate", "--theta-range", ":"), ("multimeter", "--phi-range", ":"),
    ("hom-scan", "--positions", ","), ("hom-scan", "--range", ":"),
]
GRID_ITEMS = [
    "0", "-0", "12.5", "45", "-90", "90", "0.1234567891234", "1e308", "-1e308", "1e-320", "nan", "inf", "x", "",
]
# cells that replace a count: whole numbers spelled otherwise (float text, a digit group, a sign, a
# non-ASCII digit), which int() or float() reads, and cells that are no count
COUNT_CELLS = ["13.0", "1_000", "+5", "13.7", "-3", "1e400", "nan", "abc", "", "٣"]
HEADER_NAMES = ["c_pq", "theta", "epsilon", "c_pp", "x", ""]
# the output pair that a failing command must leave as it was
PREVIOUS = {"out.tsv": "previous\n", "out.tsv.meta.json": '{"previous": true}\n'}


# a field that a config case leaves out, so it takes its default
MISSING = object()


def inside_bounds(f):
    """The values that lie in the "bounds" of field `f`, integers for an "int" field."""
    text = f.metadata["bounds"]
    low, high = (float(end) for end in text[1:-1].split(","))
    if f.type == "int":
        return st.integers(int(low) + (text[0] == "("), None if math.isinf(high) else int(high) - (text[-1] == ")"))
    return st.floats(low, None if math.isinf(high) else high, exclude_min=text[0] == "(",
                     exclude_max=text[-1] == ")" and not math.isinf(high), allow_nan=False, allow_infinity=False)


@st.composite
def config_cases(draw):
    """A sweep whose config sets one bounded field, or --eta, to a value drawn from its bounds: an edge
    or one step from it, a drawn inside value, NaN or (config fields) a value of the wrong type; or
    that leaves the field out."""
    owner, f = draw(st.sampled_from(BOUNDED))
    outside = [math.nan] + ([] if owner is MultimeterPoint else ["1", True, None, [1.0]])
    value, valid = draw(st.one_of(
        st.sampled_from(bound_probes(f)), inside_bounds(f).map(lambda v: (v, True)),
        st.sampled_from([(v, False) for v in outside]), st.just((MISSING, True)),
    ))
    if owner is MultimeterPoint:  # eta is the multimeter's flag
        flag = [] if value is MISSING else [f"--eta={value!r}"]
        return {}, CONTRACT_SWEEPS["multimeter"] + flag, None if valid else f.name
    config = {} if value is MISSING else {f.name: value}
    config = config if owner is ExperimentConfig else {"analyzer": config}
    argv = CONTRACT_SWEEPS[draw(st.sampled_from(sorted(CONTRACT_SWEEPS)))] + ["--config", "config.json"]
    return {"config.json": json.dumps(config)}, argv, None if valid else f.name


@st.composite
def grid_cases(draw):
    """A sweep whose list or range flag is a drawn join of numbers, far numbers, NaN, inf and no numbers."""
    command, flag, separator = draw(st.sampled_from(CONTRACT_GRIDS))
    items = draw(st.lists(st.sampled_from(GRID_ITEMS), min_size=separator == ":", max_size=4))
    argv = CONTRACT_SWEEPS[command]
    if flag == "--positions":  # --positions and --range exclude each other
        argv = [arg for arg in argv if not arg.startswith("--range=")]
    return {}, argv + [f"{flag}={separator.join(items)}"], None


# a sweep whose --config names a file that does not exist (a file name mapped to None is not written)
MISSING_CONFIGS = st.sampled_from(sorted(CONTRACT_SWEEPS)).map(
    lambda command: ({"missing.json": None}, CONTRACT_SWEEPS[command] + ["--config", "missing.json"], "missing.json")
)


# mutations of a real count table, (kind, line, column, cut length or new text); line and column are
# taken modulo the table's (see mutated); truncate cuts the text at a drawn offset
MUTATIONS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 9), st.integers(0, 15), st.integers(1, 6)),
    st.tuples(st.just("cell"), st.integers(0, 9), st.integers(0, 15), st.sampled_from(COUNT_CELLS)),
    st.tuples(st.just("duplicate"), st.integers(0, 9), st.just(0), st.just(None)),
    st.tuples(st.just("rename"), st.just(0), st.integers(0, 15), st.sampled_from(HEADER_NAMES)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just(0), st.just(None)),
)


def mutated(text, mutations):
    """`text`, a TSV of a header and data lines, with `mutations` applied in turn; the line a
    mutation names is taken modulo the lines, the header and the empty one after the last line end
    among them."""
    for kind, line, column, arg in mutations:
        lines = text.split("\n")
        if kind == "truncate":
            text = text[: line % (len(text) + 1)]
            continue
        line = 0 if kind == "rename" else line % len(lines)
        cells = lines[line].split("\t")
        column %= len(cells)
        if kind == "cut":
            cells[column] = cells[column][:-arg]
        elif kind in ("cell", "rename"):
            cells[column] = arg
        lines[line : line + 1] = ["\t".join(cells)] * (2 if kind == "duplicate" else 1)
        text = "\n".join(lines)
    return text


@functools.cache
def real_count_table():
    """The TSV of a small seeded `discriminate` sweep."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = Path(tmp) / "counts.tsv"
        assert main(["discriminate", "--epsilon", "0,12", "--theta-range", "0:90:45", "--pairs", "1000",
                     "--seed", "7", "--out", str(path)]) == 0
        return path.read_text(encoding="utf-8")


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(
    config_cases(), grid_cases(), MISSING_CONFIGS,
    st.lists(MUTATIONS, min_size=1, max_size=2).map(lambda m: ({"mutations": m}, ["analyze", "counts.tsv"], None)),
))
def test_every_command_writes_a_consistent_dataset_or_fails_on_one_line(case):
    # exit 0 with a strict-JSON sidecar whose columns are the TSV header, at least one row (for `analyze`,
    # also one per data line it read) and a float in every cell of a rounded column, or exit 1 with one error
    # line, no traceback and the previous output pair as it was; a value outside its bounds fails naming
    # its field
    files, argv, must_fail = case
    if "mutations" in files:
        files = {"counts.tsv": mutated(real_count_table(), files["mutations"])}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in {**files, **PREVIOUS}.items():
            if text is not None:
                (tmp / name).write_text(text, encoding="utf-8")
        before = {path.name: path.read_bytes() for path in tmp.iterdir()}
        argv = [str(tmp / arg) if arg in {**files, **before} else arg for arg in argv + ["--out", "out.tsv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == ""
            sidecar_text = (tmp / "out.tsv.meta.json").read_text(encoding="utf-8")
            sidecar = json.loads(sidecar_text, parse_constant=reject_constant)
            header, *lines = (tmp / "out.tsv").read_text(encoding="utf-8").split("\n")
            assert sidecar["columns"] == header.split("\t"), argv
            assert list(filter(None, lines)), argv
            if "counts.tsv" in files:
                assert len(list(filter(None, lines))) == len(list(filter(None, files["counts.tsv"].split("\n")[1:])))
            rounded = TableReader(tmp / "out.tsv").blocks(sidecar["rounded"]["columns"])
            assert all(values.dtype == np.float64 for block in rounded for values in block), argv
        else:
            assert code == 1 and out == "", (code, out, err)
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            assert {path.name: path.read_bytes() for path in tmp.iterdir()} == before
        assert must_fail is None or (code == 1 and must_fail in err), (argv, err)
