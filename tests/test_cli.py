import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellmeter
from bellmeter.cli import _parse_range, build_parser, main
from bellmeter.dataset import Dataset, sidecar_path


COUNT_HEADER = ["c_pp", "c_mp", "c_pm", "c_mm", "sh_pp", "sh_mp", "sh_pm", "sh_mm"]
ESTIMATE_HEADER = [
    "p_succ", "p_succ_stderr", "p_inconclusive", "pi_stderr", "error_rate", "error_rate_stderr",
]


def read_sidecar(path):
    return json.loads(sidecar_path(path).read_text())


def test_discriminate_single_point(tmp_path, capsys):
    out = tmp_path / "one.tsv"
    code = main([
        "discriminate", "--ideal", "--epsilon", "0", "--theta-range", "45:45:1",
        "--pairs", "20000", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    ds = Dataset.read(out)
    assert ds.columns == [
        "epsilon", "theta", "p_theory", "p_optimal", "p_estimated", "p_stderr",
        "error_rate", "error_rate_stderr", *COUNT_HEADER,
    ]
    assert len(ds) == 1
    row = {name: ds.column(name)[0] for name in ds.columns}
    assert row["p_theory"] == 0.5
    assert abs(row["p_estimated"] - 0.5) <= 4 * row["p_stderr"]


def test_discriminate_default_grid_shape(tmp_path):
    out = tmp_path / "grid.tsv"
    code = main([
        "discriminate", "--ideal", "--pairs", "200", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    ds = Dataset.read(out)
    # 4 ellipticity curves, 23 theta points each
    assert len(ds) == 4 * 23
    eps_values = sorted(set(ds.column("epsilon")))
    assert eps_values == [0.0, 12.0, 24.0, 36.0]
    thetas = [r for r, e in zip(ds.column("theta"), ds.column("epsilon")) if e == 0.0]
    assert thetas == [float(t) for t in range(0, 91, 4)]



def test_discriminate_matches_theory(tmp_path):
    out = tmp_path / "theory.tsv"
    assert main(["discriminate", "--ideal", "--seed", "50", "--epsilon", "24",
                 "--theta-range", "20:60:40", "--pairs", "200000", "--out", str(out)]) == 0
    ds = Dataset.read(out)
    assert ds.column("theta").tolist() == [20.0, 60.0]
    for p_est, p_theory, p_stderr in zip(
        ds.column("p_estimated"), ds.column("p_theory"), ds.column("p_stderr")
    ):
        assert abs(p_est - p_theory) <= 3 * p_stderr
    assert ds.column("error_rate").tolist() == [0.0, 0.0]


def test_empty_grid_writes_an_empty_dataset(tmp_path, capsys):
    out = tmp_path / "empty.tsv"
    assert main(["discriminate", "--ideal", "--epsilon=", "--pairs", "100", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 0 rows to {out}\n"
    ds = Dataset.read(out)
    assert len(ds) == 0 and ds.columns[-8:] == COUNT_HEADER

def test_multimeter_command(tmp_path):
    out = tmp_path / "multi.tsv"
    code = main([
        "multimeter", "--ideal", "--eta", "0.5", "--phi-range=-16:16:16",
        "--pairs", "100000", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    ds = Dataset.read(out)
    assert ds.columns == [
        "phi", "eta", "pi_theory", "fidelity_theory", "pi_estimated", "pi_stderr",
        "fidelity_estimated", "error_rate", "error_rate_stderr", *COUNT_HEADER,
    ]
    assert len(ds) == 3
    row = {name: ds.column(name)[0] for name in ds.columns}
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
    ds = Dataset.read(out)
    meta = read_sidecar(out)
    assert meta["fitted_visibility"] == pytest.approx(1.0, abs=0.02)
    positions = ds.column("position").tolist()
    dip_idx = positions.index(0.0)
    assert ds.column("rate_mp")[dip_idx] < 0.02 * max(ds.column("rate_mp"))


def test_hom_scan_runs_without_scipy(tmp_path):
    out = tmp_path / "hom.tsv"
    script = (
        "import sys; from bellmeter.cli import main; "
        f"code = main(['hom-scan', '--seed', '1', '--out', {str(out)!r}]); "
        "sys.exit(3 if 'scipy' in sys.modules else code)"
    )
    src = str(Path(bellmeter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert out.is_file()


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import bellmeter", {"bellmeter"}),
        (
            "from bellmeter.cli import main; "
            "assert main(['analyze', sys.argv[1], '--out', sys.argv[2]]) == 0",
            {"bellmeter", "bellmeter.cli", "bellmeter.counts", "bellmeter.dataset", "bellmeter.errors"},
        ),
    ],
    ids=["package", "analyze"],
)
def test_fresh_interpreter_loads_only_what_it_runs(tmp_path, code, loaded):
    # the package root imports no module, and `analyze` needs only the count core
    counts, out = tmp_path / "counts.tsv", tmp_path / "est.tsv"
    Dataset(COUNT_HEADER, [[c] for c in [400, 0, 0, 380, 300, 200, 150, 350]]).write(counts)
    script = f"import sys; {code}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'bellmeter'))"
    src = str(Path(bellmeter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script, str(counts), str(out)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr(sorted(loaded))


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    assert build_parser() is build_parser()
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    argv = ["multimeter", "--ideal", "--phi-range=0:8:8", "--pairs", "100", "--seed", "1"]
    assert main(argv + ["--eta", "0.5", "--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert Dataset.read(first).column("eta").tolist() == [0.5, 0.5]
    assert Dataset.read(second).column("eta").tolist() == [1.0, 1.0]
    meta = read_sidecar(second)
    assert meta["eta"] == 1.0
    assert meta["argv"] == argv + ["--out", str(second)]


def test_dataset_reproducible_byte_for_byte(tmp_path):
    out = tmp_path / "a.tsv"
    args = ["discriminate", "--ideal", "--epsilon", "12", "--theta-range", "20:60:20",
            "--pairs", "5000", "--seed", "99", "--out", str(out)]
    assert main(args) == 0
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
    raw_ds = Dataset.read(raw)
    out_ds = Dataset.read(out)
    assert out_ds.columns == coords + ESTIMATE_HEADER
    same = {**same, "error_rate": "error_rate", "error_rate_stderr": "error_rate_stderr"}
    for analyzed, swept in same.items():
        assert any(map(math.isnan, raw_ds.column(swept)))
        # bit for bit, NaN matching NaN
        assert [v.hex() for v in out_ds.column(analyzed)] == [v.hex() for v in raw_ds.column(swept)]


def test_analyze_handcrafted_counts(tmp_path):
    path = tmp_path / "counts.tsv"
    columns = ["c_pp", "c_mp", "c_pm", "c_mm", "sh_pp", "sh_mp", "sh_pm", "sh_mm"]
    Dataset(columns, [[c] for c in [400, 0, 0, 380, 300, 200, 150, 350]]).write(path)
    out = tmp_path / "est.tsv"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    row = {name: Dataset.read(out).column(name)[0] for name in ESTIMATE_HEADER}
    assert row["p_succ"] == pytest.approx(0.39, abs=1e-15)

    # all-zero conclusive counts: P_I = 1, error rate undefined
    Dataset(columns, [[c] for c in [0, 0, 0, 0, 300, 200, 150, 350]]).write(path)
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    row = {name: Dataset.read(out).column(name)[0] for name in ESTIMATE_HEADER}
    assert row["p_inconclusive"] == 1.0
    assert math.isnan(row["error_rate"])


def test_analyze_missing_column_is_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    Dataset(["c_pp", "c_mp"], [[1], [2]]).write(path)
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
    assert _parse_range("-90:90:8") == [float(v) for v in range(-90, 91, 8)]


def test_invalid_flag_values_exit_nonzero(tmp_path, capsys):
    code = main(["discriminate", "--theta-range", "10:0:-5", "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = main(["multimeter", "--eta", "1.5", "--out", str(tmp_path / "y.tsv")])
    assert code == 1


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


def test_config_that_is_not_an_object_exit_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps([1, 2]))
    code = main(["discriminate", "--config", str(cfg_path), "--epsilon", "0",
                 "--theta-range", "45:45:1", "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["multimeter", "--phi-range=0:0:1", "--pairs", "0"],
        ["discriminate", "--epsilon", "0", "--theta-range", "0:0:1", "--pairs", "-100"],
        ["hom-scan", "--pairs", "0"],
    ],
)
def test_non_positive_pairs_exit_nonzero_without_dataset(tmp_path, capsys, argv):
    out = tmp_path / "zero.tsv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pairs per point" in err
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


@pytest.mark.parametrize("positions", ["", ","])
def test_empty_positions_exit_nonzero_without_dataset(tmp_path, capsys, positions):
    # an empty --positions list is an empty scan, not the default --range
    out = tmp_path / "empty.tsv"
    assert main(["hom-scan", "--positions", positions, "--pairs", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: positions must be nonempty\n"
    assert not out.exists()


def test_analyze_into_a_closed_pipe_exits_quietly(tmp_path):
    # `bellmeter analyze counts.tsv | head -n 1`: the output is far larger than a
    # pipe buffer, so the writer is still writing when the reader closes its end
    counts = tmp_path / "counts.tsv"
    Dataset(COUNT_HEADER, [np.full(20_000, c) for c in [400, 0, 0, 380, 300, 200, 150, 350]]).write(counts)
    src = str(Path(bellmeter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with subprocess.Popen(
        [sys.executable, "-m", "bellmeter.cli", "analyze", str(counts)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as analyze:
        first = analyze.stdout.readline()
        analyze.stdout.close()
        err = analyze.stderr.read()
        assert analyze.wait(timeout=60) == 1
    assert first == "\t".join(ESTIMATE_HEADER) + "\n"
    assert err == ""


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
    dataset = Dataset(["x"], [[1.0]], metadata={"visibility": bad})
    with pytest.raises(ValueError, match="strict JSON"):
        dataset.write(path)
    assert not path.parent.exists()


ANALYZE_HEADER = "theta\t" + "\t".join(COUNT_HEADER)
ANALYZE_ROW = ["12.5", "13", "0", "0", "380", "300", "200", "150", "350"]


@pytest.mark.parametrize(
    "column, cell, error",
    [
        ("c_pm", "abc", "line 5000, column 'c_pm': 'abc' is not a number"),
        ("sh_mm", None, "line 5000: 8 cells, but the header has 9"),
        ("c_pp", "13.7", "c_pp must be a nonnegative integer"),
        ("c_pp", "-1", "c_pp must be a nonnegative integer"),
        ("c_pp", "nan", "c_pp must be a nonnegative integer"),
        ("c_pp", "inf", "c_pp must be a nonnegative integer"),
        ("c_pp", str(2**63), "c_pp must be a nonnegative integer below 2**63"),
        ("c_pp", "13.0", None),
        ("theta", "12", None),
    ],
)
def test_analyze_read_rules_hold_past_the_first_block(tmp_path, capsys, column, cell, error):
    # line 5000 lies in the second block of 4096 rows that are parsed together
    rows = [list(ANALYZE_ROW) for _ in range(4999)]
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
    # 13.0 counts as 13; a column with 12 beside 12.5 is a float column, so 12 reads as 12.0
    first, last = lines[1].split("\t"), lines[-1].split("\t")
    assert first[0] == "12.5" and last[0] == ("12.0" if column == "theta" else "12.5")
    assert last[1:] == first[1:] and len(set(lines[1:-1])) == 1


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


def test_analyze_summary_counts_nan_rows_per_estimate(tmp_path, capsys):
    path = tmp_path / "counts.tsv"
    rows = [
        [400, 0, 0, 380, 300, 200, 150, 350],
        [1, 2, 3, 4, 0, 0, 5, 6],  # no plus shoulder: P_succ and P_I undefined
        [0, 0, 0, 0, 1, 1, 1, 1],  # no conclusive count: the error rate undefined
        [0, 0, 0, 0, 1, 1, 1, 1],
    ]
    Dataset(COUNT_HEADER, [list(column) for column in zip(*rows)]).write(path)
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
    assert captured.out == "" and captured.err == "error: column 'c_pp' appears twice\n"
    assert not out.exists()


def test_jittered_repetitions_beyond_a_block_exit_nonzero_without_dataset(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"repetitions": 4097, "angle_jitter": 1.0}))
    out = tmp_path / "x.tsv"
    code = main(["discriminate", "--config", str(cfg_path), "--epsilon", "0",
                 "--theta-range", "45:45:1", "--pairs", "100", "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "error: repetitions must be at most 4096 when angle_jitter > 0, got 4097\n"
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
    assert err.startswith("error:") and "_MAX_GRID_POINTS" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_sweep_grid_at_the_limit_runs(tmp_path, monkeypatch):
    monkeypatch.setattr("bellmeter.cli._MAX_GRID_POINTS", 10)
    assert _parse_range("0:9:1") == [float(v) for v in range(10)]
    out = tmp_path / "grid.tsv"
    argv = ["discriminate", "--ideal", "--epsilon", "0,12", "--theta-range", "0:8:2"]
    assert main(argv + ["--pairs", "100", "--out", str(out)]) == 0
    assert len(Dataset.read(out)) == 10


@pytest.mark.parametrize("rows", [0, 3])
def test_analyze_skips_a_block_of_blank_lines(tmp_path, capsys, monkeypatch, rows):
    # with 3 rows per block, the blank lines after 3 rows make a block of their own
    monkeypatch.setattr("bellmeter.dataset._BLOCK_ROWS", 3)
    path = tmp_path / "counts.tsv"
    path.write_text("\n".join([ANALYZE_HEADER] + ["\t".join(ANALYZE_ROW)] * rows) + "\n\n\n")
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
        ds = Dataset.read(path)
        assert len(points) == len(ds) and built[type(points[0])] == len(ds)
        leading = [f.name for f in fields(points[0])][:-1]
        rows = [[getattr(pt, name) for name in leading] + list(astuple(pt.counts)) for pt in points]
        assert [repr(list(row)) for row in zip(*(ds.column(c).tolist() for c in ds.columns))] == [
            repr(row) for row in rows
        ]
    assert built[CountRecord] == 16 + 5
