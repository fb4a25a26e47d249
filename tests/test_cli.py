import json
import math

import pytest

from bellmeter.cli import main
from bellmeter.dataset import Dataset, sidecar_path


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
    assert len(ds.rows) == 1
    row = dict(zip(ds.columns, ds.rows[0]))
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
    assert len(ds.rows) == 4 * 23
    eps_values = sorted(set(ds.column("epsilon")))
    assert eps_values == [0.0, 12.0, 24.0, 36.0]
    thetas = [r for r, e in zip(ds.column("theta"), ds.column("epsilon")) if e == 0.0]
    assert thetas == [float(t) for t in range(0, 91, 4)]


def test_multimeter_command(tmp_path):
    out = tmp_path / "multi.tsv"
    code = main([
        "multimeter", "--ideal", "--eta", "0.5", "--phi-range=-16:16:16",
        "--pairs", "100000", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    ds = Dataset.read(out)
    assert len(ds.rows) == 3
    row = dict(zip(ds.columns, ds.rows[0]))
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
    positions = ds.column("position")
    dip_idx = positions.index(0.0)
    assert ds.column("rate_mp")[dip_idx] < 0.02 * max(ds.column("rate_mp"))


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


def test_analyze_roundtrip_identity(tmp_path):
    raw = tmp_path / "raw.tsv"
    main(["discriminate", "--ideal", "--epsilon", "0,24", "--theta-range", "12:36:12",
          "--pairs", "20000", "--seed", "17", "--out", str(raw)])
    out = tmp_path / "analyzed.tsv"
    assert main(["analyze", str(raw), "--out", str(out)]) == 0
    raw_ds = Dataset.read(raw)
    out_ds = Dataset.read(out)
    assert out_ds.column("p_succ") == raw_ds.column("p_estimated")
    assert out_ds.column("p_succ_stderr") == raw_ds.column("p_stderr")
    assert out_ds.column("error_rate") == raw_ds.column("error_rate")


def test_analyze_handcrafted_counts(tmp_path):
    path = tmp_path / "counts.tsv"
    columns = ["c_pp", "c_mp", "c_pm", "c_mm", "sh_pp", "sh_mp", "sh_pm", "sh_mm"]
    Dataset(columns=columns, rows=[[400, 0, 0, 380, 300, 200, 150, 350]]).write(path)
    out = tmp_path / "est.tsv"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    row = dict(zip(*(lambda d: (d.columns, d.rows[0]))(Dataset.read(out))))
    assert row["p_succ"] == pytest.approx(0.39, abs=1e-15)

    # all-zero conclusive counts: P_I = 1, error rate undefined
    Dataset(columns=columns, rows=[[0, 0, 0, 0, 300, 200, 150, 350]]).write(path)
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    row = dict(zip(*(lambda d: (d.columns, d.rows[0]))(Dataset.read(out))))
    assert row["p_inconclusive"] == 1.0
    assert math.isnan(row["error_rate"])


def test_analyze_missing_column_is_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    Dataset(columns=["c_pp", "c_mp"], rows=[[1, 2]]).write(path)
    code = main(["analyze", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "c_pm" in err


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
