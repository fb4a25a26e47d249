"""The repository tools: tools/same_output.py's reading of tools/changed_outputs.txt, its verdicts and its configs."""

import importlib.util
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from bellmeter.experiment import ExperimentConfig, config_from_dict

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_same_output():
    """A fresh import of tools/same_output.py."""
    spec = importlib.util.spec_from_file_location("same_output", TOOLS / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def same_output(tmp_path, monkeypatch):
    """tools/same_output.py, its repository root moved to a new git repository at tmp_path."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    module = load_same_output()
    monkeypatch.setattr(module, "ROOT", tmp_path)
    # commits need no user configuration, and none of the user's settings (signing, hooks) apply
    for role in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{role}_NAME", "test")
        monkeypatch.setenv(f"GIT_{role}_EMAIL", "test@example.com")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    module.git("init", "--quiet")
    return module


def commit(module, text):
    """Commit `text` as tools/changed_outputs.txt (None: a commit without the file); its hash."""
    path = module.ROOT / module.DECLARED
    if text is None:
        path.unlink(missing_ok=True)
    else:
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    module.git("add", "--all")
    module.git("commit", "--quiet", "--allow-empty", "--message", "outputs")
    return module.git("rev-parse", "HEAD").strip()


LISTED = "# outputs that change\n#\ndiscriminate.tsv\n  \nhom-scan.tsv.meta.json\n"


def test_an_unchanged_declaration_expects_no_output_to_differ(same_output):
    rev = commit(same_output, LISTED)
    assert same_output.declared(rev) == []


def test_a_changed_declaration_names_its_outputs_without_comment_lines(same_output):
    rev = commit(same_output, "# before\nmultimeter.tsv\n")
    (same_output.ROOT / same_output.DECLARED).write_text(LISTED, encoding="utf-8")
    assert same_output.declared(rev) == ["discriminate.tsv", "hom-scan.tsv.meta.json"]


def test_a_declaration_missing_at_the_revision_reads_as_empty(same_output):
    rev = commit(same_output, None)
    assert same_output.declared(rev) == []  # missing on both sides
    (same_output.ROOT / same_output.DECLARED).parent.mkdir()
    (same_output.ROOT / same_output.DECLARED).write_text("", encoding="utf-8")
    assert same_output.declared(rev) == []  # empty here, missing there
    (same_output.ROOT / same_output.DECLARED).write_text(LISTED, encoding="utf-8")
    assert same_output.declared(rev) == ["discriminate.tsv", "hom-scan.tsv.meta.json"]


SIDECAR = '{"columns": ["theta"], "eta": 0.0, "timestamp": "2024-01-01T00:00:00+00:00"}'


@pytest.mark.parametrize(
    "name, base, head, equal",
    [
        ("x.tsv.meta.json", SIDECAR, SIDECAR.replace("2024", "2025"), True),
        ("x.tsv.meta.json", SIDECAR, SIDECAR.replace("0.0", "-0.0"), False),
        ("x.tsv.meta.json", SIDECAR, '{"eta": 0.0, "timestamp": "", "columns": ["theta"]}', True),
        ("x.tsv", "theta\n0.5\n", "theta\n0.5", False),
    ],
    ids=["timestamp", "signed-zero", "key-order", "line-end"],
)
def test_a_sidecar_is_compared_without_its_timestamp_and_a_tsv_byte_for_byte(tmp_path, name, base, head, equal):
    paths = []
    for side, text in (("base", base), ("head", head)):
        (tmp_path / side).mkdir()
        paths.append(tmp_path / side / name)
        paths[-1].write_text(text, encoding="utf-8")
    assert load_same_output().same(*paths) is equal


def test_the_configs_of_the_output_check_are_the_ones_its_comments_name():
    module = load_same_output()
    assert config_from_dict(module.REALISTIC) == ExperimentConfig.realistic()
    # --ideal and --seed replace MERGED's mode overlap and seed, and keep the rest
    merged = config_from_dict(module.MERGED, True, seed=6)
    assert merged.repetitions == module.MERGED["repetitions"]
    assert list(merged.analyzer.detector_map) == module.MERGED["analyzer"]["detector_map"]
