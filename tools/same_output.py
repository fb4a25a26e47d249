"""Check that this tree writes the same seeded outputs as another git revision.

    python tools/same_output.py <rev>

<rev> is checked out with `git worktree add` into a temporary directory,
which is removed at exit; nothing is written into the repository.  One fixed
command list runs as `python -m bellmeter.cli` in <tmp>/base/ with
PYTHONPATH=<rev's tree>/src and in <tmp>/head/ with PYTHONPATH=<this
tree>/src.  Every path a command names is relative, so `argv` and `input`
match on both sides, and stdout is block-buffered on both.  Each TSV is
compared byte for byte, each JSON sidecar with its `timestamp` dropped, and
each command's exit code, stdout and stderr together (as `<name>.console`),
one line each; one `analyze` without --out is compared by its console alone,
whose stdout is its TSV.

An output is expected to differ when DECLARED (tools/changed_outputs.txt,
one output name per line) names it and that file's text in this tree
differs from its text at <rev>.  So a commit that changes outputs on purpose
lists them there, and a later commit that leaves the file as it is gets the
full check again.  The exit code is 1 if an output differs that is not
expected to, if an expected output matches, or if a command fails; 0
otherwise, and 2 if <rev> names no commit or DECLARED names no output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = Path("tools/changed_outputs.txt")

# ExperimentConfig.realistic(): 92% mode overlap, a few percent of splitting imbalance
REALISTIC = {"analyzer": {"transmittance_h": 0.53, "transmittance_v": 0.48, "mode_overlap": 0.92}}
# a config file that hom-scan-merged combines with --ideal and --seed: --seed replaces its seed and --ideal
# its mode overlap, while its repetitions and its permuted detector_map stay
MERGED = {"seed": 11, "repetitions": 20, "analyzer": {"detector_map": ["D4", "D2", "D1", "D3"], "mode_overlap": 0.9}}

# a count table whose counts are whole numbers written as float text, which numpy's int64
# tokenizer rejects, so `analyze` reads its blocks by the per-cell rule (dataset._parse_cells);
# a blank line, which the reader skips but counts, follows its first row, and its second row
# ends in \r\n, which the reader takes as a line end
FLOAT_COUNTS = "theta\tc_pp\tc_mp\tc_pm\tc_mm\tsh_pp\tsh_mp\tsh_pm\tsh_mm\n" + "".join(
    "\t".join(row) + end for row, end in (
        (["0.0", "13.0", "1_000", "0", "250", "300", "200", "150.0", "350"], "\n\n"),
        (["45.5", "1_000", "13.0", "7", "0.0", "300", "2_00", "150", "350"], "\r\n"),
        (["90", "0.0", "0", "+5", "1e3", "0", "0.0", "0", "0"], "\n"),
    )
)

# a count table with no coordinate columns, so `analyze` writes only derived columns: its first
# block (dataset._BLOCK_ROWS = 4,096 rows) is one row repeated, so every column of that block is one
# value and the writer's row template has no field; the rows after it give estimates of exactly 0.0
# and 1.0, NaN estimates (no shoulder count, no conclusive count) and values and stderrs in
# exponent form (shoulder sums of 9e7 and of 1, a wrong-class rate of 1e-15)
EDGE_COUNTS = "c_pp\tc_mp\tc_pm\tc_mm\tsh_pp\tsh_mp\tsh_pm\tsh_mm\n" + "400\t0\t0\t380\t300\t200\t150\t350\n" * 4096
EDGE_COUNTS += (
    "0\t5\t5\t0\t300\t200\t150\t350\n"
    "5\t0\t0\t5\t300\t200\t150\t350\n"
    "1\t2\t3\t4\t0\t0\t0\t0\n"
    "0\t0\t0\t0\t300\t200\t150\t350\n"
    "1\t0\t0\t1\t90000000\t0\t90000000\t0\n"
    "1000000000000000\t1\t0\t0\t1\t0\t1\t0\n"
) * 20

# (output, argv): every subcommand under the default, --ideal and realistic configs, then an
# analyze of each sweep, of FLOAT_COUNTS and of EDGE_COUNTS; discriminate-blocks spans several
# blocks of jittered periods, discriminate-zeros has ideal points whose unreachable class must give
# a mean of exactly 0 (a residue mean would take a number from the stream and shift every later
# draw), and hom-scan-ties has mirror positions at multiples of 2^-10, every other one an exact .5
# tie once multiplied by 1e9, which the 9-decimal rounding of grid points must break as round()
# does, and hom-scan-merged shows the order in which a config file, --ideal and --seed apply
COMMANDS = [
    ("discriminate.tsv", ["discriminate", "--theta-range", "0:90:15", "--pairs", "2000", "--seed", "7"]),
    ("discriminate-ideal.tsv", ["discriminate", "--ideal", "--epsilon", "0,10,20.5", "--pairs", "2000", "--seed", "7"]),
    ("discriminate-zeros.tsv", ["discriminate", "--ideal", "--epsilon", "0,12", "--theta-range", "0:90:2",
                                "--pairs", "5", "--seed", "4"]),
    ("discriminate-blocks.tsv", ["discriminate", "--config", "realistic.json", "--epsilon", "0,30",
                                 "--theta-range=0:90:0.05", "--pairs", "5000", "--seed", "3"]),
    ("multimeter.tsv", ["multimeter", "--pairs", "2000", "--seed", "7"]),
    ("multimeter-ideal.tsv", ["multimeter", "--ideal", "--eta", "0.5", "--phi-range=-90:90:0.1", "--pairs", "2000"]),
    ("multimeter-realistic.tsv", ["multimeter", "--config", "realistic.json", "--eta", "0.25",
                                  "--phi-range=-90:90:10", "--pairs", "2000", "--seed", "5"]),
    ("hom-scan.tsv", ["hom-scan", "--pairs", "2000", "--seed", "7"]),
    ("hom-scan-ideal.tsv", ["hom-scan", "--ideal", "--positions=-100,-50,-10,0,10,50,100", "--pairs", "2000"]),
    ("hom-scan-realistic.tsv", ["hom-scan", "--config", "realistic.json", "--range=-300:300:0.5", "--seed", "5"]),
    ("hom-scan-ties.tsv", ["hom-scan", "--ideal", "--range=0.0009765625:0.02:0.0009765625", "--pairs", "2000"]),
    ("hom-scan-merged.tsv", ["hom-scan", "--config", "merged.json", "--ideal", "--seed", "6",
                             "--positions=-100,-50,-10,0,10,50,100", "--pairs", "2000"]),
]
COMMANDS += [
    (f"analyzed-{name}", ["analyze", name]) for name, argv in list(COMMANDS) if argv[0] != "hom-scan"
] + [("analyzed-float-counts.tsv", ["analyze", "float-counts.tsv"]),
      ("analyzed-edge-counts.tsv", ["analyze", "edge-counts.tsv"])]
# (name, argv) of commands without --out, which print their TSV and are compared by their console
STREAMED = [("analyzed-stdout-multimeter-ideal", ["analyze", "multimeter-ideal.tsv"])]
OUTPUTS = [path for name, _ in COMMANDS for path in (name, f"{name}.meta.json", f"{name}.console")]
OUTPUTS += [f"{name}.console" for name, _ in STREAMED]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def run_commands(tree: Path, workdir: Path) -> bool:
    """Run COMMANDS and STREAMED in `workdir` on the package in `tree`, keeping each one's exit code,
    stdout and stderr as <name>.console; False, after printing why, if one fails."""
    workdir.mkdir()
    (workdir / "realistic.json").write_text(json.dumps(REALISTIC), encoding="utf-8")
    (workdir / "merged.json").write_text(json.dumps(MERGED), encoding="utf-8")
    (workdir / "float-counts.tsv").write_text(FLOAT_COUNTS, encoding="utf-8")
    (workdir / "edge-counts.tsv").write_text(EDGE_COUNTS, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, so that output lost at exit shows
    where = subprocess.run(
        [sys.executable, "-c", "import bellmeter; print(bellmeter.__file__)"],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    if not where.stdout.strip().startswith(str(tree / "src")):
        print(f"{workdir.name}: bellmeter is not imported from {tree / 'src'}: {where.stdout}{where.stderr}")
        return False
    for name, argv in [(name, [*argv, "--out", name]) for name, argv in COMMANDS] + STREAMED:
        done = subprocess.run(
            [sys.executable, "-m", "bellmeter.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        if done.returncode:
            print(f"{workdir.name}: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}", end="")
            return False
        console = {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}
        (workdir / f"{name}.console").write_text(json.dumps(console), encoding="utf-8")
    return True


def declared(commit: str) -> list[str]:
    """The output names in DECLARED, if its text in this tree differs from its text at `commit`, else
    none; a file that is missing on either side reads as empty, and a line starting with # is a comment."""
    path = ROOT / DECLARED
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    try:
        before = git("show", f"{commit}:{DECLARED.as_posix()}")
    except subprocess.CalledProcessError:
        before = ""
    if text == before:
        return []
    return [line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")]


def same(base: Path, head: Path) -> bool:
    if base.name.endswith(".meta.json"):
        sidecars = [json.loads(path.read_text(encoding="utf-8")) for path in (base, head)]
        for sidecar in sidecars:
            sidecar.pop("timestamp", None)
        # as text, so that -0.0 and 0.0 or two NaNs do not compare as Python floats do
        return json.dumps(sidecars[0], sort_keys=True) == json.dumps(sidecars[1], sort_keys=True)
    return base.read_bytes() == head.read_bytes()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. the parent commit")
    args = parser.parse_args(argv)
    try:
        commit = git("rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}").strip()
    except subprocess.CalledProcessError:
        parser.error(f"{args.rev!r} names no commit")
    listed = declared(commit)
    if unknown := sorted(set(listed) - set(OUTPUTS)):
        parser.error(f"{DECLARED} names no output {', '.join(unknown)}")
    if listed:
        print(f"{DECLARED} differs from its text at {commit[:12]}: {len(listed)} outputs expected to differ")
    tmp = Path(tempfile.mkdtemp(prefix="same-output-"))
    tree = tmp / "tree"
    try:
        git("worktree", "add", "--detach", str(tree), commit)
        if not (run_commands(tree, tmp / "base") and run_commands(ROOT, tmp / "head")):
            return 1
        status = 0
        for name in OUTPUTS:
            equal = same(tmp / "base" / name, tmp / "head" / name)
            expected = name not in listed
            word = ("same" if equal else "differs") + ("" if equal == expected else " (unexpected)")
            print(f"{word:22}{name}")
            status |= equal != expected
        print(f"{len(OUTPUTS)} outputs compared against {commit[:12]}: {'as expected' if not status else 'FAILED'}")
        return status
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
