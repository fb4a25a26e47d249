"""bellmeter benchmark: time the public CLI end to end, or trace it layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload discriminate-realistic --seed 1 --seconds 35 --trace 0

One closed-loop client issues one command at a time, in this process and in
fresh interpreters, for `--seconds` seconds, and checks every dataset it gets
back.  Timings are scaled to a fixed machine speed, which a reference loop
measures between commands (see speed.py).  The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; with `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics.  Without `--workload`
every workload runs in turn.  The exit code is 1 when any output row failed
its check, and 2 when the checkout has no bellmeter sources.  See
bench/README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# The commands are single-threaded by design.  A BLAS thread pool adds nothing to
# their work, but numpy's import starts it, and its threads then compete with the
# import for a core; with a second core busy or free, setup_s read 0.19 or 0.12 s.
# One BLAS thread, here and in every child process, removes that coin flip.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import speed  # noqa: E402  (imports numpy, which reads the setting above)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 60.0
SETUP_CODE = (
    "import time; t = time.perf_counter(); import bellmeter.cli; "
    "print(repr(time.perf_counter() - t))"
)


class Bench:
    """Runs the commands of one checkout: in-process, as a CLI and as a bare import."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        # compiles the package's bytecode once, so no timed import pays for it
        self.cold_import()
        sys.path.insert(0, src)
        import bellmeter.cli

        if Path(bellmeter.cli.__file__).resolve().parent != (root / "src" / "bellmeter").resolve():
            raise RuntimeError(f"imported bellmeter from {bellmeter.cli.__file__}, not from {src}")
        self.cli = bellmeter.cli

    def in_process(self, argv: list[str]) -> tuple[float, int]:
        """Seconds and exit code of one cli.main(argv) call."""
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            elapsed = perf_counter() - start
        return elapsed, code

    def command(self, argv: list[str]) -> tuple[float, int, float]:
        """Wall seconds, exit code and peak RSS (MiB) of `python -m bellmeter.cli argv`."""
        log = self.workdir / "cli.stderr"
        with open(log, "wb") as stderr:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bellmeter.cli", *argv],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr,
            )
            status, usage = _wait4(proc)
            elapsed = perf_counter() - start
        if status != 0:
            sys.stderr.write(log.read_text())
        # ru_maxrss of this child alone, in KiB on Linux
        return elapsed, status, usage.ru_maxrss / 1024.0

    def cold_import(self) -> float:
        """Seconds a fresh interpreter spends in `import bellmeter.cli`."""
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"import bellmeter.cli failed:\n{done.stderr}")
        return float(done.stdout)


def _wait4(proc: subprocess.Popen):
    """Reap `proc` with os.wait4, so its resource usage is its own and not a running maximum."""

    def expire(signum, frame):
        raise TimeoutError(f"command did not finish within {SUBPROCESS_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, SUBPROCESS_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException as exc:
        # never leave the child running, whatever interrupted the wait
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        if not isinstance(exc, TimeoutError):
            raise
        print(f"# killed after {SUBPROCESS_TIMEOUT_S} s: {proc.args}", file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Outcome:
    """Attempted and failed output rows across every command of a run."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def record(self, code: int, out: Path) -> None:
        rows = self.workload.expected_rows
        self.attempted += rows
        # a nonzero exit fails every row of that run
        self.failed += rows if code != 0 else self.workload.check(out)


def measure(bench: Bench, workload: workloads.Workload, seed: int, seconds: float) -> tuple[dict, Outcome]:
    """End-to-end samples: in-process throughput, CLI wall time and peak RSS, cold import."""
    outcome = Outcome(workload)
    out_in, out_cli = bench.workdir / "inprocess.tsv", bench.workdir / "cli.tsv"
    argv_in = workload.args(bench.workdir, seed, out_in)
    argv_cli = workload.args(bench.workdir, seed, out_cli)
    _, code = bench.in_process(argv_in)  # warm-up: lazy imports and caches
    outcome.record(code, out_in)
    samples = {"rows_per_s": [], "wall_s": [], "setup_s": [], "peak_rss_mib": []}
    raw = {"raw.rows_per_s": [], "raw.wall_s": [], "raw.setup_s": [], "reference_s": []}

    def at_reference_speed(elapsed: float) -> float:
        # each timing is bracketed by the reference loop; see speed.py
        before, after = raw["reference_s"][-1], speed.reference_s()
        raw["reference_s"].append(after)
        return speed.scaled(elapsed, before, after)

    raw["reference_s"].append(speed.reference_s())
    deadline = perf_counter() + seconds
    while len(samples["wall_s"]) < MIN_SAMPLES or perf_counter() < deadline:
        elapsed, code = bench.in_process(argv_in)
        outcome.record(code, out_in)
        raw["raw.rows_per_s"].append(workload.expected_rows / elapsed)
        samples["rows_per_s"].append(workload.expected_rows / at_reference_speed(elapsed))
        elapsed, code, rss = bench.command(argv_cli)
        outcome.record(code, out_cli)
        raw["raw.wall_s"].append(elapsed)
        samples["wall_s"].append(at_reference_speed(elapsed))
        samples["peak_rss_mib"].append(rss)
        elapsed = bench.cold_import()
        raw["raw.setup_s"].append(elapsed)
        samples["setup_s"].append(at_reference_speed(elapsed))
    return samples | raw, outcome


def measure_traced(bench: Bench, workload: workloads.Workload, seed: int, seconds: float) -> tuple[dict, Outcome]:
    """Per-layer samples from traced calls, alternated with untraced ones for the overhead."""
    outcome = Outcome(workload)
    out = bench.workdir / "inprocess.tsv"
    argv = workload.args(bench.workdir, seed, out)
    _, code = bench.in_process(argv)
    outcome.record(code, out)
    untraced, traced, layers = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_SAMPLES or perf_counter() < deadline:
        elapsed, code = bench.in_process(argv)
        outcome.record(code, out)
        untraced.append(workload.expected_rows / elapsed)
        with Tracer() as tracer:
            elapsed, code = bench.in_process(argv)
        outcome.record(code, out)
        traced.append(workload.expected_rows / elapsed)
        layers.append(tracer.summary())
    samples = {name: [summary[name] for summary in layers] for name in layers[0]}
    samples["trace.overhead_frac"] = [plain / slow - 1.0 for plain, slow in zip(untraced, traced)]
    return samples, outcome


def environment(root: Path) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
            )
            commit = done.stdout.strip() or "unknown"
        except OSError:
            commit = "unknown (git not found)"
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def report(metrics_spec: list[dict], samples: dict, outcome: Outcome, record: dict) -> dict:
    """Print one line per metric and the run's record; return the result object."""
    metrics, counts = {}, {}
    for metric in metrics_spec:
        name, unit = metric["name"], metric["unit"]
        values = samples[name]
        median = statistics.median(values)
        low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        print(f"{record['workload']:24s} {name:34s} {median:14.6g} {unit:8s} "
              f"(p25 {low:.6g}, p75 {high:.6g}, n={len(values)})")
        metrics[name] = {"value": median, "unit": unit}
        counts[name] = len(values)
    failed_frac = outcome.failed / outcome.attempted
    print(f"{record['workload']:24s} {'failed_frac':34s} {failed_frac:14.6g} "
          f"({outcome.failed} of {outcome.attempted} rows)")
    # medians of the samples that are no metric: the unscaled timings, the reference
    # time and the tracer's other counters
    extra = {name: statistics.median(values) for name, values in samples.items() if name not in metrics}
    print(json.dumps({"record": dict(record, samples=counts, failed_frac=failed_frac, **extra)}))
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                        help="workload to run (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "bellmeter" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {root} is not a bellmeter checkout (needs src/bellmeter and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    workdir = root / ".bench_build" / f"bench-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = environment(root)
    env["cpu"] = speed.pin_to_one_cpu()
    all_correct = True
    try:
        bench = Bench(root, workdir)
        for name in names:
            workload = workloads.WORKLOADS[name]
            workload.prepare(workdir, args.seed)
            run = measure_traced if args.trace else measure
            samples, outcome = run(bench, workload, args.seed, seconds)
            record = dict(env, workload=name, seed=args.seed, seconds=seconds, trace=args.trace)
            result = report(metrics, samples, outcome, record)
            all_correct &= result["correct"]
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
