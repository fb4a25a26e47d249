"""Self-test of the layer tracer: exact work counts on one traced call per workload.

Run from the root of a source checkout:

    python3 bench/selftest.py

The expected counts describe the sweep as bellmeter runs it at the commit
that introduced the benchmark (10 measurement periods per input setting, two
wave plates per photon per period).  A count of zero where work is expected
means a wrapper sits at a name the caller does not resolve, for example
bellmeter.twophoton.tensor instead of bellmeter.experiment.tensor.  A change
to the sampler may legitimately move these counts; the benchmark itself
never fails on them.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run
import workloads
from tracer import Tracer

EXPECTED = {
    # 92 points x 4 input settings x 10 periods; 2 photons x 2 plates per period
    "discriminate-realistic": {
        "experiment.periods": 3680,
        "polarization.plate_applications": 14720,
        "twophoton.calls": 3680,
    },
    # 181 phases x 4 input settings x 10 periods
    "multimeter-ideal": {
        "experiment.periods": 7240,
    },
    "analyze-bulk": {
        "analyzer.calls": 0,
        "experiment.periods": 0,
        "dataset.bytes_read": None,  # nonzero
        "dataset.bytes_written": None,
    },
}


def main() -> int:
    root = Path.cwd()
    workdir = root / ".bench_build" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    mismatches = 0
    try:
        bench = run.Bench(root, workdir)
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "bellmeter"]
        originals = [(m, dict(vars(m))) for m in modules]
        for name, expected in EXPECTED.items():
            workload = workloads.WORKLOADS[name]
            workload.prepare(workdir, 1)
            out = workdir / "out.tsv"
            with Tracer() as tracer:
                _, code = bench.in_process(workload.args(workdir, 1, out))
            summary = tracer.summary()
            checks = [("exit code", code, 0), ("failed rows", workload.check(out), 0)]
            checks += [(metric, summary[metric], want) for metric, want in expected.items()]
            for label, got, want in checks:
                ok = got > 0 if want is None else got == want
                mismatches += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {name:24s} {label:34s} {got} (want {'> 0' if want is None else want})")
        restored = all(vars(m)[k] is v for m, names in originals for k, v in names.items())
        mismatches += not restored
        print(f"{'ok  ' if restored else 'FAIL'} wrappers removed after tracing")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
