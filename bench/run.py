"""quasiheat benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload NAME [--seed 1] [--seconds 45] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the package is used
from its ``src/`` directory.  Each experiment run happens in a fresh
interpreter started by this script, one at a time, with the BLAS/OpenMP
thread counts capped at the cores available.  The workload seed is the
master seed of every experiment the workload runs.

``--trace 0``: time set-up several times, then repeat untraced runs of the
seed, at least two and more while the next one is expected to fit in
``--seconds``, and report the end-to-end metrics.  ``--trace 1``: one untraced and one traced run of
the same seed; report the per-layer metrics from the traced run and check
that both runs wrote the same artifact bytes.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import THREAD_VARS
from tracing import PER_LAYER

_NOISE = {"alpha": 0.75, "sigma": 1.0}
_SINE = {"kind": "sine", "kappa": 0.5}

WORKLOADS = {
    # the README headline; ~72 s a run on 2 cores, too long for the run
    # budget of the workloads BENCHMARK.json lists, so it is left out there
    "headline-d1": {
        "experiment": "theorem1",
        "grid": {"dim": 1, "n": 256, "t_end": 1.0, "cfl": 0.25},
        "noise": _NOISE, "nonlinearity": _SINE,
        "params": {"basepoints": 16},
    },
    # analysis-heavy: LPs, seminorms, corpus; every noise step used once
    "lemmas-d1": {
        "experiment": "lemmas",
        "grid": {"dim": 1, "n": 64, "t_end": 1.0, "cfl": 0.25},
        "noise": _NOISE, "nonlinearity": _SINE,
        "params": {"refine": True},
    },
    # the 2-D paths; the default r_min_factor=4 leaves fewer than 4 radii
    # at n=64 and the run raises
    "modelling-d2": {
        "experiment": "theorem1",
        "grid": {"dim": 2, "n": 64, "t_end": 1.0, "cfl": 0.25},
        "noise": _NOISE, "nonlinearity": _SINE,
        "regularity": {"r_min_factor": 2},
        "params": {"basepoints": 4},
    },
}

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUPS = 5
MIN_RUNS = 2  # a repeat of the seed checks determinism in every invocation
BUDGET_S = 175.0  # every invocation ends within 180 s
ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        given = env.get(var, "")
        env[var] = str(min(int(given), nproc) if given.isdigit() and int(given) > 0 else nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha():
    """HEAD commit read from .git inside the checkout, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Child:
    """Starts child.py steps, each to completion before the next."""

    def __init__(self, config: dict, seed: int, deadline: float):
        self.base = [sys.executable, str(ROOT / "bench" / "child.py")]
        self.common = ["--config-json", json.dumps(config), "--seed", str(seed)]
        self.env = child_env()
        self.deadline = deadline

    def _call(self, args: list):
        """(last stdout line as JSON or None, start time, problem or None);
        the start is on the system-wide monotonic clock the child reads too."""
        t0 = time.monotonic()
        timeout = self.deadline - t0
        if timeout <= 0:
            return None, t0, "no time left in the run budget"
        try:
            proc = subprocess.run(self.base + args + self.common, stdout=subprocess.PIPE,
                                  text=True, env=self.env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, t0, f"timed out after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, t0, f"child exited {proc.returncode}"
        return json.loads(lines[-1]), t0, None

    def setup(self):
        """Seconds from starting a fresh interpreter to a validated config."""
        out, t0, problem = self._call(["setup"])
        return (out["ready"] - t0 if problem is None else None), problem

    def run(self, workdir: Path, traced: bool) -> dict:
        args = ["run", "--workdir", str(workdir)] + (["--trace"] if traced else [])
        out, t0, problem = self._call(args)
        out = {"problems": [problem], "run_s": None} if problem is not None else out
        out["wall_s"] = time.monotonic() - t0
        return out


def tail_percentile(values: list):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    q = 100 * (n - 10) // n
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe(name: str, values: list, unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    tail = tail_percentile(values)
    tail_s = (f", p{tail[0]} {tail[1]:.6g} {unit}" if tail
              else ", no tail percentile (needs >= 11 samples)")
    return f"{name}: median {statistics.median(values):.6g} {unit}{tail_s}, n={len(values)}"


def check_digests(runs: list, store: Path, key: str) -> None:
    """Mark runs whose artifact bytes differ from another run of this code."""
    known = json.loads(store.read_text()) if store.is_file() else {}
    reference = known.get(key)
    for run in runs:
        digest = run.get("artifact_sha256")
        if digest is None:
            continue
        if reference is None:
            reference = digest
        elif digest != reference:
            run.setdefault("problems", []).append(
                f"artifact digest {digest[:12]} differs from {reference[:12]} "
                "of another run of the same code and seed")
    if reference is not None and key not in known:
        known[key] = reference
        store.write_text(json.dumps(known, indent=1, sort_keys=True))


def checks_failed_share(runs: list) -> tuple:
    """(failed asserted checks, asserted checks) over all runs; a run with a
    problem counts every check as failed."""
    per_run = max((r.get("checks", 0) for r in runs), default=0) or 1
    failed = total = 0
    for r in runs:
        n = r.get("checks") or per_run
        total += n
        failed += n if r.get("problems") else len(r["checks_failed"])
    return failed, total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "quasiheat" / "__init__.py").is_file():
        print(f"bench: no quasiheat package under {ROOT / 'src'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    source = source_sha256()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "load_avg_start": os.getloadavg(), "git_sha": git_sha(), "source_sha256": source,
    }
    workdir = ROOT / ".bench_out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    child = Child(WORKLOADS[args.workload], args.seed, deadline)

    setups, setup_problems = [], []
    runs = []
    if args.trace == 0:
        for _ in range(SETUPS):
            seconds, problem = child.setup()
            if problem is None:
                setups.append(seconds)
            else:
                setup_problems.append(problem)
        spent = 0.0
        while True:
            run = child.run(workdir, traced=False)
            runs.append(run)
            spent += run["wall_s"]
            per_run = spent / len(runs)
            if (run.get("problems") or time.monotonic() + 1.5 * per_run > deadline
                    or (len(runs) >= MIN_RUNS and spent + per_run > args.seconds)):
                break
    else:
        runs.append(child.run(workdir, traced=False))
        runs.append(child.run(workdir, traced=True))
    check_digests(runs, ROOT / ".bench_out" / "digests.json",
                  f"{args.workload} seed={args.seed} source={source}")

    good = [r for r in runs if not r.get("problems")]
    n_failed, n_checks = checks_failed_share(runs)
    failed_names = sorted({name for r in good for name in r["checks_failed"]})
    digests = sorted({r["artifact_sha256"] for r in good})
    if good:
        record["environment"] = good[0]["environment"]
    print(json.dumps({"record": record}, sort_keys=True))
    for r in runs:
        for problem in r.get("problems", []):
            print(f"FAILED RUN: {problem}")
    for problem in setup_problems:
        print(f"FAILED SETUP: {problem}")

    run_s = [r["run_s"] for r in good if not r.get("trace")]
    rss = [r["peak_rss_mb"] for r in good if not r.get("trace")]
    print(describe("run_s", run_s, "s"))
    if args.trace == 0:
        print(describe("setup_s", setups, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    print(f"checks_failed_share: {n_failed / n_checks:.6g} "
          f"({n_failed} of {n_checks} asserted checks over {len(runs)} runs"
          f"{'; failing: ' + ', '.join(failed_names) if failed_names else ''})")
    print(f"artifact_sha256: {' '.join(digests) if digests else 'none'}")

    metrics = {}
    if args.trace == 0:
        values = {"run_s": run_s, "setup_s": setups, "peak_rss_mb": rss}
        for name, unit in END_TO_END:
            if values[name]:
                metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    else:
        traced = next((r["trace"] for r in good if r.get("trace")), None)
        if traced is not None and run_s:
            traced["trace.overhead_share"] = (traced["trace.run_s"] - run_s[0]) / run_s[0]
            traced["checks_failed_share"] = n_failed / n_checks
            traced["harness.artifact_bytes"] = next(r["artifact_bytes"] for r in good)
            print("counts: " + ", ".join(
                f"{k}={traced[k]}" for k in (
                    "noise.increment_hat.calls", "solver.sweeps", "solver.steps",
                    "fitting.linprog.calls", "fitting.chebyshev_center.calls", "trace.spans")))
            metrics = {name: {"value": traced[name], "unit": unit} for name, unit in PER_LAYER}

    expected = END_TO_END if args.trace == 0 else PER_LAYER
    attempted = len(runs) + len(setups) + len(setup_problems)
    failed = len(runs) - len(good) + len(setup_problems)
    correct = failed == 0 and len(metrics) == len(expected)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
