"""One measured step of the benchmark, in a fresh interpreter.

    python3 bench/child.py setup --config-json JSON --seed N
    python3 bench/child.py run   --config-json JSON --seed N --workdir DIR [--trace]

``setup`` imports quasiheat, builds the config and validates it, then prints
the monotonic clock, which the parent compares with the time it started the
process.  ``run`` writes the config into DIR, calls ``quasiheat.cli.main``
there (artifacts land in DIR/out), times the call, checks the artifacts and
prints one JSON line.
The CLI's own output goes to stderr so stdout carries only results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

OUT = "out"  # relative: the config hash, hence report.json, includes it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def setup(config: dict, seed: int) -> dict:
    # importing the harness runs quasiheat/__init__.py, which loads every module
    from quasiheat.harness import ExperimentConfig, validate_config

    cfg = ExperimentConfig.from_dict(dict(config, seeds=[seed]))
    summary = validate_config(cfg)
    return {"ready": time.monotonic(), "config_hash": summary["config_hash"]}


def artifact_digest(report_dir: Path) -> str:
    """SHA-256 over every artifact's name and bytes except run_meta.json."""
    h = hashlib.sha256()
    for path in sorted(p for p in report_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(report_dir).as_posix()
        if rel == "run_meta.json":
            continue
        h.update(rel.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_artifacts(out: Path, rc) -> dict:
    """Read the run's report and list every way it disagrees with itself."""
    reports = sorted(out.glob("*/report.json"))
    if len(reports) != 1:
        return {"problems": [f"expected one report.json under {OUT}/, found {len(reports)}"]}
    report_dir = reports[0].parent
    body = json.loads(reports[0].read_text())
    checks = body["checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    problems = []
    if body["passed"] != (not failed):
        problems.append("report.passed disagrees with its checks")
    if rc != (0 if body["passed"] else 1):
        problems.append(f"exit code {rc} disagrees with report.passed={body['passed']}")
    if body["config_hash"] != report_dir.name:
        problems.append("report config_hash differs from its directory")
    missing = [a for a in body["artifacts"] if not (report_dir / a).is_file()]
    if missing:
        problems.append(f"listed artifacts missing: {missing}")
    return {
        "problems": problems,
        "checks": len(checks),
        "checks_failed": failed,
        "artifact_sha256": artifact_digest(report_dir),
        "artifact_bytes": sum(p.stat().st_size for p in report_dir.rglob("*") if p.is_file()),
    }


def run_once(config: dict, seed: int, workdir: Path, tracer=None) -> dict:
    """One experiment run through the CLI entry, timed from call to artifacts
    written; ``tracer`` (a tracing.Tracer) is installed around the call only."""
    from quasiheat import cli

    workdir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir / OUT, ignore_errors=True)
    (workdir / "config.json").write_text(json.dumps(dict(config, output_dir=OUT), sort_keys=True))
    argv = [config["experiment"], "--config", "config.json", "--seed", str(seed)]
    cwd = os.getcwd()
    os.chdir(workdir)
    rc, run_s, error = None, None, None
    try:
        with contextlib.redirect_stdout(sys.stderr), tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            rc = cli.main(argv)
            run_s = time.perf_counter() - t0
    except (Exception, SystemExit):
        error = traceback.format_exc()
    finally:
        os.chdir(cwd)
    result = {"rc": rc, "run_s": run_s}
    if error is not None:
        result["problems"] = [f"run raised: {error}"]
        return result
    result.update(check_artifacts(workdir / OUT, rc))
    return result


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--config-json", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    config = json.loads(args.config_json)
    if args.mode == "setup":
        print(json.dumps(setup(config, args.seed)), flush=True)
        return 0

    workdir = Path(args.workdir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result = run_once(config, args.seed, workdir, tracer)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["environment"] = environment()
    if tracer is not None and result["run_s"] is not None:
        result["trace"] = tracer.summary(result["run_s"])
        tracer.write(workdir / "spans.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
