"""The benchmark workloads' artifacts against their recorded digests.

Each workload of ``bench/run.py`` runs at seeds 1 and 23 (``headline-d1``,
the slowest, at seed 1 only) through the CLI, as the benchmark runs it, and
``bench/child.py``'s ``artifact_digest`` of what it wrote must equal the pin
of that (workload, seed).  A change that
keeps every artifact byte passes; a change that moves artifact bytes on
purpose updates ``PINS`` here.  The pins were recorded on Linux x86-64 with
numpy 2.4.6.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from quasiheat import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sys.path.insert(0, str(BENCH))  # run.py imports child and tracing by these names
try:
    run = _load("run")
finally:
    sys.path.remove(str(BENCH))
child = _load("child")

PINS = {
    ("lemmas-d1", 1): "6e500f5781f7151b6402509f4cc10dd3ec0d601785a79d3517f5b1d2fb40d3f4",
    ("lemmas-d1", 23): "d14593650d0c8b0a1f88949c1e9a26aaf027d829b0946c6cac829fe1dd7b9ed3",
    ("modelling-d2", 1): "89f93b52801c9bfaffc1e7a694eaa9b9523b47a48dc5d6437682c5e815c8456e",
    ("modelling-d2", 23): "fcb95d4aec37c7e82005089b4a2dd84ff210111f52ba29a1c9ca185fa278e186",
    # the only run that fits pinned d = 1 gradients end to end; about 17 s
    ("headline-d1", 1): "868ac490c94a3bb80e63a525fcd4f19ecd5d6f2b2c52a45782bf43c0295a51da",
}


@pytest.mark.parametrize("workload,seed", [
    pytest.param(*key, marks=pytest.mark.slow if key[0] == "headline-d1" else ())
    for key in sorted(PINS)])
def test_artifacts_match_their_pin(workload, seed, tmp_path, monkeypatch):
    config = dict(run.WORKLOADS[workload], output_dir=child.OUT)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config, sort_keys=True))
    cli.main([config["experiment"], "--config", "config.json", "--seed", str(seed)])
    [report] = (tmp_path / child.OUT).glob("*/report.json")
    assert child.artifact_digest(report.parent) == PINS[workload, seed]
