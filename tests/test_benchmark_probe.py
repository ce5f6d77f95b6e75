"""The benchmark's child script, ``perfbench/probe.py``, drives this package:
every function it wraps resolves, every verify suite it names exists, and a
traced ``theta`` run ends in one JSON result line with nothing absent.  The
script is imported by path and run as it is.  A traced run of the harness,
``perfbench/run.py``, ends in a result line that strict JSON reads."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubicforms
from cubicforms import cli

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "probe.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_targets_and_suites_resolve():
    probe = _load_probe()
    for module_name, path, span in probe.TARGETS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
            assert owner is not None, (module_name, path, span)
        assert callable(owner), span
    assert set(probe.VERIFY_SUITES) <= set(cli.SUITES)


def test_traced_theta_run_ends_in_a_result_line(tmp_path):
    src = str(Path(cubicforms.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(PROBE), "trace", str(tmp_path / "spans.csv"),
         "cli", "theta", "--terms", "12", "--format", "json"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["rc"] == 0, report["output"]
    assert report["absent"] == []
    assert report["layers"]["eisenstein.vv_eisenstein"]["calls"] >= 1
    assert json.loads(report["output"])["result"]["degrees"]


def _not_strict_json(constant):
    raise ValueError(f"{constant} is not a strict JSON value")


@pytest.mark.parametrize("workload", ["theta_depth", "theta_session", "verify_all"])
def test_traced_harness_run_ends_in_a_strict_json_result(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=_not_strict_json)
    assert report["correct"] is True
    assert report["failed"] == 0
    for name, metric in report["metrics"].items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
