"""The benchmark's child script, ``perfbench/probe.py``, drives this package:
every function it wraps resolves, every verify suite it names exists, and a
traced ``theta`` run ends in one JSON result line with nothing absent.  The
script is imported by path and run as it is."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import cubicforms
from cubicforms import cli

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


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
