"""Failure accounting, calibration and tracing of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The tests that start a probe need the package's sources in ``src/`` next to
``perfbench/``.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402

THETA_OP = ["cli", "theta", "--terms", "8", "--format", "json"]
VERIFY_OP = run.operation("verify_all", 0)


def _env(**extra):
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not old else src + os.pathsep + old, **extra)


def _theta_record(terms):
    constant, degrees = oracle.degree_series(terms)
    rows = [{"d": d, "deg": str(v)} for d, v in degrees.items() if d < 6 * terms]
    return {"result": {"constant": str(constant), "degrees": rows}}


def _verify_record(status="pass", suites=probe.VERIFY_SUITES):
    return {"result": [{"suite": s, "property": "p", "status": status} for s in suites]}


def test_correct_outputs_pass():
    tally = run.Tally()
    assert tally.record(THETA_OP, 0, json.dumps(_theta_record(8)))
    assert tally.record(VERIFY_OP, 0, json.dumps(_verify_record()))
    assert (tally.attempted, tally.failed, tally.silent_wrong) == (2, 0, 0)


def test_corrupted_degree_is_a_failure():
    record = _theta_record(8)
    record["result"]["degrees"][3]["deg"] = str(int(record["result"]["degrees"][3]["deg"]) + 1)
    tally = run.Tally()
    assert not tally.record(THETA_OP, 0, json.dumps(record))
    assert (tally.attempted, tally.failed, tally.silent_wrong) == (1, 1, 1)


def test_missing_degree_is_a_failure():
    record = _theta_record(8)
    del record["result"]["degrees"][-1]
    assert not run.Tally().record(THETA_OP, 0, json.dumps(record))


def test_nonzero_exit_is_a_failure():
    tally = run.Tally()
    assert not tally.record(THETA_OP, 1, json.dumps(_theta_record(8)))
    assert (tally.attempted, tally.failed, tally.silent_wrong) == (1, 1, 0)


def test_failed_property_or_silent_suite_is_a_failure():
    tally = run.Tally()
    assert not tally.record(VERIFY_OP, 0, json.dumps(_verify_record(status="FAIL")))
    assert not tally.record(VERIFY_OP, 0, json.dumps(_verify_record(suites=("degrees",))))
    assert not tally.record(VERIFY_OP, 0, "not json")
    assert tally.failed == 3


def test_session_output_is_checked_per_request():
    op = run.operation("theta_session", 5)
    precs = [int(p) for p in op[1:]]
    good = [
        {"prec": p, "constant": "-2",
         "degrees": {str(d): str(v) for d, v in oracle.degree_series(p)[1].items()}}
        for p in precs
    ]
    assert run.output_ok(op, json.dumps(good))
    good[2]["degrees"]["6"] = "193"
    assert not run.output_ok(op, json.dumps(good))


def test_session_precisions():
    precs = run.session_precisions(7)
    assert precs == run.session_precisions(7)
    assert sorted(precs) == sorted((run.SESSION_FIRST, *run.SESSION_MIDDLE, run.SESSION_LAST))
    assert precs[-1] == max(precs)  # the one higher request comes last
    assert len(set(precs)) < len(precs)  # a repeat
    assert any(p < max(precs[:i]) for i, p in enumerate(precs) if i)  # a lower request
    assert all(16 <= p <= 40 for p in precs)


def test_calibration_leaves_the_package_unimported():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; run.calibrate(2000); "
        "assert 'cubicforms' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True, env=_env())


def _probe(mode, op, **env):
    out = subprocess.run(
        [sys.executable, str(BENCH / "probe.py")] + mode + op,
        check=True, capture_output=True, text=True, env=_env(**env), cwd=ROOT,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_call_count_ignores_the_hash_seed():
    first = _probe(["count"], THETA_OP, PYTHONHASHSEED="1")
    second = _probe(["count"], THETA_OP, PYTHONHASHSEED="2024")
    assert first["calls"] == second["calls"] > 0
    assert first["fraction_calls"] == second["fraction_calls"] > 0
    assert run.output_ok(THETA_OP, first["output"])


def test_nothing_is_imported_inside_the_counted_region():
    for op in (THETA_OP, ["cli", "verify", "--suite", "weil", "--format", "json"],
               ["session", "3", "2"]):
        assert _probe(["count"], op)["imported_during_count"] == []


def test_traced_run_reports_layers(tmp_path):
    traced = _probe(["trace", str(tmp_path / "spans.csv")], THETA_OP)
    assert run.output_ok(THETA_OP, traced["output"])
    metrics, absent = run.layer_metrics(None, None, traced)
    assert absent == []
    assert metrics["eisenstein.vv_eisenstein_calls"]["value"] == 1
    assert metrics["eisenstein.local_euler_factor_calls"]["value"] > 0
    assert 0 < metrics["eisenstein.prime_power_counts_s"]["value"] <= metrics[
        "eisenstein.vv_eisenstein_s"]["value"] <= traced["op_s"]
    assert metrics["fqm.weilrep_rho_calls"]["value"] == 0
    assert (tmp_path / "spans.csv").read_text().startswith("id,name,start,end,parent\n")


def test_missing_function_is_reported_absent():
    """A public function deleted at the measured commit leaves its metric
    out; the traced run goes on with the others."""
    import cubicforms.eisenstein as real

    stripped = types.ModuleType("cubicforms.eisenstein")
    stripped.__dict__.update(
        {k: v for k, v in vars(real).items() if k != "local_euler_factor"}
    )
    tracer = probe.Tracer()
    tracer.install({"cubicforms.eisenstein": stripped}, suites=())
    assert "eisenstein.local_euler_factor" in tracer.absent
    assert "eisenstein.vv_eisenstein" not in tracer.absent
    assert stripped.vv_eisenstein.__wrapped__ is real.vv_eisenstein
    report = {"op_s": 1.0, "layers": tracer.summary(), "counters": tracer.counters,
              "absent": sorted(tracer.absent)}
    metrics, absent = run.layer_metrics(None, None, report)
    assert "eisenstein.local_euler_factor_calls" not in metrics
    assert metrics["eisenstein.vv_eisenstein_calls"]["value"] == 0
    assert "eisenstein.local_euler_factor" in absent
