"""Benchmark of the cubicforms modular pipeline.

    python3 perfbench/run.py --workload theta_depth --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Every operation runs in a fresh
interpreter that this process starts and waits for, one at a time (a closed
loop with one client), so no operation inherits another's in-process
caches.  Outputs are checked against ``oracle.py``, which never imports
``cubicforms``, or against the ``verify`` properties.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from probe import VERIFY_SUITES  # noqa: E402

SETUP_STARTS = 7
CAL_ROUNDS = 20000
RUN_DEADLINE_S = 170  # the whole run, the longest operation included

THETA_DEPTH_TERMS = 45
# A session opens at 32, asks in a seeded order for a repeat of 32 and three
# lower precisions, and ends with one higher.  Every seed then does the same
# work and reaches the same peak memory, both under the per-precision caches
# of today and under any memo that serves a lower precision by truncating a
# higher one: the largest request always meets the same cached state.
SESSION_FIRST = 32
SESSION_MIDDLE = (16, 24, 28, 32)
SESSION_LAST = 40

WORKLOADS = ("theta_depth", "theta_session", "verify_all")

END_TO_END = {"setup_s": "s", "calls": "count", "op_cal": "cal", "peak_rss_mb": "MB"}

# (metric, unit, span name in probe.TARGETS, field of the span summary)
SPAN_METRICS = [
    ("eisenstein.vv_eisenstein_s", "s", "eisenstein.vv_eisenstein", "s"),
    ("eisenstein.vv_eisenstein_calls", "count", "eisenstein.vv_eisenstein", "calls"),
    ("eisenstein.prime_power_counts_s", "s", "eisenstein.prime_power_counts", "s"),
    ("eisenstein.local_euler_factor_calls", "count", "eisenstein.local_euler_factor", "calls"),
    ("eisenstein.theta_series_rank10_s", "s", "eisenstein.theta_series_rank10", "s"),
    ("vvmf.basis_weight11_self_s", "s", "vvmf.basis_weight11", "self_s"),
    ("vvmf.rankin_cohen_s", "s", "vvmf.rankin_cohen", "s"),
    ("vvmf.solve_psi_self_s", "s", "vvmf.solve_psi", "self_s"),
    ("vvmf.assemble_theta_s", "s", "vvmf.assemble_theta", "s"),
    ("vvmf.numeric_modularity_check_s", "s", "vvmf.numeric_modularity_check", "s"),
    ("qseries.mul_calls", "count", "qseries.mul", "calls"),
    ("qseries.mul_s", "s", "qseries.mul", "s"),
    ("qseries.solve_linear_combination_s", "s", "qseries.solve_linear_combination", "s"),
    ("fqm.short_vectors_s", "s", "fqm.short_vectors", "s"),
    ("fqm.weilrep_rho_s", "s", "fqm.weilrep_rho", "s"),
    ("fqm.weilrep_rho_calls", "count", "fqm.weilrep_rho", "calls"),
    ("exactmath.cyclotomic_mul_calls", "count", "exactmath.cyclotomic_mul", "calls"),
    ("exactmath.cyclotomic_mul_s", "s", "exactmath.cyclotomic_mul", "s"),
    ("schubert.degrees_s", "s", "schubert.degrees", "s"),
] + [
    (f"cli.verify_suite_s.{suite}", "s", f"cli.verify_suite.{suite}", "s")
    for suite in VERIFY_SUITES
]
# (metric, unit, counter, span whose wrapper computes it); term_products is
# computed from operand sizes, not counted inside the product loop
COUNTER_METRICS = [
    ("qseries.term_products", "computed", "qseries.term_products", "qseries.mul"),
    ("fqm.short_vectors_found", "count", "fqm.short_vectors_found", "fqm.short_vectors"),
]


# ---------------------------------------------------------------------------
# workloads and output checks
# ---------------------------------------------------------------------------

def session_precisions(seed: int) -> list[int]:
    middle = list(SESSION_MIDDLE)
    random.Random(seed).shuffle(middle)
    return [SESSION_FIRST] + middle + [SESSION_LAST]


def operation(workload: str, seed: int) -> list[str]:
    """The operation every round of the workload repeats, as probe.py's OP."""
    if workload == "theta_depth":
        return ["cli", "theta", "--terms", str(THETA_DEPTH_TERMS), "--format", "json"]
    if workload == "theta_session":
        return ["session"] + [str(p) for p in session_precisions(seed)]
    if workload == "verify_all":
        return ["cli", "verify", "--suite", "all", "--format", "json"]
    raise ValueError(f"unknown workload {workload!r}")


@functools.lru_cache(maxsize=None)
def _oracle(prec: int) -> tuple[int, dict[int, int]]:
    return oracle.degree_series(prec)


def _theta_matches(constant: str, degrees: dict[int, int], terms: int) -> bool:
    want_const, want = _oracle(max(2, terms))
    want = {d: v for d, v in want.items() if Fraction(d, 6) < terms}
    return int(constant) == want_const and degrees == want


def output_ok(op: list[str], text: str) -> bool:
    """True when the operation's output agrees with the oracle (theta,
    session) or reports every verify suite with every property passing."""
    kind, args = op[0], op[1:]
    try:
        if kind == "session":
            got = json.loads(text)
            precs = [int(p) for p in args]
            return len(got) == len(precs) and all(
                item["prec"] == p
                and _theta_matches(
                    item["constant"], {int(d): int(v) for d, v in item["degrees"].items()}, p
                )
                for item, p in zip(got, precs)
            )
        record = json.loads(text)
        if args[0] == "theta":
            result = record["result"]
            degrees = {row["d"]: int(row["deg"]) for row in result["degrees"]}
            return _theta_matches(result["constant"], degrees, int(args[2]))
        if args[0] == "verify":
            rows = record["result"]
            suites = {row["suite"] for row in rows}
            return bool(rows) and all(row["status"] == "pass" for row in rows) and all(
                s in suites for s in VERIFY_SUITES
            )
    except (ValueError, KeyError, TypeError, IndexError):
        return False
    raise ValueError(f"no check for operation {op!r}")


class Tally:
    """Operations attempted and failed.  An operation fails when its process
    exits nonzero or its output is wrong; a wrong output from a process that
    exited 0 also marks the run incorrect, since nothing reported it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.silent_wrong = 0

    def record(self, op: list[str], rc: int, text: str) -> bool:
        self.attempted += 1
        ok = output_ok(op, text) if rc == 0 else False
        if not ok:
            self.failed += 1
            if rc == 0:
                self.silent_wrong += 1
        return ok


# ---------------------------------------------------------------------------
# processes, calibration and time
# ---------------------------------------------------------------------------

def calibrate(rounds: int = CAL_ROUNDS) -> float:
    """Seconds for a fixed stdlib Fraction and small-int loop.  An operation
    timed in ``cal`` is divided by the mean of this loop just before and just
    after it, on the same processor, so a slower processor cancels."""
    start = time.perf_counter()
    check = 0
    for i in range(1, rounds + 1):
        x = Fraction(i, i % 97 + 1)
        y = Fraction(i % 13 + 1, i % 7 + 2)
        z = x * y + x / y - y
        check += z.numerator % 1009 + sum(j * j for j in range(i % 17))
    elapsed = time.perf_counter() - start
    if check <= 0:
        raise AssertionError("calibration loop did no work")
    return elapsed


class Runner:
    """Starts one child at a time and waits for it, with a deadline for the
    whole run; a child still running at the deadline is killed and fails."""

    def __init__(self, root: Path, out_dir: Path, deadline: float):
        self.out_dir = out_dir
        self.deadline = deadline
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}")
        self._pid = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._pid is not None:
            try:
                os.kill(self._pid, signal.SIGKILL)
            except ProcessLookupError:  # reaped between wait4 and alarm(0)
                pass

    def spawn(self, argv: list[str]) -> tuple[int, float, int, str]:
        """(exit code, wall seconds, peak RSS in KiB, standard output)."""
        remaining = self.deadline - time.monotonic()
        if remaining < 1:
            return -1, 0.0, 0, ""
        out_path = self.out_dir / "child.out"
        with open(out_path, "w+b") as out, open(self.out_dir / "child.err", "wb") as err:
            actions = [
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            signal.alarm(int(remaining))
            start = time.perf_counter()
            self._pid = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env,
                                       file_actions=actions)
            try:
                _, status, usage = os.wait4(self._pid, 0)
            finally:
                wall = time.perf_counter() - start
                signal.alarm(0)
                self._pid = None
            out.seek(0)
            text = out.read().decode(errors="replace")
        return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, text

    def setup_time(self) -> float:
        """Seconds from starting an interpreter until ``import cubicforms``
        returns, read on the monotonic clock that both processes share."""
        code = ("import time; import cubicforms; "
                "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        rc, _, _, text = self.spawn(["-c", code])
        if rc != 0:
            raise RuntimeError("import cubicforms failed")
        return float(text) - start

    def probe(self, mode: list[str], op: list[str], tally: Tally) -> dict | None:
        rc, _, _, text = self.spawn([str(HERE / "probe.py")] + mode + op)
        report = None
        if rc == 0:
            try:
                report = json.loads(text.strip().splitlines()[-1])
            except (ValueError, IndexError):
                report = None
        if report is None:
            tally.record(op, rc if rc else 1, "")
            return None
        tally.record(op, report["rc"], report["output"])
        return report


def timed_argv(op: list[str]) -> list[str]:
    """The operation as a user runs it: the CLI itself, or probe.py's session."""
    if op[0] == "cli":
        return ["-m", "cubicforms.cli"] + op[1:]
    return [str(HERE / "probe.py")] + op


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(runner: Runner, op: list[str], seconds: int, tally: Tally, samples: dict) -> dict:
    setups = [runner.setup_time() for _ in range(SETUP_STARTS)]
    counted = runner.probe(["count"], op, tally)
    argv = timed_argv(op)
    walls, cals, rss = [], [], []
    cal_before = calibrate()
    start = time.monotonic()
    while True:
        rc, wall, maxrss, text = runner.spawn(argv)
        cal_after = calibrate()
        if tally.record(op, rc, text):
            walls.append(wall)
            cals.append((cal_before + cal_after) / 2)
            rss.append(maxrss / 1024)
        cal_before = cal_after
        if rc < 0 or time.monotonic() - start >= seconds:
            break
    samples.update(setup_s=setups, op_s=walls, cal_s=cals, peak_rss_mb=rss,
                   calls=counted and counted["calls"])
    metrics = {"setup_s": statistics.median(setups)}
    if counted:
        metrics["calls"] = counted["calls"]
    if walls:
        # total operation time over total neighbouring calibration time: over
        # this benchmark's own runs it was steadier than the median of the
        # per-operation ratios (README.md)
        metrics["op_cal"] = sum(walls) / sum(cals)
        metrics["peak_rss_mb"] = statistics.median(rss)
        q1, q2, q3 = quartiles(walls)
        print(f"op_s median {q2:.4f} quartiles {q1:.4f} {q3:.4f} over {len(walls)} ops; "
              f"calibration median {statistics.median(cals):.4f} s")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(runner: Runner, op: list[str], tally: Tally, dump: Path) -> dict:
    counted = runner.probe(["count"], op, tally)
    plain = runner.probe(["plain"], op, tally)
    traced = runner.probe(["trace", str(dump)], op, tally)
    metrics, absent = layer_metrics(counted, plain, traced)
    if absent:
        print("absent at this commit: " + ", ".join(absent))
    return metrics


def layer_metrics(counted, plain, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics from the probe reports, and the span names absent
    at the measured commit; a metric of an absent span is left out."""
    metrics = {}
    absent = sorted(traced["absent"]) if traced else []
    if counted:
        metrics["exactmath.fraction_calls"] = (counted["fraction_calls"], "count")
    if traced:
        layers = traced["layers"]
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
        for name, unit, span, field in SPAN_METRICS:
            if span not in absent:
                metrics[name] = (layers.get(span, empty)[field], unit)
        for name, unit, counter, span in COUNTER_METRICS:
            if span not in absent:
                metrics[name] = (traced["counters"].get(counter, 0), unit)
        metrics["trace.op_s"] = (traced["op_s"], "s")
        if plain:
            metrics["trace.plain_op_s"] = (plain["op_s"], "s")
            metrics["trace.overhead_frac"] = (traced["op_s"] / plain["op_s"] - 1, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cubicforms" / "__init__.py").is_file():
        print("error: run from the root of a cubicforms checkout (no src/cubicforms)",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    # the harness, its calibration loop and every child share one processor:
    # the two processors here run at different, changing speeds, and a loop
    # timed on one says nothing about an operation run on the other
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    runner = Runner(root, out_dir, time.monotonic() + RUN_DEADLINE_S)
    op = operation(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} on processor {cpu}: {' '.join(op)}")
    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = per_layer(runner, op, tally, out_dir / f"spans-{tag}.csv")
    else:
        samples: dict = {}
        metrics = end_to_end(runner, op, args.seconds, tally, samples)
        (out_dir / f"samples-{tag}.json").write_text(json.dumps(samples))
    print(json.dumps({
        "correct": tally.silent_wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
