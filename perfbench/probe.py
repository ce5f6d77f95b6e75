"""Child side of the benchmark: runs one operation in a fresh interpreter.

    python3 perfbench/probe.py session P1 P2 ...        run theta_degrees(P) in turn
    python3 perfbench/probe.py count  OP...             the same under cProfile
    python3 perfbench/probe.py plain  OP...             timed in-process, no tracing
    python3 perfbench/probe.py trace  DUMP OP...        spans around public functions

OP is ``cli ARGV...`` (``cubicforms.cli.main(ARGV)``) or ``session P1 P2 ...``.
``session`` prints the session output as JSON.  The other modes print one
JSON line: the exit code, the operation's output and what the mode measured.
Nothing here runs at import, so the tests import the tracer directly.
"""

from __future__ import annotations

import json
import sys
import time

# Spans are recorded around these public functions.  A name missing at the
# measured commit is reported absent rather than failing the traced run.
TARGETS = (
    ("cubicforms.eisenstein", "vv_eisenstein", "eisenstein.vv_eisenstein"),
    ("cubicforms.eisenstein", "prime_power_counts", "eisenstein.prime_power_counts"),
    ("cubicforms.eisenstein", "local_euler_factor", "eisenstein.local_euler_factor"),
    ("cubicforms.eisenstein", "theta_series_rank10", "eisenstein.theta_series_rank10"),
    ("cubicforms.vvmf", "basis_weight11", "vvmf.basis_weight11"),
    ("cubicforms.vvmf", "rankin_cohen", "vvmf.rankin_cohen"),
    ("cubicforms.vvmf", "solve_psi", "vvmf.solve_psi"),
    ("cubicforms.vvmf", "assemble_theta", "vvmf.assemble_theta"),
    ("cubicforms.vvmf", "numeric_modularity_check", "vvmf.numeric_modularity_check"),
    ("cubicforms.qseries", "QSeries.__mul__", "qseries.mul"),
    ("cubicforms.qseries", "solve_linear_combination", "qseries.solve_linear_combination"),
    ("cubicforms.fqm", "short_vectors", "fqm.short_vectors"),
    ("cubicforms.fqm", "WeilRep.rho", "fqm.weilrep_rho"),
    ("cubicforms.exactmath", "Cyclotomic.__mul__", "exactmath.cyclotomic_mul"),
    ("cubicforms.schubert", "degree_c6_recurrence", "schubert.degrees"),
    ("cubicforms.schubert", "degree_c6_segre", "schubert.degrees"),
    ("cubicforms.schubert", "degree_c8_recurrence", "schubert.degrees"),
    ("cubicforms.schubert", "degree_c8_segre", "schubert.degrees"),
)

VERIFY_SUITES = ("degrees", "eisenstein", "milgram", "modularity", "qseries", "schubert", "weil")


class Tracer:
    """Spans (id, name, start, end, parent id) kept in memory, plus counters
    computed from arguments and results at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: set[str] = set()

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def install(self, modules: dict, targets=TARGETS, suites=VERIFY_SUITES):
        """Wrap each target and rebind every reference to it that the
        package's modules hold, so calls through any import path are seen."""
        afters = {
            "qseries.mul": self._count_term_products,
            "fqm.short_vectors": lambda args, result: self.count(
                "fqm.short_vectors_found", len(result)
            ),
        }
        wrapped = set()
        for module_name, path, name in targets:
            module = modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped.add(name)
            wrapper = self.wrap(name, original, afters.get(name))
            if owner_name:
                # a method: also rebind aliases such as __rmul__ = __mul__
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            else:
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        # a span name is absent only when none of its functions exists
        self.absent.update({name for _, _, name in targets} - wrapped)
        cli = modules.get("cubicforms.cli")
        table = getattr(cli, "SUITES", None)
        for suite in suites:
            factory = table.get(suite) if isinstance(table, dict) else None
            if factory is None:
                self.absent.add(f"cli.verify_suite.{suite}")
                continue
            table[suite] = self._suite_factory(suite, factory)

    def _suite_factory(self, suite, factory):
        def traced_factory(*args, **kwargs):
            return [
                (prop, self.wrap(f"cli.verify_suite.{suite}", check))
                for prop, check in factory(*args, **kwargs)
            ]

        return traced_factory

    def _count_term_products(self, args, result):
        left, right = args[0], args[1] if len(args) > 1 else None
        if hasattr(right, "coeffs") and hasattr(left, "coeffs"):
            self.count("qseries.term_products", len(left.coeffs) * len(right.coeffs))

    def summary(self) -> dict:
        """Per-name totals: calls, inclusive seconds over outermost spans
        (recursion is not counted twice) and self seconds (a span minus the
        spans it directly caused)."""
        names = {}
        child_time = {}
        for sid, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for sid, name, start, end, parent in self.spans:
            entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
            if not self._inside(parent, name):
                entry["s"] += end - start
        return names

    def _inside(self, parent, name) -> bool:
        while parent >= 0:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent}\n")


def _session_call(precs):
    from cubicforms import theta_degrees

    return [theta_degrees(p) for p in precs]


def session_output(precs, results) -> str:
    return json.dumps(
        [
            {
                "prec": p,
                "constant": str(h.theta.coefficient(0)),
                "degrees": {str(d): str(v) for d, v in sorted(h.degrees.items())},
            }
            for p, h in zip(precs, results)
        ]
    )


def _operation(op):
    """(call, finish): ``call()`` makes the calls into cubicforms and
    ``finish(result)`` turns its result into (exit code, output text), so the
    measured region holds the operation alone."""
    kind, args = op[0], op[1:]
    if kind == "cli":
        import io

        from cubicforms import cli

        buf = io.StringIO()
        return (lambda: cli.main(args, out=buf)), lambda rc: (rc, buf.getvalue())
    if kind == "session":
        precs = [int(p) for p in args]
        return (lambda: _session_call(precs)), lambda res: (0, session_output(precs, res))
    raise SystemExit(f"unknown operation kind {kind!r}")


def main(argv) -> int:
    mode = argv[0]
    if mode == "session":
        precs = [int(p) for p in argv[1:]]
        print(session_output(precs, _session_call(precs)))
        return 0
    # stdlib modules that the operation would import lazily (argparse's
    # gettext pulls in locale; two verify suites import random) are loaded
    # first, so the measured region holds no import work
    import locale  # noqa: F401
    import random  # noqa: F401

    import cubicforms  # noqa: F401

    if mode == "count":
        import cProfile

        call, finish = _operation(argv[1:])
        loaded = set(sys.modules)
        profiler = cProfile.Profile()
        profiler.enable()
        res = call()
        profiler.disable()
        # one entry per code object or builtin; the pstats table is keyed by
        # (file, line, name) and keeps only one of two comprehensions that
        # share a line, so summing it made the count depend on entry order
        entries = profiler.getstats()
        rc, text = finish(res)
        report = {
            "imported_during_count": sorted(set(sys.modules) - loaded),
            "calls": sum(e.callcount for e in entries),
            "fraction_calls": sum(
                e.callcount for e in entries
                if getattr(e.code, "co_filename", "").endswith("fractions.py")
            ),
        }
    elif mode == "plain":
        call, finish = _operation(argv[1:])
        start = time.perf_counter()
        res = call()
        report = {"op_s": time.perf_counter() - start}
        rc, text = finish(res)
    elif mode == "trace":
        import cubicforms.cli  # noqa: F401  (its verify suites are targets too)

        dump = argv[1]
        tracer = Tracer()
        call, finish = _operation(argv[2:])
        tracer.install({k: v for k, v in sys.modules.items() if k.split(".")[0] == "cubicforms"})
        start = time.perf_counter()
        res = call()
        op_s = time.perf_counter() - start
        rc, text = finish(res)
        tracer.dump(dump)
        report = {
            "op_s": op_s,
            "layers": tracer.summary(),
            "counters": tracer.counters,
            "absent": sorted(tracer.absent),
        }
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    report.update(rc=rc, output=text)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
