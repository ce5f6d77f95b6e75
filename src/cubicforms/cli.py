"""Command-line surface: every pipeline behind one executable with
machine-readable output.

Each subcommand computes its result and returns its exit code, a thunk
that builds its JSON record, its plain lines, its CSV header and its CSV
rows; ``_write`` is the one writer that picks plain, JSON or CSV and writes
to the output stream.

Exit codes: 0 success, 1 verification/integrity failure, 2 usage error.
All numbers in JSON output are exact decimal strings (floats appear only in
``verify`` output for numeric-modularity residuals, labeled as such).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from itertools import chain

from . import schubert
from .eisenstein import (
    _coset_thetas,
    eisenstein_chi,
    eisenstein_level1,
    theta_series_rank10,
    vv_eisenstein,
)
from .fqm import (
    E8_GRAM,
    U_GRAM,
    W_GRAM,
    W_PRIME_GRAM,
    DiscriminantForm,
    EvenLattice,
    Mp2Element,
    WeilRep,
    _level,
    _mat_mul_cyc,
    _scaled_inverse,
    discriminant_form,
    gauss_milgram_check,
    w_prime_form,
)
from .qseries import _series
from .vvmf import _psi_of_basis, basis_weight11, dim_formula, theta_degrees
from .vvmf import numeric_modularity_check

FORMATS = ("plain", "json", "csv")


def canonical_json(obj) -> str:
    """The one JSON encoding used everywhere, so output round-trips byte-for-byte."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _record(command: str, parameters: dict, result, provenance: list[str]) -> dict:
    return dict(command=command, parameters=parameters, result=result, provenance=provenance)


def _write(args, out, code: int, record, plain, header: str, rows) -> int:
    """The one writer of every subcommand: the only code that chooses
    between plain, JSON and CSV, and the only code that writes to ``out``.
    A subcommand hands it its exit code, a thunk that returns its record,
    its plain lines, its CSV header and its CSV rows.  Each is consumed only
    by its own format: the thunk is called only for JSON, and a generator
    passed for another format never runs."""
    if args.format == "json":
        out.write(canonical_json(record()))
    else:
        if args.format == "csv":
            plain = chain([header], (",".join(map(str, row)) for row in rows))
        out.writelines(line + "\n" for line in plain)
    return code


# ---------------------------------------------------------------------------
# subcommands: each returns what _write takes after (args, out)
# ---------------------------------------------------------------------------

def cmd_theta(args):
    heegner = theta_degrees(max(2, args.terms))
    # d/6 in lowest terms: every d is 0 or 2 mod 6
    rows = [
        (d, *((d // 6, 1) if d % 6 == 0 else (d // 2, 3)), deg)
        for d, deg in sorted(heegner.degrees.items())
        if d < 6 * args.terms
    ]
    constant = str(heegner.theta.coefficient(0))
    provenance = [
        "vector-eisenstein-euler-products",
        "rankin-cohen-weight11-basis",
        "two-constraint-solve",
        "coset-contraction",
    ]
    result = {
        "constant": constant,
        "degrees": [
            {"d": d, "exp_num": en, "exp_den": ed, "deg": str(deg)}
            for d, en, ed, deg in rows
        ],
    }
    record = partial(
        _record, "theta", {"terms": args.terms, "format": args.format}, result, provenance
    )

    def plain():
        yield f"Theta(q) constant term: {constant}"
        for d, en, ed, deg in rows:
            yield f"deg(C_{d}) = {deg}   (q^{en}/{ed})"
        yield "# via: " + ", ".join(provenance)

    return 0, record, plain(), "d,exp_num,exp_den,deg", rows


def cmd_eisenstein(args):
    k, terms = args.k, args.terms
    if k % 2 == 0:
        series = {"scalar": eisenstein_level1(k, terms)}
        provenance = ["bernoulli-divisor-sums"]
    elif k == 1:
        series = {"scalar": eisenstein_chi(1, terms)}
        provenance = ["character-divisor-sums"]
    else:
        form = vv_eisenstein(w_prime_form(), k, terms)
        series = {f"v{i}": form.component(i) for i in range(3)}
        provenance = ["local-euler-products", "bernoulli-l-value"]

    def record():
        result = {name: s.to_json_dict()["terms"] for name, s in series.items()}
        return _record(
            "eisenstein", {"k": k, "terms": terms, "format": args.format}, result, provenance
        )

    def plain():
        for name, s in series.items():
            yield f"{name}: {s}"
        yield "# via: " + ", ".join(provenance)

    rows = (
        (name, t["e"], s.den, t["num"], t["den"])
        for name, s in series.items()
        for t in s.to_json_dict()["terms"]
    )
    return 0, record, plain(), "component,e,exp_den,num,den", rows


def cmd_dim(args):
    value = dim_formula(args.k)
    record = partial(
        _record, "dim", {"k": args.k}, {"dimension": value}, ["cyclotomic-gauss-sum-formula"]
    )

    def plain():
        yield f"dim at weight {args.k}: {value}"

    return 0, record, plain(), "k,dim", [(args.k, value)]


def cmd_degree(args):
    d = args.d
    paths = {
        "modular": lambda: theta_degrees(max(2, d // 6 + 1)).degree(d),
        "schubert": schubert.degree_c6_recurrence if d == 6 else schubert.degree_c8_recurrence,
        "segre": schubert.degree_c6_segre if d == 6 else schubert.degree_c8_segre,
    }
    values = {name: path() for name, path in paths.items() if args.method in (name, "all")}
    agree = len(set(values.values())) == 1
    record = partial(
        _record,
        "degree",
        {"d": d, "method": args.method},
        {"values": {k: str(v) for k, v in values.items()}, "agree": agree},
        [f"path-{name}" for name in values],
    )

    def plain():
        for name, v in values.items():
            yield f"deg(C_{d}) via {name}: {v}"
        if not agree:
            yield "DISAGREEMENT between paths"

    return (0 if agree else 1), record, plain(), "method,value", values.items()


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_milgram(gram=None):
    grams = {
        "W": W_GRAM,
        "U": U_GRAM,
        "E8": E8_GRAM,
        "W-negative": W_PRIME_GRAM,
    }
    checks = [
        (f"gauss-milgram-{name}", lambda g=g: gauss_milgram_check(discriminant_form(g)))
        for name, g in grams.items()
    ]
    if gram is not None:  # built outside the form cache, so it dies with the check
        checks.append((
            "gauss-milgram-user-lattice",
            lambda: gauss_milgram_check(DiscriminantForm(EvenLattice(gram))),
        ))
    return checks


def _suite_weil(gram=None):
    import random

    rep = WeilRep(discriminant_form(W_GRAM))  # rho*_{-W} = rho_W
    rng = random.Random(20240817)
    # the tokens S, T, T^-1 in the order the words draw them
    generators = (Mp2Element.S(), Mp2Element.T(1), Mp2Element.T(-1))

    def random_element(max_len=10):
        g = Mp2Element.identity()
        for x in rng.choices(generators, k=rng.randint(1, max_len)):
            g = g * x
        return g

    def unitary_and_homomorphic():
        for _ in range(50):
            g1, g2 = random_element(6), random_element(6)
            if not rep.is_unitary(rep.rho(g1)):
                return False
            if rep.rho(g1 * g2) != _mat_mul_cyc(rep.rho(g1), rep.rho(g2)):
                return False
        return True

    def closed_form_matches():
        found = 0
        while found < 20:
            g = random_element()
            if g.c % 3 == 0:
                found += 1
                if rep.rho(g) != rep.rho_gamma0_formula(g):
                    return False
        return True

    return [
        ("weil-unitary-homomorphic-50-words", unitary_and_homomorphic),
        ("gamma0-closed-form-20-elements", closed_form_matches),
    ]


def _suite_eisenstein(gram=None):
    def oracle_equivalence():
        e5 = vv_eisenstein(w_prime_form(), 5, 4)
        twice = theta_series_rank10(4).scale(2)
        return all(e5.component(i) == twice.component(i) for i in range(3))

    def twice_theta_w_times_e4():
        # theta_E8 = E_4, so E_5 = 2 theta_W E_4 with only the rank-2 W walked
        e5 = vv_eisenstein(w_prime_form(), 5, 30)
        e4 = eisenstein_level1(4, 30)
        theta_w = _coset_thetas(discriminant_form(W_GRAM), 30)
        return all(e5.component(i) == theta_w[i] * e4 * 2 for i in range(3))

    return [
        ("eisenstein-equals-twice-theta", oracle_equivalence),
        ("eisenstein-equals-twice-theta-w-times-e4-30", twice_theta_w_times_e4),
    ]


def _suite_modularity(gram=None):
    # one basis for both checks; a cache keeps no exception, so each can FAIL
    @cache
    def basis30():
        return basis_weight11(30)

    def s_check(F):
        return numeric_modularity_check(F, Mp2Element.S(), 1j, 1e-6) < 1e-6

    return [
        ("s-transform-residual-bracket-basis", lambda: s_check(basis30()[0])),
        ("s-transform-residual-degree-series", lambda: s_check(_psi_of_basis(*basis30()))),
    ]


def _suite_qseries(gram=None):
    import random

    rng = random.Random(99)
    # coefficients n/d with n in -9..9 and d in 1..4, as integer numerators
    # n * (12 // d) over the scale 12, one entry per pair (n, d)
    numerators = [n * (12 // d) for n in range(-9, 10) for d in range(1, 5)]

    def random_series(den, prec):
        start, stop = rng.randrange(4), prec * den
        nums = dict(zip(range(start, stop), rng.choices(numerators, k=stop - start)))
        return _series(nums, 12, den, stop)  # _series reduces them once

    def ring_axioms():
        for _ in range(200):
            den = rng.choice((1, 3))
            f, g, h = (random_series(den, 10) for _ in range(3))
            fg = f * g
            if fg * h != f * (g * h):
                return False
            # when g + h cancels its leading term, f * (g + h) knows more
            # terms than fg + f * h, whose cutoff is therefore never higher
            left, right = f * (g + h), fg + f * h
            if right.cut > left.cut or not (left - right).is_zero():
                return False
        return True

    def leibniz():
        for _ in range(50):
            den = rng.choice((1, 3))
            f, g = (random_series(den, 10) for _ in range(2))
            if (f * g).derivative() != f.derivative() * g + f * g.derivative():
                return False
        return True

    def truncation_soundness():
        for _ in range(50):
            f, g = (random_series(1, 20) for _ in range(2))
            full = (f * g).truncate(10)
            short = f.truncate(10) * g.truncate(10)
            if full != short.truncate(10):
                return False
        return True

    return [
        ("qseries-ring-axioms-200", ring_axioms),
        ("qseries-leibniz-50", leibniz),
        ("qseries-truncation-soundness-50", truncation_soundness),
    ]


def _suite_schubert(gram=None):
    ring = schubert.RingClassGr36
    s = ring.sigma

    def top_power():
        return (s(1) ** 9).as_dict() == {(3, 3, 3): 42}

    def poincare():
        for lam in schubert.box_partitions():
            comp = tuple(3 - x for x in reversed(lam))
            for mu in schubert.box_partitions():
                if sum(mu) == 9 - sum(lam):
                    got = (ring(((lam, 1),)) * ring(((mu, 1),))).degree()
                    if got != (1 if mu == comp else 0):
                        return False
        return True

    def associativity():
        gens = [s(1), s(2), s(3)]
        for a in gens:
            for b in gens:
                for c in gens:
                    if (a * b) * c != a * (b * c):
                        return False
        return True

    return [
        ("schubert-top-power-42", top_power),
        ("schubert-poincare-pairing", poincare),
        ("schubert-lr-associativity", associativity),
    ]


def _suite_degrees(gram=None):
    def all_paths():
        heegner = theta_degrees(3)
        return (
            heegner.degree(6)
            == schubert.degree_c6_recurrence()
            == schubert.degree_c6_segre()
            == 192
            and heegner.degree(8)
            == schubert.degree_c8_recurrence()
            == schubert.degree_c8_segre()
            == 3402
        )

    return [("degrees-all-paths-agree", all_paths)]


# The one definition of each named invariant suite: ``verify`` runs them, and
# so do the acceptance tests.
SUITES = {
    "milgram": _suite_milgram,
    "weil": _suite_weil,
    "eisenstein": _suite_eisenstein,
    "modularity": _suite_modularity,
    "qseries": _suite_qseries,
    "schubert": _suite_schubert,
    "degrees": _suite_degrees,
}


def cmd_verify(args):
    gram = args.gram
    if gram is not None and args.suite not in ("milgram", "all"):
        raise ValueError(f"--gram is read only by the milgram suite, not {args.suite}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        for prop, check in SUITES[name](gram):
            try:
                ok = bool(check())
            except Exception as exc:  # a crash is a failure with a reason
                ok = False
                prop = f"{prop} [{type(exc).__name__}: {exc}]"
            results.append((name, prop, "pass" if ok else "FAIL"))
    record = partial(
        _record,
        "verify",
        {"suite": args.suite},
        [{"suite": s, "property": p, "status": st} for s, p, st in results],
        ["named-invariant-suites"],
    )
    plain = (f"{st}  {s}: {p}" for s, p, st in results)
    code = 0 if all(st == "pass" for _, _, st in results) else 1
    return code, record, plain, "suite,property,status", results


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

# The largest --terms accepted by theta and eisenstein.  theta --terms 2000
# takes 0.32-0.38 s and 20 MB on a 2-vCPU Xeon VM under Python 3.11.7,
# pinned to one processor (1000 takes 0.24-0.25 s).
MAX_TERMS = 2000

# The largest eisenstein --k.  The Bernoulli recurrence grows roughly as
# k^3: eisenstein --k 400 --terms 2000 takes 0.32-0.34 s on a 2-vCPU Xeon VM
# under Python 3.11.7, and the series at k = 801 to two terms 0.29 s.  The
# odd --k 399 --terms 2000 prints 12.5 MB of exact fractions in 0.68-0.81 s
# from the shell, pinned to one processor.  dim --k is a closed form and has
# no bound.
MAX_WEIGHT = 400

# The largest discriminant group order |det G| accepted by --gram.  The
# closure, the q-values and the Gauss sum all grow with the order:
# diag(12,12,12,12), order 20736, runs the milgram suite in 0.26-0.43 s from
# the shell on a 2-vCPU Xeon VM under Python 3.11.7, pinned to one processor,
# and diag(12)^5 would list 248832 cosets.
MAX_GRAM_ORDER = 20736


def _positive_int(text: str) -> int:
    """argparse type of every --terms flag: values outside 1..MAX_TERMS are
    usage errors."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    if value > MAX_TERMS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_TERMS}, got {text!r}")
    return value


def _weight(text: str) -> int:
    """argparse type of eisenstein --k: a value above MAX_WEIGHT is a usage
    error; a non-integer gets the message of ``type=int``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > MAX_WEIGHT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_WEIGHT}, got {text!r}")
    return value


def _gram_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """argparse type of --gram: a JSON Gram matrix of a nondegenerate even
    lattice whose discriminant group has order at most MAX_GRAM_ORDER and
    whose level divides 24, so that its Gauss sums lie in Q(zeta_24);
    anything else is a usage error that names the reason.  The order is
    |det G| and the level comes from G^-1 alone, both before any coset is
    listed."""
    try:
        rows = json.loads(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not JSON: {exc}") from None
    if not (
        isinstance(rows, list)
        and rows
        and all(isinstance(row, list) for row in rows)
        and all(type(x) is int for row in rows for x in row)
    ):
        raise argparse.ArgumentTypeError("must be a nonempty list of lists of integers")
    gram = tuple(tuple(row) for row in rows)
    try:
        EvenLattice(gram)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    scaled, d, det = _scaled_inverse(gram)
    order = abs(det)
    if order > MAX_GRAM_ORDER:
        raise argparse.ArgumentTypeError(
            f"discriminant group of order {order} exceeds the bound {MAX_GRAM_ORDER}"
        )
    level = _level(scaled, d)
    if 24 % level:
        raise argparse.ArgumentTypeError(
            f"level {level} does not divide 24, so the Gauss sums leave Q(zeta_24)"
        )
    return gram


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicforms",
        description="Exact degrees of special cubic fourfold divisors: "
        "modular forms pipeline and intersection-theory cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theta = sub.add_parser("theta", help="degree generating series")
    terms_help = f"integer q-steps, 1 to {MAX_TERMS}"
    p_theta.add_argument(
        "--terms", type=_positive_int, default=4, help=terms_help
    )
    p_theta.add_argument("--format", choices=FORMATS, default="plain")
    p_theta.set_defaults(func=cmd_theta)

    p_eis = sub.add_parser("eisenstein", help="Eisenstein series expansions")
    p_eis.add_argument("--k", type=_weight, default=5, help="weight")
    p_eis.add_argument("--terms", type=_positive_int, default=4, help=terms_help)
    p_eis.add_argument("--format", choices=FORMATS, default="plain")
    p_eis.set_defaults(func=cmd_eisenstein)

    p_dim = sub.add_parser("dim", help="dimension of the weight-k space")
    p_dim.add_argument("--k", type=int, required=True)
    p_dim.add_argument("--format", choices=FORMATS, default="plain")
    p_dim.set_defaults(func=cmd_dim)

    p_deg = sub.add_parser("degree", help="one divisor degree, by chosen method(s)")
    p_deg.add_argument("--d", type=int, required=True, choices=(6, 8))
    p_deg.add_argument(
        "--method", choices=("modular", "schubert", "segre", "all"), default="all"
    )
    p_deg.add_argument("--format", choices=FORMATS, default="plain")
    p_deg.set_defaults(func=cmd_degree)

    p_ver = sub.add_parser("verify", help="run a named invariant suite")
    p_ver.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    p_ver.add_argument(
        "--gram",
        type=_gram_matrix,
        help="JSON Gram matrix of an even nondegenerate lattice of level dividing "
        "24, added to the milgram suite (only with --suite milgram or all)",
    )
    p_ver.add_argument("--format", choices=FORMATS, default="plain")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        return _write(args, out, *args.func(args))
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # integrity failures exit 1, bad parameter domains exit 2
        return 1 if isinstance(exc, ArithmeticError) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
