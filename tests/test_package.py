"""Package-wide rules: the source imports only the standard library and
itself, holds no assert statement, defines the value-class protocol once,
names every cache in the package docstring's cache policy, every exported
name exists, no exact entry point takes a float, and a cold start loads only
what the modular path needs."""

import ast
import cProfile
import graphlib
import importlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cubicforms

MODULES = sorted(Path(cubicforms.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_cubicforms(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:  # not an import, or a relative one inside the package
            continue
        for root in roots:
            assert root == "cubicforms" or root in sys.stdlib_module_names, (
                path.name,
                node.lineno,
                root,
            )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so every check is an explicit raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], (path.name, lines)


def _loop_depth(node) -> int:
    """Deepest nesting of for/while loops and comprehension clauses."""
    inner = max((_loop_depth(child) for child in ast.iter_child_nodes(node)), default=0)
    if isinstance(node, (ast.For, ast.While)):
        return 1 + inner
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return len(node.generators) + inner
    return inner


def test_series_product_has_no_nested_loop():
    # QSeries.__mul__ is one packed multiply: no double loop over the terms,
    # in the method or in a module-level helper that it calls
    path = Path(cubicforms.qseries.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (cls,) = [node for node in tree.body if getattr(node, "name", None) == "QSeries"]
    (mul,) = [node for node in cls.body if getattr(node, "name", None) == "__mul__"]
    called = {
        node.func.id
        for node in ast.walk(mul)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert {"_pack", "_series"} <= called
    for fn in [mul] + [helpers[name] for name in sorted(called & helpers.keys())]:
        assert _loop_depth(fn) <= 1, fn.name


def _fraction_news(compute) -> int:
    """Calls of fractions.Fraction.__new__ made by compute(), counted with
    cProfile per raw entry, as the benchmark counts calls."""
    profiler = cProfile.Profile()
    profiler.enable()
    compute()
    profiler.disable()
    return sum(
        e.callcount
        for e in profiler.getstats()
        if getattr(e.code, "co_name", "") == "__new__"
        and getattr(e.code, "co_filename", "").endswith("fractions.py")
    )


def test_theta_path_builds_no_fraction_per_coefficient():
    # the Euler product, the series and the degree table run in integers, so
    # a cold theta_degrees(240) builds no more Fractions than a cold (60);
    # the CLI's rows read each exponent d/6 in integers too
    from cubicforms import cli
    from cubicforms.vvmf import _MEMO

    saved = dict(_MEMO)
    try:
        cubicforms.theta_degrees(10)  # fills the per-form caches
        counts, cli_counts = [], []
        for prec in (60, 240):
            _MEMO.clear()
            counts.append(_fraction_news(lambda: cubicforms.theta_degrees(prec)))
            _MEMO.clear()
            argv = ["theta", "--terms", str(prec), "--format", "json"]
            cli_counts.append(_fraction_news(lambda: cli.main(argv, out=io.StringIO())))
        assert 0 < counts[1] <= counts[0], counts
        assert 0 < cli_counts[1] <= cli_counts[0], cli_counts
    finally:
        _MEMO.clear()
        _MEMO.update(saved)


def _calls_of(name: str, node) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    )


def test_short_vector_walk_has_one_caller_per_mode():
    # fqm.short_vectors keeps the leaves (list mode) and
    # eisenstein._coset_thetas counts their norms (dict mode); nothing else
    # in the source reaches the walk
    callers = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            name = getattr(top, "name", "<module>")
            callers += [
                (path.stem, name, *(type(a).__name__ for a in node.args[3:]))
                for node in ast.walk(top)
                if _calls_of("_short_vector_walk", node)
            ]
    assert sorted(callers) == [
        ("eisenstein", "_coset_thetas", "Dict"),
        ("fqm", "short_vectors", "List"),
    ]


def test_rational_inputs_have_one_ratio_reader():
    # exactmath.as_ratio reads an int or Fraction input as (num, den) with no
    # Fraction built: nothing converts with as_fraction only to read the
    # ratio off, and _cutoff takes ints and Fractions down the same path.
    # A Fraction(x) of one non-literal argument takes a float, a str or a
    # Decimal without complaint: as_fraction, after its type check, is the
    # one place that builds it
    pairs, forks, cutoffs, bare, reader = [], [], [], [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "as_fraction":
                reader += [(path.name, line) for line in range(node.lineno, node.end_lineno + 1)]
            if (
                _calls_of("Fraction", node)
                and len(node.args) == 1
                and not node.keywords
                and not isinstance(node.args[0], ast.Constant)
            ):
                bare.append((path.name, node.lineno))
            if (
                _calls_of("as_integer_ratio", node)
                and isinstance(node.func, ast.Attribute)
                and _calls_of("as_fraction", node.func.value)
            ):
                pairs.append((path.name, node.lineno))
            if isinstance(node, ast.FunctionDef) and node.name == "_cutoff":
                cutoffs.append(path.name)
                forks += [
                    (path.name, test.lineno)
                    for test in ast.walk(node)
                    if isinstance(test, ast.Compare)
                    and any(isinstance(op, (ast.Is, ast.IsNot)) for op in test.ops)
                    and any(getattr(c, "id", None) == "int" for c in test.comparators)
                    and _calls_of("type", test.left)
                ]
    assert pairs == []
    assert cutoffs == ["qseries.py"] and forks == []
    assert len(bare) == 1 and bare[0] in reader, bare


def _exact_entry_points():
    """One call per public exact entry point, each with one float where an
    int or a Fraction belongs."""
    from cubicforms import eisenstein as eis
    from cubicforms import exactmath as em
    from cubicforms import fqm, qseries, schubert, vvmf

    Q, Cyc = qseries.QSeries, em.Cyclotomic
    f, w = Q({0: 1, 1: 2}, 1, 5), fqm.EvenLattice(fqm.W_GRAM)
    zero = qseries.VectorForm(11, fqm.w_prime_form(), (Q.zero(3),) * 3)
    return {
        "gauss_sum-q": lambda: em.gauss_sum(1, [0.5, 0]),
        "gauss_sum-a": lambda: em.gauss_sum(1.0, [Fraction(1, 2)]),
        "jacobi_symbol-a": lambda: em.jacobi_symbol(2.0, 3),
        "jacobi_symbol-n": lambda: em.jacobi_symbol(2, 3.0),
        "factorize": lambda: em.factorize(12.0),
        "p_valuation": lambda: em.p_valuation(0.5, 2),
        "bernoulli_poly": lambda: em.bernoulli_poly(3, 0.5),
        "Cyclotomic": lambda: Cyc([0.5] + [0] * 7),
        "Cyclotomic-den": lambda: Cyc([1] + [0] * 7, 1.0),
        "from_rational": lambda: Cyc.from_rational(0.5),
        "root_of_unity": lambda: Cyc.root_of_unity(0.25),
        "sqrt_int": lambda: Cyc.sqrt_int(2.0),
        "QSeries-coefficient": lambda: Q({0: 0.5}),
        "QSeries-prec": lambda: Q({0: 1}, 1, 2.0),
        "coefficient": lambda: f.coefficient(0.5),
        "truncate": lambda: f.truncate(2.0),
        "rescale_exponent": lambda: f.rescale_exponent(0.5),
        "derivative": lambda: f.derivative(1.0),
        "solve-exponent": lambda: qseries.solve_linear_combination([f], [(0.0, 1)]),
        "solve-value": lambda: qseries.solve_linear_combination([f], [(0, 0.5)]),
        "VectorForm-weight": lambda: qseries.VectorForm(0.5, fqm.w_prime_form(), zero.components),
        "VectorForm.scale": lambda: zero.scale(0.5),
        "eisenstein_level1": lambda: eis.eisenstein_level1(4, 2.0),
        "eisenstein_chi": lambda: eis.eisenstein_chi(1, 2.0),
        "vv_eisenstein": lambda: eis.vv_eisenstein(fqm.w_prime_form(), 5, 2.0),
        "theta_series_rank10": lambda: eis.theta_series_rank10(2.0),
        "solve_psi": lambda: vvmf.solve_psi(2.0),
        "theta_degrees": lambda: cubicforms.theta_degrees(2.0),
        "short_vectors-offset": lambda: fqm.short_vectors(w, (0.5, 0), 2),
        "short_vectors-bound": lambda: fqm.short_vectors(w, (0, 0), 2.0),
        "Mp2Element": lambda: fqm.Mp2Element(1.0, 0, 0, 1),
        "EvenLattice": lambda: fqm.EvenLattice(((2.0, 1), (1, 2))),
        "RingClassGr36.sigma": lambda: schubert.RingClassGr36.sigma(1.0),
        "RingClassGr36-pow": lambda: schubert.RingClassGr36.sigma(1) ** 2.0,
        "HeegnerSeries.degree": lambda: vvmf.HeegnerSeries(f, {6: 1}).degree(6.0),
    }


@pytest.mark.parametrize("name", sorted(_exact_entry_points()))
def test_no_exact_entry_point_takes_a_float(name):
    # a float that entered as its binary expansion would give an exact answer
    # from an inexact input; == against a float is False by Python's own rules
    with pytest.raises(TypeError):
        _exact_entry_points()[name]()


def _is_cached(fn) -> bool:
    """Whether a function definition carries functools' lru_cache or cache."""
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) in {"lru_cache", "cache"}:
            return True
    return False


def _empty_containers(tree: ast.Module) -> list[str]:
    """The module-level names bound to an empty {}, [] or set(), and the
    Class.attr of each self.attr that a class's ``__init__`` binds to one:
    the containers a module or an instance can fill as a memo."""
    scopes = [(None, tree.body)] + [
        (cls.name, fn.body)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    ]
    names = []
    for owner, body in scopes:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            empty = (
                isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, ast.List) and not value.elts
                or isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "set"
                and not value.args
            )
            if not empty:
                continue
            if owner is None:
                names += [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names += [
                    f"{owner}.{t.attr}"
                    for t in targets
                    if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"
                ]
    return names


def test_every_cache_is_in_the_cache_policy():
    # the package docstring's "Caches." paragraph states what each cache
    # keeps alive; a cache it does not name has no stated policy.  A cache
    # is a function under lru_cache or cache, a module-level container that
    # starts empty, or one that a class's __init__ puts on each instance
    doc = cubicforms.__doc__
    policy = doc[doc.index("Caches."):].split("\n\n")[0]
    named = set(re.findall(r"``([\w.]+)``", policy))
    unnamed = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        cached = [
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and _is_cached(fn)
        ]
        unnamed += [
            f"{path.stem}.{name}"
            for name in cached + _empty_containers(tree)
            if not {name, f"{path.stem}.{name}"} & named
        ]
    assert unnamed == []
    assert {"schubert._lr_products", "vvmf._MEMO", "WeilRep._cache"} <= named


def test_theta_pipeline_is_composed_once():
    # assemble_theta(solve_psi(...)) is written out in vvmf.theta_degrees
    # alone; the CLI and the package reach the pipeline through it
    composed = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            composed += [
                (path.stem, getattr(top, "name", "<module>"))
                for node in ast.walk(top)
                if _calls_of("assemble_theta", node)
                and any(_calls_of("solve_psi", arg) for arg in node.args)
            ]
    assert composed == [("vvmf", "theta_degrees")]
    assert cubicforms.theta_degrees is cubicforms.vvmf.theta_degrees


def _class_level_names(cls: ast.ClassDef) -> set[str]:
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                names.update(
                    n.id for n in (t.elts if isinstance(t, ast.Tuple) else [t])
                    if isinstance(n, ast.Name)
                )
    return names


def _is_object_setattr(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def test_value_protocol_has_one_definition():
    # immutability, copy and pickle of the value classes live in
    # exactmath._Value alone; a second copy would drift from the first.
    # QSeries is the one other read-only class: not a _Value, since its
    # fields are not its constructor's arguments, it binds the same
    # _read_only, writes its fields only in its own _set and pickles
    # through _series
    from cubicforms.exactmath import Cyclotomic, _read_only, _Value
    from cubicforms.fqm import EvenLattice, Mp2Element
    from cubicforms.qseries import QSeries
    from cubicforms.schubert import ChernSeries, RingClassGr36, RingClassP5
    from cubicforms.vvmf import HeegnerSeries

    own_setters = {("exactmath.py", "_Value"), ("qseries.py", "QSeries")}
    allowed, setattrs, redefined = set(), [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if _is_object_setattr(node):
                setattrs.append((path.name, node.lineno))
            if not isinstance(node, ast.ClassDef):
                continue
            if (path.name, node.name) in own_setters:
                allowed.update(
                    (path.name, inner.lineno)
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "_set"
                    for inner in ast.walk(stmt)
                    if _is_object_setattr(inner)
                )
            if node.name != "_Value":
                own = _class_level_names(node) & {"__reduce__", "__setattr__", "__delattr__"}
                redefined += [(path.name, node.name, name) for name in sorted(own)]
    assert set(setattrs) == allowed, setattrs
    assert {path for path, _ in allowed} == {"exactmath.py", "qseries.py"}
    assert redefined == [
        ("qseries.py", "QSeries", "__delattr__"),
        ("qseries.py", "QSeries", "__reduce__"),
        ("qseries.py", "QSeries", "__setattr__"),
    ]
    assert QSeries.__setattr__ is QSeries.__delattr__ is _read_only
    assert not issubclass(QSeries, _Value)
    for cls in (
        Cyclotomic, EvenLattice, Mp2Element, RingClassP5, RingClassGr36, ChernSeries, HeegnerSeries
    ):
        assert issubclass(cls, _Value), cls


def test_grassmannian_arithmetic_has_one_definition():
    # the rings of P^5 = Gr(1,6) and Gr(3,6) share one copy of the ring
    # arithmetic, constructor and stored layout; each class sets only its
    # Grassmannian, and P^5 names its hyperplane powers
    from cubicforms.exactmath import _Ring, _Value
    from cubicforms.schubert import RingClassGr36, RingClassP5

    arithmetic = {"__add__", "__mul__", "__rmul__", "degree", "is_pure", "is_zero"}
    path = next(p for p in MODULES if p.name == "schubert.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    assert _class_level_names(classes["RingClassP5"]) == {
        "__slots__", "R", "N", "hyperplane_power"
    }
    assert _class_level_names(classes["RingClassGr36"]) == {"__slots__", "R", "N"}
    base = RingClassP5.__base__
    assert RingClassGr36.__base__ is base and base is not _Value
    assert issubclass(base, _Value)
    own = _class_level_names(classes[base.__name__])
    assert arithmetic | {"__init__", "as_dict"} <= own
    assert own & {"_terms", "_of_terms"} == set()
    # negation, subtraction and powers come from the ring protocol
    assert issubclass(base, _Ring)
    for name in ("__neg__", "__sub__", "__pow__"):
        assert getattr(base, name) is getattr(_Ring, name), name


def test_ring_protocol_has_one_definition():
    # negation, subtraction and powers of the exact rings live in
    # exactmath._Ring alone; a second copy would drift from it in its checks
    # and messages
    from cubicforms.exactmath import Cyclotomic, _Ring
    from cubicforms.qseries import QSeries
    from cubicforms.schubert import RingClassP5

    derived = {"__neg__", "__sub__", "__rsub__", "__pow__"}
    defined = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [
            (path.name, node.name, name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for name in sorted(_class_level_names(node) & derived)
        ]
    assert defined == [
        ("exactmath.py", "_Ring", "__neg__"),
        ("exactmath.py", "_Ring", "__pow__"),
        ("exactmath.py", "_Ring", "__rsub__"),
        ("exactmath.py", "_Ring", "__sub__"),
    ]
    for cls in (QSeries, Cyclotomic, RingClassP5.__base__):
        assert issubclass(cls, _Ring), cls


def test_vector_form_is_a_value():
    # VectorForm takes equality, hashing and immutability from _Value, and
    # vvmf hands out the class that qseries defines; the memo of Psi lives
    # in vvmf beside solve_psi, and qseries keeps no memo
    from cubicforms import qseries, vvmf
    from cubicforms.exactmath import _Value

    assert issubclass(qseries.VectorForm, _Value)
    assert {"__eq__", "__hash__", "__repr__"}.isdisjoint(vars(qseries.VectorForm))
    assert vvmf.VectorForm is qseries.VectorForm
    assert not hasattr(qseries, "_MEMO") and not hasattr(qseries, "precision_memo")


def _package_imports(node) -> list[str]:
    """The package modules that one import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [alias.name for alias in node.names] if node.module is None else [node.module]
    if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cubicforms":
        return [node.module]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "cubicforms"]
    return []


def test_package_imports_are_at_module_top_and_acyclic():
    # an import inside a function hides a cycle between modules; with every
    # package import at module top, the import graph must have no cycle
    graph, inner = {}, []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner += [(path.name, node.lineno) for node in ast.walk(fn) if _package_imports(node)]
        graph[path.stem] = {
            name.split(".")[-1] for node in tree.body for name in _package_imports(node)
        }
    assert inner == []
    assert graph["vvmf"] >= {"eisenstein", "qseries"}
    assert "vvmf" not in graph["eisenstein"] | graph["qseries"]
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert order.index("qseries") < order.index("eisenstein") < order.index("vvmf")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    name = "cubicforms" if path.stem == "__init__" else f"cubicforms.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _fresh_interpreter(body: str):
    """Run ``body`` in a new interpreter with this package importable and
    return the JSON it prints."""
    src = str(Path(cubicforms.__file__).resolve().parents[1])
    code = f"import json, sys\nsys.path.insert(0, {src!r})\n{body}"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_import_skips_dataclasses_and_schubert():
    added = _fresh_interpreter(
        "before = set(sys.modules)\n"
        "import cubicforms\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert "cubicforms.vvmf" in added and "cubicforms.eisenstein" in added
    unwanted = {"dataclasses", "inspect", "cubicforms.schubert"}
    assert unwanted.isdisjoint(added)


def test_cli_commands_import_no_package_module():
    added = _fresh_interpreter(
        "import io\n"
        "import cubicforms.cli as cli\n"
        "before = set(sys.modules)\n"
        "argvs = [['theta', '--terms', '4'], ['verify', '--suite', 'all'], ['degree', '--d', '6']]\n"
        "codes = [cli.main(argv, out=io.StringIO()) for argv in argvs]\n"
        "assert codes == [0, 0, 0], codes\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert [m for m in added if m.split(".")[0] == "cubicforms"] == []
