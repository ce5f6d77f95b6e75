import ast
import io
import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from cubicforms import cli
from cubicforms.cli import (
    MAX_GRAM_ORDER,
    MAX_TERMS,
    MAX_WEIGHT,
    _gram_matrix,
    _suite_qseries,
    _suite_weil,
    build_parser,
    canonical_json,
    main,
)
from cubicforms.exactmath import Cyclotomic
from cubicforms.fqm import Mp2Element
from cubicforms.qseries import QSeries, _series


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def _diag12(rank):
    return [[12 * (i == j) for j in range(rank)] for i in range(rank)]


class TestTheta:
    def test_terms_3_rows(self):
        code, out = run(["theta", "--terms", "3"])
        assert code == 0
        assert "constant term: -2" in out
        assert "deg(C_6) = 192" in out
        assert "deg(C_8) = 3402" in out
        assert "deg(C_12) = 196272" in out
        assert "deg(C_14) = 917568" in out
        assert "deg(C_18)" not in out  # 18/6 = 3 is not < 3

    def test_terms_1_boundary(self):
        code, out = run(["theta", "--terms", "1"])
        assert code == 0
        assert "deg(C_2) = 0" in out
        assert "deg(C_6)" not in out

    def test_json_round_trip(self):
        code, out = run(["theta", "--terms", "3", "--format", "json"])
        assert code == 0
        assert canonical_json(json.loads(out)) == out
        record = json.loads(out)
        degrees = {row["d"]: row["deg"] for row in record["result"]["degrees"]}
        assert degrees[6] == "192" and degrees[8] == "3402"
        assert record["result"]["constant"] == "-2"
        assert record["provenance"]

    def test_csv_schema(self):
        code, out = run(["theta", "--terms", "2", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,exp_num,exp_den,deg"
        assert "8,4,3,3402" in lines

    def test_invalid_format_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["theta", "--format", "yaml"])
        assert err.value.code == 2

    @pytest.mark.parametrize("terms", ["0", "-5", "x"])
    def test_nonpositive_terms_exits_2(self, terms, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theta", "--terms", terms])
        assert err.value.code == 2
        assert "--terms: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["theta", "eisenstein"])
    def test_terms_cap_boundary(self, command, capsys):
        args = build_parser().parse_args([command, "--terms", str(MAX_TERMS)])
        assert args.terms == MAX_TERMS
        for terms in (str(MAX_TERMS + 1), "1000000000"):
            with pytest.raises(SystemExit) as err:
                main([command, "--terms", terms])
            assert err.value.code == 2
            assert f"--terms: must be at most {MAX_TERMS}" in capsys.readouterr().err


class TestWriter:
    def test_only_the_writer_writes(self):
        # every .write/.writelines call sits in _write and goes to out; the one
        # print is main's error line on stderr
        tree = ast.parse(Path(cli.__file__).read_text())
        writes, prints = [], []
        for top in tree.body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "write", "writelines"
                ):
                    writes.append((name, ast.unparse(node.func.value)))
                elif isinstance(node.func, ast.Name) and node.func.id == "print":
                    prints.append((name, ast.unparse(node)))
        assert writes and set(writes) == {("_write", "out")}
        assert prints == [("main", "print(f'error: {exc}', file=sys.stderr)")]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_other_formats_build_no_plain_series(self, fmt, monkeypatch):
        def refuse(self):
            raise AssertionError("a plain series string was built")

        monkeypatch.setattr(QSeries, "__str__", refuse)
        for k in ("1", "4", "5"):
            code, out = run(["eisenstein", "--k", k, "--terms", "50", "--format", fmt])
            assert code == 0 and out

    def test_plain_builds_no_json_record(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a JSON term list was built")

        monkeypatch.setattr(QSeries, "to_json_dict", refuse)
        for k in ("1", "4", "5"):
            code, out = run(["eisenstein", "--k", k, "--terms", "50", "--format", "plain"])
            assert code == 0 and out


class TestOtherCommands:
    def test_dim(self):
        code, out = run(["dim", "--k", "11"])
        assert code == 0 and "2" in out

    def test_dim_rejects_even(self):
        code, _ = run(["dim", "--k", "4"])
        assert code == 2

    def test_eisenstein_vector(self):
        code, out = run(["eisenstein", "--k", "5", "--terms", "4"])
        assert code == 0
        assert "492" in out and "1446" in out

    @pytest.mark.parametrize("terms", ["0", "-3"])
    def test_eisenstein_nonpositive_terms_exits_2(self, terms, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eisenstein", "--terms", terms])
        assert err.value.code == 2
        assert "--terms: must be a positive integer" in capsys.readouterr().err

    def test_eisenstein_weight_cap_boundary(self, capsys):
        args = build_parser().parse_args(["eisenstein", "--k", str(MAX_WEIGHT)])
        assert args.k == MAX_WEIGHT
        for k in (str(MAX_WEIGHT + 1), "1000000000"):
            with pytest.raises(SystemExit) as err:
                main(["eisenstein", "--k", k])
            assert err.value.code == 2
            assert f"--k: must be at most {MAX_WEIGHT}, got '{k}'" in capsys.readouterr().err
        # dim --k is a closed form and stays unbounded
        code, out = run(["dim", "--k", "1000001", "--format", "json"])
        assert code == 0 and json.loads(out)["parameters"] == {"k": 1000001}

    @pytest.mark.parametrize("k", [7, 9, 11, 13, 101, 399])
    def test_eisenstein_odd_weight_prints_exact_fractions(self, k):
        # above k = 5 on -W the coefficients are not integers: they print as
        # exact fractions, with the sign (-1)^((k-1)/2)
        code, out = run(["eisenstein", "--k", str(k), "--terms", "2"])
        assert code == 0
        sign = "-" if k % 4 == 3 else "+"
        v0 = out.splitlines()[0]
        assert re.fullmatch(rf"v0: 2 {re.escape(sign)} \d+/\d+\*q \+ O\(q\^\(2\)\)", v0), v0

    def test_eisenstein_scalar(self):
        code, out = run(["eisenstein", "--k", "4", "--terms", "3"])
        assert code == 0 and "240" in out

    def test_eisenstein_json_round_trip(self):
        code, out = run(["eisenstein", "--k", "5", "--terms", "3", "--format", "json"])
        assert code == 0
        assert canonical_json(json.loads(out)) == out

    def test_degree_all_paths(self):
        code, out = run(["degree", "--d", "6", "--method", "all"])
        assert code == 0
        assert out.count("192") == 3

    def test_degree_single_method(self):
        code, out = run(["degree", "--d", "8", "--method", "segre"])
        assert code == 0 and "3402" in out

    def test_degree_rejects_other_d(self):
        with pytest.raises(SystemExit) as err:
            main(["degree", "--d", "10"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestVerify:
    def test_milgram_suite(self):
        code, out = run(["verify", "--suite", "milgram"])
        assert code == 0
        assert out.count("pass") == 4 and "FAIL" not in out

    def test_milgram_with_user_gram(self):
        code, out = run(
            ["verify", "--suite", "milgram", "--gram", "[[2,1],[1,2]]"]
        )
        assert code == 0
        assert "user-lattice" in out

    def test_milgram_with_order_1728_gram(self):
        # diag(12, 12, 12): level 24, so its Gauss sums lie in Q(zeta_24)
        code, out = run(
            ["verify", "--suite", "milgram", "--gram", "[[12,0,0],[0,12,0],[0,0,12]]"]
        )
        assert code == 0
        assert "pass  milgram: gauss-milgram-user-lattice" in out

    @pytest.mark.parametrize(
        "gram, reason",
        [
            ("[[1,0],[0,2]]", "lattice is not even"),
            ("[[2,1]]", "must be square"),
            ("[[2,1],[1]]", "must be square"),
            ("[[2,2],[2,2]]", "degenerate"),
            ("[[2,1],[0,2]]", "symmetric"),
            ("[[2.0]]", "lists of integers"),
            ("[]", "lists of integers"),
            ("[[2,1],", "not JSON"),
            ("[[2,1],[1,50]]", "level 99 does not divide 24"),
            ("[[2,0],[0,10]]", "level 20 does not divide 24"),
            (json.dumps(_diag12(5)), "order 248832 exceeds the bound 20736"),
        ],
    )
    def test_invalid_gram_is_usage_error(self, gram, reason, capsys):
        for suite in ("milgram", "all"):
            with pytest.raises(SystemExit) as err:
                main(["verify", "--suite", suite, "--gram", gram])
            assert err.value.code == 2
            assert reason in capsys.readouterr().err

    def test_gram_order_bound_admits_diag12_rank4(self):
        # order 12^4 is the bound itself: the argument is admitted and the
        # whole milgram suite runs on it and passes
        assert 12**4 == MAX_GRAM_ORDER
        gram = _diag12(4)
        assert _gram_matrix(json.dumps(gram)) == tuple(map(tuple, gram))
        code, out = run(["verify", "--suite", "milgram", "--gram", json.dumps(gram)])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 5
        assert all(line.startswith("pass ") for line in lines), out
        assert lines[-1].endswith("gauss-milgram-user-lattice")

    def test_user_gram_form_stays_out_of_the_form_cache(self):
        # the library's forms stay cached; the user lattice's form dies with
        # its check, so the cache holds as many forms after the run as before
        from cubicforms.fqm import _cached_form

        assert run(["verify", "--suite", "milgram"])[0] == 0
        before = _cached_form.cache_info().currsize
        code, out = run(["verify", "--suite", "milgram", "--gram", "[[4,2],[2,4]]"])
        assert code == 0 and "pass  milgram: gauss-milgram-user-lattice" in out
        assert _cached_form.cache_info().currsize == before

    @pytest.mark.parametrize("suite", ["weil", "qseries", "degrees"])
    def test_unused_gram_is_usage_error(self, suite, capsys):
        code, out = run(["verify", "--suite", suite, "--gram", "[[2,1],[1,2]]"])
        assert code == 2 and out == ""
        assert "--gram is read only by the milgram suite" in capsys.readouterr().err

    def test_qseries_suite(self):
        code, out = run(["verify", "--suite", "qseries"])
        assert code == 0 and "FAIL" not in out

    def test_schubert_suite_json(self):
        code, out = run(["verify", "--suite", "schubert", "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert all(row["status"] == "pass" for row in record["result"])

    def test_modularity_suite_builds_the_basis_once(self, monkeypatch):
        # both checks read one bracket basis at prec 30: one E5, with no Psi
        # held to serve the second
        from cubicforms import vvmf

        saved = dict(vvmf._MEMO)
        vvmf._MEMO.clear()
        builds = []
        real = vvmf.vv_eisenstein

        def spy(*args):
            builds.append(args[1:])
            return real(*args)

        monkeypatch.setattr(vvmf, "vv_eisenstein", spy)
        try:
            code, out = run(["verify", "--suite", "modularity"])
        finally:
            monkeypatch.undo()
            vvmf._MEMO.clear()
            vvmf._MEMO.update(saved)
        assert code == 0 and out.count("pass") == 2
        assert builds == [(5, 30)]

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_qseries_suite_draws_the_fraction_oracle_series(self):
        # every series the three checks draw is the one that the oracle, a
        # series built from one Fraction n/d per coefficient, makes from the
        # same position of the same random.Random(99) stream, and both
        # consume the same draws
        checks = _suite_qseries()
        ring = checks[0][1]
        cells = dict(zip(ring.__code__.co_freevars, ring.__closure__))
        rng, cell = cells["rng"].cell_contents, cells["random_series"]
        assert rng.getstate() == random.Random(99).getstate()
        suite_series, drawn = cell.cell_contents, []

        def recording(den, prec):
            state = rng.getstate()
            got = suite_series(den, prec)
            oracle_rng = random.Random()
            oracle_rng.setstate(state)
            want = fraction_random_series(oracle_rng, den, prec)
            drawn.append((got, want, oracle_rng.getstate() == rng.getstate()))
            return got

        cell.cell_contents = recording
        assert [check() for _, check in checks] == [True, True, True]
        assert len(drawn) == 200 * 3 + 50 * 2 + 50 * 2
        for got, want, same_stream in drawn:
            assert same_stream
            assert (got.den, got.prec, dict(got.nums), got.scale) == (
                want.den, want.prec, dict(want.nums), want.scale
            )

    def test_weil_suite_draws_the_random_word_elements(self):
        # every element the two checks draw is the one that the oracle, a
        # product of freshly built generators, makes from the same position
        # of the same random.Random(20240817) stream, and both consume the
        # same draws
        checks = _suite_weil()
        unitary = checks[0][1]
        cells = dict(zip(unitary.__code__.co_freevars, unitary.__closure__))
        cell = cells["random_element"]
        suite_element, drawn = cell.cell_contents, []
        element_cells = suite_element.__code__.co_freevars, suite_element.__closure__
        rng = dict(zip(*element_cells))["rng"].cell_contents
        assert rng.getstate() == random.Random(20240817).getstate()

        def recording(max_len=10):
            state = rng.getstate()
            got = suite_element(max_len)
            oracle_rng = random.Random()
            oracle_rng.setstate(state)
            want = word_element(oracle_rng, max_len)
            drawn.append((got == want, oracle_rng.getstate() == rng.getstate()))
            return got

        cell.cell_contents = recording
        assert [check() for _, check in checks] == [True, True]
        assert len(drawn) >= 50 * 2 + 20
        assert all(same_element and same_stream for same_element, same_stream in drawn)

    def test_qseries_suite_fails_on_a_product_that_drops_its_top_term(self, monkeypatch):
        mul = QSeries.__mul__

        def drop_top(self, other):
            got = mul(self, other)
            if not isinstance(other, QSeries) or not got.nums:
                return got
            nums = dict(got.nums)
            del nums[max(nums)]
            return _series(nums, got.scale, got.den, got.cut)

        monkeypatch.setattr(QSeries, "__mul__", drop_top)
        code, out = run(["verify", "--suite", "qseries"])
        assert code == 1
        assert "FAIL  qseries: qseries-ring-axioms-200\n" in out

    def test_weil_suite_fails_on_one_perturbed_dot_product(self, monkeypatch):
        dot, calls = Cyclotomic.dot, []

        def perturb_first(xs, ys):
            calls.append(None)
            got = dot(xs, ys)
            return got + 1 if len(calls) == 1 else got

        monkeypatch.setattr(Cyclotomic, "dot", staticmethod(perturb_first))
        code, out = run(["verify", "--suite", "weil"])
        assert code == 1 and "FAIL  weil:" in out

    def test_seeded_suites_pass_at_every_seed(self, monkeypatch):
        # no verdict may hang on the suites' seeds 99 and 20240817: with
        # random.Random pinned to each of the seeds 0-19, every check passes
        real, failed = random.Random, []
        for seed in range(20):
            monkeypatch.setattr(random, "Random", lambda _, seed=seed: real(seed))
            for name in ("qseries", "weil"):
                failed += [(seed, prop) for prop, check in cli.SUITES[name]() if not check()]
        assert failed == []

    def test_qseries_suite_passes(self):
        code, out = run(["verify", "--suite", "qseries"])
        assert code == 0
        assert out == (
            "pass  qseries: qseries-ring-axioms-200\n"
            "pass  qseries: qseries-leibniz-50\n"
            "pass  qseries: qseries-truncation-soundness-50\n"
        )


def fraction_random_series(rng, den, prec):
    """The qseries suite's random series built from one Fraction n/d per
    coefficient, the oracle of its integer draws: a start in 0..3, then one
    pair (n, d) per coefficient, n in -9..9 and d in 1..4, from one draw."""
    start, stop = rng.randrange(4), prec * den
    pairs = rng.choices([(n, d) for n in range(-9, 10) for d in range(1, 5)], k=stop - start)
    return QSeries({e: F(n, d) for e, (n, d) in zip(range(start, stop), pairs)}, den, prec)


def word_element(rng, max_len):
    """The weil suite's random element, the oracle of its draws: a length
    in 1..max_len, then that many letters S, T, T^-1, multiplied out."""
    g = Mp2Element.identity()
    for tok in rng.choices(["S", "T", "T-"], k=rng.randint(1, max_len)):
        g = g * (Mp2Element.S() if tok == "S" else Mp2Element.T(1 if tok == "T" else -1))
    return g


GOLDEN = Path(__file__).parent / "golden"

# golden file -> argv whose stdout it holds, byte for byte
GOLDEN_RUNS = {
    **{
        f"theta_terms30.{fmt}.txt": ["theta", "--terms", "30", "--format", fmt]
        for fmt in ("plain", "json", "csv")
    },
    "theta_terms120.json.txt": ["theta", "--terms", "120", "--format", "json"],
    "eisenstein_k7_terms4.plain.txt": ["eisenstein", "--k", "7", "--terms", "4"],
    **{
        f"eisenstein_k5_terms10.{fmt}.txt": [
            "eisenstein", "--k", "5", "--terms", "10", "--format", fmt
        ]
        for fmt in ("plain", "json", "csv")
    },
    **{
        f"eisenstein_k4_terms5.{fmt}.txt": [
            "eisenstein", "--k", "4", "--terms", "5", "--format", fmt
        ]
        for fmt in ("json", "csv")
    },
    "eisenstein_k1_terms5.plain.txt": ["eisenstein", "--k", "1", "--terms", "5"],
    "dim_k11.plain.txt": ["dim", "--k", "11"],
    "dim_k11.csv.txt": ["dim", "--k", "11", "--format", "csv"],
    "degree_d8_all.plain.txt": ["degree", "--d", "8", "--method", "all"],
    "degree_d6.json.txt": ["degree", "--d", "6", "--format", "json"],
    "degree_d8.csv.txt": ["degree", "--d", "8", "--format", "csv"],
    "verify_schubert.json.txt": ["verify", "--suite", "schubert", "--format", "json"],
    "verify_weil.json.txt": ["verify", "--suite", "weil", "--format", "json"],
    "verify_milgram.json.txt": ["verify", "--suite", "milgram", "--format", "json"],
    "verify_milgram_gram_a2.json.txt": [
        "verify", "--suite", "milgram", "--gram", "[[2,1],[1,2]]", "--format", "json"
    ],
    "dim_k99.json.txt": ["dim", "--k", "99", "--format", "json"],
    "verify_eisenstein.json.txt": ["verify", "--suite", "eisenstein", "--format", "json"],
    "verify_modularity.json.txt": ["verify", "--suite", "modularity", "--format", "json"],
    **{
        f"verify_all.{fmt}.txt": ["verify", "--suite", "all", "--format", fmt]
        for fmt in ("plain", "json", "csv")
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_output(name):
    code, out = run(GOLDEN_RUNS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
