"""Time functions: evaluation, exact calculus, the parser, and a golden record.

`golden/timefunc.json` holds f, f' and F on a fixed grid for expressions that
cover every folding and calculus rule, and the error class of every rejected
string. Re-record it from the code in this checkout with::

    PYTHONPATH=src python tests/test_timefunc.py --write
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyinv import timefunc as tf
from susyinv.timefunc import ClosedFamilyError, TimeFunctionSyntaxError, parse

GOLDEN = Path(__file__).resolve().parent / "golden" / "timefunc.json"
GOLDEN_GRID = np.linspace(-3.0, 3.0, 41)
REL_BOUND = 1e-12

ACCEPTED = (
    # constants and their folds
    "0", "2.5", "-3", "2*3", "pi", "2*pi", "1e-3", ".5", "1.", "1.e2", "007", "1E+2",
    "-0", "-(-2)", "0*t", "0*t + 1", "t - t",
    # affine terms fold into one
    "t", "2*t", "-t + 1", "3*t - 2", "t + t", "2*(t + 1)", "1 + 2 + t + 3*t",
    # sinusoids; a constant argument folds
    "sin(t)", "cos(2*t + 1)", "sin(0*t + 1)", "sin(2)", "cos(-1)", "-sin(3*t)",
    "0.5*cos(t)", "sin(-t)", "cos(2*(t + 1))", "sin(pi*t - 1)",
    # sums keep equal sinusoids apart
    "1 + 0.5*sin(2*t) - 0.1*t", "sin(t) + sin(t)", "sin(t) - sin(t)", "2*t + sin(t)",
    "cos(t) + 2 - 3*sin(t) + t",
    # integration by parts, both orders, with an intercept
    "t*sin(t)", "t*cos(2*t)", "sin(2*t)*t", "(t + 1)*cos(3*t - 0.5)",
    "-2*(t*sin(t))", "3*(2*(t*cos(t)))", "(1 - 2*t)*sin(-t + 1)",
    # product to sum, equal frequency, cos*sin
    "sin(2*t)*cos(3*t)", "cos(t)*sin(2*t)", "sin(t)*sin(t)", "cos(2*t + 1)*cos(2*t + 1)",
    "sin(t)*cos(t)", "sin(2*t)*sin(3*t)", "cos(t)*cos(-t)", "sin(t + 1)*sin(t - 1)",
    # constants fold through products; scales collapse to 1
    "0.5*sin(t)*2", "-(-sin(t))", "t*sin(t)*2", "pi*t*sin(pi*t)", "2*0.5*t",
    "0.5*(2*(t*t))",
    # products distribute over sums
    "(1 + sin(t))*t", "2*(1 + sin(t))", "(sin(t) + cos(t))*(sin(2*t) - t)",
    "(1 + t)*(1 - t)", "(2 + cos(t))*(3 - sin(t))*0.5",
    # nested parentheses
    "((t))", "(((1 + (t))))*sin((2)*t)", "-(-(t + (1)))",
    # affine*affine: in the family, but its antiderivative is not
    "t*t", "(t + 1)*(2*t - 1)",
    # spaces and quotes
    "  2 * t  ", '"0.785398"', "'sin(t)'", "sin (t)",
)

REJECTED = (
    # syntax
    "", "2 +", "sin(t", "foo(t)", "t ** 2", "1 ? 2", "0x10", "1_0", "1j", "True", "+t",
    "t/2", "sin(t,)", "1#2", "sin()", "sin(t, t)", "2t", "t2", "cos", "pi(t)",
    "sin(t)(t)", "1e", "..", "(t", "t)", "()", "sin(*t)", "None", "t if t else t",
    "not t", "[t]", "'1\"", "1 2", "sin(x=t)", "t.real", "é",
    # out of the closed family
    "t*t*t", "sin(t*t)", "sin(t)*sin(t)*t", "sin(t*sin(t))", "sin(sin(t))",
    "(t + sin(t))*t*t", "cos(t*t + 1)",
)


def central_difference(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2 * h)


def record_one(text: str) -> dict:
    """f, f' and F of one accepted string on the golden grid, or F's error class."""
    fn = parse(text)
    got = {"f": fn(GOLDEN_GRID).tolist(), "df": fn.derivative()(GOLDEN_GRID).tolist()}
    try:
        got["F"] = fn.antiderivative()(GOLDEN_GRID).tolist()
    except ClosedFamilyError as exc:
        got["F_error"] = type(exc).__name__
    return got


def record() -> dict:
    """The golden record: ACCEPTED by record_one, and the error class of each REJECTED."""
    rejected = {}
    for text in REJECTED:
        try:
            parse(text)
        except (TimeFunctionSyntaxError, ClosedFamilyError) as exc:
            rejected[text] = type(exc).__name__
        else:
            raise AssertionError(f"{text!r} parsed")
    return {"grid": GOLDEN_GRID.tolist(), "accepted": {text: record_one(text) for text in ACCEPTED},
            "rejected": rejected}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_lists(golden):
    assert golden["grid"] == GOLDEN_GRID.tolist()
    assert list(golden["accepted"]) == list(ACCEPTED)
    assert list(golden["rejected"]) == list(REJECTED)


@pytest.mark.parametrize("text", ACCEPTED)
def test_matches_golden(golden, text):
    expected, got = golden["accepted"][text], record_one(text)
    assert sorted(got) == sorted(expected)
    for name in ("f", "df", "F"):
        if name in expected:
            ref = np.asarray(expected[name])
            bound = REL_BOUND * np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(np.asarray(got[name]) - ref) <= bound), name
    assert got.get("F_error") == expected.get("F_error")


@pytest.mark.parametrize("text", REJECTED)
def test_rejected_as_golden(golden, text):
    expected = {"TimeFunctionSyntaxError": TimeFunctionSyntaxError,
                "ClosedFamilyError": ClosedFamilyError}[golden["rejected"][text]]
    with pytest.raises(ValueError) as err:
        parse(text)
    assert type(err.value) is expected


class TestEval:
    def test_const(self):
        assert tf.const(3)(7.0) == 3.0

    def test_sin(self):
        assert abs(parse("sin(2*t)")(math.pi / 4) - 1.0) < 1e-15

    def test_sum_at_zero(self):
        assert parse("2*t + sin(t)")(0.0) == 0.0

    def test_vectorized(self):
        f = parse("1 + 0.5*sin(2*t)")
        ts = np.linspace(0, 3, 7)
        assert np.allclose(f(ts), 1 + 0.5 * np.sin(2 * ts))

    def test_scalar_returns_float(self):
        assert isinstance(parse("t*t")(2.0), float)


class TestDerivative:
    def test_const(self):
        assert tf.const(5).derivative()(1.3) == 0.0

    def test_linear(self):
        assert tf.linear(4.0).derivative()(9.0) == 4.0

    def test_sinusoid_against_central_difference(self):
        f = parse("sin(2*t)")
        got = f.derivative()(1.0)
        assert abs(got - 2 * math.cos(2.0)) < 1e-14
        assert abs(got - central_difference(f, 1.0)) < 1e-6

    def test_product_rule(self):
        f = parse("t*sin(3*t)")
        for t in (0.4, 1.7):
            assert abs(f.derivative()(t) - central_difference(f, t)) < 1e-6

    def test_built_once(self):
        f = parse("t*sin(3*t)")
        assert f.derivative() is f.derivative()
        assert f.antiderivative() is f.antiderivative()


class TestAntiderivative:
    def test_const(self):
        g = tf.const(2.5).antiderivative()
        assert g(4.0) == 10.0 and g(0.0) == 0.0

    def test_cosine(self):
        g = parse("cos(t)").antiderivative()
        assert abs(g(1.2) - math.sin(1.2)) < 1e-15

    def test_linear_gives_square(self):
        g = tf.linear(2.0).antiderivative()
        assert abs(g(3.0) - 9.0) < 1e-14

    def test_by_parts(self):
        f = parse("t*sin(t)")
        g = f.antiderivative()
        # Oracle: int_0^t s sin s ds = sin t - t cos t.
        for t in (0.7, 2.9):
            assert abs(g(t) - (math.sin(t) - t * math.cos(t))) < 1e-13

    def test_trig_product(self):
        f = parse("sin(2*t)*cos(3*t)")
        g = f.antiderivative()
        for t in (0.5, 1.8):
            step = 1e-5
            assert abs(central_difference(g, t, step) - f(t)) < 1e-8
        assert g(0.0) == 0.0

    def test_equal_frequency_product(self):
        f = parse("sin(2*t)*sin(2*t)")
        g = f.antiderivative()
        # int sin^2(2s) = t/2 - sin(4t)/8
        for t in (0.9, 2.2):
            assert abs(g(t) - (t / 2 - math.sin(4 * t) / 8)) < 1e-13

    def test_square_rejected(self):
        with pytest.raises(ClosedFamilyError):
            parse("t*t").antiderivative()

    @pytest.mark.parametrize("text, term", [("t*sin(1e-200*t)", "(1*t)*(sin(1e-200*t))"),
                                            ("t*cos(1e200*t)", "(1*t)*(cos(1e+200*t))")])
    def test_by_parts_out_of_float_range_rejected(self, text, term):
        # 1/w^2 underflows to a division by zero, or overflows.
        with pytest.raises(ClosedFamilyError, match=re.escape(f"antiderivative of {term}")):
            parse(text).antiderivative()

    def test_normalized_at_zero_exactly(self):
        for text in ("1 + t", "cos(3*t + 1)", "t*cos(2*t)", "2 - sin(t)"):
            assert parse(text).antiderivative()(0.0) == 0.0


FAMILY = st.sampled_from([
    "0.5", "2*t", "1 - 0.3*t", "sin(1.5*t)", "cos(0.7*t + 0.2)",
    "t*sin(2*t)", "sin(t)*cos(2*t)", "1 + 0.5*sin(2*t) - 0.1*t",
    "0.25*t + cos(t)*cos(t)",
])


@given(text=FAMILY, seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_derivative_antiderivative_round_trip(text, seed):
    f = parse(text)
    g = f.antiderivative().derivative()
    ts = np.random.default_rng(seed).uniform(-5, 5, size=100)
    assert np.max(np.abs(f(ts) - g(ts))) < 1e-12


NUMBERS = st.one_of(st.integers(0, 9).map(str),
                    st.floats(0.05, 3.0).map(lambda x: repr(round(x, 3))),
                    st.sampled_from(["pi", ".5", "2.", "1e-1", "1.5E0"]))
AFFINE = st.one_of(st.just("t"), st.builds("{}*t".format, NUMBERS),
                   st.builds("({}*t - {})".format, NUMBERS, NUMBERS),
                   st.builds("-(t + {})".format, NUMBERS))
ATOMS = st.one_of(AFFINE, st.builds("sin({})".format, AFFINE),
                  st.builds("cos({})".format, AFFINE))
# A factor is an atom or a parenthesized sum of constants and single atoms.
FACTORS = st.one_of(ATOMS, st.lists(st.one_of(NUMBERS, ATOMS), min_size=2, max_size=3)
                    .map(lambda parts: "(" + " - ".join(parts) + ")"))
TERMS = st.one_of(NUMBERS, st.builds("{}*{}".format, NUMBERS, FACTORS),
                  st.builds("{}*{}".format, FACTORS, FACTORS),
                  st.builds("-{}".format, FACTORS))


@given(terms=st.lists(TERMS, min_size=1, max_size=4),
       signs=st.lists(st.sampled_from([" + ", " - "]), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_parse_matches_numpy_evaluation(terms, signs):
    text = terms[0] + "".join(s + term for s, term in zip(signs, terms[1:]))
    ts = np.linspace(-4.0, 4.0, 33)
    expected = eval(text, {"__builtins__": {}},
                    {"t": ts, "pi": np.pi, "sin": np.sin, "cos": np.cos})
    got = parse(text)(ts)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * (1 + np.max(np.abs(expected))))


class TestParser:
    def test_numbers_and_pi(self):
        assert parse("2*pi")(0.0) == 2 * math.pi
        assert parse("1e-3")(0.0) == 1e-3

    def test_quoted_strings_accepted(self):
        assert parse('"0.785398"')(0.0) == 0.785398

    def test_unary_minus(self):
        assert parse("-t + 1")(2.0) == -1.0

    def test_nested_parens(self):
        assert abs(parse("2*(1 + sin(t))")(0.0) - 2.0) < 1e-15

    def test_product_distributes_over_sum(self):
        f = parse("(1 + sin(t))*t")
        assert abs(f(1.3) - (1 + math.sin(1.3)) * 1.3) < 1e-14

    def test_syntax_errors(self):
        for bad in ("", "2 +", "sin(t", "foo(t)", "t ** 2", "1 ? 2"):
            with pytest.raises((TimeFunctionSyntaxError, ClosedFamilyError)):
                parse(bad)

    def test_non_affine_trig_argument_rejected(self):
        with pytest.raises(ClosedFamilyError):
            parse("sin(t*t)")

    def test_deep_product_rejected(self):
        with pytest.raises(ClosedFamilyError):
            parse("t*t*t")

    def test_too_deep_nesting_is_a_syntax_error(self):
        # The walker recurses once per operator; past the recursion limit the
        # string is refused with a ValueError, not a RecursionError.
        with pytest.raises(TimeFunctionSyntaxError, match="nested too deeply"):
            parse("+".join(["t"] * 2000))


class TestStructure:
    def test_smart_constructors_fold(self):
        assert parse("2*3").terms == ((6.0, ()),)
        assert parse("sin(0*t + 1)").terms == ((math.sin(1.0), ()),)
        assert parse("t*sin(t)").terms == ((1.0, (("lin", 1.0, 0.0), ("sin", 1.0, 0.0))),)
        assert parse("2*t").terms == ((1.0, (("lin", 2.0, 0.0),)),)
        assert parse("1 + t + sin(t) + 2").terms == ((1.0, (("lin", 1.0, 3.0),)),
                                                     (1.0, (("sin", 1.0, 0.0),)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(record()) + "\n")
    print(f"wrote {GOLDEN}")
