import operator
import warnings

import numpy as np
import pytest

from chernlab.errors import ChernLabError, EvaluationDomainError, NonHermitianExpression, ParseError
from chernlab.exprparse import _FUNCTIONS, _MAX_DEPTH, _eval, parse_expression, parse_metric_expression
from chernlab.metrics import Domain, catalog_metric

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class TestScalarGrammar:
    def evaluate(self, text, z, n=1):
        return _eval(parse_expression(text, n), np.atleast_1d(np.asarray(z, dtype=complex)))

    def test_arithmetic(self):
        assert self.evaluate("1 + 2*3 - 4/2", 0j) == 5.0
        assert self.evaluate("2^3", 0j) == 8.0
        assert self.evaluate("-z1 + 1", 0.25) == 0.75

    def test_functions(self):
        z = 0.3 + 0.4j
        assert abs(self.evaluate("abs2(z1)", z) - 0.25) < 1e-15
        assert abs(self.evaluate("conj(z1)", z) - np.conj(z)) < 1e-15
        assert abs(self.evaluate("re(z1) + im(z1)", z) - 0.7) < 1e-15
        assert abs(self.evaluate("exp(log(z1))", z) - z) < 1e-14

    def test_negative_exponent(self):
        assert abs(self.evaluate("2^-2", 0j) - 0.25) < 1e-15

    def test_precedence(self):
        assert self.evaluate("2 + 3 * 2^2", 0j) == 14.0

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_expression("1 +", 1)
        with pytest.raises(ParseError):
            parse_expression("bogus(z1)", 1)
        with pytest.raises(ParseError):
            parse_expression("z3", 2)
        with pytest.raises(ParseError):
            parse_expression("2 ^ z1", 1)
        err = None
        try:
            parse_expression("1 + $", 1)
        except ParseError as exc:
            err = exc
        assert err is not None and err.column == 5

    def test_python_forms_wider_than_the_old_grammar(self):
        z = 0.3 + 0.4j
        assert self.evaluate("z1^(2)", z) == self.evaluate("z1^2", z)
        assert self.evaluate("z1^-(2)", z) == self.evaluate("z1^-2", z)
        assert self.evaluate("2*-z1", z) == -2 * z
        assert self.evaluate("1 - -z1", z) == 1 + z
        assert self.evaluate("1_000 + 0x10 + .5 + 2E1", 0j) == 1036.5

    def test_negation_binds_as_in_python(self):
        # -a*b is (-a)*b and -a^2 is -(a^2); negation is exact, so the value is -(a*b)
        assert parse_expression("-z1*2", 1) == ("bin", "*", ("neg", ("var", 0)), ("num", 2))
        assert parse_expression("-z1^2", 1) == ("neg", ("pow", ("var", 0), 2))
        assert self.evaluate("-z1*z1", 0.3 + 0.4j) == -((0.3 + 0.4j) * (0.3 + 0.4j))

    @pytest.mark.parametrize(
        "text, column",
        [("z1**2", 3), ("1 # a comment", 3), ("True", 1), ("1j", 1), ("[1]", 1), ("1, 2", 1), ("+z1", 1),
         ("z1 if 1 else 2", 1), ("z1^2.0", 4), ("z1^2^2", 4), ("z1^--2", 4), ("exp(1, 2)", 1), ("exp(x=1)", 1),
         ("z1.real", 1), ("exp", 1), ("1 +", 4), ("", 1), ("  z1 ^ 2 + $", 12), ("(z1", 1), ("z1)", 3),
         ("1\x00", 2), ("z\u00e9", 2), ("z1^" + "9" * 400, 4), ("z1^-" + "9" * 400, 4)],
    )
    def test_rejected_forms_are_parse_errors_at_their_column(self, text, column):
        with pytest.raises(ParseError) as exc:
            parse_expression(text, 2)
        assert exc.value.column == column, exc.value

    @pytest.mark.parametrize(
        "text", ["(" * 400 + "z1" + ")" * 400, "+".join(["z1"] * (_MAX_DEPTH + 1)), "+".join(["z1"] * 3000),
                 "-" * 3000 + "z1", "exp(" * 150 + "-" * 100 + "z1" + ")" * 150],
        ids=["parentheses", "sum-past-the-bound", "sum-3000", "minus-3000", "calls"],
    )
    def test_deep_input_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nest"):
            parse_expression(text, 1)

    def test_nesting_up_to_the_bound_parses(self):
        assert self.evaluate("+".join(["z1"] * _MAX_DEPTH), 1.0) == _MAX_DEPTH

    @pytest.mark.parametrize("text", ["1/0", "0^-1", "10^400"])
    def test_constant_division_by_zero_or_overflow_is_a_domain_error(self, text):
        # constants are numpy scalars: a non-finite value, not ZeroDivisionError or OverflowError
        with pytest.raises(EvaluationDomainError):
            parse_metric_expression(text, 1)


class TestMetricTables:
    def test_poincare_expression_matches_catalog(self):
        m = parse_metric_expression("1/(1-abs2(z1))^2", 1)
        cat = catalog_metric("poincare_disk", (1.0,))
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = 0.6 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
            if not m.domain.contains(z):
                continue
            assert np.max(np.abs(m(z) - cat(z))) < 1e-12

    def test_simple_positive_metric(self):
        m = parse_metric_expression("1 + abs2(z1)", 1)
        assert m([0.5 + 0.5j])[0, 0].real == pytest.approx(1.5)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianExpression):
            parse_metric_expression("z1", 1)

    def test_table_with_conjugate_default(self):
        src = "\n".join(
            [
                "g[1][1] = 1 + abs2(z1)",
                "g[1][2] = z1/10",
                "g[2][2] = 2",
            ]
        )
        m = parse_metric_expression(src, 2)
        z = np.array([0.3 + 0.1j, 0.0])
        g = m(z)
        assert abs(g[1, 0] - np.conj(g[0, 1])) < 1e-15
        assert abs(g[0, 1] - z[0] / 10) < 1e-15

    def test_missing_diagonal(self):
        with pytest.raises(ParseError):
            parse_metric_expression("g[1][1] = 1", 2)

    def test_bare_expression_needs_n1(self):
        with pytest.raises(ParseError):
            parse_metric_expression("1 + abs2(z1)", 2)

    def test_singularity_inside_domain(self):
        with pytest.raises(EvaluationDomainError):
            parse_metric_expression("1/(0.1-abs2(z1))", 1)

    def test_value_at_a_singularity_outside_the_domain_is_quiet(self):
        # 1/|z|^2 on the annulus 0.5 <= |z| <= 2 evaluated at 0: the value is
        # not finite and numpy raises no warning (the suite makes them errors)
        domain = Domain(center=(0.0,), radius=2.0, inner_radius=0.5)
        metric = parse_metric_expression("1/abs2(z1)", 1, domain=domain)
        assert not np.all(np.isfinite(metric(np.zeros(1, dtype=complex))))

    def test_not_positive_definite_probe(self):
        with pytest.raises(EvaluationDomainError):
            parse_metric_expression("0 - 1", 1)

    def test_small_residue_warns(self):
        src = "\n".join(
            [
                "g[1][1] = 2",
                "g[1][2] = 1/10",
                "g[2][1] = 1/10 + 1/10000000",
                "g[2][2] = 2",
            ]
        )
        with pytest.warns(UserWarning):
            parse_metric_expression(src, 2)

    def test_large_residue_rejected(self):
        src = "\n".join(
            [
                "g[1][1] = 2",
                "g[1][2] = 1/10",
                "g[2][1] = 2/10",
                "g[2][2] = 2",
            ]
        )
        with pytest.raises(NonHermitianExpression):
            parse_metric_expression(src, 2)

    def test_entry_out_of_range(self):
        with pytest.raises(ParseError):
            parse_metric_expression("g[3][1] = 1", 2)


# -- fuzz -----------------------------------------------------------------

# generic points of C^3 at which expressions are compared
POINTS = np.array([[0.3 + 0.1j, -0.2 + 0.45j, 0.7 - 0.3j], [-0.55 - 0.25j, 0.15 + 0.6j, 0.05 + 0.35j]])
# Python's precedence levels: sum, product, unary minus, power, atom
SUM, PRODUCT, MINUS, POWER, ATOM = range(1, 6)
BINARY = {"+": (SUM, operator.add), "-": (SUM, operator.sub), "*": (PRODUCT, operator.mul),
          "/": (PRODUCT, operator.truediv)}
NUMERALS = [("2", 2), ("0.5", 0.5), ("3.25", 3.25), ("0.1", 0.1), ("1e-3", 1e-3), ("10", 10), ("2E1", 20.0),
            ("1_000", 1000), ("0x1f", 31), (".25", 0.25)]


def _spell(term, level):
    """A term's text where the grammar needs ``level`` or tighter.

    A term is (text, its level, the function of no arguments that computes
    its value at POINTS with numpy alone)."""
    text, own, _ = term
    return text if own >= level else f"({text})"


def _compound(terms):
    space = st.sampled_from(["", " "])
    binary = st.tuples(terms, st.sampled_from(sorted(BINARY)), terms, space).map(
        lambda t: (f"{_spell(t[0], BINARY[t[1]][0])}{t[3]}{t[1]}{t[3]}{_spell(t[2], BINARY[t[1]][0] + 1)}",
                   BINARY[t[1]][0], lambda: BINARY[t[1]][1](t[0][2](), t[2][2]())))
    minus = terms.map(lambda t: (f"-{_spell(t, MINUS)}", MINUS, lambda: -t[2]()))
    power = st.tuples(terms, st.integers(-3, 4)).map(
        lambda t: (f"{_spell(t[0], ATOM)}^{t[1]}", POWER, lambda: t[0][2]() ** t[1]))
    call = st.tuples(st.sampled_from(sorted(_FUNCTIONS)), terms).map(
        lambda t: (f"{t[0]}({t[1][0]})", ATOM, lambda: _FUNCTIONS[t[0]](t[1][2]())))
    return st.one_of(binary, minus, power, call)


LEAVES = st.one_of(
    st.sampled_from(NUMERALS).map(lambda t: (t[0], ATOM, lambda: np.complex128(t[1]))),
    st.integers(1, 3).map(lambda k: (f"z{k}", ATOM, lambda: POINTS[:, k - 1])),
)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.recursive(LEAVES, _compound, max_leaves=12))
def test_parsed_values_equal_the_built_values(term):
    text, _, value = term
    with np.errstate(all="ignore"):  # a log of 0 or an overflow is a value like any other
        parsed, expected = _eval(parse_expression(text, 3), POINTS), value()
    assert np.asarray(parsed).tobytes() == np.asarray(expected).tobytes(), text


DEEP = ["(" * 400 + "z1" + ")" * 400, "+".join(["z1"] * 3000), "-" * 3000 + "1"]
JUNK = ["$", "#", "**", "[", "]", ",", "1j", "True", "0x", "(", ")", "z1", "z2", "+", "-", "*", "/", "^", "1",
        "0", "2.5", "1e400", "exp", "abs2(", " ", "\n", "\x00", "\u00e9", "=", ":", "lambda", "'s'", ".", "_"]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(st.sampled_from(DEEP), st.lists(st.sampled_from(JUNK), max_size=8).map("".join)),
                  st.booleans())
def test_only_chernlab_errors_escape(text, table):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a small Hermitian residue
        try:
            parse_metric_expression(f"g[1][1] = {text}" if table else text, 1)
        except ChernLabError:
            pass
