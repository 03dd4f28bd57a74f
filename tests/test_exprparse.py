import numpy as np
import pytest

from chernlab.errors import EvaluationDomainError, NonHermitianExpression, ParseError
from chernlab.exprparse import parse_expression, parse_metric_expression
from chernlab.metrics import Domain, catalog_metric


class TestScalarGrammar:
    def evaluate(self, text, z, n=1):
        from chernlab.exprparse import _eval

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
