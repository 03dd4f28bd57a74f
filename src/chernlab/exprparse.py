"""Parser and evaluator for the metric-expression language.

Grammar (per entry)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ['^' integer]
    base   := number | z<k> | conj(expr) | abs2(expr) | exp(expr)
            | log(expr) | re(expr) | im(expr) | '(' expr ')'

Metric tables are given entry-by-entry as ``g[i][j] = <expr>`` lines with
1-based indices; omitted lower-triangle entries default to the conjugate
transpose of the matching upper entry, omitted off-diagonal pairs to zero.
A bare expression (no assignment lines) is accepted for n = 1.

Expressions are evaluated on numpy arrays: ``z<k>`` is ``z[..., k-1]`` of a
stack of points, so one evaluator call covers the whole stack.
"""

from __future__ import annotations

import operator
import re
import warnings

import numpy as np

from .errors import (
    EvaluationDomainError,
    NonHermitianExpression,
    ParseError,
)
from .metrics import ChartedHermitianMetric, Domain

__all__ = ["parse_expression", "parse_metric_expression"]

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FUNCTIONS = {
    "conj": np.conj,
    "abs2": lambda w: np.asarray(w.real * w.real + w.imag * w.imag, dtype=complex),
    "exp": np.exp,
    "log": np.log,
    "re": lambda w: np.asarray(np.real(w), dtype=complex),
    "im": lambda w: np.asarray(np.imag(w), dtype=complex),
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_ENTRY_RE = re.compile(r"^\s*g\[(\d+)\]\[(\d+)\]\s*=\s*(.*?)\s*$")


class _Tokenizer:
    def __init__(self, text, line=1):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if m is None or m.end() == pos:
                stripped = self.text[pos:].lstrip()
                if not stripped:
                    break
                col = pos + (len(self.text[pos:]) - len(stripped)) + 1
                raise ParseError(f"unexpected character {stripped[0]!r}", self.line, col)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.idx += 1
        return tok

    def accept(self, ops):
        """The next token's operator, consumed, if it is one of ``ops``; else None."""
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ops:
            self.idx += 1
            return tok[1]
        return None

    def expect_op(self, op):
        tok = self.next()
        if tok is None or tok[0] != "op" or tok[1] != op:
            col = tok[2] if tok else len(self.text) + 1
            found = tok[1] if tok else "end of input"
            raise ParseError(f"expected {op!r}, found {found!r}", self.line, col)


# AST nodes are tuples: ("num", c) | ("var", k) | ("call", name, arg)
#                       | ("bin", op, lhs, rhs) | ("neg", arg) | ("pow", base, k)


def _parse_expr(tz, n):
    if tz.accept("-"):
        return _parse_chain(tz, n, "+-", ("neg", _parse_term(tz, n)), _parse_term)
    return _parse_chain(tz, n, "+-", _parse_term(tz, n), _parse_term)


def _parse_term(tz, n):
    return _parse_chain(tz, n, "*/", _parse_factor(tz, n), _parse_factor)


def _parse_chain(tz, n, ops, node, operand):
    """``node`` followed by any number of (one of ``ops``, ``operand``), left-associated."""
    while op := tz.accept(ops):
        node = ("bin", op, node, operand(tz, n))
    return node


def _parse_factor(tz, n):
    node = _parse_base(tz, n)
    if tz.accept("^"):
        sign = -1 if tz.accept("-") else 1
        tok = tz.next()
        if tok is None or tok[0] != "num" or not tok[1].isdigit():
            col = tok[2] if tok else len(tz.text) + 1
            raise ParseError("exponent must be an integer", tz.line, col)
        node = ("pow", node, sign * int(tok[1]))
    return node


def _parse_base(tz, n):
    tok = tz.next()
    if tok is None:
        raise ParseError("unexpected end of expression", tz.line, len(tz.text) + 1)
    kind, value, col = tok
    if kind == "num":
        return ("num", complex(float(value)))
    if kind == "op" and value == "(":
        node = _parse_expr(tz, n)
        tz.expect_op(")")
        return node
    if kind == "ident":
        if value in _FUNCTIONS:
            tz.expect_op("(")
            arg = _parse_expr(tz, n)
            tz.expect_op(")")
            return ("call", value, arg)
        m = re.fullmatch(r"z(\d+)", value)
        if m:
            k = int(m.group(1))
            if not 1 <= k <= n:
                raise ParseError(f"variable z{k} out of range for n={n}", tz.line, col)
            return ("var", k - 1)
        raise ParseError(f"unknown identifier {value!r}", tz.line, col)
    raise ParseError(f"unexpected token {value!r}", tz.line, col)


def _eval(node, z):
    """Value of an AST node at the points ``z`` of shape ``(..., n)``: an
    array over the leading axes, or a scalar for a constant node."""
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return z[..., node[1]]
    if tag == "neg":
        return -_eval(node[1], z)
    if tag == "pow":
        return _eval(node[1], z) ** node[2]
    if tag == "bin":
        _, op, lhs, rhs = node
        return _BINARY[op](_eval(lhs, z), _eval(rhs, z))
    _, name, arg = node
    return _FUNCTIONS[name](_eval(arg, z))


def parse_expression(text, n, line=1):
    """Parse a single scalar expression; returns an AST node."""
    tz = _Tokenizer(text, line=line)
    node = _parse_expr(tz, n)
    trailing = tz.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing[1]!r}", line, trailing[2])
    return node


def _probe_points(domain, n):
    """Deterministic interior probe grid for singularity/PD spot checks."""
    center = np.asarray(domain.center, dtype=complex)
    r = domain.radius if np.isfinite(domain.radius) else 1.0
    lo = domain.inner_radius
    base, span = (0.5 * (lo + r), 0.35 * (r - lo)) if lo > 0.0 else (0.0, 0.45 * r)
    pts = [center + base * _unit(n, 0)] if lo > 0.0 else [center.copy()]
    for axis in range(n):
        for t in (0.4, 0.8):
            for direction in (1.0, 1j, -1.0, -1j, (1 + 1j) / np.sqrt(2)):
                pts.append(center + base * _unit(n, 0) + t * span * direction * _unit(n, axis))
    return pts


def _unit(n, axis):
    e = np.zeros(n, dtype=complex)
    e[axis] = 1.0
    return e


def parse_metric_expression(source, n, domain=None, label="custom"):
    """Parse an n x n metric table in the expression grammar into a chart metric.

    The evaluator Hermitian-symmetrizes its output.  At the domain center the
    Hermitian residue must be below 1e-4 (NonHermitianExpression otherwise);
    a residue above 1e-8 only warns.  A probe grid inside the domain checks
    for singular or non-positive-definite values (EvaluationDomainError).
    """
    if domain is None:
        domain = Domain(center=(0.0,) * n, radius=0.9)
    entries = {}
    lines = source.splitlines() or [source]
    found_table = False
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _ENTRY_RE.match(raw)
        if m:
            found_table = True
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"entry g[{i}][{j}] out of range for n={n}", lineno, 1)
            entries[(i - 1, j - 1)] = parse_expression(m.group(3), n, line=lineno)
        elif found_table:
            raise ParseError("expected a 'g[i][j] = <expr>' line", lineno, 1)

    if not found_table:
        if n != 1:
            raise ParseError("bare expressions are only accepted for n = 1", 1, 1)
        entries[(0, 0)] = parse_expression(source.strip(), n)

    missing = [i + 1 for i in range(n) if (i, i) not in entries]
    if missing:
        raise ParseError(f"missing diagonal entry g[{missing[0]}][{missing[0]}]", 1, 1)
    table = [[("plain", entries[i, j]) if (i, j) in entries else ("conj", entries[j, i]) if (j, i) in entries
              else ("plain", ("num", 0j)) for j in range(n)] for i in range(n)]

    # a singular point gives inf or nan, which the callers report
    quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore")

    @quiet
    def written(z):
        """The table at each point of ``z`` as written, before symmetrizing."""
        points = z.reshape(-1, n)
        g = np.empty((points.shape[0], n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                mode, node = table[i][j]
                val = _eval(node, points)
                g[:, i, j] = np.conj(val) if mode == "conj" else val
        return g.reshape(z.shape[:-1] + (n, n))

    @quiet
    def evaluator(z):
        g = written(z)
        return (g + g.swapaxes(-1, -2).conj()) / 2.0

    probes = np.array([p for p in _probe_points(domain, n) if domain.contains(p)])
    raw = written(probes)
    finite = np.all(np.isfinite(raw), axis=(-2, -1))
    if not np.all(finite):
        p = probes[np.argmin(finite)]
        raise EvaluationDomainError(f"evaluation failed at probe point {p}: non-finite value")
    residue = float(np.max(np.abs(raw - raw.swapaxes(-1, -2).conj()), initial=0.0))
    if residue > 1e-4:
        raise NonHermitianExpression(
            f"Hermitian residue {residue:.3e} on the probe grid exceeds 1e-4"
        )
    if residue > 1e-8:
        warnings.warn(
            f"metric expression has Hermitian residue {residue:.3e} on the probe grid",
            stacklevel=2,
        )

    positive = np.min(np.linalg.eigvalsh(evaluator(probes)), axis=-1) > 0.0
    if not np.all(positive):
        p = probes[np.argmin(positive)]
        raise EvaluationDomainError(f"metric not positive-definite at probe point {p}")

    return ChartedHermitianMetric(
        dim=n, domain=domain, evaluator=evaluator, label=label, kahler=None
    )
