"""Parser and evaluator for the metric-expression language.

An entry is Python arithmetic over ``z1..zn``, read by Python's own parser
with ``^`` for the power, and walked once against this whitelist::

    expr := number | z<k> | -expr | expr ('+' | '-' | '*' | '/') expr
          | expr '^' ['-'] integer | f(expr)    f in conj abs2 exp log re im

with Python's precedence and numerals (int and float, not bool or complex).
``**``, ``#`` and text outside ASCII are rejected, and so is nesting deeper
than ``_MAX_DEPTH``.

Metric tables are given entry-by-entry as ``g[i][j] = <expr>`` lines with
1-based indices; omitted lower-triangle entries default to the conjugate
transpose of the matching upper entry, omitted off-diagonal pairs to zero.
A bare expression (no assignment lines) is accepted for n = 1.

Expressions are evaluated on numpy arrays: ``z<k>`` is ``z[..., k-1]`` of a
stack of points, so one evaluator call covers the whole stack.
"""

from __future__ import annotations

import ast
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
_ARITHMETIC = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# levels of nesting an expression may have: _eval recurses once per level,
# so this keeps it well inside Python's recursion limit
_MAX_DEPTH = 200

_ENTRY = r"^\s*g\[(\d+)\]\[(\d+)\]\s*=\s*(.*?)\s*$"


# AST nodes are tuples: ("num", c) | ("var", k) | ("call", name, arg)
#                       | ("bin", op, lhs, rhs) | ("neg", arg) | ("pow", base, k)


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
    """Parse a single scalar expression; returns an AST node.

    Anything outside the grammar, and any error of Python's parser, is a
    ParseError at the column of ``text`` where it was found.
    """
    # Python would read ** as a second power and # as a comment, and refuses a null byte
    junk = re.search(r"\*\*|#|[^\x01-\x7f]", text)
    if junk:
        raise ParseError(f"unexpected {junk.group()!r}", line, junk.start() + 1)
    lead = len(text) - len(text.lstrip())
    python = re.sub(r"\s", " ", text[lead:]).replace("^", "**")

    def fail(message, offset):
        """ParseError at the column of ``text`` spelled at ``offset`` (0-based) of ``python``."""
        raise ParseError(message, line, lead + offset - python[:offset].count("**") + 1)

    def walk(node, depth):
        if depth > _MAX_DEPTH:
            fail(f"expression nested deeper than {_MAX_DEPTH} levels", node.col_offset)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return ("num", np.complex128(str(node.value)))  # a double; an integer past one is inf, as 1e400 is
        if isinstance(node, ast.Name):
            m = re.fullmatch(r"z(\d+)", node.id)
            if m is None:
                fail(f"unknown identifier {node.id!r}", node.col_offset)
            if not 1 <= int(m.group(1)) <= n:
                fail(f"variable {node.id} out of range for n={n}", node.col_offset)
            return ("var", int(m.group(1)) - 1)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", walk(node.operand, depth + 1))
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            return ("bin", _ARITHMETIC[type(node.op)], walk(node.left, depth + 1), walk(node.right, depth + 1))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            negated = isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
            k = node.right.operand if negated else node.right
            # numpy raises OverflowError on an exponent past a double's range
            if not (isinstance(k, ast.Constant) and type(k.value) is int and k.value < 2**63):
                fail("exponent must be an integer below 2^63 in magnitude", node.right.col_offset)
            return ("pow", walk(node.left, depth + 1), -k.value if negated else k.value)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                and len(node.args) == 1 and not isinstance(node.args[0], ast.Starred) and not node.keywords):
            return ("call", node.func.id, walk(node.args[0], depth + 1))
        fail(f"unsupported syntax ({type(node).__name__})", node.col_offset)

    try:
        tree = ast.parse(python, mode="eval")
    except SyntaxError as exc:  # at the end of the text, its offset is 0
        fail(exc.msg, (exc.offset or len(python) + 1) - 1)
    except (RecursionError, MemoryError):  # what Python's parser raises on thousands of levels
        fail(f"expression nested deeper than {_MAX_DEPTH} levels", 0)
    return walk(tree.body, 1)


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
        m = re.match(_ENTRY, raw)
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
