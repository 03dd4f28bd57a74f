"""Ratchets on the error taxonomy: failures raise typed ``ChernLabError``s.

Every ``raise ValueError``/``raise TypeError`` left in the package is listed
in ``ALLOWED`` by (module, enclosing function), and every ``warnings.warn``
call in ``WARN_SITES``.  A new site fails its test; so does a listed site
that is gone, so both lists can only shrink.
"""

import ast
from pathlib import Path

import pytest

import chernlab
from chernlab.cones import FrameSearchConfig
from chernlab.errors import BadParams
from chernlab.metrics import Domain

BARE = {"ValueError", "TypeError"}

ALLOWED = set()

# warnings reach stderr rather than the report, so no new site may appear
WARN_SITES = {
    ("cones", "_frame_search"),
    ("exprparse", "parse_metric_expression"),
}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _is_bare_raise(node):
    return isinstance(node, ast.Raise) and node.exc is not None and _raised_name(node) in BARE


def _is_warn_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "warn" and isinstance(func.value, ast.Name) and func.value.id == "warnings"
    return isinstance(func, ast.Name) and func.id == "warn"


def _sites(tree, module, matches):
    """``((module, enclosing function), line)`` of every node that ``matches``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                if matches(child):
                    sites.append(((module, ".".join(scope)), child.lineno))
                visit(child, scope)

    visit(tree, ())
    return sites


def _package_sites(matches):
    sites = []
    for path in sorted(Path(chernlab.__file__).parent.glob("*.py")):
        sites += _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, matches)
    return sites


def _new_and_stale(sites, listed):
    new = sorted(f"{m}.{fn} (line {line})" for (m, fn), line in sites if (m, fn) not in listed)
    stale = sorted(listed - {site for site, _ in sites})
    return new, stale


def test_bare_value_and_type_errors_only_at_listed_sites():
    new, stale = _new_and_stale(_package_sites(_is_bare_raise), ALLOWED)
    assert not new, f"raise a ChernLabError subclass instead of ValueError/TypeError: {new}"
    assert not stale, f"no bare ValueError/TypeError left here; drop from ALLOWED: {stale}"


def test_warnings_only_at_listed_sites():
    new, stale = _new_and_stale(_package_sites(_is_warn_call), WARN_SITES)
    assert not new, f"record the condition in the report instead of warning: {new}"
    assert not stale, f"no warnings.warn left here; drop from WARN_SITES: {stale}"


def test_frame_search_config_rejects_no_starts():
    with pytest.raises(BadParams, match="n_starts must be >= 1"):
        FrameSearchConfig(n_starts=0)


@pytest.mark.parametrize(
    "budget, message",
    [
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -3}, "max_iter must be >= 1"),
        ({"step_tol": 0.0}, "step_tol must be finite and positive"),
        ({"step_tol": -1.0}, "step_tol must be finite and positive"),
        ({"step_tol": float("nan")}, "step_tol must be finite and positive"),
        ({"step_tol": float("inf")}, "step_tol must be finite and positive"),
    ],
)
def test_frame_search_config_rejects_a_budget_that_runs_no_search(budget, message):
    # max_iter < 1 ran no sweep and warned for every start; a NaN step_tol ran
    # no sweep and returned the start frames' values as bounds
    with pytest.raises(BadParams, match=message):
        FrameSearchConfig(**budget)


def test_domain_rejects_an_unknown_norm():
    with pytest.raises(BadParams, match="unknown norm type 'l1'"):
        Domain(center=(0.0,), radius=1.0, norm="l1")
