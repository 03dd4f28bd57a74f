"""Ratchet on the error taxonomy: failures raise typed ``ChernLabError``s.

Every ``raise ValueError``/``raise TypeError`` left in the package is listed
below by (module, enclosing function).  A new site fails the test; so does a
listed site that no longer raises, so the list can only shrink.
"""

import ast
from pathlib import Path

import chernlab

BARE = {"ValueError", "TypeError"}

ALLOWED = {
    ("cones", "FrameSearchConfig.__post_init__"),
    ("cones", "sbc_along_map"),
    ("curvature", "chern_curvature"),
    ("curvature", "ricci"),
    ("curvature", "hsc"),
    ("maps", "singular_frames"),
    ("metrics", "Domain._dist"),
    ("scenario", "box_grid"),
    ("tensors", "curvature_in_frame"),
}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _bare_raise_sites(tree, module):
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                if isinstance(child, ast.Raise) and child.exc is not None:
                    if _raised_name(child) in BARE:
                        sites.append(((module, ".".join(scope)), child.lineno))
                visit(child, scope)

    visit(tree, ())
    return sites


def test_bare_value_and_type_errors_only_at_listed_sites():
    sites = []
    for path in sorted(Path(chernlab.__file__).parent.glob("*.py")):
        sites += _bare_raise_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    new = sorted(f"{m}.{fn} (line {line})" for (m, fn), line in sites if (m, fn) not in ALLOWED)
    assert not new, f"raise a ChernLabError subclass instead of ValueError/TypeError: {new}"
    stale = sorted(ALLOWED - {site for site, _ in sites})
    assert not stale, f"no bare ValueError/TypeError left here; drop from ALLOWED: {stale}"

