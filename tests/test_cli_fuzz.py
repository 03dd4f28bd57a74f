"""A Hypothesis fuzz of the command line, run in-process through ``cli.main``.

Every argv is built from the real subcommands and flags, with dimensions of
at most 3 and a mix of well-formed and malformed values.  ``main`` must
return an exit code in {0, 1, 2}, and the only exception that may escape it
is argparse's ``SystemExit`` (usage errors and ``--help``), with a code in
the same set.
"""

from pathlib import Path

import pytest

from chernlab.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DEMO = str(Path(__file__).resolve().parent.parent / "scenarios" / "demo.json")


def _values(valid, malformed):
    """One of ``valid`` (each three times as likely) or of ``malformed``."""
    return st.sampled_from(3 * valid + malformed)


METRICS = _values(
    ["fubini_study:1", "fubini_study:2", "2*fubini_study:2", "poincare_disk:1", "3*poincare_disk:1",
     "hopf:2", "complex_hyperbolic:2", "euclidean:1", "polydisk:1,1", "hopf:3"],
    ["fubini_study", "fubini_study:x", "x*euclidean:1", "-1*euclidean:1", "bogus:1", "", ":"],
)
NUMBERS = _values(["0", "0.1", "-0.2", "0.5", "2"], ["1e400", "nan", "inf", "-inf", "x", ""])
POINTS = st.one_of(
    st.sampled_from(["0", "0.1,0.2", "0,0", "0.1,0,0.2,0", "0,0,0,0", "0.5,0,0.5,0,0.5,0"]),
    st.lists(NUMBERS, max_size=5).map(",".join),
)
GRIDS = _values(
    ["box:half=0.2;per-axis=2", "box:half=0.1", "box:center=0.1,0;half=0.2;per-axis=1",
     "box:center=0.1,0,0,0;half=0.1;per-axis=1"],
    ["box:half=-1", "box:half=x", "box:per-axis=0", "box:half=0.2;per-axis=2;extra=1", "box", ""],
)
MAPS = _values(
    ["identity", "scaling", "scaling:2", "power:2", "mobius:0.3"],
    ["scaling:0", "power:0", "power:x", "mobius:2", "mobius:x", "bogus"],
)
CONSTANTS = _values(
    ['{"kappa": 0.25}', '{"c1": 2, "c2": 0, "kappa": 0.5}', "{}"],
    ['{"c1": "x"}', '{"kappa": 1e999}', "[1]", "{", "null"],
)
SMALL_INTS = _values(["1", "2", "3"], ["-1", "0", "x", ""])


def _given(name, values):
    """``[name, value]``."""
    return values.map(lambda v: [name, v])


def _flag(name, values):
    """``[name, value]`` or nothing."""
    return st.one_of(st.just([]), _given(name, values))


def _join(parts):
    return [token for part in parts for token in part]


def _argvs():
    point_task = st.tuples(
        st.sampled_from([["curvature"], ["rbc"], ["sbc"]]), _given("--metric", METRICS), _given("--point", POINTS),
    )
    schwarz = st.tuples(
        st.just(["schwarz"]),
        _given("--theorem", _values(["chern_lu", "aubin_yau", "trace_bound", "family"], ["bogus"])),
        _given("--source", METRICS), _given("--target", METRICS), _given("--grid", GRIDS),
        _flag("--map", MAPS), _flag("--mu", METRICS), _flag("--constants", CONSTANTS), _flag("--tol", NUMBERS),
        _flag("--preset", _values(["chen_cheng_lu", "ricci_only", "liouville"], ["bogus"])),
        _flag("--kappa-mode", _values(["along_map", "full_cone"], ["bogus"])),
    )
    identity = st.tuples(
        st.just(["identity"]),
        _given("--check", _values(["fs-moment", "averaged-hsc", "theorem23"], ["bogus"])),
        _flag("--n", SMALL_INTS), _flag("--indices", st.lists(SMALL_INTS, max_size=5).map(",".join)),
        _flag("--metric", METRICS), _flag("--point", POINTS), _flag("--b", POINTS),
    )
    run = st.tuples(
        st.just(["run"]),
        _given("--scenario", st.sampled_from([DEMO, DEMO + ".missing", ""])), _flag("--seed", SMALL_INTS),
    )
    # usage errors: argparse exits with code 2 (0 for --help)
    other = st.sampled_from([
        [], ["catalog"], ["bogus"], ["--help"], ["rbc", "--bogus", "1"], ["schwarz", "--theorem", "chern_lu"],
    ])
    return st.one_of(point_task.map(_join), schwarz.map(_join), identity.map(_join), run.map(_join), other)


@hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
@hypothesis.given(_argvs())
def test_exit_codes_and_only_system_exit_escapes(argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv
