"""Design guards over the package source: near and far are one algorithm with
different phase maps, so only a fixed set of functions may branch on the kind; a
command builds one quadrature rule, so only a fixed set of functions may build one;
the band has one kernel, so only a fixed set of functions may call it; and every
e^{i theta} comes from one vectorised kernel, so only the closed-form references
may call `exp`."""

import ast
from pathlib import Path

import pytest

import mfsampling as mf

SRC = Path(__file__).resolve().parent.parent / "src" / "mfsampling"

# The phase map and what cannot be written through it: validation, the spreading,
# the far grid's per-axis exponentials and the phase range.  The config reader and
# writer take each kind's keys from one table.
KIND_BRANCHES = ["MeasurementSet.__post_init__", "_grid_cis", "_spreading", "phase", "phase_range"]

# `simulate` builds its rule in `generate_dataset`; a `verify` run builds one in
# `_sensor_problem`, and its data and factors share it.
RULE_BUILDERS = ["_sensor_problem", "generate_dataset"]

# The band's one kernel: running power sums feed the data, the synthesis factor and
# the coercivity Gram row.
POWER_SUM_CALLERS = ["_dataset_rows", "check_coercivity", "synthesis"]

# `forward._expi` gives every e^{i theta} of the data, the factors, the probe and the
# indicator; its table is built in double-double from one root of unity, with no call
# to libm.  Only the point spread references, closed forms checked against the grid
# sums, call `exp`.
EXP_CALLERS = ["check_psf", "psf_closed_form", "psf_discrete"]


def _is_kind(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "kind")
            or (isinstance(node, ast.Attribute) and node.attr == "kind"))


def _is_kind_name(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_kind_name(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in ("near", "far")


def _kind_branches(tree, scope=()):
    """Qualified names of the functions whose own body compares a kind with "near" or "far"."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _kind_branches(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_kind, operands)) and any(map(_is_kind_name, operands)):
                yield ".".join(scope)
        yield from _kind_branches(node, scope)


def test_only_the_listed_functions_branch_on_the_kind():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_kind_branches(ast.parse(path.read_text(encoding="utf-8"))))
    assert sorted(found) == KIND_BRANCHES


def _callers(tree, name):
    """Names of the functions whose body, nested functions included, calls `name`."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    yield func.name


def test_only_the_listed_functions_build_a_quadrature_rule():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_callers(ast.parse(path.read_text(encoding="utf-8")), "quadrature"))
    assert sorted(found) == RULE_BUILDERS


def test_only_the_listed_functions_sum_band_powers():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_callers(ast.parse(path.read_text(encoding="utf-8")), "_power_sums"))
    assert sorted(found) == POWER_SUM_CALLERS


def test_only_the_listed_functions_call_exp():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_callers(ast.parse(path.read_text(encoding="utf-8")), "exp"))
    assert sorted(found) == EXP_CALLERS


@pytest.mark.parametrize("kind", ["near", "far"])
def test_band_ratio_is_cis_of_the_phase(kind):
    # `_band` calls the kernel itself, not `_cis`, and gives the same bits
    x = (4.5, -2.5, 1.5) if kind == "near" else (0.6, -0.48, 0.64)
    nodes, dk = mf.quadrature(mf.Ball(center=(0.9, 0.4, -0.5), radius=0.6), 0.1).nodes, 0.75
    z, _ = mf.forward._band(kind, x, nodes, dk)
    assert z.tobytes() == mf.forward._cis(dk, mf.phase(kind, x, nodes.T)).tobytes()
