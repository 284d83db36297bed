"""Design guards over the package source: near and far are one algorithm with
different phase maps, so only a fixed set of functions may branch on the kind; a
command builds one quadrature rule, so only a fixed set of functions may build one;
and the band has one kernel, so only a fixed set of functions may call it."""

import ast
from pathlib import Path

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
