"""Design guards over the package source: near and far are one algorithm with
different phase maps, so only a fixed set of functions may branch on the kind; a
command builds one quadrature rule, so only a fixed set of functions may build one,
and the rule samples the source, so only the rule's builder may sample it; the band
has one kernel, one row writer, one Horner pass and one Toeplitz apply, so only a
fixed set of functions may call each; every e^{i theta} comes from one
vectorised kernel, so only the closed-form references may call `exp`; every
cache-sized loop takes its blocks from one slab rule, which alone reads the budget;
only the indicator forks, and reaps what it forks; the certificates, their
runner, their references and the factors they certify live in `verify` alone; every
band kernel is defined in `forward`; the former per-kind names in `imaging`; and each
test module is named for a package module or is one of the listed suites."""

import ast
from pathlib import Path

from mfsampling import verify

SRC = Path(__file__).resolve().parent.parent / "src" / "mfsampling"

# The phase map and what cannot be written through it: validation, the spreading,
# the far grid's per-axis exponentials and the phase range.  The config reader and
# writer take each kind's keys from one table.
KIND_BRANCHES = ["MeasurementSet.__post_init__", "_grid_walk", "_spreading", "phase", "phase_range"]

# `simulate` builds its rule in `generate_dataset`; a `verify` run builds one in
# `_sensor_problem`, and its data and factors share it.
RULE_BUILDERS = ["_sensor_problem", "generate_dataset"]

# The rule is the discrete source: `quadrature` samples f once, in the pass over the
# voxel centers that picks the nodes, and the data, factors and certificates read
# `rule.amplitude`.
AMPLITUDE_SAMPLERS = ["quadrature"]

# The band's one kernel: running power sums feed the synthesis factor and the rows
# over m = -J..J, which `_laurent_rows` alone writes.
POWER_SUM_CALLERS = ["_laurent_rows", "synthesis"]

# The rows: the dataset's P(T 1) in blocks, verify's one row P(T 1) from its factors,
# and the coercivity Gram row (T = 1).
ROW_WRITERS = ["_sensor_problem", "check_coercivity", "generate_dataset"]

# The factors N = P T P* are built for the one problem the certificates share.
FACTORIZATION_BUILDERS = ["_sensor_problem"]

# One Horner pass: the analysis factor's polynomial in conj(z) and the indicator's in w.
HORNER_CALLERS = ["analysis", "compute_indicator"]

# One Toeplitz apply of the band convolution N: a single test function, the
# factorization certificate's whole batch of trials in one call, and the forms
# (N g, g), each a row-wise dot of that apply with conj(g).
TOEPLITZ_APPLY_CALLERS = ["_toeplitz_forms", "apply_operator", "check_factorization"]

# `forward._expi` gives every e^{i theta} of the data, the factors, the probe and the
# indicator; its table is built in double-double from one root of unity, with no call
# to libm.  Only the point spread references, closed forms checked against the grid
# sums, call `exp`; `_cis`, which takes rows of wavenumbers, alone calls `_expi`.
EXP_CALLERS = ["check_psf", "psf_closed_form", "psf_discrete"]
EXPI_CALLERS = ["_cis"]

# One slab rule, `forward._row_blocks`: blocks of whole rows of at most `_SLAB_VOXELS`
# elements, for the kernel's elements, the walk's grid layers, the data's sensors and
# `radiated_field`'s wavenumbers.  The indicator takes its slabs from the one grid walk.
# Beside the rule only `_expi`'s scratch sizing reads the budget.
ROW_BLOCK_CALLERS = ["_expi", "_grid_walk", "generate_dataset", "radiated_field"]
GRID_WALK_CALLERS = ["compute_indicator"]
SLAB_BUDGET_READERS = ["forward._expi", "forward._row_blocks"]

# The indicator's voxels are independent, so its axis-0 layers may be walked in worker
# processes: the one function that walks the grid forks them, and reaps each before it
# returns or raises.
FORK_CALLERS = ["compute_indicator"]

# The band kernels, each defined in `forward` alone: the exponentials, the grid walk,
# the slab rule, the power sums and the rows they write, Horner's rule, and the
# Toeplitz apply of a row with its index and forms.
BAND_KERNELS = ["_cis", "_expi", "_grid_walk", "_horner", "_laurent_rows", "_power_sums",
                "_row_blocks", "_toeplitz_apply", "_toeplitz_forms", "_toeplitz_index"]

# The former per-kind names that the benchmark's oracle still calls, bound in one block.
LEGACY_NAMES = ["far_quadratic_form", "far_test_function", "near_quadratic_form",
                "near_test_function"]

# The command line parses and prints, and imaging images: which certificates run, in
# what order and on what problem is `verify.run`'s, and the point spread references
# sit beside the check that reads them.
CERTIFICATE_FREE = ["cli.py", "imaging.py"]

# The test modules named for no package module: the acceptance criteria, the artifact
# digest ledger, these guards and the property tests.  Every other test module is named
# for the module whose code it tests.
SUITES = ["acceptance", "artifact_ledger", "design", "properties"]


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


def _all_callers(name):
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_callers(ast.parse(path.read_text(encoding="utf-8")), name))
    return sorted(found)


def test_only_the_listed_functions_build_a_quadrature_rule():
    assert _all_callers("quadrature") == RULE_BUILDERS


def test_only_the_listed_functions_sample_the_source():
    assert _all_callers("amplitude_at") == AMPLITUDE_SAMPLERS


def test_only_the_listed_functions_sum_band_powers():
    assert _all_callers("_power_sums") == POWER_SUM_CALLERS


def test_only_the_listed_functions_write_band_rows():
    assert _all_callers("_laurent_rows") == ROW_WRITERS


def test_only_the_listed_functions_build_factors():
    assert _all_callers("Factorization") == FACTORIZATION_BUILDERS


def test_only_the_listed_functions_run_horner():
    assert _all_callers("_horner") == HORNER_CALLERS


def test_only_the_listed_functions_apply_a_toeplitz_block():
    assert _all_callers("_toeplitz_apply") == TOEPLITZ_APPLY_CALLERS


def test_only_the_listed_functions_call_exp():
    assert _all_callers("exp") == EXP_CALLERS


def test_only_the_listed_functions_call_expi():
    assert _all_callers("_expi") == EXPI_CALLERS


def test_only_the_listed_functions_take_row_blocks():
    assert _all_callers("_row_blocks") == ROW_BLOCK_CALLERS


def test_only_the_listed_functions_walk_the_grid():
    assert _all_callers("_grid_walk") == GRID_WALK_CALLERS


def test_only_the_listed_functions_fork():
    assert _all_callers("fork") == FORK_CALLERS


def _readers(tree, name, module, func="<module>"):
    """`module.function` of each load, attribute or import of `name` in tree, named by
    its innermost enclosing function."""
    for node in ast.iter_child_nodes(tree):
        if ((isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))):
            yield f"{module}.{func}"
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _readers(node, name, module, inner)


def test_only_the_slab_rule_and_the_kernel_scratch_read_the_budget():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_readers(ast.parse(path.read_text(encoding="utf-8")), "_SLAB_VOXELS",
                              path.stem))
    assert sorted(found) == SLAB_BUDGET_READERS


def _certificate_names(tree):
    """Each string that names a check in `verify.CHECKS`, and each `check_*` or `psf_*`
    name, attribute, import or definition in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in verify.CHECKS:
            yield repr(node.value)
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)):
            if isinstance(name, str) and name.startswith(("check_", "psf_")):
                yield name


def test_only_verify_names_a_certificate():
    for name in CERTIFICATE_FREE:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        assert sorted(set(_certificate_names(tree))) == [], name


def test_checks_list_the_check_functions_in_report_order():
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    defined = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")]
    assert defined == [f"check_{name}" for name in verify.CHECKS]


def _bindings(tree):
    """Names that a module's own top-level statements bind: each def, class and
    assignment target, imports left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _binders(name):
    """Stems of the modules that bind `name` at module level."""
    return [path.stem for path in sorted(SRC.glob("*.py"))
            if name in set(_bindings(ast.parse(path.read_text(encoding="utf-8"))))]


def test_band_kernels_are_defined_in_forward():
    for name in BAND_KERNELS:
        assert _binders(name) == ["forward"], name


def test_former_names_are_bound_in_imaging():
    for name in LEGACY_NAMES:
        assert _binders(name) == ["imaging"], name


def test_each_test_module_names_a_module_or_a_suite():
    for path in sorted(Path(__file__).resolve().parent.glob("test_*.py")):
        name = path.stem.removeprefix("test_")
        assert (SRC / f"{name}.py").is_file() or name in SUITES, path.name
