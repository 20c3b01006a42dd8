"""The package's shape: what its root exports, that no module keeps an
import it does not use, and which private names modules share."""

import ast
import inspect
from pathlib import Path

import hausdorff_op

SRC = Path(hausdorff_op.__file__).resolve().parent

# the builders a run config names; bench/setup_probe.py reads each as hop.<name>
ROOT_BUILDERS = {
    "ball", "box", "truncated_space",
    "gaussian", "polynomial", "gaussian_times_poly",
    "rotation_family", "shift_family", "finite_group_family", "motion_family",
    "discretize", "kernel_form", "kernel_on_measure",
    "HausdorffOperator", "build_grid_quadrature",
}

# imported but not called: bench/tracing.py wraps them under these modules' names
TRACER_IMPORTS = {
    ("experiments", "lp_norm"),
    ("experiments", "sobolev_norm"),
    ("operator", "kernel_l1_norm"),
}

# (reader, owner, name): the underscore names that one module of the package
# imports from, or reads on, another; any other such read is a new coupling
PRIVATE_READS = {
    ("cli", "measure_kernel", "_FORMS"),
    ("experiments", "geometry", "_rule_count"),
    ("experiments", "operator", "_rows_times"),
    ("measure_kernel", "geometry", "_legendre_rule"),
    ("measure_kernel", "geometry", "_rule_count"),
}


def test_package_root_holds_only_the_run_builders():
    public = {name for name, value in vars(hausdorff_op).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == ROOT_BUILDERS
    assert hausdorff_op.__version__


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_in_src_is_used():
    unused = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py" for name in _unused_imports(path)}
    assert unused == TRACER_IMPORTS


def _private_reads(source: str) -> set[tuple[str, str]]:
    """(owner, name) for each underscore name the source imports from, or
    reads as an attribute of, a module of the package."""
    tree = ast.parse(source)
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        owner = node.module or ""
        if node.level == 0:
            if owner.split(".")[0] != "hausdorff_op":
                continue
            owner = owner.removeprefix("hausdorff_op").lstrip(".")
        if owner:
            reads.update((owner, a.name) for a in node.names if a.name.startswith("_"))
        else:  # from . import geometry
            modules.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_private_names_cross_modules_only_where_listed():
    assert _private_reads("from .geometry import _a, b\nfrom . import field as f\n"
                          "from hausdorff_op.operator import _c\nf._d, f.e\n") == {
        ("geometry", "_a"), ("operator", "_c"), ("field", "_d")}
    reads = {(path.stem, owner, name) for path in sorted(SRC.glob("*.py"))
             for owner, name in _private_reads(path.read_text(encoding="utf-8"))
             if owner != path.stem}
    assert reads == PRIVATE_READS
