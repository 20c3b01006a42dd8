"""The package's shape: what its root exports, and that no module keeps an
import it does not use."""

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
