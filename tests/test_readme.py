"""The README's library quick start runs as written against ``src``, and its
config table describes the CLI's schema."""

import os
import re
import subprocess
import sys
from pathlib import Path

from hausdorff_op import cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _config_rows() -> dict:
    """The README's config table: each top-level key and the text of its row."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | value |", 1)[1].split("\n\n", 1)[0]
    return dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))


def test_readme_config_table_lists_the_schema():
    rows = _config_rows()
    assert set(rows) == set(cli._TOP)
    # every table reachable from the root, under the row of the first
    # top-level key that reaches it: the row names each of its keys and, for
    # a table per tag value, the tag and each value
    seen = set()
    for row, shape in cli._TOP.items():
        stack = [shape]
        while stack:
            shape = stack.pop()
            if shape.tables is None:
                continue
            tables = shape.tables if shape.tag else {None: shape.tables}
            for kind, table in tables.items():
                if id(table) in seen:
                    continue
                seen.add(id(table))
                names = [*table] if kind is None else [shape.tag, kind, *table]
                for name in names:
                    assert re.search(rf'["`]{name}["`]', rows[row]), (row, name)
                stack.extend(table.values())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "finite_group_uniform" not in readme
