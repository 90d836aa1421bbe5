"""Every Python file under ``src/``, ``tests/`` and ``tools/`` parses as
Python 3.10, the ``requires-python`` floor in ``pyproject.toml``.

This checks syntax only: ``ast.parse(..., feature_version=(3, 10))``
rejects syntax newer than 3.10, such as ``except*``, but not a name that
only a newer standard library holds, such as ``tomllib``, which only a run
under 3.10 finds.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_every_file_parses_as_the_oldest_supported_python():
    paths = sorted(path for top in ("src", "tests", "tools")
                   for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "src" / "dnumbers" / "core.py" in paths
    assert Path(__file__).resolve() in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=FLOOR)

