"""The demo scripts stay importable against the current library.

Each demo runs its ``main()`` only under ``__name__ == "__main__"``, so
loading one executes its imports and definitions and nothing else: a demo
that names a removed or renamed library function fails here.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_and_defines_main(path: pathlib.Path) -> None:
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
