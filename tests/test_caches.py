"""``springer_tworow.clear_caches`` empties every per-shape table in ``src/``.

The tables are the ``functools.lru_cache`` functions of the submodules.
The source is scanned for them, so a table added later is covered by
this test, and ``clear_caches`` must reach it by its module binding.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import springer_tworow
from springer_tworow.homology import reduce_class
from springer_tworow.matchings import all_dotted_matchings

SRC = Path(__file__).resolve().parent.parent / "src"


def cached_functions() -> list[tuple[str, str]]:
    """(submodule, name) of every function in ``src/`` decorated with ``lru_cache``."""
    found = []
    for path in sorted((SRC / "springer_tworow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else target.id
                if name in ("lru_cache", "cache"):
                    found.append((path.stem, node.name))
    return found


def fill_every_table():
    """One small call into each layer that keeps a per-shape table."""
    from springer_tworow import action, diagrams, tabloids

    action.character_table_check(4, 2)
    tabloids.modules_equal(4, 1, 2)
    tabloids.tabloid_index(4, 2)
    diagrams.arrow_graph(4, 2)
    other = next(M for M in all_dotted_matchings(4, 2, 1) if not M.is_standard)
    reduce_class(springer_tworow.HomClass.of(other))


def test_clear_caches_empties_every_lru_cache_in_src():
    found = cached_functions()
    assert ("tabloids", "_factor") in found and ("action", "_certificate") in found
    fill_every_table()
    tables = {(module, name): getattr(importlib.import_module(f"springer_tworow.{module}"), name)
              for module, name in found}
    assert all(t.cache_info().currsize for t in tables.values()), \
        [key for key, t in tables.items() if not t.cache_info().currsize]
    springer_tworow.clear_caches()
    assert [key for key, t in tables.items() if t.cache_info().currsize] == []


def test_clear_caches_imports_nothing():
    probe = ("import sys, springer_tworow\nspringer_tworow.clear_caches()\n"
             "print(' '.join(m for m in sys.modules if m.startswith('springer_tworow.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.split() == []
