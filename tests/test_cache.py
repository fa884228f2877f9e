"""The matrix cache serves an entry only if it provably matches the request."""
import json
import os
import shutil
from pathlib import Path

import pytest

from springer_tworow.action import rep_matrix
from springer_tworow.cache import RepMatrixCache
from springer_tworow.cli import main
from springer_tworow.permutations import adjacent, identity


def test_store_then_load_roundtrip(tmp_path):
    cache = RepMatrixCache(str(tmp_path))
    sigma = adjacent(5, 2)
    matrix = rep_matrix(sigma, 5, 2, 1)
    path = Path(cache.store(sigma, 5, 2, 1, matrix))
    assert json.loads(path.read_text(encoding="utf-8"))["perm"] == ["1", "3", "2", "4", "5"]
    assert cache.load(sigma, 5, 2, 1) == matrix


def test_truncated_matrix_is_rejected(tmp_path):
    cache = RepMatrixCache(str(tmp_path))
    sigma = adjacent(4, 1)
    path = Path(cache.store(sigma, 4, 2, 2, rep_matrix(sigma, 4, 2, 2)))
    data = json.loads(path.read_text(encoding="utf-8"))
    data["matrix"] = [["7"]]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cache.load(sigma, 4, 2, 2) is None
    data["matrix"] = [["1", "0"], ["0"]]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cache.load(sigma, 4, 2, 2) is None


def test_entry_copied_under_another_key_is_rejected(tmp_path):
    cache = RepMatrixCache(str(tmp_path))
    ident, s2 = identity(4), adjacent(4, 2)
    source = cache.store(ident, 4, 2, 2, rep_matrix(ident, 4, 2, 2))
    target = cache._path(s2, 4, 2, 2)
    shutil.copy(source, target)
    assert cache.load(s2, 4, 2, 2) is None
    assert rep_matrix(s2, 4, 2, 2) != cache.load(ident, 4, 2, 2)


def test_cli_recomputes_and_replaces_a_rejected_entry(tmp_path, capsys):
    cache = RepMatrixCache(str(tmp_path))
    ident, s2 = identity(4), adjacent(4, 2)
    shutil.copy(cache.store(ident, 4, 2, 2, rep_matrix(ident, 4, 2, 2)),
                cache._path(s2, 4, 2, 2))
    argv = ["matrix", "-n", "4", "-k", "2", "-m", "2", "--sigma", "s2", "--cache-dir",
            str(tmp_path)]
    assert main(argv) == 0
    want = rep_matrix(s2, 4, 2, 2)
    assert capsys.readouterr().out.splitlines() == [" ".join(map(str, row)) for row in want]
    assert cache.load(s2, 4, 2, 2) == want


# A malformed row in place of each stored one; int() reads every one but the nested lists.
@pytest.mark.parametrize("row", ["999", [["1"]] * 3, [" 1"] * 3, ["1_0"] * 3],
                         ids=["string", "nested", "padded", "underscore"])
def test_cli_recomputes_and_replaces_a_malformed_matrix(tmp_path, capsys, row):
    argv = ["matrix", "-n", "4", "-k", "2", "-m", "1", "--sigma", "(1 2)", "--cached",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    [path] = tmp_path.glob("rep_4_2_1/*.json")
    stored = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**stored, "matrix": [row] * 3}), encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out == 2 * "1 0 0\n0 -1 -1\n0 0 1\n"
    assert json.loads(path.read_text(encoding="utf-8")) == stored


# An entry of other provenance in place of the stored one, each refused by its own check:
# not a JSON object, a basis listed in another order, and another (n, k, m) over the same basis.
@pytest.mark.parametrize("plant", [
    lambda stored: [stored],
    lambda stored: {**stored, "basis": stored["basis"][::-1]},
    lambda stored: {**stored, "k": "3"},
], ids=["not-an-object", "basis", "shape"])
def test_cli_recomputes_and_replaces_an_entry_of_other_provenance(tmp_path, capsys, plant):
    argv = ["matrix", "-n", "4", "-k", "2", "-m", "1", "--sigma", "(1 2)"]
    assert main(argv) == 0
    uncached = capsys.readouterr().out
    cached = argv + ["--cached", "--cache-dir", str(tmp_path)]
    assert main(cached) == 0
    [path] = tmp_path.glob("rep_4_2_1/*.json")
    stored = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(plant(stored)), encoding="utf-8")
    assert RepMatrixCache(str(tmp_path)).load(adjacent(4, 1), 4, 2, 1) is None
    assert main(cached) == 0
    assert capsys.readouterr().out == 2 * uncached
    assert json.loads(path.read_text(encoding="utf-8")) == stored


def test_cli_stores_each_entry_under_springer_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPRINGER_CACHE_DIR", str(tmp_path))
    assert main(["matrix", "-n", "4", "-k", "2", "-m", "2", "--sigma", "s1", "--cached"]) == 0
    stored = json.loads((tmp_path / "rep_4_2_2" / "p2-1-3-4.json").read_text(encoding="utf-8"))
    assert (stored["generator"], stored["version"]) == ("zeta-oracle", "2")
    assert stored["basis"] == ["4: u1-2 u3-4", "4: u1-4 u2-3"]


def test_entry_from_another_generator_is_a_miss(tmp_path):
    cache = RepMatrixCache(str(tmp_path))
    sigma = adjacent(4, 1)
    path = Path(cache.store(sigma, 4, 2, 2, rep_matrix(sigma, 4, 2, 2)))
    data = json.loads(path.read_text(encoding="utf-8"))
    data["generator"] = "elsewhere"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cache.load(sigma, 4, 2, 2) is None


def test_old_version_entry_is_a_miss(tmp_path):
    cache = RepMatrixCache(str(tmp_path))
    sigma = adjacent(4, 1)
    path = Path(cache.store(sigma, 4, 2, 2, rep_matrix(sigma, 4, 2, 2)))
    data = json.loads(path.read_text(encoding="utf-8"))
    data["version"] = "1"
    del data["perm"]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cache.load(sigma, 4, 2, 2) is None


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    # The entry is written to a temporary file and renamed into place; when
    # the rename fails, store removes the temporary file and raises, and the
    # CLI reports the OSError and exits 2.
    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    sigma = adjacent(4, 1)
    with pytest.raises(OSError, match=r"cannot rename .*\.tmp$"):
        RepMatrixCache(str(tmp_path)).store(sigma, 4, 2, 2, rep_matrix(sigma, 4, 2, 2))
    argv = ["matrix", "-n", "4", "-k", "2", "-m", "2", "--sigma", "s1", "--cached",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot rename ")
    monkeypatch.undo()
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
    assert RepMatrixCache(str(tmp_path)).load(sigma, 4, 2, 2) is None
