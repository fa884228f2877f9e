"""The matrix cache serves an entry only if it provably matches the request."""
import json
import shutil

from springer_tworow.action import rep_matrix
from springer_tworow.cache import RepMatrixCache
from springer_tworow.cli import main
from springer_tworow.permutations import adjacent, identity


def test_store_then_load_roundtrip(tmp_path):
    cache = RepMatrixCache(str(tmp_path))
    sigma = adjacent(5, 2)
    matrix = rep_matrix(sigma, 5, 2, 1)
    path = cache.store(sigma, 5, 2, 1, matrix)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["perm"] == ["1", "3", "2", "4", "5"]
    assert cache.load(sigma, 5, 2, 1) == matrix


def test_truncated_matrix_is_rejected(tmp_path):
    cache = RepMatrixCache(str(tmp_path))
    sigma = adjacent(4, 1)
    path = cache.store(sigma, 4, 2, 2, rep_matrix(sigma, 4, 2, 2))
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["matrix"] = [["7"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert cache.load(sigma, 4, 2, 2) is None
    data["matrix"] = [["1", "0"], ["0"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
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


def test_old_version_entry_is_a_miss(tmp_path):
    cache = RepMatrixCache(str(tmp_path))
    sigma = adjacent(4, 1)
    path = cache.store(sigma, 4, 2, 2, rep_matrix(sigma, 4, 2, 2))
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["version"] = "1"
    del data["perm"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert cache.load(sigma, 4, 2, 2) is None
