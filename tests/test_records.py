"""The slot record classes against generated dataclass twins.

Each record class of the package replaced a ``@dataclass`` with the flags
listed in ``FLAGS``.  Here every class meets a twin made by
``dataclasses.make_dataclass`` with the same name, fields and flags, and
seeded instances built from the same field values must agree on ``==``,
``!=``, the four orderings, ``hash``, ``repr``, assignment and deletion.
A record in ``CANONICAL`` stores a canonical form of the values it is
handed, so its twin is built from the fields it stored.  The constructor
that ``Record`` compiles from a class's fields takes the same positional
and keyword calls as the twin's and refuses the same wrong ones, and only
the records in ``OWN_INIT`` write their own.
"""
import copy
import importlib
import operator
import pickle
import random
from dataclasses import make_dataclass

import pytest

from springer_tworow.errors import DomainError
from springer_tworow.matchings import DottedMatching, Matching
from springer_tworow import records
from springer_tworow.records import Record

MODULES = ("action", "cells", "diagrams", "homology", "matchings", "permutations",
           "skein", "subspaces", "tabloids", "verify")

# (module, class) -> (frozen, order), as the classes were declared.
FLAGS = {
    ("matchings", "Matching"): (True, True),
    ("matchings", "DottedMatching"): (True, True),
    ("matchings", "StandardTableau"): (True, True),
    ("permutations", "Permutation"): (True, True),
    ("skein", "ResolutionConvention"): (True, True),
    ("cells", "ArcForest"): (True, False),
    ("diagrams", "Component"): (True, False),
    ("diagrams", "GluedOneManifold"): (True, False),
    ("diagrams", "ArrowGraph"): (True, False),
    ("diagrams", "MoveSequence"): (True, False),
    ("homology", "HomClass"): (True, False),
    ("skein", "FlatTangle"): (True, False),
    ("skein", "ResolvedDiagram"): (True, False),
    ("subspaces", "SignedPartitionSubspace"): (True, False),
    ("tabloids", "TabloidVector"): (True, False),
    ("action", "ChartRow"): (False, False),
    ("action", "Chart"): (False, False),
    ("action", "CharacterReport"): (False, False),
    ("tabloids", "ModuleComparison"): (False, False),
    ("verify", "Check"): (False, False),
}

# Records whose constructor stores the canonical form of its arguments.
CANONICAL = {"SignedPartitionSubspace"}

M1, M2 = Matching(2, ((1, 2),), ()), Matching(2, (), (1, 2))
D1, D2 = DottedMatching(M1, ()), DottedMatching(M1, ((1, 2),))
TERMS = ((), ((D1, 1),), ((D1, 1), (D2, -1)))
ARCS = ((), ((1, 2),))

# Field name -> candidate values; few enough that equal instances recur.
POOLS = {
    "Matching": {"n": (2, 4), "arcs": ((), ((1, 2),), ((1, 2), (3, 4))), "rays": ((), (1, 2))},
    "DottedMatching": {"base": (M1, M2), "dotted": ARCS},
    "StandardTableau": {"top": ((1, 2), (1, 3)), "bottom": ((), (3,), (2,))},
    "Permutation": {"images": ((1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 1))},
    "ResolutionConvention": {"identity_coeff": (1, -1), "closure_coeff": (-2, 0),
                             "closure_dots": ("none", "upperArc"), "merge_coeff": (-1, 2),
                             "merge_dots": ("none", "both")},
    "ArcForest": {"matching": (M1, M2), "edges": ((), (((1, 4), (2, 3)),)), "roots": ARCS},
    "Component": {"kind": ("circle", "line"), "vertices": (frozenset({1, 2}), frozenset({3})),
                  "ends": ((), ((3, "up"),)), "arcs_above": ARCS},
    "GluedOneManifold": {"a": (M1, M2), "b": (M1, M2), "components": ((), ("circle",))},
    "ArrowGraph": {"nodes": ((M1,), (M1, M2)), "successors": ({}, {M1: ()}),
                   "predecessors": ({}, {M1: [M2]})},
    "MoveSequence": {"steps": ((M1,), (M1, M2)), "tags": ((), ("->",)),
                     "certified": (True, False)},
    "HomClass": {"n": (2,), "k": (1,), "terms": TERMS},
    "FlatTangle": {"n": (3, 4), "layers": ((), (1,), (2, 1))},
    "ResolvedDiagram": {"coefficient": (1, -2), "boundary": (D1, D2)},
    "SignedPartitionSubspace": {"n": (2,), "assignment": (((1, 1), (1, -1)), ((1, 1), (2, 1))),
                                "pins": ((), ((1, 1),)), "empty": (False, True)},
    "TabloidVector": {"n": (3,), "m": (1,),
                      "coords": ((), ((frozenset({1}), -2),))},
    "ChartRow": {"case": (1, 2), "matching": (D1, D2), "position": (1,), "output": TERMS},
    "Chart": {"n": (2,), "k": (1,), "rows": ([], [1]), "anchor_failures": ([], ["x"])},
    "CharacterReport": {"n": (4,), "k": (2,), "rows": ([], [(1, (1, 1), 2, 2)]),
                        "coxeter_ok": (True, False), "failures": ([], ["f"])},
    "ModuleComparison": {"equal": (True, False), "tableau_in_matching": (None, [[1]]),
                         "matching_in_tableau": (None,)},
    "Check": {"name": ("a", "b"), "fn": (len, abs)},
}

ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


def _record(module: str, name: str):
    return getattr(importlib.import_module(f"springer_tworow.{module}"), name)


def _outcome(fn):
    """The value fn returns, or the type of the error it raises."""
    try:
        return fn()
    except (TypeError, AttributeError) as exc:
        return TypeError if isinstance(exc, TypeError) else AttributeError


def _values(pools: dict, seed: int, count: int = 10) -> list[tuple]:
    rng = random.Random(seed)
    values = [tuple(rng.choice(pool) for pool in pools.values()) for _ in range(count)]
    return values + values[:2]  # equal field values in distinct instances


def test_every_record_class_is_covered():
    for module in MODULES:
        importlib.import_module(f"springer_tworow.{module}")
    found = {(cls.__module__.removeprefix("springer_tworow."), cls.__name__)
             for cls in Record.__subclasses__()}
    assert found == set(FLAGS)


@pytest.mark.parametrize("module, name", sorted(FLAGS))
def test_record_behaves_like_its_dataclass_twin(module, name):
    frozen, order = FLAGS[module, name]
    cls = _record(module, name)
    pools = POOLS[name]
    twin = make_dataclass(name, list(pools), frozen=frozen, order=order)
    values = _values(pools, seed=sum(map(ord, name)))
    ours = [cls(*v) for v in values]
    stored = [tuple(getattr(x, field) for field in pools) for x in ours]
    assert (stored == values) == (name not in CANONICAL)
    theirs = [twin(*v) for v in stored]

    assert not hasattr(ours[0], "__dict__")
    assert (cls.__hash__ is None) == (not frozen) == (twin.__hash__ is None)
    pairs = [(i, j) for i in range(len(values)) for j in range(len(values))]
    assert any(ours[i] == ours[j] for i, j in pairs if i != j)
    for x, t in zip(ours, theirs):
        assert repr(x) == repr(t)
        assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(t))
        assert x != t and x.__eq__(t) is NotImplemented
        assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x
    for i, j in pairs:
        x, y, tx, ty = ours[i], ours[j], theirs[i], theirs[j]
        assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
        for op in ORDERINGS:
            assert _outcome(lambda: op(x, y)) == _outcome(lambda: op(tx, ty))

    field, replacement = next(iter(pools)), values[2][0]
    for x, t in zip(ours[:2], theirs[:2]):
        assigned = _outcome(lambda: setattr(x, field, replacement))
        assert assigned == _outcome(lambda: setattr(t, field, replacement))
        assert (assigned is AttributeError) == frozen
    for i, j in pairs:
        assert (ours[i] == ours[j]) == (theirs[i] == theirs[j])
    x, t = cls(*values[0]), twin(*values[0])
    assert _outcome(lambda: delattr(x, field)) == _outcome(lambda: delattr(t, field))


def test_arrow_graph_constructs_and_refuses_only_hashing():
    ArrowGraph = _record("diagrams", "ArrowGraph")
    graph = ArrowGraph((M1,), {M1: ()}, {M1: []})
    assert graph == ArrowGraph((M1,), {M1: ()}, {M1: []})
    with pytest.raises(TypeError, match="unhashable"):
        hash(graph)


@pytest.mark.parametrize("module, name", sorted(k for k, (frozen, _) in FLAGS.items()
                                                 if not frozen))
def test_mutable_records_are_unhashable(module, name):
    cls = _record(module, name)
    x = cls(*_values(POOLS[name], seed=0, count=1)[0])
    with pytest.raises(TypeError, match="unhashable"):
        hash(x)
    with pytest.raises(TypeError, match="unhashable"):
        {x}


def test_cross_class_comparisons():
    Permutation = _record("permutations", "Permutation")
    p = Permutation((1, 2))
    assert M1 != p and not (M1 == p)
    assert M1.__eq__(p) is NotImplemented and M1.__lt__(p) is NotImplemented
    for op in ORDERINGS:
        for other in (p, D1):
            with pytest.raises(TypeError):
                op(M1, other)
    HomClass = _record("homology", "HomClass")
    with pytest.raises(TypeError):
        HomClass(2, 1, ()) < HomClass(2, 1, ())


def test_constructor_defaults_and_keywords():
    skein = importlib.import_module("springer_tworow.skein")
    action = importlib.import_module("springer_tworow.action")
    diagrams = importlib.import_module("springer_tworow.diagrams")
    # ResolutionConvention has no defaults: CALIBRATED_CONVENTION is the one place it is written.
    with pytest.raises(TypeError):
        skein.ResolutionConvention()
    assert repr(skein.CALIBRATED_CONVENTION) == (
        "ResolutionConvention(identity_coeff=1, closure_coeff=-2, closure_dots='upperArc', "
        "merge_coeff=-1, merge_dots='none')")
    assert skein.ResolutionConvention(1, -2, "upperArc", -1, merge_dots="both").merge_dots == "both"
    a, b = action.Chart(3, 1), action.Chart(3, 1)
    assert a.rows == [] and a.rows is not b.rows and a.anchor_failures is not b.anchor_failures
    r, s = action.CharacterReport(3, 1), action.CharacterReport(3, 1)
    assert (r.rows, r.coxeter_ok, r.failures) == ([], True, [])
    assert r.rows is not s.rows and r.failures is not s.failures
    line = diagrams.Component(kind="line", vertices=frozenset({1}), ends=((1, "up"),),
                              arcs_above=())
    assert line.kind == "line"
    assert skein.FlatTangle(3, (1, 2)).layers == (1, 2)
    for bad in ((0,), (3,)):
        with pytest.raises(DomainError, match="outside 1..2"):
            skein.FlatTangle(3, bad)



# The records whose constructor computes something before it stores the fields.
OWN_INIT = {"FlatTangle", "SignedPartitionSubspace", "ArrowGraph", "Chart", "CharacterReport"}


@pytest.mark.parametrize("module, name", sorted(FLAGS))
def test_keyword_and_positional_construction_agree(module, name):
    cls, pools = _record(module, name), POOLS[name]
    assert tuple(pools) == cls._fields
    for v in _values(pools, seed=len(name)):
        assert cls(**dict(zip(pools, v))) == cls(*v)


@pytest.mark.parametrize("module, name", sorted(k for k in FLAGS if k[1] not in OWN_INIT))
def test_generated_constructor_refuses_what_the_twin_refuses(module, name):
    frozen, order = FLAGS[module, name]
    cls, pools = _record(module, name), POOLS[name]
    twin = make_dataclass(name, list(pools), frozen=frozen, order=order)
    v = _values(pools, seed=1, count=1)[0]
    keywords = dict(zip(pools, v))
    calls = [(v, {}), (v[:-1], {}), (v + v[:1], {}), ((), keywords),
             (v, {"unknown": 1}), ((), {**keywords, "unknown": 1}), (v[:1], keywords)]
    calls += [((), {f: x for f, x in keywords.items() if f != field}) for field in pools]
    for args, kwargs in calls:
        refused = _outcome(lambda: cls(*args, **kwargs)) is TypeError
        assert refused == (_outcome(lambda: twin(*args, **kwargs)) is TypeError), (args, kwargs)
        assert refused == ((args, kwargs) not in ((v, {}), ((), keywords)))


def test_only_computing_constructors_are_hand_written_and_no_hash_is():
    for module in MODULES:
        importlib.import_module(f"springer_tworow.{module}")
    classes = Record.__subclasses__()
    assert {cls.__name__ for cls in classes if cls.__init__ is not cls._store} == OWN_INIT
    for cls in classes:
        assert cls.__dict__.get("__hash__") in (None, records._field_hash, records._stored_hash)
        assert (cls.__hash__ is records._stored_hash) == ("_hash" in cls.__slots__)


def test_a_stored_hash_is_the_hash_of_the_field_tuple():
    Permutation = _record("permutations", "Permutation")
    for n, arcs, rays in ((2, ((1, 2),), ()), (4, ((1, 4), (2, 3)), ()), (3, (), (1, 2, 3))):
        assert hash(Matching(n, arcs, rays)) == hash((n, arcs, rays))
    for images in ((), (1,), (2, 1, 3)):
        assert hash(Permutation(images)) == hash((images,)) != hash(images)
