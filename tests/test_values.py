"""The package's value types: equality and hashing by class and fields,
immutability, defaults, and the values a Drawing keeps once computed."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from spannerdraw import metrics
from spannerdraw.bounds import AnnulusViolation, annulus_bound_check, annulus_census
from spannerdraw.drawing import Drawing
from spannerdraw.embedding import augment_to_maximal_with_canonical_order, planarity_test_embed
from spannerdraw.exact import Interval
from spannerdraw.graph import Graph, RootedTree, bfs_parents
from spannerdraw.layout import Epsilon, draw_graph_via_tough_tree
from spannerdraw.metrics import compute_metrics

PATH = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def equal_pairs():
    """Two objects with equal fields, built apart, of each class compared by value."""
    return [
        (PATH, Graph(4, ((1,), (0, 2), (1, 3), (2,)))),
        (Interval(F(1), F(3, 2)), Interval(F(2, 2), F(6, 4))),
        (Drawing(PATH, ((0, 0), (2, 0), (4, 2), (6, 0)), 2),
         Drawing(Graph(4, PATH.adj), ((0, 0), (1, 0), (2, 1), (3, 0)))),
        (Epsilon(F(1, 2)), Epsilon("1/2")),
    ]


def frozen_values():
    """One object of each immutable class, made the way callers get them."""
    d = Drawing.on_x_axis(PATH, range(4))
    return [
        PATH,
        d,
        Interval(F(1), F(2)),
        Epsilon(1),
        compute_metrics(d),
        planarity_test_embed(PATH),
        augment_to_maximal_with_canonical_order(PATH),
        annulus_census(d, 1),
        AnnulusViolation(0, 1, 2),
        annulus_bound_check(d, F(1)),
        draw_graph_via_tough_tree(PATH, 2, Epsilon(1)),
        pytest.param(metrics._far_order(PATH, d.points)[0], id="_far_order"),  # a _Tree chain
        metrics._spanning_tree(PATH, bfs_parents(PATH)),
    ]


@pytest.mark.parametrize("a, b", equal_pairs(), ids=lambda v: type(v).__name__)
def test_equal_fields_give_equal_values_and_hashes(a, b):
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b


@pytest.mark.parametrize("a, b", equal_pairs(), ids=lambda v: type(v).__name__)
def test_another_class_with_the_same_fields_is_not_equal(a, b):
    twin = type("Twin", (type(a),), {"__slots__": ()})(*b._values())
    assert twin == type(twin)(*b._values())
    assert a != twin and twin != a
    assert a != a._values()


def test_unequal_fields_give_unequal_values():
    assert Graph(2, ((1,), (0,))) != Graph(2, ((), ()))
    assert Interval(1, 2) != Interval(1, 3)
    assert Epsilon(1) != Epsilon(2)
    d = Drawing.on_x_axis(PATH, range(4))
    assert d != Drawing.on_x_axis(PATH, (1, 0, 2, 3))


@pytest.mark.parametrize("value", frozen_values(), ids=lambda v: type(v).__name__)
def test_assignment_raises_attribute_error(value):
    assert value is not None
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_copies_and_pickles_round_trip():
    # copy, deepcopy and pickle rebuild each value type, and the records
    # and trees that hold them, equal to the original.
    d = Drawing.on_x_axis(PATH, range(4))
    values = [PATH, d, Interval(F(1), F(2)), Epsilon(F(1, 3)), compute_metrics(d), RootedTree.from_graph(PATH, 0)]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            if isinstance(value, RootedTree):
                assert [getattr(twin, name) for name in RootedTree.__slots__] == \
                    [getattr(value, name) for name in RootedTree.__slots__]
            else:
                assert twin == value and hash(twin) == hash(value)


def test_rooted_tree_is_mutable_with_fresh_lists():
    a, b = RootedTree(PATH, 0), RootedTree(PATH, 0)
    assert a.parent == a.children == [] and a.parent is not b.parent and a.children is not b.children
    a.root = 1
    a.parent.append(None)
    assert (a.root, a.parent, b.parent) == (1, [None], [])


def test_drawing_keeps_coords_and_closest_pair():
    d = Drawing(PATH, ((0, 0), (3, 0), (4, 1), (9, 0)), 3)
    assert d.coords is d.coords and d.coords[2] == (F(4, 3), F(1, 3))
    assert d.closest_sq == d.closest_sq == 2
    # What a drawing keeps is no field: it changes no comparison or hash.
    fresh = Drawing(PATH, d.points, d.den)
    assert fresh == d and hash(fresh) == hash(d)


def test_graph_keeps_its_edge_count():
    g = Graph(4, PATH.adj)
    assert g.m == g.m == 3 and g._m == 3
    # What a graph keeps is no field: it changes no comparison, hash, copy or repr.
    fresh = Graph(4, PATH.adj)
    assert fresh == g and hash(fresh) == hash(g)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and twin.m == 3
    assert repr(g) == repr(fresh)


def test_reprs_name_the_fields():
    assert repr(Epsilon(F(1, 2))) == "Epsilon(value=Fraction(1, 2))"
    assert repr(Graph(2, ((1,), (0,)))) == "Graph(n=2, adj=((1,), (0,)))"
    assert repr(Interval(F(1, 2), 1)) == "Interval(1/2, 1/1)"
