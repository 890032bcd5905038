"""The records that were dataclasses still work with the ``dataclasses``
functions, and a tree node's fields can still be set.

They are NamedTuples, small plain classes or, for ``PolyTreeNode``, a
``types.SimpleNamespace`` subclass now, so that importing the package does
not import ``dataclasses``; callers that copy a record with
``dataclasses.replace`` or set ``PolyTreeNode.parent`` (the benchmark's
self-test corrupts outputs both ways) must keep working.
"""
import dataclasses
import pprint

import quintic_newton as qn


def _records():
    yield qn.SymbolWord("RLRC", qn.TAIL_PERIODIC, 1)
    yield qn.generate_tree(2)[2][0]
    yield qn.build_polynomial_tree(2)[2][0]
    yield qn.critical_frame(3.0)
    for cls in (qn.EntropyResult, qn.MarkovPartition, qn.CurvePoint,
                qn.BringJerrardQuintic, qn.ReducedQuintic, qn.ConjugacyReport):
        yield cls(*range(len(cls._fields)))


def test_dataclass_functions_take_every_record():
    for record in _records():
        names = type(record)._fields
        assert dataclasses.is_dataclass(record), type(record).__name__
        assert [f.name for f in dataclasses.fields(record)] == list(names)
        assert dataclasses.asdict(record) == {n: getattr(record, n) for n in names}
        copy = dataclasses.replace(record)
        assert type(copy) is type(record) and copy is not record
        assert all(getattr(copy, n) == getattr(record, n) for n in names)
        assert pprint.pformat([record], width=20).startswith(f"[{type(record).__name__}(")


def test_replace_changes_the_named_field():
    point = dataclasses.replace(qn.CurvePoint(1.5, 0.5, 0.7, "kneading-exact", 0),
                                entropy=1.7)
    assert point == qn.CurvePoint(1.5, 0.5, 1.7, "kneading-exact", 0)
    result = dataclasses.replace(qn.EntropyResult(0.5, 0.7, "charpoly"), t_star=0.25)
    assert result == qn.EntropyResult(0.25, 0.7, "charpoly")


def test_replace_keeps_the_symbol_word_checks():
    word = qn.SymbolWord("RLRC")
    assert dataclasses.replace(word, head="RC") == qn.SymbolWord("RC")
    try:
        dataclasses.replace(word, head="RXC")
    except qn.WordError as exc:
        assert str(exc) == "unknown symbols 'X' in 'RXC'"
    else:
        raise AssertionError("an unknown symbol passed")


def test_a_tree_node_field_can_be_set():
    levels = qn.build_polynomial_tree(3)
    node = levels[3][-1]
    fresh = qn.build_polynomial_tree(3)[3][-1]
    assert node == fresh and repr(node) == repr(fresh)
    node.parent = "XC"
    assert node.parent == "XC" and node != fresh
    assert repr(node).startswith("PolyTreeNode(word=") and "parent='XC'" in repr(node)
