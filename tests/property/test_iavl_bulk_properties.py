"""Property tests for the IAVL batch path (``IAVLTree.set_many``).

The reference is the plain one-``set``-per-key loop, kept here only:

* into an empty tree, ``set_many`` (the O(n) sorted builder) equals
  sequential sorted insertion in root, height, content and every proof;
* into a non-empty tree, mixing new keys and overwrites, it equals
  sequential ``set`` in the same order;
* after any insert/delete/batch history, every node's cached
  ``min_key`` and every inner node's routing ``key`` equal the values a
  walk down the tree finds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.merkle.iavl import IAVLTree
from repro.merkle.trie import MerklePatriciaTrie

keys = st.binary(min_size=1, max_size=6)
values = st.binary(min_size=1, max_size=8)


def sequential(tree, items):
    """The reference: one ``set`` per item, in order."""
    for key, value in items:
        tree.set(key, value)
    return tree


def sorted_items(n, rnd):
    """``n`` distinct random keys in ascending order, random values."""
    picked = sorted(rnd.sample(range(1 << 24), n))
    return [(k.to_bytes(3, "big"), rnd.randbytes(rnd.randrange(1, 9))) for k in picked]


def assert_same_tree(bulk, reference):
    assert bulk.root_hash == reference.root_hash
    assert bulk.height() == reference.height()
    assert list(bulk.items()) == list(reference.items())
    for key, _value in reference.items():
        assert bulk.prove(key) == reference.prove(key)


def walked_min(node):
    while node.value is None:
        node = node.left
    return node.key


def assert_cached_keys(tree):
    stack = [tree._root] if tree._root is not None else []
    while stack:
        node = stack.pop()
        assert node.min_key == walked_min(node)
        if node.value is None:
            assert node.key == walked_min(node.right)
            stack.extend((node.left, node.right))


SIZES = sorted({0, 1, 2, 3} | {2**k + d for k in range(2, 12) for d in (-1, 0, 1)})


@pytest.mark.parametrize("n", SIZES)
def test_bulk_build_equals_sorted_insertion(n):
    items = sorted_items(n, random.Random(n))
    bulk = IAVLTree()
    bulk.set_many(items)
    assert_same_tree(bulk, sequential(IAVLTree(), items))
    assert_cached_keys(bulk)


@given(st.integers(min_value=0, max_value=2000), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_bulk_build_equals_sorted_insertion_any_size(n, rnd):
    items = sorted_items(n, rnd)
    bulk = IAVLTree()
    bulk.set_many(items)
    assert_same_tree(bulk, sequential(IAVLTree(), items))


@given(
    st.lists(st.tuples(keys, st.one_of(st.none(), values)), max_size=60),
    st.dictionaries(keys, values, max_size=60),
)
@settings(max_examples=80, deadline=None)
def test_batch_into_nonempty_tree_equals_sequential(history, batch):
    """New keys and overwrites mixed, after an arbitrary history."""
    bulk, reference = IAVLTree(), IAVLTree()
    for key, value in history:
        for tree in (bulk, reference):
            if value is None:
                tree.delete(key)
            else:
                tree.set(key, value)
    items = sorted(batch.items())
    bulk.set_many(items)
    assert_same_tree(bulk, sequential(reference, items))
    assert_cached_keys(bulk)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("set"), keys, values),
            st.tuples(st.just("delete"), keys, st.none()),
            st.tuples(st.just("batch"), st.dictionaries(keys, values, max_size=20), st.none()),
        ),
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_cached_min_keys_survive_any_history(operations):
    tree = IAVLTree()
    for op, arg, value in operations:
        if op == "set":
            tree.set(arg, value)
        elif op == "delete":
            tree.delete(arg)
        else:
            tree.set_many(sorted(arg.items()))
        assert_cached_keys(tree)


def test_batch_rejects_unsorted_or_duplicate_keys():
    tree = IAVLTree()
    with pytest.raises(ValueError):
        tree.set_many([(b"b", b"1"), (b"a", b"2")])
    with pytest.raises(ValueError):
        tree.set_many([(b"a", b"1"), (b"a", b"2")])
    assert tree.root_hash == IAVLTree().root_hash


@given(st.dictionaries(keys, values, max_size=40), st.dictionaries(keys, values, max_size=40))
@settings(max_examples=40, deadline=None)
def test_trie_batch_equals_sequential(first, second):
    bulk, reference = MerklePatriciaTrie(), MerklePatriciaTrie()
    for batch in (first, second):
        bulk.set_many(sorted(batch.items()))
        sequential(reference, sorted(batch.items()))
    assert bulk.root_hash == reference.root_hash
