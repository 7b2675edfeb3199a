"""Tendermint-style IAVL tree: a balanced, keyed, authenticated map.

The Burrow-flavoured chains commit their application state with this
structure, mirroring Tendermint's modified AVL tree (paper Section II,
reference [16]).  Only leaves carry values; inner nodes route lookups
(an inner node's key is the smallest key of its right subtree) and are
rebalanced with standard AVL rotations, keeping depth — and therefore
proof length — logarithmic.

Nodes are immutable; updates share unchanged subtrees, so recomputing
the root after a block touches only the modified paths.  Every node
caches the smallest key below it, so building an inner node is O(1)
and a commit hashes each node it creates exactly once.

Batches go through :meth:`IAVLTree.set_many`, which means exactly
"``set`` each item in order":

* into an empty tree, :func:`_build_sorted` lays out the AVL shape that
  ascending sequential insertion produces in O(n) — n leaf and n − 1
  inner hashes — which is the canonical storage-root build;
* into a non-empty tree, overwrites of existing keys are folded in one
  recursive pass with shared path copying (an overwrite never rotates,
  so shape depends only on the order of inserts) and new keys are then
  inserted in order.

Digests::

    leaf  = keccak(b"\\x00" + key + value)
    inner = keccak(b"\\x01" + left_digest + right_digest)
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.crypto.hashing import keccak
from repro.merkle.proof import MembershipProof, ProofStep

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

EMPTY_ROOT = keccak(b"empty-iavl")


class _Node:
    """An immutable tree node; ``value`` is None for inner nodes."""

    __slots__ = ("key", "value", "left", "right", "height", "digest", "min_key")

    def __init__(
        self,
        key: bytes,
        value: Optional[bytes],
        left: Optional["_Node"],
        right: Optional["_Node"],
        height: int,
        digest: bytes,
        min_key: bytes,
    ) -> None:
        self.key = key
        self.value = value
        self.left = left
        self.right = right
        self.height = height
        self.digest = digest
        #: smallest key in this subtree (cached: keeps ``_inner`` O(1))
        self.min_key = min_key

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def _leaf(key: bytes, value: bytes) -> _Node:
    return _Node(key, value, None, None, 0, keccak(_LEAF_PREFIX, key, value), key)


def _inner(left: _Node, right: _Node) -> _Node:
    digest = keccak(_NODE_PREFIX, left.digest, right.digest)
    height = 1 + max(left.height, right.height)
    return _Node(right.min_key, None, left, right, height, digest, left.min_key)


def _balance_factor(node: _Node) -> int:
    assert node.left is not None and node.right is not None
    return node.left.height - node.right.height


def _rotate_right(node: _Node) -> _Node:
    left = node.left
    assert left is not None and left.left is not None and left.right is not None
    return _inner(left.left, _inner(left.right, node.right))  # type: ignore[arg-type]


def _rotate_left(node: _Node) -> _Node:
    right = node.right
    assert right is not None and right.left is not None and right.right is not None
    return _inner(_inner(node.left, right.left), right.right)  # type: ignore[arg-type]


def _rebalance(node: _Node) -> _Node:
    if node.is_leaf:
        return node
    factor = _balance_factor(node)
    if factor > 1:
        left = node.left
        assert left is not None
        if not left.is_leaf and _balance_factor(left) < 0:
            node = _inner(_rotate_left(left), node.right)  # type: ignore[arg-type]
        return _rotate_right(node)
    if factor < -1:
        right = node.right
        assert right is not None
        if not right.is_leaf and _balance_factor(right) > 0:
            node = _inner(node.left, _rotate_right(right))  # type: ignore[arg-type]
        return _rotate_left(node)
    return node


def _insert(node: Optional[_Node], key: bytes, value: bytes) -> _Node:
    if node is None:
        return _leaf(key, value)
    if node.is_leaf:
        if node.key == key:
            return _leaf(key, value)  # overwrite
        new = _leaf(key, value)
        if key < node.key:
            return _inner(new, node)
        return _inner(node, new)
    if key < node.key:
        return _rebalance(_inner(_insert(node.left, key, value), node.right))  # type: ignore[arg-type]
    return _rebalance(_inner(node.left, _insert(node.right, key, value)))  # type: ignore[arg-type]


def _delete(node: Optional[_Node], key: bytes) -> Tuple[Optional[_Node], bool]:
    """Return (new subtree, removed?)."""
    if node is None:
        return None, False
    if node.is_leaf:
        if node.key == key:
            return None, True
        return node, False
    if key < node.key:
        new_left, removed = _delete(node.left, key)
        if not removed:
            return node, False
        if new_left is None:
            return node.right, True
        return _rebalance(_inner(new_left, node.right)), True  # type: ignore[arg-type]
    new_right, removed = _delete(node.right, key)
    if not removed:
        return node, False
    if new_right is None:
        return node.left, True
    return _rebalance(_inner(node.left, new_right)), True  # type: ignore[arg-type]


class _Shape:
    """A mutable node of the builder's shape simulation (no keys, no
    hashes).  All leaves are the one :data:`_LEAF_SHAPE`: in-order
    position alone says which item a leaf holds."""

    __slots__ = ("left", "right", "height")

    def __init__(self, left: "_Shape", right: "_Shape", height: int) -> None:
        self.left = left
        self.right = right
        self.height = height


_LEAF_SHAPE = _Shape(None, None, 0)  # type: ignore[arg-type]


def _shape_sorted(n: int) -> _Shape:
    """The shape that ascending insertion of ``n ≥ 1`` keys produces.

    An ascending insert only ever walks the right spine, so each one is
    replayed on that spine with the rule of :func:`_rebalance`, bottom
    up, stopping at the first level whose height is unchanged: above it
    every node sees the same child heights as before and nothing moves.
    AVL insertion touches amortised O(1) levels, so the whole shape
    costs O(n) and no hashing.
    """
    leaf = _LEAF_SHAPE
    spine = [leaf]  # root .. rightmost leaf
    for _ in range(1, n):
        k = len(spine) - 1
        node = _Shape(leaf, leaf, 1)
        spine[k] = node
        spine.append(leaf)
        if k:
            spine[k - 1].right = node
        j = k - 1
        while j >= 0:
            parent = spine[j]
            old = parent.height
            right = parent.right
            lh = parent.left.height
            rh = right.height
            if rh - lh < 2:
                height = 1 + max(lh, rh)
                if height == old:
                    break
                parent.height = height
                j -= 1
                continue
            # The insert landed in the right child's right subtree: the
            # right-right case, one left rotation (``_rebalance`` rotates
            # twice only for right-left).
            parent.right = right.left
            parent.height = 1 + max(lh, parent.right.height)
            right.left = parent
            right.height = 1 + max(parent.height, right.right.height)
            del spine[j]
            if j:
                spine[j - 1].right = right
            if right.height == old:
                break
            j -= 1
    return spine[0]


def _build_sorted(items: Sequence[Tuple[bytes, bytes]]) -> Optional[_Node]:
    """The tree ascending sequential insertion of ``items`` builds.

    ``items`` must be in strictly ascending key order.  The shape comes
    from :func:`_shape_sorted`; each leaf and inner node is then hashed
    once, bottom up and left to right: 2n − 1 hashes in all.
    """
    if not items:
        return None
    pending = iter(items)

    def build(shape: _Shape) -> _Node:
        if shape is _LEAF_SHAPE:
            key, value = next(pending)
            return _leaf(key, value)
        return _inner(build(shape.left), build(shape.right))

    return build(_shape_sorted(len(items)))


def _fold(
    node: _Node, keys: List[bytes], values: List[bytes], lo: int, hi: int, misses: List[int]
) -> _Node:
    """Write ``keys[lo:hi]`` (strictly ascending, all routed into
    ``node``) over the leaves that hold them; the indices of keys the
    subtree lacks go to ``misses``, in order.  Untouched subtrees are
    shared and every changed node is hashed once.
    """
    if node.value is not None:
        for i in range(lo, hi):
            if keys[i] != node.key:
                misses.append(i)
            elif values[i] != node.value:
                node = _leaf(node.key, values[i])
        return node
    mid = bisect_left(keys, node.key, lo, hi)
    left = _fold(node.left, keys, values, lo, mid, misses) if mid > lo else node.left  # type: ignore[arg-type]
    right = _fold(node.right, keys, values, mid, hi, misses) if hi > mid else node.right  # type: ignore[arg-type]
    if left is node.left and right is node.right:
        return node
    return _inner(left, right)  # type: ignore[arg-type]


class IAVLTree:
    """Mutable facade over the persistent node structure."""

    #: AVL rotation order leaks into the shape: the root is a function
    #: of the full operation history, not just the final content (all
    #: replicas applying the same ordered writes still agree).
    history_independent = False

    def __init__(self) -> None:
        self._root: Optional[_Node] = None

    def snapshot(self) -> "IAVLTree":
        """O(1) frozen copy sharing the immutable node structure.

        The copy never changes as this tree evolves; writing to the
        copy forks it (persistent-structure semantics).
        """
        clone = IAVLTree()
        clone._root = self._root
        return clone

    @property
    def root_hash(self) -> bytes:
        """Merkle root committing the full key/value map."""
        if self._root is None:
            return EMPTY_ROOT
        return self._root.digest

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        self._root = _insert(self._root, key, value)

    def set_many(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        """``set`` each of ``items`` in order; keys strictly ascending.

        An empty tree is built directly in its sorted-insertion shape.
        Otherwise the overwrites are folded in one pass and the new
        keys inserted in order afterwards — the same tree, since an
        overwrite never rotates.
        """
        keys = [key for key, _ in items]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("set_many needs strictly ascending keys")
        if self._root is None:
            self._root = _build_sorted(items)
            return
        if not keys:
            return
        values = [value for _, value in items]
        misses: List[int] = []
        root = _fold(self._root, keys, values, 0, len(keys), misses)
        for i in misses:
            root = _insert(root, keys[i], values[i])
        self._root = root

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None``."""
        node = self._root
        while node is not None:
            if node.is_leaf:
                return node.value if node.key == key else None
            node = node.left if key < node.key else node.right
        return None

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""
        self._root, removed = _delete(self._root, key)
        return removed

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) pairs in key order."""
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            if node.is_leaf:
                assert node.value is not None
                yield node.key, node.value
            node = node.right

    def prove(self, key: bytes) -> MembershipProof:
        """Build a ``{v} ↦ m`` membership proof for ``key``.

        Raises :class:`KeyError` if the key is absent (non-membership
        proofs are not needed by the Move protocol).
        """
        path: List[Tuple[_Node, bool]] = []  # (inner node, went_left)
        node = self._root
        while node is not None and not node.is_leaf:
            went_left = key < node.key
            path.append((node, went_left))
            node = node.left if went_left else node.right
        if node is None or node.key != key:
            raise KeyError(key.hex())
        assert node.value is not None
        steps: List[ProofStep] = []
        for inner, went_left in reversed(path):
            assert inner.left is not None and inner.right is not None
            if went_left:
                steps.append(ProofStep(prefix=_NODE_PREFIX, suffix=inner.right.digest))
            else:
                steps.append(ProofStep(prefix=_NODE_PREFIX + inner.left.digest, suffix=b""))
        return MembershipProof(
            key=key, value=node.value, leaf_prefix=_LEAF_PREFIX, steps=steps
        )

    def height(self) -> int:
        """Tree height (0 for empty or single leaf)."""
        return self._root.height if self._root is not None else 0
