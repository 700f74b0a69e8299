"""Rooted hypothesis trees over experimental blocks.

Every leaf is one experimental block, and the leaf's id is the block id;
every internal node represents the union of the blocks beneath it.  The null hypothesis at a
node asserts "no treatment effect in any unit under this node", so a node
is null exactly when all of its descendant leaves are null.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

INT64_MAX = int(np.iinfo(np.int64).max)


class TreeError(ValueError):
    """Malformed tree input or structurally inconsistent tree."""


class HypothesisTree:
    """Immutable rooted tree of hypotheses, held as arrays over node indices.

    A node's index is its position in the order given to ``from_parents``
    (breadth-first for ``build_regular`` and ``build_from_paths``), so
    traversals and tie-breaks are reproducible.  ``ids`` lists the node ids
    in that order.  A numbered tree (every ``build_regular`` tree) stores no
    ids: its ids are "1".."n" in index order, derived on the first read of
    ``ids`` or lookup by id and then kept, so ``len(tree)`` and a walk,
    which never name a node, never make them.  It stores ``n_units``, the
    bool ``is_null`` of a ``label_truth`` result (None when unlabeled), and
    the children of node ``i``:
    ``children[child_offsets[i]:child_offsets[i + 1]]``, in index order.
    ``parent``, ``levels`` and ``depth`` are derived from them on first
    read and kept, as ``ids`` is.  Every array is read-only.

    Build trees with ``from_parents``, ``build_regular`` or
    ``build_from_paths``, which check their input; the constructor trusts
    the arrays it is given.  Relabeling and pruning return new trees.  On a
    ``prune_below`` result, ``leaves`` and ``leaves_under`` name the
    terminal nodes, which may be groups.  ``reachable`` gives the nodes
    that survive such a pruning as a mask, without building a new tree.
    """

    def __init__(
        self,
        ids: list[str] | None,
        n_units: np.ndarray,
        child_offsets: np.ndarray,
        children: np.ndarray,
        is_null: np.ndarray | None = None,
    ):
        self._ids = ids  # None on a numbered tree
        self.n_units = _frozen(n_units)  # shared with derived trees
        self.child_offsets = _frozen(child_offsets)
        self.children = _frozen(children)
        self.is_null = None if is_null is None else _frozen(is_null)
        # every node but the root is listed once as a child
        n = len(n_units)
        self.root_index = n * (n - 1) // 2 - int(children.sum())

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.n_units)

    @cached_property
    def ids(self) -> list[str]:
        """Node ids in index order; derived on a numbered tree."""
        return list(map(str, range(1, len(self) + 1))) if self._ids is None else self._ids

    @property
    def root(self) -> str:
        return self.ids[self.root_index]

    @cached_property
    def max_depth(self) -> int:
        return len(self.levels)

    @cached_property
    def is_leaf(self) -> np.ndarray:
        return _frozen(self.child_offsets[1:] == self.child_offsets[:-1])

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple(compress(self.ids, self.is_leaf.tolist()))

    @cached_property
    def parent(self) -> np.ndarray:
        """Index of each node's parent, -1 at the root."""
        parent = np.full(len(self), -1)
        parent[self.children] = np.repeat(np.arange(len(self)), np.diff(self.child_offsets))
        return _frozen(parent)

    @cached_property
    def levels(self) -> list[np.ndarray]:
        """Node indices per depth, root first, each level in index order."""
        levels = _breadth_first(self.child_offsets, self.children, self.root_index)
        return [_frozen(np.sort(level)) for level in levels]

    @cached_property
    def depth(self) -> np.ndarray:
        """Each node's depth, 1 at the root."""
        depth = np.empty(len(self), dtype=np.int64)
        for d, level in enumerate(self.levels, start=1):
            depth[level] = d
        return _frozen(depth)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.ids)}

    def index_of(self, node_id: str) -> int:
        i = self._index.get(node_id)
        if i is None:
            raise TreeError(f"unknown node id: {node_id!r}")
        return i

    def leaves_under(self, node_id: str) -> list[str]:
        """Leaf ids under a node in depth-first child order; a leaf lists itself.

        On a tree from ``from_parents`` these are the node's block ids.
        """
        out = []
        stack = [self.index_of(node_id)]
        while stack:
            i = stack.pop()
            lo, hi = self.child_offsets[i : i + 2]
            if lo == hi:
                out.append(self.ids[i])
            else:
                stack.extend(self.children[lo:hi][::-1].tolist())
        return out

    def subtree_sum(self, values) -> np.ndarray:
        """Per node, the int64 sum of ``values`` over the node and its descendants."""
        return _subtree_sum(values, self.parent, self.levels)

    def reachable(self, cut) -> np.ndarray:
        """Per node, whether no strict ancestor is marked in the bool mask
        ``cut``, in one top-down pass over ``levels``.  ``cut`` is one mask
        over the node indices or a (rows, nodes) stack of them, and the
        result has its shape."""
        cut = np.asarray(cut, dtype=bool)
        alive = np.ones(cut.shape, dtype=bool)
        for level in self.levels[1:]:
            up = self.parent[level]
            alive[..., level] = alive[..., up] & ~cut[..., up]
        return alive

    # -- derived trees -----------------------------------------------------

    def label_truth(self, non_null_leaves: Iterable[str]) -> "HypothesisTree":
        """Return a copy with is_null set from a set of non-null block ids.

        A leaf is non-null iff its id is in ``non_null_leaves``, and a group
        is non-null iff at least one leaf under it is; parents are therefore
        the conjunction of their children.  The copy sums over its own
        ``parent`` and ``levels``, so they are derived once, on the copy.
        """
        wanted = {nid: self._index.get(nid) for nid in set(non_null_leaves)}
        unknown = [nid for nid, i in wanted.items() if i is None or not self.is_leaf[i]]
        if unknown:
            raise TreeError(f"unknown block ids: {sorted(unknown)}")
        marked = np.zeros(len(self), dtype=np.int64)
        marked[list(wanted.values())] = 1
        labeled = HypothesisTree(self._ids, self.n_units, self.child_offsets, self.children)
        labeled.is_null = _frozen(labeled.subtree_sum(marked) == 0)
        return labeled

    def prune_below(self, stop_nodes: Iterable[str]) -> "HypothesisTree":
        """Drop all strict descendants of the given nodes.

        The stop nodes themselves survive, so the result may contain
        terminal group nodes.
        """
        stop = np.zeros(len(self), dtype=bool)
        stop[[self.index_of(nid) for nid in stop_nodes]] = True
        keep = self.reachable(stop)
        parent = self.parent[keep]
        root = parent < 0
        parent = (np.cumsum(keep) - 1)[parent]  # new positions
        parent[root] = -1
        return HypothesisTree(
            list(compress(self.ids, keep.tolist())),
            self.n_units[keep],
            *_child_csr(parent),
            is_null=None if self.is_null is None else self.is_null[keep],
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def child_lists(offsets: np.ndarray, children: np.ndarray, nodes: np.ndarray):
    """The children of ``nodes``, node by node, and each node's child count."""
    lo = offsets[nodes]
    count = offsets[nodes + 1] - lo
    # positions of each node's child slice, concatenated
    return children[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())], count


def _breadth_first(offsets, children, root: int) -> list[np.ndarray]:
    """Node indices per depth from ``root`` down, each level in its parents' order."""
    levels = []
    level = np.array([root])
    while level.size:
        levels.append(level)
        level, _ = child_lists(offsets, children, level)
    return levels


def _child_csr(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Child offsets and child indices, stable by index, from parent links
    with exactly one root (-1) and every other entry in range."""
    # entry j + 1 counts the children of node j; entry 0 counts the root
    offsets = np.cumsum(np.bincount(parent + 1, minlength=len(parent) + 1)) - 1
    return offsets, np.argsort(parent, kind="stable")[1:]  # the root sorts first


def _subtree_sum(values, parent: np.ndarray, levels: Sequence[np.ndarray]) -> np.ndarray:
    total = np.array(values, dtype=np.int64)
    for level in reversed(levels[1:]):
        np.add.at(total, parent[level], total[level])
    return total


def _int64_units(ids: list[str], n_units) -> tuple[np.ndarray, np.ndarray]:
    """Which ``n_units`` are given (not None), and all of them as int64 with
    None read as 0.  Any other value must be an integer within the int64
    range; an array takes the same path as a list."""
    raw = [0 if u is None else u for u in n_units]
    units = np.array(raw)
    if units.dtype.kind != "i":
        for i, u in enumerate(raw):
            if not _is_int64(u):
                raise TreeError(
                    f"node {ids[i]!r} n_units {u!r} is not an integer in the int64 range"
                )
    given = np.fromiter((u is not None for u in n_units), dtype=bool, count=len(raw))
    return given, units.astype(np.int64, copy=False)


def _is_int64(u) -> bool:
    """Whether ``u`` is an integer, and no bool, within the int64 range."""
    return (
        not isinstance(u, bool)
        and isinstance(u, (int, np.integer))
        and -INT64_MAX - 1 <= u <= INT64_MAX
    )


def from_parents(
    ids: Sequence[str], parent: Sequence[int], n_units: Sequence[int | None]
) -> HypothesisTree:
    """Assemble a tree from parent links given as indices into ``ids``.

    ``parent[i]`` is the index of node i's parent, or -1 for the root.
    ``n_units[i]`` is required (at least 1) for leaves; for a group it may
    be None, and otherwise must equal the sum over its children.  Each
    leaf is one block whose id is the leaf's id, so
    ``tree.leaves_under(nid)`` lists a node's blocks.  Nodes may come in
    any order, and node ``i`` of the tree is ``ids[i]``.  This is the one
    checker of structure given as input: ``build_from_paths`` passes its
    rows here, while ``build_regular`` builds its arrays by formula from a
    checked shape.

    Raises TreeError for a duplicate id, a parent index out of range, zero
    or several roots, a node the root cannot reach (a cycle), a leaf
    without ``n_units >= 1``, an ``n_units`` that is not an integer in the
    int64 range, a unit total beyond that range, or a given group total
    that is not the sum over its children.
    """
    ids = list(ids)
    n = len(ids)
    if n == 0:
        raise TreeError("no nodes given")
    if len(parent) != n or len(n_units) != n:
        raise TreeError("ids, parent and n_units must have equal lengths")
    if len(set(ids)) != n:
        seen: set[str] = set()
        dup = next(nid for nid in ids if nid in seen or seen.add(nid))
        raise TreeError(f"duplicate node id: {dup!r}")
    parent = np.array(parent, dtype=np.int64)
    bad = np.flatnonzero((parent < -1) | (parent >= n))
    if bad.size:
        i = int(bad[0])
        raise TreeError(f"node {ids[i]!r} references unknown parent index {int(parent[i])}")
    roots = np.flatnonzero(parent == -1)
    if len(roots) != 1:
        raise TreeError(f"expected exactly one root, found {len(roots)}")

    # A node on a cycle is never reached from the root.
    offsets, children = _child_csr(parent)
    levels = _breadth_first(offsets, children, int(roots[0]))
    if sum(map(len, levels)) != n:
        lost = sorted(ids[i] for i in np.setdiff1d(np.arange(n), np.concatenate(levels)).tolist())
        raise TreeError(f"nodes unreachable from the root: {lost}")

    given, units = _int64_units(ids, n_units)
    is_leaf = offsets[1:] == offsets[:-1]
    bad = np.flatnonzero(is_leaf & (~given | (units < 1)))
    if bad.size:
        raise TreeError(f"leaf {ids[bad[0]]!r} needs n_units of at least 1")
    total = sum(units[is_leaf].tolist())
    if total > INT64_MAX:
        raise TreeError(
            f"n_units total {total} under {ids[roots[0]]!r} is beyond the int64 range"
        )
    totals = _subtree_sum(np.where(is_leaf, units, 0), parent, levels)
    bad = np.flatnonzero(given & ~is_leaf & (units != totals))
    if bad.size:
        i = int(bad[0])
        raise TreeError(f"node {ids[i]!r} n_units {units[i]} != children sum {totals[i]}")
    return HypothesisTree(ids, totals, offsets, children)


# numpy sizes an array in bytes within the index range, so a tree with more
# nodes than this cannot have even its int64 child offsets
_MAX_NODES = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize


def _too_many_nodes(k: int, L: int) -> TreeError:
    nodes = (k**L - 1) // (k - 1)
    return TreeError(
        f"a regular tree with k={k} and L={L} has {nodes} nodes, too many to hold in memory"
    )


def check_regular_shape(k: int, L: int, units_per_leaf: int = 1) -> None:
    """Raise TreeError unless ``build_regular(k, L, units_per_leaf)`` has a
    valid shape, no more nodes than numpy can size an array of, and unit
    counts as ``from_parents`` would accept them: an int64 count at each
    leaf and a total within that range.  The tree is not built."""
    if k < 2:
        raise TreeError("branching factor k must be at least 2")
    if L < 2:
        raise TreeError("tree must have at least 2 levels")
    if units_per_leaf < 1:
        raise TreeError("units_per_leaf must be at least 1")
    if not _is_int64(units_per_leaf):
        first_leaf = (k ** (L - 1) - 1) // (k - 1) + 1  # numbered after the internal nodes
        raise TreeError(
            f"node '{first_leaf}' n_units {units_per_leaf!r} is not an integer in the int64 range"
        )
    if (k**L - 1) // (k - 1) > _MAX_NODES:
        raise _too_many_nodes(k, L)
    total = int(units_per_leaf) * k ** (L - 1)
    if total > INT64_MAX:
        raise TreeError(f"n_units total {total} under '1' is beyond the int64 range")


def build_regular(k: int, L: int, units_per_leaf: int = 1) -> HypothesisTree:
    """Complete k-ary tree with L levels (root at depth 1).

    Level ``l`` holds ``k**(l-1)`` nodes; the ``k**(L-1)`` leaves each carry
    one block whose id equals the leaf's node id.  The tree is numbered:
    node ids are the breadth-first numbering "1", "2", ...

    The shape and unit counts are checked by ``check_regular_shape``, and a
    tree too large to allocate is the same one-line TreeError that names
    its node count.
    """
    check_regular_shape(k, L, units_per_leaf)
    try:
        return HypothesisTree(None, *_regular_arrays(k, L, int(units_per_leaf)))
    except (MemoryError, OverflowError):  # OverflowError beyond numpy's index range
        raise _too_many_nodes(k, L) from None


def _regular_arrays(k: int, L: int, units_per_leaf: int):
    """``n_units``, ``child_offsets`` and ``children`` of ``build_regular``,
    by formula: node ``i > 0`` is a child of ``(i - 1) // k``, so node
    ``i``'s children start at ``min(k * i, n - 1)`` in ``children = 1..n-1``."""
    sizes = [k**level for level in range(L)]  # nodes per level, root first
    n = sum(sizes)
    child_offsets = np.arange(n + 1)
    child_offsets *= k
    np.minimum(child_offsets, n - 1, out=child_offsets)
    # units_per_leaf times the leaves under a node: sizes reversed, level by level
    n_units = np.repeat(units_per_leaf * np.array(sizes[::-1], dtype=np.int64), sizes)
    return n_units, child_offsets, np.arange(1, n)


def build_from_paths(
    rows: Sequence[tuple[str, Sequence[str], int]],
) -> HypothesisTree:
    """Irregular tree from (block_id, path, n_units) rows.

    A path lists the labels from just below the root down to the block's own
    slot (e.g. ``("CollegeA", "Cohort1", "B07")``); every strict prefix
    becomes an internal group node, with id ``"/".join(prefix)``, and the
    block becomes a leaf, whose node id is the block id.  An empty path
    attaches the block directly to the root.  A block whose full path is a
    strict prefix of another block's path would have to act as both a block
    and a group, which is rejected.  Nodes are listed level by level, each
    level in the order the rows first reach it.
    """
    if not rows:
        raise TreeError("no blocks given")
    paths = [(block_id, tuple(path), n) for block_id, path, n in rows]
    group_prefixes = {path[:cut] for _, path, _ in paths for cut in range(1, len(path))}
    bad = sorted(
        block_id for block_id, path, _ in paths if path and path in group_prefixes
    )
    if bad:
        raise TreeError(f"block(s) whose path is also a group: {bad}")

    ids: list[str] = ["root"]
    parent = [-1]
    n_units: list[int | None] = [None]
    index = {(): 0}  # group prefix -> position in ids
    named = {"root": "the root"}  # node id -> what it names

    def add(nid: str, what: str, up: tuple[str, ...], n: int | None) -> None:
        if nid in named:
            raise TreeError(f"duplicate node id: {nid!r} is both {named[nid]} and {what}")
        named[nid] = what
        ids.append(nid)
        parent.append(index[up])
        n_units.append(n)

    levels = max(1, *(len(path) for _, path, _ in paths))
    for cut in range(1, levels + 1):
        for block_id, path, n in paths:
            if cut == max(len(path), 1):
                add(block_id, f"block {block_id!r}", path[: cut - 1], n)
            elif cut < len(path) and path[:cut] not in index:
                index[path[:cut]] = len(ids)
                add("/".join(path[:cut]), f"group {path[:cut]!r}", path[: cut - 1], None)
    return from_parents(ids, parent, n_units)
