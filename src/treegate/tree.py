"""Rooted hypothesis trees over experimental blocks.

Every leaf is one experimental block, and the leaf's id is the block id;
every internal node represents the union of the blocks beneath it.  The null hypothesis at a
node asserts "no treatment effect in any unit under this node", so a node
is null exactly when all of its descendant leaves are null.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence


class TreeError(ValueError):
    """Malformed tree input or structurally inconsistent tree."""


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One hypothesis node.  Depth is 1 at the root.

    ``is_null`` is a simulation-only truth label: None means unlabeled.
    """

    id: str
    parent: str | None
    children: tuple[str, ...]
    depth: int
    n_units: int
    is_null: bool | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class HypothesisTree:
    """Immutable rooted tree of hypotheses.

    Build trees with ``from_parents``, ``build_regular`` or
    ``build_from_paths``, which check their input; the constructor trusts
    the nodes it is given.  Nodes are kept in insertion order (breadth-first
    for the built-in constructors) so traversals and tie-breaks are
    reproducible.  Trees are never mutated after construction; relabeling
    and pruning return new trees.  On a ``prune_below`` result, ``leaves``
    and ``leaves_under`` name the terminal nodes, which may be groups.
    """

    def __init__(self, nodes: Mapping[str, TreeNode], root: str):
        self.nodes: dict[str, TreeNode] = dict(nodes)
        self.root = root
        by_depth: dict[int, list[str]] = {}
        for nid, node in self.nodes.items():
            by_depth.setdefault(node.depth, []).append(nid)
        self._by_depth = {d: tuple(ids) for d, ids in sorted(by_depth.items())}
        self.max_depth = max(self._by_depth)
        self.leaves: tuple[str, ...] = tuple(
            nid for nid, n in self.nodes.items() if n.is_leaf
        )

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: str) -> TreeNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TreeError(f"unknown node id: {node_id!r}") from None

    def nodes_at_depth(self, depth: int) -> tuple[str, ...]:
        return self._by_depth.get(depth, ())

    def leaves_under(self, node_id: str) -> list[str]:
        """Leaf ids under a node in depth-first child order; a leaf lists itself.

        On a tree from ``from_parents`` these are the node's block ids.
        """
        out = []
        stack = [self.node(node_id).id]
        while stack:
            node = self.nodes[stack.pop()]
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node.id)
        return out

    # -- derived trees -----------------------------------------------------

    def label_truth(self, non_null_leaves: Iterable[str]) -> "HypothesisTree":
        """Return a copy with is_null set from a set of non-null block ids.

        A leaf is non-null iff its id is in ``non_null_leaves``, and a group
        is non-null iff at least one leaf under it is; parents are therefore
        the conjunction of their children.
        """
        wanted = set(non_null_leaves)
        unknown = wanted.difference(self.leaves)
        if unknown:
            raise TreeError(f"unknown block ids: {sorted(unknown)}")
        non_null: set[str] = set()
        for nid in self.leaves:
            if nid in wanted:
                non_null.add(nid)
                cur = self.nodes[nid].parent
                while cur is not None and cur not in non_null:
                    non_null.add(cur)
                    cur = self.nodes[cur].parent
        relabeled = {
            nid: replace(node, is_null=nid not in non_null)
            for nid, node in self.nodes.items()
        }
        return HypothesisTree(relabeled, self.root)

    def prune_below(self, stop_nodes: Iterable[str]) -> "HypothesisTree":
        """Drop all strict descendants of the given nodes.

        The stop nodes themselves survive, so the result may contain
        terminal group nodes.  Used after a testing round to remove the
        subtrees of non-rejected nodes.
        """
        stops = set(stop_nodes)
        dead: set[str] = set()
        stack = [c for nid in stops for c in self.node(nid).children]
        while stack:
            cur = stack.pop()
            if cur in dead:
                continue
            dead.add(cur)
            stack.extend(self.nodes[cur].children)
        kept = {}
        for nid, node in self.nodes.items():
            if nid in dead:
                continue
            if nid in stops and node.children:
                node = replace(node, children=())
            kept[nid] = node
        return HypothesisTree(kept, self.root)


def from_parents(
    ids: Sequence[str], parent: Sequence[int], n_units: Sequence[int | None]
) -> HypothesisTree:
    """Assemble a tree from parent links given as indices into ``ids``.

    ``parent[i]`` is the index of node i's parent, or -1 for the root.
    ``n_units[i]`` is required (at least 1) for leaves; for a group it may
    be None, and otherwise must equal the sum over its children.  Each leaf
    is one block whose id is the leaf's id, so ``tree.leaves_under(nid)``
    lists a node's blocks.  Nodes may come in any order, and ``tree.nodes``
    keeps it.  This is the one place where a tree's structure is checked.

    Raises TreeError for a duplicate id, a parent index out of range, zero
    or several roots, a node the root cannot reach (a cycle), a leaf
    without ``n_units >= 1``, or a given group total that is not the sum
    over its children.
    """
    return HypothesisTree(*_assemble(ids, parent, n_units))


def _assemble(
    ids: Sequence[str], parent: Sequence[int], n_units: Sequence[int | None]
) -> tuple[dict[str, TreeNode], str]:
    # Separate from from_parents so that the index lists below are freed
    # before HypothesisTree copies the node dict (about 15 MB less peak
    # memory on a 524k-node tree).
    n = len(ids)
    if n == 0:
        raise TreeError("no nodes given")
    if len(parent) != n or len(n_units) != n:
        raise TreeError("ids, parent and n_units must have equal lengths")
    if len(set(ids)) != n:
        seen: set[str] = set()
        dup = next(nid for nid in ids if nid in seen or seen.add(nid))
        raise TreeError(f"duplicate node id: {dup!r}")
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for i, p in enumerate(parent):
        if p == -1:
            roots.append(i)
        elif 0 <= p < n:
            children[p].append(i)
        else:
            raise TreeError(f"node {ids[i]!r} references unknown parent index {p}")
    if len(roots) != 1:
        raise TreeError(f"expected exactly one root, found {len(roots)}")

    order = [roots[0]]
    depth = [0] * n
    depth[order[0]] = 1
    for i in order:  # breadth-first; the list grows while it is walked
        for c in children[i]:
            depth[c] = depth[i] + 1
            order.append(c)
    if len(order) != n:
        lost = sorted(ids[i] for i in range(n) if not depth[i])
        raise TreeError(f"nodes unreachable from the root: {lost}")

    units = [0] * n
    for i in reversed(order):
        kids = children[i]
        given = n_units[i]
        if not kids:
            if given is None or given < 1:
                raise TreeError(f"leaf {ids[i]!r} needs n_units of at least 1")
            units[i] = given
        else:
            total = sum(units[c] for c in kids)
            if given is not None and given != total:
                raise TreeError(f"node {ids[i]!r} n_units {given} != children sum {total}")
            units[i] = total

    nodes = {
        ids[i]: TreeNode(
            id=ids[i],
            parent=ids[p] if p != -1 else None,
            children=tuple(ids[c] for c in children[i]),
            depth=depth[i],
            n_units=units[i],
        )
        for i, p in enumerate(parent)
    }
    return nodes, ids[order[0]]


def build_regular(k: int, L: int, units_per_leaf: int = 1) -> HypothesisTree:
    """Complete k-ary tree with L levels (root at depth 1).

    Level ``l`` holds ``k**(l-1)`` nodes; the ``k**(L-1)`` leaves each carry
    one block whose id equals the leaf's node id.  Node ids are the usual
    breadth-first numbering "1", "2", ...
    """
    if k < 2:
        raise TreeError("branching factor k must be at least 2")
    if L < 2:
        raise TreeError("tree must have at least 2 levels")
    if units_per_leaf < 1:
        raise TreeError("units_per_leaf must be at least 1")
    n_groups = (k ** (L - 1) - 1) // (k - 1)
    total = n_groups + k ** (L - 1)
    return from_parents(
        [str(i) for i in range(1, total + 1)],
        [-1, *((i - 1) // k for i in range(1, total))],
        [None] * n_groups + [units_per_leaf] * (total - n_groups),
    )


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
    levels = max(1, *(len(path) for _, path, _ in paths))
    for cut in range(1, levels + 1):
        for block_id, path, n in paths:
            if cut == max(len(path), 1):
                ids.append(block_id)
                parent.append(index[path[: cut - 1]])
                n_units.append(n)
            elif cut < len(path) and path[:cut] not in index:
                index[path[:cut]] = len(ids)
                ids.append("/".join(path[:cut]))
                parent.append(index[path[: cut - 1]])
                n_units.append(None)
    return from_parents(ids, parent, n_units)
