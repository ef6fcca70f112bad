"""Abstraction trees: ontology-like hierarchies over provenance variables.

An abstraction tree (Section 2 of the paper, Figure 2) is a rooted tree
whose leaves are provenance variables and whose inner nodes are candidate
*meta-variables*.  A cut of the tree — an antichain separating the root from
every leaf — defines an abstraction: each leaf is replaced by the unique cut
node above (or equal to) it.

Trees are built once and never mutated afterwards; the constructor validates
structural well-formedness (unique names, single root, every non-leaf has at
least one child, leaves are exactly the nodes without children).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import InvalidTreeError
from repro.provenance.variables import validate_variable_name


@dataclass(frozen=True)
class TreeNode:
    """A node of an abstraction tree.

    Attributes
    ----------
    name:
        The node's name.  For leaves this is the provenance variable name;
        for inner nodes it is the name the meta-variable will take if the
        node is chosen in a cut (e.g. ``"Business"``).
    children:
        The names of the node's children (empty for leaves).
    parent:
        The name of the parent node (``None`` for the root).
    """

    name: str
    children: Tuple[str, ...]
    parent: Optional[str]

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no children."""
        return not self.children

    @property
    def is_root(self) -> bool:
        """Whether this node has no parent."""
        return self.parent is None


class AbstractionTree:
    """An immutable abstraction tree.

    The most convenient constructor is :meth:`from_nested`, which mirrors the
    way Figure 2 of the paper is usually written down::

        plans_tree = AbstractionTree.from_nested("Plans", {
            "Standard": ["p1", "p2"],
            "Special": {"F": ["f1", "f2"], "Y": ["y1", "y2", "y3"], "v": []},
            "Business": {"SB": ["b1", "b2"], "e": []},
        })

    A child given as an empty list/dict (like ``"v"`` above) is a leaf that
    is also written as an inner-node-like name — i.e. simply a leaf.
    """

    def __init__(self, root: str, edges: Mapping[str, Sequence[str]]) -> None:
        validate_variable_name(root)
        nodes: Dict[str, TreeNode] = {}
        parent_of: Dict[str, str] = {}
        children_of: Dict[str, Tuple[str, ...]] = {}

        all_names = {root}
        for parent, children in edges.items():
            validate_variable_name(parent)
            all_names.add(parent)
            seen_children = []
            for child in children:
                validate_variable_name(child)
                if child in parent_of:
                    raise InvalidTreeError(
                        f"node {child!r} has two parents: "
                        f"{parent_of[child]!r} and {parent!r}"
                    )
                if child == root:
                    raise InvalidTreeError(f"the root {root!r} cannot have a parent")
                parent_of[child] = parent
                seen_children.append(child)
                all_names.add(child)
            if len(seen_children) != len(set(seen_children)):
                raise InvalidTreeError(
                    f"node {parent!r} lists a duplicate child: {children}"
                )
            children_of[parent] = tuple(seen_children)

        # Every non-root node must be reachable from the root.
        for name in all_names:
            if name == root:
                continue
            if name not in parent_of:
                raise InvalidTreeError(
                    f"node {name!r} is not connected to the root {root!r}"
                )

        # Detect cycles / verify reachability by walking up from every node.
        for name in all_names:
            seen = set()
            current: Optional[str] = name
            while current is not None:
                if current in seen:
                    raise InvalidTreeError(f"cycle detected at node {current!r}")
                seen.add(current)
                current = parent_of.get(current)
            if root not in seen:
                raise InvalidTreeError(
                    f"node {name!r} does not reach the root {root!r}"
                )

        for name in all_names:
            nodes[name] = TreeNode(
                name=name,
                children=children_of.get(name, ()),
                parent=parent_of.get(name),
            )

        self._root = root
        self._nodes = nodes
        preorder = tuple(self._preorder())
        self._leaves: Tuple[str, ...] = tuple(
            name for name in preorder if nodes[name].is_leaf
        )
        # Every compression request checks the inner names against the
        # provenance variables, so they are listed once here.
        self._inner: Tuple[str, ...] = tuple(
            name for name in preorder if not nodes[name].is_leaf
        )
        if not self._leaves:
            raise InvalidTreeError("an abstraction tree must have at least one leaf")
        self._leaves_under_cache: Dict[str, Tuple[str, ...]] = {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_nested(cls, root: str, structure) -> "AbstractionTree":
        """Build a tree from a nested dict/list structure rooted at ``root``.

        ``structure`` may be a mapping (child name → its own structure), an
        iterable of leaf names, or an empty container (making ``root`` a
        leaf).
        """
        edges: Dict[str, List[str]] = {}

        def visit(name: str, node_structure) -> None:
            if isinstance(node_structure, Mapping):
                children = list(node_structure.keys())
                if children:
                    edges[name] = children
                for child, sub in node_structure.items():
                    visit(child, sub)
            elif isinstance(node_structure, (list, tuple, set)):
                children = list(node_structure)
                if children:
                    edges[name] = [
                        child if isinstance(child, str) else list(child.keys())[0]
                        for child in children
                    ]
                    for child in children:
                        if isinstance(child, str):
                            continue
                        if isinstance(child, Mapping):
                            for sub_name, sub in child.items():
                                visit(sub_name, sub)
                        else:
                            raise InvalidTreeError(
                                f"unsupported child specification: {child!r}"
                            )
            elif node_structure is None:
                return
            else:
                raise InvalidTreeError(
                    f"unsupported structure for node {name!r}: {node_structure!r}"
                )

        visit(root, structure)
        return cls(root, edges)

    @classmethod
    def from_groups(
        cls, root: str, groups: Mapping[str, Sequence[str]]
    ) -> "AbstractionTree":
        """Build a two-level tree: root → group meta-variables → leaves.

        This matches the "quarter variables grouping month variables" example
        of Section 4: ``AbstractionTree.from_groups("Months", {"q1": ["m1",
        "m2", "m3"], ...})``.
        """
        edges: Dict[str, Sequence[str]] = {root: list(groups.keys())}
        for group, leaves in groups.items():
            if leaves:
                edges[group] = list(leaves)
        return cls(root, edges)

    @classmethod
    def flat(cls, root: str, leaves: Sequence[str]) -> "AbstractionTree":
        """Build a one-level tree: every leaf is a direct child of the root."""
        return cls(root, {root: list(leaves)})

    # -- navigation ------------------------------------------------------------

    @property
    def root(self) -> str:
        """The name of the root node."""
        return self._root

    def node(self, name: str) -> TreeNode:
        """The node named ``name`` (raises :class:`InvalidTreeError` if absent)."""
        try:
            return self._nodes[name]
        except KeyError:
            raise InvalidTreeError(f"no node named {name!r} in the tree") from None

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Tuple[str, ...]:
        """All node names in preorder (root first)."""
        return tuple(self._preorder())

    def leaves(self) -> Tuple[str, ...]:
        """All leaf names (the provenance variables the tree covers), in preorder."""
        return self._leaves

    def inner_nodes(self) -> Tuple[str, ...]:
        """All non-leaf node names, in preorder."""
        return self._inner

    def children(self, name: str) -> Tuple[str, ...]:
        """The children of ``name``."""
        return self.node(name).children

    def parent(self, name: str) -> Optional[str]:
        """The parent of ``name`` (``None`` for the root)."""
        return self.node(name).parent

    def is_leaf(self, name: str) -> bool:
        """Whether ``name`` is a leaf."""
        return self.node(name).is_leaf

    def leaves_under(self, name: str) -> Tuple[str, ...]:
        """All leaves in the subtree rooted at ``name`` (cached)."""
        cached = self._leaves_under_cache.get(name)
        if cached is not None:
            return cached
        node = self.node(name)
        if node.is_leaf:
            result: Tuple[str, ...] = (name,)
        else:
            collected: List[str] = []
            for child in node.children:
                collected.extend(self.leaves_under(child))
            result = tuple(collected)
        self._leaves_under_cache[name] = result
        return result

    def ancestors(self, name: str) -> Tuple[str, ...]:
        """The ancestors of ``name`` from its parent up to the root."""
        result: List[str] = []
        current = self.node(name).parent
        while current is not None:
            result.append(current)
            current = self._nodes[current].parent
        return tuple(result)

    def depth(self, name: str) -> int:
        """The depth of ``name`` (0 for the root)."""
        return len(self.ancestors(name))

    def height(self) -> int:
        """The height of the tree (max leaf depth)."""
        return max(self.depth(leaf) for leaf in self._leaves)

    def subtree_size(self, name: str) -> int:
        """The number of nodes in the subtree rooted at ``name``."""
        node = self.node(name)
        return 1 + sum(self.subtree_size(child) for child in node.children)

    def _preorder(self) -> Iterator[str]:
        stack = [self._root]
        while stack:
            name = stack.pop()
            yield name
            # reversed so children come out in declaration order
            stack.extend(reversed(self._nodes[name].children))

    # -- (de)serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation: ``{"root": ..., "edges": {...}}``.

        The inverse of :meth:`from_dict`; this is the on-disk format the CLI
        (``cobra compress --tree tree.json``) reads.
        """
        edges = {
            name: list(self._nodes[name].children)
            for name in self._preorder()
            if self._nodes[name].children
        }
        return {"root": self._root, "edges": edges}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AbstractionTree":
        """Rebuild a tree from the dictionary produced by :meth:`to_dict`."""
        if "root" not in data:
            raise InvalidTreeError("tree dictionary must contain a 'root' key")
        edges = data.get("edges", {})
        if not isinstance(edges, Mapping):
            raise InvalidTreeError("'edges' must be a mapping of node -> children")
        return cls(str(data["root"]), {str(k): list(v) for k, v in edges.items()})

    # -- rendering -----------------------------------------------------------

    def to_ascii(self) -> str:
        """An ASCII rendering of the tree (used by the CLI's "under the hood" view)."""
        lines: List[str] = []

        def visit(name: str, prefix: str, is_last: bool) -> None:
            connector = "" if not prefix and is_last else ("└── " if is_last else "├── ")
            if name == self._root:
                lines.append(name)
            else:
                lines.append(prefix + connector + name)
            children = self._nodes[name].children
            for i, child in enumerate(children):
                extension = "" if name == self._root else ("    " if is_last else "│   ")
                visit(child, prefix + extension, i == len(children) - 1)

        visit(self._root, "", True)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"AbstractionTree(root={self._root!r}, nodes={len(self._nodes)}, "
            f"leaves={len(self._leaves)})"
        )


class AbstractionForest:
    """A collection of disjoint abstraction trees over disjoint variable sets.

    The demo considers a single tree, but the underlying framework (and the
    Section 4 discussion of month/quarter variables *in addition to* the plan
    tree) naturally involves several trees; :mod:`repro.core.multi_tree`
    optimises over forests.
    """

    def __init__(self, trees: Iterable[AbstractionTree]) -> None:
        self._trees: List[AbstractionTree] = list(trees)
        if not self._trees:
            raise InvalidTreeError("a forest must contain at least one tree")
        seen_nodes: Dict[str, int] = {}
        for index, tree in enumerate(self._trees):
            for name in tree.nodes():
                if name in seen_nodes:
                    raise InvalidTreeError(
                        f"node name {name!r} appears in two trees of the forest"
                    )
                seen_nodes[name] = index
        self._owner = seen_nodes

    def trees(self) -> Tuple[AbstractionTree, ...]:
        """The member trees, in construction order."""
        return tuple(self._trees)

    def __len__(self) -> int:
        return len(self._trees)

    def __iter__(self) -> Iterator[AbstractionTree]:
        return iter(self._trees)

    def tree_of(self, name: str) -> Optional[AbstractionTree]:
        """The tree containing node ``name`` (``None`` if no tree has it)."""
        index = self._owner.get(name)
        if index is None:
            return None
        return self._trees[index]

    def leaves(self) -> Tuple[str, ...]:
        """All leaves of all trees."""
        result: List[str] = []
        for tree in self._trees:
            result.extend(tree.leaves())
        return tuple(result)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation (a list of tree dictionaries)."""
        return {"trees": [tree.to_dict() for tree in self._trees]}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AbstractionForest":
        """Rebuild a forest from the dictionary produced by :meth:`to_dict`."""
        trees = data.get("trees")
        if not isinstance(trees, (list, tuple)):
            raise InvalidTreeError("forest dictionary must contain a 'trees' list")
        return cls([AbstractionTree.from_dict(tree) for tree in trees])

    def __repr__(self) -> str:
        return f"AbstractionForest(trees={len(self._trees)})"


def as_forest(trees: "AbstractionTree | AbstractionForest") -> AbstractionForest:
    """Coerce a single tree to a one-tree forest (forests pass through)."""
    if isinstance(trees, AbstractionForest):
        return trees
    return AbstractionForest([trees])
