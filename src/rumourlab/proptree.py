"""Propagation trees over reply threads: their structure, text
serialization and graph-batch form. Node features come from the caller.

A tree stores the source tweet at index 1 and replies at 2..n in
creation order; with the default depth-one construction every reply's
parent is node 1. Trees serialize to a tab-separated text block (header
``thread_id<TAB>label``, then ``parent<TAB>index<TAB>i:v i:v ...`` per
node) and concatenate into a corpus file introduced by a version line.

Graph batches carry one normalized adjacency operator, shared by the
top-down and bottom-up directions of the Bi-GCN. The raw edges are
directed (parent->child), while normalization treats each surviving edge
as a symmetric link with self-loops: A_hat = D^{-1/2} (A + A^T + I)
D^{-1/2}. That operator is its own transpose, so the two directions
differ only in their weights. Each tree turns its nodes' parents and
feature entries into flat arrays once, on first use, and a batch
concatenates its trees' arrays. DropEdge removes raw edges (never
self-loops) with one Bernoulli draw per edge, then renormalizes on the
surviving support.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError, ValidationError, read_utf8, split_lines
from .featurize import SparseVector
from .gradengine.sparse import SparseMatrix
from .ingest import LABELS, Thread

TREE_FORMAT_VERSION = "rumourlab-tree v1"


@dataclass(frozen=True)
class PropNode:
    index: int
    parent: Optional[int]
    features: SparseVector

    def __post_init__(self):
        if self.index < 1:
            raise ValidationError(f"node index {self.index} must be >= 1")
        if self.parent is not None and not 1 <= self.parent < self.index:
            raise ValidationError(
                f"node {self.index} parent {self.parent} must precede it"
            )


@dataclass(frozen=True)
class PropTree:
    thread_id: str
    label: Optional[str]
    nodes: tuple[PropNode, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValidationError("a tree needs at least its source node")
        for position, node in enumerate(self.nodes, start=1):
            if node.index != position:
                raise ValidationError(
                    f"tree {self.thread_id}: node indices not contiguous at {node.index}"
                )
        if self.nodes[0].parent is not None:
            raise ValidationError(f"tree {self.thread_id}: source node has a parent")
        for node in self.nodes[1:]:
            if node.parent is None:
                raise ValidationError(
                    f"tree {self.thread_id}: non-source node {node.index} lacks a parent"
                )
        if self.label is not None and self.label not in LABELS:
            raise ValidationError(f"tree {self.thread_id}: unknown label {self.label!r}")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def _batch_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each node's parent (0 for the source) and entry count, then every
        node's feature columns and values in node order; built once per tree."""
        entries = [entry for node in self.nodes for entry in node.features.entries]
        return (np.array([node.parent or 0 for node in self.nodes]),
                np.array([len(node.features.entries) for node in self.nodes]),
                np.array([index for index, _ in entries], dtype=int),
                np.array([value for _, value in entries], dtype=float))


def build_tree(thread: Thread, features: Sequence[SparseVector],
               keep_reply_links: bool = False) -> PropTree:
    """Tree for a thread whose tweets (source first, then replies in
    creation order) have the node feature rows `features`.

    By default every reply attaches to the source. With keep_reply_links
    a reply whose parent_id names an earlier tweet in the thread keeps
    that link; anything else still attaches to the source.
    """
    position: dict[str, int] = {}  # the tweets before the current one
    nodes = []
    for index, (tweet, row) in enumerate(zip(thread.tweets(), features, strict=True), start=1):
        parent = position.get(tweet.parent_id, 1) if keep_reply_links else 1
        position[tweet.id] = index
        nodes.append(PropNode(index=index, parent=None if index == 1 else parent, features=row))
    return PropTree(thread_id=thread.id, label=thread.label, nodes=tuple(nodes))


def serialize_tree(tree: PropTree) -> str:
    """Text block for one tree; feature values print to 12 significant
    digits."""
    lines = [f"{tree.thread_id}\t{tree.label if tree.label else 'None'}"]
    for node in tree.nodes:
        pairs = " ".join(f"{i}:{v:.12g}" for i, v in node.features.entries)
        parent = "None" if node.parent is None else str(node.parent)
        lines.append(f"{parent}\t{node.index}\t{pairs}")
    return "\n".join(lines)


def parse_tree(block: str, first_line: int = 1) -> PropTree:
    """Inverse of serialize_tree, up to float printing precision. Errors
    start with `line N: `, counting the block's first line as `first_line`."""
    lines = split_lines(block.strip("\r\n"))
    line_no = first_line
    try:
        if not lines or not lines[0].strip():
            raise ParseError("empty tree block")
        header = lines[0].split("\t")
        if len(header) != 2:
            raise ParseError("tree header must be thread_id<TAB>label")
        thread_id, label_text = header
        nodes = []
        for line_no, line in enumerate(lines[1:], start=first_line + 1):
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError("node line must have three tab-separated fields")
            parent_text, index_text, pairs_text = parts
            try:
                index = int(index_text)
                parent = None if parent_text == "None" else int(parent_text)
            except ValueError:
                raise ParseError("bad parent or index field") from None
            entries = []
            for pair in pairs_text.split():
                left, sep, right = pair.partition(":")
                try:
                    if not sep:
                        raise ValueError
                    entries.append((int(left), float(right)))
                except ValueError:
                    raise ParseError(f"bad index:value pair {pair!r}") from None
            nodes.append(PropNode(index=index, parent=parent,
                                  features=SparseVector(entries=tuple(entries))))
        # Checks over the whole tree name its header line.
        line_no = first_line
        label = None if label_text == "None" else label_text
        return PropTree(thread_id=thread_id, label=label, nodes=tuple(nodes))
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"line {line_no}: {exc}") from None


def write_tree_corpus(trees: Sequence[PropTree], path) -> None:
    blocks = [serialize_tree(tree) for tree in trees]
    text = f"# {TREE_FORMAT_VERSION}\n" + "\n\n".join(blocks) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_tree_corpus(path) -> list[PropTree]:
    """The trees of a corpus file; errors start with `<path> line N: `,
    counting lines in the file."""
    lines = split_lines(read_utf8(path))
    if lines[:1] != [f"# {TREE_FORMAT_VERSION}"]:
        raise ParseError(f"{path} line 1: missing '# {TREE_FORMAT_VERSION}' header")
    trees = []
    block: list[str] = []
    for line_no, line in enumerate(lines[1:] + [""], start=2):
        if line.strip():
            block.append(line)
        elif block:
            try:
                trees.append(parse_tree("\n".join(block), line_no - len(block)))
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{path} {exc}") from None
            block = []
    return trees


@dataclass(frozen=True)
class GraphBatch:
    """Stacked trees: sparse node features, the normalized adjacency
    operator both directions share, per-node graph membership, and each
    graph's root row."""

    features: SparseMatrix
    adjacency: SparseMatrix
    graph_membership: np.ndarray
    root_index: np.ndarray
    td_edges: np.ndarray  # raw directed (parent, child) global node pairs

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_graphs(self) -> int:
        return len(self.root_index)


def _normalized_adjacency(n_nodes: int, edges: np.ndarray) -> SparseMatrix:
    """Symmetric normalization with self-loops over the edge support.

    Entries list the self-loops, then each edge as (u, v) and (v, u), so
    every row sums its self-loop first and its edges in input order."""
    degree = 1 + np.bincount(edges.ravel(), minlength=n_nodes)
    inv_sqrt = 1.0 / np.sqrt(degree)
    loops = np.arange(n_nodes)
    rows = np.concatenate([loops, edges.ravel()])
    cols = np.concatenate([loops, edges[:, ::-1].ravel()])
    return SparseMatrix(shape=(n_nodes, n_nodes), rows=rows, cols=cols,
                        vals=inv_sqrt[rows] * inv_sqrt[cols])


def to_graph_batch(trees: Sequence[PropTree], vocab_size: int) -> GraphBatch:
    """Stack trees into one batch with global node numbering."""
    if not trees:
        raise ValidationError("cannot batch zero trees")
    for tree in trees:
        largest = tree._batch_arrays[2].max(initial=-1)
        if largest >= vocab_size:
            raise ValidationError(
                f"tree {tree.thread_id}: feature index {largest} "
                f">= vocab size {vocab_size}"
            )
    parent, counts, cols, vals = map(np.concatenate, zip(*(tree._batch_arrays for tree in trees)))
    sizes = np.array([tree.size for tree in trees])
    roots = np.cumsum(sizes) - sizes
    membership = np.repeat(np.arange(len(trees)), sizes)
    # Node rows follow tree order, so a non-source row is its own child index.
    child = np.flatnonzero(parent)
    td_edges = np.stack([roots[membership[child]] + parent[child] - 1, child], axis=1)
    return GraphBatch(
        features=SparseMatrix(shape=(len(parent), vocab_size),
                              rows=np.repeat(np.arange(len(parent)), counts),
                              cols=cols, vals=vals),
        adjacency=_normalized_adjacency(len(parent), td_edges),
        graph_membership=membership,
        root_index=roots,
        td_edges=td_edges,
    )


def drop_edge(batch: GraphBatch, rate: float, seed: int) -> GraphBatch:
    """Remove each raw edge with probability `rate`, then renormalize.
    Self-loops are part of normalization, never dropped. Rate 0 returns
    the batch unchanged."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"drop rate must be in [0, 1), got {rate}")
    if rate == 0.0 or len(batch.td_edges) == 0:
        return batch
    rng = np.random.default_rng(seed)
    kept = batch.td_edges[rng.random(len(batch.td_edges)) >= rate]
    return replace(batch, adjacency=_normalized_adjacency(batch.n_nodes, kept),
                   td_edges=kept)
