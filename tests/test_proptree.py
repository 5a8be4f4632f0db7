import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumourlab.errors import ParseError, ValidationError
from rumourlab.featurize import SparseVector, fit_tfidf
from rumourlab.ingest import Thread
from rumourlab.proptree import (
    GraphBatch,
    PropNode,
    PropTree,
    build_tree,
    drop_edge,
    parse_tree,
    read_tree_corpus,
    serialize_tree,
    to_graph_batch,
    write_tree_corpus,
)

from conftest import make_record

TOY_DOCS = [["alpha", "beta"], ["beta", "gamma"], ["alpha", "gamma", "delta"]]


@pytest.fixture
def tfidf():
    return fit_tfidf(TOY_DOCS, top_k=10)


def thread_with_replies(n_replies, label="rumour", texts=None):
    source = make_record("s1", text="alpha beta", label=label)
    replies = tuple(
        make_record(f"s1r{i}", text=(texts[i] if texts else "beta gamma"),
                    minutes=i + 1, parent_id="s1")
        for i in range(n_replies)
    )
    return Thread(source=source, replies=replies, label=label)


class TestBuildTree:
    def test_single_node(self, tfidf):
        tree = build_tree(thread_with_replies(0), tfidf)
        assert tree.size == 1
        assert tree.nodes[0].parent is None
        assert tree.nodes[0].index == 1

    def test_replies_in_time_order(self, tfidf):
        tree = build_tree(thread_with_replies(3), tfidf)
        assert [n.index for n in tree.nodes] == [1, 2, 3, 4]
        assert all(n.parent == 1 for n in tree.nodes[1:])

    def test_features_are_tfidf(self, tfidf):
        tree = build_tree(thread_with_replies(0), tfidf)
        indices = {i for i, _ in tree.nodes[0].features.entries}
        assert indices == {tfidf.vocab.content_index("alpha"),
                           tfidf.vocab.content_index("beta")}

    def test_keep_reply_links(self, tfidf):
        source = make_record("s1", text="alpha", label="rumour")
        r1 = make_record("r1", minutes=1, parent_id="s1", text="beta")
        r2 = make_record("r2", minutes=2, parent_id="r1", text="gamma")
        thread = Thread(source=source, replies=(r1, r2), label="rumour")
        flat = build_tree(thread, tfidf)
        assert [n.parent for n in flat.nodes] == [None, 1, 1]
        linked = build_tree(thread, tfidf, keep_reply_links=True)
        assert [n.parent for n in linked.nodes] == [None, 1, 2]

    def test_raw_count_features(self, tfidf):
        thread = thread_with_replies(0)
        tree = build_tree(thread, tfidf, raw_counts=True)
        values = [v for _, v in tree.nodes[0].features.entries]
        assert values == [1.0, 1.0]


class TestSerializeParse:
    def test_single_node_block(self, tfidf):
        tree = build_tree(thread_with_replies(0), tfidf)
        block = serialize_tree(tree)
        lines = block.split("\n")
        assert lines[0] == "s1\trumour"
        assert lines[1].startswith("None\t1\t")

    def test_two_node_block(self, tfidf):
        tree = build_tree(thread_with_replies(1), tfidf)
        assert serialize_tree(tree).split("\n")[2].startswith("1\t2\t")

    def test_round_trip_structure_and_values(self, tfidf):
        tree = build_tree(thread_with_replies(3), tfidf)
        parsed = parse_tree(serialize_tree(tree))
        assert parsed.thread_id == tree.thread_id
        assert parsed.label == tree.label
        assert parsed.size == tree.size
        for a, b in zip(parsed.nodes, tree.nodes):
            assert a.index == b.index and a.parent == b.parent
            assert [i for i, _ in a.features.entries] == [i for i, _ in b.features.entries]
            for (_, va), (_, vb) in zip(a.features.entries, b.features.entries):
                assert va == pytest.approx(vb, abs=1e-10)

    def test_empty_features_serialize_as_empty_field(self):
        tree = PropTree("t", "nonrumour", (
            PropNode(1, None, SparseVector(())),
        ))
        assert serialize_tree(tree).split("\n")[1] == "None\t1\t"
        parsed = parse_tree(serialize_tree(tree))
        assert parsed.nodes[0].features.entries == ()

    def test_unlabeled_tree_round_trips(self):
        tree = PropTree("t", None, (PropNode(1, None, SparseVector(())),))
        assert parse_tree(serialize_tree(tree)).label is None

    def test_index_jump_rejected(self):
        block = "t\trumour\nNone\t1\t\n1\t3\t0:1"
        with pytest.raises(ValidationError, match="contiguous"):
            parse_tree(block)

    def test_bad_pair_syntax_names_line(self):
        block = "t\trumour\nNone\t1\ta:b"
        with pytest.raises(ParseError, match="line 2"):
            parse_tree(block)

    def test_malformed_node_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_tree("t\trumour\nNone 1\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_tree("only-one-field\nNone\t1\t\n")


class TestCorpusFile:
    def test_round_trip(self, tfidf, tmp_path):
        trees = [build_tree(thread_with_replies(i), tfidf) for i in range(3)]
        path = tmp_path / "trees.txt"
        write_tree_corpus(trees, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# rumourlab-tree v1\n")
        loaded = read_tree_corpus(path)
        assert [t.size for t in loaded] == [t.size for t in trees]
        assert [t.thread_id for t in loaded] == [t.thread_id for t in trees]

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("t\trumour\nNone\t1\t\n")
        with pytest.raises(ParseError, match="header"):
            read_tree_corpus(path)


    @pytest.mark.parametrize("damage,line_no,message", [
        (lambda lines: lines[:5] + ["1\t2\t0:x"] + lines[6:], 6, "bad index:value pair '0:x'"),
        (lambda lines: lines[:5] + ["1 2"] + lines[6:], 6,
         "node line must have three tab-separated fields"),
        (lambda lines: lines[:4] + ["t2\tmaybe"] + lines[5:], 5,
         "tree t2: unknown label 'maybe'"),
        (lambda lines: lines[:6] + ["1\t3\t"], 5,
         "tree t2: node indices not contiguous at 3"),
        (lambda lines: ["# rumourlab-tree v0"] + lines[1:], 1,
         "missing '# rumourlab-tree v1' header"),
        (lambda lines: lines[:5] + ["1\t2\t0:1\udcff"] + lines[6:], 6, "invalid UTF-8"),
    ], ids=["pair", "fields", "label", "contiguous", "header", "byte"])
    def test_error_names_file_line(self, tmp_path, damage, line_no, message):
        lines = ["# rumourlab-tree v1", "t1\trumour", "None\t1\t0:1", "",
                 "t2\tnonrumour", "None\t1\t", "1\t2\t1:2.5"]
        path = tmp_path / "trees.txt"
        path.write_text("\n".join(damage(lines)) + "\n", encoding="utf-8",
                        errors="surrogateescape")
        with pytest.raises((ParseError, ValidationError)) as info:
            read_tree_corpus(path)
        assert str(info.value) == f"{path} line {line_no}: {message}"


def _fuzz_tree_line():
    """Tree-corpus lines: headers, node lines with good and bad fields, noise."""
    pair = st.one_of(
        st.builds(lambda i, v: f"{i}:{v}", st.integers(-2, 4),
                  st.sampled_from(["1", "0.5", "-2", "nan", "inf", "1e999", "x", ""])),
        st.text(max_size=4))
    return st.one_of(
        st.sampled_from(["", "# rumourlab-tree v1", " "]),
        st.builds(lambda tid, label: f"{tid}\t{label}", st.text(max_size=3),
                  st.sampled_from(["rumour", "nonrumour", "None", "maybe", ""])),
        st.builds(lambda parent, index, pairs: f"{parent}\t{index}\t{' '.join(pairs)}",
                  st.sampled_from(["None", "0", "1", "2", "-1", "x", "9" * 5000]),
                  st.sampled_from(["1", "2", "3", "0", "x"]), st.lists(pair, max_size=3)),
        st.text(max_size=10))


class TestFuzzedTreeCorpus:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_fuzz_tree_line(), max_size=8), header=st.booleans(),
           newline=st.sampled_from(["\n", "\r\n"]),
           bad_byte=st.one_of(st.none(), st.integers(min_value=0, max_value=80)))
    def test_parse_and_read_raise_only_documented_errors(self, tmp_path, lines, header,
                                                          newline, bad_byte):
        if header:
            lines = ["# rumourlab-tree v1"] + lines
        text = newline.join(lines)
        try:
            parse_tree(text)
        except (ParseError, ValidationError) as exc:
            assert str(exc).startswith("line ")
        data = text.encode("utf-8")
        if bad_byte is not None:
            cut = min(bad_byte, len(data))
            data = data[:cut] + b"\xff" + data[cut:]
        path = tmp_path / "fuzz.txt"
        path.write_bytes(data)
        try:
            read_tree_corpus(path)
        except (ParseError, ValidationError) as exc:
            match = re.match(rf"{re.escape(str(path))} line (\d+): ", str(exc))
            # Lines end at \n, \r\n or \r, as in a fuzzed bare \r.
            assert match and 1 <= int(match.group(1)) <= len(re.split(rb"\r\n|\r|\n", data))


def tree_of_size(thread_id, n, tfidf, label="rumour"):
    source = make_record(thread_id, text="alpha beta", label=label)
    replies = tuple(
        make_record(f"{thread_id}r{i}", text="beta gamma", minutes=i + 1,
                    parent_id=thread_id)
        for i in range(n - 1)
    )
    return build_tree(Thread(source=source, replies=replies, label=label), tfidf)


class TestGraphBatch:
    def test_single_node_identity(self, tfidf):
        batch = to_graph_batch([tree_of_size("a", 1, tfidf)], 10)
        assert np.allclose(batch.adjacency.to_dense(), np.eye(1))

    def test_two_node_normalization(self, tfidf):
        batch = to_graph_batch([tree_of_size("a", 2, tfidf)], 10)
        expected = np.full((2, 2), 0.5)
        assert np.allclose(batch.adjacency.to_dense(), expected, atol=1e-12)

    def test_membership_and_roots(self, tfidf):
        batch = to_graph_batch(
            [tree_of_size("a", 3, tfidf), tree_of_size("b", 2, tfidf)], 10)
        assert batch.graph_membership.tolist() == [0, 0, 0, 1, 1]
        assert batch.root_index.tolist() == [0, 3]
        assert batch.n_nodes == 5 and batch.n_graphs == 2

    def test_normalized_adjacency_symmetric(self, tfidf):
        trees = [tree_of_size(f"t{i}", i + 1, tfidf) for i in range(4)]
        batch = to_graph_batch(trees, 10)
        dense = batch.adjacency.to_dense()
        assert np.abs(dense - dense.T).max() < 1e-12
        assert (np.abs(dense).sum(axis=1) > 0).all()

    def test_raw_edges_directed_parent_to_child(self, tfidf):
        batch = to_graph_batch([tree_of_size("a", 3, tfidf)], 10)
        assert batch.td_edges.tolist() == [[0, 1], [0, 2]]

    def test_permuted_tree_order_permutes_blocks(self, tfidf):
        t1 = tree_of_size("a", 3, tfidf)
        t2 = tree_of_size("b", 2, tfidf)
        forward_batch = to_graph_batch([t1, t2], 10)
        swapped = to_graph_batch([t2, t1], 10)
        assert np.allclose(forward_batch.adjacency.to_dense()[:3, :3],
                           swapped.adjacency.to_dense()[2:, 2:], atol=1e-12)
        assert np.allclose(forward_batch.features[:3], swapped.features[2:])

    def test_feature_index_out_of_range(self, tfidf):
        tree = tree_of_size("a", 1, tfidf)
        with pytest.raises(ValidationError, match="vocab size"):
            to_graph_batch([tree], 1)


class TestDropEdge:
    def _batch(self, tfidf, n_trees=30, size=4):
        trees = [tree_of_size(f"t{i}", size, tfidf) for i in range(n_trees)]
        return to_graph_batch(trees, 10)

    def test_rate_zero_is_identity(self, tfidf):
        batch = self._batch(tfidf)
        assert drop_edge(batch, 0.0, seed=1) is batch

    def test_same_seed_identical(self, tfidf):
        batch = self._batch(tfidf)
        a = drop_edge(batch, 0.4, seed=9)
        b = drop_edge(batch, 0.4, seed=9)
        assert np.array_equal(a.td_edges, b.td_edges)
        assert np.array_equal(a.adjacency.vals, b.adjacency.vals)

    def test_self_loops_survive(self, tfidf):
        batch = self._batch(tfidf)
        dropped = drop_edge(batch, 0.9, seed=2)
        dense = dropped.adjacency.to_dense()
        assert (np.diag(dense) > 0).all()

    def test_renormalized_on_surviving_support(self, tfidf):
        batch = self._batch(tfidf, n_trees=1, size=3)
        dropped = drop_edge(batch, 0.999, seed=0)
        # With every edge removed only self-loops remain, degree 1.
        assert len(dropped.td_edges) == 0
        assert np.allclose(dropped.adjacency.to_dense(), np.eye(3))

    def test_binomial_bound_at_half(self, tfidf):
        # 10,000 edges; retention should sit within 3 sigma of 5,000.
        trees = [tree_of_size(f"t{i}", 101, tfidf) for i in range(100)]
        batch = to_graph_batch(trees, 10)
        assert len(batch.td_edges) == 10_000
        dropped = drop_edge(batch, 0.5, seed=1234)
        assert abs(len(dropped.td_edges) - 5000) <= 150

    def test_rate_validation(self, tfidf):
        batch = self._batch(tfidf, n_trees=2)
        with pytest.raises(ValidationError):
            drop_edge(batch, 1.0, seed=0)
        with pytest.raises(ValidationError):
            drop_edge(batch, -0.1, seed=0)


# Reference batching: the per-edge and per-entry loops that the
# vectorized to_graph_batch and drop_edge replaced. Their outputs must
# stay byte-equal, because spmm sums each row in entry order.
ORACLE_VOCAB = 12


def reference_adjacency(n_nodes, edges):
    degree = np.ones(n_nodes)
    for u, v in edges:
        degree[u] += 1.0
        degree[v] += 1.0
    inv_sqrt = 1.0 / np.sqrt(degree)
    rows = list(range(n_nodes))
    cols = list(range(n_nodes))
    vals = [inv_sqrt[i] * inv_sqrt[i] for i in range(n_nodes)]
    for u, v in edges:
        rows.extend((u, v))
        cols.extend((v, u))
        weight = inv_sqrt[u] * inv_sqrt[v]
        vals.extend((weight, weight))
    return (np.array(rows, dtype=int), np.array(cols, dtype=int),
            np.array(vals, dtype=np.float64))


def reference_batch(trees, vocab_size):
    total = sum(tree.size for tree in trees)
    features = np.zeros((total, vocab_size))
    membership = np.zeros(total, dtype=int)
    roots = np.zeros(len(trees), dtype=int)
    edges = []
    offset = 0
    for g, tree in enumerate(trees):
        roots[g] = offset
        for node in tree.nodes:
            row = offset + node.index - 1
            membership[row] = g
            for index, value in node.features.entries:
                features[row, index] = value
        edges.extend((offset + node.parent - 1, offset + node.index - 1)
                     for node in tree.nodes[1:])
        offset += tree.size
    return features, membership, roots, np.array(edges, dtype=int).reshape(-1, 2)


def assert_same_operator(matrix, expected):
    for actual, wanted in zip((matrix.rows, matrix.cols, matrix.vals), expected):
        assert actual.dtype == wanted.dtype
        assert actual.tobytes() == wanted.tobytes()


@st.composite
def forests(draw):
    trees = []
    for t in range(draw(st.integers(1, 4))):
        nodes = []
        for index in range(1, draw(st.integers(1, 30)) + 1):
            # The previous node as parent builds chains; any earlier node
            # builds bushier shapes.
            parent = None if index == 1 else draw(
                st.one_of(st.just(index - 1), st.integers(1, index - 1)))
            columns = sorted(draw(st.sets(st.integers(0, ORACLE_VOCAB - 1), max_size=4)))
            values = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(columns),
                                   max_size=len(columns)))
            nodes.append(PropNode(index=index, parent=parent,
                                  features=SparseVector(entries=tuple(zip(columns, values)))))
        trees.append(PropTree(thread_id=f"t{t}", label="rumour", nodes=tuple(nodes)))
    return trees


class TestBatchingOracle:
    @given(forests(), st.floats(0.0, 0.9, exclude_max=True), st.integers(0, 2 ** 63 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_reference(self, trees, rate, seed):
        features, membership, roots, edges = reference_batch(trees, ORACLE_VOCAB)
        batch = to_graph_batch(trees, ORACLE_VOCAB)
        assert batch.features.tobytes() == features.tobytes()
        assert batch.graph_membership.tobytes() == membership.tobytes()
        assert batch.root_index.tobytes() == roots.tobytes()
        assert batch.td_edges.tobytes() == edges.tobytes()
        assert_same_operator(batch.adjacency, reference_adjacency(len(features), edges))

        kept = edges
        if rate > 0.0 and len(edges):
            kept = edges[np.random.default_rng(seed).random(len(edges)) >= rate]
        dropped = drop_edge(batch, rate, seed)
        assert dropped.features is batch.features
        assert dropped.td_edges.tobytes() == kept.tobytes()
        assert_same_operator(dropped.adjacency, reference_adjacency(len(features), kept))

    def test_all_empty_features(self):
        empty = SparseVector(entries=())
        tree = PropTree(thread_id="t", label=None, nodes=(
            PropNode(index=1, parent=None, features=empty),
            PropNode(index=2, parent=1, features=empty)))
        batch = to_graph_batch([tree], 3)
        assert not batch.features.any() and batch.features.shape == (2, 3)
