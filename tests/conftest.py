import gc
import json
import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from rumourlab.errors import ValidationError
from rumourlab.featurize import SparseVector
from rumourlab.gradengine.sparse import SparseMatrix
from rumourlab.gradengine.tensor import (
    _accumulate,
    _node,
    _sigmoid_values,
    _topological_order,
)
from rumourlab.ingest import AssemblyDiagnostics, Thread, TweetRecord, _parse_timestamp
from rumourlab.textproc import _PUNCT, _is_special_token

BASE_TIME = datetime(2020, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


def make_record(id, text="hello world", minutes=0, **overrides) -> TweetRecord:
    fields = dict(verified=False, followers=10, following=5, tweet_count=100,
                  listed_count=1, account_created_year=2015, retweet_count=0,
                  like_count=0)
    fields.update(overrides)
    return TweetRecord(id=id, text=text,
                       created_at=BASE_TIME + timedelta(minutes=minutes), **fields)


def make_thread(id, label="nonrumour", text="hello world", n_replies=0,
                reply_text="a reply") -> Thread:
    source = make_record(id, text=text, label=label)
    replies = tuple(
        make_record(f"{id}r{i}", text=reply_text, minutes=i + 1, parent_id=id)
        for i in range(n_replies)
    )
    return Thread(source=source, replies=replies)


@pytest.fixture
def no_cycle_collector():
    """The cycle collector off for one test, so an object that dies there
    died by its reference count, not whenever the collector happened to run."""
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def tmp_dataset(tmp_path):
    def write(records, name="data.jsonl"):
        from rumourlab.ingest import save_tweets

        path = tmp_path / name
        save_tweets(records, path)
        return path

    return write


def oracle_transform_tfidf(model, doc, use_raw_counts=False):
    """The per-document TF-IDF transform, one Counter and one sorted entry
    list per document: the reference `featurize.tfidf_rows` must match."""
    counts = Counter(token.lower() for token in doc)
    entries = []
    for term, count in counts.items():
        position = model.vocab.content_index(term)
        if position is None:
            continue
        value = float(count) if use_raw_counts else count * model.idf[position]
        entries.append((position, value))
    entries.sort()
    if not use_raw_counts and entries:
        norm = math.sqrt(sum(v * v for _, v in entries))
        entries = [(i, v / norm) for i, v in entries]
    return SparseVector(entries=tuple(entries))


_ORACLE_SCHEMA = {
    "id": str, "text": str, "created_at": str, "verified": bool,
    "followers": int, "following": int, "tweet_count": int, "listed_count": int,
    "account_created_year": int, "retweet_count": int, "like_count": int,
}
_ORACLE_KINDS = {str: "a string", bool: "true or false", int: "a non-negative integer"}


def stack_rows(vectors, width):
    """One `len(vectors)` x `width` matrix whose row r lists the entries of
    vectors[r] in their order: the per-vector stacking that `tfidf_rows`
    and the per-tree arrays of `to_graph_batch` replaced."""
    entries = [entry for vector in vectors for entry in vector.entries]
    counts = [len(vector.entries) for vector in vectors]
    return SparseMatrix(shape=(len(vectors), width),
                        rows=np.repeat(np.arange(len(vectors)), counts),
                        cols=np.array([index for index, _ in entries], dtype=int),
                        vals=np.array([value for _, value in entries], dtype=float))


def oracle_record(line, current_year):
    """The record on one stripped, non-blank dataset line, or the message
    refusing it: `json.loads`, then one check per field in file order, then
    a keyword-built record. The fused test in `ingest.load_tweets` must
    accept exactly these lines, with the same messages."""
    try:
        fields = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return f"invalid record: {getattr(exc, 'msg', exc)}"
    if type(fields) is not dict:
        return "record is not a key-value object"
    for name, kind in _ORACLE_SCHEMA.items():
        value = fields.get(name)
        if type(value) is not kind or kind is int and not 0 <= value < 2**63:
            if name not in fields:
                return f"missing required field {name!r}"
            if kind is int and type(value) is int and value > 0:
                return f"{name} must be a non-negative integer below 2**63"
            return f"{name} must be {_ORACLE_KINDS[kind]}"
    for name in ("parent_id", "label"):
        value = fields.get(name)
        if value is not None and type(value) is not str:
            return f"{name} must be a string or null"
    for name in ("id", "parent_id"):
        value = fields.get(name) or ""
        if "\t" in value or "\n" in value or "\r" in value:
            return f"{name} must not hold a tab or line break"
    values = {name: fields[name] for name in _ORACLE_SCHEMA}
    try:
        values.update(created_at=_parse_timestamp(fields["created_at"]),
                      parent_id=fields.get("parent_id"), label=fields.get("label"))
        return TweetRecord(**values, current_year=current_year)
    except ValidationError as exc:
        return str(exc)


def _oracle_resolve_root(record, by_id):
    seen = []
    current = record
    while current.parent_id is not None:
        if current.id in seen:
            cycle = seen[seen.index(current.id):] + [current.id]
            raise ValidationError("cyclic parent links: " + " -> ".join(cycle))
        seen.append(current.id)
        parent = by_id.get(current.parent_id)
        if parent is None:
            return None
        current = parent
    return current.id


def oracle_assemble(records):
    """Thread assembly that walks every reply up to its source with a list
    of the ids seen, then sorts each source's replies into a new list:
    `ingest.assemble_threads` must give equal threads and diagnostics, or
    raise the same message."""
    by_id = {record.id: record for record in records}
    replies_by_root = {}
    orphans = 0
    for record in records:
        if record.parent_id is None:
            continue
        root = _oracle_resolve_root(record, by_id)
        if root is None:
            orphans += 1
        else:
            replies_by_root.setdefault(root, []).append(record)
    threads = []
    unlabeled = 0
    for record in records:
        if record.parent_id is not None:
            continue
        replies = sorted(replies_by_root.get(record.id, ()), key=lambda r: (r.created_at, r.id))
        if record.label is None:
            unlabeled += 1
        threads.append(Thread(source=record, replies=tuple(replies)))
    return threads, AssemblyDiagnostics(orphan_replies=orphans, unlabeled_sources=unlabeled)


def oracle_backward(loss):
    """The graph walk that keeps the graph: every node keeps its gradient,
    closure and parents. `backward` must give every parameter the same
    gradient bytes."""
    order = _topological_order(loss)
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def oracle_sigmoid_values(v):
    """The logistic function in its `np.where` form, which
    `tensor._sigmoid_values` must match bit for bit."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def oracle_optimizer_step(state, params, grads):
    """Adam with decoupled decay as the textbook expressions, one
    temporary per operation: the reference for the in-place
    `optimizer_step`, which must give the same bytes."""
    state.t += 1
    bias1 = 1.0 - state.beta1 ** state.t
    bias2 = 1.0 - state.beta2 ** state.t
    for name, param in params.items():
        grad = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(param.values)
            state.v[name] = np.zeros_like(param.values)
        if state.weight_decay > 0.0:
            param.values -= state.lr * state.weight_decay * param.values
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        param.values -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)


def oracle_lstm_sequence(inputs, w_h, mask):
    """The recurrence with fresh arrays for every step's temporaries, a
    full per-step history whether tracked or not, and every step's gate
    slopes and gradient pieces built at once: `tensor.lstm_layer` must
    give the same output and gradient bytes as this recurrence over
    `matmul(x, w_x) + bias`."""
    mask = np.asarray(mask, dtype=np.float64)
    keep = 1.0 - mask
    batch, steps = mask.shape
    size = w_h.shape[0]
    xs = inputs.values.reshape(batch, steps, 4 * size)
    hs, cs = np.zeros((2, steps + 1, batch, size))
    acts = np.empty((steps, batch, 4 * size))
    tanh_c = np.empty((steps, batch, size))
    for t in range(steps):
        pre = xs[:, t] + hs[t] @ w_h.values
        acts[t, :, :3 * size] = _sigmoid_values(pre[:, :3 * size])
        np.tanh(pre[:, 3 * size:], out=acts[t, :, 3 * size:])
        i, f, o, g = acts[t].reshape(batch, 4, size).transpose(1, 0, 2)
        new_c = f * cs[t] + i * g
        np.tanh(new_c, out=tanh_c[t])
        m, k = mask[:, t:t + 1], keep[:, t:t + 1]
        cs[t + 1] = new_c * m + cs[t] * k
        hs[t + 1] = (o * tanh_c[t]) * m + hs[t] * k

    def _back(grad):
        slopes = acts * (1.0 - acts)
        slopes[..., 3 * size:] = 1.0 - acts[..., 3 * size:] * acts[..., 3 * size:]
        d_pre = np.empty_like(acts)
        dh, dc = grad, np.zeros((batch, size))
        for t in reversed(range(steps)):
            m, k = mask[:, t:t + 1], keep[:, t:t + 1]
            i, f, o, g = acts[t].reshape(batch, 4, size).transpose(1, 0, 2)
            dh_new = dh * m
            dc_new = dc * m + dh_new * o * (1.0 - tanh_c[t] * tanh_c[t])
            np.concatenate([dc_new * g, dc_new * cs[t], dh_new * tanh_c[t], dc_new * i],
                           axis=1, out=d_pre[t])
            d_pre[t] *= slopes[t]
            dc = dc_new * f + dc * k
            dh = d_pre[t] @ w_h.values.T + dh * k
        if inputs.requires_grad:
            _accumulate(inputs, d_pre.transpose(1, 0, 2).reshape(inputs.shape))
        if w_h.requires_grad:
            _accumulate(w_h, hs[:-1].reshape(-1, size).T @ d_pre.reshape(-1, 4 * size))
    return _node(hs[steps], (inputs, w_h), _back)


def oracle_tokenize(text):
    """The per-chunk loop that `textproc.tokenize` must reproduce token for
    token: every chunk, whatever its last character, enters the search for
    its longest prefix that is a special token or ends before the trailing
    punctuation; the rest are one-character tokens."""
    tokens = []
    for chunk in text.split():
        end = len(chunk)
        stem = len(chunk.rstrip(_PUNCT))
        while end > stem and not _is_special_token(chunk[:end]):
            end -= 1
        if end:
            tokens.append(chunk[:end])
        tokens.extend(chunk[end:])
    return tokens


def oracle_standardizer_stats(matrix, n_scaled=None):
    """The full-width fit that `featurize.Standardizer.fit` must match:
    every column's mean and std, then identity statistics written over the
    columns at or past n_scaled."""
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    if n_scaled is not None:
        mean[n_scaled:] = 0.0
        std[n_scaled:] = 1.0
    return mean, std


def oracle_smote_balance(x_std, labels, k, seed):
    """SMOTE with a fresh neighbour search per call, distances one row
    against all rows, and one row per draw stacked under x_std: the
    per-seed form that the once-per-run neighbour table must match."""
    counts = {c: labels.count(c) for c in ("rumour", "nonrumour")}
    minority = min(counts, key=counts.get)
    n_new = max(counts.values()) - counts[minority]
    if n_new == 0:
        return x_std, labels
    points = x_std[[i for i, c in enumerate(labels) if c == minority]]
    k = min(k, len(points) - 1)
    distances = np.stack([np.linalg.norm(p - points, axis=1) for p in points])
    np.fill_diagonal(distances, np.inf)
    neighbours = np.argsort(distances, axis=1, kind="stable")[:, :k]
    rng = np.random.default_rng(seed)
    synthetic = []
    for _ in range(n_new):
        base = rng.integers(len(points))
        partner = neighbours[base][rng.integers(k)]
        u = rng.random()
        synthetic.append(points[base] + u * (points[partner] - points[base]))
    return np.vstack([x_std] + [s[None, :] for s in synthetic]), labels + [minority] * n_new


def oracle_train_classic(kind, features, labels, config, seed):
    """One seed's classic fit with every step redone for that seed: the
    full-width statistics, the z-scored train matrix, `oracle_smote_balance`
    and, for the forest, the raw rows stacked over the inverse of the
    synthetic rows. `classic.train_classic` must give the same bytes."""
    from rumourlab.featurize import HANDCRAFTED_WIDTH, compute_class_weights
    from rumourlab.models import classic

    x = np.asarray(features, dtype=float)
    scaled = 0 if config.features == "tfidf" else HANDCRAFTED_WIDTH
    mean, std = oracle_standardizer_stats(x, scaled)
    x_std, labels = (x - mean) / std, list(labels)
    if config.smote:
        x_std, labels = oracle_smote_balance(x_std, labels, config.smote_k, seed)
    row_weights = None
    if config.class_weights:
        per_class = compute_class_weights(labels, classes=("nonrumour", "rumour"))
        row_weights = np.array([per_class[c] for c in labels])
    if kind in ("logreg", "svm"):
        weights, bias = classic._gradient_fit(kind, x_std, labels, config, row_weights)
        return classic.ClassicModel(kind=kind, weights=weights, bias=bias)
    x_raw = np.vstack([x, x_std[len(x):] * std + mean])
    y = np.array([1 if c == "rumour" else 0 for c in labels])
    row_weights = np.ones(len(labels)) if row_weights is None else row_weights
    n_candidates = max(1, math.isqrt(x.shape[1])) \
        if config.rf_feature_subsample == "sqrt" else x.shape[1]
    rng = np.random.default_rng(seed)
    forest = [classic._grow_tree(x_raw, rng.integers(0, len(x_raw), size=len(x_raw)), y,
                                 row_weights, rng, config.rf_max_depth, n_candidates)
              for _ in range(config.rf_trees)]
    return classic.ClassicModel(kind="rf", forest=forest, forest_dim=x.shape[1])


def oracle_init_params(model, rng):
    """Each gradient model's initialization as hand-written code, one draw
    per weight matrix in this order and every bias a constant:
    `GradientModel.init_params` over the model's `param_layout` must give
    the same names, order and bytes."""
    from rumourlab.gradengine import parameter
    from rumourlab.models import BiGcnModel
    from rumourlab.models.trainer import xavier_uniform

    cfg = model.config
    if isinstance(model, BiGcnModel):
        hidden, out = cfg.bigcn_hidden_dim, cfg.bigcn_out_dim
        params = {}
        for direction in ("td", "bu"):
            params[f"{direction}_w1"] = parameter(
                xavier_uniform(rng, (model.input_dim, hidden)), f"{direction}_w1")
            params[f"{direction}_w2"] = parameter(
                xavier_uniform(rng, (2 * hidden, out)), f"{direction}_w2")
        params["cls_w"] = parameter(xavier_uniform(rng, (4 * out, 2)), "cls_w")
        params["cls_b"] = parameter(np.zeros((1, 2)), "cls_b")
        return params
    params = {
        "embed": parameter(
            xavier_uniform(rng, (model.vocab.size, cfg.embed_dim)), "embed"),
    }
    for gate in ("i", "f", "o", "c"):
        params[f"w_x{gate}"] = parameter(
            xavier_uniform(rng, (cfg.embed_dim, cfg.hidden_dim)), f"w_x{gate}")
        params[f"w_h{gate}"] = parameter(
            xavier_uniform(rng, (cfg.hidden_dim, cfg.hidden_dim)), f"w_h{gate}")
        bias = np.ones((1, cfg.hidden_dim)) if gate == "f" else np.zeros((1, cfg.hidden_dim))
        params[f"b_{gate}"] = parameter(bias, f"b_{gate}")
    params["w_perc"] = parameter(
        xavier_uniform(rng, (cfg.hidden_dim, cfg.perceptron_dim)), "w_perc")
    params["b_perc"] = parameter(np.zeros((1, cfg.perceptron_dim)), "b_perc")
    params["w_out"] = parameter(
        xavier_uniform(rng, (cfg.perceptron_dim, 1)), "w_out")
    params["b_out"] = parameter(np.zeros((1, 1)), "b_out")
    return params
