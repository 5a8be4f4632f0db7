"""Smoke tests for the benchmark's helpers. A small generated corpus goes
through the four analysis kinds and a TF-IDF train, predict and evaluate
through the command line, so the generator keeps producing input the
program accepts. A traced load counts every record. Traced analyze
commands check that the tracer sees the text layer and every analysis
function it lists. Traced LSTM, Bi-GCN, SVM and forest runs check that
the tracer still sees the pipeline's functions, every engine primitive
the models hold and the forest's node count, and that each split is
prepared once."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import rumourlab
from rumourlab import cli, evalrun, ingest
from rumourlab.cli import main
from rumourlab.config import RunConfig
from rumourlab.gradengine import losses, tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def corpus_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus

    return corpus


@pytest.fixture
def generated(corpus_module, tmp_path):
    """A 12-thread labeled and a 4-thread unlabeled corpus, with reply chains."""
    shape = corpus_module.CorpusShape(
        labeled_threads=12, unlabeled_threads=4, rumour_rate=0.5, reply_cap=8,
        reply_tail=1.5, reply_scale=3.0, chain_prob=0.3, months=3, vocab_types=2000,
    )
    labeled, unlabeled = tmp_path / "labeled.jsonl", tmp_path / "unlabeled.jsonl"
    corpus_module.generate(shape, 4, labeled, unlabeled)
    return shape, labeled, unlabeled


def traced_run(*configs):
    """Train each run and predict its test split under one bench tracer."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for config in configs:
            # Through the module, whose attributes the tracer patches.
            result = evalrun.run_experiment(config)
            evalrun.RunPredictor(result.run_dir).predict(result.split.test)
    finally:
        tracer.uninstall()
    return tracer


def test_generated_corpus_runs_through_cli(generated, tmp_path, capsys):
    shape, labeled, unlabeled = generated

    for kind in ("attributes", "topics", "emotion", "sentiment"):
        out = tmp_path / "analysis"
        assert main(["analyze", "--kind", kind, "--data", str(labeled),
                     "--out", str(out)]) == 0
        assert (out / f"{kind}.csv").exists()

    runs = tmp_path / "runs"
    assert main(["train", "--data", str(labeled), "--model", "logreg",
                 "--out-dir", str(runs), "--set", "features = tfidf",
                 "--set", "seeds = 1", "--set", "classic_iters = 50"]) == 0
    (run_dir,) = runs.iterdir()
    # Hashtag terms in the saved idf table must not be read as its header.
    idf_lines = (run_dir / "idf.txt").read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("#") for line in idf_lines[1:])
    capsys.readouterr()
    assert main(["predict", "--run", str(run_dir), "--data", str(unlabeled)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == shape.unlabeled_threads
    assert main(["evaluate", "--run", str(run_dir)]) == 0


def test_traced_analyze_sees_text_layer(generated, tmp_path):
    import tracer as tracing

    _, labeled, _ = generated
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind in ("attributes", "topics", "emotion", "sentiment"):
            # Through the module, whose attributes the tracer patches.
            assert cli.main(["analyze", "--kind", kind, "--data", str(labeled),
                             "--out", str(tmp_path / "analysis")]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    listed = {name for module, _, name, _ in tracing.TARGETS if module == "rumourlab.analyze"}
    assert len(listed) == 5
    assert {"cli.main", "textproc.normalize", "textproc.tokenize"} | listed <= names


def test_traced_load_counts_every_record(generated):
    import tracer as tracing

    _, labeled, unlabeled = generated
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Through the module, whose attributes the tracer patches.
        loaded = [ingest.load_tweets(path) for path in (labeled, unlabeled)]
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["ingest.load_tweets"] * 2
    lines = sum(1 for path in (labeled, unlabeled)
                for line in path.read_bytes().splitlines() if line.strip())
    assert tracer.counts["ingest.records"] == lines == sum(map(len, loaded))


def test_traced_run_prepares_each_split_once(generated, tmp_path):
    _, labeled, _ = generated
    config = RunConfig(dataset=str(labeled), model="lstm", out_dir=str(tmp_path / "runs"),
                       seeds=(1, 2), vocab_cap=300, embed_dim=4, hidden_dim=4,
                       perceptron_dim=4, max_len=16, max_epochs=1)
    tracer = traced_run(config)

    names = [span[0] for span in tracer.spans]
    assert {"ingest.load_tweets", "ingest.assemble_threads", "trainer.fit",
            "trainer.predict_threads", "evalrun.run_experiment"} <= set(names)

    def ancestors(index):
        parent = tracer.spans[index][3]
        while parent != -1:
            yield tracer.spans[parent][0]
            parent = tracer.spans[parent][3]

    prepares = [i for i, span in enumerate(tracer.spans) if span[0] == "lstm.prepare"]
    assert sum("evalrun.run_experiment" in ancestors(i) for i in prepares) == 3
    assert sum("evalrun.predictor_predict" in ancestors(i) for i in prepares) == 1


def test_traced_bigcn_run_sees_graph_batching(generated, tmp_path):
    _, labeled, _ = generated
    config = RunConfig(dataset=str(labeled), model="bigcn", out_dir=str(tmp_path / "runs"),
                       keep_reply_links=True, tfidf_top_k=200, bigcn_hidden_dim=4,
                       bigcn_out_dim=4, max_epochs=1)
    tracer = traced_run(config)
    names = {span[0] for span in tracer.spans}
    assert {"proptree.to_graph_batch", "proptree.drop_edge", "gradengine.spmm"} <= names


def test_traced_runs_see_every_engine_primitive(generated, tmp_path):
    """gradengine.op_calls counts the primitives by name, so each must
    stay an engine attribute the tracer can patch, and every model module
    must call the ones it holds through that attribute."""
    import tracer as tracing

    held = set()
    for info in pkgutil.walk_packages(rumourlab.__path__, "rumourlab."):
        if info.name.startswith("rumourlab.gradengine") or info.name == "rumourlab.selftest":
            continue
        module = importlib.import_module(info.name)
        held |= {name for name in tracing.PRIMITIVES if hasattr(module, name)}
    assert all(hasattr(tensor, name) or hasattr(losses, name) for name in tracing.PRIMITIVES)

    _, labeled, _ = generated
    common = dict(dataset=str(labeled), out_dir=str(tmp_path / "runs"), max_epochs=1)
    tracer = traced_run(
        RunConfig(model="lstm", vocab_cap=300, embed_dim=4, hidden_dim=4,
                  perceptron_dim=4, max_len=16, dropout=0.5, **common),
        RunConfig(model="bigcn", tfidf_top_k=200, bigcn_hidden_dim=4, bigcn_out_dim=4,
                  dropout=0.5, **common),
        # The svm run feeds the classic.train_svm_s counter checked below.
        RunConfig(model="svm", features="tfidf", class_weights=False, svm_iters=3, **common),
        RunConfig(model="rf", features="tfidf", rf_trees=2, **common),
    )
    names = {span[0] for span in tracer.spans}
    assert {f"gradengine.{name}" for name in held} <= names
    assert "classic.forest_from_text" in names
    # The note hooks read train_classic's kind and fit's train data by
    # position; a signature change would rename or blank these counters.
    assert tracer.counts["classic.train_svm_s"] > 0
    assert tracer.counts["trainer.epochs"] >= 1
    # classic.rf_nodes takes len() of each tree: one per node line written.
    (rf_run,) = (tmp_path / "runs").glob("rf-*")
    node_lines = [line for path in rf_run.glob("forest_seed*.txt")
                  for line in path.read_text(encoding="utf-8").splitlines()
                  if len(line.split(" ")) == 6]
    assert tracer.counts["classic.rf_nodes"] == len(node_lines) > 0
