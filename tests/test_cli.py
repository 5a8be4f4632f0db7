import base64
import json
import os
import shutil
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import rumourlab
from rumourlab import cli, textproc
from rumourlab.cli import main
from rumourlab.config import load_config
from rumourlab.featurize import load_vocabulary
from rumourlab.ingest import assemble_threads, load_tweets, save_tweets
from rumourlab.models import BiGcnModel
from rumourlab.models import lstm as lstm_module
from rumourlab.proptree import PropNode, PropTree, read_tree_corpus, write_tree_corpus
from rumourlab.synthetic import make_planted_records
from rumourlab.textproc import normalize, tokenize

from conftest import oracle_transform_tfidf


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    save_tweets(make_planted_records(n_threads=30, seed=2, max_replies=2), path)
    return path


@pytest.fixture(scope="module")
def few_file(tmp_path_factory):
    """Six labeled threads, two of them rumours: too few for three splits."""
    path = tmp_path_factory.mktemp("data") / "few.jsonl"
    save_tweets(make_planted_records(n_threads=6, seed=1), path)
    return path


FEW_REFUSAL = "class 'rumour' has 2 threads, fewer than the 3 splits\n"


@pytest.fixture(scope="module")
def unlabeled_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "unlabeled.jsonl"
    save_tweets(make_planted_records(n_threads=8, seed=4, labeled=False), path)
    return path


@pytest.fixture(scope="module")
def trained_run(planted_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    code = main([
        "train", "--data", str(planted_file), "--model", "logreg",
        "--out-dir", str(out),
        "--set", "features = tfidf", "--set", "classic_iters = 100",
        "--set", "seeds = 1",
    ])
    assert code == 0
    (run_dir,) = list(out.iterdir())
    return run_dir


def _train_small(planted_file, tmp_path_factory, model, *settings):
    out = tmp_path_factory.mktemp("runs")
    argv = ["train", "--data", str(planted_file), "--model", model, "--out-dir", str(out)]
    for setting in settings + ("max_epochs = 1",):
        argv += ["--set", setting]
    assert main(argv) == 0
    (run_dir,) = list(out.iterdir())
    return run_dir


@pytest.fixture(scope="module")
def lstm_run(planted_file, tmp_path_factory):
    return _train_small(planted_file, tmp_path_factory, "lstm", "vocab_cap = 200",
                        "embed_dim = 4", "hidden_dim = 4", "perceptron_dim = 4",
                        "max_len = 16")


@pytest.fixture(scope="module")
def bigcn_run(planted_file, tmp_path_factory):
    return _train_small(planted_file, tmp_path_factory, "bigcn", "tfidf_top_k = 100",
                        "bigcn_hidden_dim = 4", "bigcn_out_dim = 4")


@pytest.fixture(scope="module")
def svm_run(planted_file, tmp_path_factory):
    return _train_small(planted_file, tmp_path_factory, "svm", "features = tfidf",
                        "svm_iters = 50")


@pytest.fixture(scope="module")
def forest_run(planted_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    assert main(["train", "--data", str(planted_file), "--model", "rf",
                 "--out-dir", str(out), "--set", "rf_trees = 2"]) == 0
    (run_dir,) = list(out.iterdir())
    return run_dir


class TestDispatch:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_one(self, planted_file):
        assert main(["stats", "--data", str(planted_file), "--bogus"]) == 1

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["stats", "--data", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["ingest", "--data"], ["train", "--config"]])
    def test_directory_path_exits_one(self, tmp_path, capsys, command):
        argv = command + [str(tmp_path)]
        if command[0] == "train":
            argv += ["--out-dir", str(tmp_path / "runs")]
        assert main(argv) == 1
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["build-trees", "--out", "{directory}"], "directory"),
        (["build-trees", "--out", "{blocker}/t.txt"], "blocker"),
        (["analyze", "--kind", "attributes", "--out", "{blocker}"], "blocker"),
        (["train", "--model", "logreg", "--out-dir", "{blocker}"], "blocker"),
        (["ingest", "--split-out", "{blocker}"], "blocker"),
    ], ids=["trees-to-directory", "trees-under-file", "analyze-to-file", "train-to-file",
            "split-to-file"])
    def test_unwritable_output_exits_one(self, planted_file, tmp_path, capsys, argv, named):
        paths = {"directory": tmp_path / "taken", "blocker": tmp_path / "blocker"}
        paths["directory"].mkdir()
        paths["blocker"].write_text("x", encoding="utf-8")
        argv = [arg.format(**paths) for arg in argv] + ["--data", str(planted_file)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(paths[named]) in err
        # Nothing was written: no run directory, no tree or table file.
        assert sorted(tmp_path.rglob("*")) == sorted(paths.values())

    def test_selftest_passes_and_prints_per_suite(self, capsys):
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "ok primitive gradients", "ok lstm gradients", "ok bigcn gradients"]

    def test_selftest_failure_exits_one_and_runs_later_suites(self, monkeypatch, capsys):
        from rumourlab import selftest

        check_model_gradients = selftest.check_model_gradients

        def failing(kind, seed):
            if kind == "lstm":
                raise AssertionError("boom")
            return check_model_gradients(kind, seed)

        monkeypatch.setattr(selftest, "check_model_gradients", failing)
        assert main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "ok primitive gradients", "FAIL lstm gradients: boom", "ok bigcn gradients"]


@pytest.fixture
def bad_utf8_file(planted_file, tmp_path):
    lines = planted_file.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"text": "', b'"text": "\xff', 1)
    path = tmp_path / "bad_utf8.jsonl"
    path.write_bytes(b"".join(lines))
    return path


class TestInvalidUtf8:
    @pytest.mark.parametrize("command", [
        ["ingest"],
        ["train", "--model", "logreg", "--set", "seeds = 1"],
        ["train", "--config", "bad.cfg"],
    ])
    def test_bad_byte_exits_one_naming_line(self, bad_utf8_file, tmp_path, capsys, command):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"seeds = 1\nmodel = logreg \xff\n")
        argv = [str(config) if arg == "bad.cfg" else arg for arg in command]
        argv += ["--data", str(bad_utf8_file)]
        if command[0] == "train":
            argv += ["--out-dir", str(tmp_path / "runs")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "line 2:" in err and "UTF-8" in err
        if "--config" in command:
            assert f"{config} line 2:" in err


class TestIngestAndStats:
    def test_ingest_reports_counts(self, planted_file, capsys):
        assert main(["ingest", "--data", str(planted_file)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out and "threads:" in out

    def test_ingest_writes_split_manifest(self, planted_file, tmp_path):
        assert main(["ingest", "--data", str(planted_file),
                     "--split-out", str(tmp_path / "split")]) == 0
        for part in ("train", "dev", "test"):
            assert (tmp_path / "split" / f"{part}.ids").exists()

    @pytest.mark.parametrize("ratios,message", [
        ("a,b", "could not convert string to float: 'a'"),
        ("nan,nan,nan", "ratios must be three positive fractions that sum to 1"),
        ("0.5,0.5", "ratios must be three positive fractions that sum to 1"),
        ("0.5,0.5,-0.1", "ratios must be three positive fractions that sum to 1"),
        ("0.5,0.5,0.5", "ratios must be three positive fractions that sum to 1"),
    ], ids=["non-number", "nan", "count", "non-positive", "sum"])
    def test_bad_ratios_exit_one(self, planted_file, tmp_path, capsys, ratios, message):
        """Every ratios refusal names the flag and its value."""
        assert main(["ingest", "--data", str(planted_file), "--ratios", ratios,
                     "--split-out", str(tmp_path / "split")]) == 1
        assert capsys.readouterr().err == f"error: --ratios {ratios!r}: {message}\n"
        assert not (tmp_path / "split").exists()

    def test_split_refusal_names_the_file(self, few_file, tmp_path, capsys):
        assert main(["ingest", "--data", str(few_file),
                     "--split-out", str(tmp_path / "split")]) == 1
        assert capsys.readouterr().err == f"error: {few_file}: {FEW_REFUSAL}"
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("command", ["ingest", "stats"])
    @pytest.mark.parametrize("reply,message", [
        ({"parent_id": []}, "parent_id must be a string or null"),
        ({"id": 2, "parent_id": 1}, "id must be a string"),
        ({"id": None}, "id must be a string"),
        ({"created_at": "2020-03-01T12:05:00"},
         "created_at '2020-03-01T12:05:00' lacks a UTC offset"),
        ({"id": "r\rs"}, "id must not hold a tab or line break"),
        ({"parent_id": "a\tb"}, "parent_id must not hold a tab or line break"),
    ], ids=["list-parent", "numeric-ids", "null-id", "naive-time", "cr-id", "tab-parent"])
    def test_bad_record_exits_one_naming_file_and_line(self, planted_file, tmp_path, capsys,
                                                       command, reply, message):
        source = json.loads(planted_file.read_text(encoding="utf-8").splitlines()[0])
        path = tmp_path / "bad.jsonl"
        reply = {**source, "id": "r", "parent_id": source["id"], **reply}
        reply.pop("label")
        path.write_text(json.dumps(source) + "\n" + json.dumps(reply) + "\n", encoding="utf-8")
        assert main([command, "--data", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path} line 2: {message}\n"

    @pytest.mark.parametrize("command", ["ingest", "stats"])
    def test_next_years_account_exits_one_naming_file_and_line(self, planted_file, tmp_path,
                                                              capsys, command):
        """The loader reads the current year once per file; a record still
        may not name a later one."""
        year = datetime.now(timezone.utc).year
        lines = planted_file.read_text(encoding="utf-8").splitlines()
        path = tmp_path / "future.jsonl"
        future = {**json.loads(lines[1]), "account_created_year": year + 1}
        path.write_text("\n".join([lines[0], json.dumps(future)] + lines[2:]) + "\n",
                        encoding="utf-8")
        assert main([command, "--data", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: {path} line 2: account_created_year "
                                           f"{year + 1} outside [2006, {year}]\n")

    def test_oversized_count_exits_one_before_training(self, planted_file, tmp_path, capsys):
        lines = planted_file.read_text(encoding="utf-8").splitlines()
        path = tmp_path / "huge.jsonl"
        huge = {**json.loads(lines[0]), "followers": 10**400}
        path.write_text("\n".join([lines[1], json.dumps(huge)] + lines[2:]) + "\n",
                        encoding="utf-8")
        assert main(["train", "--data", str(path), "--model", "logreg",
                     "--out-dir", str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == (f"error: [stage: ingest] {path} line 2: "
                                           "followers must be a non-negative integer below 2**63\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["ingest", "stats"])
    @pytest.mark.parametrize("replies,message", [
        ([{"id": "a", "parent_id": "b"}, {"id": "b", "parent_id": "a"}],
         "cyclic parent links: a -> b -> a"),
        ([{"id": "r", "created_at": "2019-01-01T00:00:00+00:00"}],
         "reply r predates source {source}"),
    ], ids=["cycle", "predates"])
    def test_assembly_error_names_file(self, planted_file, tmp_path, capsys,
                                       command, replies, message):
        source = json.loads(planted_file.read_text(encoding="utf-8").splitlines()[0])
        path = tmp_path / "bad.jsonl"
        lines = [source] + [{**source, "parent_id": source["id"], "label": None, **reply}
                            for reply in replies]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        assert main([command, "--data", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: {message.format(source=source['id'])}\n"

    def test_stats_summary(self, planted_file, capsys):
        assert main(["stats", "--data", str(planted_file)]) == 0
        out = capsys.readouterr().out
        assert "label rumour" in out
        assert "first tweet" in out


class TestBuildTrees:
    def test_writes_corpus_and_vocab(self, planted_file, tmp_path):
        out = tmp_path / "trees.txt"
        assert main(["build-trees", "--data", str(planted_file),
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# rumourlab-tree v1")
        assert out.with_suffix(".vocab.txt").exists()
        assert out.with_suffix(".idf.txt").exists()

    def test_trees_are_the_ones_the_model_prepares(self, tmp_path, monkeypatch):
        """With keep_reply_links the corpus file keeps the reply chains:
        it holds the trees a Bi-GCN with the same config and the written
        vocabulary prepares, up to the 12-digit value printing."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import corpus

        data = tmp_path / "labeled.jsonl"
        corpus.generate(corpus.CorpusShape(
            labeled_threads=24, unlabeled_threads=1, rumour_rate=0.5, reply_cap=12,
            reply_tail=1.2, reply_scale=4.0, chain_prob=0.5, months=3),
            5, data, tmp_path / "unlabeled.jsonl")
        config_path = tmp_path / "trees.cfg"
        config_path.write_text("keep_reply_links = true\n", encoding="utf-8")
        out = tmp_path / "trees.txt"
        assert main(["build-trees", "--data", str(data), "--out", str(out),
                     "--config", str(config_path)]) == 0
        tfidf = load_vocabulary(out.with_suffix(".vocab.txt"), out.with_suffix(".idf.txt"))
        threads, _ = assemble_threads(load_tweets(data), data)
        expected = BiGcnModel(load_config(config_path), tfidf).prepare(threads).trees
        assert any(node.parent not in (None, 1) for tree in expected for node in tree.nodes)
        written = read_tree_corpus(out)
        assert len(written) == len(expected)
        for got, want in zip(written, expected):
            assert (got.thread_id, got.label) == (want.thread_id, want.label)
            assert [(n.index, n.parent) for n in got.nodes] == \
                [(n.index, n.parent) for n in want.nodes]
            for a, b in zip(got.nodes, want.nodes):
                assert [i for i, _ in a.features.entries] == [i for i, _ in b.features.entries]
                assert np.allclose([v for _, v in a.features.entries],
                                   [v for _, v in b.features.entries], rtol=1e-11, atol=0)

    def test_corpus_bytes_are_the_per_tweet_transform_bytes(self, planted_file, tmp_path):
        """Each node holds the per-document transform of its own tweet's
        tokens, so the corpus keeps the bytes of a per-tweet build."""
        out = tmp_path / "trees.txt"
        assert main(["build-trees", "--data", str(planted_file), "--out", str(out)]) == 0
        tfidf = load_vocabulary(out.with_suffix(".vocab.txt"), out.with_suffix(".idf.txt"))
        threads, _ = assemble_threads(load_tweets(planted_file), planted_file)
        oracle = [PropTree(thread_id=thread.id, label=thread.label, nodes=tuple(
            PropNode(index=i, parent=None if i == 1 else 1,
                     features=oracle_transform_tfidf(tfidf, tokenize(normalize(tweet.text))))
            for i, tweet in enumerate(thread.tweets(), start=1))) for thread in threads]
        write_tree_corpus(oracle, tmp_path / "oracle.txt")
        assert out.read_bytes() == (tmp_path / "oracle.txt").read_bytes()

    def test_no_labeled_thread_is_refused_naming_the_file(self, unlabeled_file, tmp_path,
                                                          capsys):
        out = tmp_path / "trees.txt"
        assert main(["build-trees", "--data", str(unlabeled_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {unlabeled_file} holds no labeled thread to fit the TF-IDF on\n"
        assert not out.exists()

    def test_split_refusal_names_the_file(self, few_file, tmp_path, capsys):
        out = tmp_path / "trees.txt"
        assert main(["build-trees", "--data", str(few_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {few_file}: {FEW_REFUSAL}"
        assert not out.exists()

    def test_feature_files_are_the_ones_a_bigcn_run_writes(self, bigcn_run, planted_file,
                                                           tmp_path):
        out = tmp_path / "trees.txt"
        assert main(["build-trees", "--data", str(planted_file), "--out", str(out),
                     "--config", str(bigcn_run / "config.txt")]) == 0
        for suffix in ("vocab", "idf"):
            assert out.with_suffix(f".{suffix}.txt").read_bytes() == \
                (bigcn_run / f"{suffix}.txt").read_bytes()


class TestTrainPredictEvaluate:
    def test_train_writes_artifacts(self, trained_run):
        names = {p.name for p in trained_run.iterdir()}
        assert {"config.txt", "report.txt", "metrics.txt",
                "predictions.txt", "ckpt_seed1.txt"} <= names

    def test_train_deterministic_checkpoints(self, planted_file, tmp_path):
        args = ["train", "--data", str(planted_file), "--model", "logreg",
                "--set", "features = tfidf", "--set", "classic_iters = 60"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        (run_a,) = list((tmp_path / "a").iterdir())
        (run_b,) = list((tmp_path / "b").iterdir())
        assert (run_a / "ckpt_seed1.txt").read_bytes() == \
            (run_b / "ckpt_seed1.txt").read_bytes()

    @pytest.mark.parametrize("shape, settings", [
        pytest.param(dict(labeled_threads=240, rumour_rate=0.2, reply_cap=60, reply_tail=1.5,
                          reply_scale=4.0, chain_prob=0.3, months=6),
                     ["model = logreg", "features = both", "tfidf_top_k = 4000",
                      "smote = true", "seeds = 1", "classic_iters = 5"], id="logreg"),
        pytest.param(dict(labeled_threads=56, rumour_rate=0.5, reply_cap=300, reply_tail=1.2,
                          reply_scale=20.0, chain_prob=0.4, months=6, vocab_types=100_000,
                          zipf_exponent=0.8),
                     ["model = lstm", "seeds = 1", "max_epochs = 1"], id="lstm"),
    ])
    def test_run_files_do_not_depend_on_blas_threads(self, tmp_path, monkeypatch, shape,
                                                     settings):
        """The same training at one and two BLAS threads writes the same
        bytes. On bench-shaped corpora the TF-IDF logreg's products and the
        LSTM's input projection over every step are large enough for
        OpenBLAS to split them across threads."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import corpus

        data = tmp_path / "labeled.jsonl"
        corpus.generate(corpus.CorpusShape(unlabeled_threads=1, **shape), 4, data,
                        tmp_path / "unlabeled.jsonl")
        source = str(Path(rumourlab.__file__).resolve().parent.parent)
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "rumourlab.cli", "train", "--data", str(data),
                 "--out-dir", str(out)] + [arg for line in settings for arg in ("--set", line)],
                env=env, check=True, capture_output=True)
            (run_dir,) = out.iterdir()
            runs.append({p.relative_to(run_dir): p.read_bytes()
                         for p in sorted(run_dir.rglob("*")) if p.is_file()})
        assert Path("ckpt_seed1.txt") in runs[0]
        differing = sorted(str(name) for name in runs[0].keys() | runs[1].keys()
                           if runs[0].get(name) != runs[1].get(name))
        assert differing == []

    def test_predict_one_line_per_thread(self, trained_run, unlabeled_file, capsys):
        assert main(["predict", "--run", str(trained_run),
                     "--data", str(unlabeled_file)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 8
        for line in lines:
            thread_id, label, score = line.split("\t")
            assert label in ("rumour", "nonrumour")
            float(score)

    @pytest.mark.parametrize("model", ["logreg", "rf"])
    def test_predict_on_empty_dataset_prints_nothing(self, planted_file, tmp_path, capsys,
                                                     model):
        out = tmp_path / "runs"
        assert main(["train", "--data", str(planted_file), "--model", model,
                     "--out-dir", str(out), "--set", "features = handcrafted",
                     "--set", "classic_iters = 20", "--set", "rf_trees = 2"]) == 0
        (run_dir,) = list(out.iterdir())
        (tmp_path / "empty.jsonl").write_text("")
        capsys.readouterr()
        assert main(["predict", "--run", str(run_dir),
                     "--data", str(tmp_path / "empty.jsonl")]) == 0
        assert capsys.readouterr().out == ""

    def test_awkward_ids_evaluate_the_whole_test_split(self, tmp_path):
        # Every thread id starts with '#' or a space, or holds U+0085 or
        # U+2028; evaluate must read back the test split train wrote.
        forms = ("#{}", " {} ", "{}\u0085x", "{}\u2028x")
        records = []
        for record in make_planted_records(n_threads=60, seed=4):
            form = forms[int((record.parent_id or record.id)[1:6]) % len(forms)]
            records.append(record._replace(
                id=form.format(record.id),
                parent_id=record.parent_id and form.format(record.parent_id)))
        save_tweets(records, tmp_path / "awkward.jsonl")
        out = tmp_path / "runs"
        assert main(["train", "--data", str(tmp_path / "awkward.jsonl"), "--model", "logreg",
                     "--out-dir", str(out), "--set", "classic_iters = 20"]) == 0
        (run_dir,) = list(out.iterdir())
        assert main(["evaluate", "--run", str(run_dir)]) == 0

        def support(name):
            lines = (run_dir / name).read_text(encoding="utf-8").split("\n")
            return sum(int(line.split()[-1]) for line in lines if line[:2] in ("R ", "N "))

        test_ids = (run_dir / "split" / "test.ids").read_text(encoding="utf-8").split("\n")
        assert support("eval_report.txt") == support("report.txt") == len(test_ids) - 5

    def test_evaluate_writes_report(self, trained_run, capsys):
        assert main(["evaluate", "--run", str(trained_run)]) == 0
        assert (trained_run / "eval_report.txt").exists()

    def test_predict_with_damaged_idf_exits_one(self, trained_run, unlabeled_file,
                                                 tmp_path, capsys):
        run_dir = tmp_path / trained_run.name
        shutil.copytree(trained_run, run_dir)
        lines = (run_dir / "idf.txt").read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("\t", " ")
        (run_dir / "idf.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["predict", "--run", str(run_dir), "--data", str(unlabeled_file)]) == 1
        assert f"error: {run_dir / 'idf.txt'} line 2: expected term<TAB>idf\n" == \
            capsys.readouterr().err

    def test_predict_with_nan_checkpoint_exits_one(self, trained_run, unlabeled_file,
                                                   tmp_path, capsys):
        # Training never saves a non-finite parameter; one that got in must not score.
        run_dir = tmp_path / trained_run.name
        shutil.copytree(trained_run, run_dir)
        path = run_dir / "ckpt_seed1.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        line_no = next(n for n, line in enumerate(lines, 1) if line.startswith("w "))
        name, shape, payload = lines[line_no - 1].split(" ")
        values = np.frombuffer(base64.b64decode(payload), dtype="<f8").copy()
        values[0] = np.nan
        lines[line_no - 1] = f"{name} {shape} {base64.b64encode(values.tobytes()).decode()}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["predict", "--run", str(run_dir), "--data", str(unlabeled_file)]) == 1
        assert capsys.readouterr().err == \
            f"error: {path} line {line_no}: non-finite value in parameter 'w'\n"

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_incomplete_run_exits_one(self, trained_run, unlabeled_file, tmp_path,
                                      capsys, command):
        run_dir = tmp_path / trained_run.name
        shutil.copytree(trained_run, run_dir)
        (run_dir / "report.txt").unlink()
        assert main([command, "--run", str(run_dir), "--data", str(unlabeled_file)]) == 1
        assert f"{run_dir}: incomplete run (no report.txt)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("setting", ["optimizer = adam", "top_n = 20",
                                         "exclude_keywords = covid,corona virus"])
    def test_retired_config_key_exits_one(self, trained_run, unlabeled_file, tmp_path,
                                          capsys, command, setting):
        # Runs written before these keys left RunConfig must be retrained.
        run_dir = tmp_path / trained_run.name
        shutil.copytree(trained_run, run_dir)
        path = run_dir / "config.txt"
        lines = sorted(path.read_text(encoding="utf-8").splitlines() + [setting])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        key = setting.split(" =")[0]
        assert main([command, "--run", str(run_dir), "--data", str(unlabeled_file)]) == 1
        assert capsys.readouterr().err == \
            f"error: {path} line {lines.index(setting) + 1}: unknown config key {key!r}\n"

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_truncated_config_exits_one(self, svm_run, unlabeled_file, tmp_path, capsys,
                                        command):
        # Cut before its model line, an svm run's config parses as logreg
        # (missing keys take defaults), and the svm checkpoint fits logreg.
        run_dir = tmp_path / svm_run.name
        shutil.copytree(svm_run, run_dir)
        path = run_dir / "config.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[18] == "model = svm"
        path.write_text("\n".join(lines[:18]) + "\n", encoding="utf-8")
        assert main([command, "--run", str(run_dir), "--data", str(unlabeled_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path} line 19: differs from the canonical text of its "
                       "settings, which reads 'model = logreg' here\n")

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text[:-1],
        lambda text: text + "seeds = 1\n",
        lambda text: "\n".join(sorted(text.splitlines(), reverse=True)) + "\n",
    ], ids=["crlf", "no-final-newline", "repeated-key", "reordered"])
    def test_edited_config_exits_one(self, trained_run, unlabeled_file, tmp_path, capsys,
                                     edit):
        run_dir = tmp_path / trained_run.name
        shutil.copytree(trained_run, run_dir)
        path = run_dir / "config.txt"
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8", newline="")
        assert main(["predict", "--run", str(run_dir), "--data", str(unlabeled_file)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path} line ")

    @pytest.mark.parametrize("name,damage,line_no", [
        # The forest is cut after its first tree; line 2 holds n_trees.
        ("forest_seed1.txt", lambda lines: lines[:lines.index("tree 1")], 2),
        ("forest_seed1.txt", lambda lines: lines[:3] + [lines[4]] + lines[3:], 4),
        ("forest_seed1.txt", lambda lines: lines[:4] + [" ".join(lines[4].split()[:3])]
         + lines[5:], 5),
        # The root of tree 0 splits; point its left child outside the tree.
        ("forest_seed1.txt", lambda lines: lines[:4] + [lines[4].replace(" 1 ", " 99 ", 1)]
         + lines[5:], 5),
        ("split/test.ids", lambda lines: [line.replace("# seed = 13", "# seed = x")
                                          for line in lines], 2),
        # "\udcff" is written as the byte 0xff.
        ("vocab.txt", lambda lines: lines[:5] + [lines[5] + "\udcff"] + lines[6:], 6),
        ("idf.txt", lambda lines: lines[:2] + [lines[2] + "\udcff"] + lines[3:], 3),
        ("vocab.txt", lambda lines: lines[1:], 1),
        ("idf.txt", lambda lines: lines[1:], 1),
        ("idf.txt", lambda lines: lines[:2] + ["nosuchterm\t1.0"] + lines[3:], 3),
        ("idf.txt", lambda lines: lines[:1] + [lines[1].split("\t")[0] + "\tnan"] + lines[2:],
         2),
        ("idf.txt", lambda lines: lines[:3] + [lines[2]] + lines[3:], 4),
        ("idf.txt", lambda lines: lines[:20], 20),
        # Line 3 holds feature_dim; ten times the run's width still parses.
        ("forest_seed1.txt", lambda lines: lines[:2] + [lines[2] + "0"] + lines[3:], 3),
        ("forest_seed1.txt", lambda lines: lines[:3] + [lines[2]] + lines[3:], 4),
    ], ids=["cut", "node-before-tree", "three-fields", "child-99", "split-seed",
            "vocab-byte", "idf-byte", "vocab-header", "idf-header", "idf-unknown-term",
            "idf-nan", "idf-repeated-term", "idf-cut", "feature-dim", "feature-dim-repeated"])
    def test_damaged_run_file_exits_one_naming_line(self, forest_run, tmp_path, capsys,
                                                    name, damage, line_no):
        run_dir = tmp_path / forest_run.name
        shutil.copytree(forest_run, run_dir)
        path = run_dir / name
        lines = damage(path.read_text(encoding="utf-8").splitlines())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        assert main(["evaluate", "--run", str(run_dir)]) == 1
        assert f"error: {path} line {line_no}:" in capsys.readouterr().err

    @pytest.mark.parametrize("run,name,damage,message", [
        ("lstm_run", "ckpt_seed1.txt", lambda lines: lines[:3],
         "parameter 'embed' is missing"),
        ("bigcn_run", "ckpt_seed1.txt", lambda lines: lines[:3],
         "parameter 'td_w1' is missing"),
        ("trained_run", "ckpt_seed1.txt", lambda lines: lines[:3],
         "parameter 'w' is missing"),
        ("trained_run", "ckpt_seed1.txt", lambda lines: [
            "feature_mean 3 " + base64.b64encode(np.zeros(3).tobytes()).decode()
            if line.startswith("feature_mean ") else line for line in lines],
         "parameter 'feature_mean' has shape 3, expected "),
        # A shorter vocabulary no longer fits the embedding trained on it.
        ("lstm_run", "vocab.txt", lambda lines: lines[:40], "parameter 'embed' has shape "),
    ], ids=["lstm-cut", "bigcn-cut", "logreg-cut", "feature-mean", "lstm-vocab"])
    def test_damaged_seed_payload_exits_one(self, request, unlabeled_file, tmp_path, capsys,
                                            run, name, damage, message):
        """A checkpoint must hold the parameters of the model that the
        run's config and vocabulary build, in their shapes."""
        trained = request.getfixturevalue(run)
        run_dir = tmp_path / trained.name
        shutil.copytree(trained, run_dir)
        path = run_dir / name
        path.write_text("\n".join(damage(path.read_text(encoding="utf-8").splitlines()))
                        + "\n", encoding="utf-8")
        capsys.readouterr()  # what training the run printed
        assert main(["predict", "--run", str(run_dir), "--data", str(unlabeled_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'ckpt_seed1.txt'}") and message in err, err

    def test_repeated_vocabulary_term_exits_one_naming_line(self, lstm_run, unlabeled_file,
                                                             tmp_path, capsys):
        """A term listed twice would map to its later id only, which moves
        the ids of the terms between the two lines."""
        run_dir = tmp_path / lstm_run.name
        shutil.copytree(lstm_run, run_dir)
        path = run_dir / "vocab.txt"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[10] = lines[11]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()  # what training the run printed
        assert main(["predict", "--run", str(run_dir), "--data", str(unlabeled_file)]) == 1
        assert capsys.readouterr().err == \
            f"error: {path} line 12: vocabulary term {lines[11]!r} repeated\n"

    @pytest.mark.parametrize("model", ["lstm", "logreg"])
    @pytest.mark.parametrize("class_weights", ["true", "false"])
    def test_one_class_train_split_writes_nothing(self, tmp_path, capsys, model,
                                                  class_weights):
        """Every kind needs both classes to learn from, whether or not it
        weighs them."""
        data = tmp_path / "rumours.jsonl"
        save_tweets([r if r.label is None else r._replace(label="rumour")
                     for r in make_planted_records(40, seed=1)], data)
        out = tmp_path / "runs"
        assert main(["train", "--data", str(data), "--model", model, "--out-dir", str(out),
                     "--set", f"class_weights = {class_weights}"]) == 1
        assert "no examples of class(es) in the train split: ['nonrumour']" in \
            capsys.readouterr().err
        assert not out.exists()
        # The trees train nothing, so they still build.
        assert main(["build-trees", "--data", str(data), "--out", str(tmp_path / "t.txt")]) == 0

    def test_split_refusal_names_the_file(self, few_file, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["train", "--data", str(few_file), "--model", "logreg",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [stage: split] {few_file}: {FEW_REFUSAL}"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["logreg", "svm", "rf"])
    def test_train_split_smote_cannot_balance_writes_nothing(self, tmp_path, capsys, model):
        """Three rumour threads split one to each part, and SMOTE needs two
        in the train split: the refusal comes before the run directory."""
        data = tmp_path / "rare.jsonl"
        save_tweets(make_planted_records(30, rumour_rate=0.1, seed=1, max_replies=1), data)
        out = tmp_path / "runs"
        assert main(["train", "--data", str(data), "--model", model, "--out-dir", str(out),
                     "--set", "smote = true", "--set", "ratios = 0.4,0.3,0.3"]) == 1
        assert capsys.readouterr().err == \
            "error: [stage: featurize] SMOTE needs at least two minority examples\n"
        assert not out.exists()
        # Without SMOTE the same split trains.
        assert main(["train", "--data", str(data), "--model", model, "--out-dir", str(out),
                     "--set", "ratios = 0.4,0.3,0.3", "--set", "rf_trees = 2"]) == 0

    @pytest.mark.parametrize("model", ["lstm", "logreg"])
    @pytest.mark.parametrize("ratios,empty", [("0.7,0.05,0.25", "dev"),
                                              ("0.8,0.1,0.1", "test")])
    def test_empty_dev_or_test_split_writes_nothing(self, tmp_path, capsys, model, ratios,
                                                    empty):
        """Twelve threads leave one split empty under these ratios. Before the
        check, logreg scored a nan dev accuracy or every kind trained and then
        failed on the empty test split, with files left behind."""
        data = tmp_path / "small.jsonl"
        save_tweets(make_planted_records(n_threads=12, seed=1), data)
        out = tmp_path / "runs"
        assert main(["train", "--data", str(data), "--model", model, "--out-dir", str(out),
                     "--set", f"ratios = {ratios}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [stage: split] no threads in the split(s) "
                              f"['{empty}']: ratios ")
        assert "over 12 labeled threads" in err
        assert not out.exists()

    @pytest.mark.parametrize("model,setting", [
        ("bigcn", "dropout = 2"),
        ("bigcn", "tfidf_top_k = 0"),
        ("lstm", "lr = 0"),
        ("rf", "rf_trees = 0"),
        ("logreg", "smote_k = 0"),
        ("lstm", "lr = nan"),
        ("lstm", "epsilon = 0"),
        ("bigcn", "weight_decay = -1"),
        # Each setting is checked whichever model runs.
        ("rf", "seeds = -1"),
        ("lstm", "seeds = -1"),
        ("lstm", "seeds = 1,1"),
        ("lstm", "vocab_cap = 2"),
        ("logreg", "dropout = 2"),
        ("lstm", "rf_trees = 0"),
        ("bigcn", "max_len = 0"),
    ])
    def test_bad_config_writes_nothing(self, planted_file, tmp_path, capsys,
                                       model, setting):
        out = tmp_path / "runs"
        assert main(["train", "--data", str(planted_file), "--model", model,
                     "--out-dir", str(out), "--set", setting]) == 1
        key = setting.split(" =")[0]
        assert capsys.readouterr().err.startswith(f"error: --set {setting!r}: {key} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("model,setting,largest", [
        ("lstm", "hidden_dim=1000000000", "w_hi of shape (1000000000, 1000000000)"),
        ("bigcn", "bigcn_hidden_dim=1000000000", "td_w2 of shape (2000000000, 64)"),
    ])
    def test_oversized_model_exits_one_and_writes_nothing(self, planted_file, tmp_path, capsys,
                                                         model, setting, largest):
        """The parameter count is checked from the layout before any draw or
        write; the LSTM case used to end in an internal MemoryError with a
        run directory left behind."""
        out = tmp_path / "runs"
        assert main(["train", "--data", str(planted_file), "--model", model,
                     "--out-dir", str(out), "--set", setting]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: featurize] ")
        assert err.endswith(" parameter values exceed the bound of 2**28 = 268435456; "
                            f"the largest is {largest}\n")
        assert not out.exists()

    def test_memory_error_in_a_stage_exits_one_naming_it(self, planted_file, tmp_path,
                                                         capsys, monkeypatch):
        """numpy's allocation error carries (shape, dtype) as two arguments,
        so the stage is named in a new error."""
        def no_memory(*args, **kwargs):
            raise MemoryError((28, 10 ** 9), "int64")

        monkeypatch.setattr(lstm_module, "lstm_inputs", no_memory)
        out = tmp_path / "runs"
        assert main(["train", "--data", str(planted_file), "--model", "lstm",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: [stage: featurize] out of memory: ((28, 1000000000), 'int64')\n"
        assert not out.exists()

    def test_memory_error_outside_a_stage_exits_one(self, planted_file, capsys, monkeypatch):
        def no_memory(path):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_tweets", no_memory)
        assert main(["stats", "--data", str(planted_file)]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("source,text,message", [
        ("--config", "seeds 1\n", "{config} line 1: expected key = value"),
        ("--config", "model = rf\nseeds = x\n", "{config} line 2: bad value for 'seeds': 'x'"),
        ("--config", "sedes = 1\n", "{config} line 1: unknown config key 'sedes'"),
        ("--set", "seeds 1", "--set 'seeds 1': expected key = value"),
        ("--set", "seeds = x", "--set 'seeds = x': bad value for 'seeds': 'x'"),
        ("--config", "model = logreg\ndropout = 2\n", "{config} line 2: dropout must be in [0, 1)"),
        ("--set", "classic_iters = 0", "--set 'classic_iters = 0': classic_iters must be at least 1"),
        ("--set", "classic_lr = 0",
         "--set 'classic_lr = 0': classic_lr must be finite and positive"),
        ("--model", "mlp", "--model 'mlp': model must be one of lstm, bigcn, logreg, svm, rf"),
        ("--data", "d#1.jsonl",
         "--data 'd#1.jsonl': dataset must be a path without '#', a line break or outer spaces"),
        # U+0085 ends no line, so the bad value is named on line 2.
        ("--config", "dataset = a\u0085b\nmodel = mlp\n",
         "{config} line 2: model must be one of lstm, bigcn, logreg, svm, rf"),
        # No reader keeps the later of two entries for one key.
        ("--config", "seeds = 1\nmodel = svm\n# rf next\nmodel = rf\n",
         "{config} line 4: config key 'model' repeated (first given on line 2)"),
        ("--set", ("model = svm", "seeds = 1", "model=rf"),
         "--set 'model=rf': config key 'model' repeated (first given by --set 'model = svm')"),
    ], ids=["config-no-equals", "config-bad-value", "config-unknown-key", "set-no-equals",
            "set-bad-value", "config-range", "set-classic-iters", "set-classic-lr",
            "flag-model", "flag-data", "config-nel-value", "config-repeated-key",
            "set-repeated-key"])
    def test_config_error_names_its_source(self, planted_file, tmp_path, capsys,
                                           source, text, message):
        config = tmp_path / "c.cfg"
        out = tmp_path / "runs"
        argv = ["train", "--data", str(planted_file), "--out-dir", str(out)]
        if source == "--config":
            config.write_text(text, encoding="utf-8")
            argv += [source, str(config)]
        else:
            # A tuple stands for one flag per value.
            for value in (text,) if isinstance(text, str) else text:
                argv += [source, value]
        assert main(argv) == 1
        assert f"error: {message.format(config=config)}\n" == capsys.readouterr().err
        assert not out.exists()


    def test_set_overrides_a_key_from_the_config_file(self, planted_file, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("model = svm\nseeds = 1\nclassic_iters = 5\n", encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["train", "--data", str(planted_file), "--out-dir", str(out),
                     "--config", str(config), "--set", "model = rf",
                     "--set", "rf_trees = 2"]) == 0
        (run_dir,) = out.iterdir()
        assert run_dir.name.startswith("rf-")


class TestOneTextPass:
    @pytest.mark.parametrize("model,settings,passes", [
        ("lstm", ["vocab_cap = 200", "embed_dim = 4", "hidden_dim = 4", "perceptron_dim = 4",
                  "max_len = 16", "max_epochs = 1"], 1),
        ("bigcn", ["tfidf_top_k = 100", "bigcn_hidden_dim = 4", "bigcn_out_dim = 4",
                   "max_epochs = 1"], 1),
        ("logreg", ["features = both", "classic_iters = 5"], 1),
        ("logreg", ["features = handcrafted", "classic_iters = 5"], 0),
    ], ids=["lstm", "bigcn", "logreg-both", "logreg-handcrafted"])
    def test_train_tokenizes_each_tweet_once(self, planted_file, tmp_path, monkeypatch,
                                            model, settings, passes):
        """A train reads text through one token table; a run without text
        features builds none."""
        texts = []
        original = textproc.tokenize

        def counting(text):
            texts.append(text)
            return original(text)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("rumourlab") and \
                    module.__dict__.get("tokenize") is original:
                monkeypatch.setattr(module, "tokenize", counting)
        argv = ["train", "--data", str(planted_file), "--model", model,
                "--out-dir", str(tmp_path / "runs"), "--set", "seeds = 1,2"]
        assert main(argv + [arg for line in settings for arg in ("--set", line)]) == 0
        threads, _ = assemble_threads(load_tweets(planted_file), planted_file)
        tweets = [tweet for thread in threads if thread.label is not None
                  for tweet in thread.tweets()]
        assert len(texts) == passes * len(tweets)
        assert sorted(texts) == sorted(normalize(tweet.text) for tweet in tweets) * passes


class TestAnalyzeCommand:
    @pytest.mark.parametrize("kind,filename", [
        ("attributes", "attributes.csv"),
        ("topics", "topics.csv"),
        ("emotion", "emotion.csv"),
        ("sentiment", "sentiment.csv"),
    ])
    def test_labeled_data_analysis(self, planted_file, tmp_path, kind, filename):
        out = tmp_path / kind
        assert main(["analyze", "--kind", kind, "--data", str(planted_file),
                     "--out", str(out)]) == 0
        text = (out / filename).read_text(encoding="utf-8")
        assert text.splitlines()[0].count(",") >= 3

    @pytest.mark.parametrize("top_n", ["0", "-2"])
    def test_top_n_below_one_exits_one(self, planted_file, tmp_path, capsys, top_n):
        out = tmp_path / "topics"
        assert main(["analyze", "--kind", "topics", "--data", str(planted_file),
                     "--out", str(out), "--top-n", top_n]) == 1
        assert capsys.readouterr().err == f"error: --top-n must be at least 1, got {top_n}\n"
        assert not out.exists()

    def test_unlabeled_without_model_exits_one(self, unlabeled_file, tmp_path, capsys):
        assert main(["analyze", "--kind", "attributes",
                     "--data", str(unlabeled_file),
                     "--out", str(tmp_path / "x")]) == 1
        assert "unlabeled" in capsys.readouterr().err

    def test_run_only_fills_in_missing_labels(self, unlabeled_file, trained_run, tmp_path,
                                              capsys):
        # Every labeled thread says rumour, though about half lack the
        # marker the run learned; the unlabeled block sits between them.
        labeled = [
            record._replace(id=f"l{record.id}",
                            parent_id=record.parent_id and f"l{record.parent_id}",
                            label=None if record.parent_id else "rumour")
            for record in make_planted_records(n_threads=20, seed=7, max_replies=1)
        ]
        middle = [i for i, record in enumerate(labeled) if record.parent_id is None][10]
        unlabeled = load_tweets(unlabeled_file)
        mixed = tmp_path / "mixed.jsonl"
        save_tweets(labeled[:middle] + unlabeled + labeled[middle:], mixed)
        capsys.readouterr()
        assert main(["predict", "--run", str(trained_run), "--data", str(unlabeled_file)]) == 0
        predicted = dict(line.split("\t")[:2] for line in capsys.readouterr().out.splitlines())
        filled = [record._replace(label=predicted.get(record.id))
                  for record in unlabeled]
        expected = tmp_path / "filled.jsonl"
        save_tweets(labeled[:middle] + filled + labeled[middle:], expected)

        for kind in ("attributes", "sentiment"):
            assert main(["analyze", "--kind", kind, "--data", str(mixed),
                         "--run", str(trained_run), "--out", str(tmp_path / "run")]) == 0
            assert main(["analyze", "--kind", kind, "--data", str(expected),
                         "--out", str(tmp_path / "own")]) == 0
            assert (tmp_path / "run" / f"{kind}.csv").read_bytes() == \
                (tmp_path / "own" / f"{kind}.csv").read_bytes()
        rows = [line.split(",") for line in
                (tmp_path / "run" / "attributes.csv").read_text(encoding="utf-8").splitlines()]
        rumours = sum(int(row[4]) for row in rows if row[:2] == ["urls", "rumour"])
        assert rumours == 20 + list(predicted.values()).count("rumour")

    def test_unlabeled_with_model_predicts(self, unlabeled_file, trained_run, tmp_path):
        out = tmp_path / "predicted"
        assert main(["analyze", "--kind", "attributes",
                     "--data", str(unlabeled_file), "--run", str(trained_run),
                     "--out", str(out)]) == 0
        assert (out / "attributes.csv").exists()
