import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rumourlab
from rumourlab.cli import main
from rumourlab.ingest import save_tweets
from rumourlab.synthetic import make_planted_records


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    save_tweets(make_planted_records(n_threads=30, seed=2, max_replies=2), path)
    return path


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

    def test_selftest_passes_and_prints_per_suite(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") >= 8
        assert "FAIL" not in out


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
        ("a,b", "error: --ratios: expected numbers"),
        ("nan,nan,nan", "error: ratios must be three positive fractions"),
    ])
    def test_bad_ratios_exit_one(self, planted_file, tmp_path, capsys, ratios, message):
        assert main(["ingest", "--data", str(planted_file), "--ratios", ratios,
                     "--split-out", str(tmp_path / "split")]) == 1
        assert message in capsys.readouterr().err

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

    def test_run_files_do_not_depend_on_blas_threads(self, tmp_path, monkeypatch):
        """The same training at one and two BLAS threads writes the same
        bytes. The TF-IDF logreg on a bench corpus is wide enough for
        OpenBLAS to split its products across threads."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import corpus

        shape = corpus.CorpusShape(
            labeled_threads=240, unlabeled_threads=1, rumour_rate=0.2, reply_cap=60,
            reply_tail=1.5, reply_scale=4.0, chain_prob=0.3, months=6)
        data = tmp_path / "labeled.jsonl"
        corpus.generate(shape, 4, data, tmp_path / "unlabeled.jsonl")
        source = str(Path(rumourlab.__file__).resolve().parent.parent)
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "rumourlab.cli", "train", "--data", str(data),
                 "--model", "logreg", "--out-dir", str(out), "--set", "features = both",
                 "--set", "tfidf_top_k = 4000", "--set", "smote = true",
                 "--set", "seeds = 1", "--set", "classic_iters = 5"],
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
            records.append(dataclasses.replace(
                record, id=form.format(record.id),
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
    ], ids=["cut", "node-before-tree", "three-fields", "child-99", "split-seed",
            "vocab-byte", "idf-byte", "vocab-header", "idf-header", "idf-unknown-term"])
    def test_damaged_run_file_exits_one_naming_line(self, forest_run, tmp_path, capsys,
                                                    name, damage, line_no):
        run_dir = tmp_path / forest_run.name
        shutil.copytree(forest_run, run_dir)
        path = run_dir / name
        lines = damage(path.read_text(encoding="utf-8").splitlines())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        assert main(["evaluate", "--run", str(run_dir)]) == 1
        assert f"error: {path} line {line_no}:" in capsys.readouterr().err

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
    ], ids=["config-no-equals", "config-bad-value", "config-unknown-key", "set-no-equals",
            "set-bad-value", "config-range", "set-classic-iters", "set-classic-lr",
            "flag-model", "flag-data", "config-nel-value"])
    def test_config_error_names_its_source(self, planted_file, tmp_path, capsys,
                                           source, text, message):
        config = tmp_path / "c.cfg"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "runs"
        argv = ["train", "--data", str(planted_file), "--out-dir", str(out)]
        argv += [source, str(config) if source == "--config" else text]
        assert main(argv) == 1
        assert f"error: {message.format(config=config)}\n" == capsys.readouterr().err
        assert not out.exists()


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

    def test_unlabeled_with_model_predicts(self, unlabeled_file, trained_run, tmp_path):
        out = tmp_path / "predicted"
        assert main(["analyze", "--kind", "attributes",
                     "--data", str(unlabeled_file), "--run", str(trained_run),
                     "--out", str(out)]) == 0
        assert (out / "attributes.csv").exists()
