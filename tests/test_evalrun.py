import dataclasses
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumourlab.config import RunConfig, load_config, parse_config_text
from rumourlab.errors import ParseError, ValidationError
from rumourlab.evalrun import (
    RunPredictor,
    compute_report,
    majority_vote,
    metrics_to_text,
    report_to_text,
    run_experiment,
)
from rumourlab.featurize import Standardizer
from rumourlab.ingest import save_tweets
from rumourlab.models import (
    BiGcnModel,
    ClassicLearner,
    GradientModel,
    LstmModel,
    bigcn,
    classic,
    lstm,
    trainer,
)
from rumourlab.synthetic import make_planted_records


def brute_force_counts(predictions, truth, cls):
    tp = fp = fn = tn = 0
    for p, t in zip(predictions, truth):
        if p == cls and t == cls:
            tp += 1
        elif p == cls:
            fp += 1
        elif t == cls:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


class TestComputeReport:
    def test_perfect_predictions(self):
        labels = ["rumour", "nonrumour", "rumour"]
        report = compute_report(labels, labels)
        assert report.accuracy == 1.0
        for row in report.rows.values():
            assert row.precision == row.recall == row.f1 == 1.0

    def test_table_row_harmonic_mean_identity(self):
        # Precision 0.79 and recall 0.77 print as F1 0.78 at 2 dp.
        from rumourlab.evalrun import _f1

        assert round(_f1(0.79, 0.77), 2) == 0.78

    def test_confusion_example(self):
        # 10 examples with rumour-row TP=2 FP=1 FN=2.
        predictions = ["rumour", "rumour", "rumour",
                       "nonrumour", "nonrumour",
                       "nonrumour", "nonrumour", "nonrumour", "nonrumour", "nonrumour"]
        truth = ["rumour", "rumour", "nonrumour",
                 "rumour", "rumour",
                 "nonrumour", "nonrumour", "nonrumour", "nonrumour", "nonrumour"]
        report = compute_report(predictions, truth)
        row = report.rows["rumour"]
        assert row.precision == pytest.approx(0.667, abs=1e-3)
        assert row.recall == pytest.approx(0.5, abs=1e-12)
        assert row.f1 == pytest.approx(0.571, abs=1e-3)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(23)
        labels = ("rumour", "nonrumour")
        predictions = [labels[i] for i in rng.integers(0, 2, size=1000)]
        truth = [labels[i] for i in rng.integers(0, 2, size=1000)]
        report = compute_report(predictions, truth)
        correct = sum(p == t for p, t in zip(predictions, truth))
        assert report.accuracy == pytest.approx(correct / 1000, abs=1e-12)
        for cls in labels:
            tp, fp, fn, _ = brute_force_counts(predictions, truth, cls)
            row = report.rows[cls]
            assert row.support == tp + fn
            assert row.precision == pytest.approx(tp / (tp + fp), abs=1e-12)
            assert row.recall == pytest.approx(tp / (tp + fn), abs=1e-12)

    def test_accuracy_is_support_weighted_recall(self):
        rng = np.random.default_rng(29)
        labels = ("rumour", "nonrumour")
        predictions = [labels[i] for i in rng.integers(0, 2, size=400)]
        truth = [labels[i] for i in rng.integers(0, 2, size=400)]
        report = compute_report(predictions, truth)
        weighted = sum(
            report.rows[c].recall * report.rows[c].support for c in labels
        ) / 400
        assert report.accuracy == pytest.approx(weighted, abs=1e-12)

    def test_zero_denominators_give_zero(self):
        report = compute_report(["nonrumour", "nonrumour"], ["nonrumour", "nonrumour"])
        row = report.rows["rumour"]
        assert row.precision == 0.0 and row.recall == 0.0 and row.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compute_report(["rumour"], ["rumour", "nonrumour"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compute_report([], [])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            compute_report(["maybe"], ["rumour"])


class TestMajorityVote:
    def test_single_run_identity(self):
        run = ["rumour", "nonrumour"]
        assert majority_vote([run]) == run

    def test_two_of_three(self):
        runs = [["rumour"], ["rumour"], ["nonrumour"]]
        assert majority_vote(runs) == ["rumour"]

    def test_tie_resolves_to_nonrumour(self):
        runs = [["rumour"], ["nonrumour"]]
        assert majority_vote(runs) == ["nonrumour"]

    def test_order_invariance(self):
        rng = np.random.default_rng(31)
        labels = ("rumour", "nonrumour")
        runs = [[labels[i] for i in rng.integers(0, 2, size=50)] for _ in range(5)]
        voted = majority_vote(runs)
        assert majority_vote(list(reversed(runs))) == voted

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            majority_vote([["rumour"], ["rumour", "nonrumour"]])

    def test_no_runs_rejected(self):
        with pytest.raises(ValidationError):
            majority_vote([])


class TestReportText:
    def test_report_layout(self):
        config = RunConfig(model="logreg", seeds=(1, 2))
        report = compute_report(["rumour", "nonrumour"], ["rumour", "nonrumour"], config)
        text = report_to_text(report)
        lines = text.splitlines()
        assert lines[0] == "# rumourlab-report v1"
        assert "model = logreg" in lines
        assert f"config = {config.digest()}" in lines
        assert "seeds = 1,2" in lines
        assert any(line.startswith("R ") for line in lines)
        assert any(line.startswith("N ") for line in lines)

    def test_metrics_flat_keys(self):
        report = compute_report(["rumour"], ["rumour"])
        text = metrics_to_text(report)
        for key in ("accuracy", "r_precision", "r_recall", "r_f1",
                    "n_precision", "n_recall", "n_f1"):
            assert f"{key} = " in text


def _fuzz_config_line():
    """Config lines: known, retired and made-up keys with good and bad values."""
    keys = st.sampled_from(sorted(f.name for f in dataclasses.fields(RunConfig))
                           + ["optimizer", "top_n", "exclude_keywords", "", "x y"])
    values = st.one_of(
        st.sampled_from(["1", "0", "-1", "0.5", "nan", "inf", "1e999", "none", "true",
                         "adam", "lstm", "1,2", "1,1", "0.7,0.15,0.15", "", "9" * 5000]),
        st.text(max_size=8))
    return st.one_of(
        st.builds(lambda key, value, sep: f"{key}{sep}{value}", keys, values,
                  st.sampled_from([" = ", "=", " ", " = # "])),
        st.text(max_size=12))


class TestRunConfig:
    def test_digest_stable_and_sensitive(self):
        base = RunConfig(dataset="x.jsonl")
        assert base.digest() == RunConfig(dataset="x.jsonl").digest()
        assert base.digest() != RunConfig(dataset="y.jsonl").digest()

    def test_digest_ignores_output_location(self):
        a = RunConfig(dataset="x.jsonl", out_dir="here")
        b = RunConfig(dataset="x.jsonl", out_dir="there")
        assert a.digest() == b.digest()

    def test_parse_overrides(self):
        config = parse_config_text(
            "model = bigcn\nseeds = 1,2,3\nratios = 0.6,0.2,0.2\n"
            "smote = true\nrf_max_depth = none\nlr = 0.005\n")
        assert config.model == "bigcn"
        assert config.seeds == (1, 2, 3)
        assert config.ratios == (0.6, 0.2, 0.2)
        assert config.smote is True
        assert config.rf_max_depth is None
        assert config.lr == 0.005

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            parse_config_text("no_such_key = 1\n")

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text("# comment\n\nmodel = rf  # trailing\n")
        assert config.model == "rf"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("model = transformer\n")

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("Keys and defaults:", 1)[1].split("\n\n", 2)[1]
        listed = re.findall(r"`([a-z0-9_]+)[=`]", section)
        assert sorted(listed) == sorted(f.name for f in dataclasses.fields(RunConfig))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_fuzz_config_line(), max_size=5),
           bad_byte=st.one_of(st.none(), st.integers(min_value=0, max_value=60)))
    def test_fuzzed_config_raises_only_documented_errors(self, tmp_path, lines, bad_byte):
        text = "\n".join(lines)
        try:
            parse_config_text(text)
        except ValidationError as exc:
            assert str(exc).startswith("config line ")
        data = text.encode("utf-8")
        if bad_byte is not None:
            cut = min(bad_byte, len(data))
            data = data[:cut] + b"\xff" + data[cut:]
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(data)
        try:
            load_config(path)
        except (ValidationError, ParseError) as exc:
            assert str(exc).startswith(f"{path} line ")


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.jsonl"
    save_tweets(make_planted_records(n_threads=40, seed=7, max_replies=2), path)
    return path


class TestRunExperiment:
    def _config(self, planted_file, tmp_path, **overrides):
        fields = dict(dataset=str(planted_file), model="logreg",
                      out_dir=str(tmp_path / "runs"), seeds=(1,),
                      features="tfidf", classic_iters=150)
        fields.update(overrides)
        return RunConfig(**fields)

    def test_report_matches_predictions_file(self, planted_file, tmp_path):
        result = run_experiment(self._config(planted_file, tmp_path))
        run_dir = result.run_dir
        assert (run_dir / "report.txt").exists()
        assert (run_dir / "metrics.txt").exists()
        lines = (run_dir / "predictions.txt").read_text().splitlines()
        predicted = [line.split("\t")[1] for line in lines]
        truth = [t.label for t in result.split.test]
        recomputed = compute_report(predicted, truth)
        assert recomputed.accuracy == result.report.accuracy
        assert recomputed.rows == result.report.rows

    def test_rerun_is_byte_identical(self, planted_file, tmp_path):
        config = self._config(planted_file, tmp_path)
        first = run_experiment(config)
        payload_a = {
            p.name: p.read_bytes() for p in sorted(first.run_dir.iterdir())
            if p.is_file()
        }
        second = run_experiment(config)
        assert second.run_dir == first.run_dir
        payload_b = {
            p.name: p.read_bytes() for p in sorted(second.run_dir.iterdir())
            if p.is_file()
        }
        assert payload_a == payload_b

    def test_seed_list_recorded(self, planted_file, tmp_path):
        config = self._config(planted_file, tmp_path, seeds=(1, 2, 3))
        result = run_experiment(config)
        assert result.report.seeds == (1, 2, 3)
        assert "seeds = 1,2,3" in (result.run_dir / "report.txt").read_text()
        for seed in (1, 2, 3):
            assert (result.run_dir / f"ckpt_seed{seed}.txt").exists()

    SIZES = {
        "lstm": dict(vocab_cap=200, embed_dim=4, hidden_dim=4, perceptron_dim=4,
                     max_len=16, max_epochs=1),
        "bigcn": dict(tfidf_top_k=100, bigcn_hidden_dim=4, bigcn_out_dim=4,
                      max_epochs=1),
        "logreg": dict(),
        "svm": dict(svm_iters=100),
        "rf": dict(rf_trees=3, features="both"),
    }

    @staticmethod
    def _record_training(monkeypatch) -> dict:
        """seed -> (model, payload) for each `train` call, as train returned them."""
        trained = {}
        for cls in (GradientModel, ClassicLearner):
            def recorded(self, train, dev, seed, _original=cls.train):
                outcome = _original(self, train, dev, seed)
                trained[seed] = (self, outcome[0])
                return outcome
            monkeypatch.setattr(cls, "train", recorded)
        return trained

    @pytest.mark.parametrize("model", ["lstm", "bigcn", "logreg", "svm", "rf"])
    def test_predictor_round_trip(self, planted_file, tmp_path, monkeypatch, model):
        trained = self._record_training(monkeypatch)
        config = self._config(planted_file, tmp_path, model=model, seeds=(1, 2),
                              **self.SIZES[model])
        result = run_experiment(config)
        predictor = RunPredictor(result.run_dir)
        labels, scores = predictor.predict(result.split.test)
        file_lines = (result.run_dir / "predictions.txt").read_text().splitlines()
        assert [l.split("\t")[1] for l in file_lines] == labels
        assert [l.split("\t")[2] for l in file_lines] == [f"{s:.6g}" for s in scores]
        # logreg and svm without SMOTE train once and save that fit for both seeds.
        assert sorted(trained) == ([1] if model in ("logreg", "svm") else [1, 2])
        for seed in config.seeds:
            trained_model, payload = trained.get(seed, trained[1])
            data = trained_model.prepare(result.split.test)
            fresh_labels, fresh_scores = trained_model.predict(payload, data)
            loaded_labels, loaded_scores = trained_model.predict(
                trained_model.load(result.run_dir, seed), data)
            assert loaded_labels == fresh_labels
            assert np.asarray(loaded_scores).tobytes() == np.asarray(fresh_scores).tobytes()

    @pytest.mark.parametrize("model", ["lstm", "bigcn"])
    def test_predictor_loads_without_a_draw(self, planted_file, tmp_path, monkeypatch, model):
        """`load` reads the shapes from the parameter layout: a run loads and
        predicts its own test split with the initializer gone from every
        module of the models package that binds it."""
        result = run_experiment(self._config(planted_file, tmp_path, model=model, seeds=(1, 2),
                                             **self.SIZES[model]))

        def no_draw(rng, shape):
            raise AssertionError(f"drew a {shape} parameter")

        for module in (trainer, lstm, bigcn):
            if hasattr(module, "xavier_uniform"):
                monkeypatch.setattr(module, "xavier_uniform", no_draw)
        labels, scores = RunPredictor(result.run_dir).predict(result.split.test)
        lines = [f"{thread.id}\t{label}\t{score:.6g}"
                 for thread, label, score in zip(result.split.test, labels, scores)]
        assert "\n".join(lines) + "\n" == (result.run_dir / "predictions.txt").read_text()

    @pytest.mark.parametrize("model,settings", [
        ("rf", {}), ("rf", {"smote": True}), ("logreg", {"smote": True}),
        ("svm", {"smote": True}), ("lstm", {}), ("bigcn", {}),
    ])
    def test_seeded_fits_train_once_per_seed(self, planted_file, tmp_path, monkeypatch,
                                             model, settings):
        trained = self._record_training(monkeypatch)
        notes = []
        run_experiment(self._config(planted_file, tmp_path, model=model, seeds=(1, 2, 3),
                                    **{**self.SIZES[model], **settings}), notes.append)
        assert sorted(trained) == [1, 2, 3]
        assert not any("same fit" in note for note in notes)

    @pytest.mark.parametrize("model", ["lstm", "bigcn"])
    def test_previous_seed_parameters_die_before_the_next_fit(
            self, planted_file, tmp_path, monkeypatch, no_cycle_collector, model):
        refs, alive = [], []

        def watched(self, train, dev, seed, _train=GradientModel.train):
            alive.append(sum(ref() is not None for ref in refs))
            outcome = _train(self, train, dev, seed)
            refs.extend(weakref.ref(p.values) for p in outcome[0].values())
            return outcome

        monkeypatch.setattr(GradientModel, "train", watched)
        run_experiment(self._config(planted_file, tmp_path, model=model, seeds=(1, 2),
                                    **self.SIZES[model]))
        assert alive == [0, 0] and refs

    @pytest.mark.parametrize("model", ["logreg", "svm"])
    def test_seed_free_fit_trains_once(self, planted_file, tmp_path, monkeypatch, model):
        """One fit serves every seed, and the run directory is the one that
        training each seed gives."""
        def run_files(reads_seed: bool):
            with monkeypatch.context() as patch:
                if reads_seed:
                    patch.setattr(ClassicLearner, "reads_seed", True)
                trained = self._record_training(patch)
                notes = []
                result = run_experiment(self._config(
                    planted_file, tmp_path / str(reads_seed), model=model,
                    seeds=(4, 2, 9), **self.SIZES[model]), notes.append)
            files = {p.relative_to(result.run_dir): p.read_bytes()
                     for p in sorted(result.run_dir.rglob("*")) if p.is_file()}
            return sorted(trained), notes, files

        trained, notes, files = run_files(reads_seed=False)
        assert trained == [4]
        assert notes[1].startswith("seed 4: dev accuracy ")
        for note, seed in zip(notes[2:], (2, 9)):
            assert note == f"{notes[1].replace('seed 4', f'seed {seed}')} (same fit as " \
                           "seed 4: this fit does not read the seed)"
        every_seed = run_files(reads_seed=True)
        assert every_seed[0] == [2, 4, 9]
        assert files == every_seed[2]
        assert {f"ckpt_seed{seed}.txt" for seed in (4, 2, 9)} <= {p.name for p in files}

    @pytest.fixture(scope="class")
    def imbalanced_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("data") / "imbalanced.jsonl"
        save_tweets(make_planted_records(n_threads=60, rumour_rate=0.2, seed=5,
                                         max_replies=2), path)
        return path

    @pytest.mark.parametrize("model", ["logreg", "svm", "rf"])
    def test_smote_run_fits_statistics_and_neighbours_once(self, imbalanced_file, tmp_path,
                                                           monkeypatch, model):
        calls = {"fit": 0, "neighbours": 0, "draws": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(Standardizer, "fit",
                            classmethod(counted("fit", Standardizer.fit.__func__)))
        monkeypatch.setattr(classic, "smote_neighbours",
                            counted("neighbours", classic.smote_neighbours))
        monkeypatch.setattr(classic, "smote_points", counted("draws", classic.smote_points))
        run_experiment(self._config(imbalanced_file, tmp_path, model=model, smote=True,
                                    seeds=(1, 2, 3), **{**self.SIZES[model], "features": "both"}))
        assert calls == {"fit": 1, "neighbours": 1, "draws": 3}

    @pytest.mark.parametrize("model,smote", [("logreg", False), ("logreg", True),
                                             ("svm", True), ("rf", False), ("rf", True)])
    def test_no_training_matrix_outlives_the_run(self, imbalanced_file, tmp_path, monkeypatch,
                                                 no_cycle_collector, model, smote):
        refs = []

        def watched(self, threads, tokens=None, fit=False, _prepare=ClassicLearner.prepare):
            data = _prepare(self, threads, tokens, fit)
            refs.extend(weakref.ref(item) for item in (self, data, data.features))
            return data

        def fit_watched(fit, at):  # args[at] is the matrix the fit trains on
            def call(*args):
                refs.append(weakref.ref(args[at]))
                return fit(*args)
            return call

        monkeypatch.setattr(ClassicLearner, "prepare", watched)
        monkeypatch.setattr(classic, "_gradient_fit", fit_watched(classic._gradient_fit, 1))
        monkeypatch.setattr(classic, "_grow_tree", fit_watched(classic._grow_tree, 0))
        run_experiment(self._config(imbalanced_file, tmp_path, model=model, smote=smote,
                                    seeds=(1, 2), **{**self.SIZES[model], "features": "both"}))
        assert len(refs) > 9 and [ref() for ref in refs] == [None] * len(refs)

    def test_classic_fit_weighs_classes(self, tmp_path):
        # train_classic weighs rows by class whenever class_weights is set.
        path = tmp_path / "imbalanced.jsonl"
        save_tweets(make_planted_records(n_threads=60, rumour_rate=0.2, seed=5,
                                         max_replies=2), path)
        checkpoints = [
            (run_experiment(self._config(path, tmp_path / str(weighted),
                                         class_weights=weighted)).run_dir
             / "ckpt_seed1.txt").read_bytes()
            for weighted in (True, False)]
        assert checkpoints[0] != checkpoints[1]

    def test_bigcn_raw_count_features(self, planted_file, tmp_path):
        config = self._config(planted_file, tmp_path, model="bigcn", tree_raw_counts=True,
                              tfidf_top_k=100, bigcn_hidden_dim=4, bigcn_out_dim=4,
                              max_epochs=1)
        result = run_experiment(config)
        predictor = RunPredictor(result.run_dir)
        trees = predictor.model.prepare(result.split.test).trees
        values = [value for tree in trees for node in tree.nodes
                  for _, value in node.features.entries]
        assert values and all(value >= 1 and value == int(value) for value in values)
        labels, scores = predictor.predict(result.split.test)
        assert len(labels) == len(scores) == len(result.split.test)
        assert set(labels) <= {"rumour", "nonrumour"}

    def test_stage_name_attached_to_errors(self, tmp_path):
        config = RunConfig(dataset=str(tmp_path / "missing.jsonl"),
                           out_dir=str(tmp_path / "runs"))
        with pytest.raises(FileNotFoundError, match="stage: ingest"):
            run_experiment(config)

    def test_structured_error_passes_through_stage(self, tmp_path, monkeypatch):
        def fail(path):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        monkeypatch.setattr("rumourlab.evalrun.load_tweets", fail)
        config = RunConfig(dataset=str(tmp_path / "any.jsonl"),
                           out_dir=str(tmp_path / "runs"))
        with pytest.raises(UnicodeDecodeError, match="invalid start byte"):
            run_experiment(config)


class TestEvaluationOnConstants:
    """Eval-mode passes score constant views of the parameters, so the
    engine builds no backward graph for them."""

    SIZES = {
        "lstm": dict(vocab_cap=200, embed_dim=4, hidden_dim=4, perceptron_dim=4,
                     max_len=16),
        "bigcn": dict(tfidf_top_k=100, bigcn_hidden_dim=4, bigcn_out_dim=4),
    }

    @pytest.mark.parametrize("model", ["lstm", "bigcn"])
    def test_eval_calls_receive_untracked_parameters(self, planted_file, tmp_path,
                                                     monkeypatch, model):
        calls = []  # (caller stack, train, requires_grad of each parameter)
        callers = []

        def within(name, fn):
            def wrapped(*args, **kwargs):
                callers.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    callers.pop()
            return wrapped

        for cls in (LstmModel, BiGcnModel):
            def recorded(self, params, batch, train, rng=None,
                         _original=cls.loss_and_predictions):
                calls.append((tuple(callers), train,
                              {p.requires_grad for p in params.values()}))
                return _original(self, params, batch, train=train, rng=rng)
            monkeypatch.setattr(cls, "loss_and_predictions", recorded)
        monkeypatch.setattr(trainer, "fit", within("fit", trainer.fit))
        monkeypatch.setattr(trainer, "predict_threads",
                            within("predict_threads", trainer.predict_threads))
        monkeypatch.setattr(RunPredictor, "predict", within("predict", RunPredictor.predict))

        config = RunConfig(dataset=str(planted_file), model=model,
                           out_dir=str(tmp_path / "runs"), seeds=(1, 2), max_epochs=2,
                           **self.SIZES[model])
        result = run_experiment(config)
        RunPredictor(result.run_dir).predict(result.split.test)

        eval_callers = {stack for stack, train, _ in calls if not train}
        assert eval_callers == {("fit",), ("predict_threads",),
                                ("predict", "predict_threads")}
        for stack, train, tracked in calls:
            assert tracked == {train}, (stack, train)
