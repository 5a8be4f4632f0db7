import json
import re
from dataclasses import fields
from datetime import timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rumourlab.errors import ParseError, ValidationError
from rumourlab.ingest import (
    _SCHEMA,
    DatasetSplit,
    Thread,
    TweetRecord,
    assemble_threads,
    load_split,
    load_tweets,
    save_split,
    save_tweets,
    split_dataset,
)
from rumourlab.models.data import handcrafted_matrix

from conftest import make_record, make_thread

GOOD = {"id": "a", "text": "x", "created_at": "2020-01-01T00:00:00Z",
        "verified": False, "followers": 0, "following": 0,
        "tweet_count": 0, "listed_count": 0,
        "account_created_year": 2015, "retweet_count": 0, "like_count": 0}


class TestLoadTweets:
    def test_empty_file_gives_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_tweets(path) == []

    def test_single_record_round_trips_all_fields(self, tmp_dataset):
        record = make_record("t1", text="hi there", parent_id=None,
                             label="rumour", retweet_count=3, like_count=7,
                             verified=True, followers=42)
        path = tmp_dataset([record])
        (loaded,) = load_tweets(path)
        assert loaded == record
        assert loaded.created_at.tzinfo == timezone.utc

    def test_missing_text_field_cites_line(self, tmp_path):
        bad = {k: v for k, v in GOOD.items() if k != "text"}
        bad["id"] = "b"
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(GOOD) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValidationError, match="line 2.*text"):
            load_tweets(path)

    def test_duplicate_id_names_the_id(self, tmp_dataset):
        path = tmp_dataset([make_record("dup"),])
        line = path.read_text()
        path.write_text(line + line)
        with pytest.raises(ValidationError, match="dup"):
            load_tweets(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tweets(tmp_path / "absent.jsonl")

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_tweets(path)

    def test_invalid_utf8_cites_line(self, tmp_dataset):
        path = tmp_dataset([make_record(f"t{i}") for i in range(3)])
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b"hello", b"hel\xfflo")
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValidationError, match="line 2: invalid UTF-8"):
            load_tweets(path)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_cr_line_ends(self, tmp_dataset, newline):
        path = tmp_dataset([make_record(f"t{i}") for i in range(3)])
        lines = path.read_bytes().splitlines()
        path.write_bytes(newline.join(lines + [b"{not json}"]))
        with pytest.raises(ValidationError, match="line 4"):
            load_tweets(path)
        path.write_bytes(newline.join(lines) + newline)
        assert [r.id for r in load_tweets(path)] == ["t0", "t1", "t2"]

    def test_naive_timestamp_rejected(self, tmp_path):
        record = {"id": "a", "text": "x", "created_at": "2020-01-01T00:00:00",
                  "verified": False, "followers": 0, "following": 0,
                  "tweet_count": 0, "listed_count": 0,
                  "account_created_year": 2015, "retweet_count": 0, "like_count": 0}
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="offset") as caught:
            load_tweets(path)
        assert str(caught.value) == (
            f"{path} line 1: created_at '2020-01-01T00:00:00' lacks a UTC offset")

    @pytest.mark.parametrize("changes,message", [
        ({"id": 2, "parent_id": 1}, "id must be a string"),
        ({"id": None}, "id must be a string"),
        ({"id": ""}, "tweet id must be non-empty"),
        ({"parent_id": 1}, "parent_id must be a string or null"),
        ({"parent_id": []}, "parent_id must be a string or null"),
        ({"label": 0}, "label must be a string or null"),
        ({"followers": True}, "followers must be a non-negative integer"),
        ({"like_count": -1}, "like_count must be a non-negative integer"),
        ({"followers": 2**63}, r"followers must be a non-negative integer below 2\*\*63"),
        ({"retweet_count": 10**400},
         r"retweet_count must be a non-negative integer below 2\*\*63"),
        ({"verified": 0}, "verified must be true or false"),
        ({"text": None}, "text must be a string"),
        ({"created_at": "0001-01-01T00:00:00+01:00"}, "created_at .* is out of range"),
        ({"id": "b\rc"}, "id must not hold a tab or line break"),
        ({"id": "b\tc"}, "id must not hold a tab or line break"),
        ({"id": "b\n"}, "id must not hold a tab or line break"),
        ({"parent_id": "a\r\n"}, "parent_id must not hold a tab or line break"),
        ({"parent_id": "\ta"}, "parent_id must not hold a tab or line break"),
    ], ids=["numeric-id", "null-id", "empty-id", "numeric-parent", "list-parent",
            "numeric-label", "bool-count", "negative-count", "count-at-bound", "huge-count",
            "int-verified", "null-text",
            "overflowing-time", "cr-id", "tab-id", "lf-id", "crlf-parent", "tab-parent"])
    def test_wrong_field_type_cites_file_and_line(self, tmp_path, changes, message):
        path = tmp_path / "data.jsonl"
        reply = {**GOOD, "id": "b", "parent_id": "a", **changes}
        path.write_text(json.dumps(GOOD) + "\n" + json.dumps(reply) + "\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))} line 2: {message}$"):
            load_tweets(path)

    @pytest.mark.parametrize("line", ["1" * 5000, "[" * 100_000],
                             ids=["long-integer", "deep-nesting"])
    def test_unparsable_json_cites_file_and_line(self, tmp_path, line):
        path = tmp_path / "data.jsonl"
        path.write_text(line + "\n")
        prefix = re.escape(str(path))
        with pytest.raises(ValidationError, match=f"^{prefix} line 1: invalid record"):
            load_tweets(path)

    def test_save_load_round_trip_is_identity(self, tmp_dataset, tmp_path):
        records = [
            make_record("a", text="emoji \U0001F637 and ümlauts", label="rumour"),
            make_record("b", minutes=5, parent_id="a"),
            make_record("c", text="tab\tand\nnewline", label="nonrumour", minutes=9),
        ]
        path = tmp_dataset(records)
        loaded = load_tweets(path)
        assert loaded == records
        second = tmp_path / "again.jsonl"
        save_tweets(loaded, second)
        assert load_tweets(second) == records


# Field values of every JSON type, so each field is sometimes right.
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.integers(0, 2**1100),
    st.floats(allow_nan=True),
    st.sampled_from(["", "a", "b", "rumour", "nonrumour", "2020-01-01T00:00:00Z",
                     "2020-01-01T00:05:00+00:00", "2020-01-01T00:00:00",
                     "0001-01-01T00:00:00+01:00", "2015"]),
    st.lists(st.integers(0, 2), max_size=2), st.dictionaries(st.just("k"), st.integers()),
)


@st.composite
def _fuzz_line(draw):
    record = dict(GOOD, id=draw(st.sampled_from(["a", "b", "c"])))
    for name in draw(st.lists(st.sampled_from(list(GOOD) + ["parent_id", "label"]),
                              max_size=3)):
        if draw(st.booleans()):
            record[name] = draw(_ANY_VALUE)
        else:
            record.pop(name, None)
    line = json.dumps(record).encode("utf-8")
    cut = draw(st.integers(0, len(line)))
    return draw(st.sampled_from([line, line[:cut], line[:cut] + b"\xff" + line[cut:],
                                 draw(st.binary(max_size=12))]))


class TestFuzzedDataset:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_fuzz_line(), max_size=4),
           newline=st.sampled_from([b"\n", b"\r\n", b"\r"]))
    def test_load_and_assemble_raise_only_documented_errors(self, tmp_path, lines,
                                                             newline):
        path = tmp_path / "fuzz.jsonl"
        path.write_bytes(newline.join(lines))
        try:
            records = load_tweets(path)
        except ValidationError as exc:
            assert str(exc).startswith(f"{path} line ")
            assert str(exc).count(" line ") == 1
            return
        try:
            threads, _ = assemble_threads(records)
        except ValidationError:
            return
        assert np.isfinite(handcrafted_matrix(threads)).all()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from([n for n, kind in _SCHEMA.items()
                                 if kind is int and n != "account_created_year"]),
           value=st.integers(0, 2**1100))
    @example(name="followers", value=2**63 - 1)
    @example(name="followers", value=2**63)
    def test_every_loaded_count_featurizes(self, tmp_path, name, value):
        path = tmp_path / "count.jsonl"
        path.write_text(json.dumps({**GOOD, name: value}) + "\n")
        try:
            records = load_tweets(path)
        except ValidationError as exc:
            assert value >= 2**63
            assert str(exc) == f"{path} line 1: {name} must be a non-negative integer below 2**63"
            return
        threads, _ = assemble_threads(records)
        assert np.isfinite(handcrafted_matrix(threads)).all()


class TestRecordValidation:
    def test_self_parent_rejected(self):
        with pytest.raises(ValidationError):
            make_record("x", parent_id="x")

    def test_account_year_range(self):
        with pytest.raises(ValidationError):
            make_record("x", account_created_year=2001)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            make_record("x", label="maybe")


class TestFlatSchema:
    def test_record_fields_follow_the_schema(self):
        names = [f.name for f in fields(TweetRecord)]
        assert names[:len(_SCHEMA)] == list(_SCHEMA)
        assert names[len(_SCHEMA):] == ["parent_id", "label"]

    def test_saved_lines_keep_their_bytes(self, tmp_dataset):
        reply = make_record("r1", text='h\u00e9llo "world"', minutes=5, parent_id="s0",
                            label="rumour", verified=True, followers=42,
                            retweet_count=3, like_count=7)
        path = tmp_dataset([reply, make_record("s0")])
        assert path.read_bytes() == (
            b'{"id": "r1", "text": "h\xc3\xa9llo \\"world\\"", '
            b'"created_at": "2020-03-01T12:05:00Z", "parent_id": "s0", "label": "rumour", '
            b'"verified": true, "followers": 42, "following": 5, "tweet_count": 100, '
            b'"listed_count": 1, "account_created_year": 2015, "retweet_count": 3, '
            b'"like_count": 7}\n'
            b'{"id": "s0", "text": "hello world", "created_at": "2020-03-01T12:00:00Z", '
            b'"verified": false, "followers": 10, "following": 5, "tweet_count": 100, '
            b'"listed_count": 1, "account_created_year": 2015, "retweet_count": 0, '
            b'"like_count": 0}\n')

    def test_thread_label_is_the_source_label(self):
        thread = make_thread("s", label="rumour", n_replies=1)
        assert thread.label is thread.source.label
        with pytest.raises(TypeError):
            Thread(source=thread.source, replies=(), label="rumour")


class TestAssembleThreads:
    def test_replies_sorted_by_time(self):
        source = make_record("s", label="rumour")
        late = make_record("r1", minutes=10, parent_id="s")
        early = make_record("r2", minutes=2, parent_id="s")
        threads, diag = assemble_threads([source, late, early])
        (thread,) = threads
        assert [r.id for r in thread.replies] == ["r2", "r1"]
        assert diag.orphan_replies == 0

    def test_orphan_replies_counted_and_dropped(self):
        replies = [make_record(f"r{i}", minutes=i, parent_id="ghost") for i in range(3)]
        threads, diag = assemble_threads(replies)
        assert threads == []
        assert diag.orphan_replies == 3

    def test_source_with_zero_replies(self):
        threads, _ = assemble_threads([make_record("s", label="nonrumour")])
        (thread,) = threads
        assert thread.replies == ()
        assert thread.label == "nonrumour"

    def test_reply_to_reply_reparented_to_source(self):
        source = make_record("s", label="rumour")
        first = make_record("r1", minutes=1, parent_id="s")
        nested = make_record("r2", minutes=2, parent_id="r1")
        threads, diag = assemble_threads([source, first, nested])
        (thread,) = threads
        assert [r.id for r in thread.replies] == ["r1", "r2"]
        assert diag.orphan_replies == 0

    def test_cycle_raises_listing_ids(self):
        a = make_record("a", parent_id="b", minutes=1)
        b = make_record("b", parent_id="a", minutes=2)
        with pytest.raises(ValidationError, match="cyclic"):
            assemble_threads([a, b])

    def test_equal_timestamps_tie_break_by_id(self):
        source = make_record("s", label="rumour")
        r_b = make_record("b", minutes=1, parent_id="s")
        r_a = make_record("a", minutes=1, parent_id="s")
        threads, _ = assemble_threads([source, r_b, r_a])
        assert [r.id for r in threads[0].replies] == ["a", "b"]

    def test_thread_count_bounded_by_sources(self):
        records = [make_record(f"s{i}", label="rumour") for i in range(4)]
        records.append(make_record("r", minutes=1, parent_id="s0"))
        threads, _ = assemble_threads(records)
        assert len(threads) == 4

    def test_unlabeled_sources_kept_and_counted(self):
        records = [make_record("s1"), make_record("s2", label="rumour")]
        threads, diag = assemble_threads(records)
        assert len(threads) == 2
        assert diag.unlabeled_sources == 1

    def test_reply_before_source_rejected(self):
        source = make_record("s", minutes=5, label="rumour")
        early = make_record("r", minutes=0, parent_id="s")
        with pytest.raises(ValidationError, match="predates"):
            assemble_threads([source, early])


# Ids that ingest accepts: non-empty, with no tab, \n or \r; a leading
# '#', outer spaces, U+0085 and U+2028 included.
_AWKWARD_ID = st.builds(
    lambda head, body, tail: head + body + tail,
    st.sampled_from(["", "#", "# seed = 1", " ", "\u0085", "\u2028"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
            min_size=1, max_size=6),
    st.sampled_from(["", " ", "\u2028", "\x0c"]))

_MANIFEST_IDS = ["a", "#a", " a", "a\u2028b"]


@st.composite
def _fuzz_manifest_part(draw, part):
    """Bytes of a manifest part: header lines good and bad, ids known and
    unknown, noise, any line end and perhaps a bad byte."""
    header = ["# rumourlab-split v1", "# seed = 13", "# ratios = 0.7,0.15,0.15",
              f"# part = {part}"]
    line = st.one_of(
        st.sampled_from(header + _MANIFEST_IDS + [
            "", "# seed = x", "# seed = " + "9" * 5000, "# ratios = 0.5,0.5",
            "# ratios = a,b,c", "# part = other", "#seed = 13", "b"]),
        st.text(max_size=8))
    lines = (header if draw(st.booleans()) else []) + draw(st.lists(line, max_size=6))
    data = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode("utf-8")
    cut = draw(st.one_of(st.none(), st.integers(0, len(data))))
    return data if cut is None else data[:cut] + b"\xff" + data[cut:]


class TestSplitDataset:
    def _threads(self, n_rumour, n_nonrumour):
        return (
            [make_thread(f"r{i}", label="rumour") for i in range(n_rumour)]
            + [make_thread(f"n{i}", label="nonrumour") for i in range(n_nonrumour)]
        )

    def test_balanced_ten_threads_stratified(self):
        split = split_dataset(self._threads(5, 5), (0.6, 0.2, 0.2), seed=7)
        train_labels = [t.label for t in split.train]
        assert train_labels.count("rumour") == 3
        assert train_labels.count("nonrumour") == 3
        assert len(split.dev) == 2 and len(split.test) == 2

    def test_same_seed_identical(self):
        threads = self._threads(8, 12)
        a = split_dataset(threads, (0.6, 0.2, 0.2), seed=3)
        b = split_dataset(threads, (0.6, 0.2, 0.2), seed=3)
        assert [t.id for t in a.train] == [t.id for t in b.train]
        assert [t.id for t in a.dev] == [t.id for t in b.dev]
        assert [t.id for t in a.test] == [t.id for t in b.test]

    def test_input_order_does_not_matter(self):
        threads = self._threads(8, 12)
        a = split_dataset(threads, (0.6, 0.2, 0.2), seed=3)
        b = split_dataset(list(reversed(threads)), (0.6, 0.2, 0.2), seed=3)
        assert [t.id for t in a.train] == [t.id for t in b.train]

    def test_rumour_rate_preserved_within_one_percent(self):
        # 1000 threads at a 21.3% rumour rate.
        threads = self._threads(213, 787)
        split = split_dataset(threads, (0.6, 0.2, 0.2), seed=11)
        for part in (split.train, split.dev, split.test):
            rate = sum(1 for t in part if t.label == "rumour") / len(part)
            assert 0.203 <= rate <= 0.223

    def test_union_is_input_and_parts_disjoint(self):
        threads = self._threads(7, 9)
        split = split_dataset(threads, (0.5, 0.25, 0.25), seed=2)
        ids = [t.id for part in (split.train, split.dev, split.test) for t in part]
        assert len(ids) == len(set(ids)) == len(threads)
        assert set(ids) == {t.id for t in threads}

    def test_class_smaller_than_splits_rejected(self):
        with pytest.raises(ValidationError, match="fewer"):
            split_dataset(self._threads(2, 5), (0.6, 0.2, 0.2), seed=1)

    def test_unlabeled_thread_rejected(self):
        source = make_record("u")
        unlabeled = Thread(source=source, replies=())
        with pytest.raises(ValidationError, match="unlabeled"):
            split_dataset(self._threads(3, 3) + [unlabeled], (0.6, 0.2, 0.2), 1)

    def test_bad_ratios_rejected(self):
        threads = self._threads(4, 4)
        with pytest.raises(ValidationError):
            split_dataset(threads, (0.5, 0.2, 0.2), seed=1)
        with pytest.raises(ValidationError):
            split_dataset(threads, (1.0, -0.5, 0.5), seed=1)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(_AWKWARD_ID, min_size=3, max_size=8, unique=True))
    def test_manifest_round_trips_every_accepted_id(self, tmp_path, ids):
        threads = [make_thread(thread_id) for thread_id in ids]
        save_tweets([thread.source for thread in threads], tmp_path / "ids.jsonl")
        assert [record.id for record in load_tweets(tmp_path / "ids.jsonl")] == ids
        split = DatasetSplit(train=tuple(threads[2:]), dev=(threads[1],), test=(threads[0],),
                             seed=4, ratios=(0.5, 0.25, 0.25))
        save_split(split, tmp_path / "split")
        loaded = load_split(tmp_path / "split", threads)
        assert loaded == split

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(parts=st.tuples(*(_fuzz_manifest_part(part) for part in ("train", "dev", "test"))))
    def test_fuzzed_manifest_raises_only_documented_errors(self, tmp_path, parts):
        directory = tmp_path / "split"
        directory.mkdir(exist_ok=True)
        for part, data in zip(("train", "dev", "test"), parts):
            (directory / f"{part}.ids").write_bytes(data)
        threads = [make_thread(thread_id) for thread_id in _MANIFEST_IDS]
        try:
            load_split(directory, threads)
        except (ParseError, ValidationError) as exc:
            match = re.match(rf"{re.escape(str(directory))}/(\w+)\.ids line (\d+): ", str(exc))
            assert match, str(exc)
            data = parts[("train", "dev", "test").index(match.group(1))]
            # A header line the file lacks is named as the line after its last.
            assert 1 <= int(match.group(2)) <= len(re.split(rb"\r\n|\r|\n", data)) + 1

    @pytest.mark.parametrize("line_no,line", [
        (1, "# rumourlab-split v2"), (2, "13"), (2, "# seed = x"), (2, "# sed = 13"),
        (3, "0.5,0.25,0.25"), (3, "# ratios = 0.5,0.5"), (4, "# part = dev"), (4, None),
    ], ids=["version", "bare-seed", "bad-seed", "seed-key", "bare-ratios", "two-ratios",
            "other-part", "missing"])
    def test_damaged_header_names_its_line(self, tmp_path, line_no, line):
        threads = self._threads(6, 6)
        save_split(split_dataset(threads, (0.5, 0.25, 0.25), seed=13), tmp_path)
        path = tmp_path / "train.ids"
        lines = path.read_text(encoding="utf-8").split("\n")[:4]
        lines[line_no - 1:] = [line] if line is not None else []
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"{path} line {line_no}: bad header {line or ''!r}"
        with pytest.raises(ParseError) as info:
            load_split(tmp_path, threads)
        assert str(info.value) == message

    @pytest.mark.parametrize("part,edit,line_no,message", [
        ("train", "repeat", None, "thread id {id!r} already listed in {train} line 5"),
        ("test", "repeat", None, "thread id {id!r} already listed in {train} line 5"),
        ("dev", 1, 2, "'# seed = 99' differs from {train} line 2"),
        ("test", 2, 3, "'# ratios = 0.6,0.2,0.2' differs from {train} line 3"),
    ], ids=["twice-in-train", "train-and-test", "dev-seed", "test-ratios"])
    def test_inconsistent_manifest_names_its_line(self, tmp_path, part, edit, line_no,
                                                   message):
        threads = self._threads(6, 6)
        split = split_dataset(threads, (0.5, 0.25, 0.25), seed=13)
        save_split(split, tmp_path)
        path = tmp_path / f"{part}.ids"
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        if edit == "repeat":
            lines.append(split.train[0].id)
            line_no = len(lines)
        else:
            lines[edit] = ["# seed = 99", "# ratios = 0.6,0.2,0.2"][edit - 1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = message.format(id=split.train[0].id, train=tmp_path / "train.ids")
        with pytest.raises(ValidationError) as info:
            load_split(tmp_path, threads)
        assert str(info.value) == f"{path} line {line_no}: {expected}"

    def test_manifest_round_trip(self, tmp_path):
        threads = self._threads(6, 6)
        split = split_dataset(threads, (0.5, 0.25, 0.25), seed=9)
        save_split(split, tmp_path / "split")
        loaded = load_split(tmp_path / "split", threads)
        assert isinstance(loaded, DatasetSplit)
        assert loaded.seed == 9
        assert loaded.ratios == (0.5, 0.25, 0.25)
        assert [t.id for t in loaded.train] == [t.id for t in split.train]
        assert [t.id for t in loaded.test] == [t.id for t in split.test]
