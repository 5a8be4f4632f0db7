import json
import pickle
import re
import time
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rumourlab.errors import ParseError, ValidationError
from rumourlab.ingest import (
    _SCHEMA,
    LABELS,
    AssemblyDiagnostics,
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
from rumourlab.synthetic import make_planted_records

from conftest import make_record, make_thread, oracle_assemble, oracle_record

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


_ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2**63 - 1, 2**63, 10**30, 1.5, 2005, 2006,
                     "", "a", "p", "rumour", "nonrumour", "maybe", "2015", "2020-01-01T00:00:00Z",
                     "2020-01-01T00:00:00", "soon", [], ["a"], {}, {"k": 1}]),
    st.integers(-3, 2**64), st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)


@st.composite
def _mutated_line(draw):
    """A good record with one or two fields changed, dropped, broken by a
    tab or line break, or added; now and then with trailing data, or a line
    that is no object at all."""
    record = dict(GOOD)
    record.update(draw(st.fixed_dictionaries({}, optional={
        "parent_id": st.just("p"), "label": st.sampled_from(["rumour", "nonrumour"])})))
    for name in draw(st.lists(st.sampled_from([*GOOD, "parent_id", "label", "extra"]),
                              min_size=1, max_size=2)):
        action = draw(st.sampled_from(["edge", "value", "drop", "break"]))
        if action == "drop":
            record.pop(name, None)
        elif action == "break":
            record[name] = draw(st.sampled_from(["a\tb", "\na", "a\r", "x\r\n"]))
        else:
            record[name] = draw(st.sampled_from([-1, 0, 2**63 - 1, 2**63, True, False, None])
                                if action == "edge" else _ODD_VALUES)
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if draw(st.integers(0, 7)):
        return line + draw(st.sampled_from(["", " ", "\u00a0"]))
    return draw(st.sampled_from([
        line + " x", line + "{}", line + ",", line[:-1] + ', "id": 7}',
        line[:-1] + ', "followers": ' + "9" * 5000 + "}", "[1]", '"s"', "3", "null", "{",
    ]))


# A good record under one of a few ids, so some lines repeat an id.
_good_line = st.builds(
    lambda i, extra: json.dumps({**GOOD, "id": f"g{i}", **extra}, ensure_ascii=False),
    st.integers(0, 20), st.fixed_dictionaries({}, optional={
        "parent_id": st.just("a"), "label": st.sampled_from(LABELS), "text": st.text()}))


class TestDifferentialOracle:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=_mutated_line())
    @example(line=json.dumps({**GOOD, "account_created_year": 0, "like_count": 2**63}))
    @example(line=json.dumps({**GOOD, "verified": 1}))
    @example(line=json.dumps({**GOOD, "followers": True}))
    @example(line=json.dumps({**GOOD, "like_count": 2**63}))
    @example(line=json.dumps({**GOOD, "parent_id": "a"}))
    @example(line=json.dumps({**GOOD, "parent_id": None, "label": None}))
    def test_load_accepts_exactly_what_the_oracle_accepts(self, tmp_path, line):
        path = tmp_path / "one.jsonl"
        path.write_bytes(line.encode("utf-8") + b"\n")
        expected = oracle_record(line.strip(), datetime.now(timezone.utc).year)
        try:
            (record,) = load_tweets(path)
        except ValidationError as exc:
            assert str(exc) == f"{path} line 1: {expected}"
            return
        assert type(expected) is TweetRecord, expected
        assert record == expected
        assert list(map(type, record)) == list(map(type, expected))

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), lines=st.lists(st.one_of(_mutated_line(), _good_line, _good_line),
                                          min_size=2, max_size=6),
           newline=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_multi_line_files_load_what_the_oracle_gives_line_by_line(self, tmp_path, data,
                                                                    lines, newline):
        """Blank and whitespace-only lines fall between the records, and now
        and then one line comes twice, so its id repeats if it is accepted."""
        if data.draw(st.booleans()):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(lines)))
        for _ in range(data.draw(st.integers(0, 2))):
            lines.insert(data.draw(st.integers(0, len(lines))),
                         data.draw(st.sampled_from(["", " ", "\t", " \u00a0\x0c "])))
        path = tmp_path / "many.jsonl"
        tail = data.draw(st.sampled_from(["", newline]))
        path.write_bytes((newline.join(lines) + tail).encode("utf-8"))
        year = datetime.now(timezone.utc).year
        expected, seen, refusal = [], set(), None
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            record = oracle_record(line.strip(), year)
            if type(record) is not TweetRecord:
                refusal = f"{path} line {line_no}: {record}"
            elif record.id in seen:
                refusal = f"{path} line {line_no}: duplicate tweet id {record.id!r}"
            if refusal:
                break
            seen.add(record.id)
            expected.append(record)
        try:
            loaded = load_tweets(path)
        except ValidationError as exc:
            assert str(exc) == refusal
            return
        assert refusal is None
        assert loaded == expected
        assert [list(map(type, r)) for r in loaded] == [list(map(type, r)) for r in expected]

    def test_loading_streams_the_file(self, tmp_path):
        """Loading holds little beyond the records it returns, its id set
        the most of it; a whole-file read would add this ~5 MB file's size."""
        path = tmp_path / "big.jsonl"
        text = "x" * 290
        path.write_text("".join(json.dumps({**GOOD, "id": f"t{i}", "text": text}) + "\n"
                                for i in range(10_000)), encoding="utf-8")
        assert path.stat().st_size > 5_000_000
        tracemalloc.start()
        try:
            records = load_tweets(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 10_000
        assert peak - retained < 1_000_000


class TestRecordShape:
    def test_replace_runs_the_checks(self):
        record = make_record("a", parent_id="p")
        assert record._replace(label="rumour").label == "rumour"
        with pytest.raises(ValidationError, match="^tweet a lists itself as parent$"):
            record._replace(parent_id=record.id)
        with pytest.raises(ValidationError, match="unknown label 'maybe'"):
            TweetRecord._make((*record[:-1], "maybe"))

    def test_pickle_round_trip_is_equal_and_checked(self):
        record = make_record("a", text="h\u00e9llo", label="rumour", parent_id="p")
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is TweetRecord
        unchecked = tuple.__new__(TweetRecord, (*record[:-1], "maybe"))
        with pytest.raises(ValidationError, match="unknown label 'maybe'"):
            pickle.loads(pickle.dumps(unchecked))

    def test_loaded_records_equal_the_written_ones(self, tmp_dataset):
        records = make_planted_records(n_threads=15, seed=4)
        loaded = load_tweets(tmp_dataset(records))
        assert loaded == records
        assert loaded[0] == tuple(records[0])
        assert [list(map(type, r)) for r in loaded] == [list(map(type, r)) for r in records]


class TestRecordValidation:
    def test_self_parent_rejected(self):
        with pytest.raises(ValidationError):
            make_record("x", parent_id="x")

    def test_account_year_range(self):
        with pytest.raises(ValidationError):
            make_record("x", account_created_year=2001)
        next_year = datetime.now(timezone.utc).year + 1
        with pytest.raises(ValidationError, match=f"account_created_year {next_year} outside"):
            make_record("x", account_created_year=next_year)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            make_record("x", label="maybe")


class TestFlatSchema:
    def test_record_fields_follow_the_schema(self):
        names = list(TweetRecord._fields)
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

    def test_long_chain_assembles_in_linear_time(self):
        """Each reply answers the one before; the deepest comes first, so
        its walk covers the whole chain and every later reply reuses it."""
        source = make_record("s", label="rumour")
        chain = [make_record(f"c{i}", minutes=i + 1, parent_id=f"c{i - 1}" if i else "s")
                 for i in range(20_000)]
        started = time.perf_counter()
        threads, diag = assemble_threads([source, *reversed(chain)])
        assert time.perf_counter() - started < 0.5
        (thread,) = threads
        assert thread.replies == tuple(chain)
        assert diag == AssemblyDiagnostics(orphan_replies=0, unlabeled_sources=0)

    def test_cycle_reached_through_a_chain_names_the_cycle(self):
        records = [make_record("s", label="rumour"), make_record("x", minutes=1, parent_id="s"),
                   make_record("r0", parent_id="r1"), make_record("r1", parent_id="a"),
                   make_record("a", parent_id="b"), make_record("b", parent_id="c"),
                   make_record("c", parent_id="a")]
        message = "cyclic parent links: a -> b -> c -> a"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            oracle_assemble(records)
        with pytest.raises(ValidationError, match=f"^data.jsonl: {message}$"):
            assemble_threads(records, "data.jsonl")

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n_sources=st.integers(1, 3), n_replies=st.integers(0, 8))
    def test_assembly_matches_the_oracle(self, data, n_sources, n_replies):
        """Replies answer sources, replies or missing ids, so chains, cycles
        and orphans all occur; a few minutes make ties and early replies."""
        ids = [f"s{i}" for i in range(n_sources)] + [f"r{i}" for i in range(n_replies)]
        records = [make_record(ids[i], minutes=data.draw(st.sampled_from([0, 0, 0, 1])),
                               label=data.draw(st.sampled_from([None, *LABELS])))
                   for i in range(n_sources)]
        for reply_id in ids[n_sources:]:
            parent = data.draw(st.sampled_from([i for i in ids if i != reply_id] + ["ghost"]))
            records.append(make_record(reply_id, minutes=data.draw(st.integers(0, 3)),
                                       parent_id=parent))
        records = data.draw(st.permutations(records))
        try:
            expected = oracle_assemble(records)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                assemble_threads(records)
            assert str(caught.value) == str(exc)
            return
        assert assemble_threads(records) == expected


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
        # The one `ratios` rule of the config, with its message.
        threads = self._threads(4, 4)
        for ratios in [(0.5, 0.2, 0.2), (1.0, -0.5, 0.5), (0.5, 0.5), (float("nan"),) * 3]:
            with pytest.raises(ValidationError) as refusal:
                split_dataset(threads, ratios, seed=1)
            assert str(refusal.value) == "ratios must be three positive fractions that sum to 1"

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
