import functools
import json
import tempfile
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poirec.data import (CheckIn, DatasetSplit, DataError, Poi, Trajectory,
                         build_catalog, filter_inactive, leave_one_out,
                         load_split, make_split, parse_checkins, save_split,
                         split_sessions, truncate_recent)
from conftest import catalog_of, make_traj
import oracles

FSQ_LINE = ("470\t49bbd6c0f964a520f4531fe3\t4bf58dd8d48988d127951735"
            "\tArts & Crafts Store\t35.67\t139.70\t540"
            "\tTue Apr 03 18:00:06 +0000 2012")
GOW_LINE = "196514\t2010-07-24T13:45:06Z\t53.3648119\t-2.2723465833\t145064"


def ci(user, poi, ts, cat="c", lat=0.0, lon=0.0):
    return CheckIn(user, poi, cat, ts, lat, lon)


class TestParsing:
    def test_empty_file(self, tmp_path):
        f = tmp_path / "log.tsv"
        f.write_text("")
        checkins, bad = parse_checkins(f, "foursquare")
        assert checkins == [] and bad == 0

    def test_foursquare_line(self, tmp_path):
        f = tmp_path / "log.tsv"
        f.write_text(FSQ_LINE + "\n")
        checkins, bad = parse_checkins(f, "foursquare")
        assert bad == 0 and len(checkins) == 1
        c = checkins[0]
        assert (c.lat, c.lon) == (35.67, 139.70)
        assert c.user_id == "470"
        assert c.timestamp == 1333476006.0  # 2012-04-03T18:00:06Z

    def test_gowalla_line(self, tmp_path):
        f = tmp_path / "log.tsv"
        f.write_text(GOW_LINE + "\n")
        checkins, bad = parse_checkins(f, "gowalla")
        assert bad == 0
        assert checkins[0].poi_id == "145064"
        assert checkins[0].category_id == "UNKNOWN"

    def test_truncated_lines_counted(self, tmp_path):
        f = tmp_path / "log.tsv"
        f.write_text("\n".join([FSQ_LINE, FSQ_LINE, FSQ_LINE, "470\tbroken"]) + "\n")
        checkins, bad = parse_checkins(f, "foursquare")
        assert len(checkins) == 3 and bad == 1

    def test_underscores_and_extra_fields_are_bad_lines(self, tmp_path):
        # `float` reads 4_0.7 as 40.7; a ten-field line has two extra fields
        f = tmp_path / "log.tsv"
        f.write_text(FSQ_LINE.replace("35.67", "3_5.67") + "\n"
                     + FSQ_LINE + "\textra\tfields\n")
        assert parse_checkins(f, "foursquare") == ([], 2)
        f.write_text(GOW_LINE.replace("53.3", "5_3.3") + "\n" + GOW_LINE + "\t1\n")
        assert parse_checkins(f, "gowalla") == ([], 2)

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            parse_checkins(tmp_path / "nope.tsv", "foursquare")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataError, match="unknown format"):
            parse_checkins(tmp_path, "yelp")


# -- timestamps against the one-strptime-per-line oracle --------------------

WEEKDAYS = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct",
          "Nov", "Dec"]
# decimal digits of other scripts (Arabic-Indic 3, fullwidth 3, Devanagari 0),
# which `strptime`'s \d matches, and superscript 2, which is no decimal digit
ODD_DIGITS = "\u0663\uff13\u0966\u00b2"
LINE_TEXT = st.characters(codec="utf-8", exclude_characters="\n\r")
FIELD_TEXT = st.characters(codec="utf-8", exclude_characters="\n\r\t")


def padded(lo, hi, width=2):
    return st.integers(lo, hi).map(lambda n: str(n).zfill(width))


def number(good_hi, hi, width=2, lo=0):
    """In seven draws of eight `lo..good_hi` zero-padded to `width`; else
    `0..hi` zero-padded, unpadded, space-padded, or with one digit from
    another script."""
    wide = padded(0, hi, width)
    odd_digit = st.tuples(wide, st.integers(0, width - 1), st.sampled_from(ODD_DIGITS)).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:])
    odd = st.one_of(wide, st.integers(0, hi).map(str),
                    st.integers(0, hi).map(lambda n: str(n).rjust(width)), odd_digit)
    return st.sampled_from([padded(lo, good_hi, width)] * 7 + [odd]).flatmap(lambda s: s)


def offset(hours, minutes, colons):
    return st.tuples(st.sampled_from("+-"), hours, colons, minutes).map("".join)


# weekday, month, day, year, offset and the five gaps around the clock of a
# valid date, and of one that may be near it or wrong
GOOD_PARTS = (st.sampled_from(WEEKDAYS), st.sampled_from(MONTHS), padded(1, 28),
              padded(1, 9999, 4), offset(padded(0, 23), padded(0, 59), st.just("")),
              st.just((" ",) * 5))
NEAR_PARTS = (st.sampled_from(WEEKDAYS + ["tue", "SUN", "Tues", "Xyz"]),
              st.sampled_from(MONTHS + ["apr", "DEC", "Sept", "Foo"]),
              number(31, 39, lo=1), number(9999, 9999, 4),
              offset(padded(0, 29), padded(0, 99), st.sampled_from(["", ":"])),
              st.tuples(*[st.sampled_from([" ", "  ", "\u00a0"])] * 5))
CLOCK = st.tuples(number(23, 69), number(59, 69), number(59, 69)).map(":".join)


@st.composite
def foursquare_times(draw):
    """Timestamps on a valid date and on six dates that each differ from it
    in one part, with 1-3 clocks per date, in any order: dates repeat with
    other clocks, as in a real log, and a near miss of each part is there."""
    first = draw(st.tuples(*GOOD_PARTS))
    pool = [first] + [first[:k] + (draw(near.filter(lambda v: v != first[k])),) + first[k + 1:]
                      for k, near in enumerate(NEAR_PARTS)]
    stamps = [f"{wd}{s[0]}{mon}{s[1]}{day}{s[2]}{clock}{s[3]}{off}{s[4]}{year}"
              for wd, mon, day, year, off, s in pool
              for clock in draw(st.lists(CLOCK, min_size=1, max_size=3))]
    return draw(st.permutations(stamps))


CANONICAL = st.datetimes(min_value=datetime(1970, 1, 2)).map(
    lambda dt: dt.strftime("%a %b %d %H:%M:%S +0000 %Y"))
# a canonical time with one character replaced, or any text
TIME_TEXT = st.one_of(
    st.tuples(CANONICAL, st.integers(0, 29), FIELD_TEXT).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:]),
    st.text(FIELD_TEXT, max_size=40))
GOWALLA_TIMES = st.one_of(
    st.builds(lambda dt, zone: dt.isoformat() + zone, st.datetimes(),
              st.sampled_from(["", "Z", "+05:30", "-0800", "+24:00"])),
    st.text(FIELD_TEXT, max_size=30))


def foursquare_line(i, raw_time):
    return f"{i}\tv{i % 3}\tc1\tBar\t40.7\t-74.0\t-240\t{raw_time}"


def gowalla_line(i, raw_time):
    return f"{i}\t{raw_time}\t53.36\t-2.27\t{i % 3}"


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "log.tsv"


def assert_parses_as_oracle(path, lines, fmt):
    """`parse_checkins` of `lines` accepts the same check-ins, with equal
    timestamps, and counts the lines the one-line-at-a-time oracle
    rejects."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got, bad = parse_checkins(path, fmt)
    want, rejected = oracles.parse_lines(lines, fmt)
    assert got == want
    assert bad == len(rejected)
    return got, rejected


class TestTimestampOracle:
    @given(foursquare_times())
    def test_near_canonical_foursquare(self, log_path, times):
        lines = [foursquare_line(i, t) for i, t in enumerate(times)]
        got, rejected = assert_parses_as_oracle(log_path, lines, "foursquare")
        # user ids are line numbers: the same lines are kept and rejected
        assert [int(c.user_id) for c in got] == \
            [i for i in range(len(lines)) if i not in rejected]

    @given(st.lists(TIME_TEXT, min_size=1, max_size=8))
    def test_foursquare_time_text(self, log_path, times):
        lines = [foursquare_line(i, t) for i, t in enumerate(times)]
        assert_parses_as_oracle(log_path, lines, "foursquare")

    @given(st.lists(GOWALLA_TIMES, min_size=1, max_size=8))
    def test_gowalla_time_text(self, log_path, times):
        lines = [gowalla_line(i, t) for i, t in enumerate(times)]
        assert_parses_as_oracle(log_path, lines, "gowalla")

    @pytest.mark.parametrize("fmt", ["foursquare", "gowalla"])
    @given(lines=st.lists(st.text(LINE_TEXT, min_size=1, max_size=60), min_size=1,
                          max_size=6))
    def test_arbitrary_lines(self, log_path, fmt, lines):
        assert_parses_as_oracle(log_path, lines, fmt)

    @pytest.mark.parametrize("raw", [
        "Tue Apr 03 18:00:06 +0000 2012",
        "Wed Feb 29 23:59:59 +0000 2012",  # leap day
        "Thu Feb 29 00:00:00 +0000 2013",  # no Feb 29 in 2013
        "Mon Feb 30 12:00:00 +0000 2012",
        "Mon Apr 31 12:00:00 +0000 2012",
        "Tue Apr 03 24:00:00 +0000 2012",
        "Tue Apr 03 23:60:00 +0000 2012",
        "Tue Apr 03 23:59:60 +0000 2012",  # leap second
        "Tue Apr 03 18:00:06 +2359 2012",
        "Tue Apr 03 18:00:06 -23:59 2012",
        "Tue Apr 03 18:00:06 +2400 2012",
        "Tue Apr 03 18:00:06 +0060 2012",
        "Mon Jan 01 00:00:00 +0000 0000",
        "Fri Dec 31 23:59:59 -2359 9999",
        "Xyz Apr 03 18:00:06 +0000 2012",
        "Tue Foo 03 18:00:06 +0000 2012",
        "tue APR 03 18:00:06 +0000 2012",
        "Mon Apr 03 18:00:06 +0000 2012",  # weekday not that date's
        "Tue Apr  3 18:00:06 +0000 2012",
        "Tue Apr 3 18:00:06 +0000 2012",
        "Tue Apr 03 8:00:06 +0000 2012",
        "Tue Apr 03 18:00:06  +0000 2012",
        "Tue Apr 03 18:00:06 +0000 2012 ",
        "Tue Apr 03 1\u0668:00:06 +0000 2012",
        "Tue Apr 03 \u06608:00:06 +0000 2012",  # \d, but not [0-1]\d
        "Tue Apr 03 18: 0:06 +0000 2012",
        "Tue Apr 03 18:+1:06 +0000 2012",
        "Tue Apr 03 18:00:0\u00b2 +0000 2012",
        "Tue Apr 03 +18:00:06 +0000 2012",
        "Tue Apr 03 18-00-06 +0000 2012",
        "Tue Apr 03 18:00:06 Z 2012",
    ])
    def test_edge_timestamps(self, log_path, raw):
        assert_parses_as_oracle(log_path, [foursquare_line(0, raw)], "foursquare")

    def test_dates_last_one_call(self, tmp_path, monkeypatch):
        """Each call starts from no parsed dates: parsing a log again runs
        `strptime` once per distinct date again, and two logs parsed in turn
        give the oracle's check-ins."""
        calls = []

        class Counted(datetime):
            @classmethod
            def strptime(cls, raw, fmt):
                calls.append(raw)
                return datetime.strptime(raw, fmt)

        monkeypatch.setattr("poirec.data.datetime", Counted)
        first = [foursquare_line(i, f"Tue Apr 03 {h:02d}:{i:02d}:06 +0000 2012")
                 for i, h in enumerate([18, 9, 23, 0])]
        first.append(foursquare_line(4, "Wed Apr 04 01:00:00 +0000 2012"))
        second = [foursquare_line(i, f"Tue Apr 03 12:00:{i:02d} +0130 2012")
                  for i in range(3)]
        for lines, dates in ((first, 2), (second, 1), (first, 2)):
            calls.clear()
            assert_parses_as_oracle(tmp_path / "log.tsv", lines, "foursquare")
            assert len(calls) == dates


class TestFilterInactive:
    def test_sparse_user_removed(self):
        # 9-visit user goes; the popular POI keeps its other visitors
        data = [ci("sparse", "p0", t) for t in range(9)]
        data += [ci(f"u{k}", "p0", 100 + k) for k in range(10)]
        data += [ci(f"u{k}", "p1", 200 + k) for k in range(10)]
        # make the u* users active enough (10 records each)
        data += [ci(f"u{k}", "p0", 300 + 10 * k + i) for k in range(10) for i in range(8)]
        kept = filter_inactive(data)
        assert all(c.user_id != "sparse" for c in kept)
        assert any(c.user_id == "u0" for c in kept)

    def test_fixpoint_immediately_when_all_active(self):
        data = [ci(f"u{k}", f"p{j}", k * 100 + j) for k in range(10) for j in range(10)]
        assert filter_inactive(data) == data

    def test_cascade_matches_bruteforce(self):
        # removing the weak user drops p_frail below 10 users, whose removal
        # in turn drops a dependent user below 10 records
        data = []
        for k in range(10):
            data += [ci(f"solid{k}", f"p{j}", k * 1000 + j) for j in range(10)]
        data += [ci("weak", "p_frail", 5)] + [ci("weak", "p0", 10 + j) for j in range(4)]
        data += [ci(f"solid{k}", "p_frail", 2000 + k) for k in range(8)]
        data += [ci("dependent", "p_frail", 3000)]
        data += [ci("dependent", f"p{j}", 3100 + j) for j in range(9)]

        def brute(records):
            while True:
                users = {}
                poi_users = {}
                for c in records:
                    users[c.user_id] = users.get(c.user_id, 0) + 1
                    poi_users.setdefault(c.poi_id, set()).add(c.user_id)
                nxt = [c for c in records
                       if users[c.user_id] >= 10 and len(poi_users[c.poi_id]) >= 10]
                if nxt == records:
                    return records
                records = nxt

        kept = filter_inactive(data)
        assert kept == brute(data)
        kept_users = {c.user_id for c in kept}
        assert "weak" not in kept_users and "dependent" not in kept_users
        assert all(c.poi_id != "p_frail" for c in kept)

    def test_idempotent(self):
        data = [ci(f"u{k}", f"p{j}", k + j) for k in range(12) for j in range(12)]
        data += [ci("x", "p0", 999)]
        once = filter_inactive(data)
        assert filter_inactive(once) == once

    def test_bad_thresholds(self):
        with pytest.raises(DataError):
            filter_inactive([], min_user_visits=0)


class TestSessionSplitting:
    def test_gap_splits(self):
        hours = [0, 10, 40]
        cs = [ci("u", f"p{i}", h * 3600.0) for i, h in enumerate(hours)]
        sessions = split_sessions(cs)
        assert [len(s) for s in sessions] == [2, 1]

    def test_single_checkin(self):
        assert len(split_sessions([ci("u", "p", 0)])) == 1

    def test_each_gap_under_limit_stays_together(self):
        hours = [0, 23.9, 47.8]
        cs = [ci("u", f"p{i}", h * 3600.0) for i, h in enumerate(hours)]
        sessions = split_sessions(cs)
        assert len(sessions) == 1
        # pairwise-gap oracle
        gaps = [b.timestamp - a.timestamp for a, b in zip(cs, cs[1:])]
        assert all(g <= 24 * 3600 for g in gaps)

    def test_partition_property(self, rng):
        cs = [ci("u", f"p{i}", float(t))
              for i, t in enumerate(rng.integers(0, 1_000_000, size=40))]
        sessions = split_sessions(cs)
        flat = [c for s in sessions for c in s.checkins]
        assert flat == sorted(cs, key=lambda c: c.timestamp)

    def test_sorts_defensively(self):
        cs = [ci("u", "b", 100.0), ci("u", "a", 0.0)]
        (session,) = split_sessions(cs)
        assert session.poi_ids() == ["a", "b"]


class TestTruncateAndSplit:
    def test_truncate_short_unchanged(self):
        t = make_traj(list("abcde"))
        assert truncate_recent(t, 8) is t

    def test_truncate_keeps_suffix(self):
        t = make_traj([f"p{i}" for i in range(10)])
        out = truncate_recent(t, 8)
        assert out.poi_ids() == [f"p{i}" for i in range(2, 10)]

    def test_truncate_boundary(self):
        t = make_traj(list("abc"))
        assert truncate_recent(t, 3) is t

    def test_leave_one_out_five(self):
        t = make_traj(["p1", "p2", "p3", "p4", "p5"])
        train, val, test = leave_one_out(t)
        assert test[0].poi_ids() == ["p1", "p2", "p3", "p4"]
        assert test[1].poi_id == "p5"
        assert val[0].poi_ids() == ["p1", "p2", "p3"]
        assert val[1].poi_id == "p4"
        assert train.poi_ids() == ["p1", "p2", "p3"]

    def test_leave_one_out_minimum(self):
        train, val, test = leave_one_out(make_traj(["p1", "p2", "p3"]))
        assert train.poi_ids() == ["p1"]
        assert val[1].poi_id == "p2" and test[1].poi_id == "p3"

    def test_too_short_is_train_only(self):
        train, val, test = leave_one_out(make_traj(["p1", "p2"]))
        assert val is None and test is None
        assert train.poi_ids() == ["p1", "p2"]

    def test_targets_not_in_train_suffix(self):
        t = make_traj([f"q{i}" for i in range(6)])
        train, val, test = leave_one_out(t)
        assert len(train) == len(t) - 2
        assert val[1].timestamp not in [c.timestamp for c in train.checkins]


class TestRoundTrip:
    def test_save_load_lossless(self, tmp_path):
        cs = []
        for u in range(12):
            for j in range(12):
                cs.append(ci(f"u{u}", f"p{j}", u * 5000.0 + j * 10, cat=f"c{j % 3}",
                             lat=1.0 * j, lon=-2.0 * j))
        cs += [ci("u0", f"p{j}", 1e6 + j * 10) for j in range(2)]  # a train-only session
        split = make_split(cs, t_max=100)
        save_split(split, tmp_path / "out")
        loaded = load_split(tmp_path / "out")
        assert loaded == split
        assert (loaded.train, loaded.val, loaded.test, loaded.catalog) == \
               (split.train, split.val, split.test, split.catalog)
        assert len(split.train) == len(split.val) + 1

    def test_split_is_leave_one_out_of_each_session(self):
        sessions = [make_traj(list("abcde")), make_traj(list("ab"), user="u2"),
                    make_traj(list("cab"), user="u3")]
        split = DatasetSplit(sessions, catalog_of(sessions))
        parts = [leave_one_out(s) for s in sessions]
        assert split.train == [train for train, _, _ in parts]
        assert split.val == [val for _, val, _ in parts if val is not None]
        assert split.test == [test for _, _, test in parts if test is not None]

    def test_one_record_per_session(self, tmp_path):
        cs = [ci(f"u{u}", f"p{j}", u * 5000.0 + j * 10) for u in range(12) for j in range(12)]
        split = make_split(cs)
        save_split(split, tmp_path)
        recs = [json.loads(line) for line in (tmp_path / "trajectories.jsonl").open()]
        assert [(r["user"], [row[0] for row in r["checkins"]]) for r in recs] == \
               [(s.user_id, s.poi_ids()) for s in split.sessions]

    def test_deterministic_bytes(self, tmp_path):
        cs = [ci(f"u{u}", f"p{j}", u * 999.0 + j) for u in range(11) for j in range(11)]
        for name in ("a", "b"):
            save_split(make_split(cs), tmp_path / name)
        assert (tmp_path / "a" / "trajectories.jsonl").read_bytes() == \
               (tmp_path / "b" / "trajectories.jsonl").read_bytes()

    def test_catalog_is_sorted_unique(self):
        cs = [ci("u", p, i) for i, p in enumerate("cabca")]
        cat = build_catalog(cs)
        assert [p.poi_id for p in cat] == ["a", "b", "c"]

    @pytest.mark.parametrize("order, message", [
        (["a", "c", "b"], "catalog.jsonl:3: POI 'b' follows 'c'"),
        (["a", "b", "b"], "catalog.jsonl:3: POI 'b' is listed twice"),
        (["b", "a"], "catalog.jsonl:2: POI 'a' follows 'b'"),
    ], ids=["out-of-order", "repeated", "descending"])
    def test_load_rejects_catalog_not_strictly_ascending(self, tmp_path, order, message):
        save_split(DatasetSplit([], [Poi(p, "c", 0.0, 0.0) for p in order]), tmp_path)
        with pytest.raises(DataError, match=f"{message}; catalog poi_ids must be strictly "
                                            f"ascending"):
            load_split(tmp_path)

    # the check-in of a session's train part, the one that becomes its val
    # target, and the one that becomes its test target
    @pytest.mark.parametrize("kind, field", [("train", "checkins"), ("val", "target"),
                                             ("test", "target")])
    def test_load_rejects_poi_missing_from_catalog(self, tmp_path, kind, field):
        cs = [ci(f"u{u}", f"p{j}", u * 5000.0 + j * 10) for u in range(12) for j in range(12)]
        save_split(make_split(cs), tmp_path)
        path = tmp_path / "trajectories.jsonl"
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        recs[3]["checkins"][{"train": 0, "val": -2, "test": -1}[kind]][0] = "zz"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(DataError, match="trajectories.jsonl:4: record names POI 'zz', "
                                            "which is not in the catalog"):
            load_split(tmp_path)


JSON_VALUES = (None, True, 0, 1.5, "x", [], {})


def _json_paths(value, at=()):
    """The path (keys and indices) of every part of a JSON value, its own () first."""
    yield at
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, part in items:
        yield from _json_paths(part, at + (key,))


def _mutate_line(data, line):
    """`line` with one key of its JSON value dropped or one value replaced by
    one of another JSON type; unchanged if it is not JSON."""
    try:
        holder = [json.loads(line)]  # so that the whole value has a parent too
    except ValueError:
        return line
    paths = [(0,) + path for path in _json_paths(holder[0])]
    drop = data.draw(st.booleans()) and len(paths) > 1
    *at, last = data.draw(st.sampled_from(paths[1:] if drop else paths))
    parent = holder
    for key in at:
        parent = parent[key]
    if drop:
        del parent[last]
    else:
        parent[last] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(parent[last])]))
    return json.dumps(holder[0]) + "\n"


@functools.cache
def _valid_split_files():
    """name -> text of a small valid split: sessions of 1 to 6 check-ins."""
    cs = [ci(f"u{u}", f"p{(u + j) % 5}", u * 1e6 + j * 3600 + (j >= 2 + u) * 2e5,
             cat=f"c{j % 2}", lat=0.5 * u, lon=-0.5 * j) for u in range(3) for j in range(7)]
    with tempfile.TemporaryDirectory() as d:
        save_split(make_split(cs, min_user_visits=1, min_poi_users=1), d)
        return {name: (Path(d) / name).read_text()
                for name in ("catalog.jsonl", "trajectories.jsonl")}


class TestLoadFuzz:
    @settings(max_examples=500)
    @given(st.data())
    def test_valid_split_or_data_error_naming_the_file(self, data):
        files = dict(_valid_split_files())
        for _ in range(data.draw(st.integers(1, 2))):
            name = data.draw(st.sampled_from(sorted(files)))
            text = files[name]
            lines = text.splitlines(keepends=True)
            op = data.draw(st.sampled_from(["mutate", "cut", "duplicate", "swap"]))
            if op == "cut":
                files[name] = text[:data.draw(st.integers(0, len(text)))]
                continue
            if not lines:
                continue
            i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if op == "mutate":
                lines[i] = _mutate_line(data, lines[i])
            elif op == "duplicate":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            files[name] = "".join(lines)
        with tempfile.TemporaryDirectory() as d:
            for name, text in files.items():
                (Path(d) / name).write_text(text)
            try:
                split = load_split(d)
            except DataError as exc:
                assert str(exc).startswith(tuple(f"{Path(d) / name}:" for name in files)), exc
            else:
                assert isinstance(split, DatasetSplit)
