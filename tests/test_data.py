import json

import pytest

from poirec.data import (CheckIn, DataError, Trajectory, build_catalog,
                         filter_inactive, leave_one_out, load_split,
                         make_split, parse_checkins, save_split,
                         split_sessions, truncate_recent)
from conftest import make_traj

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

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            parse_checkins(tmp_path / "nope.tsv", "foursquare")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataError, match="unknown format"):
            parse_checkins(tmp_path, "yelp")


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
        split = make_split(cs, t_max=100)
        save_split(split, tmp_path / "out")
        loaded = load_split(tmp_path / "out")
        assert [p.poi_id for p in loaded.catalog] == [p.poi_id for p in split.catalog]
        assert [t.poi_ids() for t in loaded.train] == [t.poi_ids() for t in split.train]
        assert [(p.poi_ids(), t.poi_id) for p, t in loaded.test] == \
               [(p.poi_ids(), t.poi_id) for p, t in split.test]

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

    @pytest.mark.parametrize("kind, field", [("train", "checkins"), ("val", "checkins"),
                                             ("test", "checkins"), ("val", "target"),
                                             ("test", "target")])
    def test_load_rejects_poi_missing_from_catalog(self, tmp_path, kind, field):
        cs = [ci(f"u{u}", f"p{j}", u * 5000.0 + j * 10) for u in range(12) for j in range(12)]
        save_split(make_split(cs), tmp_path)
        path = tmp_path / "trajectories.jsonl"
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        lineno = next(i for i, r in enumerate(recs, 1) if r["kind"] == kind)
        rec = recs[lineno - 1]
        (rec["target"] if field == "target" else rec["checkins"][-1])[1] = "zz"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(DataError, match=f"trajectories.jsonl:{lineno}: {kind} record "
                                            f"names POI 'zz', which is not in the catalog"):
            load_split(tmp_path)
