"""Check-in log parsing, activity filtering, session splitting and
leave-one-out dataset splits."""

import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

log = logging.getLogger(__name__)

UNKNOWN_CATEGORY = "UNKNOWN"


class DataError(ValueError):
    pass


def check_coordinates(lat, lon):
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise DataError(f"coordinates out of bounds: ({lat}, {lon})")


@dataclass(frozen=True)
class CheckIn:
    user_id: str
    poi_id: str
    category_id: str
    timestamp: float  # UTC seconds
    lat: float
    lon: float

    def __post_init__(self):
        check_coordinates(self.lat, self.lon)
        if not (self.timestamp >= 0 and self.timestamp == self.timestamp):
            raise DataError(f"bad timestamp: {self.timestamp}")


@dataclass(frozen=True)
class Poi:
    poi_id: str
    category_id: str
    lat: float
    lon: float

    def __post_init__(self):
        check_coordinates(self.lat, self.lon)


@dataclass
class Trajectory:
    user_id: str
    checkins: list  # of CheckIn, ascending timestamp

    def __len__(self):
        return len(self.checkins)

    def poi_ids(self):
        return [c.poi_id for c in self.checkins]


@dataclass
class DatasetSplit:
    train: list = field(default_factory=list)  # Trajectory
    val: list = field(default_factory=list)  # (prefix Trajectory, target CheckIn)
    test: list = field(default_factory=list)
    catalog: list = field(default_factory=list)  # Poi, strictly ascending by poi_id


def catalog_rows(catalog):
    """poi_id -> row of each catalog POI: the one map from the poi_ids of
    files to the int rows that graphs, augmentation, the model and ranking
    work on."""
    return {p.poi_id: i for i, p in enumerate(catalog)}


# -- parsing ---------------------------------------------------------------

_FOURSQUARE_TIME = "%a %b %d %H:%M:%S %z %Y"


def _foursquare_timestamp(raw, day_starts):
    """Exactly `datetime.strptime(raw, _FOURSQUARE_TIME).timestamp()`, with
    `strptime` run once per distinct date rather than once per line.

    In the 30-character layout `Tue Apr 03 18:00:06 +0000 2012`, an ASCII
    `HH:MM:SS` at `raw[11:19]` can only be read as %H:%M:%S, so with an
    in-range clock the string parses iff it parses with the clock at
    00:00:00, and its timestamp is that midnight's plus the clock's seconds.
    Its offset has whole minutes, so both are whole seconds and the float sum
    is exact. `day_starts` maps the rest of the string to that midnight's
    timestamp; `strptime` still judges its weekday, month, day, offset and
    year. Any other string goes to `strptime` whole."""
    clock = raw[11:19]
    if len(raw) == 30 and clock.isascii() and clock[2] == clock[5] == ":":
        h, m, s = clock[:2], clock[3:5], clock[6:]
        if (h + m + s).isdigit():
            h, m, s = int(h), int(m), int(s)
            if h < 24 and m < 60 and s < 60:
                date = raw[:11] + raw[19:]
                base = day_starts.get(date)
                if base is None:
                    midnight = raw[:11] + "00:00:00" + raw[19:]
                    base = datetime.strptime(midnight, _FOURSQUARE_TIME).timestamp()
                    day_starts[date] = base
                return base + (h * 3600 + m * 60 + s)
    return datetime.strptime(raw, _FOURSQUARE_TIME).timestamp()


def _degrees(raw):
    # `float` also reads digits grouped by underscores, which no log writes
    if "_" in raw:
        raise ValueError(raw)
    return float(raw)


def _parse_foursquare_line(parts, day_starts):
    # user, venue, category_id, category_name, lat, lon, tz_offset_min, utc_time
    user, venue, cat_id, _cat_name, lat, lon, _tz, raw_time = parts
    ts = _foursquare_timestamp(raw_time, day_starts)
    return CheckIn(user, venue, cat_id, ts, _degrees(lat), _degrees(lon))


def _parse_gowalla_line(parts, _day_starts):
    # user, ISO-8601 time, lat, lon, location_id
    user, raw_time, lat, lon, loc = parts
    dt = datetime.fromisoformat(raw_time.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # Gowalla has no category labels; a single synthetic one keeps the
    # category encoding well-defined downstream.
    return CheckIn(user, loc, UNKNOWN_CATEGORY, dt.timestamp(), _degrees(lat), _degrees(lon))


# each unpacks exactly its format's fields, so a line with more or fewer fails
_PARSERS = {"foursquare": _parse_foursquare_line, "gowalla": _parse_gowalla_line}


def parse_checkins(path, fmt):
    """Parse a raw tab-separated check-in log. Malformed lines, including
    lines with more or fewer fields than the format has, are skipped and
    tallied; an unreadable file is fatal."""
    if fmt not in _PARSERS:
        raise DataError(f"unknown format {fmt!r}, expected one of {sorted(_PARSERS)}")
    parser = _PARSERS[fmt]
    path = Path(path)
    if not path.is_file():
        raise DataError(f"check-in file not found: {path}")
    checkins = []
    bad = 0
    day_starts = {}  # date part of a timestamp -> its midnight; this call only
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                checkins.append(parser(line.split("\t"), day_starts))
            except (ValueError, DataError):
                bad += 1
    if bad:
        log.warning("skipped %d malformed line(s) in %s", bad, path)
    return checkins, bad


# -- preprocessing ---------------------------------------------------------


def filter_inactive(checkins, min_user_visits=10, min_poi_users=10):
    """Drop inactive users and unpopular POIs, iterated to a fixpoint: after
    filtering, every remaining user has >= min_user_visits records and every
    remaining POI is visited by >= min_poi_users distinct users."""
    if min_user_visits < 1 or min_poi_users < 1:
        raise DataError("filter thresholds must be >= 1")
    current = list(checkins)
    while True:
        user_counts = {}
        poi_users = {}
        for c in current:
            user_counts[c.user_id] = user_counts.get(c.user_id, 0) + 1
            poi_users.setdefault(c.poi_id, set()).add(c.user_id)
        bad_users = {u for u, n in user_counts.items() if n < min_user_visits}
        bad_pois = {p for p, us in poi_users.items() if len(us) < min_poi_users}
        if not bad_users and not bad_pois:
            return current
        current = [
            c for c in current if c.user_id not in bad_users and c.poi_id not in bad_pois
        ]


def split_sessions(user_checkins, gap_seconds=24 * 3600.0):
    """Split one user's check-ins into trajectories at gaps > gap_seconds.

    Sorts defensively by timestamp (stable, so equal timestamps keep input
    order)."""
    if not user_checkins:
        return []
    ordered = sorted(user_checkins, key=lambda c: c.timestamp)
    user = ordered[0].user_id
    sessions = []
    current = [ordered[0]]
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.timestamp - prev.timestamp > gap_seconds:
            sessions.append(Trajectory(user, current))
            current = [cur]
        else:
            current.append(cur)
    sessions.append(Trajectory(user, current))
    return sessions


def truncate_recent(traj, t_max):
    """Keep the most recent t_max check-ins."""
    if t_max < 1:
        raise DataError("t_max must be >= 1")
    if len(traj) <= t_max:
        return traj
    return Trajectory(traj.user_id, traj.checkins[-t_max:])


def leave_one_out(traj):
    """Split a trajectory into (train part, val pair, test pair).

    Trajectories shorter than 3 are train-only: returns (traj, None, None).
    """
    if len(traj) < 3:
        return traj, None, None
    cs = traj.checkins
    test = (Trajectory(traj.user_id, cs[:-1]), cs[-1])
    val = (Trajectory(traj.user_id, cs[:-2]), cs[-2])
    train = Trajectory(traj.user_id, cs[:-2])
    return train, val, test


def build_catalog(checkins):
    """Derive the POI catalog (first-seen category/coordinates per POI),
    sorted by poi_id."""
    seen = {}
    for c in checkins:
        if c.poi_id not in seen:
            seen[c.poi_id] = Poi(c.poi_id, c.category_id, c.lat, c.lon)
    return [seen[k] for k in sorted(seen)]


def make_split(checkins, min_user_visits=10, min_poi_users=10, gap_seconds=24 * 3600.0,
               t_max=100):
    """Full preprocessing protocol: activity filtering, per-user session
    splitting, truncation to the most recent t_max, leave-one-out."""
    kept = filter_inactive(checkins, min_user_visits, min_poi_users)
    by_user = {}
    for c in kept:
        by_user.setdefault(c.user_id, []).append(c)
    split = DatasetSplit(catalog=build_catalog(kept))
    for user in sorted(by_user):
        for traj in split_sessions(by_user[user], gap_seconds):
            traj = truncate_recent(traj, t_max)
            train, val, test = leave_one_out(traj)
            if len(train) >= 1:
                split.train.append(train)
            if val is not None:
                split.val.append(val)
            if test is not None:
                split.test.append(test)
    return split


# -- serialization ---------------------------------------------------------


def _checkin_to_row(c):
    return [c.user_id, c.poi_id, c.category_id, c.timestamp, c.lat, c.lon]


def _checkin_from_row(row):
    if not isinstance(row, list) or len(row) != 6:
        raise DataError(f"check-in row {json.dumps(row)} is not a list of the 6 fields "
                        f"user, POI, category, timestamp, latitude, longitude")
    return CheckIn(row[0], row[1], row[2], float(row[3]), float(row[4]), float(row[5]))


def _json_line(path, lineno, line):
    """The JSON value of one line of a split file, or a DataError naming the
    file and line."""
    try:
        return json.loads(line)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: line is not JSON: {exc}") from None


def save_split(split, out_dir):
    """Write a DatasetSplit as newline-delimited JSON records, one trajectory
    (or eval pair) per line. Deterministic byte-for-byte."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "catalog.jsonl").open("w", encoding="utf-8") as fh:
        for p in split.catalog:
            fh.write(json.dumps([p.poi_id, p.category_id, p.lat, p.lon]) + "\n")
    with (out / "trajectories.jsonl").open("w", encoding="utf-8") as fh:
        for traj in split.train:
            rec = {"kind": "train", "user": traj.user_id,
                   "checkins": [_checkin_to_row(c) for c in traj.checkins]}
            fh.write(json.dumps(rec) + "\n")
        for kind, pairs in (("val", split.val), ("test", split.test)):
            for prefix, target in pairs:
                rec = {"kind": kind, "user": prefix.user_id,
                       "checkins": [_checkin_to_row(c) for c in prefix.checkins],
                       "target": _checkin_to_row(target)}
                fh.write(json.dumps(rec) + "\n")


def load_split(in_dir):
    """Read a `save_split` directory. Raises DataError, naming the file and
    line, unless every line is JSON, each catalog line a row of its 4 fields
    whose poi_ids strictly ascend (the row order of every later stage) and
    whose coordinates are in bounds, and unless each record is an object
    with a train, val or test "kind", a "user" and a "checkins" list, each
    val and test record a "target", and each check-in and target is a row
    of its 6 fields, with coordinates in bounds, naming a catalog POI."""
    src = Path(in_dir)
    cat_path = src / "catalog.jsonl"
    traj_path = src / "trajectories.jsonl"
    if not cat_path.is_file() or not traj_path.is_file():
        raise DataError(f"processed dataset not found under {src}")
    split = DatasetSplit()
    with cat_path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            row = _json_line(cat_path, lineno, line)
            if not isinstance(row, list) or len(row) != 4:
                raise DataError(f"{cat_path}:{lineno}: catalog row {line.strip()} is not a "
                                f"list of the 4 fields poi_id, category, latitude, longitude")
            poi_id, cat, lat, lon = row
            if split.catalog and poi_id <= (prev := split.catalog[-1].poi_id):
                why = "is listed twice" if poi_id == prev else f"follows {prev!r}"
                raise DataError(f"{cat_path}:{lineno}: POI {poi_id!r} {why}; catalog "
                                f"poi_ids must be strictly ascending")
            try:
                split.catalog.append(Poi(poi_id, cat, float(lat), float(lon)))
            except (TypeError, ValueError) as exc:  # DataError, or a field of the wrong type
                raise DataError(f"{cat_path}:{lineno}: {exc}") from None
    known = {p.poi_id for p in split.catalog}
    kinds = {"train": split.train, "val": split.val, "test": split.test}
    with traj_path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            rec = _json_line(traj_path, lineno, line)
            if not isinstance(rec, dict):
                raise DataError(f"{traj_path}:{lineno}: record {line.strip()} is not a "
                                f"JSON object")
            kind = rec.get("kind")
            if kind not in kinds:
                what = f"kind {kind!r}, not one of {', '.join(kinds)}" if "kind" in rec else 'no "kind"'
                raise DataError(f"{traj_path}:{lineno}: record has {what}")
            for key in ("user", "checkins") + (() if kind == "train" else ("target",)):
                if key not in rec:
                    raise DataError(f'{traj_path}:{lineno}: {kind} record has no "{key}"')
            if not isinstance(rec["checkins"], list):
                raise DataError(f'{traj_path}:{lineno}: {kind} record\'s "checkins" is not a list')
            rows = rec["checkins"] + ([rec["target"]] if "target" in rec else [])
            try:
                checkins = [_checkin_from_row(row) for row in rows]
            except (TypeError, ValueError) as exc:  # DataError, or a field of the wrong type
                raise DataError(f"{traj_path}:{lineno}: {exc}") from None
            missing = sorted({c.poi_id for c in checkins} - known)
            if missing:
                raise DataError(f"{traj_path}:{lineno}: {kind} record names POI "
                                f"{missing[0]!r}, which is not in the catalog")
            traj = Trajectory(rec["user"], checkins[:len(rec["checkins"])])
            kinds[kind].append(traj if kind == "train" else (traj, checkins[-1]))
    return split
