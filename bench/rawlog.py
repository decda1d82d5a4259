"""Seeded raw check-in logs in the Foursquare TSV layout.

Each user walks a fixed random POI-to-POI transition map in several
sessions. Session starts and noise jumps pick POIs by a Zipf-like popularity,
as check-ins are heavy-tailed in real logs. Sessions are separated by gaps
longer than 24 h, so `data.split_sessions` cuts them apart. Three
kinds of extra rows exercise preprocessing:

- inactive users with too few check-ins, dropped by the first filter round;
- rare POIs visited by a single "fringe" user each; a fringe user has exactly
  `min_user_visits` check-ins, one of them at a rare POI, so the filter
  drops the rare POI first and the user in its second round (the fixpoint);
- a known number of malformed lines, which `data.parse_checkins` must skip
  and count.
"""

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

CATEGORIES = ("4bf58dd8d48988d1e0931735", "4bf58dd8d48988d116941735",
              "4bf58dd8d48988d163941735", "4bf58dd8d48988d1fa931735",
              "4bf58dd8d48988d129951735", "4bf58dd8d48988d103941735",
              "4bf58dd8d48988d1c4941735", "4bf58dd8d48988d181941735")
CATEGORY_NAMES = ("Coffee Shop", "Bar", "Park", "Subway", "Train Station",
                  "Home (private)", "Restaurant", "Museum")
TIME_FORMAT = "%a %b %d %H:%M:%S +0000 %Y"
ZIPF = 1.0  # popularity exponent of session starts and jumps
N_MALFORMED = 12  # malformed lines per log
T0 = datetime(2012, 4, 3, 12, 0, tzinfo=timezone.utc).timestamp()

MALFORMED = (
    "{user}\t{venue}\tonly-three-fields",
    "{user}\t{venue}\t{cat}\tBar\t40.7\t-74.0\t-240\tnot a timestamp",
    "{user}\t{venue}\t{cat}\tBar\t123.0\t-74.0\t-240\tTue Apr 03 18:00:09 +0000 2012",
    "{user}\t{venue}\t{cat}\tBar\tnorth\t-74.0\t-240\tTue Apr 03 18:00:09 +0000 2012",
)


@dataclass(frozen=True)
class LogShape:
    n_pois: int
    n_users: int
    sessions: int  # short sessions per user
    session_len: tuple  # (shortest, longest); every length in between is
    # used equally often, so the total work varies little between seeds
    noise: float  # probability that a step jumps to a POI picked by popularity
    long_len: int  # length of one extra long session per user (0 = none); a
    # share `noise` of its check-ins revisit earlier POIs of the session, so
    # every long session has the same number of distinct POIs
    sweep: int  # short sessions that start evenly spaced along the cycle, so
    # every POI has visitors and the catalog keeps its width after filtering
    min_user_visits: int
    n_inactive: int  # users below min_user_visits
    n_fringe: int  # fringe users, one rare POI each


def _line(user, poi, cat_idx, lat, lon, ts):
    when = datetime.fromtimestamp(ts, tz=timezone.utc).strftime(TIME_FORMAT)
    return (f"{user}\t{poi}\t{CATEGORIES[cat_idx]}\t{CATEGORY_NAMES[cat_idx]}\t"
            f"{lat:.6f}\t{lon:.6f}\t-240\t{when}")


def write_log(path, shape, seed):
    """Write the log for `shape` and `seed`; the same pair gives the same
    bytes. Returns the number of lines that parse."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(shape.n_pois)))
    idx = np.arange(shape.n_pois)
    lats = 40.70 + (idx // side) * 0.004 + rng.uniform(-0.001, 0.001, shape.n_pois)
    lons = -74.00 + (idx % side) * 0.004 + rng.uniform(-0.001, 0.001, shape.n_pois)
    cats = rng.integers(len(CATEGORIES), size=shape.n_pois)
    pois = [f"v{i:05d}" for i in range(shape.n_pois)]
    # one cycle through every POI, so a walk revisits a POI only by a jump
    # and the graph sizes vary little between seeds
    order = rng.permutation(shape.n_pois)
    successor = np.empty_like(order)
    successor[order] = np.roll(order, -1)
    popularity = (1.0 + rng.permutation(shape.n_pois)) ** -ZIPF
    popularity /= popularity.sum()

    rows = []  # (timestamp, line)

    def visit(user, p, ts):
        rows.append((ts, _line(user, pois[p], cats[p], lats[p], lons[p], ts)))

    def popular():
        return int(rng.choice(shape.n_pois, p=popularity))

    def long_session(start):
        """`long_len` check-ins: distinct POIs along the cycle from `start`,
        with a fixed number of revisits of earlier ones at random steps."""
        n_revisits = round(shape.noise * shape.long_len)
        path = [start]
        while len(path) < shape.long_len - n_revisits:
            path.append(int(successor[path[-1]]))
        steps = sorted(rng.choice(np.arange(2, shape.long_len), n_revisits,
                               replace=False))
        for step in steps:  # never the POI just visited
            path.insert(step, path[int(rng.integers(step - 1))])
        return path

    lo, hi = shape.session_len
    n_short = shape.n_users * shape.sessions
    all_lengths = rng.permutation(np.resize(np.arange(lo, hi + 1), n_short))
    starts = [None] * n_short  # None: pick by popularity
    for i, k in enumerate(rng.permutation(n_short)[:shape.sweep]):
        starts[k] = int(order[i * shape.n_pois // shape.sweep])
    for u in range(shape.n_users):
        user = f"{100000 + u}"
        ts = T0 + rng.uniform(0, 7 * 86400)
        mine = range(u * shape.sessions, (u + 1) * shape.sessions)
        sessions = [(int(all_lengths[k]), starts[k]) for k in mine]
        if shape.long_len:
            sessions.insert(int(rng.integers(len(sessions) + 1)), (shape.long_len, "long"))
        for length, cur in sessions:
            if cur == "long":
                for p in long_session(popular()):
                    visit(user, p, ts)
                    ts += rng.uniform(0.2, 1.0) * 3600
                ts += rng.uniform(30, 120) * 3600  # session gap > 24 h
                continue
            cur = popular() if cur is None else cur
            for step in range(length):
                if step:
                    ts += rng.uniform(0.2, 6.0) * 3600  # under 24 h
                    cur = popular() if rng.random() < shape.noise else int(successor[cur])
                visit(user, cur, ts)
            ts += rng.uniform(30, 120) * 3600  # session gap > 24 h

    for u in range(shape.n_inactive):
        user = f"{300000 + u}"
        ts = T0 + rng.uniform(0, 7 * 86400)
        for _ in range(shape.min_user_visits - 1):
            visit(user, int(rng.integers(shape.n_pois)), ts)
            ts += 3600

    rare_lat, rare_lon = float(lats.max()) + 0.05, float(lons.max()) + 0.05
    for u in range(shape.n_fringe):
        user = f"{500000 + u}"
        ts = T0 + rng.uniform(0, 7 * 86400)
        for _ in range(shape.min_user_visits - 1):
            visit(user, int(rng.integers(shape.n_pois)), ts)
            ts += 3600
        rows.append((ts, _line(user, f"r{u:05d}", 0, rare_lat, rare_lon + 0.01 * u, ts)))

    good = len(rows)
    rows.sort(key=lambda r: r[0])
    lines = [line for _, line in rows]
    for k in range(N_MALFORMED):
        bad = MALFORMED[k % len(MALFORMED)].format(
            user=f"{100000 + k}", venue=pois[k % shape.n_pois], cat=CATEGORIES[0])
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return good
