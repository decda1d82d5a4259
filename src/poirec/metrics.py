"""Full-catalog ranking and HR@K / nDCG@K computation."""

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_KS = (1, 5, 10, 20)


def rank_target(scores, poi_ids, target):
    """1-based rank of the target over the whole POI set.

    Ties are broken deterministically: equal-score POIs with a smaller
    poi_id precede the target.
    """
    scores = np.asarray(scores)
    try:
        t = poi_ids.index(target)
    except ValueError:
        raise ValueError(f"target {target!r} not in catalog") from None
    s_t = scores[t]
    tied = np.flatnonzero(scores == s_t)
    return 1 + int(np.count_nonzero(scores > s_t)) + sum(
        1 for j in tied.tolist() if poi_ids[j] < target)


def hit_rate(ranks, k):
    if not ranks:
        raise ValueError("empty rank list")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def ndcg(ranks, k):
    """Single relevant item: mean of 1/log2(rank+1) for rank <= k, else 0."""
    if not ranks:
        raise ValueError("empty rank list")
    return sum(1.0 / math.log2(r + 1) for r in ranks if r <= k) / len(ranks)


@dataclass
class MetricsReport:
    split: str
    count: int
    hr: dict = field(default_factory=dict)  # k -> HR@k
    ndcg: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "split": self.split,
            "count": self.count,
            "hr": {str(k): v for k, v in self.hr.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
        }

    def table(self):
        lines = [f"split={self.split} n={self.count}",
                 f"{'K':>4} {'HR@K':>10} {'nDCG@K':>10}"]
        for k in sorted(self.hr):
            lines.append(f"{k:>4} {self.hr[k]:>10.4f} {self.ndcg[k]:>10.4f}")
        return "\n".join(lines)


def report_from_ranks(ranks, split="test", ks=DEFAULT_KS):
    rep = MetricsReport(split=split, count=len(ranks))
    for k in ks:
        rep.hr[k] = hit_rate(ranks, k)
        rep.ndcg[k] = ndcg(ranks, k)
    return rep
