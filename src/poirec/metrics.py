"""Full-catalog ranking and HR@K / nDCG@K computation."""

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_KS = (1, 5, 10, 20)


def rank_targets(scores, target_rows):
    """1-based rank of each row's target over the whole POI set: row i of the
    (B, P) score matrix, whose column j scores catalog row j, ranks
    catalog row target_rows[i].

    Ties are broken deterministically: equal-score POIs in a lower column
    (catalog rows ascend with poi_id: a smaller poi_id) precede the target.
    """
    scores = np.asarray(scores)
    cols = np.asarray(target_rows, dtype=np.int64)
    s_t = scores[np.arange(len(cols)), cols][:, None]
    ahead = (scores > s_t) | ((scores == s_t) & (np.arange(scores.shape[1]) < cols[:, None]))
    return (1 + np.count_nonzero(ahead, axis=1)).tolist()


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
