import math

import numpy as np
import pytest

from poirec.metrics import (DEFAULT_KS, hit_rate, ndcg, rank_targets,
                            report_from_ranks)
import oracles


def ids(n):
    # zero-padded so lexicographic order matches numeric order, as catalog
    # rows ascend with poi_id
    return [f"p{i:03d}" for i in range(n)]


def rank_one(scores, target):
    """`rank_targets` of one score row and its target row."""
    return rank_targets(np.asarray(scores)[None, :], [target])[0]


class TestRankTarget:
    def test_top_score_is_rank_one(self):
        assert rank_one([0.1, 0.9, 0.3], 1) == 1

    def test_middle_rank(self):
        assert rank_one([0.5, 0.9, 0.3], 0) == 2

    def test_uniform_scores_tie_rule(self):
        # all equal: rank is 1 + number of lower columns
        n = 100
        assert rank_one([1.0] * n, 36) == 37

    def test_tie_with_larger_id_wins(self):
        # equal scores, target in the lower column (the smaller id): target first
        assert rank_one([0.5, 0.5], 0) == 1
        assert rank_one([0.5, 0.5], 1) == 2

    def test_matches_argsort_oracle_without_ties(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 50))
            scores = rng.permutation(n).astype(float)  # all distinct
            target = int(rng.integers(n))
            assert rank_one(list(scores), target) == list(np.argsort(-scores)).index(target) + 1

    def test_permutation_invariance(self, rng):
        # shuffling the columns on either side of the target's keeps its rank
        scores = np.array([0.3, 0.7, 0.7, 0.1, 0.7, 0.9, 0.7])
        for target in (2, 4):
            base = rank_one(scores, target)
            for _ in range(10):
                perm = np.r_[rng.permutation(target), target,
                             target + 1 + rng.permutation(len(scores) - target - 1)]
                assert rank_one(scores[perm], target) == base

    def test_missing_target_fatal(self):
        with pytest.raises(IndexError):
            rank_one([1.0], 1)

    def test_matches_loop_oracle_with_ties(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 80))
            scores = rng.integers(0, 4, size=n).astype(float)  # forced ties
            target = int(rng.integers(n))
            want = oracles.rank_target(list(scores), ids(n), ids(n)[target])
            assert rank_one(list(scores), target) == want
            assert rank_one(scores, target) == want
            assert rank_one(scores.astype(np.float32), target) == want


class TestRankTargets:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_match_loop_oracle(self, rng, dtype):
        for _ in range(20):
            n, b = int(rng.integers(1, 80)), int(rng.integers(1, 12))
            scores = rng.integers(0, 4, size=(b, n)).astype(dtype)  # forced ties
            targets = rng.integers(n, size=b).tolist()
            want = [oracles.rank_target(list(row), ids(n), ids(n)[t])
                    for row, t in zip(scores, targets)]
            assert rank_targets(scores, targets) == want
            assert oracles.rank_targets(scores, ids(n), [ids(n)[t] for t in targets]) == want

    def test_continuous_scores(self, rng):
        scores = rng.normal(size=(30, 50)).astype(np.float32)
        targets = rng.integers(50, size=30).tolist()
        want = [oracles.rank_target(list(row), ids(50), ids(50)[t])
                for row, t in zip(scores, targets)]
        assert rank_targets(scores, targets) == want

    def test_missing_target_fatal(self):
        with pytest.raises(IndexError):
            rank_targets(np.ones((2, 2)), [0, 2])

    def test_no_rows(self):
        assert rank_targets(np.ones((0, 3)), []) == []


class TestHitRate:
    def test_closed_form(self):
        ranks = [1, 3, 11, 40]
        assert hit_rate(ranks, 1) == 0.25
        assert hit_rate(ranks, 10) == 0.5
        assert hit_rate(ranks, 100) == 1.0

    def test_monotone_in_k(self, rng):
        ranks = list(rng.integers(1, 200, size=50))
        values = [hit_rate(ranks, k) for k in (1, 5, 10, 20, 50, 200)]
        assert values == sorted(values)

    def test_empty_fatal(self):
        with pytest.raises(ValueError):
            hit_rate([], 10)


class TestNdcg:
    def test_rank_one_is_perfect(self):
        assert ndcg([1], 10) == pytest.approx(1.0)

    def test_rank_three_closed_form(self):
        # 1 / log2(4) = 0.5
        assert ndcg([3], 10) == pytest.approx(0.5)

    def test_out_of_window_scores_zero(self):
        assert ndcg([11], 10) == 0.0

    def test_mean_over_mixed_ranks(self):
        expected = (1.0 + 0.5 + 0.0) / 3  # ranks 1, 3, 25 at K=10
        assert ndcg([1, 3, 25], 10) == pytest.approx(expected)

    def test_bounded_by_hit_rate(self, rng):
        ranks = list(rng.integers(1, 40, size=60))
        for k in DEFAULT_KS:
            assert 0.0 <= ndcg(ranks, k) <= hit_rate(ranks, k) <= 1.0

    def test_better_ranks_never_hurt(self, rng):
        ranks = list(rng.integers(2, 40, size=30))
        improved = [r - 1 for r in ranks]
        for k in DEFAULT_KS:
            assert ndcg(improved, k) >= ndcg(ranks, k)


class TestReport:
    def test_null_model_uniform_scores(self, rng):
        # uniform scorer over n POIs: expected HR@K is about K/n
        n = 50
        ranks = []
        for _ in range(400):
            ranks.append(rank_one([1.0] * n, int(rng.integers(n))))
        rep = report_from_ranks(ranks)
        assert rep.hr[10] == pytest.approx(10 / n, abs=0.06)

    def test_report_round_trip_keys(self):
        rep = report_from_ranks([1, 2, 30], split="val")
        d = rep.to_dict()
        assert d["split"] == "val" and d["count"] == 3
        assert set(d["hr"]) == {"1", "5", "10", "20"}
        assert d["hr"]["5"] == pytest.approx(2 / 3)

    def test_table_has_row_per_k(self):
        rep = report_from_ranks([1, 4])
        lines = rep.table().splitlines()
        assert len(lines) == 2 + len(DEFAULT_KS)
        assert "HR@K" in lines[1]
