import io

import numpy as np
import pytest

from poirec import autodiff as ad
from poirec.autodiff import NumericError, Tensor
from poirec.checkpoint import (CheckpointError, load_checkpoint,
                               save_checkpoint)
from poirec.config import RngHub, RunConfig, load_config, save_config
from poirec.synth import markov_dataset
from poirec.training import Trainer, pretrain_tables, total_loss


@pytest.fixture(scope="module")
def small_split():
    return markov_dataset(n_pois=12, n_traj=30, traj_len=6, seed=1)


def small_trainer(split, **overrides):
    cfg = RunConfig(d=8, t_max=20, m_bins=4, degree_buckets=4, batch_size=8,
                    epochs=2, n_neighbors=5, correlation_top=10, patience=10,
                    from_scratch=True).override(**overrides)
    return Trainer(split, cfg)


def param_bytes(trainer):
    return {k: p.data.tobytes() for k, p in trainer.model.params.items()}


class TestConfig:
    def test_override_returns_new_instance(self):
        base = RunConfig()
        other = base.override(d=32)
        assert other.d == 32 and base.d == 160

    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(d=24, lam=0.5, from_scratch=True)
        save_config(cfg, tmp_path / "run.cfg")
        loaded = load_config(tmp_path / "run.cfg")
        assert loaded == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        (tmp_path / "c.cfg").write_text("# top\nd = 12  # inline\n\nlr=0.5\n")
        cfg = load_config(tmp_path / "c.cfg")
        assert cfg.d == 12 and cfg.lr == 0.5

    def test_unknown_key_lists_valid(self, tmp_path):
        (tmp_path / "c.cfg").write_text("dimension = 8\n")
        with pytest.raises(ValueError, match="unknown config key.*'d'"):
            load_config(tmp_path / "c.cfg")

    def test_overrides_beat_file(self, tmp_path):
        (tmp_path / "c.cfg").write_text("d = 12\n")
        assert load_config(tmp_path / "c.cfg", {"d": 40}).d == 40

    def test_bool_words(self, tmp_path):
        for word, value in (("yes", True), ("ON", True), ("0", False), ("off", False)):
            (tmp_path / "c.cfg").write_text(f"all_prefix = {word}\n")
            assert load_config(tmp_path / "c.cfg").all_prefix is value

    def test_bad_bool_is_fatal(self, tmp_path):
        (tmp_path / "c.cfg").write_text("use_category_bias = ture\n")
        with pytest.raises(ValueError, match="bad boolean 'ture' for use_category_bias"):
            load_config(tmp_path / "c.cfg")

    def test_rng_streams_independent_and_stable(self):
        hub = RngHub(7)
        a1 = hub.stream("alpha").random(4)
        a2 = hub.stream("alpha").random(4)
        b = hub.stream("beta").random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestCheckpointFile:
    def test_round_trip(self, tmp_path, rng):
        arrays = {"w": rng.normal(size=(3, 4)).astype(np.float32),
                  "b": np.arange(5, dtype=np.float64)}
        meta = {"epoch": 3, "note": "x"}
        save_checkpoint(tmp_path / "c.ckpt", arrays, meta)
        loaded, meta2 = load_checkpoint(tmp_path / "c.ckpt")
        assert meta2["epoch"] == 3
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == arrays[k].dtype

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"nope" + b"\0" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "junk.ckpt")

    def test_no_partial_file_on_failure(self, tmp_path):
        # writes go to a temp name first; the target only appears on success
        save_checkpoint(tmp_path / "ok.ckpt", {"a": np.zeros(2)}, {})
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "ok.ckpt"]
        assert leftovers == []


class TestTotalLoss:
    def test_weighted_sum_arithmetic(self, small_split):
        tr = small_trainer(small_split, gamma=0.0)
        rec = Tensor(np.array(2.0))
        ssl = Tensor(np.array(0.5))
        loss = total_loss(rec, ssl, tr.model, lam=0.1, gamma=0.0)
        assert loss.item() == pytest.approx(2.05)

    def test_lambda_zero_drops_ssl(self, small_split):
        tr = small_trainer(small_split)
        rec = Tensor(np.array(1.5))
        loss = total_loss(rec, Tensor(np.array(99.0)), tr.model, lam=0.0, gamma=0.0)
        assert loss.item() == pytest.approx(1.5)

    def test_gamma_term_matches_manual_l2(self, small_split):
        tr = small_trainer(small_split)
        rec = Tensor(np.array(0.0))
        loss = total_loss(rec, None, tr.model, lam=0.0, gamma=1e-3)
        manual = sum(float((p.data.astype(np.float64) ** 2).sum())
                     for p in tr.model.regularized().values())
        assert loss.item() == pytest.approx(1e-3 * manual, rel=1e-5)

    def test_bias_scalars_not_regularized(self, small_split):
        tr = small_trainer(small_split)
        reg = tr.model.regularized()
        assert "b_spd" not in reg and "b_dist" not in reg
        assert "poi_table" in reg


class TestTrainingLoop:
    def test_loss_decreases(self, small_split):
        tr = small_trainer(small_split, epochs=4, lam=0.0, lr=0.01)
        reports = tr.fit()
        assert reports[-1].rec_loss < reports[0].rec_loss

    def test_deterministic_across_runs(self, small_split):
        runs = []
        for _ in range(2):
            tr = small_trainer(small_split, epochs=2, lam=0.1)
            tr.fit()
            runs.append(param_bytes(tr))
        assert runs[0] == runs[1]

    def test_lambda_zero_skips_augmentation_rng(self, small_split):
        # with lam=0 no augmentation stream is consumed; two runs with
        # different beta must still be bit-for-bit identical
        runs = []
        for beta in (0.1, 0.9):
            tr = small_trainer(small_split, epochs=1, lam=0.0, beta=beta)
            tr.fit()
            runs.append(param_bytes(tr))
        assert runs[0] == runs[1]

    def test_ssl_loss_reported_when_enabled(self, small_split):
        tr = small_trainer(small_split, epochs=1, lam=0.1)
        report = tr.train_epoch()
        assert report.ssl_loss > 0.0

    def test_early_stopping_with_frozen_model(self, small_split):
        # lr=0 keeps val HR constant, so patience triggers after 1 + patience
        tr = small_trainer(small_split, epochs=50, lr=0.0, lam=0.0, patience=2)
        tr.fit()
        assert tr.epoch == 3

    def test_report_stream_is_json_lines(self, small_split):
        tr = small_trainer(small_split, epochs=2, lam=0.0)
        buf = io.StringIO()
        tr.fit(report_stream=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        import json
        rec = json.loads(lines[0])
        assert rec["epoch"] == 1 and "val_hr10" in rec

    def test_nonfinite_loss_raises_numeric_error(self, small_split):
        tr = small_trainer(small_split, epochs=1)
        tr.model.params["poi_table"].data[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            tr.train_epoch()

    def test_nonfinite_logits_fail_ranking(self, small_split):
        tr = small_trainer(small_split, epochs=1)
        tr.model.params["poi_table"].data[3, 2] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            tr.rank_pairs(small_split.test)

    def test_frozen_poi_table(self, small_split, tmp_path):
        tr = small_trainer(small_split, epochs=1, lam=0.1, freeze_poi_table=True)
        before = param_bytes(tr)
        tr.train_epoch()
        after = param_bytes(tr)
        assert after["poi_table"] == before["poi_table"]
        assert all(after[k] != before[k] for k in tr.optimizer.params)
        assert "poi_table" not in tr.optimizer.params
        assert "poi_table" not in tr.optimizer.m and "poi_table" not in tr.optimizer.v

        tr.save(tmp_path / "frozen.ckpt")
        arrays, _ = load_checkpoint(tmp_path / "frozen.ckpt")
        assert not any(k.endswith(".poi_table") and k.startswith("adam.") for k in arrays)
        other = small_trainer(small_split, epochs=1, lam=0.1, freeze_poi_table=True)
        other.load(tmp_path / "frozen.ckpt")
        assert param_bytes(other) == after
        assert other.optimizer.step_count == tr.optimizer.step_count
        assert all(np.array_equal(other.optimizer.m[k], tr.optimizer.m[k])
                   and np.array_equal(other.optimizer.v[k], tr.optimizer.v[k])
                   for k in tr.optimizer.params)

    def test_evaluate_counts_pairs(self, small_split):
        tr = small_trainer(small_split, epochs=1, lam=0.0)
        rep = tr.evaluate(small_split.test)
        assert rep.count == len(small_split.test)
        assert 0.0 <= rep.hr[10] <= 1.0


class TestCheckpointResume:
    def test_resume_matches_uninterrupted_run(self, small_split, tmp_path):
        full = small_trainer(small_split, epochs=4, lam=0.1)
        for _ in range(4):
            full.train_epoch()

        first = small_trainer(small_split, epochs=4, lam=0.1)
        for _ in range(2):
            first.train_epoch()
        first.save(tmp_path / "mid.ckpt")

        resumed = small_trainer(small_split, epochs=4, lam=0.1)
        meta = resumed.load(tmp_path / "mid.ckpt")
        assert meta["epoch"] == 2
        for _ in range(2):
            resumed.train_epoch()
        assert param_bytes(resumed) == param_bytes(full)

    def test_fit_after_load_stops_at_configured_epochs(self, small_split, tmp_path):
        full = small_trainer(small_split, epochs=4, lam=0.1)
        full.fit()

        first = small_trainer(small_split, epochs=2, lam=0.1)
        first.fit()
        first.save(tmp_path / "mid.ckpt")

        resumed = small_trainer(small_split, epochs=4, lam=0.1)
        resumed.load(tmp_path / "mid.ckpt")
        seen = []
        reports = resumed.fit(on_epoch=lambda report: seen.append(report.epoch))
        assert seen == [3, 4] and [r.epoch for r in reports] == [3, 4]
        assert resumed.epoch == 4
        assert param_bytes(resumed) == param_bytes(full)
        assert resumed.fit() == reports  # nothing left to run

    def test_save_load_round_trip_state(self, small_split, tmp_path):
        tr = small_trainer(small_split, epochs=1, lam=0.1)
        tr.train_epoch()
        tr.save(tmp_path / "a.ckpt")
        other = small_trainer(small_split, epochs=1, lam=0.1)
        other.load(tmp_path / "a.ckpt")
        assert param_bytes(other) == param_bytes(tr)
        assert other.optimizer.step_count == tr.optimizer.step_count
        assert other.epoch == tr.epoch


class TestPretrainIntegration:
    def test_tables_cover_catalog_and_fuse(self, small_split):
        cfg = RunConfig(d=8, walks_per_node=2, walk_len=6, n2v_epochs=1,
                        n_neighbors=5)
        spatial, temporal, fused = pretrain_tables(small_split, cfg)
        ids = [p.poi_id for p in small_split.catalog]
        assert spatial.ids == ids == temporal.ids == fused.ids
        assert np.allclose(fused.vectors, spatial.vectors + temporal.vectors)

    def test_pretrained_init_lands_in_model(self, small_split):
        cfg = RunConfig(d=8, t_max=20, m_bins=4, degree_buckets=4,
                        walks_per_node=2, walk_len=6, n2v_epochs=1,
                        n_neighbors=5, batch_size=8, epochs=1)
        spatial, temporal, fused = pretrain_tables(small_split, cfg)
        tr = Trainer(small_split, cfg, spatial, temporal, fused)
        assert np.allclose(tr.model.params["poi_table"].data, fused.vectors,
                           atol=1e-6)
