import copy
import io
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poirec import autodiff as ad
from poirec import checkpoint, training
from poirec.augment import infonce, make_views
from poirec.autodiff import NumericError, Tensor
from poirec.checkpoint import (CheckpointError, load_checkpoint,
                               save_checkpoint)
from poirec.config import RngHub, RunConfig, load_config, save_config
from poirec.data import DataError, catalog_rows
from poirec.encoder import GsanModel
from poirec.graphs import build_trajectory_graph
from poirec.pretrain import EmbeddingTable
from poirec.training import Trainer, pretrain_tables, total_loss
import oracles
from oracles import add_master_node
from synth import markov_dataset


@pytest.fixture(scope="module")
def small_split():
    return markov_dataset(n_pois=12, n_traj=30, traj_len=6, seed=1)


# nodes of `total_loss`'s tape for the first 8 samples of `small_trainer`
PINNED_TAPE_NODES = 45


def small_trainer(split, **overrides):
    cfg = RunConfig(d=8, t_max=20, m_bins=4, degree_buckets=4, batch_size=8,
                    epochs=2, n_neighbors=5, correlation_top=10, patience=10,
                    from_scratch=True).override(**overrides)
    return Trainer(split, cfg)


def catalog_coords(split):
    """(rows, 2) (lat, lon) of the split's catalog, by catalog row."""
    return np.array([(p.lat, p.lon) for p in split.catalog])


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

    @staticmethod
    def corrupt(tmp_path, edit):
        """A saved two-tensor file with `edit` applied to its bytes; returns
        its path and the byte offset where the tensor sections start."""
        arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.arange(4, dtype=np.float64)}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, arrays, {"epoch": 1})
        raw = path.read_bytes()
        tensors_at = len(raw) - 6 * 4 - 4 * 8
        path.write_bytes(edit(raw, tensors_at))
        return path

    @staticmethod
    def manifest(change):
        """An edit that applies `change` to the decoded manifest and writes it
        back, the header's manifest length included."""
        def edit(raw, at):
            manifest = json.loads(raw[12:at])
            change(manifest)
            blob = json.dumps(manifest).encode()
            return raw[:4] + struct.pack("<II", checkpoint.VERSION, len(blob)) + blob + raw[at:]
        return edit

    @pytest.mark.parametrize("edit, message", [
        (lambda raw, at: raw[:6], "cut inside its header"),
        (lambda raw, at: raw[:at - 5], "bad manifest"),
        (lambda raw, at: raw[:at + 10], "cut inside tensor w (10 of 24 bytes)"),
        (lambda raw, at: raw[:-1], "cut inside tensor b (31 of 32 bytes)"),
        (lambda raw, at: raw + b"\0\0", "bytes after its last tensor"),
        (lambda raw, at: raw[:12] + raw[12:at].replace(b'"tensors"', b'"tensorz"') + raw[at:],
         "bad manifest"),
        (lambda raw, at: raw[:12] + raw[12:at].replace(b'{"epoch": 1}', b"17" + b" " * 10)
         + raw[at:], "bad manifest: its meta is not an object"),
        (manifest(lambda m: m["tensors"][0].update(dtype="object")),
         "bad manifest: tensor w has dtype 'object', not a bool, integer or float type"),
        (manifest(lambda m: m["tensors"][1].update(dtype=None)),
         "bad manifest: tensor b has dtype None, not a bool, integer or float type"),
        (manifest(lambda m: m["tensors"][0].update(shape=[-1])),
         "bad manifest: tensor w has shape [-1], not a list of integers >= 0"),
        (manifest(lambda m: m["tensors"][0].update(shape="ab")),
         "bad manifest: tensor w has shape 'ab', not a list of integers >= 0"),
        (manifest(lambda m: m["tensors"][0].update(shape=[1.5])),
         "bad manifest: tensor w has shape [1.5], not a list of integers >= 0"),
        (manifest(lambda m: m["tensors"][1].update(name="w")),
         "bad manifest: tensor w is listed twice"),
        (manifest(lambda m: m["tensors"][1].update(name=7)),
         "bad manifest: tensor name 7 is not a string"),
        (manifest(lambda m: m["tensors"][0].update(shape=[2 ** 40])),
         "cut inside tensor w (56 of 4398046511104 bytes)"),
    ], ids=["header", "manifest", "first-tensor", "last-tensor", "trailing", "no-tensors-key",
            "meta-not-an-object", "dtype-object", "dtype-not-a-string", "shape-negative",
            "shape-not-a-list", "shape-not-integers", "name-repeated", "name-not-a-string",
            "shape-beyond-the-file"])
    def test_corrupt_file_names_the_file(self, tmp_path, edit, message):
        path = self.corrupt(tmp_path, edit)
        with pytest.raises(CheckpointError, match=re.escape(message)) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_other_version_names_both(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checkpoint, "VERSION", 1)
        save_checkpoint(tmp_path / "v1.ckpt", {"a": np.zeros(2)}, {})
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="format version 1, this build reads "
                                                  "version 2"):
            load_checkpoint(tmp_path / "v1.ckpt")

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

    def test_l2_gradient_reaches_every_regularized_parameter(self, small_split):
        # with the category bias off the encoder never reads cat_pairs and
        # w_r, but the penalty still pulls them toward 0
        cfg = small_trainer(small_split).config.override(use_category_bias=False)
        tr, gamma = Trainer(small_split, cfg, dtype=np.float64), 1e-3
        reg = tr.model.regularized()
        total_loss(Tensor(np.array(0.0)), None, tr.model, lam=0.0, gamma=gamma).backward()
        for p in reg.values():
            assert np.array_equal(p.grad, 2 * gamma * p.data)
        rec, _ = tr._batch_loss(tr.samples[:8])
        total_loss(rec, None, tr.model, lam=0.0, gamma=gamma).backward()
        for name in ("cat_pairs", "w_r"):
            assert np.array_equal(reg[name].grad, 2 * gamma * reg[name].data)


def tape(loss):
    """Every tensor `loss` was computed from, itself included."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


class TestTape:
    def test_fixed_batch_has_pinned_node_count(self, small_split):
        tr = small_trainer(small_split, lam=0.1, gamma=1e-4)
        rec, ssl = tr._batch_loss(tr.samples[:8])
        loss = total_loss(rec, ssl, tr.model, lam=0.1, gamma=1e-4)
        unpenalized = total_loss(rec, ssl, tr.model, lam=0.1, gamma=0.0)
        # the penalty over all 12 regularized parameters is one node plus its add
        assert len(tr.model.regularized()) == 12
        assert len(tape(loss)) == len(tape(unpenalized)) + 2 == PINNED_TAPE_NODES

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_one_encoder_node_per_batch(self, small_split, lam):
        """The batch's plans span several node counts, and one tape node, the
        `encode_plans` call, reads the attention weights."""
        tr = small_trainer(small_split, lam=lam, all_prefix=True)
        by_size = {}
        for sample in tr.samples:
            by_size.setdefault(len(sample.plan.poi_rows), []).append(sample)
        batch = [sample for group in by_size.values() for sample in group[:2]][:8]
        assert len({len(s.plan.poi_rows) for s in batch}) > 2
        rec, ssl = tr._batch_loss(batch)
        loss = total_loss(rec, ssl, tr.model, lam=lam, gamma=0.0)  # no penalty node
        wq = tr.model.params["l0.h0.wq"]
        assert sum(any(p is wq for p in t._parents) for t in tape(loss)) == 1

    def test_constant_leaves_end_backward_without_gradient(self, small_split):
        tr = small_trainer(small_split, lam=0.1)
        rec, ssl = tr._batch_loss(tr.samples[:8])
        loss = total_loss(rec, ssl, tr.model, lam=0.1, gamma=1e-4)
        loss.backward()
        constants = [t for t in tape(loss) if not (t.requires_grad or t._parents)]
        assert constants and all(t.grad is None for t in constants)
        assert all(t.grad is not None for t in tape(loss) if t.requires_grad or t._parents)


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

    def test_lambda_zero_builds_no_correlation_index(self, small_split, monkeypatch):
        monkeypatch.setattr(training, "CorrelationIndex", None)  # any use fails
        tr = small_trainer(small_split, epochs=1, lam=0.0)
        assert tr.corr_index is None
        tr.fit()

    def test_correlation_index_of_the_initial_poi_vectors(self, small_split, monkeypatch):
        """At lam != 0 the index is built once, at set-up, from the model's
        initial POI vectors (no pretrained tables here) for both modes."""
        built = []
        index_class = training.CorrelationIndex
        monkeypatch.setattr(training, "CorrelationIndex",
                            lambda *args, **kw: built.append(args) or index_class(*args, **kw))
        tr = small_trainer(small_split, lam=0.1)
        [(spatial, temporal)] = built
        assert spatial is temporal and spatial.ids == tr.model.poi_ids
        assert spatial.vectors.tobytes() == tr.model.params["poi_table"].data.tobytes()
        ref = index_class(spatial, spatial, top=10)
        assert tr.corr_index.spatial is tr.corr_index.temporal
        for got, want in zip(tr.corr_index.spatial, ref.spatial):
            assert got.tobytes() == want.tobytes()

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

    def test_val_set_planned_once_by_the_first_epoch(self, small_split, monkeypatch):
        planned = []
        plan_pairs = Trainer.plan_pairs
        monkeypatch.setattr(Trainer, "plan_pairs",
                            lambda self, pairs: planned.append(len(pairs))
                            or plan_pairs(self, pairs))
        tr = small_trainer(small_split, epochs=3, lam=0.1, patience=10)
        assert planned == []  # set-up plans no val pair
        reports = tr.fit()
        assert len(reports) == 3 and planned == [len(small_split.val)]
        # the kept plans rank as freshly planned ones do
        assert tr.rank_pairs(tr._val) == tr.rank_pairs(small_split.val)
        assert reports[-1].val_hr10 == tr.evaluate(small_split.val).hr[10]

    def test_evaluate_counts_pairs(self, small_split):
        tr = small_trainer(small_split, epochs=1, lam=0.0)
        rep = tr.evaluate(small_split.test)
        assert rep.count == len(small_split.test)
        assert 0.0 <= rep.hr[10] <= 1.0


class TestRestore:
    @pytest.mark.parametrize("key", ["epoch", "adam_step", "best_hr", "bad_epochs",
                                     "aug_rng", "batch_rng"])
    def test_missing_metadata_key_changes_nothing(self, small_split, tmp_path, key):
        tr = small_trainer(small_split, epochs=1, lam=0.1)
        tr.fit()
        tr.save(tmp_path / "c.ckpt")
        arrays, meta = load_checkpoint(tmp_path / "c.ckpt")
        del meta[key]
        other = small_trainer(small_split, epochs=1, lam=0.1)
        before = param_bytes(other), other.aug_rng.bit_generator.state
        with pytest.raises(CheckpointError,
                           match=f"checkpoint .*c.ckpt has no metadata key '{key}'"):
            other.restore(arrays, meta, tmp_path / "c.ckpt")
        assert (param_bytes(other), other.aug_rng.bit_generator.state) == before
        assert other.epoch == 0 and other.optimizer.step_count == 0

    @pytest.mark.parametrize("key, value", [("lam", 0.2), ("d", 16), ("use_category_bias", False)])
    def test_load_refuses_another_config(self, small_split, tmp_path, key, value):
        tr = small_trainer(small_split, epochs=1, lam=0.1)
        tr.fit()
        tr.save(tmp_path / "c.ckpt")
        other = small_trainer(small_split, **{"epochs": 1, "lam": 0.1, key: value})
        before = trainer_state(other)
        was = getattr(tr.config, key)
        with pytest.raises(CheckpointError, match=re.escape(
                f"checkpoint {tmp_path / 'c.ckpt'} was trained with {key}={was!r}, but this "
                f"run has {key}={value!r}; a resumed run may change only epochs and patience")):
            other.load(tmp_path / "c.ckpt")
        assert trainer_state(other) == before

    def test_load_refuses_another_dtype(self, small_split, tmp_path):
        path = tmp_path / "c.ckpt"
        cfg = small_trainer(small_split).config
        Trainer(small_split, cfg, dtype=np.float64).save(path)
        other = small_trainer(small_split)
        before = trainer_state(other)
        with pytest.raises(CheckpointError, match=re.escape(f"checkpoint {path} has tensor ")
                           + r"param\.\S+ of dtype float64, but this model's is float32"):
            other.load(path)
        assert trainer_state(other) == before

    def test_load_takes_other_epochs_and_patience(self, small_split, tmp_path):
        tr = small_trainer(small_split, epochs=1, lam=0.1)
        tr.fit()
        tr.save(tmp_path / "c.ckpt")
        other = small_trainer(small_split, epochs=5, patience=3, lam=0.1)
        other.load(tmp_path / "c.ckpt")
        assert trainer_state(other) == trainer_state(tr)
        assert (other.config.epochs, other.config.patience) == (5, 3)


def trainer_state(trainer):
    """Everything `Trainer.restore` sets, as comparable values."""
    opt = trainer.optimizer
    moments = {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in opt.params}
    return (param_bytes(trainer), moments,
            opt.step_count, trainer.epoch, trainer.best_hr, trainer.bad_epochs,
            trainer.aug_rng.bit_generator.state, trainer.batch_rng.bit_generator.state)


# a JSON value of any type, or a negative integer
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(max_value=-1), st.floats(),
                        st.text(max_size=3), st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def mutated(arrays, meta, data):
    """Copies of a decoded checkpoint with one edit drawn from `data`: a
    metadata or config key dropped, its value replaced by a `JSON_VALUES`
    one, or a tensor added or dropped."""
    arrays, meta = dict(arrays), copy.deepcopy(meta)
    edit = data.draw(st.sampled_from(["drop metadata key", "drop config key", "set metadata key",
                                      "set config key", "add tensor", "drop tensor"]))
    if edit == "add tensor":
        name = data.draw(st.sampled_from(["param.bogus", "adam.m.bogus", "bogus"]))
        arrays[name] = np.zeros(3, dtype=np.float32)
        return arrays, meta
    owner = {"metadata": meta, "config": meta["config"], "tensor": arrays}[edit.split()[1]]
    key = data.draw(st.sampled_from(sorted(owner)))
    if edit.startswith("drop"):
        del owner[key]
    else:
        owner[key] = data.draw(JSON_VALUES)
    return arrays, meta


@pytest.fixture(scope="module")
def fuzz_checkpoint(small_split, tmp_path_factory):
    """(path, arrays, meta) of a checkpoint of one epoch of `small_trainer`."""
    tr = small_trainer(small_split, epochs=1, lam=0.1)
    tr.fit()
    path = tmp_path_factory.mktemp("fuzz") / "c.ckpt"
    tr.save(path)
    return (path, *load_checkpoint(path))


@given(data=st.data())
def test_fuzzed_checkpoint_loads_cleanly_or_is_refused(small_split, fuzz_checkpoint, data):
    """Through `Trainer.from_checkpoint` and `Trainer.load`, an edited
    checkpoint either loads, giving the trainer the file's state, or is
    refused with a CheckpointError naming the file that leaves the trainer
    as it was. The file never changes."""
    path, arrays, meta = fuzz_checkpoint
    arrays, meta = mutated(arrays, meta, data)
    save_checkpoint(path, arrays, meta)
    saved = path.read_bytes()
    other = small_trainer(small_split, epochs=1, lam=0.1)

    def resume():
        other.load(path)
        return other

    for load in (lambda: Trainer.from_checkpoint(path, small_split), resume):
        before = trainer_state(other)
        try:
            trainer = load()
        except CheckpointError as exc:
            assert str(path) in str(exc)
            assert trainer_state(other) == before
        else:
            # a clean load takes the whole file: saved again, it has the same
            # tensors and training state
            trainer.save(path.with_name("again.ckpt"))
            again, again_meta = load_checkpoint(path.with_name("again.ckpt"))
            assert ({k: a.tobytes() for k, a in again.items()}
                    == {k: a.tobytes() for k, a in arrays.items()})
            assert all(again_meta[k] == v for k, v in meta.items() if k != "config")
            kept = {k: v for k, v in meta["config"].items() if k not in ("epochs", "patience")}
            assert kept.items() <= again_meta["config"].items()
            # and a state that training goes on from
            counts = trainer.epoch, trainer.optimizer.step_count, trainer.bad_epochs
            assert all(type(n) is int and n >= 0 for n in counts)
            assert type(trainer.best_hr) in (int, float) and -1 <= trainer.best_hr <= 1
        assert path.read_bytes() == saved


class TestBatchedRanking:
    def test_no_pairs(self, small_split):
        tr = small_trainer(small_split)
        assert tr.rank_pairs([]) == [] and tr.rank_pairs(tr.plan_pairs([])) == []

    @pytest.mark.parametrize("overrides", [{}, {"heads": 2, "layers": 2}])
    def test_matches_per_pair_oracle_ranking(self, small_split, overrides):
        """In float64 the one-pass ranks equal encoding and ranking each pair
        alone through the per-graph oracle encoder."""
        cfg = small_trainer(small_split).config.override(**overrides)
        tr = Trainer(small_split, cfg, dtype=np.float64)
        tr.fit()
        pairs = small_split.val + small_split.test
        coords, row = catalog_coords(small_split), catalog_rows(small_split.catalog)
        want = []
        for prefix, target in pairs:
            mg = add_master_node(build_trajectory_graph(prefix, row), coords)
            logits = tr.model.predict(oracles.encode(tr.model, mg)).data[0]
            want.append(oracles.rank_target(logits, tr.model.poi_ids, target.poi_id))
        assert tr.rank_pairs(pairs) == want
        assert len(set(len(p.checkins) for p, _ in pairs)) > 1

    def test_ranking_records_no_graph(self, small_split, monkeypatch):
        tr = small_trainer(small_split)
        seen = []
        predict = GsanModel.predict
        monkeypatch.setattr(GsanModel, "predict",
                            lambda self, s_u: seen.append(s_u) or predict(self, s_u))
        tr.rank_pairs(small_split.test)
        assert len(seen) == 1 and seen[0]._parents == ()
        assert seen[0].shape == (len(small_split.test), tr.config.d)

    @pytest.mark.parametrize("overrides", [{"lam": 0.1}, {"lam": 0.5, "heads": 2},
                                           {"all_prefix": True, "use_category_bias": False}])
    def test_fit_equals_per_graph_oracle_encoder(self, small_split, monkeypatch, overrides):
        """In float64, every batch of a 2-epoch fit has the rec and ssl
        losses, and the parameter gradients of each, of encoding every
        sample and view alone through `oracles.encode`, with the views drawn
        from a copy of the augmentation rng."""
        cfg = small_trainer(small_split).config.override(**overrides)
        tr = Trainer(small_split, cfg, dtype=np.float64)
        batch_loss = Trainer._batch_loss
        checked = []

        def checked_batch_loss(self, batch):
            rng = np.random.default_rng()
            rng.bit_generator.state = self.aug_rng.bit_generator.state
            want = oracle_batch_loss(self, batch, rng)
            got = batch_loss(self, batch)
            assert rng.bit_generator.state == self.aug_rng.bit_generator.state
            for g, w in zip(got, want):
                assert abs(g.item() - w.item()) <= 1e-9
                got_grads, want_grads = loss_grads(self.model, g), loss_grads(self.model, w)
                for name, grad in got_grads.items():
                    assert np.allclose(grad, want_grads[name], rtol=0, atol=1e-9), name
            checked.append(len(batch))
            return got

        monkeypatch.setattr(Trainer, "_batch_loss", checked_batch_loss)
        tr.fit()
        assert sum(checked) == 2 * len(tr.samples)

    @pytest.mark.parametrize("lam, views", [(0.0, 0), (0.1, 2)])
    def test_batch_is_one_encode_plans_call(self, small_split, monkeypatch, lam, views):
        """A batch of B samples encodes B plans at lam=0 and, with both
        views of each sample, 3B plans otherwise, all in one call."""
        tr = small_trainer(small_split, lam=lam)
        sizes = []
        encode_plans = GsanModel.encode_plans
        monkeypatch.setattr(GsanModel, "encode_plans",
                            lambda self, plans: sizes.append(len(plans))
                            or encode_plans(self, plans))
        tr._batch_loss(tr.samples[:8])
        assert sizes == [8 * (1 + views)]


def loss_grads(model, loss):
    """{parameter name: gradient of `loss`}, zeros where it does not reach."""
    for p in model.params.values():
        p.grad = None
    loss.backward()
    return {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for k, p in model.params.items()}


def oracle_batch_loss(trainer, batch, rng):
    """(rec, ssl) of `batch` with each sample and each view encoded alone by
    `oracles.encode`, the views drawn from `rng` in training's order."""
    cfg, model = trainer.config, trainer.model
    coords = catalog_coords(trainer.split)
    s_u = ad.concat([oracles.encode(model, add_master_node(s.graph, coords)) for s in batch],
                    axis=0)
    rec = model.rec_loss(model.predict(s_u), [s.target for s in batch])
    za, zb = [], []
    for sample in batch:
        pair = make_views(sample.graph, cfg, trainer.corr_index, rng)
        za.append(oracles.encode(model, add_master_node(pair.view_a, coords)))
        zb.append(oracles.encode(model, add_master_node(pair.view_b, coords)))
    return rec, infonce(ad.concat(za, axis=0), ad.concat(zb, axis=0), tau=cfg.tau)


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

    @pytest.mark.parametrize("name, change, message", [
        ("adam.v.w_s", "drop", "has no tensor adam.v.w_s"),
        ("param.pos", "drop", "has no tensor param.pos"),
        ("param.l0.wo", "shape", "tensor param.l0.wo has shape (7, 8)"),
        ("adam.m.poi_table", "shape", "tensor adam.m.poi_table has shape (11, 8)"),
    ])
    def test_load_rejects_missing_or_misshapen_tensor(self, small_split, tmp_path,
                                                     name, change, message):
        tr = small_trainer(small_split, epochs=1, lam=0.1)
        tr.train_epoch()
        tr.save(tmp_path / "a.ckpt")
        arrays, meta = load_checkpoint(tmp_path / "a.ckpt")
        if change == "drop":
            del arrays[name]
        else:
            arrays[name] = arrays[name][:-1]
        save_checkpoint(tmp_path / "bad.ckpt", arrays, meta)
        other = small_trainer(small_split, epochs=1, lam=0.1)
        before = param_bytes(other)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            other.load(tmp_path / "bad.ckpt")
        assert param_bytes(other) == before and other.epoch == 0


class TestPretrainIntegration:
    def test_tables_cover_catalog_and_fuse(self, small_split):
        cfg = RunConfig(d=8, walks_per_node=2, walk_len=6, n2v_epochs=1,
                        n_neighbors=5)
        spatial, temporal, fused = pretrain_tables(small_split, cfg)
        ids = [p.poi_id for p in small_split.catalog]
        assert spatial.ids == ids == temporal.ids == fused.ids
        assert np.allclose(fused.vectors, spatial.vectors + temporal.vectors)

    @pytest.mark.parametrize("which", ["spatial", "temporal", "fused"])
    @pytest.mark.parametrize("change", ["missing", "extra", "reordered"])
    def test_tables_must_match_catalog(self, small_split, which, change):
        ids = sorted(p.poi_id for p in small_split.catalog)
        vectors = np.zeros((len(ids), 8), dtype=np.float32)
        good = EmbeddingTable(ids, vectors)
        bad = {"missing": EmbeddingTable(ids[:-1], vectors[:-1]),
               "extra": EmbeddingTable(ids + ["zz"], np.zeros((len(ids) + 1, 8), np.float32)),
               "reordered": EmbeddingTable(ids[::-1], vectors)}[change]
        tables = {"spatial_table": good, "temporal_table": good, "fused_table": good,
                  f"{which}_table": bad}
        cfg = RunConfig(d=8, t_max=20, m_bins=4, degree_buckets=4, n_neighbors=5)
        with pytest.raises(DataError, match=f"{which} embedding table does not match"):
            Trainer(small_split, cfg, **tables)

    @pytest.mark.parametrize("which", ["spatial", "temporal", "fused"])
    def test_tables_must_have_model_width(self, small_split, which):
        ids = sorted(p.poi_id for p in small_split.catalog)
        good = EmbeddingTable(ids, np.zeros((len(ids), 8), dtype=np.float32))
        narrow = EmbeddingTable(ids, np.zeros((len(ids), 4), dtype=np.float32))
        tables = {"spatial_table": good, "temporal_table": good, "fused_table": good,
                  f"{which}_table": narrow}
        cfg = RunConfig(d=8, t_max=20, m_bins=4, degree_buckets=4, n_neighbors=5)
        with pytest.raises(DataError, match=f"{which} embedding table has width 4, "
                                            f"but the model width d is 8"):
            Trainer(small_split, cfg, **tables)

    def test_pretrained_init_lands_in_model(self, small_split):
        cfg = RunConfig(d=8, t_max=20, m_bins=4, degree_buckets=4,
                        walks_per_node=2, walk_len=6, n2v_epochs=1,
                        n_neighbors=5, batch_size=8, epochs=1)
        spatial, temporal, fused = pretrain_tables(small_split, cfg)
        tr = Trainer(small_split, cfg, spatial, temporal, fused)
        assert np.allclose(tr.model.params["poi_table"].data, fused.vectors,
                           atol=1e-6)
