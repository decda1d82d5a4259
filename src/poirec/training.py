"""Multi-task training loop: recommendation + contrastive losses, L2
penalty, Adam updates, validation-driven early stopping, checkpoints."""

import json
import logging
import multiprocessing
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .augment import CorrelationIndex, infonce, make_views
from .autodiff import Adam, NumericError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RngHub, RunConfig, config_keys
from .data import DataError, catalog_rows
from .encoder import (GsanModel, build_category_vocab, fit_distance_bins,
                      log_softmax_nll, stack_graphs)
from .graphs import (build_global_spatial, build_global_temporal,
                     build_trajectory_graph)
from .metrics import rank_targets, report_from_ranks
from .pretrain import EmbeddingTable, adjacency, fuse_embeddings, node2vec_embed

log = logging.getLogger(__name__)


@dataclass
class EpochReport:
    epoch: int
    rec_loss: float
    ssl_loss: float
    total_loss: float
    val_hr10: float
    val_ndcg10: float
    seconds: float

    def to_json(self):
        return json.dumps(self.__dict__, sort_keys=True)


class PlannedPairs(NamedTuple):
    plans: list  # EncoderPlan of each prefix
    targets: list  # catalog row of each target


@dataclass
class TrainSample:
    graph: object  # TrajectoryGraph of the prefix, the source of its views
    plan: object  # EncoderPlan of `graph`
    target: int  # catalog row


class BatchLoss:
    """The objective of one batch, L = L_rec + lam * L_ssl + gamma * ||theta||^2
    (bias scalars excluded from the penalty), from one kept `encode_plans`
    pass over `plans`: the samples of `targets` (catalog rows), then, for the
    contrastive term, view a and view b of each. `rec`, `ssl` (0 without
    views) and `total` are scalars of the model dtype; `backward` sets the
    gradients."""

    def __init__(self, model, plans, targets, lam, tau, gamma):
        n, dtype = len(targets), model.dtype
        self.model, self.n, self.gamma = model, n, gamma
        self.s_u, self.cache = model.encode_plans(plans, keep=True)
        self.rec, self.d_logits = log_softmax_nll(model.predict(self.s_u[:n]), targets)
        total = self.rec
        self.views = len(plans) > n
        self.ssl = 0.0
        if self.views:
            self.ssl, self.d_a, self.d_b = infonce(self.s_u[n:2 * n], self.s_u[2 * n:],
                                                   tau=tau, weight=lam)
            total = total + self.ssl * np.asarray(lam, dtype=dtype)
        # the penalty covers every regularized parameter, also one the
        # encoder does not read; it is summed in 64 bits
        self.reg = model.regularized() if gamma != 0 else {}
        if self.reg:
            squares = sum(float(np.square(p.data, dtype=np.float64).sum())
                          for p in self.reg.values())
            total = total + np.asarray(gamma * squares, dtype=dtype)
        self.total = total

    def backward(self):
        """Set `.grad` of every parameter: its gradient of `total`, or None
        where no term reaches it. The gradient of s_u goes into
        `GsanModel.backward`. poi_table also takes the logits' gradient and,
        like every regularized parameter, the penalty's 2 * gamma * theta.
        Every operation has the order and dtype of the reference tape's
        (`oracles.total_loss` over the ops of `tests/ops.py`), so a run's
        bits are that tape's."""
        model, n = self.model, self.n
        s_u, prm = self.s_u, model.params
        d_s = np.empty_like(s_u)
        d_s[:n] = self.d_logits @ prm["poi_table"].data
        d_logit_poi = (s_u[:n].T @ self.d_logits).T
        poi_grad = np.zeros_like(prm["poi_table"].data)
        # the reference tape's order of poi_table's terms: with views the
        # logits' term comes before the encoder's scatter, without after it;
        # the scatter adds into repeated rows, so the order shows in the bits
        if self.views:
            d_s[n:2 * n], d_s[2 * n:] = self.d_a, self.d_b
            poi_grad += d_logit_poi
        grads = model.backward(d_s, self.cache, poi_grad)
        if not self.views:
            poi_grad += d_logit_poi
        scale = 2.0 * self.gamma * np.ones((), dtype=model.dtype)  # rounded to the dtype
        for name, p in self.reg.items():
            penalty = scale * p.data
            grads[name] = grads[name] + penalty if name in grads else penalty
        for name, p in prm.items():
            p.grad = grads.get(name)


def _is_rng_state(value):
    """Whether `value` is a state of the bit generator of `RngHub` streams."""
    try:
        np.random.PCG64().state = value
    except (TypeError, ValueError, KeyError, OverflowError):
        return False
    return True


# metadata key -> (the test its value passes, what that value must be); a
# bool is not a count
COUNT = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
RNG_STATE = (_is_rng_state, "a PCG64 bit generator state")
METADATA = {
    "config": (lambda v: isinstance(v, dict), "an object of config keys"),
    "epoch": COUNT,
    "adam_step": COUNT,
    "best_hr": (lambda v: type(v) in (int, float) and -1 <= v <= 1, "a number in [-1, 1]"),
    "bad_epochs": COUNT,
    "aug_rng": RNG_STATE,
    "batch_rng": RNG_STATE,
}


def _saved_config(meta, path):
    """The `RunConfig` of a checkpoint's metadata `meta`. Raises CheckpointError
    naming the file `path` on a `METADATA` key missing or failing its test, and
    on a config key that `RunConfig` does not know, lacks or refuses the value of."""
    for key, (valid, want) in METADATA.items():
        if key not in meta:
            raise CheckpointError(f"checkpoint {path} has no metadata key {key!r}")
        if not valid(meta[key]):
            raise CheckpointError(f"checkpoint {path} has metadata key {key!r} of value "
                                  f"{meta[key]!r}, but it must be {want}")
    saved, known = meta["config"], config_keys()
    for keys, kind in ((saved.keys() - known, "an unknown"), (known.keys() - saved.keys(), "no")):
        if keys:
            raise CheckpointError(f"checkpoint {path} has {kind} config key "
                                  f"{', '.join(map(repr, sorted(keys)))}")
    try:
        return RunConfig(**saved)
    except ValueError as exc:  # a value of the wrong type or out of range
        raise CheckpointError(f"checkpoint {path} has {exc}") from None


class Trainer:
    """Owns the model, optimizer and data-derived structures for one run."""

    def __init__(self, split, config, spatial_table=None, temporal_table=None,
                 fused_table=None, dtype=np.float32):
        catalog_ids = [p.poi_id for p in split.catalog]
        for name, table in (("spatial", spatial_table), ("temporal", temporal_table),
                            ("fused", fused_table)):
            if table is None:
                continue
            if table.ids != catalog_ids:
                missing = len(set(catalog_ids) - set(table.ids))
                extra = len(set(table.ids) - set(catalog_ids))
                raise DataError(
                    f"{name} embedding table does not match the catalog: {missing} "
                    f"catalog POIs missing, {extra} unknown POIs, rows must be the "
                    f"{len(catalog_ids)} catalog ids in catalog order; pretrain on this data")
            if table.dim != config.d:
                raise DataError(
                    f"{name} embedding table has width {table.dim}, but the model "
                    f"width d is {config.d}; pretrain with the same d")
        self.split = split
        self.config = config
        self.hub = RngHub(config.seed)
        # poi_id -> catalog row, the row order of the model's tables: past
        # this map everything runs on rows
        self.row = catalog_rows(split.catalog)
        self.coords = np.array([(p.lat, p.lon) for p in split.catalog], dtype=np.float64)

        self.gt_graph = build_global_temporal(split.train, config.n_neighbors, self.row)
        graphs, targets = self._prefix_graphs()
        stacks = stack_graphs(graphs, self.coords)
        self.cat_vocab = build_category_vocab(stacks, [p.category_id for p in split.catalog])
        self.bins = fit_distance_bins(stacks, config.m_bins)

        poi_init = None if config.from_scratch else fused_table
        self.model = GsanModel(split.catalog, self.gt_graph, self.cat_vocab,
                               self.bins, config, self.hub.stream("init"),
                               poi_init=poi_init, dtype=dtype)
        self.samples = [TrainSample(*sample) for sample in
                        zip(graphs, self.model.plan_stacks(stacks), targets)]
        # no view is drawn without the contrastive term, so no index is needed
        self.corr_index = (self.correlation_index(spatial_table, temporal_table)
                           if config.lam != 0 else None)
        self.optimizer = Adam(self.model.trainable(), lr=config.lr)
        self.aug_rng = self.hub.stream("augmentation")
        self.batch_rng = self.hub.stream("batching")
        self.epoch = 0
        self.best_hr = -1.0
        self.bad_epochs = 0
        self.reports = []
        self._val = None  # `plan_pairs(split.val)`, made by the first epoch

    # -- data --------------------------------------------------------------

    def _prefix_graphs(self):
        """The trajectory graph of each training prefix, and its target row."""
        graphs, targets = [], []
        cfg = self.config
        for traj in self.split.train:
            if len(traj) < 2:
                continue
            cut_points = range(2, len(traj) + 1) if cfg.all_prefix else [len(traj)]
            for cut in cut_points:
                prefix = type(traj)(traj.user_id, traj.checkins[:cut - 1])
                graphs.append(build_trajectory_graph(prefix, self.row))
                targets.append(self.row[traj.checkins[cut - 1].poi_id])
        return graphs, targets

    def correlation_index(self, spatial_table=None, temporal_table=None):
        """The `CorrelationIndex` augmentation draws from. A missing table
        falls back to the model's current (at set-up, its possibly random
        initial) POI vectors, for both modes."""
        if spatial_table is None or temporal_table is None:
            base = EmbeddingTable(self.model.poi_ids,
                                  self.model.params["poi_table"].data.copy())
            spatial_table = spatial_table or base
            temporal_table = temporal_table or base
        return CorrelationIndex(spatial_table, temporal_table,
                                top=self.config.correlation_top)

    def _plans(self, graphs):
        """The encoder plans of a list of trajectory graphs."""
        return self.model.plan_stacks(stack_graphs(graphs, self.coords))

    # -- training ----------------------------------------------------------

    def _batch_loss(self, batch):
        """The `BatchLoss` of one batch. With the contrastive term (lam != 0
        and two samples or more), each sample's two views are drawn and
        planned here."""
        cfg = self.config
        plans = [sample.plan for sample in batch]
        if cfg.lam != 0 and len(batch) >= 2:
            pairs = [make_views(sample.graph, cfg, self.corr_index, self.aug_rng)
                     for sample in batch]
            plans += self._plans([p.view_a for p in pairs] + [p.view_b for p in pairs])
        return BatchLoss(self.model, plans, [sample.target for sample in batch],
                         cfg.lam, cfg.tau, cfg.gamma)

    def train_epoch(self):
        cfg = self.config
        start = time.perf_counter()
        order = self.batch_rng.permutation(len(self.samples))
        rec_sum, ssl_sum, total_sum, n_batches = 0.0, 0.0, 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [self.samples[i] for i in order[lo:lo + cfg.batch_size]]
            loss = self._batch_loss(batch)
            if not np.isfinite(loss.total):
                raise NumericError(
                    f"non-finite loss at epoch {self.epoch}, batch {n_batches}: "
                    f"targets={[self.model.poi_ids[s.target] for s in batch]}")
            loss.backward()
            self.optimizer.step()
            rec_sum += float(loss.rec)
            ssl_sum += float(loss.ssl)
            total_sum += float(loss.total)
            n_batches += 1
        self.epoch += 1
        if self.split.val and self._val is None:
            self._val = self.plan_pairs(self.split.val)  # plans hold no parameter
        val = self.evaluate(self._val, split_name="val") if self.split.val else None
        report = EpochReport(
            epoch=self.epoch,
            rec_loss=rec_sum / max(1, n_batches),
            ssl_loss=ssl_sum / max(1, n_batches),
            total_loss=total_sum / max(1, n_batches),
            val_hr10=val.hr.get(10, 0.0) if val else 0.0,
            val_ndcg10=val.ndcg.get(10, 0.0) if val else 0.0,
            seconds=time.perf_counter() - start,
        )
        self.reports.append(report)
        if val is not None:
            if report.val_hr10 > self.best_hr:
                self.best_hr = report.val_hr10
                self.bad_epochs = 0
            else:
                self.bad_epochs += 1
        return report

    def fit(self, report_stream=None, on_epoch=None):
        """Run the epochs left up to config.epochs (a loaded checkpoint
        resumes at its epoch), with early stopping on val HR@10. Each report
        is written to report_stream, then passed to on_epoch."""
        for _ in range(self.epoch, self.config.epochs):
            report = self.train_epoch()
            if report_stream is not None:
                report_stream.write(report.to_json() + "\n")
                report_stream.flush()
            if on_epoch is not None:
                on_epoch(report)
            if self.split.val and self.bad_epochs >= self.config.patience:
                log.info("early stop at epoch %d (no val HR@10 gain in %d epochs)",
                         self.epoch, self.config.patience)
                break
        return self.reports

    # -- evaluation --------------------------------------------------------

    def plan_pairs(self, pairs):
        """The `PlannedPairs` of a list of (prefix, target) pairs: all
        prefixes planned in one call."""
        plans = self._plans([build_trajectory_graph(prefix, self.row) for prefix, _ in pairs])
        return PlannedPairs(plans, [self.row[t.poi_id] for _, t in pairs])

    def rank_pairs(self, pairs):
        """Full-catalog rank of each (prefix, target) pair's target, from one
        `encode_plans` call and one (B, P) logit matrix. `pairs` is a list of
        pairs or their `plan_pairs`."""
        plans, targets = pairs if isinstance(pairs, PlannedPairs) else self.plan_pairs(pairs)
        if not plans:
            return []
        return rank_targets(self.model.predict(self.model.encode_plans(plans)), targets)

    def evaluate(self, pairs, split_name="test", ks=(1, 5, 10, 20)):
        """The metrics of `rank_pairs(pairs)`."""
        return report_from_ranks(self.rank_pairs(pairs), split=split_name, ks=ks)

    # -- checkpointing -----------------------------------------------------

    def _tensors(self):
        """{checkpoint tensor name: array} of the parameters, then the Adam moments."""
        arrays = {f"param.{k}": p.data for k, p in self.model.params.items()}
        for k in self.optimizer.params:
            arrays[f"adam.m.{k}"] = self.optimizer.m[k]
            arrays[f"adam.v.{k}"] = self.optimizer.v[k]
        return arrays

    def save(self, path):
        meta = {
            "config": self.config.to_dict(),
            "epoch": self.epoch,
            "adam_step": self.optimizer.step_count,
            "best_hr": self.best_hr,
            "bad_epochs": self.bad_epochs,
            "aug_rng": self.aug_rng.bit_generator.state,
            "batch_rng": self.batch_rng.bit_generator.state,
        }
        save_checkpoint(path, self._tensors(), meta)

    @classmethod
    def from_checkpoint(cls, path, split):
        """The trainer of the `save`d file `path` on `split`; reads the file once."""
        arrays, meta = load_checkpoint(path)
        trainer = cls(split, _saved_config(meta, path))
        trainer.restore(arrays, meta, path)
        return trainer

    def load(self, path):
        """Restore the `save`d state in the file `path` (see `restore`)."""
        return self.restore(*load_checkpoint(path), path)

    def restore(self, arrays, meta, path):
        """Restore a decoded checkpoint of the file `path`; returns its metadata.
        Raises CheckpointError naming the file, before any change, when
        `_saved_config` refuses the metadata, its config differs from this run's
        in a key but `epochs` and `patience`, or its tensors are not this model's
        by name, shape and dtype."""
        now = self.config.to_dict()
        for key, was in _saved_config(meta, path).to_dict().items():
            if key not in ("epochs", "patience") and was != now[key]:
                raise CheckpointError(
                    f"checkpoint {path} was trained with {key}={was!r}, but this run has "
                    f"{key}={now[key]!r}; a resumed run may change only epochs and patience")
        want = self._tensors()
        for names, kind in ((arrays.keys() - want.keys(), "an unknown"),
                            (want.keys() - arrays.keys(), "no")):
            if names:
                raise CheckpointError(f"checkpoint {path} has {kind} tensor "
                                      f"{', '.join(sorted(names))}")
        for name, ref in want.items():
            if arrays[name].shape != ref.shape:
                raise CheckpointError(
                    f"checkpoint tensor {name} has shape {arrays[name].shape}, but this "
                    f"model's is {ref.shape}; the checkpoint comes from other data or config")
            if arrays[name].dtype != ref.dtype:
                raise CheckpointError(f"checkpoint {path} has tensor {name} of dtype "
                                      f"{arrays[name].dtype}, but this model's is {ref.dtype}")
        for name, ref in want.items():
            ref[...] = arrays[name]
        self.optimizer.step_count = meta["adam_step"]
        self.epoch = meta["epoch"]
        self.best_hr = meta["best_hr"]
        self.bad_epochs = meta["bad_epochs"]
        self.aug_rng.bit_generator.state = meta["aug_rng"]
        self.batch_rng.bit_generator.state = meta["batch_rng"]
        return meta


# The temporal table pretrains in a forked worker while this process does the
# spatial one. A fork needs no import and no pickled split, and the program
# starts no thread of its own (BLAS is pinned to one) that a fork could cut
# off; where the platform cannot fork, the two run here in turn.
CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


def _reply(job, sender):
    """The worker's body: send (True, job()), or (False, the exception job
    raised, its traceback as text)."""
    try:
        reply = (True, job())
    except Exception as exc:
        reply = (False, (exc, traceback.format_exc()))
    sender.send(reply)
    sender.close()


@contextmanager
def _forked(job):
    """Start `job()` in a forked worker process. The block gets a function
    that waits for the worker and returns what `job` returned, or raises
    again, with its type and message, what `job` raised. No worker outlives
    the block: one still running when the block ends, say on an error, is
    terminated. Without `CAN_FORK`, `job` runs here before the block."""
    if not CAN_FORK:
        out = job()
        yield lambda: out
        return
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_reply, args=(job, sender))
    worker.start()
    sender.close()  # the worker then holds the only sender: `recv` sees its exit

    def result():
        # receive before joining: a reply larger than the pipe buffer holds
        # the worker in `send` until it is read
        try:
            ok, value = receiver.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(f"pretraining worker exited with code {worker.exitcode} "
                               f"before it replied") from None
        worker.join()
        if ok:
            return value
        exc, trace = value
        raise exc from RuntimeError(f"in the pretraining worker:\n{trace}")

    try:
        yield result
    finally:
        if worker.is_alive():
            worker.terminate()
        worker.join()
        receiver.close()


def pretrain_tables(split, config):
    """node2vec over the two global graphs, plus the fused table; logs one
    INFO line per graph, temporal then spatial (see `Node2vecRun`). The
    temporal run goes to a `_forked` worker; each graph has its own rng
    stream, so the tables equal those of running the two in turn."""
    hub, ids = RngHub(config.seed), [p.poi_id for p in split.catalog]
    common = dict(dim=config.d, walks_per_node=config.walks_per_node,
                  walk_len=config.walk_len, p=config.n2v_p, q=config.n2v_q,
                  window=config.n2v_window, negatives=config.n2v_negatives,
                  epochs=config.n2v_epochs, lr=config.n2v_lr)

    def temporal_job():
        gt = build_global_temporal(split.train, config.n_neighbors, catalog_rows(split.catalog))
        return node2vec_embed(adjacency(*gt.neighbors.T, len(ids)), ids,
                              rng=hub.stream("pretrain.temporal"), **common)

    with _forked(temporal_job) as temporal_result:
        gs = build_global_spatial(split.catalog, config.alpha_km)
        spatial, spatial_run = node2vec_embed(adjacency(*gs.edges.T, len(ids)), ids,
                                              rng=hub.stream("pretrain.spatial"), **common)
        temporal, temporal_run = temporal_result()
    temporal_run.log("temporal")
    spatial_run.log("spatial")
    return spatial, temporal, fuse_embeddings(spatial, temporal)
