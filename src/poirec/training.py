"""Multi-task training loop: recommendation + contrastive losses, L2
penalty, Adam updates, validation-driven early stopping, checkpoints."""

import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .augment import CorrelationIndex, infonce, make_views
from .autodiff import Adam, NumericError
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RngHub
from .encoder import GsanModel, build_category_vocab, fit_distance_bins
from .graphs import (add_master_node, build_global_spatial,
                     build_global_temporal, build_trajectory_graph)
from .metrics import rank_target, report_from_ranks
from .pretrain import (EmbeddingTable, fuse_embeddings, node2vec_embed,
                       spatial_adjacency, temporal_adjacency)

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


@dataclass
class TrainSample:
    mgraph: object
    target: str  # poi_id


def total_loss(rec, ssl, model, lam, gamma):
    """L = L_rec + lambda * L_ssl + gamma * ||theta||^2 (bias scalars
    excluded from the penalty)."""
    loss = rec
    if ssl is not None and lam != 0:
        loss = loss + ad.mul(ssl, lam)
    if gamma != 0:
        reg = None
        for p in model.regularized().values():
            term = ad.tsum(ad.mul(p, p))
            reg = term if reg is None else reg + term
        if reg is not None:
            loss = loss + ad.mul(reg, gamma)
    return loss


class Trainer:
    """Owns the model, optimizer and data-derived structures for one run."""

    def __init__(self, split, config, spatial_table=None, temporal_table=None,
                 fused_table=None, dtype=np.float32):
        self.split = split
        self.config = config
        self.hub = RngHub(config.seed)
        self.categories = {p.poi_id: p.category_id for p in split.catalog}
        self.coords = {p.poi_id: (p.lat, p.lon) for p in split.catalog}

        self.gt_graph = build_global_temporal(split.train, config.n_neighbors,
                                              catalog=split.catalog)
        self.samples = self._build_samples()
        prefix_graphs = [s.mgraph.base for s in self.samples]
        self.cat_vocab = build_category_vocab(prefix_graphs)
        self.bins = fit_distance_bins([s.mgraph for s in self.samples], config.m_bins)

        poi_init = None if config.from_scratch else fused_table
        self.model = GsanModel(split.catalog, self.gt_graph, self.cat_vocab,
                               self.bins, config, self.hub.stream("init"),
                               poi_init=poi_init, dtype=dtype)
        if spatial_table is None or temporal_table is None:
            # augmentation still needs a correlation index; fall back to the
            # model's (possibly random) initial POI vectors for both modes
            base = EmbeddingTable(self.model.poi_ids,
                                  self.model.params["poi_table"].data.copy())
            spatial_table = spatial_table or base
            temporal_table = temporal_table or base
        self.corr_index = CorrelationIndex(spatial_table, temporal_table,
                                           top=config.correlation_top)
        self.optimizer = Adam(self.model.trainable(), lr=config.lr)
        self.aug_rng = self.hub.stream("augmentation")
        self.batch_rng = self.hub.stream("batching")
        self.epoch = 0
        self.best_hr = -1.0
        self.bad_epochs = 0
        self.reports = []

    # -- data --------------------------------------------------------------

    def _build_samples(self):
        samples = []
        cfg = self.config
        for traj in self.split.train:
            if len(traj) < 2:
                continue
            cut_points = range(2, len(traj) + 1) if cfg.all_prefix else [len(traj)]
            for cut in cut_points:
                prefix = type(traj)(traj.user_id, traj.checkins[:cut - 1])
                g = build_trajectory_graph(prefix, categories=self.categories)
                samples.append(TrainSample(
                    add_master_node(g, self.coords, cfg.spd_cap),
                    traj.checkins[cut - 1].poi_id))
        return samples

    # -- training ----------------------------------------------------------

    def _batch_loss(self, batch):
        cfg = self.config
        s_u = ad.concat([self.model.encode(sample.mgraph) for sample in batch], axis=0)
        rec = self.model.rec_loss(self.model.predict(s_u), [sample.target for sample in batch])

        ssl = None
        if cfg.lam != 0 and len(batch) >= 2:
            views_a, views_b = [], []
            for sample in batch:
                pair = make_views(sample.mgraph.base, cfg, self.corr_index,
                                  self.aug_rng, self.categories)
                ga = add_master_node(pair.view_a, self.coords, cfg.spd_cap)
                gb = add_master_node(pair.view_b, self.coords, cfg.spd_cap)
                views_a.append(self.model.encode(ga))
                views_b.append(self.model.encode(gb))
            ssl = infonce(views_a, views_b, tau=cfg.tau)
        return rec, ssl

    def train_epoch(self):
        cfg = self.config
        start = time.perf_counter()
        order = self.batch_rng.permutation(len(self.samples))
        rec_sum, ssl_sum, total_sum, n_batches = 0.0, 0.0, 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [self.samples[i] for i in order[lo:lo + cfg.batch_size]]
            rec, ssl = self._batch_loss(batch)
            loss = total_loss(rec, ssl, self.model, cfg.lam, cfg.gamma)
            if not np.isfinite(loss.data).all():
                raise NumericError(
                    f"non-finite loss at epoch {self.epoch}, batch {n_batches}: "
                    f"targets={[s.target for s in batch]}")
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            rec_sum += rec.item()
            ssl_sum += ssl.item() if ssl is not None else 0.0
            total_sum += loss.item()
            n_batches += 1
        self.epoch += 1
        val = self.evaluate(self.split.val, split_name="val") if self.split.val else None
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

    def rank_pairs(self, pairs):
        ranks = []
        for prefix, target in pairs:
            g = build_trajectory_graph(prefix, categories=self.categories)
            mg = add_master_node(g, self.coords, self.config.spd_cap)
            logits = self.model.predict(self.model.encode(mg)).data[0]
            ranks.append(rank_target(logits, self.model.poi_ids, target.poi_id))
        return ranks

    def evaluate(self, pairs, split_name="test", ks=(1, 5, 10, 20)):
        return report_from_ranks(self.rank_pairs(pairs), split=split_name, ks=ks)

    # -- checkpointing -----------------------------------------------------

    def save(self, path):
        arrays = {f"param.{k}": p.data for k, p in self.model.params.items()}
        arrays.update(self.optimizer.state_arrays())
        meta = {
            "config": self.config.to_dict(),
            "epoch": self.epoch,
            "adam_step": self.optimizer.step_count,
            "best_hr": self.best_hr,
            "bad_epochs": self.bad_epochs,
            "aug_rng": self.aug_rng.bit_generator.state,
            "batch_rng": self.batch_rng.bit_generator.state,
        }
        save_checkpoint(path, arrays, meta)

    def load(self, path):
        arrays, meta = load_checkpoint(path)
        for k, p in self.model.params.items():
            p.data = arrays[f"param.{k}"].astype(p.dtype).copy()
        self.optimizer.load_state_arrays(arrays, meta["adam_step"])
        self.epoch = meta["epoch"]
        self.best_hr = meta["best_hr"]
        self.bad_epochs = meta["bad_epochs"]
        self.aug_rng.bit_generator.state = meta["aug_rng"]
        self.batch_rng.bit_generator.state = meta["batch_rng"]
        return meta


def pretrain_tables(split, config):
    """node2vec over the two global graphs, plus the fused table."""
    hub = RngHub(config.seed)
    gt = build_global_temporal(split.train, config.n_neighbors, catalog=split.catalog)
    gs = build_global_spatial(split.catalog, config.alpha_km)
    common = dict(dim=config.d, walks_per_node=config.walks_per_node,
                  walk_len=config.walk_len, p=config.n2v_p, q=config.n2v_q,
                  window=config.n2v_window, negatives=config.n2v_negatives,
                  epochs=config.n2v_epochs, lr=config.n2v_lr)
    nodes = [p.poi_id for p in split.catalog]
    temporal = node2vec_embed(temporal_adjacency(gt), nodes,
                              rng=hub.stream("pretrain.temporal"), **common)
    spatial = node2vec_embed(spatial_adjacency(gs), nodes,
                             rng=hub.stream("pretrain.spatial"), **common)
    return spatial, temporal, fuse_embeddings(spatial, temporal)
