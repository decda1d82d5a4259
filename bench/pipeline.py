"""The two benchmark workloads and the pipeline pass each one repeats.

A pass drives the public calls the `poirec` subcommands make: preprocess
(`parse_checkins`, `make_split`, `save_split`), pretrain (`pretrain_tables`),
train (`load_split`, `Trainer`, `train_epoch`, `save` after every epoch) and
evaluate (`rank_pairs` + `report_from_ranks`, the two halves of
`Trainer.evaluate`, split so each rank can be checked). `wide-catalog-eval`
then evaluates again through a fresh `load_checkpoint` -> `load_split` ->
`Trainer` -> `load` path, as `poirec evaluate` does.
"""

import gc
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from poirec import checkpoint, data, training
from poirec.config import RunConfig
from poirec.metrics import report_from_ranks
from rawlog import N_MALFORMED, LogShape

MIN_POI_USERS = 2  # `poirec preprocess --min-poi-users`


@dataclass(frozen=True)
class Workload:
    name: str
    shape: LogShape
    config: dict  # RunConfig overrides; the model seed stays the default 0
    # stage -> times it runs a pass (others run once). The machine's speed
    # swings from one second to the next, so a stage's median steadies with
    # its number of samples; a short stage is repeated on the same input,
    # and its repeats are not part of `pipeline_s`.
    repeats: dict
    roundtrip: bool = False  # evaluate again from the saved checkpoint


# Why each workload exists is in BENCHMARK.json and NOTES.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "train-long-traj",
        LogShape(n_pois=150, n_users=6, sessions=12, session_len=(3, 8),
                 noise=0.15, long_len=70, sweep=72, min_user_visits=10,
                 n_inactive=700, n_fringe=5),
        config=dict(d=64, walks_per_node=1, walk_len=10, n2v_window=3, n2v_epochs=1,
                    lam=0.1, epochs=2, lr=0.01, batch_size=8),
        repeats=dict(preprocess=3, pretrain=2, setup=3, evaluate=3),
    ),
    Workload(
        "wide-catalog-eval",
        LogShape(n_pois=750, n_users=300, sessions=2, session_len=(3, 4),
                 noise=0.05, long_len=0, sweep=600, min_user_visits=5,
                 n_inactive=800, n_fringe=20),
        # from scratch; `pretrain_s` is still timed, on minimal walks whose
        # tables training ignores: the global graphs and a short skip-gram
        config=dict(d=64, from_scratch=True, lam=0.0, epochs=2, lr=0.01, batch_size=8,
                    walks_per_node=1, walk_len=3, n2v_window=1, n2v_epochs=1),
        repeats=dict(preprocess=3, pretrain=2, setup=2, evaluate=2),
        roundtrip=True,
    ),
)}


@dataclass
class Checks:
    """Operations attempted and failed. An operation is a stage call, a batch
    or a ranked pair; it fails if it raises, yields a non-finite value or
    fails a check."""
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok, what, n=1):
        self.attempted += n
        if not ok:
            self.failed += n
            self.notes.append(what)
        return ok


@dataclass
class PassResult:
    stages: dict  # stage -> list of seconds, one entry per call
    wall: float  # the pass without the repeats of its stages
    val_hr10: float
    val_ndcg10: float
    test_ranks: list

    @property
    def eval_rates(self):
        """Test pairs per second of each `evaluate` call."""
        return [len(self.test_ranks) / t for t in self.stages["evaluate"]]


def _finite_params(model):
    return all(np.isfinite(p.data).all() for p in model.params.values())


class Stages:
    """Times each stage; with a tracer, also opens a `stage.<name>` span. A
    repeat of a stage (`repeat=True`) is timed but not traced, so the
    per-layer values of a traced pass cover each stage once."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = {}
        self.repeat_seconds = 0.0

    @contextmanager
    def __call__(self, name, repeat=False):
        ctx = self.tracer.span("stage." + name) if self.tracer else nullcontext()
        # a full collection first, so that no stage pays for the garbage of
        # the stages before it and each starts from the same heap state
        gc.collect()
        if self.tracer:
            self.tracer.paused = repeat
        start = time.perf_counter()
        try:
            with ctx:
                yield
        finally:
            if self.tracer:
                self.tracer.paused = False
        seconds = time.perf_counter() - start
        self.seconds.setdefault(name, []).append(seconds)
        if repeat:
            self.repeat_seconds += seconds


def _preprocess(wl, raw_path, data_dir):
    checkins, bad = data.parse_checkins(raw_path, "foursquare")
    split = data.make_split(checkins, min_user_visits=wl.shape.min_user_visits,
                            min_poi_users=MIN_POI_USERS)
    data.save_split(split, data_dir)
    return checkins, bad, split


def _setup(data_dir, cfg, tables):
    split = data.load_split(data_dir)
    spatial, temporal, fused = (None, None, None) if cfg.from_scratch else tables
    return split, training.Trainer(split, cfg, spatial_table=spatial,
                                   temporal_table=temporal, fused_table=fused)


def _setup_from_checkpoint(data_dir, ckpt):
    _arrays, meta = checkpoint.load_checkpoint(ckpt)
    split = data.load_split(data_dir)
    trainer = training.Trainer(split, RunConfig(**meta["config"]))
    trainer.load(ckpt)
    return split, trainer


def run_pass(wl, raw_path, n_good, work, checks, tracer=None, repeats=True):
    """One full pipeline pass in the fresh directory `work`; with `repeats`
    false, every stage runs once."""
    cfg = RunConfig(**wl.config)
    stage = Stages(tracer)
    data_dir, ckpt = work / "data", work / "run" / "checkpoint.bin"
    ckpt.parent.mkdir(parents=True)
    start = time.perf_counter()

    def timed(name, fn):
        """fn() as stage `name`, as many times as `wl.repeats` says; returns
        the last result."""
        for k in range(wl.repeats.get(name, 1) if repeats else 1):
            out = None  # free the last result before the next is made
            with stage(name, repeat=k > 0):
                out = fn()
        return out

    checkins, bad, split = timed("preprocess", lambda: _preprocess(wl, raw_path, data_dir))
    checks.check(bad == N_MALFORMED, f"parse counted {bad} bad lines, "
                 f"{N_MALFORMED} written")
    checks.check(len(checkins) == n_good, f"parsed {len(checkins)} of "
                 f"{n_good} good lines")
    kept_users = {t.user_id for t in split.train}
    # rawlog ids: rare POIs are r*, inactive users 3*, fringe users 5*
    checks.check(not any(p.poi_id.startswith("r") for p in split.catalog)
                 and not any(u[0] in "35" for u in kept_users),
                 "filter fixpoint kept a rare POI or an inactive user")
    catalog_ids = {p.poi_id for p in split.catalog}
    checks.check(all(t.poi_id in catalog_ids for _, t in split.val + split.test),
                 "an eval target is outside the catalog")

    tables = timed("pretrain", lambda: training.pretrain_tables(split, cfg))
    ids = [p.poi_id for p in split.catalog]
    checks.check(all(t.ids == ids and t.vectors.shape == (len(ids), cfg.d)
                     and np.isfinite(t.vectors).all() for t in tables),
                 "pretrained tables have the wrong rows or non-finite values")

    split, trainer = timed("train_setup" if wl.roundtrip else "setup",
                           lambda: _setup(data_dir, cfg, tables))
    checks.check(_finite_params(trainer.model), "non-finite initial parameters")

    n_samples = len(getattr(trainer, "samples", ()))
    for _ in range(cfg.epochs):
        steps = trainer.optimizer.step_count
        with stage("epoch"):
            report = trainer.train_epoch()
        # the check weighs as many operations as the epoch made optimizer steps
        n_batches = trainer.optimizer.step_count - steps
        losses = (report.rec_loss, report.ssl_loss, report.total_loss)
        checks.check(all(map(math.isfinite, losses)) and _finite_params(trainer.model),
                     f"epoch {report.epoch}: non-finite loss or parameters",
                     n=max(1, n_batches))
        checks.check(0 <= report.val_hr10 <= 1 and 0 <= report.val_ndcg10 <= 1,
                     f"epoch {report.epoch}: val metrics out of [0, 1]")
        with stage("save"):
            trainer.save(ckpt)
        if tracer is not None:
            tracer.count("training.samples", n_samples)

    # `rank_pairs` + `report_from_ranks` are the two halves of
    # `Trainer.evaluate`, split so that each rank can be checked. On
    # wide-catalog-eval these ranks are the reference for the round trip, and
    # `setup` is timed on the fresh path after it; both test rankings are
    # `evaluate` samples, as they do the same work with the same weights.
    ranks = timed("evaluate", lambda: trainer.rank_pairs(split.test))
    _check_ranks(checks, ranks, len(split.test), len(split.catalog))
    if wl.roundtrip:
        split, fresh = timed("setup", lambda: _setup_from_checkpoint(data_dir, ckpt))
        ranks2 = timed("evaluate", lambda: fresh.rank_pairs(split.test))
        _check_ranks(checks, ranks2, len(split.test), len(split.catalog))
        checks.check(ranks2 == ranks, "test ranks changed across the checkpoint "
                     "round trip", n=len(ranks))
    wall = time.perf_counter() - start - stage.repeat_seconds
    return PassResult(stage.seconds, wall, report.val_hr10, report.val_ndcg10, ranks)


def _check_ranks(checks, ranks, n_pairs, n_pois):
    report = report_from_ranks(ranks, split="test")
    checks.check(report.count == n_pairs == len(ranks),
                 f"report counts {report.count} ranks for {n_pairs} pairs")
    bad = sum(1 for r in ranks if not 1 <= r <= n_pois)
    checks.attempted += len(ranks)
    if bad:
        checks.failed += bad
        checks.notes.append(f"{bad} rank(s) outside [1, {n_pois}]")
