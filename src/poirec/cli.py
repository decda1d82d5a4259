"""Command-line entry point orchestrating the pipeline stages.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import data as ingest
from .augment import correlated_insertion, correlated_substitute, node_dropout
from .autodiff import NumericError
from .checkpoint import CheckpointError
from .config import _parse_value, config_keys, load_config, save_config
from .data import DataError
from .graphs import (build_global_spatial, build_global_temporal,
                     build_trajectory_graph, save_spatial_graph,
                     save_temporal_graph)
from .pretrain import load_table, save_table
from .training import Trainer, pretrain_tables

log = logging.getLogger("poirec")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_config_flags(parser):
    """`--config FILE` plus one CLI flag per RunConfig key, defaulting to
    'not given'."""
    parser.add_argument("--config", help="file of `key = value` lines; flags override it")
    for name, f in sorted(config_keys().items()):
        flag = "--" + name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=None,
                                help=f"config {name} (default {f.default})")
        else:
            typ = type(f.default)
            parser.add_argument(flag, type=typ, default=None,
                                help=f"config {name} (default {f.default})")


def _config_from_args(args):
    overrides = {name: getattr(args, name) for name in config_keys()}
    return load_config(args.config, overrides)


def _write_manifest(out_dir, entries):
    (Path(out_dir) / "manifest.json").write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# -- subcommands -----------------------------------------------------------


def cmd_preprocess(args):
    cfg = _config_from_args(args)
    checkins, bad = ingest.parse_checkins(args.input, args.format)
    users = {c.user_id for c in checkins}
    pois = {c.poi_id for c in checkins}
    print(f"parsed: {len(checkins)} check-ins, {len(users)} users, "
          f"{len(pois)} POIs, {bad} malformed line(s)")
    split = ingest.make_split(
        checkins,
        min_user_visits=cfg.min_user_visits,
        min_poi_users=cfg.min_poi_users,
        gap_seconds=cfg.gap_hours * 3600.0,
        t_max=cfg.t_max,
    )
    kept_users = {t.user_id for t in split.train}
    print(f"after filtering: {len(kept_users)} users, {len(split.catalog)} POIs, "
          f"{len(split.train)} train trajectories, {len(split.val)} val pairs, "
          f"{len(split.test)} test pairs")
    ingest.save_split(split, args.out)
    _write_manifest(args.out, {"catalog": "catalog.jsonl",
                               "trajectories": "trajectories.jsonl"})
    return EXIT_OK


def cmd_build_graphs(args):
    cfg = _config_from_args(args)
    split = ingest.load_split(args.data)
    gt = build_global_temporal(split.train, cfg.n_neighbors, ingest.catalog_rows(split.catalog))
    gs = build_global_spatial(split.catalog, cfg.alpha_km)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_temporal_graph(gt, out / "global_temporal.edges")
    save_spatial_graph(gs, out / "global_spatial.edges")
    _write_manifest(out, {"temporal": "global_temporal.edges",
                          "spatial": "global_spatial.edges"})
    print(f"temporal graph: {len(gt.nodes)} nodes, {len(gt.counts)} pairs")
    print(f"spatial graph: {len(gs.nodes)} nodes, {len(gs.edges)} edges")
    return EXIT_OK


def cmd_pretrain(args):
    cfg = _config_from_args(args)
    split = ingest.load_split(args.data)
    spatial, temporal, fused = pretrain_tables(split, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_table(spatial, out / "spatial.emb")
    save_table(temporal, out / "temporal.emb")
    save_table(fused, out / "fused.emb")
    _write_manifest(out, {"spatial": "spatial.emb", "temporal": "temporal.emb",
                          "fused": "fused.emb"})
    print(f"pretrained {len(fused.ids)} POI embeddings, d={fused.dim}")
    return EXIT_OK


def _load_pretrained(args, cfg):
    emb_dir = Path(args.embeddings) if args.embeddings else None
    if cfg.from_scratch:
        return None, None, None
    if emb_dir is None or not (emb_dir / "fused.emb").is_file():
        raise DataError(
            "pretrained embeddings missing; run `poirec pretrain` first or "
            "pass --from-scratch to train POI embeddings from scratch")
    return (load_table(emb_dir / "spatial.emb"),
            load_table(emb_dir / "temporal.emb"),
            load_table(emb_dir / "fused.emb"))


def cmd_train(args):
    cfg = _config_from_args(args)
    out = Path(args.out)
    ckpt = out / "checkpoint.bin"
    split = ingest.load_split(args.data)
    spatial, temporal, fused = _load_pretrained(args, cfg)
    trainer = Trainer(split, cfg, spatial_table=spatial, temporal_table=temporal,
                      fused_table=fused)
    out.mkdir(parents=True, exist_ok=True)
    if args.resume and ckpt.is_file():
        trainer.load(ckpt)
        print(f"resumed from epoch {trainer.epoch}")
    save_config(cfg, out / "config.txt")

    def on_epoch(report):
        trainer.save(ckpt)
        print(f"epoch {report.epoch}: rec={report.rec_loss:.4f} "
              f"ssl={report.ssl_loss:.4f} val HR@10={report.val_hr10:.4f}")
        if split.val and trainer.bad_epochs >= cfg.patience:
            print(f"early stop after {report.epoch} epochs")

    with (out / "report.jsonl").open("a", encoding="utf-8") as stream:
        try:
            trainer.fit(stream, on_epoch)
        except KeyboardInterrupt:
            trainer.save(ckpt)
            print("interrupted; checkpoint flushed")
            raise
    _write_manifest(out, {"checkpoint": "checkpoint.bin", "report": "report.jsonl",
                          "config": "config.txt"})
    return EXIT_OK


def cmd_evaluate(args):
    split = ingest.load_split(args.data)
    trainer = Trainer.from_checkpoint(args.checkpoint, split)
    pairs = split.val if args.split == "val" else split.test
    report = trainer.evaluate(pairs, split_name=args.split)
    print(report.table())
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


SWEEPABLE = ("d", "lam", "beta", "layers")


def cmd_sweep(args):
    if args.param not in SWEEPABLE:
        raise DataError(f"cannot sweep {args.param!r}; choose one of {sorted(SWEEPABLE)}")
    cfg = _config_from_args(args)
    split = ingest.load_split(args.data)
    spatial, temporal, fused = _load_pretrained(args, cfg)
    field = config_keys()[args.param]
    rows = []
    for raw in args.values.split(","):
        value = _parse_value(field, raw)
        run_cfg = cfg.override(**{args.param: value})
        trainer = Trainer(split, run_cfg, spatial_table=spatial,
                          temporal_table=temporal, fused_table=fused)
        trainer.fit()
        report = trainer.evaluate(split.val or split.test, split_name="val")
        rows.append((value, report))
        print(f"{args.param}={value}: HR@10={report.hr[10]:.4f} "
              f"nDCG@10={report.ndcg[10]:.4f}")
    print(f"{args.param:>8} {'HR@10':>8} {'nDCG@10':>8}")
    for value, report in rows:
        print(f"{value!s:>8} {report.hr[10]:>8.4f} {report.ndcg[10]:>8.4f}")
    return EXIT_OK


def cmd_augment_debug(args):
    cfg = _config_from_args(args)
    split = ingest.load_split(args.data)
    if not (0 <= args.traj_index < len(split.train)):
        raise DataError(f"trajectory index {args.traj_index} out of range "
                        f"(0..{len(split.train) - 1})")
    trainer = Trainer(split, cfg)
    g = build_trajectory_graph(split.train[args.traj_index], trainer.row)
    # the trainer builds no index at lam = 0, so this command builds its own
    index = trainer.correlation_index()
    rng = np.random.default_rng(cfg.seed)
    ids = trainer.model.poi_ids

    def show(tag, graph):
        # rows ascend with poi_id, so edges sorted by row are sorted by id
        print(f"--- {tag}: {len(graph.nodes)} nodes, last={ids[graph.last_node]}")
        for a, b in sorted(graph.edges):
            print(f"  {ids[a]} -> {ids[b]}")

    show("source", g)
    show(f"node_dropout(beta={cfg.beta})", node_dropout(g, cfg.beta, rng))
    for mode in ("spatial", "temporal"):
        show(f"correlated_insertion(k=1, {mode})",
             correlated_insertion(g, 1, index, mode, rng))
    show("correlated_substitute(k=1)", correlated_substitute(g, 1, index, rng))
    return EXIT_OK


# -- wiring ----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poirec",
        description="Next-POI recommendation pipeline: preprocessing, graph "
                    "construction, embedding pretraining, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="parse and filter a raw check-in log")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=["foursquare", "gowalla"])
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-graphs", help="build the global temporal/spatial graphs")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_build_graphs)

    p = sub.add_parser("pretrain", help="node2vec embedding pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="multi-task model training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings", help="directory produced by `poirec pretrain`")
    p.add_argument("--resume", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank held-out targets over the catalog")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["val", "test"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="train once per hyperparameter value")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("augment-debug",
                       help="show before/after edge lists of each operator")
    p.add_argument("--data", required=True)
    p.add_argument("--traj-index", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=cmd_augment_debug)
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("POIREC_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, CheckpointError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
