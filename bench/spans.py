"""In-memory spans around the public calls of each poirec module.

A traced run patches the names the calling module looks up (for example
`poirec.training.add_master_node`, `GsanModel.bias_matrix` and
`Tensor.backward`) with wrappers that open a span, so the program itself is
not edited. Spans carry a name, start, end and parent id; a layer's self time
is its spans' durations minus the time their child spans cover.
"""

import functools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one traced pass; a span's id is its index."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id or -1]
        self.counts = Counter()
        self.paused = False  # while set, spans and counts are not recorded
        self._stack = []

    @contextmanager
    def span(self, name):
        if self.paused:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [sid, name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def count(self, name, n=1):
        if not self.paused:
            self.counts[name] += n

    def self_seconds(self):
        """{span name: summed self time}; spans still open are skipped."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent in self.spans:
            if end is not None and parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _parent in self.spans:
            if end is not None:
                out[name] += (end - start) - child[sid]
        return out

    def inclusive_seconds(self, name, under):
        """Summed duration of `name` spans that have an `under` ancestor."""
        total = 0.0
        for _sid, n, start, end, parent in self.spans:
            if n != name or end is None:
                continue
            while parent >= 0 and self.spans[parent][1] != under:
                parent = self.spans[parent][4]
            if parent >= 0:
                total += end - start
        return total

    def write(self, path, extra=None):
        """Spans as JSON lines, one per span, plus one final summary line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), **(extra or {})}) + "\n")


def _wrap(tracer, name, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, out)
        return out
    return traced


def _views_unchanged(tracer, args, pair):
    source = args[0]
    for view in (pair.view_a, pair.view_b):
        tracer.count("augment.views")
        if view.nodes == source.nodes and view.edges == source.edges:
            tracer.count("augment.views_unchanged")


def _patch_table():
    """(owner, attribute, span name, after-hook) for every traced call."""
    from poirec import autodiff, augment, checkpoint, data, encoder, pretrain, training

    def counted(key):
        return lambda tr, args, out: tr.count(key)

    def master(tr, args, out):
        tr.count("graphs.master_node_calls")
        tr.count("graphs.master_nodes", len(out.nodes))

    def parsed(tr, args, out):
        tr.count("data.checkins", len(out[0]))
        tr.count("data.bad_lines", out[1])

    def saved(tr, args, out):
        tr.count("checkpoint.bytes", os.path.getsize(args[0]))

    return [
        (data, "parse_checkins", "data.parse", parsed),
        (data, "make_split", "data.make_split", None),
        (data, "save_split", "data.save_split", None),
        (data, "load_split", "data.load_split", None),
        (training, "build_global_temporal", "graphs.global_temporal", None),
        (training, "build_global_spatial", "graphs.global_spatial",
         lambda tr, args, out: tr.count("graphs.spatial_edges", len(out.edges))),
        (training, "build_trajectory_graph", "graphs.trajectory_graph", None),
        (training, "add_master_node", "graphs.master_node", master),
        (pretrain, "random_walks", "pretrain.walks",
         lambda tr, args, out: tr.count("pretrain.walk_tokens", sum(map(len, out)))),
        (pretrain, "train_skipgram", "pretrain.skipgram", None),
        (augment.CorrelationIndex, "__init__", "augment.corr_index", None),
        (training, "make_views", "augment.make_views", _views_unchanged),
        (training, "infonce", "augment.infonce", None),
        (encoder.GsanModel, "node_features", "encoder.node_features", None),
        (encoder.GsanModel, "bias_matrix", "encoder.bias_matrix", None),
        (encoder.GsanModel, "attention_layer", "encoder.attention", None),
        (encoder.GsanModel, "encode", "encoder.encode", counted("encoder.encode_calls")),
        (encoder.GsanModel, "predict", "encoder.predict", None),
        (autodiff.Tensor, "backward", "autodiff.backward", counted("autodiff.backward_calls")),
        (autodiff.Adam, "step", "autodiff.adam_step", counted("training.batches")),
        (training.Trainer, "evaluate", "training.evaluate", None),
        (training, "rank_target", "metrics.rank_target", counted("metrics.rank_calls")),
        (training, "save_checkpoint", "checkpoint.save", saved),
        (training, "load_checkpoint", "checkpoint.load", None),
        (checkpoint, "load_checkpoint", "checkpoint.load", None),
    ]


@contextmanager
def patched(tracer):
    """Install the span wrappers for the duration of the block. A name the
    program no longer has is skipped, and its metrics then read 0."""
    undo = []
    try:
        for owner, attr, name, after in _patch_table():
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            setattr(owner, attr, _wrap(tracer, name, original, after))
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------


def layer_values(tracer):
    """{metric: value} for one traced pass: `<span>_s` is the summed self
    time of the spans named `<span>`, a counter reads under its own name, and
    the rest are derived below. Callers look up the metrics they report; one
    that is missing here reads 0."""
    counts = tracer.counts
    out = {f"{name}_s": t for name, t in tracer.self_seconds().items()}
    out.update(counts)

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    out["graphs.master_nodes_mean"] = ratio(counts["graphs.master_nodes"],
                                            counts["graphs.master_node_calls"])
    out["augment.view_unchanged_ratio"] = ratio(counts["augment.views_unchanged"],
                                                counts["augment.views"])
    out["pretrain.skipgram_tokens_per_s"] = ratio(counts["pretrain.walk_tokens"],
                                                  out.get("pretrain.skipgram_s", 0.0))
    # validation ranking inside train_epoch, children included
    out["training.val_rank_s"] = tracer.inclusive_seconds("training.evaluate",
                                                          "stage.epoch")
    return out
