"""Run configuration: defaults, allowed ranges, flat key=value config files,
named RNG streams."""

import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np


@dataclass
class RunConfig:
    # model
    d: int = 160
    t_max: int = 100
    heads: int = 1
    layers: int = 1
    m_bins: int = 20
    degree_buckets: int = 50
    use_category_bias: bool = True
    freeze_poi_table: bool = False
    # training
    batch_size: int = 32
    lr: float = 0.003
    lam: float = 0.1  # self-supervised loss weight
    gamma: float = 1e-5  # L2 penalty
    tau: float = 1.0  # InfoNCE temperature
    epochs: int = 30
    patience: int = 5
    seed: int = 0
    all_prefix: bool = False
    from_scratch: bool = False
    # augmentation
    beta: float = 0.3  # node dropout probability
    k_insert: int = 0  # 0 = auto: max(1, ceil(0.1 * nodes))
    correlation_top: int = 50
    # graphs / preprocessing
    alpha_km: float = 3.0
    n_neighbors: int = 20
    min_user_visits: int = 10
    min_poi_users: int = 10
    gap_hours: float = 24.0
    # node2vec
    walks_per_node: int = 10
    walk_len: int = 40
    n2v_window: int = 5
    n2v_negatives: int = 5
    n2v_epochs: int = 5
    n2v_lr: float = 0.025
    n2v_p: float = 1.0
    n2v_q: float = 1.0

    def __post_init__(self):
        """Raises ValueError naming the first key whose value does not have
        its field's type (a float field also takes an int) or lies outside
        its `RANGES` interval, which excludes NaN and infinity."""
        for f in fields(self):
            value, want = getattr(self, f.name), type(f.default)
            if want is bool or isinstance(value, bool):  # a bool is an int to isinstance
                fits = type(value) is want
            else:
                fits = isinstance(value, (int, float) if want is float else want)
            if not fits:
                raise ValueError(f"config key {f.name!r} of type {type(value).__name__}, "
                                 f"but RunConfig.{f.name} is {want.__name__}")
        for key, interval in RANGES.items():
            value, (low, high) = getattr(self, key), map(float, interval[1:-1].split(","))
            above = value > low if interval[0] == "(" else value >= low
            below = value < high if interval[-1] == ")" else value <= high
            if not (above and below):
                raise ValueError(f"config key {key!r} of value {value!r}, outside its "
                                 f"range {interval}")

    def override(self, **kwargs):
        return replace(self, **kwargs)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# the allowed values of each numeric key, as an interval
RANGES = {
    **dict.fromkeys(["d", "t_max", "heads", "layers", "m_bins", "batch_size", "patience",
                     "n_neighbors", "min_user_visits", "min_poi_users", "walks_per_node",
                     "n2v_window"], "[1, inf)"),
    **dict.fromkeys(["degree_buckets", "lr", "lam", "gamma", "epochs", "seed", "k_insert",
                     "correlation_top", "gap_hours", "n2v_negatives", "n2v_epochs",
                     "n2v_lr"], "[0, inf)"),
    **dict.fromkeys(["tau", "alpha_km", "n2v_p", "n2v_q"], "(0, inf)"),
    "beta": "[0, 1)", "walk_len": "[2, inf)",
}


def config_keys():
    return {f.name: f for f in fields(RunConfig)}


TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")


def _parse_value(field, raw):
    if field.type is bool or isinstance(field.default, bool):
        word = raw.strip().lower()
        if word not in TRUE_WORDS + FALSE_WORDS:
            raise ValueError(f"bad boolean {raw!r} for {field.name}; "
                             f"use one of {TRUE_WORDS + FALSE_WORDS}")
        return word in TRUE_WORDS
    if isinstance(field.default, int):
        return int(raw)
    if isinstance(field.default, float):
        return float(raw)
    return raw


def load_config(path=None, overrides=None):
    """Build a RunConfig from an optional key=value file plus overrides.
    Unknown keys and keys the file sets twice are fatal (the errors list the
    valid keys, or name both lines)."""
    known = config_keys()
    values, set_on = {}, {}
    if path is not None:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ValueError(f"unknown config key {key!r}; valid keys: {sorted(known)}")
            if key in set_on:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is set twice, "
                                 f"on lines {set_on[key]} and {lineno}")
            set_on[key] = lineno
            values[key] = _parse_value(known[key], raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in known:
            raise ValueError(f"unknown config key {key!r}; valid keys: {sorted(known)}")
        values[key] = val
    return RunConfig(**values)


def save_config(config, path):
    lines = [f"{k} = {v}" for k, v in sorted(config.to_dict().items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class RngHub:
    """All randomness flows from one root seed through named substreams."""

    def __init__(self, root_seed):
        self.root_seed = int(root_seed)

    def stream(self, name):
        return np.random.default_rng(
            np.random.SeedSequence([self.root_seed, zlib.crc32(name.encode())])
        )
