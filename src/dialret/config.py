"""Experiment configuration: one JSON file drives the whole pipeline.

Schema (all sections optional unless a subcommand needs them; defaults in
parentheses):

    {
      "master_seed": 0,
      "paths": {
        "corpus": "corpus.jsonl",        # required by corpus-reading commands
        "embeddings": null,              # word-vector file; null = random
        "output_dir": "out"
      },
      "split": {"train": 80, "dev": 10, "test": 10},
      "max_context_turns": 10,
      "sampling": {
        "transform": "identity",         # identity | uniform | power:D | kde:H
        "neg_per_pos": 5,
        "filter_by_inverse_count": false,
        "resample_each_epoch": false
      },
      "encoder": {
        "variant": "gru",                # gru | attention
        "dim": 16,
        "hidden": 16,
        "tied": true,
        "train_embeddings": false,
        "embedding_scale": 1.0
      },
      "train": {
        "learning_rate": 0.5,
        "batch_size": 32,
        "max_iterations": 2000,
        "gradient_clip_norm": 5.0,
        "eval_every": 100
      },
      "eval": {
        "num_alternatives": 9,
        "ks": [1, 3, 5],
        "alternative_transform": "identity",
        "split": "test"                  # train | dev | test
      },
      "retrieval": {"response_weight": 0.4, "build_index": true},
      "grid": {
        "train_transforms": ["identity", "uniform"],
        "alt_transforms": ["identity", "uniform"]
      },
      "annotation": {"num_questions": 20, "n_responses": 3, "models": {}}
    }

Relative paths are resolved against the directory containing the config
file. Validation reports every bad field at once. Every stage seed is
derived from ``master_seed`` via :mod:`dialret.seeding`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import SplitSpec
from .distribution import TransformSpec
from .errors import ConfigError

_SPLIT_NAMES = ("train", "dev", "test")


@dataclass
class ExperimentConfig:
    master_seed: int = 0
    corpus_path: Path | None = None
    embeddings_path: Path | None = None
    output_dir: Path = Path("out")
    split_ratio: tuple[int, int, int] = (80, 10, 10)
    max_context_turns: int = 10
    sampling_transform: str = "identity"
    neg_per_pos: int = 5
    filter_by_inverse_count: bool = False
    resample_each_epoch: bool = False
    encoder_variant: str = "gru"
    encoder_dim: int = 16
    encoder_hidden: int = 16
    encoder_tied: bool = True
    train_embeddings: bool = False
    embedding_scale: float = 1.0
    learning_rate: float = 0.5
    batch_size: int = 32
    max_iterations: int = 2000
    gradient_clip_norm: float = 5.0
    eval_every: int = 100
    eval_num_alternatives: int = 9
    eval_ks: tuple[int, ...] = (1, 3, 5)
    eval_alternative_transform: str = "identity"
    eval_split: str = "test"
    response_weight: float = 0.4
    build_index: bool = True
    grid_train_transforms: tuple[str, ...] = ("identity", "uniform")
    grid_alt_transforms: tuple[str, ...] = ("identity", "uniform")
    annotation_num_questions: int = 20
    annotation_n_responses: int = 3
    annotation_models: dict[str, dict] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def split_spec(self, seed: int) -> SplitSpec:
        train, dev, test = self.split_ratio
        return SplitSpec.from_ratio(train, dev, test, seed=seed)

    def transform_spec(self, label: str) -> TransformSpec:
        return TransformSpec.parse(label)


class _Validator:
    def __init__(self, data: dict, base_dir: Path):
        self.data = data
        self.base = base_dir
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def section(self, name: str, known: tuple[str, ...]) -> dict:
        sub = self.data.get(name, {})
        if not isinstance(sub, dict):
            self.fail(name, "must be an object")
            return {}
        for key in sub:
            if key not in known:
                self.fail(f"{name}.{key}", "unknown field")
        return sub

    def value(self, obj: dict, path: str, key: str, kind, default,
              minimum=None, choices=None):
        if key not in obj:
            return default
        v = obj[key]
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if kind in (int, float) and isinstance(v, bool):
            self.fail(f"{path}{key}", f"expected {kind.__name__}, got bool")
            return default
        if not isinstance(v, kind):
            self.fail(f"{path}{key}", f"expected {kind.__name__}, got {type(v).__name__}")
            return default
        if kind is float and not math.isfinite(v):
            self.fail(f"{path}{key}", f"must be finite, got {v}")
            return default
        if minimum is not None and v < minimum:
            self.fail(f"{path}{key}", f"must be >= {minimum}, got {v}")
            return default
        if choices is not None and v not in choices:
            self.fail(f"{path}{key}", f"must be one of {list(choices)}, got {v!r}")
            return default
        return v

    def transform_label(self, obj: dict, path: str, key: str, default: str) -> str:
        label = self.value(obj, path, key, str, default)
        try:
            TransformSpec.parse(label)
        except ConfigError as exc:
            self.fail(f"{path}{key}", str(exc))
            return default
        return label


def load_config(path, require_corpus: bool = False) -> ExperimentConfig:
    """Parse and validate a config file; raise ConfigError on any defect."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(data, path.parent, require_corpus)


def parse_config(
    data: dict, base_dir: Path, require_corpus: bool = False
) -> ExperimentConfig:
    v = _Validator(data, base_dir)
    known_top = (
        "master_seed", "paths", "split", "max_context_turns", "sampling",
        "encoder", "train", "eval", "retrieval", "grid", "annotation",
    )
    for key in data:
        if key not in known_top:
            v.fail(key, "unknown field")

    cfg = ExperimentConfig(raw=data)
    cfg.master_seed = v.value(data, "", "master_seed", int, 0, minimum=0)
    cfg.max_context_turns = v.value(data, "", "max_context_turns", int, 10, minimum=1)

    paths = v.section("paths", ("corpus", "embeddings", "output_dir"))
    corpus = v.value(paths, "paths.", "corpus", str, None)
    if corpus is not None:
        cfg.corpus_path = (base_dir / corpus).resolve()
        if not cfg.corpus_path.exists():
            v.fail("paths.corpus", f"file {cfg.corpus_path} does not exist")
    elif require_corpus:
        v.fail("paths.corpus", "required but missing")
    embeddings = paths.get("embeddings")
    if embeddings is not None:
        if not isinstance(embeddings, str):
            v.fail("paths.embeddings", "must be a string or null")
        else:
            cfg.embeddings_path = (base_dir / embeddings).resolve()
            if not cfg.embeddings_path.exists():
                v.fail("paths.embeddings", f"file {cfg.embeddings_path} does not exist")
    cfg.output_dir = (base_dir / v.value(paths, "paths.", "output_dir", str, "out"))

    split = v.section("split", _SPLIT_NAMES)
    ratio = tuple(
        v.value(split, "split.", name, int, default, minimum=1)
        for name, default in zip(_SPLIT_NAMES, (80, 10, 10))
    )
    cfg.split_ratio = ratio

    sampling = v.section(
        "sampling",
        ("transform", "neg_per_pos", "filter_by_inverse_count", "resample_each_epoch"),
    )
    cfg.sampling_transform = v.transform_label(sampling, "sampling.", "transform", "identity")
    cfg.neg_per_pos = v.value(sampling, "sampling.", "neg_per_pos", int, 5, minimum=1)
    cfg.filter_by_inverse_count = v.value(
        sampling, "sampling.", "filter_by_inverse_count", bool, False
    )
    cfg.resample_each_epoch = v.value(
        sampling, "sampling.", "resample_each_epoch", bool, False
    )

    encoder = v.section(
        "encoder",
        ("variant", "dim", "hidden", "tied", "train_embeddings", "embedding_scale"),
    )
    cfg.encoder_variant = v.value(
        encoder, "encoder.", "variant", str, "gru", choices=("gru", "attention")
    )
    cfg.encoder_dim = v.value(encoder, "encoder.", "dim", int, 16, minimum=1)
    cfg.encoder_hidden = v.value(encoder, "encoder.", "hidden", int, 16, minimum=1)
    cfg.encoder_tied = v.value(encoder, "encoder.", "tied", bool, True)
    cfg.train_embeddings = v.value(encoder, "encoder.", "train_embeddings", bool, False)
    cfg.embedding_scale = v.value(
        encoder, "encoder.", "embedding_scale", float, 1.0, minimum=0.0
    )

    train = v.section(
        "train",
        ("learning_rate", "batch_size", "max_iterations", "gradient_clip_norm", "eval_every"),
    )
    cfg.learning_rate = v.value(train, "train.", "learning_rate", float, 0.5, minimum=0.0)
    cfg.batch_size = v.value(train, "train.", "batch_size", int, 32, minimum=1)
    cfg.max_iterations = v.value(train, "train.", "max_iterations", int, 2000, minimum=1)
    cfg.gradient_clip_norm = v.value(
        train, "train.", "gradient_clip_norm", float, 5.0, minimum=1e-12
    )
    cfg.eval_every = v.value(train, "train.", "eval_every", int, 100, minimum=1)

    eval_section = v.section(
        "eval", ("num_alternatives", "ks", "alternative_transform", "split")
    )
    cfg.eval_num_alternatives = v.value(
        eval_section, "eval.", "num_alternatives", int, 9, minimum=1
    )
    ks = eval_section.get("ks", [1, 3, 5])
    if not isinstance(ks, list) or not ks or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in ks
    ):
        v.fail("eval.ks", "must be a non-empty list of integers")
    else:
        bad = [k for k in ks if not 1 <= k <= cfg.eval_num_alternatives + 1]
        if bad:
            v.fail("eval.ks", f"values {bad} outside 1..num_alternatives+1")
        cfg.eval_ks = tuple(ks)
    cfg.eval_alternative_transform = v.transform_label(
        eval_section, "eval.", "alternative_transform", "identity"
    )
    cfg.eval_split = v.value(
        eval_section, "eval.", "split", str, "test", choices=_SPLIT_NAMES
    )

    retrieval = v.section("retrieval", ("response_weight", "build_index"))
    cfg.response_weight = v.value(
        retrieval, "retrieval.", "response_weight", float, 0.4
    )
    cfg.build_index = v.value(retrieval, "retrieval.", "build_index", bool, True)

    grid = v.section("grid", ("train_transforms", "alt_transforms"))
    for key, attr in (
        ("train_transforms", "grid_train_transforms"),
        ("alt_transforms", "grid_alt_transforms"),
    ):
        labels = grid.get(key, list(getattr(cfg, attr)))
        if not isinstance(labels, list) or not labels or not all(
            isinstance(x, str) for x in labels
        ):
            v.fail(f"grid.{key}", "must be a non-empty list of transform labels")
            continue
        ok = True
        for label in labels:
            try:
                TransformSpec.parse(label)
            except ConfigError as exc:
                v.fail(f"grid.{key}", str(exc))
                ok = False
        if ok:
            if len(set(labels)) != len(labels):
                v.fail(f"grid.{key}", "labels must be unique")
            else:
                setattr(cfg, attr, tuple(labels))

    annotation = v.section("annotation", ("num_questions", "n_responses", "models"))
    cfg.annotation_num_questions = v.value(
        annotation, "annotation.", "num_questions", int, 20, minimum=1
    )
    cfg.annotation_n_responses = v.value(
        annotation, "annotation.", "n_responses", int, 3, minimum=1
    )
    models = annotation.get("models", {})
    if not isinstance(models, dict):
        v.fail("annotation.models", "must be an object of name -> {kind, path}")
    else:
        for name, entry in models.items():
            if (
                not isinstance(entry, dict)
                or entry.get("kind") not in ("checkpoint", "index")
                or not isinstance(entry.get("path"), str)
            ):
                v.fail(
                    f"annotation.models.{name}",
                    "must be {\"kind\": \"checkpoint\"|\"index\", \"path\": ...}",
                )
        cfg.annotation_models = models

    if v.errors:
        raise ConfigError("invalid configuration", v.errors)
    return cfg
