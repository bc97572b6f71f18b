"""Experiment configuration: one JSON file drives the whole pipeline.

The file is a JSON object: ``master_seed``, ``max_context_turns`` and
the optional sections ``paths``, ``split``, ``sampling``, ``encoder``,
``train``, ``eval``, ``retrieval``, ``grid`` and ``annotation``.
``_FIELDS`` below lists every known field once, with the attribute it
sets and its type, minimum and choices. The ``sampling``, ``train`` and
``eval`` fields (but ``resample_each_epoch`` and ``split``) set the
library's own SamplingStrategy, TrainConfig and EvalConfig. Each default
lives once: on the dataclass that holds its field, or in the library
constant the field's default names (``MAX_CONTEXT_TURNS``,
``DEFAULT_RESPONSE_WEIGHT``, ``RESPONSES_PER_QUESTION``). Transform labels are
``identity``, ``uniform``, ``power:D`` or ``kde:H``, each parsed here once:
a transform field holds a TransformSpec, a grid list a tuple of them. The
fields checked by hand:

    paths.corpus        corpus file; required by corpus-reading commands
    paths.embeddings    word-vector file; null = random embeddings
    split.*             integer train:dev:test ratio
    eval.ks             non-empty list of k in 1..num_alternatives+1
    grid.*              non-empty lists of labels of distinct transforms
    annotation.models   {name: {"kind": "checkpoint" | "index", "path": ...}}

Relative paths, ``annotation.models`` paths too, are resolved here
against the config file's directory. Validation reports every bad field
at once. Every stage seed is derived from ``master_seed`` via
:mod:`dialret.seeding`.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

from .corpus import MAX_CONTEXT_TURNS, SplitSpec
from .distribution import TransformSpec
from .encoder import ENCODERS, TrainConfig
from .errors import ConfigError
from .evaluation import RESPONSES_PER_QUESTION, EvalConfig
from .retrieval import DEFAULT_RESPONSE_WEIGHT
from .sampling import SamplingStrategy

_SPLIT_NAMES = ("train", "dev", "test")


@dataclass
class ExperimentConfig:
    master_seed: int = 0
    corpus_path: Path | None = None
    embeddings_path: Path | None = None
    output_dir: Path = Path("out")
    split_ratio: tuple[int, int, int] = (80, 10, 10)
    max_context_turns: int = MAX_CONTEXT_TURNS
    sampling: SamplingStrategy = field(default_factory=SamplingStrategy)
    resample_each_epoch: bool = False
    encoder_variant: str = "gru"
    encoder_dim: int = 16
    encoder_hidden: int = 16
    encoder_tied: bool = True
    train_embeddings: bool = False
    embedding_scale: float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    eval_split: str = "test"
    response_weight: float = DEFAULT_RESPONSE_WEIGHT
    build_index: bool = True
    grid_train_transforms: tuple[TransformSpec, ...] = (
        TransformSpec.identity(), TransformSpec.uniform())
    grid_alt_transforms: tuple[TransformSpec, ...] = grid_train_transforms
    annotation_num_questions: int = 20
    annotation_n_responses: int = RESPONSES_PER_QUESTION
    annotation_models: dict[str, dict] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def split_spec(self, seed: int) -> SplitSpec:
        train, dev, test = self.split_ratio
        return SplitSpec.from_ratio(train, dev, test, seed=seed)


# (section, key) -> (attribute, type, minimum, choices); section "" is the
# top level. A dotted attribute is a field of the library config object the
# first part names. A TransformSpec type marks a transform label; a type of
# None marks a field that parse_config checks by hand.
_FIELDS: dict[tuple[str, str], tuple] = {
    ("", "master_seed"): ("master_seed", int, 0, None),
    ("", "max_context_turns"): ("max_context_turns", int, 1, None),
    ("paths", "corpus"): ("corpus_path", str, None, None),
    ("paths", "embeddings"): ("embeddings_path", None, None, None),
    ("paths", "output_dir"): ("output_dir", str, None, None),
    **{("split", name): ("split_ratio", None, None, None) for name in _SPLIT_NAMES},
    ("sampling", "transform"): ("sampling.transform", TransformSpec, None, None),
    ("sampling", "neg_per_pos"): ("sampling.neg_per_pos", int, 1, None),
    ("sampling", "filter_by_inverse_count"): ("sampling.filter_by_inverse_count", bool, None, None),
    ("sampling", "resample_each_epoch"): ("resample_each_epoch", bool, None, None),
    ("encoder", "variant"): ("encoder_variant", str, None, tuple(ENCODERS)),
    ("encoder", "dim"): ("encoder_dim", int, 1, None),
    ("encoder", "hidden"): ("encoder_hidden", int, 1, None),
    ("encoder", "tied"): ("encoder_tied", bool, None, None),
    ("encoder", "train_embeddings"): ("train_embeddings", bool, None, None),
    ("encoder", "embedding_scale"): ("embedding_scale", float, 0.0, None),
    ("train", "learning_rate"): ("train.learning_rate", float, 0.0, None),
    ("train", "batch_size"): ("train.batch_size", int, 1, None),
    ("train", "max_iterations"): ("train.max_iterations", int, 1, None),
    ("train", "gradient_clip_norm"): ("train.gradient_clip_norm", float, 1e-12, None),
    ("train", "eval_every"): ("train.eval_every", int, 1, None),
    ("eval", "num_alternatives"): ("eval.num_alternatives", int, 1, None),
    ("eval", "ks"): ("eval.ks", None, None, None),
    ("eval", "alternative_transform"): ("eval.alternative_transform", TransformSpec, None, None),
    ("eval", "split"): ("eval_split", str, None, _SPLIT_NAMES),
    ("retrieval", "response_weight"): ("response_weight", float, None, None),
    ("retrieval", "build_index"): ("build_index", bool, None, None),
    ("grid", "train_transforms"): ("grid_train_transforms", None, None, None),
    ("grid", "alt_transforms"): ("grid_alt_transforms", None, None, None),
    ("annotation", "num_questions"): ("annotation_num_questions", int, 1, None),
    ("annotation", "n_responses"): ("annotation_n_responses", int, 1, None),
    ("annotation", "models"): ("annotation_models", None, None, None),
}

# Section -> its known keys; the top level also knows the section names.
_KNOWN = {section: tuple(k for s, k in _FIELDS if s == section) for section, _ in _FIELDS}
_KNOWN[""] += tuple(name for name in _KNOWN if name)


class _Validator:
    def __init__(self, data: dict):
        self.data = data
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def section(self, name: str) -> dict:
        sub = self.data.get(name, {}) if name else self.data
        if not isinstance(sub, dict):
            self.fail(name, "must be an object")
            return {}
        for key in sub:
            if key not in _KNOWN[name]:
                self.fail(f"{name}.{key}" if name else key, "unknown field")
        return sub

    def value(self, obj: dict, path: str, key: str, kind, default,
              minimum=None, choices=None):
        if key not in obj:
            return default
        v = obj[key]
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v) if abs(v) <= sys.float_info.max else math.inf if v > 0 else -math.inf
        if kind in (int, float) and isinstance(v, bool):
            self.fail(f"{path}{key}", f"expected {kind.__name__}, got bool")
            return default
        if not isinstance(v, kind):
            self.fail(f"{path}{key}", f"expected {kind.__name__}, got {type(v).__name__}")
            return default
        if kind is str and "\0" in v:  # no file name holds one; os calls raise ValueError
            self.fail(f"{path}{key}", "must not contain a NUL character")
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

    def transform(self, label: str, path: str, default):
        try:
            return TransformSpec.parse(label)
        except ConfigError as exc:
            self.fail(path, str(exc))
            return default


def load_config(path, require_corpus: bool = False) -> ExperimentConfig:
    """Parse and validate a config file; raise ConfigError on any defect."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # decode errors, too-long integers
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(data, path.parent, require_corpus)


def parse_config(
    data: dict, base_dir: Path, require_corpus: bool = False
) -> ExperimentConfig:
    v = _Validator(data)
    sections = {name: v.section(name) for name in _KNOWN}
    cfg = ExperimentConfig(raw=data)
    # The fields of each library config object, set once all are valid.
    parts: dict[str, dict] = defaultdict(dict)
    for (name, key), (attr, kind, minimum, choices) in _FIELDS.items():
        if kind is None:
            continue
        path = f"{name}." if name else ""
        default = attrgetter(attr)(cfg)
        if kind is TransformSpec:
            label = v.value(sections[name], path, key, str, default.label())
            value = v.transform(label, f"{path}{key}", default)
        else:
            value = v.value(sections[name], path, key, kind, default, minimum, choices)
        part, _, field_name = attr.rpartition(".")
        if part:
            parts[part][field_name] = value
        else:
            setattr(cfg, attr, value)

    paths = sections["paths"]
    if cfg.corpus_path is not None:
        cfg.corpus_path = (base_dir / cfg.corpus_path).resolve()
        if not cfg.corpus_path.exists():
            v.fail("paths.corpus", f"file {cfg.corpus_path} does not exist")
    elif require_corpus and "corpus" not in paths:
        v.fail("paths.corpus", "required but missing")
    embeddings = paths.get("embeddings")
    if embeddings is not None:
        if not isinstance(embeddings, str) or "\0" in embeddings:
            v.fail("paths.embeddings", "must be a string without NUL characters, or null")
        else:
            cfg.embeddings_path = (base_dir / embeddings).resolve()
            if not cfg.embeddings_path.exists():
                v.fail("paths.embeddings", f"file {cfg.embeddings_path} does not exist")
    cfg.output_dir = base_dir / cfg.output_dir
    # The nearest existing ancestor: mkdir fails on any file in the way.
    existing = next(p for p in (cfg.output_dir, *cfg.output_dir.parents) if p.exists())
    if not existing.is_dir():
        v.fail("paths.output_dir", f"{existing} exists and is not a directory")

    cfg.split_ratio = tuple(
        v.value(sections["split"], "split.", name, int, default, minimum=1)
        for name, default in zip(_SPLIT_NAMES, cfg.split_ratio)
    )

    ks = sections["eval"].get("ks", list(cfg.eval.ks))
    if not isinstance(ks, list) or not ks or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in ks
    ):
        v.fail("eval.ks", "must be a non-empty list of integers")
    else:
        bad = [k for k in ks if not 1 <= k <= parts["eval"]["num_alternatives"] + 1]
        if bad:
            v.fail("eval.ks", f"values {bad} outside 1..num_alternatives+1")
        parts["eval"]["ks"] = tuple(ks)

    for key in _KNOWN["grid"]:
        if key not in sections["grid"]:
            continue
        labels = sections["grid"][key]
        if not isinstance(labels, list) or not labels or not all(
            isinstance(x, str) for x in labels
        ):
            v.fail(f"grid.{key}", "must be a non-empty list of transform labels")
            continue
        specs = tuple(v.transform(label, f"grid.{key}", None) for label in labels)
        if None in specs:
            continue
        if len(set(specs)) != len(specs):
            v.fail(f"grid.{key}", "labels must be unique")
        else:
            setattr(cfg, _FIELDS["grid", key][0], specs)

    models = sections["annotation"].get("models", cfg.annotation_models)
    if not isinstance(models, dict):
        v.fail("annotation.models", "must be an object of name -> {kind, path}")
    else:
        for name, entry in models.items():
            if (
                not isinstance(entry, dict)
                or entry.get("kind") not in ("checkpoint", "index")
                or not isinstance(entry.get("path"), str)
                or "\0" in entry["path"]
            ):
                v.fail(
                    f"annotation.models.{name}",
                    "must be {\"kind\": \"checkpoint\"|\"index\", \"path\": ...}",
                )
            else:
                path = (base_dir / entry["path"]).resolve()
                cfg.annotation_models[name] = {**entry, "path": path}

    if v.errors:
        raise ConfigError("invalid configuration", v.errors)
    for part, values in parts.items():
        setattr(cfg, part, replace(getattr(cfg, part), **values))
    return cfg
