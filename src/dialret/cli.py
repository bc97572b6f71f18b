"""Command-line entry point wiring all modules into reproducible runs.

Subcommands: ingest, stats, build-trainset, train, retrieve, eval, grid,
export-anno, score-anno, make-synthetic-corpus. All but ``retrieve``,
``score-anno`` and ``make-synthetic-corpus`` read a JSON config file
(flags override individual fields) and write their artifacts under the
configured output directory. For each of them ``main`` loads the config,
makes the output directory, runs the command and writes a
``<command>.manifest.json`` with the argv, config echo, and SHA-256 of
every input and output, so any artifact can be traced and regenerated.
The other three take their inputs from flags alone and write no manifest.

``train`` and ``grid`` share one training path, ``train`` being the
one-variant case: every variant's trainset is written, each variant then
trains in its own forked child, and then its other artifacts are written.
``eval`` and ``grid`` share one evaluation set-up: the eval seed, each
alternative's transform spec and, for kde, the embeddings.

Exit codes: 0 success, 2 bad usage or config, 3 missing input file (or a
directory in its place, or a file in place of a directory), 4 malformed
data, 5 numerical failure, 1 anything else, any other OS error included.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import distribution as dist_mod
from . import encoder as enc_mod
from . import evaluation as eval_mod
from . import retrieval as retr_mod
from . import sampling as samp_mod
from . import synthetic as synth_mod
from ._container import write_artifact
from .config import ExperimentConfig, load_config
from .errors import ConfigError, DataError, DialretError, NumericError
from .seeding import derive_rng, derive_seed

logger = logging.getLogger("dialret")


def _write_manifest(
    command: str, argv, cfg: ExperimentConfig, inputs: list[Path], outputs: list[Path],
) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "master_seed": cfg.master_seed,
        "config": cfg.raw,
        "inputs": {str(p): retr_mod.file_sha256(p) for p in inputs},
        "outputs": {str(p): retr_mod.file_sha256(p) for p in outputs},
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    write_artifact(cfg.output_dir / f"{command}.manifest.json", [text])


class _Corpus:
    """The configured corpus as every corpus-reading command sees it.

    The corpus is parsed once; the seeded split, the pairs of each split
    and the training response distribution are computed on first use and
    then reused, so a command pays only for what it reads.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.parsed = corpus_mod.parse_dialogues(
            corpus_mod.read_text_lines(cfg.corpus_path, "corpus")
        )
        self._pairs: dict[str, list[corpus_mod.ContextResponsePair]] = {}

    @functools.cached_property
    def splits(self) -> dict[str, list[corpus_mod.Dialogue]]:
        spec = self.cfg.split_spec(seed=derive_seed(self.cfg.master_seed, "split"))
        parts = corpus_mod.split_corpus(self.parsed.dialogues, spec)
        return dict(zip(("train", "dev", "test"), parts))

    def dialogues(self, split: str) -> list[corpus_mod.Dialogue]:
        """One split's dialogues, or the whole corpus for ``"all"``."""
        return list(self.parsed.dialogues) if split == "all" else self.splits[split]

    def pairs(self, split: str) -> list[corpus_mod.ContextResponsePair]:
        if split not in self._pairs:
            self._pairs[split] = corpus_mod.extract_all_pairs(
                self.dialogues(split), self.cfg.max_context_turns
            )
        return self._pairs[split]

    @functools.cached_property
    def train_dist(self) -> dist_mod.ResponseDistribution:
        return dist_mod.count_responses(self.pairs("train"))


def _embeddings_for(cfg: ExperimentConfig, train_dialogues) -> enc_mod.EmbeddingTable:
    if cfg.embeddings_path is not None:
        return enc_mod.load_embeddings(cfg.embeddings_path, cfg.encoder_dim)
    vocab = synth_mod.corpus_vocabulary(train_dialogues)
    return enc_mod.random_embeddings(
        vocab, cfg.encoder_dim, cfg.embedding_scale,
        seed=derive_seed(cfg.master_seed, "embeddings"),
    )


def _safe_label(label: str) -> str:
    return label.replace(":", "_")


# ----------------------------------------------------------------------
# subcommand implementations
#
# A ``--config`` command runs as ``command(args, cfg)`` once ``main`` has
# loaded the config and made its output directory, and returns the inputs
# besides the corpus and the outputs that ``main`` records in its manifest.
# ----------------------------------------------------------------------

def cmd_ingest(args, cfg: ExperimentConfig) -> tuple[list[Path], list[Path]]:
    out = cfg.output_dir
    data = _Corpus(cfg)
    errors_path = out / "ingest_errors.txt"
    write_artifact(errors_path, (str(err) + "\n" for err in data.parsed.errors))
    outputs = [errors_path]
    for name, part in data.splits.items():
        path = out / f"{name}.ids"
        corpus_mod.write_split_manifest(path, part)
        outputs.append(path)
    sizes = "/".join(str(len(part)) for part in data.splits.values())
    print(
        f"ingested {len(data.parsed.dialogues)} dialogues "
        f"({len(data.parsed.errors)} rejected); split {sizes} -> {out}"
    )
    return [], outputs


def cmd_stats(args, cfg: ExperimentConfig) -> tuple[list[Path], list[Path]]:
    dist = dist_mod.count_responses(_Corpus(cfg).pairs(args.split))
    report = dist_mod.distribution_report(dist)
    text = dist_mod.format_report(report)
    path = cfg.output_dir / f"stats_{args.split}.tsv"
    write_artifact(path, [text])
    sys.stdout.write(text)
    print(f"wrote {path}")
    return [], [path]


def _training_set(
    cfg: ExperimentConfig, data: _Corpus, strategy: samp_mod.SamplingStrategy,
    embeddings: enc_mod.EmbeddingTable, seed: int,
):
    """Epoch 0's set sampled by ``strategy``, its resampler, and the file it is in.

    Builds and writes ``trainset_<transform label>.jsonl`` for both
    ``build-trainset`` and training. ``seed`` seeds the sampling alone: the
    split and ``embeddings`` stay as the config has them. The resampler is
    ``None`` unless ``sampling.resample_each_epoch`` is set; then epoch 0's
    set is ``resampler(0)``.
    """
    label = strategy.transform.label()
    pairs, dist = data.pairs("train"), data.train_dist
    resampler = None
    if cfg.resample_each_epoch:
        resampler = samp_mod.make_epoch_resampler(
            pairs, dist, strategy, derive_seed(seed, "trainset", label), embeddings
        )
    examples = resampler(0) if resampler else samp_mod.build_training_set(
        pairs, dist, strategy, derive_rng(seed, "trainset", label), embeddings
    )
    path = cfg.output_dir / f"trainset_{_safe_label(label)}.jsonl"
    samp_mod.write_training_set(path, examples)
    return examples, resampler, path


def cmd_build_trainset(args, cfg: ExperimentConfig) -> tuple[list[Path], list[Path]]:
    sampling = cfg.sampling
    strategy = replace(
        sampling,
        transform=dist_mod.TransformSpec.parse(args.transform or sampling.transform.label()),
        neg_per_pos=args.neg_ratio or sampling.neg_per_pos,
        filter_by_inverse_count=sampling.filter_by_inverse_count or args.filter_inverse_count,
    )
    data = _Corpus(cfg)
    examples, _, path = _training_set(
        cfg, data, strategy, _embeddings_for(cfg, data.dialogues("train")),
        cfg.master_seed if args.seed is None else args.seed,
    )
    positives = int(examples.labels.sum())
    print(f"wrote {len(examples)} examples ({positives} positive) -> {path}")
    return [], [path]


def _train_variants(
    cfg: ExperimentConfig, data: _Corpus, labels
) -> tuple[dict[str, enc_mod.DualEncoderModel], list[Path]]:
    """Train one model per negative-sampling transform label, in parallel
    where there are CPUs for it, once every trainset is written; then write
    each one's checkpoint, loss trace and index. Returns the models by label
    and every artifact path, per variant and trainset first.
    """
    models, trainsets, jobs = {}, [], []
    for label in labels:
        # A fresh table per variant: training with train_embeddings updates
        # its matrix in place.
        embeddings = _embeddings_for(cfg, data.dialogues("train"))
        strategy = replace(cfg.sampling, transform=dist_mod.TransformSpec.parse(label))
        examples, resampler, path = _training_set(cfg, data, strategy, embeddings, cfg.master_seed)
        model = models[label] = enc_mod.DualEncoderModel.create(
            embeddings, variant=cfg.encoder_variant, hidden=cfg.encoder_hidden,
            seed=derive_seed(cfg.master_seed, "model-init", label),
            tied=cfg.encoder_tied, train_embeddings=cfg.train_embeddings,
        )
        train_cfg = replace(cfg.train, seed=derive_seed(cfg.master_seed, "train", label))
        jobs.append((model, examples, train_cfg, resampler))
        trainsets.append(path)
    logger.info("training variants %s", ", ".join(map(repr, labels)))
    # One list per argument: models, example sets, configs, resamplers.
    results = enc_mod.train(*map(list, zip(*jobs)))
    artifacts: list[Path] = []
    for (label, model), trainset, result in zip(models.items(), trainsets, results):
        suffix = _safe_label(label)
        ckpt_path = cfg.output_dir / f"model_{suffix}.ckpt"
        ckpt_sha256 = enc_mod.save_checkpoint(model, ckpt_path)
        trace_path = cfg.output_dir / f"train_{suffix}_loss.tsv"
        write_artifact(trace_path, (f"{it}\t{loss!r}\n" for it, loss in result.loss_trace))
        artifacts += [trainset, ckpt_path, trace_path]
        if cfg.build_index:
            index = retr_mod.build_history_index(
                model, data.pairs("train"), cfg.response_weight,
                checkpoint_ref=ckpt_path.name, checkpoint_sha256=ckpt_sha256,
            )
            index_path = cfg.output_dir / f"history_{suffix}.idx"
            retr_mod.save_index(index, index_path)
            artifacts.append(index_path)
    return models, artifacts


def cmd_train(args, cfg: ExperimentConfig) -> tuple[list[Path], list[Path]]:
    label = args.transform or cfg.sampling.transform.label()
    _, artifacts = _train_variants(cfg, _Corpus(cfg), [label])
    print(f"trained '{label}' variant -> {', '.join(str(p) for p in artifacts[1:])}")
    return [], artifacts


def _load_scorer(kind: str, path, checkpoint: str | None = None):
    """A checkpoint's model, or an index with its checkpoint's model attached.

    An index loads the checkpoint it references (relative to the index's
    directory) unless ``checkpoint`` names another one.
    """
    path = Path(path)
    if kind == "checkpoint":
        return enc_mod.load_checkpoint(path)
    index = retr_mod.load_index(path)
    if checkpoint:
        ckpt_path = Path(checkpoint)
    elif index.checkpoint_ref:
        ckpt_path = path.parent / index.checkpoint_ref
    else:
        raise ConfigError("index has no checkpoint reference; pass --checkpoint")
    index.model = enc_mod.load_checkpoint(ckpt_path, index.checkpoint_sha256)
    return index


def cmd_retrieve(args) -> int:
    index = _load_scorer("index", args.index, args.checkpoint)
    tokens = corpus_mod.tokenize(args.query)
    if not tokens:
        raise DataError("query contains no tokens")
    hits = retr_mod.query_nearest(index, tokens, args.top_k)
    print("rank\tcosine\tpair_id\tresponse")
    for rank, hit in enumerate(hits, start=1):
        print(f"{rank}\t{hit.score:.6f}\t{hit.pair_id}\t{hit.response_text}")
    return 0


def _alternatives(cfg: ExperimentConfig, data: _Corpus, labels):
    """Seeded eval config, {label: TransformSpec}, kde embeddings or None."""
    specs = {label: dist_mod.TransformSpec.parse(label) for label in labels}
    embeddings = None
    if any(spec.kind == "kde" for spec in specs.values()):
        embeddings = _embeddings_for(cfg, data.dialogues("train"))
    return replace(cfg.eval, seed=derive_seed(cfg.master_seed, "eval")), specs, embeddings


def cmd_eval(args, cfg: ExperimentConfig) -> tuple[list[Path], list[Path]]:
    data = _Corpus(cfg)
    test_pairs, train_dist = data.pairs(cfg.eval_split), data.train_dist
    if args.index:
        scorer = _load_scorer("index", args.index, args.checkpoint)
        scorer_name = "history-index"
        inputs = [Path(args.index)]
    elif args.checkpoint:
        scorer = _load_scorer("checkpoint", args.checkpoint)
        scorer_name = "dual-encoder"
        inputs = [Path(args.checkpoint)]
    else:
        raise ConfigError("eval needs --checkpoint or --index")

    alt_label = args.alternative_transform or cfg.eval.alternative_transform.label()
    eval_cfg, specs, embeddings = _alternatives(cfg, data, [alt_label])
    eval_cfg = replace(eval_cfg, alternative_transform=specs[alt_label])
    report = eval_mod.evaluate(scorer, test_pairs, train_dist, eval_cfg, embeddings)
    text = eval_mod.format_eval_report(report)
    path = cfg.output_dir / f"eval_{scorer_name}_{_safe_label(alt_label)}.txt"
    write_artifact(path, [text])
    sys.stdout.write(text)
    print(f"wrote {path}")
    return inputs, [path]


def cmd_grid(args, cfg: ExperimentConfig) -> tuple[list[Path], list[Path]]:
    out = cfg.output_dir
    data = _Corpus(cfg)
    test_pairs, train_dist = data.pairs(cfg.eval_split), data.train_dist
    eval_cfg, alt_transforms, embeddings = _alternatives(cfg, data, cfg.grid_alt_transforms)
    # A column whose candidates cannot be drawn fails before any training;
    # the draws use per-pair streams, so the evaluation below is unchanged.
    for spec in alt_transforms.values():
        eval_mod.draw_candidates(
            test_pairs, train_dist, replace(eval_cfg, alternative_transform=spec), embeddings
        )

    scorers, artifacts = _train_variants(cfg, data, cfg.grid_train_transforms)
    grid = eval_mod.cross_distribution_grid(
        scorers, alt_transforms, test_pairs, train_dist, eval_cfg, embeddings
    )
    for (alt_name, scorer_name), report in grid.cells.items():
        path = out / (
            f"grid_{_safe_label(scorer_name)}__alt_{_safe_label(alt_name)}.txt"
        )
        write_artifact(path, [eval_mod.format_eval_report(report)])
        artifacts.append(path)
    table = eval_mod.format_grid_table(grid, cfg.eval.ks)
    table_path = out / "grid_table.txt"
    write_artifact(table_path, [table])
    artifacts.append(table_path)
    sys.stdout.write(table)
    print(f"wrote {table_path}")
    return [], artifacts


def cmd_export_anno(args, cfg: ExperimentConfig) -> tuple[list[Path], list[Path]]:
    data = _Corpus(cfg)
    test_pairs, pool = data.pairs(cfg.eval_split), data.train_dist.responses

    flags = [("dual-encoder", "checkpoint", args.checkpoint), ("history-index", "index", args.index)]
    models = [model for model in flags if model[2]] + [
        (name, entry["kind"], entry["path"]) for name, entry in cfg.annotation_models.items()
    ]
    scorers = {name: _load_scorer(kind, path) for name, kind, path in models}
    inputs = [Path(path) for _, _, path in models]
    if not scorers:
        raise ConfigError(
            "export-anno needs --checkpoint/--index or annotation.models"
        )

    questions = [
        (str(p.pair_id), p.context_tokens)
        for p in test_pairs[: cfg.annotation_num_questions]
    ]
    rows = eval_mod.export_annotation(
        scorers, questions, pool,
        n_responses=cfg.annotation_n_responses,
        seed=derive_seed(cfg.master_seed, "annotation"),
    )
    anno_path = cfg.output_dir / "annotation.tsv"
    key_path = cfg.output_dir / "annotation_key.tsv"
    eval_mod.write_annotation_file(anno_path, rows)
    eval_mod.write_annotation_key(key_path, rows)
    print(f"wrote {len(rows)} rows for {len(questions)} questions -> {anno_path}")
    return inputs, [anno_path, key_path]


def cmd_score_anno(args) -> int:
    per_model = eval_mod.read_marked_annotation(args.anno, args.key)
    lines = ["model\tquestions\tCR\tUR"]
    for model in sorted(per_model):
        records = per_model[model]
        cr, ur = eval_mod.score_human_marks(records)
        lines.append(f"{model}\t{len(records)}\t{cr:.4f}\t{ur:.4f}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        write_artifact(args.out, [text])
        print(f"wrote {args.out}")
    return 0


def cmd_make_synthetic_corpus(args) -> int:
    dialogues = synth_mod.make_synthetic_corpus(
        num_dialogues=args.dialogues,
        distinct_responses=args.responses,
        vocab_size=args.vocab,
        zipf_exponent=args.exponent,
        seed=args.seed,
    )
    out_path = Path(args.out)
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--out {out_path}: {out_path.parent} is not a directory") from None
    write_artifact(out_path, (corpus_mod.dialogue_to_record(d) + "\n" for d in dialogues))
    print(f"wrote {len(dialogues)} dialogues -> {out_path}")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _number(kind: type, minimum: int | None = None):
    """argparse type for a finite ``kind`` value of at least ``minimum``."""
    what = "a finite number" if minimum is None else f"an integer of at least {minimum}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if (
            value is None
            or (kind is float and not math.isfinite(value))
            or (minimum is not None and value < minimum)
        ):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _transform_label(text: str) -> str:
    try:
        return dist_mod.TransformSpec.parse(text).label()
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialret",
        description="Retrieval-based dialogue experiments with controlled "
        "negative-sampling distributions.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        return p

    with_config(sub.add_parser("ingest", help="validate corpus and write splits"))

    p = with_config(sub.add_parser("stats", help="response rank/frequency table"))
    p.add_argument("--split", default="all", choices=("all", "train", "dev", "test"))

    p = with_config(sub.add_parser("build-trainset", help="sample a training set"))
    p.add_argument("--transform", type=_transform_label,
                   help="identity | uniform | power:D | kde:H")
    p.add_argument("--neg-ratio", type=_number(int, 1), help="negatives per positive")
    p.add_argument("--filter-inverse-count", action="store_true",
                   help="keep each pair with probability 1/count(response)")
    p.add_argument("--seed", type=_number(int, 0),
                   help="override master seed for sampling")

    p = with_config(sub.add_parser("train", help="train a dual encoder"))
    p.add_argument("--transform", type=_transform_label,
                   help="negative-sampling transform override")

    p = sub.add_parser("retrieve", help="query a history index")
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--top-k", type=_number(int, 1), default=3)
    p.add_argument("--checkpoint", help="encoder checkpoint (default: index ref)")

    p = with_config(sub.add_parser("eval", help="recall@k on a split"))
    p.add_argument("--checkpoint", help="score with a dual-encoder checkpoint")
    p.add_argument("--index", help="score with a history index")
    p.add_argument("--alternative-transform", type=_transform_label,
                   help="override eval alternatives")

    with_config(sub.add_parser(
        "grid", help="train per negative distribution, evaluate per alternative"
    ))

    p = with_config(sub.add_parser("export-anno", help="blind annotation sheet"))
    p.add_argument("--checkpoint")
    p.add_argument("--index")

    p = sub.add_parser("score-anno", help="CR/UR from marked annotations")
    p.add_argument("--anno", required=True)
    p.add_argument("--key")
    p.add_argument("--out")

    p = sub.add_parser("make-synthetic-corpus", help="generate a Zipf corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--dialogues", type=_number(int, 1), default=2000)
    p.add_argument("--responses", type=_number(int, 2), default=100)
    p.add_argument("--vocab", type=_number(int, 1), default=250)
    p.add_argument("--exponent", type=_number(float), default=1.0)
    p.add_argument("--seed", type=_number(int, 0), default=0)

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    "build-trainset": cmd_build_trainset,
    "train": cmd_train,
    "retrieve": cmd_retrieve,
    "eval": cmd_eval,
    "grid": cmd_grid,
    "export-anno": cmd_export_anno,
    "score-anno": cmd_score_anno,
    "make-synthetic-corpus": cmd_make_synthetic_corpus,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    command = _COMMANDS[args.command]
    try:
        if not hasattr(args, "config"):
            return command(args)
        cfg = load_config(args.config, require_corpus=True)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        extra_inputs, outputs = command(args, cfg)
        _write_manifest(
            args.command, argv, cfg, [cfg.corpus_path, *extra_inputs], outputs
        )
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 5
    except (DialretError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
