"""Per-layer metrics reduced from the spans of one traced pass.

Layers are the dialret modules. Times are in seconds unless the name ends
in ``_ms``; a metric for a layer a workload never calls reads 0. Ratios and
byte figures derived from counts are ``computed``: :func:`layer_metrics`
returns each with its numerator and denominator beside the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tracer import Span, self_times

LAYERS = ("corpus", "distribution", "sampling", "encoder", "retrieval", "evaluation", "cli")

TRAINSET_KINDS = ("identity", "uniform", "power", "kde", "filtered")

# Name -> unit of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = {
    "corpus.parse_s": "s",
    "corpus.extract_s": "s",
    "corpus.split_s": "s",
    "corpus.dialogues": "count",
    "corpus.rejected": "count",
    "corpus.pairs": "count",
    "distribution.count_s": "s",
    "distribution.support": "count",
    "distribution.transform_kde_s": "s",
    "distribution.transform_power_s": "s",
    "distribution.kde_matrix_bytes": "bytes",
    **{f"sampling.trainset_{kind}_s": "s" for kind in TRAINSET_KINDS},
    "sampling.trainset_s": "s",
    "sampling.examples": "count",
    "sampling.alias_build_s": "s",
    "sampling.alias_builds": "count",
    "sampling.draw_useful_ratio": "ratio",
    "sampling.filter_kept_ratio": "ratio",
    "encoder.train_s": "s",
    "encoder.steps": "count",
    "encoder.step_p50_ms": "ms",
    "encoder.step_p99_ms": "ms",
    "encoder.update_self_s": "s",
    "encoder.pad_useful_ratio": "ratio",
    "encoder.encode_calls": "count",
    "encoder.encode_seqs": "count",
    "encoder.encode_s": "s",
    "encoder.checkpoint_save_s": "s",
    "encoder.checkpoint_load_s": "s",
    "encoder.checkpoint_bytes": "bytes",
    "retrieval.index_build_s": "s",
    "retrieval.index_rows": "count",
    "retrieval.index_save_s": "s",
    "retrieval.index_load_s": "s",
    "retrieval.index_bytes": "bytes",
    "retrieval.query_self_p50_ms": "ms",
    "retrieval.bytes_scanned_per_query": "bytes",
    "evaluation.evaluate_s": "s",
    "evaluation.pairs": "count",
    "evaluation.score_s": "s",
    "evaluation.alt_draw_s": "s",
    "evaluation.alt_draw_useful_ratio": "ratio",
    "evaluation.response_cache_hit_ratio": "ratio",
    "cli.grid_self_s": "s",
    "cli.sha256_s": "s",
    "cli.sha256_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class Computed:
    """A derived figure kept with the counts it was derived from."""

    numerator: float
    denominator: float

    @property
    def value(self) -> float:
        return self.numerator / self.denominator if self.denominator else 0.0


def _percentile_ms(durations_ns: list[int], q: float) -> float:
    return float(np.percentile(durations_ns, q)) / 1e6 if durations_ns else 0.0


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, Computed]]:
    """Per-layer values and the computed ones among them for one traced pass.

    The ``trace.*`` entries describe the pass as a whole and are filled in
    by the caller.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def select(name):
        return [spans[i] for i in by_name.get(name, ())]

    def total(name) -> float:
        return sum(s.duration for s in select(name)) / 1e9

    def parent_name(span) -> str:
        return spans[span.parent].name if span.parent >= 0 else ""

    m: dict[str, float] = {}
    c: dict[str, Computed] = {}

    parses = select("corpus.parse_dialogues")
    m["corpus.parse_s"] = total("corpus.parse_dialogues")
    m["corpus.extract_s"] = total("corpus.extract_all_pairs")
    m["corpus.split_s"] = total("corpus.split_corpus")
    m["corpus.dialogues"] = sum(s.info[0] for s in parses)
    m["corpus.rejected"] = sum(s.info[1] for s in parses)
    m["corpus.pairs"] = sum(s.info for s in select("corpus.extract_all_pairs"))

    m["distribution.count_s"] = total("distribution.count_responses")
    m["distribution.support"] = max(
        (s.info for s in select("distribution.count_responses")), default=0
    )
    transforms = select("distribution.transform")
    kde = [s for s in transforms if s.info[0] == "kde"]
    m["distribution.transform_kde_s"] = sum(s.duration for s in kde) / 1e9
    m["distribution.transform_power_s"] = (
        sum(s.duration for s in transforms if s.info[0] == "power") / 1e9
    )
    # Bytes of one n-by-n float64 temporary in the kde path, per kde call.
    c["distribution.kde_matrix_bytes"] = Computed(
        sum(8 * s.info[1] ** 2 for s in kde), len(kde)
    )

    trainsets = select("sampling.build_training_set")
    for kind in TRAINSET_KINDS:
        chosen = [
            s for s in trainsets
            if (s.info[1] if kind == "filtered" else (s.info[0] == kind and not s.info[1]))
        ]
        m[f"sampling.trainset_{kind}_s"] = sum(s.duration for s in chosen) / 1e9
    m["sampling.trainset_s"] = total("sampling.build_training_set")
    m["sampling.examples"] = sum(s.info[3] for s in trainsets)
    m["sampling.alias_build_s"] = total("sampling.AliasSampler.__init__")
    m["sampling.alias_builds"] = len(by_name.get("sampling.AliasSampler.__init__", ()))
    draws = select("sampling.AliasSampler.draw")
    c["sampling.draw_useful_ratio"] = Computed(
        sum(s.info for s in select("sampling.draw_negatives")),
        sum(s.info for s in draws if parent_name(s) == "sampling.draw_negatives"),
    )
    filtered = [s for s in trainsets if s.info[1]]
    c["sampling.filter_kept_ratio"] = Computed(
        sum(s.info[3] // (1 + s.info[4]) for s in filtered),
        sum(s.info[2] for s in filtered),
    )

    # Imported here: dialret is on the path only once run.py has added src/.
    from dialret.encoder import MAX_SEQUENCE_TOKENS

    steps = select("encoder.loss_and_gradients")
    step_ns = [s.duration for s in steps]
    m["encoder.train_s"] = total("encoder.train")
    m["encoder.steps"] = len(steps)
    m["encoder.step_p50_ms"] = _percentile_ms(step_ns, 50)
    m["encoder.step_p99_ms"] = _percentile_ms(step_ns, 99)
    m["encoder.update_self_s"] = sum(own[i] for i in by_name.get("encoder.train", ())) / 1e9
    real = slots = 0
    for span in steps:
        for field in ("context_tokens", "response_tokens"):
            lengths = [min(len(getattr(ex, field)), MAX_SEQUENCE_TOKENS) for ex in span.info]
            real += sum(lengths)
            slots += len(lengths) * max(lengths)
    c["encoder.pad_useful_ratio"] = Computed(real, slots)
    outer = [
        s for s in select("encoder.encode") + select("encoder.encode_batch")
        if parent_name(s) != "encoder.encode"
    ]
    m["encoder.encode_calls"] = len(outer)
    m["encoder.encode_seqs"] = sum(s.info for s in outer)
    m["encoder.encode_s"] = sum(s.duration for s in outer) / 1e9
    m["encoder.checkpoint_save_s"] = total("encoder.save_checkpoint")
    m["encoder.checkpoint_load_s"] = total("encoder.load_checkpoint")
    m["encoder.checkpoint_bytes"] = sum(s.info for s in select("encoder.save_checkpoint"))

    queries = by_name.get("retrieval.query_nearest", ())
    m["retrieval.index_build_s"] = total("retrieval.build_history_index")
    m["retrieval.index_rows"] = sum(s.info for s in select("retrieval.build_history_index"))
    m["retrieval.index_save_s"] = total("retrieval.save_index")
    m["retrieval.index_load_s"] = total("retrieval.load_index")
    m["retrieval.index_bytes"] = sum(s.info for s in select("retrieval.save_index"))
    m["retrieval.query_self_p50_ms"] = _percentile_ms([own[i] for i in queries], 50)
    c["retrieval.bytes_scanned_per_query"] = Computed(
        sum(8 * rows * dim for rows, dim in (spans[i].info for i in queries)), len(queries)
    )

    evaluates = by_name.get("evaluation.evaluate", ())
    scores = select("evaluation.DualEncoderScorer.score_candidates") + select(
        "evaluation.HistoryIndexScorer.score_candidates"
    )
    score_names = {s.name for s in scores}
    m["evaluation.evaluate_s"] = total("evaluation.evaluate")
    m["evaluation.pairs"] = sum(spans[i].info[0] for i in evaluates)
    m["evaluation.score_s"] = sum(s.duration for s in scores) / 1e9
    eval_draws = [s for s in draws if parent_name(s) == "evaluation.evaluate"]
    # evaluate's own time is seeding plus distinct draws; the alias draws
    # are spans of their own, so add them back.
    m["evaluation.alt_draw_s"] = (
        sum(own[i] for i in evaluates) + sum(s.duration for s in eval_draws)
    ) / 1e9
    c["evaluation.alt_draw_useful_ratio"] = Computed(
        sum(spans[i].info[0] * spans[i].info[1] for i in evaluates),
        sum(s.info for s in eval_draws),
    )
    candidates = sum(s.info for s in scores)
    encoded = sum(
        s.info for s in select("encoder.encode_batch") if parent_name(s) in score_names
    )
    c["evaluation.response_cache_hit_ratio"] = Computed(candidates - encoded, candidates)

    m["cli.grid_self_s"] = sum(own[i] for i in by_name.get("cli.cmd_grid", ())) / 1e9
    m["cli.sha256_s"] = total("retrieval.file_sha256")
    m["cli.sha256_bytes"] = sum(s.info for s in select("retrieval.file_sha256"))

    layer_self = dict.fromkeys(LAYERS, 0)
    for span, ns in zip(spans, own):
        layer_self[span.name.partition(".")[0]] += ns
    for layer, ns in layer_self.items():
        m[f"{layer}.self_s"] = ns / 1e9

    for name, computed in c.items():
        m[name] = computed.value
    return m, c
