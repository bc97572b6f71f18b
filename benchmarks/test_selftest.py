"""Self-tests for the benchmark's oracle, tracer and metric tables.

    python3 -m pytest -q benchmarks/test_selftest.py
"""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dialret import corpus, distribution, encoder, evaluation, retrieval, sampling, synthetic  # noqa: E402
from dialret.retrieval import QueryHit  # noqa: E402

from layers import PER_LAYER, layer_metrics  # noqa: E402
from oracle import hits_match, oracle_top_k  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import MODULES, TRACED, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def small():
    """A small corpus, an untrained model and an index with duplicate rows."""
    dialogues = synthetic.make_synthetic_corpus(120, 12, 40, 1.0, seed=3)
    pairs = corpus.extract_all_pairs(dialogues)
    # Re-adding every pair under a new id gives bit-identical rows, so
    # the ascending-pair-id tie rule decides every top-k.
    twins = [dataclasses.replace(p, pair_id=p.pair_id + len(pairs)) for p in pairs]
    emb = encoder.random_embeddings(synthetic.corpus_vocabulary(dialogues), 8, 1.0, seed=1)
    model = encoder.DualEncoderModel.create(emb, "gru", hidden=8, seed=2)
    index = retrieval.build_history_index(model, pairs + twins)
    return dialogues, pairs, model, index


def test_oracle_agrees_with_query_nearest(small):
    _, pairs, model, index = small
    for k in (1, 5, len(index)):
        for pair in pairs[:40]:
            hits = retrieval.query_nearest(index, pair.context_tokens, k)
            assert hits_match(hits, oracle_top_k(index, model, pair.context_tokens, k))


def test_oracle_rejects_wrong_order_and_scores(small):
    _, pairs, model, index = small
    tokens = pairs[0].context_tokens
    hits = retrieval.query_nearest(index, tokens, 5)
    expected = oracle_top_k(index, model, tokens, 5)
    # The twin rows tie, so swapping a pair of them breaks only the tie rule.
    swapped = [hits[1], hits[0]] + hits[2:]
    assert hits[0].score == hits[1].score
    assert not hits_match(swapped, expected)
    nudged = [QueryHit(hits[0].pair_id, hits[0].response_text, hits[0].score + 1e-9)]
    assert not hits_match(nudged + hits[1:], expected)


def _bindings_snapshot():
    modules = {name: importlib.import_module(name) for name in MODULES}
    snapshot = {}
    for name, module in modules.items():
        for key, value in vars(module).items():
            snapshot[(name, key)] = value
            if type(value) is dict:
                snapshot.update(((name, key, k), v) for k, v in value.items())
            if isinstance(value, type) and value.__module__ == name:
                snapshot.update(((name, key, "attr", k), v) for k, v in vars(value).items())
    return snapshot


def _traced_pipeline(dialogues, model, tracer):
    with tracer:
        train_d, _, test_d = corpus.split_corpus(dialogues, corpus.SplitSpec.from_ratio(8, 1, 1))
        train_pairs = corpus.extract_all_pairs(train_d)
        test_pairs = corpus.extract_all_pairs(test_d)
        dist = distribution.count_responses(train_pairs)
        examples = sampling.build_training_set(
            train_pairs, dist,
            sampling.SamplingStrategy(filter_by_inverse_count=True), np.random.default_rng(0),
        )
        encoder.train(model, examples, encoder.TrainConfig(batch_size=8, max_iterations=5))
        index = retrieval.build_history_index(model, train_pairs)
        retrieval.query_nearest(index, test_pairs[0].context_tokens, 3)
        cfg = evaluation.EvalConfig(num_alternatives=3, ks=(1,))
        evaluation.evaluate(model, test_pairs, dist, cfg)
        evaluation.evaluate(index, test_pairs, dist, cfg)
        assert retrieval.encode is evaluation.encode is not _ORIGINAL_ENCODE


_ORIGINAL_ENCODE = encoder.encode


def test_traced_run_restores_every_binding(small):
    dialogues, _, _, _ = small
    emb = encoder.random_embeddings(synthetic.corpus_vocabulary(dialogues), 8, 1.0, seed=1)
    model = encoder.DualEncoderModel.create(emb, "gru", hidden=8, seed=2)
    before = _bindings_snapshot()
    tracer = Tracer()
    _traced_pipeline(dialogues, model, tracer)
    after = _bindings_snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())

    names = {span.name for span in tracer.spans}
    assert {"encoder.loss_and_gradients", "retrieval.query_nearest",
            "sampling.AliasSampler.draw", "evaluation.evaluate"} <= names
    metrics, computed = layer_metrics(tracer.spans)
    assert metrics["encoder.steps"] == 5
    assert metrics["encoder.self_s"] > 0
    for name in ("encoder.pad_useful_ratio", "sampling.draw_useful_ratio",
                 "sampling.filter_kept_ratio", "evaluation.alt_draw_useful_ratio",
                 "evaluation.response_cache_hit_ratio"):
        assert 0 < computed[name].value <= 1, name
    assert set(metrics) <= set(PER_LAYER)


def test_restores_bindings_when_the_pass_raises():
    before = _bindings_snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert encoder.encode is not _ORIGINAL_ENCODE
            raise RuntimeError("boom")
    after = _bindings_snapshot()
    assert all(after[key] is value for key, value in before.items())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["grid-c8", "retrieve-wide", "sample-wide"]
    assert spec["command"] == ["python3", "benchmarks/run.py"] and spec["paths"] == ["benchmarks"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(set(TRACED)) == len(TRACED)
