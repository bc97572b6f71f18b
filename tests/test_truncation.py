"""Every path from text to vectors applies the MAX_SEQUENCE_TOKENS rule.

A context keeps its last MAX_SEQUENCE_TOKENS tokens and a response its
first. Each path must give exactly the result of the pre-cut inputs, and
a different result when either side is cut at the other end.

The encoder is untied attention: its output is a convex combination over
every token, so a token left in or cut out always moves it. A GRU forgets
tokens 160 steps back below one ulp, so it would hide a missing cut.
"""

import numpy as np
import pytest

from dialret.corpus import ContextResponsePair
from dialret.encoder import (
    MAX_SEQUENCE_TOKENS,
    DualEncoderModel,
    loss_and_gradients,
    random_embeddings,
    score_pair,
)
from dialret.evaluation import DualEncoderScorer, HistoryIndexScorer
from dialret.retrieval import build_history_index, query_nearest
from dialret.sampling import TrainingExample

VOCAB = [f"t{i}" for i in range(40)]
N = MAX_SEQUENCE_TOKENS


def pair(pid, ctx, rsp):
    return ContextResponsePair(
        pair_id=pid, context_tokens=tuple(ctx), response_text=" ".join(rsp),
        response_tokens=tuple(rsp), dialogue_id=f"d{pid}", turn_index=1,
    )


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(7)
    emb = random_embeddings(VOCAB, 8, 1.0, seed=3)
    model = DualEncoderModel.create(emb, variant="attention", seed=4, tied=False)
    others = [pair(i, rng.choice(VOCAB, 5), rng.choice(VOCAB, 3)) for i in range(1, 9)]
    index = build_history_index(model, others)
    ctx, rsp = (list(rng.choice(VOCAB, N + 40)) for _ in range(2))
    return model, others, index, ctx, rsp


def _loss(model, others, index, ctx, rsp):
    loss, grads = loss_and_gradients(model, [TrainingExample(tuple(ctx), tuple(rsp), 1, 0)])
    return loss, {name: g.tolist() for name, g in grads.items()}


def _dual_encoder_scorer(model, others, index, ctx, rsp):
    return DualEncoderScorer(model).score_candidates(ctx, [" ".join(rsp), "t1 t2"]).tolist()


def _history_index_scorer(model, others, index, ctx, rsp):
    return HistoryIndexScorer(index).score_candidates(ctx, [" ".join(rsp), "t1 t2"]).tolist()


def _build(model, others, index, ctx, rsp):
    return build_history_index(model, [pair(0, ctx, rsp)] + others).vectors.tolist()


PATHS = {
    "loss_and_gradients": _loss,
    "score_pair": lambda model, others, index, ctx, rsp: score_pair(model, ctx, rsp),
    "DualEncoderScorer": _dual_encoder_scorer,
    "HistoryIndexScorer": _history_index_scorer,
    "build_history_index": _build,
    "query_nearest": lambda model, others, index, ctx, rsp: query_nearest(index, ctx, 100),
}


@pytest.mark.parametrize("path", PATHS)
def test_long_inputs_are_cut_like_the_rule(setup, path):
    model, others, index, ctx, rsp = setup
    result = PATHS[path]
    got = result(model, others, index, ctx, rsp)
    assert len(ctx) > N and len(rsp) > N
    assert got == result(model, others, index, ctx[-N:], rsp[:N])
    assert got != result(model, others, index, ctx[:N], rsp[:N])
    if path != "query_nearest":  # a query has no response
        assert got != result(model, others, index, ctx[-N:], rsp[-N:])
