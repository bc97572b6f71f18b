"""Response draws and training-set assembly.

Negatives are drawn i.i.d. from a (possibly transformed) response
distribution, conditioned on differing from the pair's true response;
evaluation alternatives are drawn distinct from each other and from the
true response. Both use rejection with redraw, which is exact, and give
up with ``DataError`` after ``MAX_DRAW_ROUNDS`` rounds rather than loop
on a distribution whose mass sits on the excluded responses. Draws use a
Vose alias table, so each draw costs O(1) after O(n) setup.

A :class:`TrainingSet` stores each kept pair's context and each distinct
response once, and its examples as int arrays of rows into those tables;
the build makes no per-example object, and training and
:func:`write_training_set` pad or render each table entry once.

All randomness flows through injected ``numpy.random.Generator`` handles
(PCG64; see :mod:`dialret.seeding`), making every output reproducible
from a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ._container import write_artifact
from .corpus import ContextResponsePair
from .distribution import ResponseDistribution, TransformSpec, transform
from .errors import CandidatePoolError, DataError
from .seeding import derive_rng

if TYPE_CHECKING:
    from .encoder import EmbeddingTable

# Rejection rounds after which a draw gives up.
MAX_DRAW_ROUNDS = 10_000

# Lines per write in write_training_set, which holds one block's text.
WRITE_BLOCK_LINES = 4096


class AliasSampler:
    """Vose alias method for weighted sampling in O(1) per draw.

    Builds two length-n tables from the weight vector: an acceptance
    probability per slot and an alias index per slot. A draw picks a slot
    uniformly, then keeps it or jumps to its alias. The effective
    per-index probabilities implied by the tables equal the normalized
    input weights exactly up to floating-point rounding, which the test
    suite checks against a naive cumulative-search sampler.
    """

    def __init__(self, weights: Sequence[float]):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise DataError("weights must be a non-empty 1-D array")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise DataError("weights must be finite and non-negative")
        total = weights.sum()
        if total <= 0:
            raise DataError("weights must have positive total mass")
        n = weights.size
        scaled = weights * (n / total)
        self.accept = np.ones(n, dtype=np.float64)
        self.alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            self.accept[s] = scaled[s]
            self.alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        # Remaining slots get probability 1 (numerical leftovers).

    def __len__(self) -> int:
        return len(self.accept)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Return ``size`` independent index draws as an int64 array."""
        slots = rng.integers(0, len(self.accept), size=size)
        keep = rng.random(size) < self.accept[slots]
        return np.where(keep, slots, self.alias[slots])

    def effective_probs(self) -> np.ndarray:
        """Exact per-index probabilities implied by the tables."""
        n = len(self.accept)
        probs = self.accept.copy()
        np.add.at(probs, self.alias, 1.0 - self.accept)
        return probs / n


@dataclass(frozen=True)
class SamplingStrategy:
    """How to turn positive pairs into a labeled training set."""

    transform: TransformSpec = field(default_factory=TransformSpec.identity)
    neg_per_pos: int = 5
    filter_by_inverse_count: bool = False

    def __post_init__(self):
        if self.neg_per_pos < 1:
            raise DataError("neg_per_pos must be at least 1")


@dataclass(frozen=True)
class TrainingExample:
    context_tokens: tuple[str, ...]
    response_tokens: tuple[str, ...]
    label: int
    source_pair_id: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label}")


class TrainingSet:
    """Labeled examples as two token-tuple tables and three per-example arrays.

    ``contexts[k]`` is a context and ``pair_ids[k]`` its pair's id;
    ``responses`` holds each distinct response once. Example ``i`` pairs
    context row ``context_rows[i]`` with response row ``response_rows[i]``
    under ``labels[i]``. ``trainset[i]`` and iteration give
    :class:`TrainingExample` views; a slice is a TrainingSet over the same
    tables. Two sets are equal when their views are.
    """

    def __init__(self, contexts, pair_ids, responses, context_rows, response_rows, labels):
        self.contexts: list[tuple[str, ...]] = contexts
        self.pair_ids: list[int] = pair_ids
        self.responses: list[tuple[str, ...]] = responses
        self.context_rows = np.asarray(context_rows, dtype=np.intp)
        self.response_rows = np.asarray(response_rows, dtype=np.intp)
        self.labels = np.asarray(labels, dtype=np.int8)

    @classmethod
    def from_examples(cls, examples: Iterable[TrainingExample]) -> "TrainingSet":
        """The set whose views are ``examples``, in order."""
        contexts: dict[tuple, int] = {}  # (context, pair id) -> row
        responses: dict[tuple[str, ...], int] = {}
        rows = np.array([
            (contexts.setdefault((ex.context_tokens, ex.source_pair_id), len(contexts)),
             responses.setdefault(ex.response_tokens, len(responses)), ex.label)
            for ex in examples
        ], dtype=np.intp).reshape(-1, 3)
        return cls([c for c, _ in contexts], [p for _, p in contexts], list(responses), *rows.T)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TrainingSet(self.contexts, self.pair_ids, self.responses,
                               self.context_rows[i], self.response_rows[i], self.labels[i])
        c = int(self.context_rows[i])
        return TrainingExample(self.contexts[c], self.responses[self.response_rows[i]],
                               int(self.labels[i]), self.pair_ids[c])

    def rows(self):
        """(context row, response row, label) of each example, as ints."""
        return zip(self.context_rows.tolist(), self.response_rows.tolist(), self.labels.tolist())

    def __iter__(self):
        contexts, responses, pair_ids = self.contexts, self.responses, self.pair_ids
        for c, r, label in self.rows():
            yield TrainingExample(contexts[c], responses[r], label, pair_ids[c])

    def __eq__(self, other):
        if not isinstance(other, TrainingSet):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def draw_negatives(
    dist: ResponseDistribution,
    true_response: str,
    n: int,
    rng: np.random.Generator,
) -> list[str]:
    """Draw ``n`` responses i.i.d. from ``dist`` conditioned on != true.

    Rejection with redraw is distribution-equivalent to renormalizing the
    conditional. Draws may repeat among themselves.
    """
    if n < 1:
        raise DataError("n must be positive")
    if len(dist) < 2:
        raise DataError("need at least 2 distinct responses to draw negatives")
    sampler = dist.sampler()
    excluded = dist.index_of(true_response) if true_response in dist else -1
    draws = sampler.draw(rng, n)
    if excluded >= 0 and excluded in draws.tolist():
        bad = np.flatnonzero(draws == excluded)
        rounds = 0
        while bad.size:
            rounds += 1
            if rounds > MAX_DRAW_ROUNDS:
                raise DataError("negative sampling failed to exclude true response")
            redraw = sampler.draw(rng, bad.size)
            draws[bad] = redraw
            bad = bad[redraw == excluded]
    responses = dist.responses
    return [responses[i] for i in draws.tolist()]


def draw_distinct_alternatives(
    dist: ResponseDistribution, true_response: str, m: int, rng: np.random.Generator
) -> list[str]:
    """``m`` distinct responses != true, drawn from ``dist`` without replacement."""
    available = len(dist) - (1 if true_response in dist else 0)
    if available < m:
        raise CandidatePoolError(
            f"need {m} distinct alternatives but only {available} are available"
        )
    responses = dist.responses
    sampler = dist.sampler()
    chosen: list[str] = []
    seen = {true_response}
    for _ in range(MAX_DRAW_ROUNDS):
        for i in sampler.draw(rng, m - len(chosen)):
            text = responses[i]
            if text not in seen:
                seen.add(text)
                chosen.append(text)
        if len(chosen) == m:
            return chosen
    raise CandidatePoolError(f"no {m} distinct alternatives in {MAX_DRAW_ROUNDS} draw rounds")


def build_training_set(
    pairs: Sequence[ContextResponsePair],
    dist: ResponseDistribution,
    strategy: SamplingStrategy,
    rng: np.random.Generator,
    embeddings: "EmbeddingTable | None" = None,
) -> TrainingSet:
    """Assemble positives and sampled negatives for every pair.

    Per pair, in input order: when ``filter_by_inverse_count`` is set the
    pair survives with probability 1/count(response), using the raw
    pre-transform counts; each surviving pair emits one positive followed
    by ``neg_per_pos`` negatives drawn from the transformed distribution.
    The generator is consumed in that fixed order, so output is a pure
    function of (pairs, dist, strategy, seed).

    The response table is the transformed support, in its order, then any
    positive's response outside it. ``embeddings`` is only required for
    the kde transform.
    """
    sample_dist = transform(dist, strategy.transform, embeddings)
    responses = [tuple(r.split(" ")) for r in sample_dist.responses]
    response_row = {tokens: row for row, tokens in enumerate(responses)}
    contexts, pair_ids, rows = [], [], []
    for pair in pairs:
        if strategy.filter_by_inverse_count:
            count = dist.count(pair.response_text) if pair.response_text in dist else 0
            if count < 1:
                raise DataError(f"no occurrence count for response {pair.response_text!r}")
            if rng.random() >= 1.0 / count:
                continue
        contexts.append(pair.context_tokens)
        pair_ids.append(pair.pair_id)
        row = response_row.get(pair.response_tokens)
        if row is None:
            row = response_row[pair.response_tokens] = len(responses)
            responses.append(pair.response_tokens)
        rows.append(row)
        negatives = draw_negatives(sample_dist, pair.response_text, strategy.neg_per_pos, rng)
        rows.extend(map(sample_dist.index_of, negatives))
    group = 1 + strategy.neg_per_pos
    return TrainingSet(
        contexts, pair_ids, responses, np.repeat(np.arange(len(contexts)), group), rows,
        np.tile(np.arange(group) == 0, len(contexts)),
    )


def make_epoch_resampler(
    pairs: Sequence[ContextResponsePair],
    dist: ResponseDistribution,
    strategy: SamplingStrategy,
    master_seed: int,
    embeddings: "EmbeddingTable | None" = None,
) -> Callable[[int], TrainingSet]:
    """Per-epoch training-set re-sampler for ``dialret.encoder.train``.

    ``resample(e)`` equals ``build_training_set(pairs, dist, strategy,
    derive_rng(master_seed, "resample-epoch", e), embeddings)``: epoch
    ``e`` gets its own generator substream, so a run is still fully
    determined by the master seed. The distribution is transformed once,
    here, and every epoch draws from that one transformed distribution
    and its cached alias table; the transform keeps the raw counts that
    the inverse-count filter reads. Off by default everywhere; negatives
    are normally fixed once per built training set.
    """
    sample_dist = transform(dist, strategy.transform, embeddings)
    epoch_strategy = replace(strategy, transform=TransformSpec.identity())

    def resample(epoch: int) -> TrainingSet:
        rng = derive_rng(master_seed, "resample-epoch", epoch)
        return build_training_set(pairs, sample_dist, epoch_strategy, rng)

    return resample


def write_training_set(path, examples: TrainingSet) -> None:
    """Serialize examples as UTF-8 JSON lines.

    Each line is ``json.dumps`` of the example's dict with sorted keys,
    compact separators and ``ensure_ascii=False``. Each context's and each
    response's JSON is rendered once, and the lines are filled from them
    ``WRITE_BLOCK_LINES`` at a time.
    """
    dump = partial(json.dumps, ensure_ascii=False, separators=(",", ":"))
    heads = ['{"context_tokens":' + dump(c) + ',"label":' for c in examples.contexts]
    tails = [f',"source_pair_id":{p}}}\n' for p in examples.pair_ids]
    middles = [',"response_tokens":' + dump(r) for r in examples.responses]

    write_artifact(path, (
        "".join(
            heads[c] + "01"[label] + middles[r] + tails[c]
            for c, r, label in examples[start : start + WRITE_BLOCK_LINES].rows()
        )
        for start in range(0, len(examples), WRITE_BLOCK_LINES)
    ))
