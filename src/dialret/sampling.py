"""Response draws and training-set assembly.

Negatives are drawn i.i.d. from a (possibly transformed) response
distribution, conditioned on differing from the pair's true response;
evaluation alternatives are drawn distinct from each other and from the
true response. Both use rejection with redraw, which is exact, and give
up with ``DataError`` after ``MAX_DRAW_ROUNDS`` rounds rather than loop
on a distribution whose mass sits on the excluded responses. Draws use a
Vose alias table, so each draw costs O(1) after O(n) setup.

All randomness flows through injected ``numpy.random.Generator`` handles
(PCG64; see :mod:`dialret.seeding`), making every output reproducible
from a seed.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
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


@contextmanager
def _collector_paused():
    """Pause Python's cyclic garbage collector for the enclosed block.

    A training set is a list of hundreds of thousands of acyclic examples.
    While it grows, the collector makes full collections that walk every
    live object and free nothing. How many it makes depends on counters
    left by earlier work, and each walk is memory-bound, so they made the
    same build's time swing: two or three of them took 0.4 to 0.75 s of a
    1.5 to 2.3 s build over 38 678 pairs on a shared 2-CPU VM. Reference
    counting still frees whatever the block drops. The previous state is
    restored on exit, so a caller that had the collector off keeps it off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def build_training_set(
    pairs: Sequence[ContextResponsePair],
    dist: ResponseDistribution,
    strategy: SamplingStrategy,
    rng: np.random.Generator,
    embeddings: "EmbeddingTable | None" = None,
) -> list[TrainingExample]:
    """Assemble positives and sampled negatives for every pair.

    Per pair, in input order: when ``filter_by_inverse_count`` is set the
    pair survives with probability 1/count(response), using the raw
    pre-transform counts; each surviving pair emits one positive followed
    by ``neg_per_pos`` negatives drawn from the transformed distribution.
    The generator is consumed in that fixed order, so output is a pure
    function of (pairs, dist, strategy, seed).

    ``embeddings`` is only required for the kde transform.
    """
    with _collector_paused():
        sample_dist = transform(dist, strategy.transform, embeddings)
        # One token tuple per response, shared by every negative that draws it.
        response_tokens = {r: tuple(r.split(" ")) for r in sample_dist.responses}
        examples: list[TrainingExample] = []
        for pair in pairs:
            if strategy.filter_by_inverse_count:
                count = dist.count(pair.response_text)
                if count < 1:
                    raise DataError(
                        f"no occurrence count for response {pair.response_text!r}"
                    )
                if rng.random() >= 1.0 / count:
                    continue
            context, pair_id = pair.context_tokens, pair.pair_id
            examples.append(TrainingExample(context, pair.response_tokens, 1, pair_id))
            negatives = draw_negatives(
                sample_dist, pair.response_text, strategy.neg_per_pos, rng
            )
            examples.extend(
                TrainingExample(context, response_tokens[neg], 0, pair_id) for neg in negatives
            )
    return examples


def make_epoch_resampler(
    pairs: Sequence[ContextResponsePair],
    dist: ResponseDistribution,
    strategy: SamplingStrategy,
    master_seed: int,
    embeddings: "EmbeddingTable | None" = None,
) -> Callable[[int], list[TrainingExample]]:
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

    def resample(epoch: int) -> list[TrainingExample]:
        rng = derive_rng(master_seed, "resample-epoch", epoch)
        return build_training_set(pairs, sample_dist, epoch_strategy, rng)

    return resample


def write_training_set(path, examples: Iterable[TrainingExample]) -> None:
    """Serialize examples as UTF-8 JSON lines (stable key order)."""
    write_artifact(path, (
        json.dumps(
            {
                "context_tokens": list(ex.context_tokens),
                "response_tokens": list(ex.response_tokens),
                "label": ex.label,
                "source_pair_id": ex.source_pair_id,
            },
            ensure_ascii=False,
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
        for ex in examples
    ))
