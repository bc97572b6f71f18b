"""Synthetic dialogue corpora for experiments and acceptance checks.

The real support-chat data this library was designed around is
proprietary, so experiments run on generated stand-ins: contexts predict
responses through shared topic keywords, and response frequencies follow
a heavy-tailed (Zipf) law over topics. Each topic has one reply, which
only its question leads to, so even the most frequent replies are
informative: there are no generic replies such as greetings.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import EOU_TOKEN, Dialogue, Speaker, Turn, tokenize
from .errors import DataError


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalized weights proportional to 1/rank^exponent."""
    if n < 1:
        raise DataError("need at least one rank")
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    if not np.all(np.isfinite(weights)):
        raise DataError(f"Zipf exponent {exponent} over {n} ranks overflows float64")
    return weights / weights.sum()


def make_synthetic_corpus(
    num_dialogues: int,
    distinct_responses: int,
    vocab_size: int,
    zipf_exponent: float,
    seed: int,
) -> list[Dialogue]:
    """Generate user/operator dialogues with Zipf-skewed topics.

    Each dialogue is 1..3 question/answer rounds (uniform, so 4 turns on
    average). A round picks a topic from a Zipf(exponent) law over
    ``distinct_responses`` topics; the user turn contains the topic's
    question keyword plus two filler words, and the operator answers with
    the topic's fixed two-token response. Token budget: one question and
    one answer keyword per topic, a shared closer, and the rest of
    ``vocab_size`` as filler.
    """
    if num_dialogues < 1:
        raise DataError("num_dialogues must be positive")
    if distinct_responses < 2:
        raise DataError("need at least 2 distinct responses")
    filler_count = vocab_size - 2 * distinct_responses - 1
    if filler_count < 4:
        raise DataError(
            f"vocab_size {vocab_size} too small for {distinct_responses} topics; "
            f"need at least {2 * distinct_responses + 5}"
        )
    rng = np.random.default_rng(seed)
    weights = zipf_weights(distinct_responses, zipf_exponent)
    responses = [f"fact{t} ok" for t in range(distinct_responses)]
    dialogues = []
    for d in range(num_dialogues):
        rounds = int(rng.integers(1, 4))
        topics = rng.choice(distinct_responses, size=rounds, p=weights)
        turns = []
        for topic in topics:
            fillers = rng.integers(0, filler_count, size=2)
            question = f"ask{topic} word{fillers[0]} word{fillers[1]}"
            turns.append(Turn(Speaker.USER, question))
            turns.append(Turn(Speaker.OPERATOR, responses[topic]))
        dialogues.append(Dialogue(f"synth-{d:06d}", tuple(turns)))
    return dialogues


def make_separable_corpus(num_pairs: int, seed: int = 0) -> list[Dialogue]:
    """One dialogue per topic: every context has a unique correct response.

    Question and answer share the topic keyword (as real support chats
    do), placed late in the question where a recurrent encoder keeps it
    most visible. Useful as a trainable sanity corpus where a working
    model should reach near-perfect recall.
    """
    if num_pairs < 2:
        raise DataError("need at least 2 pairs")
    rng = np.random.default_rng(seed)
    dialogues = []
    for t in range(num_pairs):
        filler = int(rng.integers(0, 16))
        turns = (
            Turn(Speaker.USER, f"word{filler} ask{t} topic{t}"),
            Turn(Speaker.OPERATOR, f"topic{t} ok"),
        )
        dialogues.append(Dialogue(f"sep-{t:04d}", turns))
    return dialogues


def corpus_vocabulary(dialogues: Sequence[Dialogue], pad_to: int = 0) -> list[str]:
    """Sorted token vocabulary of a corpus, including the turn separator.

    ``pad_to`` appends unused spare tokens up to the requested size, for
    experiments that fix the vocabulary size.
    """
    tokens = {EOU_TOKEN}
    for d in dialogues:
        for turn in d.turns:
            tokens.update(tokenize(turn.text))
    ordered = sorted(tokens)
    spare = 0
    while len(ordered) < pad_to:
        candidate = f"spare{spare}"
        if candidate not in tokens:
            ordered.append(candidate)
        spare += 1
    return ordered
