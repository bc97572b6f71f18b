"""Brute-force nearest-context oracle for checking ``query_nearest``."""

from __future__ import annotations

import numpy as np

from dialret.encoder import encode, truncate_context

SCORE_TOLERANCE = 1e-12


def oracle_top_k(index, model, context_tokens, k: int) -> list[tuple[int, float]]:
    """(pair id, cosine) of the k best rows, ties to the smaller pair id.

    Scores every stored row against the normalized query with an einsum
    (not the library's reduction) and orders candidates by an explicit
    (-score, pair id) key rather than by row position.
    """
    query = encode(model.context_encoder, model.embeddings, truncate_context(context_tokens))
    norm = np.linalg.norm(query)
    if norm > 1e-12:
        query = query / norm
    scores = np.einsum("ij,j->i", index.vectors, query)
    k = min(k, len(scores))
    kth = np.partition(scores, len(scores) - k)[len(scores) - k]
    rows = np.flatnonzero(scores >= kth)
    rows = rows[np.lexsort((index.pair_ids[rows], -scores[rows]))][:k]
    return [(int(index.pair_ids[r]), float(scores[r])) for r in rows]


def hits_match(hits, expected: list[tuple[int, float]]) -> bool:
    """Same pair ids in the same order, and scores equal to within 1e-12."""
    return [h.pair_id for h in hits] == [p for p, _ in expected] and all(
        abs(h.score - s) <= SCORE_TOLERANCE for h, (_, s) in zip(hits, expected)
    )
