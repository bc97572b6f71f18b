"""Nearest-context retrieval over stored history vectors.

Each training pair is indexed by a history vector: the encoded context
plus ``response_weight`` times the encoded response, unit-normalized
after the addition. Queries encode the incoming context, normalize, and
rank every row by dot product, which equals cosine because the rows are
unit vectors. The scan is exact; no approximate index structures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._container import read_container, write_container
from .corpus import ContextResponsePair
from .encoder import DualEncoderModel
from .errors import DataError

# Cosine weight of the response encoding inside a history vector; this
# value performed best in the experiments this library reproduces.
DEFAULT_RESPONSE_WEIGHT = 0.4

_NORM_EPS = 1e-12


@dataclass(frozen=True)
class QueryHit:
    pair_id: int
    response_text: str
    score: float


class HistoryIndex:
    """Immutable store of unit-norm history vectors, ordered by pair id."""

    def __init__(
        self,
        response_weight: float,
        pair_ids: Sequence[int],
        vectors: np.ndarray,
        responses: Sequence[str],
        model: DualEncoderModel | None = None,
        checkpoint_ref: str | None = None,
        checkpoint_sha256: str | None = None,
    ):
        self.response_weight = float(response_weight)
        self.pair_ids = np.asarray(pair_ids, dtype=np.int64)
        # A read-only copy, so the checks below hold for the index's lifetime.
        self.vectors = np.array(vectors, dtype=np.float64)
        self.vectors.flags.writeable = False
        self.responses = list(responses)
        self.model = model
        self.checkpoint_ref = checkpoint_ref
        self.checkpoint_sha256 = checkpoint_sha256
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.pair_ids):
            raise DataError("one vector row per pair id required")
        if len(self.responses) != len(self.pair_ids):
            raise DataError("one response per pair id required")
        if np.any(np.diff(self.pair_ids) <= 0):
            raise DataError("pair ids must be unique and rows sorted by ascending pair id")
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("stored vectors must be finite")
        norms = np.linalg.norm(self.vectors, axis=1)
        if self.vectors.size and np.max(np.abs(norms - 1.0)) > 1e-9:
            raise DataError("stored vectors must have unit norm")

    def __len__(self) -> int:
        return len(self.pair_ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def _require_model(self) -> DualEncoderModel:
        if self.model is None:
            raise DataError(
                "index has no attached encoder; load it with its checkpoint"
            )
        return self.model


def history_rows(
    contexts: np.ndarray, responses: np.ndarray, response_weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``normalize(context + response_weight * response)`` and the norms
    they were divided by; a row whose sum is zero stays zero."""
    rows = contexts + response_weight * responses
    norms = np.linalg.norm(rows, axis=1)
    rows /= np.maximum(norms, 1e-300)[:, None]
    return rows, norms


def build_history_index(
    model: DualEncoderModel,
    pairs: Sequence[ContextResponsePair],
    response_weight: float = DEFAULT_RESPONSE_WEIGHT,
    checkpoint_ref: str | None = None,
    checkpoint_sha256: str | None = None,
) -> HistoryIndex:
    """Encode every pair and store normalized context + w * response rows."""
    if not pairs:
        raise DataError("cannot build an index from zero pairs")
    ordered = sorted(pairs, key=lambda p: p.pair_id)
    history, norms = history_rows(
        model.encode_contexts([p.context_tokens for p in ordered]),
        model.encode_responses([p.response_tokens for p in ordered]),
        response_weight,
    )
    bad = np.flatnonzero(norms <= _NORM_EPS)
    if bad.size:
        raise DataError(
            f"history vector for pair {ordered[bad[0]].pair_id} has zero norm"
        )
    return HistoryIndex(
        response_weight=response_weight,
        pair_ids=[p.pair_id for p in ordered],
        vectors=history,
        responses=[p.response_text for p in ordered],
        model=model,
        checkpoint_ref=checkpoint_ref,
        checkpoint_sha256=checkpoint_sha256,
    )


def _top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` highest scores, ties to the lower position.

    Equal to ``np.argsort(-scores, kind="stable")[:k]`` without sorting
    every score: partition to the k-th largest score, keep every row
    scoring at least that much, and sort only those by (-score,
    position). Scores must be free of NaN.
    """
    n = len(scores)
    k = min(k, n)
    kth = np.partition(scores, n - k)[n - k]
    rows = np.flatnonzero(scores >= kth)
    return rows[np.lexsort((rows, -scores[rows]))][:k]


def query_nearest(
    index: HistoryIndex, context_tokens: Sequence[str], top_k: int
) -> list[QueryHit]:
    """Top-k rows by cosine, ties broken by ascending pair id.

    An exact scan: every stored row is scored against the normalized
    query, and the top k are picked by partition rather than a full sort.
    ``top_k`` above the index size returns every row.
    """
    if top_k < 1:
        raise DataError("top_k must be at least 1")
    if len(index) == 0:
        raise DataError("index is empty")
    query = index._require_model().encode_context(context_tokens)
    # The 1-D norm is a BLAS dot product, which can round differently from
    # history_rows' row-wise norm, so the query keeps its own.
    norm = np.linalg.norm(query)
    if norm > _NORM_EPS:
        query = query / norm
    # einsum without optimize is numpy's own loop, one dot product per
    # row, not a BLAS matvec: every row is reduced by the same code over
    # the same number of elements, so bitwise-identical rows get
    # bitwise-identical scores, which the exact tie rule needs. Blocked
    # BLAS kernels can round identical rows differently.
    scores = np.einsum("ij,j->i", index.vectors, query)
    # Rows are stored in ascending pair-id order, so the row position is
    # the tie key.
    return [
        QueryHit(int(index.pair_ids[i]), index.responses[i], float(scores[i]))
        for i in _top_k_rows(scores, top_k)
    ]


# History index: a container (see dialret._container) with magic
# b"DRHIDX" whose sorted-key JSON header adds {"checkpoint_ref",
# "checkpoint_sha256", "pair_ids", "response_weight", "responses"}; the
# payload is one tensor, "vectors", with a row per pair id.
# "checkpoint_sha256" is the digest save_checkpoint returned for the checkpoint.
_IDX_MAGIC = b"DRHIDX"


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_index(index: HistoryIndex, path) -> str:
    header = {
        "checkpoint_ref": index.checkpoint_ref,
        "checkpoint_sha256": index.checkpoint_sha256,
        "pair_ids": [int(i) for i in index.pair_ids],
        "response_weight": index.response_weight,
        "responses": index.responses,
    }
    return write_container(path, _IDX_MAGIC, header, {"vectors": index.vectors})


def load_index(path, model: DualEncoderModel | None = None) -> HistoryIndex:
    def build(header: dict, tensors: dict[str, np.ndarray]) -> HistoryIndex:
        return HistoryIndex(
            response_weight=header["response_weight"],
            pair_ids=header["pair_ids"],
            vectors=tensors["vectors"],
            responses=header["responses"],
            model=model,
            checkpoint_ref=header["checkpoint_ref"],
            checkpoint_sha256=header["checkpoint_sha256"],
        )

    return read_container(path, _IDX_MAGIC, "history index", build)
