"""Nearest-context retrieval over stored history vectors.

Each training pair is indexed by a history vector: the encoded context
plus ``response_weight`` times the encoded response, unit-normalized
after the addition. Queries encode the incoming context, normalize, and
rank every row by dot product, which equals cosine because the rows are
unit vectors. The scan is exact: a float32 screen, built on an index's
first query, drops only rows that provably cannot be in the top k, and
the rest are rescored in float64. No approximate index structures.
"""

from __future__ import annotations

import functools
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
        *, _copy: bool = True,
    ):
        self.response_weight = float(response_weight)
        self.pair_ids = np.asarray(pair_ids, dtype=np.int64)
        # Read-only (a copy, unless the caller gives the array up), so the
        # checks below hold for the index's lifetime.
        self.vectors = (np.array if _copy else np.asarray)(vectors, dtype=np.float64)
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

    @functools.cached_property
    def _screen(self) -> np.ndarray:
        """The rows as a read-only C-contiguous (dim, len) float32 array."""
        screen = np.ascontiguousarray(self.vectors.T, dtype=np.float32)
        screen.flags.writeable = False
        return screen

    def _require_model(self) -> DualEncoderModel:
        if self.model is None:
            raise DataError(
                "index has no attached encoder; load it with its checkpoint"
            )
        return self.model


def history_rows(
    contexts: np.ndarray, responses: np.ndarray, response_weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``normalize(context + response_weight * response)``, computed in
    ``contexts``, and the norms divided out; a zero row stays zero."""
    contexts += response_weight * responses
    norms = np.linalg.norm(contexts, axis=1)
    contexts /= np.maximum(norms, 1e-300)[:, None]
    return contexts, norms


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
        _copy=False,
    )


def _top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` highest scores, ties to the lower position.

    Equal to ``np.argsort(-scores, kind="stable")[:k]`` without sorting
    every score: partition to the k-th largest score, keep every row
    scoring at least that much, and sort only those by (-score,
    position). Scores must be free of NaN.
    """
    k = min(k, len(scores))
    rows = np.flatnonzero(scores >= np.partition(scores, -k)[-k])
    return rows[np.lexsort((rows, -scores[rows]))][:k]


def query_nearest(
    index: HistoryIndex, context_tokens: Sequence[str], top_k: int
) -> list[QueryHit]:
    """Top-k rows by cosine, ties broken by ascending pair id.

    A float32 screen (``index._screen``, half the bytes) scores every row;
    only rows that can still be in the top k are rescored in float64.
    ``top_k`` above the index size returns every row.

    No hit is lost: rows and query have norm at most 1 + 1e-9, so a row's
    screen value is within (dim + 2) * 2**-24 * (1 + tiny) of its exact
    cosine (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1;
    underflow adds under dim * 2**-148) and its float64 score within
    dim * 2**-53. ``slack`` = 2 * (dim + 2) * 2**-23 covers both 4x over,
    rounding the threshold included. So kth32, the k-th best screen value,
    is within slack of the k-th best float64 score t64, and every row
    scoring at least t64 clears ``kth32 - 2 * slack``: it is rescored and
    ranked as a full scan would rank it, bitwise.
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
    screen = query.astype(np.float32) @ index._screen
    k = min(top_k, len(index))
    slack = 2 * (index.dim + 2) * np.finfo(np.float32).eps
    rows = np.flatnonzero(screen >= np.partition(screen, -k)[-k] - 2 * slack)
    # einsum without optimize is numpy's own loop, one dot product per
    # row, not a BLAS matvec: each row is reduced by the same code however
    # many rows are passed, so survivors keep their full-scan scores and
    # identical rows tie bitwise, as the exact tie rule needs. Blocked
    # BLAS kernels can round identical rows differently.
    scores = np.einsum("ij,j->i", index.vectors[rows], query)
    # Rows are stored in ascending pair-id order and ``rows`` ascends, so
    # the position is the tie key.
    top = _top_k_rows(scores, top_k)
    return [
        QueryHit(int(index.pair_ids[i]), index.responses[i], float(score))
        for i, score in zip(rows[top], scores[top])
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
            _copy=False,
        )

    return read_container(path, _IDX_MAGIC, "history index", build)
