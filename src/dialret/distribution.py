"""Empirical response distributions and their transformations.

The probability a response is drawn as a negative sample comes from a
discrete distribution over distinct canonical response strings. Four
transformations of the empirical distribution are supported:

    identity      q(r) = p(r)
    uniform       q(r) = 1 / |support|
    power(d)      q(r) = p(r)^d / sum_s p(s)^d
    kde(h)        q(r) ∝ sum_s p(s) * exp(-||v(r) - v(s)||^2 / (2 h^2))

where v(r) is the unit-normalized mean of the word embeddings of r's
tokens. Raw occurrence counts are carried through every transform
unchanged; the inverse-count pair filter in :mod:`dialret.sampling`
always uses them.

The kde sum is taken over row blocks of at most ``KDE_BLOCK_BYTES`` of
distances, so its memory is O(n) plus one block, not O(n^2). Over 6084
responses ``tracemalloc`` reads a 17 MiB peak, where the dense n×n
temporaries took 848 MiB; ``build-trainset --transform kde:0.4`` over
18 020 distinct responses peaks at 178 MB RSS, where one dense
temporary alone would take 2.6 GB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .corpus import ContextResponsePair, tokenize
from .errors import ConfigError, DataError

if TYPE_CHECKING:
    from .encoder import EmbeddingTable

_PROB_SUM_TOL = 1e-9
# Floor applied before renormalizing a transformed weight vector so that
# extreme degrees cannot underflow an entry to exactly zero.
_PROB_FLOOR = 1e-300
# Bytes of one row block of the kde distance matrix, the one float64
# temporary the kde sum keeps alive, whatever the support size.
KDE_BLOCK_BYTES = 8 << 20


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class ResponseDistribution:
    """Immutable discrete distribution over distinct response strings.

    ``responses`` is a tuple and ``probs`` and ``counts`` are read-only
    arrays aligned with it; they are stored once and handed out without
    copying. Probabilities are strictly positive and sum to 1 within 1e-9.
    An alias sampler is built lazily and cached; it is safe to share
    across threads once built.
    """

    def __init__(self, responses: Sequence[str], probs: Sequence[float], counts=None):
        self.responses: tuple[str, ...] = tuple(responses)
        if not self.responses:
            raise DataError("a response distribution cannot be empty")
        self._index = {r: i for i, r in enumerate(self.responses)}
        if len(self._index) != len(self.responses):
            raise DataError("duplicate responses in distribution")
        n = len(self.responses)
        self.probs = _frozen(probs, np.float64)
        self.counts = _frozen(np.zeros(n) if counts is None else counts, np.int64)
        if self.probs.shape != (n,) or self.counts.shape != (n,):
            raise DataError("need one probability and one count per response")
        if np.any(self.probs <= 0.0):
            raise DataError("all probabilities must be strictly positive")
        if np.any(self.counts < 0):
            raise DataError("counts must be non-negative")
        total = float(self.probs.sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise DataError(f"probabilities sum to {total!r}, not 1")
        self._sampler = None

    def __len__(self) -> int:
        return len(self.responses)

    def __contains__(self, response: str) -> bool:
        return response in self._index

    def index_of(self, response: str) -> int:
        return self._index[response]

    def prob(self, response: str) -> float:
        return float(self.probs[self._index[response]])

    def count(self, response: str) -> int:
        return int(self.counts[self._index[response]])

    def sampler(self):
        """Cached O(1)-per-draw alias sampler over this distribution."""
        if self._sampler is None:
            from .sampling import AliasSampler

            self._sampler = AliasSampler(self.probs)
        return self._sampler

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "ResponseDistribution":
        total = sum(counts.values())
        if total <= 0:
            raise DataError("counts must include at least one occurrence")
        responses = [r for r, c in counts.items() if c > 0]
        return cls(
            responses, [counts[r] / total for r in responses], [counts[r] for r in responses]
        )


def count_responses(pairs: Sequence[ContextResponsePair]) -> ResponseDistribution:
    """Empirical distribution of canonical response strings over pairs."""
    if not pairs:
        raise DataError("cannot build a distribution from zero pairs")
    counts: dict[str, int] = {}
    for pair in pairs:
        counts[pair.response_text] = counts.get(pair.response_text, 0) + 1
    return ResponseDistribution.from_counts(counts)


@dataclass(frozen=True)
class TransformSpec:
    """Which distribution transform to apply, with its parameter.

    ``kind`` is one of ``identity``, ``uniform``, ``power``, ``kde``.
    ``degree`` applies to ``power`` (any finite real); ``bandwidth``
    applies to ``kde`` (positive real; plain ``kde`` takes the default).
    """

    kind: str = "identity"
    degree: float = 1.0
    bandwidth: float = 0.4

    _KINDS = ("identity", "uniform", "power", "kde")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown transform kind {self.kind!r}")
        if not np.isfinite(self.degree):
            raise ConfigError("power degree must be finite")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ConfigError("kde bandwidth must be positive and finite")

    @classmethod
    def identity(cls) -> "TransformSpec":
        return cls("identity")

    @classmethod
    def uniform(cls) -> "TransformSpec":
        return cls("uniform")

    @classmethod
    def power(cls, degree: float) -> "TransformSpec":
        return cls("power", degree=float(degree))

    @classmethod
    def kde_smoothed(cls, bandwidth: float) -> "TransformSpec":
        return cls("kde", bandwidth=float(bandwidth))

    @classmethod
    def parse(cls, text: str) -> "TransformSpec":
        """Parse CLI syntax: identity | uniform | power:D | kde:H."""
        name, colon, arg = text.partition(":")
        name = name.strip().lower()
        if name in ("identity", "uniform"):
            if colon:
                raise ConfigError(f"transform {name!r} takes no parameter, got {text!r}")
            return cls(name)
        try:
            if name == "power":
                return cls.power(float(arg))
            if name == "kde":
                return cls.kde_smoothed(float(arg)) if arg else cls("kde")
        except ValueError:
            raise ConfigError(f"bad transform parameter in {text!r}")
        raise ConfigError(f"unknown transform {text!r}")

    def label(self) -> str:
        """The canonical label, which ``parse`` maps back to this spec."""
        if self.kind not in ("power", "kde"):
            return self.kind
        # Adding 0.0 maps -0.0 to 0.0, so both zeros share one label.
        value = (self.degree if self.kind == "power" else self.bandwidth) + 0.0
        short = f"{value:g}"
        return f"{self.kind}:{short if float(short) == value else repr(value)}"


def transform(
    dist: ResponseDistribution,
    spec: TransformSpec,
    embeddings: "EmbeddingTable | None" = None,
) -> ResponseDistribution:
    """Apply a transform, preserving the support and the raw counts."""
    if spec.kind == "identity":
        return dist
    if spec.kind == "uniform":
        n = len(dist)
        weights = np.full(n, 1.0 / n)
    elif spec.kind == "power":
        # Log-space with max subtraction: exact for degree 0 and 1, no
        # overflow for strongly negative degrees on tiny probabilities.
        log_q = spec.degree * np.log(dist.probs)
        weights = np.exp(log_q - log_q.max())
    elif spec.kind == "kde":
        if embeddings is None:
            raise DataError("kde transform requires an embedding table")
        weights = _kde_weights(dist, spec.bandwidth, embeddings)
    else:  # pragma: no cover - TransformSpec validates kind
        raise ConfigError(f"unknown transform kind {spec.kind!r}")
    weights = np.maximum(weights, _PROB_FLOOR)
    probs = weights / weights.sum()
    return ResponseDistribution(dist.responses, probs, dist.counts)


def response_vectors(
    responses: Sequence[str], embeddings: "EmbeddingTable"
) -> np.ndarray:
    """Unit-normalized mean word-embedding vector for each response string.

    Responses whose mean embedding has zero norm are left as zero vectors.
    """
    vectors = np.zeros((len(responses), embeddings.dim))
    for i, response in enumerate(responses):
        tokens = tokenize(response)
        if not tokens:
            continue
        mean = np.mean(embeddings.matrix[embeddings.indices(tokens)], axis=0)
        norm = np.linalg.norm(mean)
        vectors[i] = mean / norm if norm > 0 else mean
    return vectors


def _kde_weights(
    dist: ResponseDistribution, bandwidth: float, embeddings: "EmbeddingTable"
) -> np.ndarray:
    """Kernel-smoothed weights, ``KDE_BLOCK_BYTES`` of distances at a time.

    Each block of rows holds its squared distances to the whole support,
    turned into kernel values in place, so the working set is O(n) plus
    one block. The in-place steps round exactly as the dense expression
    ``exp(-(|a|^2 - 2 v @ v.T + |b|^2) / (2 h^2))`` does, so a support
    that fits in one block gives it bit for bit; on wider ones BLAS may
    round a block's product differently in the last ulp.
    """
    v = response_vectors(dist.responses, embeddings)
    sq_norms = np.sum(v * v, axis=1)
    rows = max(1, KDE_BLOCK_BYTES // (8 * len(v)))
    weights = np.empty(len(v))
    for start in range(0, len(v), rows):
        block = slice(start, start + rows)
        kernel = v[block] @ v.T
        kernel *= -2.0
        kernel += sq_norms[block, None]
        kernel += sq_norms[None, :]
        np.maximum(kernel, 0.0, out=kernel)
        kernel /= -(2.0 * bandwidth**2)
        np.exp(kernel, out=kernel)
        weights[block] = kernel @ dist.probs
    return weights


@dataclass(frozen=True)
class ReportRow:
    rank: int
    response: str
    count: int
    prob: float


def distribution_report(dist: ResponseDistribution) -> list[ReportRow]:
    """Rank/frequency table sorted by descending probability.

    Ties are broken by descending count, then lexicographic response, so
    the report is a pure function of the distribution.
    """
    entries = zip(dist.probs.tolist(), dist.counts.tolist(), dist.responses)
    order = sorted(entries, key=lambda e: (-e[0], -e[1], e[2]))
    return [
        ReportRow(rank, response, count, prob)
        for rank, (prob, count, response) in enumerate(order, start=1)
    ]


def format_report(rows: Sequence[ReportRow]) -> str:
    """Serialize report rows as ``rank<TAB>count<TAB>prob<TAB>response`` lines."""
    lines = [f"{r.rank}\t{r.count}\t{r.prob!r}\t{r.response}" for r in rows]
    return "\n".join(lines) + "\n"
