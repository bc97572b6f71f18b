"""Dual encoder: embeddings, sequence encoders, bilinear scorer, training.

Everything is plain float64 numpy with hand-derived gradients; there is
no autodiff framework underneath. The pairwise probability of a context c
and response r is

    p = sigmoid(enc(c)^T  B  enc(r))

with B a square interaction matrix and enc one of the ``ENCODERS``, each
a params class that owns its kernels, ``forward`` and ``backward``:

``gru``
    update gate   z_t = sigmoid(Wz e_t + Uz h_{t-1} + bz)
    reset gate    r_t = sigmoid(Wr e_t + Ur h_{t-1} + br)
    candidate     g_t = tanh(Wh e_t + Uh (r_t * h_{t-1}) + bh)
    state         h_t = (1 - z_t) * h_{t-1} + z_t * g_t,   h_0 = 0
    output: final state h_T.

``attention``
    scores    s_t = v^T tanh(W e_t)
    weights   a   = softmax(s)
    output    sum_t a_t e_t   (a convex combination of the embeddings).

Training is mini-batch SGD with a fixed learning rate and global-norm
gradient clipping; the loss is mean binary cross-entropy on the sigmoid
output. Gradients flow through the interaction matrix, both encoders
(backpropagation through time for the GRU), and optionally the embedding
rows. The test suite checks every analytic gradient against central
finite differences.

GRU kernels. The weights have one layout, fused with gate rows in z, r,
h order: W = [Wz; Wr; Wh] (3H x D), U = [Uz; Ur; Uh] (3H x H), b (3H);
checkpoints store them as they are, under the names w, u and b. The
input projections W e_t + b do not depend on the state, so the forward
pass computes them for every step in one matmul before the recurrence,
which then only multiplies by Uz and Ur (one batched matmul) and by Uh.
Padded steps get z = 0 through a -inf update pre-activation, which
carries the state through them exactly, so neither pass masks inside its
loop. The backward pass collects the gradients of the three
pre-activations of every step in one array and forms dW, dU, db and the
input gradient from it with a few matmuls after the loop.

Training cuts each sequence to ``MAX_SEQUENCE_TOKENS`` when it indexes an
example set. Everything else encodes through three methods of
:class:`DualEncoderModel` that make the same cut: ``encode_context`` (one
context), ``encode_contexts`` and ``encode_responses`` (batches).

Training indexes each example set once: each context and each distinct
response becomes one row of an OOV-padded token-index matrix with its
length, and each batch gathers its examples' rows, trimmed to its longest
sequence. Batches are bucketed to cut GRU steps: shuffle, sort each chunk
of ``BUCKET_BATCHES`` batches by context length, cut the batches, shuffle
their order. Inference (:func:`encode_batch`) runs the forward pass in
blocks of ``ENCODE_BLOCK_ROWS`` rows of similar length and keeps no
per-step cache, so its memory is bounded by one block whatever the number
of sequences.
"""

from __future__ import annotations

import ctypes
import logging
import os
import pickle
import select
import signal
from dataclasses import dataclass, fields as dataclass_fields
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from ._container import read_container, write_container
from .corpus import read_text_lines
from .errors import DataError, DialretError, DivergenceError, NonFiniteParameterError
from .sampling import TrainingExample, TrainingSet

logger = logging.getLogger(__name__)

# Sequences longer than this are truncated before encoding: contexts keep
# the most recent tokens, responses the leading ones. Bounds BPTT cost.
MAX_SEQUENCE_TOKENS = 160

_LOG_EPS = 1e-12

_PR_SET_PDEATHSIG = 1  # prctl(2) option: the signal to get when the parent dies


def sigmoid(x):
    """Numerically stable logistic function, exact about 0.5."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def _sigmoid_inplace(a: np.ndarray) -> np.ndarray:
    """:func:`sigmoid` of ``a``, written into ``a`` with the same rounding."""
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5
    return a


def truncate_context(tokens: Sequence[str]) -> Sequence[str]:
    return tokens[-MAX_SEQUENCE_TOKENS:]


def truncate_response(tokens: Sequence[str]) -> Sequence[str]:
    return tokens[:MAX_SEQUENCE_TOKENS]


class EmbeddingTable:
    """Token -> dense vector map with a mean-vector OOV policy.

    The matrix holds one row per vocabulary token plus a final row for
    out-of-vocabulary tokens, set to the arithmetic mean of the in-vocab
    rows at construction time.
    """

    def __init__(self, vocab: dict[str, int], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(vocab):
            raise DataError("vectors must be one row per vocabulary token")
        if not np.all(np.isfinite(vectors)):
            raise DataError("embedding vectors contain non-finite values")
        if sorted(vocab.values()) != list(range(len(vocab))):
            raise DataError("vocab indices must be exactly 0..len(vocab)-1")
        self.vocab = dict(vocab)
        self.matrix = np.vstack([vectors, vectors.mean(axis=0)])

    @classmethod
    def _restore(cls, vocab: dict[str, int], full_matrix: np.ndarray):
        table = cls.__new__(cls)
        table.vocab = dict(vocab)
        table.matrix = np.asarray(full_matrix, dtype=np.float64)
        if table.matrix.shape[0] != len(vocab) + 1:
            raise DataError("restored matrix must have len(vocab)+1 rows")
        return table

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def oov_index(self) -> int:
        return len(self.vocab)

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def indices(self, tokens: Sequence[str]) -> np.ndarray:
        oov = self.oov_index
        return np.fromiter(
            (self.vocab.get(t, oov) for t in tokens), dtype=np.int64, count=len(tokens)
        )

    def tokens_in_index_order(self) -> list[str]:
        ordered = sorted(self.vocab.items(), key=lambda kv: kv[1])
        return [t for t, _ in ordered]


def load_embeddings(source, expected_dim: int | None = None) -> EmbeddingTable:
    """Load the standard text word-vector format.

    First line is ``count dim``; each following line is a token and
    ``dim`` floats, space-separated, and ``count`` is the number of those
    lines (blank lines aside). Duplicate tokens keep the first occurrence
    (a warning is logged). ``source`` may be a path or an iterable of lines.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return load_embeddings(read_text_lines(source, "embedding file"), expected_dim)
    lines = iter(source)
    try:
        header = next(lines)
    except StopIteration:
        raise DataError("embedding file is empty")
    parts = header.split()
    # Quoted cut short: a count may run to thousands of digits.
    shown = header.strip()
    shown = repr(shown[:40]) + ("..." if len(shown) > 40 else "")
    if len(parts) != 2:
        raise DataError(f"bad embedding header {shown}; expected 'count dim'")
    try:
        declared_count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"bad embedding header {shown}; expected 'count dim'")
    if declared_count < 1 or dim < 1:
        raise DataError("embedding header must declare positive count and dim")
    if expected_dim is not None and dim != expected_dim:
        raise DataError(f"embedding dim {dim} does not match expected {expected_dim}")
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    vectors = 0
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        vectors += 1
        fields = line.rstrip("\n").split(" ")
        token = fields[0]
        values = [f for f in fields[1:] if f]
        if len(values) != dim:
            raise DataError(
                f"line {line_no}: vector has {len(values)} components, expected {dim}"
            )
        try:
            row = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise DataError(f"line {line_no}: non-numeric vector component")
        if token in vocab:
            logger.warning("duplicate token %r at line %d; keeping first", token, line_no)
            continue
        vocab[token] = len(rows)
        rows.append(row)
    if vectors != declared_count:
        raise DataError(
            f"embedding header {shown} does not match the {vectors} vectors that follow"
        )
    return EmbeddingTable(vocab, np.vstack(rows))


def random_embeddings(
    vocab_tokens: Iterable[str], dim: int, scale: float, seed: int
) -> EmbeddingTable:
    """I.i.d. uniform[-scale, scale] vectors, deterministic under seed.

    A desk-scale substitute for pretrained vectors; tokens are indexed in
    the order given (duplicates rejected).
    """
    tokens = list(vocab_tokens)
    if not tokens:
        raise DataError("vocabulary is empty")
    vocab = {t: i for i, t in enumerate(tokens)}
    if len(vocab) != len(tokens):
        raise DataError("duplicate tokens in vocabulary")
    if dim < 1:
        raise DataError("dim must be positive")
    if scale < 0:
        raise DataError("scale must be non-negative")
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-scale, scale, size=(len(tokens), dim))
    return EmbeddingTable(vocab, vectors)


def _time_major(embedded: np.ndarray) -> np.ndarray:
    """(B, T, D) inputs as (T * B, D) rows, step by step."""
    return embedded.transpose(1, 0, 2).reshape(-1, embedded.shape[2])


@dataclass
class GruParams:
    """Weights of a single-layer GRU, fused with gate rows in z, r, h order."""

    w: np.ndarray  # (3H, D): Wz, Wr, Wh
    u: np.ndarray  # (3H, H): Uz, Ur, Uh
    b: np.ndarray  # (3H,)

    variant = "gru"

    def __post_init__(self):
        shape = np.shape(self.w)
        if len(shape) != 2 or shape[0] % 3:
            raise DataError(f"GRU tensor w must have shape (3H, D), got {shape}")
        hidden, dim = shape[0] // 3, shape[1]
        for name, expected in (("u", (3 * hidden, hidden)), ("b", (3 * hidden,))):
            got = np.shape(getattr(self, name))
            if got != expected:
                raise DataError(
                    f"GRU tensor {name} must have shape {expected} "
                    f"for hidden {hidden} and input dim {dim}, got {got}"
                )

    @property
    def hidden(self) -> int:
        return self.u.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]

    @property
    def output_dim(self) -> int:
        return self.hidden

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "u": self.u, "b": self.b}

    @classmethod
    def create(cls, input_dim: int, hidden: int, rng: np.random.Generator):
        k = 1.0 / np.sqrt(hidden)
        # Per gate in z, r, h order: its W rows, then its U rows.
        draws = [rng.uniform(-k, k, size=(hidden, n)) for _ in "zrh" for n in (input_dim, hidden)]
        return cls(np.concatenate(draws[0::2]), np.concatenate(draws[1::2]), np.zeros(3 * hidden))

    def forward(self, embedded: np.ndarray, mask: np.ndarray, keep_cache=True):
        """Output for (B, T, D) inputs and the cache :meth:`backward` reads.

        The cache is ``(gates, states)``, both time-major: z, r and the
        candidate of every step in one (T, 3, B, H) array, and the (T + 1, B, H)
        states from h_0 on. With ``keep_cache`` false they hold only the last step.
        """
        batch, steps, _ = embedded.shape
        hidden = self.hidden
        # The input projections of every step, one matmul per gate, laid out
        # (3, T, B, H) so each step's gate blocks are contiguous.
        w = self.w.reshape(3, hidden, -1).transpose(0, 2, 1)
        x = (_time_major(embedded) @ w + self.b.reshape(3, 1, hidden)).reshape(3, steps, batch, hidden)
        # z = 0 at padded steps carries h through them exactly, so neither
        # pass needs the mask inside its loop.
        x[0][~mask.T] = -np.inf
        uzr = np.ascontiguousarray(self.u[: 2 * hidden].reshape(2, hidden, hidden).transpose(0, 2, 1))
        uh = np.ascontiguousarray(self.u[2 * hidden :].T)
        # Without a cache, one gate slot and two alternating state slots suffice.
        gates = np.empty((steps if keep_cache else 1, 3, batch, hidden))
        states = np.zeros((steps + 1 if keep_cache else 2, batch, hidden))
        for t in range(steps):
            h = states[t % len(states)]
            h_next = states[(t + 1) % len(states)]
            step = gates[t % len(gates)]
            zr, g = step[:2], step[2]
            np.matmul(h, uzr, out=zr)
            zr += x[:2, t]
            z, r = _sigmoid_inplace(zr)
            np.matmul(r * h, uh, out=g)
            g += x[2, t]
            np.tanh(g, out=g)
            np.subtract(1.0, z, out=h_next)
            h_next *= h
            h_next += z * g
        return states[steps % len(states)], (gates, states)

    def backward(self, embedded, cache, g_out, input_grads):
        """Parameter gradients and, if ``input_grads``, the input gradient."""
        gates, states = cache
        steps, _, batch, hidden = gates.shape
        z, r, c = gates.transpose(1, 0, 2, 3)
        h_prev = states[:-1]
        # What each pre-activation gradient takes from the gradient of the
        # state a step produces, for every step at once.
        dz_factor = (c - h_prev) * z * (1.0 - z)
        dh_factor = z * (1.0 - c * c)
        dr_factor = h_prev * r * (1.0 - r)
        carry = 1.0 - z
        uz, ur, uh = self.u.reshape(3, hidden, hidden)
        d_pre = np.empty((3, steps, batch, hidden))
        dz, dr, dh = d_pre
        g = g_out
        for t in reversed(range(steps)):
            np.multiply(g, dz_factor[t], out=dz[t])
            np.multiply(g, dh_factor[t], out=dh[t])
            dh_u = dh[t] @ uh
            np.multiply(dh_u, dr_factor[t], out=dr[t])
            g = g * carry[t] + dz[t] @ uz + dr[t] @ ur + dh_u * r[t]
        # Sums over all steps and rows: one matmul per gate.
        rows = d_pre.reshape(3, -1, hidden)
        rows_t = rows.transpose(0, 2, 1)
        grad_u = np.concatenate([
            (rows_t[:2] @ h_prev.reshape(-1, hidden)).reshape(-1, hidden),
            rows_t[2] @ (r * h_prev).reshape(-1, hidden),
        ])
        grads = {
            "w": (rows_t @ _time_major(embedded)).reshape(3 * hidden, -1),
            "u": grad_u,
            "b": rows.sum(axis=1).reshape(-1),
        }
        d_embedded = None
        if input_grads:
            d_rows = (rows @ self.w.reshape(3, hidden, -1)).sum(axis=0)
            d_embedded = d_rows.reshape(steps, batch, -1).transpose(1, 0, 2)
        return grads, d_embedded


@dataclass
class AttentionParams:
    """Additive attention over token embeddings, no recurrence."""

    proj: np.ndarray   # (dim, dim)
    score: np.ndarray  # (dim,)

    variant = "attention"

    def __post_init__(self):
        shape = np.shape(self.proj)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(self.score) != shape[:1]:
            raise DataError(
                f"attention tensors must be proj (D, D) and score (D,), "
                f"got {shape} and {np.shape(self.score)}"
            )

    @property
    def input_dim(self) -> int:
        return self.proj.shape[1]

    @property
    def output_dim(self) -> int:
        return self.proj.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"proj": self.proj, "score": self.score}

    @classmethod
    def create(cls, input_dim: int, rng: np.random.Generator):
        k = 1.0 / np.sqrt(input_dim)
        return cls(
            proj=rng.uniform(-k, k, size=(input_dim, input_dim)),
            score=rng.uniform(-k, k, size=input_dim),
        )

    def forward(self, embedded: np.ndarray, mask: np.ndarray, keep_cache=True):
        hidden = np.tanh(embedded @ self.proj.T)
        scores = hidden @ self.score
        scores = np.where(mask, scores, -np.inf)
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        out = np.einsum("bt,btd->bd", weights, embedded)
        return out, (hidden, weights)

    def backward(self, embedded, cache, g_out, input_grads):
        hidden, weights = cache
        d_weights = np.einsum("bd,btd->bt", g_out, embedded)
        d_scores = weights * (d_weights - (weights * d_weights).sum(axis=1, keepdims=True))
        d_score_vec = np.einsum("bt,btd->d", d_scores, hidden)
        d_hidden = d_scores[..., None] * self.score
        d_pre = d_hidden * (1.0 - hidden * hidden)
        d_proj = np.einsum("btd,bte->de", d_pre, embedded)
        d_embedded = None
        if input_grads:
            d_embedded = weights[..., None] * g_out[:, None, :] + d_pre @ self.proj
        return {"proj": d_proj, "score": d_score_vec}, d_embedded


EncoderParams = GruParams | AttentionParams
ENCODERS = {params.variant: params for params in (GruParams, AttentionParams)}


def _encoder_prefixes(tied: bool) -> tuple[str, ...]:
    """Tensor-name prefixes of the distinct encoders, to zip with (context, response)."""
    return ("encoder.",) if tied else ("context_encoder.", "response_encoder.")


@dataclass
class DualEncoderModel:
    """Embeddings, context/response encoders, and the interaction matrix."""

    embeddings: EmbeddingTable
    context_encoder: EncoderParams
    response_encoder: EncoderParams
    bilinear: np.ndarray
    train_embeddings: bool = False

    def __post_init__(self):
        enc_dim = self.context_encoder.output_dim
        if self.response_encoder.output_dim != enc_dim:
            raise DataError("context and response encoders disagree on output dim")
        for encoder in (self.context_encoder, self.response_encoder):
            if encoder.input_dim != self.embeddings.dim:
                raise DataError(
                    f"encoder input dim {encoder.input_dim} does not match "
                    f"embedding dim {self.embeddings.dim}"
                )
        if self.bilinear.shape != (enc_dim, enc_dim):
            raise DataError(
                f"interaction matrix must be {(enc_dim, enc_dim)}, "
                f"got {self.bilinear.shape}"
            )

    @property
    def tied(self) -> bool:
        return self.context_encoder is self.response_encoder

    @classmethod
    def create(
        cls,
        embeddings: EmbeddingTable,
        variant: str = "gru",
        hidden: int = 128,
        seed: int = 0,
        tied: bool = True,
        train_embeddings: bool = False,
    ) -> "DualEncoderModel":
        rng = np.random.default_rng(seed)
        dim = embeddings.dim
        if variant == "gru":
            context = GruParams.create(dim, hidden, rng)
            response = context if tied else GruParams.create(dim, hidden, rng)
        elif variant == "attention":
            context = AttentionParams.create(dim, rng)
            response = context if tied else AttentionParams.create(dim, rng)
        else:
            raise DataError(f"unknown encoder variant {variant!r}")
        enc_dim = context.output_dim
        k = 1.0 / np.sqrt(enc_dim)
        bilinear = rng.uniform(-k, k, size=(enc_dim, enc_dim))
        return cls(embeddings, context, response, bilinear, train_embeddings)

    def _encoder_tensor_map(self) -> dict[str, np.ndarray]:
        encoders = (self.context_encoder, self.response_encoder)
        return {
            prefix + name: tensor
            for prefix, encoder in zip(_encoder_prefixes(self.tied), encoders)
            for name, tensor in encoder.tensors().items()
        }

    def trainable_tensors(self) -> dict[str, np.ndarray]:
        """Name -> the live arrays; SGD updates them in place."""
        tensors = {"bilinear": self.bilinear}
        tensors.update(self._encoder_tensor_map())
        if self.train_embeddings:
            tensors["embeddings.matrix"] = self.embeddings.matrix
        return tensors

    def all_tensors(self) -> dict[str, np.ndarray]:
        tensors = {"embeddings.matrix": self.embeddings.matrix, "bilinear": self.bilinear}
        tensors.update(self._encoder_tensor_map())
        return tensors

    # The only way from tokens to vectors outside training. Each method cuts
    # its side's sequences to MAX_SEQUENCE_TOKENS; batch rows align with seqs.

    def encode_context(self, tokens: Sequence[str]) -> np.ndarray:
        return encode(self.context_encoder, self.embeddings, truncate_context(tokens))

    def encode_contexts(self, seqs: Sequence[Sequence[str]]) -> np.ndarray:
        cut = [truncate_context(s) for s in seqs]
        return encode_batch(self.context_encoder, self.embeddings, cut)

    def encode_responses(self, seqs: Sequence[Sequence[str]]) -> np.ndarray:
        cut = [truncate_response(s) for s in seqs]
        return encode_batch(self.response_encoder, self.embeddings, cut)


def _check_finite(model: DualEncoderModel) -> None:
    for name, tensor in model.trainable_tensors().items():
        if not np.all(np.isfinite(tensor)):
            raise NonFiniteParameterError(name)


def _pad_batch(
    emb: EmbeddingTable, seqs: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) token indices, OOV-padded to the longest sequence, and the mask."""
    if not seqs:
        raise DataError("empty batch")
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    if lengths.min() == 0:
        raise DataError("cannot encode an empty token sequence")
    mask = np.arange(lengths.max()) < lengths[:, None]
    idx = np.full(mask.shape, emb.oov_index, dtype=np.int64)
    idx[mask] = emb.indices([t for s in seqs for t in s])
    return idx, mask


# Rows per forward pass in encode_batch. A block's inputs and input
# projections, about rows x T x (2D + 3H) floats, are all it holds.
ENCODE_BLOCK_ROWS = 256


def encode_batch(
    params: EncoderParams, emb: EmbeddingTable, seqs: Sequence[Sequence[str]]
) -> np.ndarray:
    """Encode several token sequences at once; rows align with inputs.

    Sequences are encoded in blocks of ``ENCODE_BLOCK_ROWS`` in order of
    length, each block padded to its own longest sequence.
    """
    if not seqs:
        raise DataError("empty batch")
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    order = np.argsort(lengths, kind="stable")
    out = np.empty((len(seqs), params.output_dim))
    for start in range(0, len(order), ENCODE_BLOCK_ROWS):
        rows = order[start : start + ENCODE_BLOCK_ROWS]
        idx, mask = _pad_batch(emb, [seqs[i] for i in rows])
        out[rows] = params.forward(emb.matrix[idx], mask, keep_cache=False)[0]
    return out


def encode(
    params: EncoderParams, emb: EmbeddingTable, tokens: Sequence[str]
) -> np.ndarray:
    """Encode one token sequence to a fixed-size vector."""
    return encode_batch(params, emb, [tokens])[0]


def score_pair(
    model: DualEncoderModel,
    context_tokens: Sequence[str],
    response_tokens: Sequence[str],
) -> float:
    """Pairwise probability sigmoid(enc(context)^T B enc(response))."""
    c = model.encode_context(context_tokens)
    r = model.encode_responses([response_tokens])[0]
    return float(sigmoid(c @ model.bilinear @ r))


class _IndexedExamples:
    """A training set as padded index tables, built once.

    Each context and each distinct response is looked up and padded once;
    a batch gathers its examples' rows from the tables, trimmed to its
    longest sequence, so training never looks a token up again.
    """

    def __init__(self, emb: EmbeddingTable, examples: TrainingSet):
        self.tables = []
        for cut, seqs, rows in (
            (truncate_context, examples.contexts, examples.context_rows),
            (truncate_response, examples.responses, examples.response_rows),
        ):
            idx, mask = _pad_batch(emb, [cut(tokens) for tokens in seqs])
            self.tables.append((idx, mask.sum(axis=1), rows))
        _, lengths, rows = self.tables[0]
        self.context_lengths = lengths[rows]  # per example, for bucketing
        self.labels = examples.labels.astype(np.float64)

    def batch(self, rows: np.ndarray):
        """(context idx, context mask, response idx, response mask, labels)."""
        parts = []
        for idx, lengths, example_rows in self.tables:
            table_rows = example_rows[rows]
            lengths = lengths[table_rows]
            steps = lengths.max()
            parts += [idx[table_rows, :steps], np.arange(steps) < lengths[:, None]]
        return (*parts, self.labels[rows])


def _indexed_loss_and_gradients(model, ctx_idx, ctx_mask, rsp_idx, rsp_mask, labels):
    """Loss and gradients of a batch given as padded index rows and masks."""
    _check_finite(model)
    emb = model.embeddings
    ctx_embedded = emb.matrix[ctx_idx]
    rsp_embedded = emb.matrix[rsp_idx]
    ctx_enc, rsp_enc = model.context_encoder, model.response_encoder
    c, ctx_cache = ctx_enc.forward(ctx_embedded, ctx_mask)
    r, rsp_cache = rsp_enc.forward(rsp_embedded, rsp_mask)
    logits = np.sum((c @ model.bilinear) * r, axis=1)
    p = sigmoid(logits)
    p_safe = np.clip(p, _LOG_EPS, 1.0 - _LOG_EPS)
    loss = float(
        -np.mean(labels * np.log(p_safe) + (1.0 - labels) * np.log(1.0 - p_safe))
    )

    d_logit = (p - labels) / len(labels)
    d_bilinear = c.T @ (r * d_logit[:, None])
    d_c = d_logit[:, None] * (r @ model.bilinear.T)
    d_r = d_logit[:, None] * (c @ model.bilinear)
    input_grads = model.train_embeddings
    ctx_grads, d_ctx_embedded = ctx_enc.backward(ctx_embedded, ctx_cache, d_c, input_grads)
    rsp_grads, d_rsp_embedded = rsp_enc.backward(rsp_embedded, rsp_cache, d_r, input_grads)

    if model.tied:
        ctx_grads = {name: grad + rsp_grads[name] for name, grad in ctx_grads.items()}
    grads: dict[str, np.ndarray] = {"bilinear": d_bilinear}
    for prefix, enc_grads in zip(_encoder_prefixes(model.tied), (ctx_grads, rsp_grads)):
        grads.update((prefix + name, grad) for name, grad in enc_grads.items())
    if input_grads:
        d_matrix = np.zeros_like(emb.matrix)
        np.add.at(d_matrix, ctx_idx, d_ctx_embedded)
        np.add.at(d_matrix, rsp_idx, d_rsp_embedded)
        grads["embeddings.matrix"] = d_matrix
    return loss, grads


def loss_and_gradients(
    model: DualEncoderModel, batch: Sequence[TrainingExample]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean binary cross-entropy and gradients for every trainable tensor.

    Log terms are clamped at 1e-12 from both ends; the gradient uses the
    exact unclamped probabilities. Raises NonFiniteParameterError if any
    parameter tensor has gone non-finite.
    """
    if not batch:
        raise DataError("batch must be non-empty")
    examples = TrainingSet.from_examples(batch)
    return _indexed_loss_and_gradients(model, *_IndexedExamples(model.embeddings, examples).batch(
        np.arange(len(examples))
    ))


@dataclass
class TrainConfig:
    """Hyperparameters for mini-batch SGD.

    ``max_iterations`` defaults to a desk-scale 2000 update steps
    (production-scale training in this family of models runs tens of
    thousands of iterations; nothing in the implementation caps it).
    """

    learning_rate: float = 0.5
    batch_size: int = 32
    max_iterations: int = 2000
    seed: int = 0
    gradient_clip_norm: float = 5.0
    eval_every: int = 100

    def __post_init__(self):
        if self.learning_rate < 0 or not np.isfinite(self.learning_rate):
            raise DataError("learning_rate must be finite and non-negative")
        for name in ("batch_size", "max_iterations", "eval_every"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive")
        if not (self.gradient_clip_norm > 0):
            raise DataError("gradient_clip_norm must be positive")
        if not 0 <= self.seed < 2**64:
            raise DataError("seed must fit in an unsigned 64-bit integer")


@dataclass
class TrainResult:
    model: DualEncoderModel
    loss_trace: list[tuple[int, float]]


# Batches per bucketing chunk: batches cut from a chunk sorted by context
# length run fewer GRU steps, and examples still mix across the chunk.
BUCKET_BATCHES = 50


def _epoch_batches(lengths: np.ndarray, batch_size: int, rng: np.random.Generator):
    """One epoch's batches of example indices, in training order; see :func:`train`."""
    order = rng.permutation(len(lengths))
    chunk = BUCKET_BATCHES * batch_size
    for start in range(0, len(order), chunk):
        part = order[start : start + chunk]
        part[...] = part[np.argsort(lengths[part], kind="stable")]
    batches = [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    return [batches[i] for i in rng.permutation(len(batches))]


def _train_one(
    model: DualEncoderModel,
    examples: TrainingSet,
    config: TrainConfig,
    resampler=None,
) -> TrainResult:
    """The training loop of one job; see :func:`train`."""
    rng = np.random.default_rng(config.seed)
    tensors = model.trainable_tensors()
    trace: list[tuple[int, float]] = []
    iteration = 0
    epoch = 0
    while iteration < config.max_iterations:
        if epoch == 0 or resampler is not None:
            if epoch:
                examples = resampler(epoch)
            if not examples:
                raise DataError(f"training set for epoch {epoch} is empty")
            indexed = _IndexedExamples(model.embeddings, examples)
        for rows in _epoch_batches(indexed.context_lengths, config.batch_size, rng):
            if iteration >= config.max_iterations:
                break
            iteration += 1
            batch = indexed.batch(rows)
            loss, grads = _indexed_loss_and_gradients(model, *batch)
            if not np.isfinite(loss):
                raise DivergenceError(iteration, loss)
            norm = float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
            step = config.learning_rate
            if norm > config.gradient_clip_norm:
                step *= config.gradient_clip_norm / norm
            for name, tensor in tensors.items():
                tensor -= step * grads[name]
            if iteration % config.eval_every == 0 or iteration == config.max_iterations:
                trace.append((iteration, loss))
                logger.debug("iteration %d loss %.6f", iteration, loss)
        epoch += 1
    return TrainResult(model, trace)


def _fork_job(job: tuple) -> tuple[int, BinaryIO]:
    """Fork a child that trains ``job`` and pipes back its trained tensors
    and loss trace, or its exception; return the child's pid and pipe."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    # The child never returns into the caller's frames: it leaves through
    # os._exit, which also skips flushing inherited buffers.
    code = 1
    try:
        os.close(read_fd)
        _die_with_parent(parent)
        try:
            result = _train_one(*job)
            outcome = (result.model.trainable_tensors(), result.loss_trace)
        except Exception as exc:
            outcome = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when its parent dies; exit now if
    ``parent`` is already gone, since the request covers only a live one."""
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)  # fails only for an invalid signal
    if os.getppid() != parent:
        os._exit(1)


def _collect(pid: int, pipe: BinaryIO):
    """What child ``pid`` piped back, its tensors and loss trace or its
    exception, or a DialretError if it died first; reaps the child."""
    try:
        outcome = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        outcome = None
    pipe.close()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if outcome is None:
        outcome = DialretError(f"training process {pid} exited with code {code}")
    return outcome


def _kill(pid: int, pipe: BinaryIO) -> None:
    os.kill(pid, signal.SIGKILL)
    pipe.close()
    os.waitpid(pid, 0)


def train(model, examples, config, resampler=None):
    """SGD with deterministic batch order; mutates the models in place.

    Each epoch shuffles the examples with the config seed's generator,
    stable-sorts each chunk of ``BUCKET_BATCHES`` batches by context length,
    cuts the batches (the last one may be short) and shuffles their order,
    so the order depends on the seed and context lengths only. Epoch 0 trains
    on ``examples``, a :class:`~dialret.sampling.TrainingSet`. ``resampler``,
    if given, is called with the epoch number for epochs 1, 2, ... and must
    return that epoch's TrainingSet; without it every epoch reuses
    ``examples``. Each set's contexts and responses are turned into
    token-index rows once, and batches gather those rows.

    Given one model, trains it in this process and returns its
    TrainResult. Given equal-length lists of models, example sets, configs
    and resamplers, trains each as an independent job and returns one
    TrainResult per job, in order, with the same bits as training each
    alone. Each job trains in its own forked child; up to one child per CPU
    in ``os.sched_getaffinity(0)`` runs at a time, and jobs start in list
    order as children finish. Children are forked, not spawned, so example
    sets and resampler closures are never pickled (and the caller should
    run no other Python threads); each pipes back its trained tensors and
    loss trace, which are copied into the caller's model arrays in place.
    A child is killed when this process dies.

    Raises DataError for an empty set and DivergenceError when the loss
    goes non-finite; with several jobs, the error of the first failing
    job in list order, as training them one after another would. Once a
    job has failed, no later job starts and running later jobs are killed.
    """
    if isinstance(model, DualEncoderModel):
        return _train_one(model, examples, config, resampler)
    jobs = list(zip(model, examples, config, resampler, strict=True))
    slots = len(os.sched_getaffinity(0))
    results: list[TrainResult | None] = [None] * len(jobs)
    started = 0
    running = {}  # pipe -> (job, pid)
    failure = None  # (job, exception) of the first failing job known
    try:
        while True:
            while failure is None and started < len(jobs) and len(running) < slots:
                pid, pipe = _fork_job(jobs[started])
                running[pipe] = (started, pid)
                started += 1
            if not running:
                break
            for pipe in select.select(list(running), [], [])[0]:
                if pipe not in running:
                    continue  # killed for a failure found in this same wake-up
                outcome = _collect(running[pipe][1], pipe)
                i, _ = running.pop(pipe)
                if isinstance(outcome, BaseException):
                    # Every job still running comes before any failure known
                    # so far, so this one is now the first.
                    failure = (i, outcome)
                    for later in [p for p, (j, _) in running.items() if j > i]:
                        _kill(running.pop(later)[1], later)
                else:
                    tensors, trace = outcome
                    for name, tensor in jobs[i][0].trainable_tensors().items():
                        tensor[...] = tensors[name]
                    results[i] = TrainResult(jobs[i][0], trace)
    finally:
        for pipe, (_, pid) in running.items():
            _kill(pid, pipe)
    if failure:
        raise failure[1]
    return results


# Checkpoint: a container (see dialret._container) with magic b"DRCKPT"
# whose sorted-key JSON header adds {"tied", "train_embeddings",
# "variant", "vocab": [token, ...]}; the payload is model.all_tensors()
# under their in-memory names. Every dimension comes from the tensors.
_CKPT_MAGIC = b"DRCKPT"


def save_checkpoint(model: DualEncoderModel, path) -> str:
    """Write ``model`` to ``path``; return the digest that pins the file."""
    header = {
        "tied": model.tied,
        "train_embeddings": model.train_embeddings,
        "variant": model.context_encoder.variant,
        "vocab": model.embeddings.tokens_in_index_order(),
    }
    return write_container(path, _CKPT_MAGIC, header, model.all_tensors())


def _encoder_from_checkpoint(
    header: dict, prefix: str, tensors: dict[str, np.ndarray]
) -> EncoderParams:
    params = ENCODERS.get(header["variant"])
    if params is None:
        raise DataError(
            f"checkpoint variant {header['variant']!r} is not one of {sorted(ENCODERS)}"
        )
    sub = {
        name[len(prefix) :]: tensor
        for name, tensor in tensors.items()
        if name.startswith(prefix)
    }
    names = [f.name for f in dataclass_fields(params)]
    if sorted(sub) != sorted(names):
        raise DataError(f"checkpoint {prefix}* tensors are {sorted(sub)}, expected {names}")
    return params(**sub)


def _model_from_checkpoint(header: dict, tensors: dict[str, np.ndarray]) -> DualEncoderModel:
    vocab = {t: i for i, t in enumerate(header["vocab"])}
    embeddings = EmbeddingTable._restore(vocab, tensors["embeddings.matrix"])
    encoders = [
        _encoder_from_checkpoint(header, prefix, tensors)
        for prefix in _encoder_prefixes(header["tied"])
    ]
    return DualEncoderModel(
        embeddings=embeddings,
        context_encoder=encoders[0],
        response_encoder=encoders[-1],
        bilinear=tensors["bilinear"],
        train_embeddings=bool(header["train_embeddings"]),
    )


def load_checkpoint(path, sha256: str | None = None) -> DualEncoderModel:
    """The model saved at ``path``; DataError if it is malformed or, when
    ``sha256`` is given, if it is not the digest ``save_checkpoint`` returned."""
    return read_container(path, _CKPT_MAGIC, "checkpoint", _model_from_checkpoint, sha256)
