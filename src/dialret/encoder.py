"""Dual encoder: embeddings, sequence encoders, bilinear scorer, training.

Everything is plain float64 numpy with hand-derived gradients; there is
no autodiff framework underneath. The pairwise probability of a context c
and response r is

    p = sigmoid(enc(c)^T  B  enc(r))

with B a square interaction matrix and enc one of two encoders:

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

Training indexes each example set once: contexts and responses become
OOV-padded token-index matrices with a length per row, and each batch is
a slice of them, trimmed to its longest sequence. Inference
(:func:`encode_batch`) runs the forward pass in blocks of
``ENCODE_BLOCK_ROWS`` rows of similar length and keeps no per-step cache,
so its memory is bounded by one block whatever the number of sequences.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ._container import read_container, write_container
from .corpus import read_text_lines
from .errors import DataError, DialretError, DivergenceError, NonFiniteParameterError

if TYPE_CHECKING:
    from .sampling import TrainingExample

logger = logging.getLogger(__name__)

# Sequences longer than this are truncated before encoding: contexts keep
# the most recent tokens, responses the leading ones. Bounds BPTT cost.
MAX_SEQUENCE_TOKENS = 160

_LOG_EPS = 1e-12


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
    ``dim`` floats, space-separated. Duplicate tokens keep the first
    occurrence (a warning is logged). ``source`` may be a path or an
    iterable of lines.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return load_embeddings(read_text_lines(source, "embedding file"), expected_dim)
    lines = iter(source)
    try:
        header = next(lines)
    except StopIteration:
        raise DataError("embedding file is empty")
    parts = header.split()
    if len(parts) != 2:
        raise DataError(f"bad embedding header {header.strip()!r}; expected 'count dim'")
    try:
        declared_count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"bad embedding header {header.strip()!r}; expected 'count dim'")
    if declared_count < 1 or dim < 1:
        raise DataError("embedding header must declare positive count and dim")
    if expected_dim is not None and dim != expected_dim:
        raise DataError(f"embedding dim {dim} does not match expected {expected_dim}")
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
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
    if not rows:
        raise DataError("embedding file declares no vectors")
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


EncoderParams = GruParams | AttentionParams


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


def _time_major(embedded: np.ndarray) -> np.ndarray:
    """(B, T, D) inputs as (T * B, D) rows, step by step."""
    return embedded.transpose(1, 0, 2).reshape(-1, embedded.shape[2])


def _gru_forward(p: GruParams, embedded: np.ndarray, mask: np.ndarray, keep_cache=True):
    batch, steps, _ = embedded.shape
    hidden = p.hidden
    # The input projections of every step, one matmul per gate, laid out
    # (3, T, B, H) so each step's gate blocks are contiguous.
    w = p.w.reshape(3, hidden, -1).transpose(0, 2, 1)
    x = (_time_major(embedded) @ w + p.b.reshape(3, 1, hidden)).reshape(3, steps, batch, hidden)
    # z = 0 at padded steps carries h through them exactly, so neither
    # pass needs the mask inside its loop.
    x[0][~mask.T] = -np.inf
    uzr = np.ascontiguousarray(p.u[: 2 * hidden].reshape(2, hidden, hidden).transpose(0, 2, 1))
    uh = np.ascontiguousarray(p.u[2 * hidden :].T)
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


def _gru_backward(p: GruParams, embedded, cache, g_out, input_grads):
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
    uz, ur, uh = p.u.reshape(3, hidden, hidden)
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
        d_rows = (rows @ p.w.reshape(3, hidden, -1)).sum(axis=0)
        d_embedded = d_rows.reshape(steps, batch, -1).transpose(1, 0, 2)
    return grads, d_embedded


def _attn_forward(p: AttentionParams, embedded: np.ndarray, mask: np.ndarray):
    hidden = np.tanh(embedded @ p.proj.T)
    scores = hidden @ p.score
    scores = np.where(mask, scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    out = np.einsum("bt,btd->bd", weights, embedded)
    return out, (hidden, weights)


def _attn_backward(p: AttentionParams, embedded, cache, g_out, input_grads):
    hidden, weights = cache
    d_weights = np.einsum("bd,btd->bt", g_out, embedded)
    d_scores = weights * (d_weights - (weights * d_weights).sum(axis=1, keepdims=True))
    d_score_vec = np.einsum("bt,btd->d", d_scores, hidden)
    d_hidden = d_scores[..., None] * p.score
    d_pre = d_hidden * (1.0 - hidden * hidden)
    d_proj = np.einsum("btd,bte->de", d_pre, embedded)
    d_embedded = None
    if input_grads:
        d_embedded = weights[..., None] * g_out[:, None, :] + d_pre @ p.proj
    return {"proj": d_proj, "score": d_score_vec}, d_embedded


def _forward(params: EncoderParams, embedded, mask, keep_cache=True):
    """Encoder output for (B, T, D) inputs and the cache :func:`_backward` reads.

    The GRU cache is ``(gates, states)``, both time-major: z, r and the
    candidate of every step in one (T, 3, B, H) array, and the (T + 1, B, H)
    states from h_0 on. With ``keep_cache`` false they hold only the last step.
    """
    if isinstance(params, GruParams):
        return _gru_forward(params, embedded, mask, keep_cache)
    return _attn_forward(params, embedded, mask)


def _backward(params: EncoderParams, embedded, cache, g_out, input_grads):
    """Parameter gradients and, if ``input_grads``, the input gradient."""
    if isinstance(params, GruParams):
        return _gru_backward(params, embedded, cache, g_out, input_grads)
    return _attn_backward(params, embedded, cache, g_out, input_grads)


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
        out[rows] = _forward(params, emb.matrix[idx], mask, keep_cache=False)[0]
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
    """A training set as padded index rows and lengths, built once.

    Each batch slices the rows it needs, trimmed to its longest sequence,
    so training never looks a token up again.
    """

    def __init__(self, emb: EmbeddingTable, examples: "Sequence[TrainingExample]"):
        self.context = self._rows(emb, [truncate_context(ex.context_tokens) for ex in examples])
        self.response = self._rows(
            emb, [truncate_response(ex.response_tokens) for ex in examples]
        )
        self.labels = np.array([ex.label for ex in examples], dtype=np.float64)

    @staticmethod
    def _rows(emb, seqs):
        idx, mask = _pad_batch(emb, seqs)
        return idx, mask.sum(axis=1)

    def batch(self, rows: np.ndarray):
        """(context idx, context mask, response idx, response mask, labels)."""
        parts = []
        for idx, lengths in (self.context, self.response):
            lengths = lengths[rows]
            steps = lengths.max()
            parts += [idx[rows, :steps], np.arange(steps) < lengths[:, None]]
        return (*parts, self.labels[rows])


def _indexed_loss_and_gradients(model, ctx_idx, ctx_mask, rsp_idx, rsp_mask, labels):
    """Loss and gradients of a batch given as padded index rows and masks."""
    _check_finite(model)
    emb = model.embeddings
    ctx_embedded = emb.matrix[ctx_idx]
    rsp_embedded = emb.matrix[rsp_idx]
    c, ctx_cache = _forward(model.context_encoder, ctx_embedded, ctx_mask)
    r, rsp_cache = _forward(model.response_encoder, rsp_embedded, rsp_mask)
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
    ctx_grads, d_ctx_embedded = _backward(
        model.context_encoder, ctx_embedded, ctx_cache, d_c, input_grads
    )
    rsp_grads, d_rsp_embedded = _backward(
        model.response_encoder, rsp_embedded, rsp_cache, d_r, input_grads
    )

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
    model: DualEncoderModel, batch: "Sequence[TrainingExample]"
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean binary cross-entropy and gradients for every trainable tensor.

    Log terms are clamped at 1e-12 from both ends; the gradient uses the
    exact unclamped probabilities. Raises NonFiniteParameterError if any
    parameter tensor has gone non-finite.
    """
    if not batch:
        raise DataError("batch must be non-empty")
    return _indexed_loss_and_gradients(model, *_IndexedExamples(model.embeddings, batch).batch(
        np.arange(len(batch))
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


def _train_one(
    model: DualEncoderModel,
    examples: "Sequence[TrainingExample]",
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
        order = rng.permutation(len(examples))
        for start in range(0, len(order), config.batch_size):
            if iteration >= config.max_iterations:
                break
            iteration += 1
            batch = indexed.batch(order[start : start + config.batch_size])
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


def _train_in_order(jobs: list[tuple], indices: Sequence[int]):
    """Train ``jobs[i]`` for each ``i`` in turn, stopping at the first failure.

    Returns ({i: TrainResult}, (i, exception) or None).
    """
    done = {}
    for i in indices:
        try:
            done[i] = _train_one(*jobs[i])
        except Exception as exc:
            return done, (i, exc)
    return done, None


class _Worker:
    """A forked child that trains ``indices`` of the jobs and pipes back
    each trained job's tensors and loss trace, then the failure if any."""

    def __init__(self, jobs: list[tuple], indices: Sequence[int]):
        self.indices = indices
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            self._run(jobs, write_fd)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")

    def _run(self, jobs, write_fd) -> None:
        # The child never returns into the caller's frames: it leaves
        # through os._exit, which also skips flushing inherited buffers.
        code = 1
        try:
            done, failure = _train_in_order(jobs, self.indices)
            trained = {
                i: (result.model.trainable_tensors(), result.loss_trace)
                for i, result in done.items()
            }
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump((trained, failure), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)

    def collect(self, jobs: list[tuple]):
        """The worker's results, written into the parent's models, and its failure."""
        try:
            trained, failure = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            trained, failure = {}, None
        self.reap()
        if failure is None and len(trained) < len(self.indices):
            code = os.waitstatus_to_exitcode(self.status)
            raise DialretError(f"training worker {self.pid} exited with code {code}")
        done = {}
        for i, (tensors, trace) in trained.items():
            model = jobs[i][0]
            for name, tensor in model.trainable_tensors().items():
                tensor[...] = tensors[name]
            done[i] = TrainResult(model, trace)
        return done, failure

    def reap(self, terminate: bool = False) -> None:
        if self.pipe.closed:
            return
        if terminate:
            os.kill(self.pid, signal.SIGTERM)
        self.pipe.close()
        _, self.status = os.waitpid(self.pid, 0)


def train(model, examples, config, resampler=None):
    """SGD with deterministic batch order; mutates the models in place.

    Each epoch shuffles the examples with the config seed's generator and
    slices consecutive batches (the last one may be short). Epoch 0 trains
    on ``examples``. ``resampler``, if given, is called with the epoch
    number for epochs 1, 2, ... and must return that epoch's training
    examples; without it every epoch reuses ``examples``. Each set is
    turned into token-index rows once, and batches slice those rows.

    Given one model, trains it in this process and returns its
    TrainResult. Given equal-length lists of models, example sets, configs
    and resamplers, trains each as an independent job and returns one
    TrainResult per job, in order, with the same bits as training each
    alone. With n = min(jobs, CPUs in ``os.sched_getaffinity(0)``), this
    process trains jobs 0, n, 2n, ... and each of n - 1 forked workers
    every n-th job after its own first one; on one CPU every job runs
    here in turn. Workers are forked, not spawned, so example sets and
    resampler closures are never pickled (and the caller should run no
    other Python threads); each pipes back its trained tensors and loss
    traces, which are copied into the caller's model arrays in place.

    Raises DataError for an empty set and DivergenceError when the loss
    goes non-finite; with several jobs, the error of the first failing
    job in list order, as training them one after another would.
    """
    if isinstance(model, DualEncoderModel):
        return _train_one(model, examples, config, resampler)
    jobs = list(zip(model, examples, config, resampler, strict=True))
    slots = min(len(jobs), len(os.sched_getaffinity(0)))
    workers: list[_Worker] = []
    try:
        for slot in range(1, slots):
            workers.append(_Worker(jobs, range(slot, len(jobs), slots)))
        done, failure = _train_in_order(jobs, range(0, len(jobs), max(slots, 1)))
        for worker in workers:
            # A worker whose jobs all come after a known failure cannot
            # change which error is raised.
            if failure and failure[0] < worker.indices[0]:
                worker.reap(terminate=True)
                continue
            worker_done, worker_failure = worker.collect(jobs)
            done.update(worker_done)
            if worker_failure and not (failure and failure[0] < worker_failure[0]):
                failure = worker_failure
    finally:
        for worker in workers:
            worker.reap(terminate=True)
    if failure:
        raise failure[1]
    return [done[i] for i in range(len(jobs))]


# Checkpoint: a container (see dialret._container) with magic b"DRCKPT"
# whose sorted-key JSON header adds {"tied", "train_embeddings",
# "variant", "vocab": [token, ...]}; the payload is model.all_tensors()
# under their in-memory names. Every dimension comes from the tensors.
_CKPT_MAGIC = b"DRCKPT"
_ENCODER_PARAMS = {params.variant: params for params in (GruParams, AttentionParams)}


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
    params = _ENCODER_PARAMS[header["variant"]]
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
