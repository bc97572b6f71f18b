"""Recall@k evaluation and human-mark scoring.

For every test pair, :func:`draw_candidates` draws ``num_alternatives``
distinct wrong responses from a configurable transform of the training
response distribution (:func:`dialret.sampling.draw_distinct_alternatives`,
which raises ``CandidatePoolError`` on a transform too concentrated to
yield them). The true response plus the alternatives are ranked by the scorer
under test; the pair counts as a hit at k when the true response lands
in the top k. Ties are resolved against the true response, so a
constant scorer gets recall 0 rather than a freebie.

Alternative draws depend only on (seed, pair_id, transform), so two
models evaluated under the same config see identical candidate lists.
A grid column is one such EvalConfig; :func:`cross_distribution_grid`
returns a plain dict of EvalReports by (column, scorer), column by column.

Scoring is separate from drawing: :func:`evaluate` draws every pair's
list first, then scores the lists in blocks of about
``SCORE_BLOCK_ROWS`` candidates. :func:`resolve_scorer` turns each kind
of scorer into a list scorer, an object whose
``score_lists(contexts, candidate_lists)`` returns one row of scores per
context, for lists of one length. A DualEncoderModel becomes a
:class:`DualEncoderScorer` and a HistoryIndex a
:class:`HistoryIndexScorer`: each encodes a block's contexts in one
batch and its uncached candidates in another, and the index scorer takes
its nearest-row cosines one fixed-size tile at a time. Their
``score_candidates(context_tokens, candidates)`` is the one-pair case.
Any other object with that method, or a bare callable with that
signature, is wrapped in a one-pair adapter that calls it once per pair,
in pair order. Each block's scores are checked for shape and finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ._container import write_artifact
from .corpus import ContextResponsePair, read_text_lines
from .distribution import ResponseDistribution, TransformSpec, transform
from .encoder import DualEncoderModel, sigmoid
from .errors import CandidatePoolError, DataError, NumericError
from .retrieval import HistoryIndex, _top_k_rows, history_rows
from .sampling import draw_distinct_alternatives
from .seeding import derive_rng


@dataclass(frozen=True)
class EvalConfig:
    num_alternatives: int = 9
    ks: tuple[int, ...] = (1, 3, 5)
    alternative_transform: TransformSpec = field(default_factory=TransformSpec.identity)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(self.ks))
        if self.num_alternatives < 1:
            raise DataError("num_alternatives must be at least 1")
        if not self.ks:
            raise DataError("ks must be non-empty")
        for k in self.ks:
            if not 1 <= k <= self.num_alternatives + 1:
                raise DataError(
                    f"k={k} outside 1..{self.num_alternatives + 1} candidates"
                )


@dataclass(frozen=True)
class EvalReport:
    recalls: dict[int, float]
    num_pairs: int
    num_alternatives: int
    alternative_transform: str
    seed: int
    ranks: tuple[int, ...] | None = None


# Candidate rows scored per call of a list scorer in evaluate and
# export_annotation: a block holds as many whole test pairs as fit, and
# at least one. Each block costs one context encode and one response encode.
SCORE_BLOCK_ROWS = 4096
# One 1 MiB tile of candidate-by-index-row cosines in HistoryIndexScorer.
# Both sides are hundreds long: a tile only tens of columns wide ran the
# index scorer several times slower on a 2-CPU x86 host.
SCORE_TILE_ROWS = 256
SCORE_TILE_COLS = 512


class _CachedEncoder:
    """A scorer's model and its cache of candidate-response encodings.

    Response encodings are cached by canonical string, one cache per
    scorer; the model must not be mutated while the scorer is alive.
    """

    def __init__(self, model: DualEncoderModel):
        self.model = model
        self._cache: dict[str, np.ndarray] = {}

    def _response_vectors(self, candidate_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """(lists, candidates per list, dim) encodings; one encode of the uncached."""
        flat = [c for candidates in candidate_lists for c in candidates]
        missing = list(dict.fromkeys(c for c in flat if c not in self._cache))
        if missing:
            encoded = self.model.encode_responses([c.split(" ") for c in missing])
            self._cache.update(zip(missing, encoded))
        vectors = np.stack([self._cache[c] for c in flat])
        return vectors.reshape(len(candidate_lists), -1, vectors.shape[1])


class DualEncoderScorer(_CachedEncoder):
    """Ranks candidates by the pairwise sigmoid probability."""

    def score_lists(
        self, contexts: Sequence[Sequence[str]], candidate_lists: Sequence[Sequence[str]]
    ) -> np.ndarray:
        projected = self.model.encode_contexts(contexts) @ self.model.bilinear
        responses = self._response_vectors(candidate_lists)
        return sigmoid(np.einsum("bnd,bd->bn", responses, projected))

    def score_candidates(
        self, context_tokens: Sequence[str], candidates: Sequence[str]
    ) -> np.ndarray:
        return self.score_lists([context_tokens], [candidates])[0]


class HistoryIndexScorer(_CachedEncoder):
    """Ranks candidates by their hypothetical history-vector placement.

    A candidate's score is the cosine between the normalized vector
    ``enc(context) + w * enc(candidate)`` and its nearest stored history
    row, i.e. how naturally the candidate would sit in the index next to
    the contexts that actually produced it.
    """

    def __init__(self, index: HistoryIndex):
        super().__init__(index._require_model())
        self.index = index

    def score_lists(
        self, contexts: Sequence[Sequence[str]], candidate_lists: Sequence[Sequence[str]]
    ) -> np.ndarray:
        responses = self._response_vectors(candidate_lists)
        lists, per_list, dim = responses.shape
        rows, _ = history_rows(
            np.repeat(self.model.encode_contexts(contexts), per_list, axis=0),
            responses.reshape(-1, dim),
            self.index.response_weight,
        )
        return _max_cosines(rows, self.index.vectors).reshape(lists, per_list)

    def score_candidates(
        self, context_tokens: Sequence[str], candidates: Sequence[str]
    ) -> np.ndarray:
        return self.score_lists([context_tokens], [candidates])[0]


def _max_cosines(rows: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each row's largest dot product with a row of ``vectors``.

    The products are taken one ``SCORE_TILE_ROWS`` x ``SCORE_TILE_COLS``
    tile at a time into one buffer, so memory does not grow with the
    number of rows or vectors.
    """
    tile = np.empty(SCORE_TILE_ROWS * SCORE_TILE_COLS)
    best = np.full(len(rows), -np.inf)
    for top in range(0, len(rows), SCORE_TILE_ROWS):
        part = rows[top : top + SCORE_TILE_ROWS]
        part_best = best[top : top + SCORE_TILE_ROWS]
        for start in range(0, len(vectors), SCORE_TILE_COLS):
            block = vectors[start : start + SCORE_TILE_COLS]
            products = tile[: len(part) * len(block)].reshape(len(part), len(block))
            # One row per candidate, so each max runs along a contiguous row.
            np.matmul(part, block.T, out=products)
            np.maximum(part_best, products.max(axis=1), out=part_best)
    return best


class _PerPair:
    """A ``(context_tokens, candidates) -> scores`` function as a list scorer."""

    def __init__(self, score_fn: Callable[[Sequence[str], Sequence[str]], np.ndarray]):
        self.score_fn = score_fn

    def score_lists(self, contexts, candidate_lists) -> np.ndarray:
        return np.stack([
            _checked(self.score_fn(context, candidates), (len(candidates),))
            for context, candidates in zip(contexts, candidate_lists)
        ])


def resolve_scorer(scorer):
    """The list scorer of ``scorer``: an object with ``score_lists``."""
    if isinstance(scorer, DualEncoderModel):
        return DualEncoderScorer(scorer)
    if isinstance(scorer, HistoryIndex):
        return HistoryIndexScorer(scorer)
    if hasattr(scorer, "score_lists"):
        return scorer
    if hasattr(scorer, "score_candidates"):
        return _PerPair(scorer.score_candidates)
    if callable(scorer):
        return _PerPair(scorer)
    raise DataError(f"cannot interpret {type(scorer).__name__} as a scorer")


def _checked(scores, shape: tuple[int, ...]) -> np.ndarray:
    """``scores`` as floats, checked to have ``shape`` and be finite.

    NaN compares false with everything, so an unchecked NaN score would
    rank every true response first.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != shape:
        raise DataError("scorer returned wrong number of scores")
    if not np.all(np.isfinite(scores)):
        raise NumericError("scorer returned non-finite scores")
    return scores


def _scored_blocks(scorer, contexts, candidate_lists):
    """Yield checked (pairs, candidates) score arrays, block by block in order.

    Every candidate list must have the same length; a block holds
    ``SCORE_BLOCK_ROWS`` candidates, or one list if that is longer.
    """
    per_list = len(candidate_lists[0])
    step = max(1, SCORE_BLOCK_ROWS // per_list)
    for start in range(0, len(contexts), step):
        lists = candidate_lists[start : start + step]
        scores = scorer.score_lists(contexts[start : start + step], lists)
        yield _checked(scores, (len(lists), per_list))


def draw_candidates(
    test_pairs: Sequence[ContextResponsePair],
    train_dist: ResponseDistribution,
    cfg: EvalConfig,
    embeddings=None,
) -> list[list[str]]:
    """Each test pair's true response followed by its drawn alternatives.

    ``embeddings`` is only needed when the alternative transform is kde.
    """
    if not test_pairs:
        raise DataError("test_pairs must be non-empty")
    alt_dist = transform(train_dist, cfg.alternative_transform, embeddings)
    return [
        [pair.response_text] + draw_distinct_alternatives(
            alt_dist, pair.response_text, cfg.num_alternatives,
            derive_rng(cfg.seed, "eval-pair", pair.pair_id),
        )
        for pair in test_pairs
    ]


def evaluate(
    scorer,
    test_pairs: Sequence[ContextResponsePair],
    train_dist: ResponseDistribution,
    cfg: EvalConfig,
    embeddings=None,
) -> EvalReport:
    """Recall@k of ``scorer`` over ``test_pairs``.

    ``embeddings`` is only needed when the alternative transform is kde.
    """
    scorer = resolve_scorer(scorer)
    candidates = draw_candidates(test_pairs, train_dist, cfg, embeddings)
    contexts = [pair.context_tokens for pair in test_pairs]
    rank_array = np.concatenate([
        1 + np.sum(scores[:, 1:] >= scores[:, :1], axis=1)
        for scores in _scored_blocks(scorer, contexts, candidates)
    ])
    recalls = {k: float(np.mean(rank_array <= k)) for k in cfg.ks}
    return EvalReport(
        recalls=recalls,
        num_pairs=len(test_pairs),
        num_alternatives=cfg.num_alternatives,
        alternative_transform=cfg.alternative_transform.label(),
        seed=cfg.seed,
        ranks=tuple(rank_array.tolist()),
    )


def format_eval_report(report: EvalReport) -> str:
    lines = [
        f"pairs: {report.num_pairs}",
        f"num_alternatives: {report.num_alternatives}",
        f"alternative_transform: {report.alternative_transform}",
        f"seed: {report.seed}",
    ]
    for k in sorted(report.recalls):
        lines.append(f"recall@{k}: {report.recalls[k]!r}")
    return "\n".join(lines) + "\n"


def parse_eval_report(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        try:
            values[key.strip()] = float(value)
        except ValueError:
            continue
    return values


def cross_distribution_grid(
    scorers: Mapping[str, object],
    columns: Mapping[str, EvalConfig],
    test_pairs: Sequence[ContextResponsePair],
    train_dist: ResponseDistribution,
    embeddings=None,
) -> dict[tuple[str, str], EvalReport]:
    """{(column name, scorer name): EvalReport}, column by column.

    Scorers are keyed by the negative-sampling variant they were trained
    with, columns by their alternatives. Every cell of a column is
    evaluated under that column's one EvalConfig, so the cells in a
    column share their candidate lists exactly.
    """
    if not scorers or not columns:
        raise DataError("grid needs at least one scorer and one alternative")
    resolved = {name: resolve_scorer(s) for name, s in scorers.items()}
    return {
        (alt_name, scorer_name): evaluate(scorer, test_pairs, train_dist, column, embeddings)
        for alt_name, column in columns.items()
        for scorer_name, scorer in resolved.items()
    }


def format_grid_table(cells: Mapping[tuple[str, str], EvalReport], ks: Sequence[int]) -> str:
    """Aligned text table: one row per (alternatives, trained-with) cell, in order."""
    header = ["test_alternatives", "train_negatives"] + [f"recall@{k}" for k in ks]
    rows = [header] + [
        [alt_name, scorer_name] + [f"{report.recalls[k]:.4f}" for k in ks]
        for (alt_name, scorer_name), report in cells.items()
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


# Human evaluation: assessors mark each proposed response on a 0..3
# scale. A question counts as correctly answered (CR) when its best mark
# exceeds 1, and as at least plausibly answered (UR) when it exceeds 0.
VALID_MARKS = (0, 1, 2, 3)
RESPONSES_PER_QUESTION = 3


@dataclass(frozen=True)
class AnnotationRecord:
    """One question's proposed responses in rank order, with one mark each."""

    question_id: str
    responses: tuple[str, ...]
    marks: tuple[int, ...]

    def __post_init__(self):
        if not self.responses:
            raise DataError("a question needs at least one response")
        if len(self.marks) != len(self.responses):
            raise DataError(
                f"{len(self.responses)} responses but {len(self.marks)} marks"
            )
        for mark in self.marks:
            if mark not in VALID_MARKS:
                raise DataError(f"mark {mark!r} outside 0..3")


def score_human_marks(records: Sequence[AnnotationRecord]) -> tuple[float, float]:
    """(CR, UR): fractions of questions with best mark >1 and >0."""
    if not records:
        raise DataError("no annotation records")
    cr_hits = sum(1 for r in records if max(r.marks) > 1)
    ur_hits = sum(1 for r in records if max(r.marks) > 0)
    return cr_hits / len(records), ur_hits / len(records)


@dataclass(frozen=True)
class AnnotationRow:
    question_id: str
    rank: int
    response: str
    mark: str
    model: str


def export_annotation(
    scorers,
    questions: Sequence[tuple[str, Sequence[str]]],
    response_pool: Sequence[str],
    n_responses: int = RESPONSES_PER_QUESTION,
    seed: int = 0,
) -> list[AnnotationRow]:
    """Select the top responses per question and shuffle across models.

    ``scorers`` is a single scorer or a name -> scorer mapping; the model
    name is kept on each row for the sidecar key file but must not be
    written into the assessor-facing table. Tied scores keep pool order.
    The shuffle hides which model produced which row and is deterministic
    under ``seed``.
    """
    if not questions:
        raise DataError("questions must be non-empty")
    if n_responses < 1:
        raise DataError("n_responses must be positive")
    if len(set(response_pool)) < n_responses:
        raise CandidatePoolError(
            f"response pool has fewer than {n_responses} distinct entries"
        )
    if not isinstance(scorers, Mapping):
        scorers = {"model": scorers}
    resolved = {name: resolve_scorer(s) for name, s in scorers.items()}
    pool = list(dict.fromkeys(response_pool))
    contexts = [context_tokens for _, context_tokens in questions]
    rows: list[AnnotationRow] = []
    for name, scorer in resolved.items():
        blocks = _scored_blocks(scorer, contexts, [pool] * len(questions))
        per_question = (scores for block in blocks for scores in block)
        for (question_id, _), scores in zip(questions, per_question):
            for rank, i in enumerate(_top_k_rows(scores, n_responses), start=1):
                rows.append(AnnotationRow(str(question_id), rank, pool[i], "", name))
    rng = derive_rng(seed, "annotation-shuffle")
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def write_annotation_file(path, rows: Sequence[AnnotationRow]) -> None:
    """Assessor-facing TSV: question_id, rank, response, mark (blank)."""
    write_artifact(path, ["question_id\trank\tresponse\tmark\n"] + [
        f"{row.question_id}\t{row.rank}\t{row.response}\t{row.mark}\n" for row in rows
    ])


def write_annotation_key(path, rows: Sequence[AnnotationRow]) -> None:
    """Sidecar mapping each data line back to its source model."""
    write_artifact(path, ["line\tmodel\n"] + [
        f"{line_no}\t{row.model}\n" for line_no, row in enumerate(rows, start=2)
    ])


def _tsv_rows(path, kind: str, width: int):
    """Yield (line number, fields) of each non-blank line after a TSV's header."""
    lines = read_text_lines(path, kind)
    if next(lines, None) is None:
        raise DataError(f"{kind} {path} is empty; expected a header line")
    for line_no, line in enumerate(lines, start=2):
        if line.strip():
            fields = line.rstrip("\n").split("\t")
            if len(fields) != width:
                raise DataError(f"{kind} line {line_no}: expected {width} tab-separated fields")
            yield line_no, fields


def _int_field(text: str, kind: str, line_no: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{kind} line {line_no}: {what} {text!r} is not an integer")


def read_marked_annotation(
    path, key_path=None
) -> dict[str, list[AnnotationRecord]]:
    """Parse a marked annotation file back into per-model records.

    Without a key file all rows are attributed to one model named
    ``model``; with one, each data line must have exactly one key entry
    and each key entry must name a data line. The ranks of each question
    must be exactly 1..n, with the same n for every question of a model,
    so a dropped or duplicated row is caught. Any malformed line, a file
    without its header and a sheet without data rows raise DataError.
    """
    models: dict[int, tuple[str, int]] = {}  # sheet line -> (model, key line)
    if key_path is not None:
        for line_no, (row, model) in _tsv_rows(key_path, "annotation key", 2):
            row_no = _int_field(row, "annotation key", line_no, "line")
            first = models.setdefault(row_no, (model, line_no))[1]
            if first != line_no:
                where = f"annotation key line {line_no}: line {row_no}"
                raise DataError(f"{where} is already keyed on line {first}")
    grouped: dict[tuple[str, str], list[tuple[int, str, int]]] = {}
    for line_no, (question_id, rank, response, mark) in _tsv_rows(path, "annotation", 4):
        if not mark.strip():
            raise DataError(f"annotation line {line_no}: missing mark")
        if key_path is not None and line_no not in models:
            raise DataError(f"annotation line {line_no}: not in the annotation key")
        model = models.pop(line_no)[0] if key_path is not None else "model"
        grouped.setdefault((model, question_id), []).append((
            _int_field(rank, "annotation", line_no, "rank"),
            response,
            _int_field(mark, "annotation", line_no, "mark"),
        ))
    records: dict[str, list[AnnotationRecord]] = {}
    sizes: dict[str, int] = {}
    for (model, question_id), entries in grouped.items():
        ranks, responses, marks = zip(*sorted(entries))
        where = f"annotation question {question_id!r} of model {model!r}"
        if ranks != tuple(range(1, len(entries) + 1)):
            raise DataError(f"{where}: ranks {list(ranks)}, expected 1..{len(entries)}")
        if sizes.setdefault(model, len(entries)) != len(entries):
            raise DataError(
                f"{where}: {len(entries)} responses, earlier questions have {sizes[model]}"
            )
        records.setdefault(model, []).append(AnnotationRecord(question_id, responses, marks))
    if not records:
        raise DataError(f"annotation {path} has no data rows")
    if models:
        row_no, (_, line_no) = next(iter(models.items()))
        raise DataError(f"annotation key line {line_no}: line {row_no} is not a data line")
    return records
