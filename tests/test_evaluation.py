import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialret import evaluation
from dialret.corpus import ContextResponsePair
from dialret.distribution import ResponseDistribution, TransformSpec, count_responses
from dialret.encoder import DualEncoderModel, random_embeddings, score_pair, sigmoid
from dialret.errors import CandidatePoolError, DataError, NumericError
from dialret.evaluation import (
    AnnotationRecord,
    DualEncoderScorer,
    EvalConfig,
    EvalReport,
    HistoryIndexScorer,
    cross_distribution_grid,
    draw_candidates,
    evaluate,
    export_annotation,
    format_eval_report,
    format_grid_table,
    parse_eval_report,
    read_marked_annotation,
    score_human_marks,
    write_annotation_file,
    write_annotation_key,
)
from dialret.retrieval import HistoryIndex, build_history_index


def pair(pid, ctx, response):
    return ContextResponsePair(
        pair_id=pid,
        context_tokens=tuple(ctx),
        response_text=response,
        response_tokens=tuple(response.split(" ")),
        dialogue_id=f"d{pid}",
        turn_index=1,
    )


def uniform_dist(n):
    return ResponseDistribution(
        [f"resp {i}" for i in range(n)], [1.0 / n] * n, [1] * n
    )


def make_test_pairs(count, n_responses=15):
    return [pair(i, ["ctx", str(i)], f"resp {i % n_responses}") for i in range(count)]


class OracleScorer:
    """Always puts the true response (passed first by evaluate) on top."""

    def __init__(self):
        self.truth = None

    def score_candidates(self, context_tokens, candidates):
        return np.array(
            [1.0] + [0.0] * (len(candidates) - 1)
        )


class TestEvaluate:
    def test_oracle_scorer_perfect_recall(self):
        report = evaluate(
            OracleScorer(), make_test_pairs(200), uniform_dist(15), EvalConfig(seed=1)
        )
        assert all(v == 1.0 for v in report.recalls.values())

    def test_constant_scorer_zero_below_k_max(self):
        constant = lambda ctx, cands: np.zeros(len(cands))
        cfg = EvalConfig(ks=(1, 3, 5, 9, 10), seed=2)
        report = evaluate(constant, make_test_pairs(100), uniform_dist(15), cfg)
        for k in (1, 3, 5, 9):
            assert report.recalls[k] == 0.0
        assert report.recalls[10] == 1.0

    def test_k_equals_m_plus_one_is_always_one(self):
        rng = np.random.default_rng(3)
        random_scorer = lambda ctx, cands: rng.random(len(cands))
        cfg = EvalConfig(ks=(10,), seed=3)
        report = evaluate(random_scorer, make_test_pairs(50), uniform_dist(15), cfg)
        assert report.recalls[10] == 1.0

    def test_random_scorer_calibration(self):
        rng = np.random.default_rng(4)
        random_scorer = lambda ctx, cands: rng.random(len(cands))
        cfg = EvalConfig(ks=(1, 3, 5), seed=4)
        report = evaluate(random_scorer, make_test_pairs(2500), uniform_dist(15), cfg)
        for k in (1, 3, 5):
            assert abs(report.recalls[k] - k / 10) < 0.04

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        random_scorer = lambda ctx, cands: rng.random(len(cands))
        cfg = EvalConfig(ks=tuple(range(1, 11)), seed=5)
        report = evaluate(random_scorer, make_test_pairs(300), uniform_dist(15), cfg)
        values = [report.recalls[k] for k in range(1, 11)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_deterministic_under_seed(self):
        scorer = OracleScorer()
        pairs = make_test_pairs(50)
        a = evaluate(scorer, pairs, uniform_dist(15), EvalConfig(seed=7))
        b = evaluate(scorer, pairs, uniform_dist(15), EvalConfig(seed=7))
        assert a == b

    def test_alternatives_distinct_and_exclude_true(self):
        seen = []

        class Recorder:
            def score_candidates(self, ctx, cands):
                seen.append(list(cands))
                return np.arange(len(cands), 0, -1.0)

        pairs = make_test_pairs(40)
        evaluate(Recorder(), pairs, uniform_dist(15), EvalConfig(seed=8))
        for p, cands in zip(pairs, seen):
            assert cands[0] == p.response_text
            alternatives = cands[1:]
            assert len(alternatives) == 9
            assert len(set(alternatives)) == 9
            assert p.response_text not in alternatives

    def test_pool_too_small_errors(self):
        with pytest.raises(CandidatePoolError):
            evaluate(OracleScorer(), make_test_pairs(5, n_responses=9), uniform_dist(9),
                     EvalConfig(seed=9))

    def test_non_finite_scores_rejected(self):
        nan_scorer = lambda ctx, cands: np.full(len(cands), np.nan)
        with pytest.raises(NumericError):
            evaluate(nan_scorer, make_test_pairs(5), uniform_dist(15), EvalConfig(seed=0))
        with pytest.raises(NumericError):
            export_annotation(nan_scorer, [("q", ["ctx"])], [f"resp {i}" for i in range(5)])
        with pytest.raises(DataError):
            export_annotation(lambda ctx, cands: [0.0], [("q", ["ctx"])], ["a", "b", "c"])

    def test_empty_pairs_rejected(self):
        with pytest.raises(DataError):
            evaluate(OracleScorer(), [], uniform_dist(15), EvalConfig(seed=0))

    def test_ks_must_fit_candidates(self):
        with pytest.raises(DataError):
            EvalConfig(num_alternatives=9, ks=(11,))

    def test_report_format_roundtrip(self):
        report = EvalReport(
            recalls={1: 0.5, 3: 0.75}, num_pairs=4, num_alternatives=9,
            alternative_transform="uniform", seed=3,
        )
        parsed = parse_eval_report(format_eval_report(report))
        assert parsed["recall@1"] == 0.5
        assert parsed["recall@3"] == 0.75
        assert parsed["pairs"] == 4


class TestModelScorers:
    def make_model(self, seed=0):
        # Vocabulary covers every context token used below; OOV contexts
        # would collide on the mean vector and create exact ties.
        vocab = ["ctx", "resp", "ok"] + [str(i) for i in range(60)]
        emb = random_embeddings(vocab, 8, 1.0, seed=seed)
        return DualEncoderModel.create(emb, variant="gru", hidden=8, seed=seed)

    def test_dual_encoder_scorer_matches_score_pair(self):
        model = self.make_model(seed=1)
        scorer = DualEncoderScorer(model)
        ctx = ["ctx", "3"]
        candidates = ["resp 1", "resp 2", "resp 3"]
        scores = scorer.score_candidates(ctx, candidates)
        for got, cand in zip(scores, candidates):
            assert got == pytest.approx(
                score_pair(model, ctx, cand.split(" ")), abs=1e-12
            )
        again = scorer.score_candidates(ctx, candidates)
        assert np.allclose(scores, again)

    def test_evaluate_accepts_raw_model(self):
        model = self.make_model(seed=2)
        report = evaluate(model, make_test_pairs(20), uniform_dist(15),
                          EvalConfig(ks=(1, 10), seed=11))
        assert report.recalls[10] == 1.0

    def test_history_scorer_prefers_indexed_truth(self):
        model = self.make_model(seed=3)
        pairs = make_test_pairs(30)
        index = build_history_index(model, pairs)
        scorer = HistoryIndexScorer(index)
        # A held-in pair's true response reproduces its own history row,
        # so the hypothetical placement has cosine exactly 1.
        p = pairs[4]
        scores = scorer.score_candidates(
            p.context_tokens, [p.response_text, "resp 9", "resp 10"]
        )
        assert scores[0] == pytest.approx(1.0, abs=1e-9)
        assert scores[0] >= scores[1] and scores[0] >= scores[2]

    def test_history_scorer_matches_index_major_product(self):
        model = self.make_model(seed=5)
        pairs = make_test_pairs(60)
        index = build_history_index(model, pairs)
        scorer = HistoryIndexScorer(index)
        for p in pairs[:10]:
            candidates = [f"resp {i}" for i in range(11)]
            scores = scorer.score_candidates(p.context_tokens, candidates)
            ctx = model.encode_context(p.context_tokens)
            responses = model.encode_responses([c.split(" ") for c in candidates])
            vectors = ctx + index.response_weight * responses
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            reference = (index.vectors @ vectors.T).max(axis=0)
            assert np.max(np.abs(scores - reference)) <= 1e-12
            assert list(np.argsort(-scores, kind="stable")) == list(
                np.argsort(-reference, kind="stable")
            )

    def test_history_index_evaluate_held_in(self):
        model = self.make_model(seed=4)
        pairs = make_test_pairs(40)
        index = build_history_index(model, pairs)
        dist = count_responses(pairs)
        report = evaluate(index, pairs, dist, EvalConfig(ks=(1,), seed=12))
        assert report.recalls[1] > 0.9


def per_pair_dual_encoder(model):
    """The pre-block DualEncoderScorer: one context encode per pair."""
    def score(ctx, cands):
        responses = model.encode_responses([c.split(" ") for c in cands])
        return sigmoid(responses @ (model.bilinear.T @ model.encode_context(ctx)))
    return score


def per_pair_history_index(index):
    """The pre-block HistoryIndexScorer: one full index product per pair."""
    def score(ctx, cands):
        vectors = index.model.encode_context(ctx) + index.response_weight * (
            index.model.encode_responses([c.split(" ") for c in cands])
        )
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        return (vectors @ index.vectors.T).max(axis=1)
    return score


def per_pair_report(score_fn, test_pairs, dist, cfg):
    """The pre-block evaluate: one scorer call per pair, in pair order."""
    ranks = []
    for p, cands in zip(test_pairs, draw_candidates(test_pairs, dist, cfg)):
        scores = np.asarray(score_fn(p.context_tokens, cands), dtype=np.float64)
        ranks.append(1 + int(np.sum(scores[1:] >= scores[0])))
    return EvalReport(
        recalls={k: float(np.mean(np.array(ranks) <= k)) for k in cfg.ks},
        num_pairs=len(test_pairs), num_alternatives=cfg.num_alternatives,
        alternative_transform=cfg.alternative_transform.label(), seed=cfg.seed,
        ranks=tuple(ranks),
    )


class ListScorer:
    """Scores each block with ``block_fn(block number, contexts, candidate_lists)``."""

    def __init__(self, block_fn):
        self.block_fn = block_fn
        self.blocks = 0

    def score_lists(self, contexts, candidate_lists):
        self.blocks += 1
        return self.block_fn(self.blocks, contexts, candidate_lists)


class TestBlockedScoring:
    """Blocks of 3 pairs of 10 candidates, 7 x 11 tiles over a 53-row index."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ROWS", 35)
        monkeypatch.setattr(evaluation, "SCORE_TILE_ROWS", 7)
        monkeypatch.setattr(evaluation, "SCORE_TILE_COLS", 11)

    @pytest.fixture(scope="class")
    def setup(self):
        vocab = ["ctx", "resp", "ok"] + [str(i) for i in range(60)]
        model = DualEncoderModel.create(
            random_embeddings(vocab, 8, 1.0, seed=21), variant="gru", hidden=8, seed=21
        )
        # Contexts of 2 to 6 tokens, so blocks pad to different lengths.
        pairs = [
            pair(i, ["ctx"] + [str((i * 7 + j) % 60) for j in range(1 + i % 5)], f"resp {i % 15}")
            for i in range(53)
        ]
        return model, build_history_index(model, pairs), pairs, count_responses(pairs)

    @pytest.mark.parametrize("kind", ["model", "index"])
    def test_blocks_match_the_per_pair_scorer(self, setup, kind):
        model, index, pairs, dist = setup
        scorer, reference = (
            (model, per_pair_dual_encoder(model)) if kind == "model"
            else (index, per_pair_history_index(index))
        )
        cfg = EvalConfig(ks=(1, 3), seed=22)
        candidates = draw_candidates(pairs, dist, cfg)
        blocks = list(evaluation._scored_blocks(
            evaluation.resolve_scorer(scorer), [p.context_tokens for p in pairs], candidates
        ))
        assert len(blocks) == 18
        expected = np.stack([reference(p.context_tokens, c) for p, c in zip(pairs, candidates)])
        assert np.max(np.abs(np.concatenate(blocks) - expected)) <= 1e-12
        report = evaluate(scorer, pairs, dist, cfg)
        assert report == per_pair_report(reference, pairs, dist, cfg)

    def test_per_pair_scorers_report_as_before(self, setup):
        _, _, pairs, dist = setup
        cfg = EvalConfig(ks=(1, 3, 5), seed=23)

        class Custom:
            def __init__(self):
                self.rng = np.random.default_rng(24)

            def score_candidates(self, ctx, cands):
                return self.rng.random(len(cands))

        assert evaluate(Custom(), pairs, dist, cfg) == per_pair_report(
            Custom().score_candidates, pairs, dist, cfg
        )
        rngs = [np.random.default_rng(25) for _ in range(2)]
        assert evaluate(lambda ctx, cands: rngs[0].random(len(cands)), pairs, dist, cfg) == (
            per_pair_report(lambda ctx, cands: rngs[1].random(len(cands)), pairs, dist, cfg)
        )

    def test_nan_inside_a_block_is_rejected(self, setup):
        _, _, pairs, dist = setup

        def block_fn(block, contexts, candidate_lists):
            scores = np.zeros((len(contexts), len(candidate_lists[0])))
            if block == 4:
                scores[1, 5] = np.nan
            return scores

        scorer = ListScorer(block_fn)
        with pytest.raises(NumericError):
            evaluate(scorer, pairs, dist, EvalConfig(seed=26))
        assert scorer.blocks == 4

    @pytest.mark.parametrize("shape", [lambda b, n: (b, n - 1), lambda b, n: (b * n,),
                                       lambda b, n: (b + 1, n), lambda b, n: (b, n, 1)])
    def test_a_wrongly_shaped_block_is_rejected(self, setup, shape):
        _, _, pairs, dist = setup
        scorer = ListScorer(lambda block, contexts, lists: np.zeros(
            shape(len(contexts), len(lists[0])) if block == 2 else (len(contexts), len(lists[0]))
        ))
        with pytest.raises(DataError, match="wrong number of scores"):
            evaluate(scorer, pairs, dist, EvalConfig(seed=27))
        assert scorer.blocks == 2

    def test_grid_cells_equal_evaluate(self, setup):
        model, index, pairs, dist = setup
        alts = {"identity": TransformSpec.identity(), "uniform": TransformSpec.uniform()}
        cfg = EvalConfig(ks=(1, 3), seed=28)
        grid = cross_distribution_grid(
            {"model": model, "index": index}, columns(alts, cfg), pairs, dist
        )
        for alt, spec in alts.items():
            cell_cfg = replace(cfg, alternative_transform=spec)
            assert grid[alt, "model"] == evaluate(model, pairs, dist, cell_cfg)
            assert grid[alt, "index"] == evaluate(index, pairs, dist, cell_cfg)

    def test_export_scores_each_question_like_the_per_pair_scorer(self, setup):
        model, index, pairs, _ = setup
        pool = [f"resp {i}" for i in range(40)]
        questions = [(str(p.pair_id), p.context_tokens) for p in pairs[:5]]
        for scorer, reference in ((model, per_pair_dual_encoder(model)),
                                  (index, per_pair_history_index(index))):
            assert export_annotation(scorer, questions, pool, n_responses=4, seed=29) == (
                export_annotation(reference, questions, pool, n_responses=4, seed=29)
            )


def test_export_with_an_index_keeps_memory_to_one_tile():
    """The pool-by-index score matrix is never built: with 1500 pool
    responses and a 6000-row index it would take 72 MB per question."""
    rng = np.random.default_rng(30)
    vocab = ["ctx"] + [f"w{i}" for i in range(1500)]
    model = DualEncoderModel.create(
        random_embeddings(vocab, 8, 1.0, seed=31), variant="gru", hidden=8, seed=31
    )
    vectors = rng.standard_normal((6000, 8))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    index = HistoryIndex(0.4, np.arange(6000), vectors, ["w0"] * 6000, model=model)
    pool = vocab[1:]
    questions = [(f"q{i}", ("ctx", f"w{i}")) for i in range(3)]
    tracemalloc.start()
    try:
        rows = export_annotation(index, questions, pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 9
    tile_bytes = 8 * evaluation.SCORE_TILE_ROWS * evaluation.SCORE_TILE_COLS
    assert peak < 2 * tile_bytes + (1 << 20)


def columns(alts, cfg):
    """One copy of ``cfg`` per alternative transform, keyed like ``alts``."""
    return {alt: replace(cfg, alternative_transform=spec) for alt, spec in alts.items()}


class TestGrid:
    def test_two_by_two_shape(self):
        scorers = {"identity": OracleScorer(), "uniform": OracleScorer()}
        alts = {
            "identity": TransformSpec.identity(),
            "uniform": TransformSpec.uniform(),
        }
        grid = cross_distribution_grid(
            scorers, columns(alts, EvalConfig(seed=13)), make_test_pairs(30), uniform_dist(15)
        )
        assert len(grid) == 4
        assert set(grid) == {(a, s) for a in alts for s in scorers}

    def test_identical_scorer_columns_equal(self):
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        scorers = {
            "one": lambda ctx, cands: rng_a.random(len(cands)),
            "two": lambda ctx, cands: rng_b.random(len(cands)),
        }
        alts = {
            "identity": TransformSpec.identity(),
            "uniform": TransformSpec.uniform(),
        }
        skewed = ResponseDistribution(
            [f"resp {i}" for i in range(15)],
            np.arange(1, 16) / np.arange(1, 16).sum(),
        )
        grid = cross_distribution_grid(
            scorers, columns(alts, EvalConfig(seed=14)), make_test_pairs(60), skewed
        )
        for alt in alts:
            assert grid[alt, "one"].recalls == grid[alt, "two"].recalls

    def test_table_formatting(self):
        scorers = {"identity": OracleScorer()}
        alts = {"identity": TransformSpec.identity()}
        grid = cross_distribution_grid(
            scorers, columns(alts, EvalConfig(ks=(1, 3), seed=15)),
            make_test_pairs(10), uniform_dist(15),
        )
        table = format_grid_table(grid, (1, 3))
        lines = table.splitlines()
        assert lines[0].split() == [
            "test_alternatives", "train_negatives", "recall@1", "recall@3",
        ]
        assert lines[1].split() == ["identity", "identity", "1.0000", "1.0000"]


class TestExportAnnotation:
    def questions(self, n):
        return [(f"q{i}", ("ctx", str(i))) for i in range(n)]

    def pool(self, n=20):
        return [f"resp {i}" for i in range(n)]

    def test_400_questions_give_1200_rows(self):
        rows = export_annotation(OracleScorer(), self.questions(400), self.pool())
        assert len(rows) == 1200
        per_question = {}
        for row in rows:
            per_question.setdefault(row.question_id, []).append(row.rank)
        assert all(sorted(v) == [1, 2, 3] for v in per_question.values())

    def test_single_response_per_question(self):
        rows = export_annotation(
            OracleScorer(), self.questions(10), self.pool(), n_responses=1
        )
        assert len(rows) == 10
        assert all(r.rank == 1 for r in rows)

    def test_same_seed_same_shuffle(self):
        a = export_annotation(OracleScorer(), self.questions(30), self.pool(), seed=5)
        b = export_annotation(OracleScorer(), self.questions(30), self.pool(), seed=5)
        assert a == b

    def test_multiple_models_shuffled_together(self):
        scorers = {"alpha": OracleScorer(), "beta": OracleScorer()}
        rows = export_annotation(scorers, self.questions(50), self.pool(), seed=6)
        assert len(rows) == 300
        first_half_models = {r.model for r in rows[:50]}
        assert first_half_models == {"alpha", "beta"}

    def test_marks_roundtrip_through_files(self, tmp_path):
        scorers = {"alpha": OracleScorer(), "beta": OracleScorer()}
        rows = export_annotation(scorers, self.questions(8), self.pool(), seed=7)
        anno, key = tmp_path / "a.tsv", tmp_path / "k.tsv"
        write_annotation_file(anno, rows)
        write_annotation_key(key, rows)
        # Assessor gives mark 3 to every rank-1 row, 0 otherwise.
        lines = anno.read_text(encoding="utf-8").splitlines()
        marked = [lines[0]]
        for line in lines[1:]:
            fields = line.split("\t")
            fields[3] = "3" if fields[1] == "1" else "0"
            marked.append("\t".join(fields))
        anno.write_text("\n".join(marked) + "\n", encoding="utf-8")
        per_model = read_marked_annotation(anno, key)
        assert set(per_model) == {"alpha", "beta"}
        for records in per_model.values():
            assert len(records) == 8
            cr, ur = score_human_marks(records)
            assert (cr, ur) == (1.0, 1.0)

    def test_missing_mark_rejected(self, tmp_path):
        rows = export_annotation(OracleScorer(), self.questions(2), self.pool(), seed=8)
        anno = tmp_path / "a.tsv"
        write_annotation_file(anno, rows)
        with pytest.raises(DataError):
            read_marked_annotation(anno)

    def test_tied_scores_keep_pool_order(self):
        pool = self.pool(40)
        scores = np.array([(i // 3) % 4 for i in range(len(pool))], dtype=float)
        questions = self.questions(3)
        for n in (1, 3, 7, 40):
            rows = export_annotation(
                lambda ctx, cands: scores, questions, pool, n_responses=n, seed=9
            )
            reference = [pool[i] for i in np.argsort(-scores, kind="stable")[:n]]
            for question_id, _ in questions:
                ranked = sorted((r.rank, r.response) for r in rows if r.question_id == question_id)
                assert [response for _, response in ranked] == reference

    def test_pool_too_small(self):
        with pytest.raises(CandidatePoolError):
            export_annotation(OracleScorer(), self.questions(2), ["only one"], 3)


class TestScoreHumanMarks:
    def record(self, marks):
        return AnnotationRecord("q", ("a", "b", "c"), tuple(marks))

    def test_unsure_only(self):
        cr, ur = score_human_marks([self.record([0, 1, 0])])
        assert (cr, ur) == (0.0, 1.0)

    def test_reference_answer(self):
        cr, ur = score_human_marks([self.record([3, 0, 0])])
        assert (cr, ur) == (1.0, 1.0)

    def test_all_incorrect(self):
        cr, ur = score_human_marks([self.record([0, 0, 0])])
        assert (cr, ur) == (0.0, 0.0)

    def test_mark_2_counts_correct(self):
        cr, ur = score_human_marks([self.record([0, 2, 1])])
        assert (cr, ur) == (1.0, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            self.record([0, 4, 0])
        with pytest.raises(DataError):
            self.record([-1, 0, 0])

    def test_wrong_arity_rejected(self):
        with pytest.raises(DataError):
            AnnotationRecord("q", ("a", "b"), (0, 0, 0))
        with pytest.raises(DataError):
            AnnotationRecord("q", ("a", "b", "c"), (0,))
        with pytest.raises(DataError):
            AnnotationRecord("q", (), ())

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_cr_never_exceeds_ur(self, mark_rows):
        records = [
            AnnotationRecord(f"q{i}", ("a", "b", "c"), marks)
            for i, marks in enumerate(mark_rows)
        ]
        cr, ur = score_human_marks(records)
        assert cr <= ur
