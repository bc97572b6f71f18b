import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialret.corpus import ContextResponsePair
from dialret.encoder import (
    AttentionParams,
    DualEncoderModel,
    EmbeddingTable,
    encode,
    random_embeddings,
)
from dialret.errors import DataError
from dialret.retrieval import (
    DEFAULT_RESPONSE_WEIGHT,
    HistoryIndex,
    build_history_index,
    load_index,
    query_nearest,
    save_index,
)


def pair(pair_id, ctx_tokens, rsp_tokens):
    return ContextResponsePair(
        pair_id=pair_id,
        context_tokens=tuple(ctx_tokens),
        response_text=" ".join(rsp_tokens),
        response_tokens=tuple(rsp_tokens),
        dialogue_id=f"d{pair_id}",
        turn_index=1,
    )


def attention_model(vocab_size=40, dim=8, seed=0, scale=1.0):
    # Single-token attention passes embeddings straight through, which
    # makes encoder outputs easy to reason about in these tests.
    emb = random_embeddings([f"t{i}" for i in range(vocab_size)], dim, scale, seed=seed)
    params = AttentionParams.create(dim, dim, np.random.default_rng(seed + 1))
    return DualEncoderModel(emb, params, params, np.eye(dim))


def reference_scan(index, tokens, top_k):
    """Pair ids and scores of the top_k rows of a full float64 einsum scan,
    sorted by (-score, pair id)."""
    query = index.model.encode_context(tokens)
    norm = np.linalg.norm(query)
    if norm > 1e-12:
        query = query / norm
    scores = np.einsum("ij,j->i", index.vectors, query)
    order = sorted(range(len(index)), key=lambda r: (-scores[r], int(index.pair_ids[r])))
    order = order[:top_k]
    return [int(index.pair_ids[r]) for r in order], scores[order]


def assert_matches_reference(index, tokens, top_k):
    hits = query_nearest(index, tokens, top_k)
    pair_ids, scores = reference_scan(index, tokens, top_k)
    assert [h.pair_id for h in hits] == pair_ids
    assert np.array([h.score for h in hits]).tobytes() == scores.tobytes()


@st.composite
def scan_problems(draw):
    """A model whose token "zero" encodes to the zero vector, and pairs over
    a few distinct tokens, so that many history rows repeat exactly."""
    dim = draw(st.integers(1, 64))
    distinct = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab = {f"t{i}": i for i in range(distinct)} | {"zero": distinct}
    matrix = np.vstack([rng.standard_normal((distinct, dim)), np.zeros(dim)])
    params = AttentionParams.create(dim, dim, rng)
    model = DualEncoderModel(EmbeddingTable(vocab, matrix), params, params, np.eye(dim))
    token = st.sampled_from([f"t{i}" for i in range(distinct)])
    pair_ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=40, unique=True))
    pairs = [pair(i, [draw(token)], [draw(token)]) for i in pair_ids]
    query = draw(st.lists(st.sampled_from(sorted(vocab)), min_size=1, max_size=3))
    return model, pairs, query


class TestBuildHistoryIndex:
    def test_weight_zero_gives_normalized_contexts(self):
        model = attention_model()
        pairs = [pair(i, [f"t{i}"], [f"t{i+10}"]) for i in range(5)]
        index = build_history_index(model, pairs, response_weight=0.0)
        for i, p in enumerate(pairs):
            expected = model.embeddings.matrix[model.embeddings.indices([p.context_tokens[0]])[0]]
            expected = expected / np.linalg.norm(expected)
            assert np.allclose(index.vectors[i], expected, atol=1e-12)

    def test_prenormalization_arithmetic(self):
        emb = EmbeddingTable({"c": 0, "r": 1}, np.array([[1.0, 0.0], [0.0, 1.0]]))
        params = AttentionParams.create(2, 2, np.random.default_rng(0))
        model = DualEncoderModel(emb, params, params, np.eye(2))
        index = build_history_index(model, [pair(0, ["c"], ["r"])], response_weight=0.4)
        expected = np.array([1.0, 0.4])
        assert np.allclose(index.vectors[0], expected / np.linalg.norm(expected), atol=1e-12)

    def test_default_weight_is_04(self):
        model = attention_model(seed=3)
        index = build_history_index(model, [pair(0, ["t0"], ["t1"])])
        assert index.response_weight == 0.4
        assert DEFAULT_RESPONSE_WEIGHT == 0.4

    def test_rows_sorted_by_pair_id(self):
        model = attention_model(seed=4)
        pairs = [pair(i, [f"t{i}"], ["t0"]) for i in (5, 1, 3)]
        index = build_history_index(model, pairs)
        assert list(index.pair_ids) == [1, 3, 5]

    def test_zero_norm_rejected(self):
        emb = EmbeddingTable({"z": 0}, np.array([[0.0, 0.0]]))
        params = AttentionParams.create(2, 2, np.random.default_rng(0))
        model = DualEncoderModel(emb, params, params, np.eye(2))
        with pytest.raises(DataError) as exc:
            build_history_index(model, [pair(7, ["z"], ["z"])])
        assert "7" in str(exc.value)

    def test_duplicate_pair_ids_rejected(self):
        model = attention_model(seed=5)
        with pytest.raises(DataError):
            build_history_index(model, [pair(1, ["t0"], ["t1"]), pair(1, ["t2"], ["t3"])])


class TestHistoryIndexVectors:
    def test_vectors_are_a_read_only_copy(self, tmp_path):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        index = HistoryIndex(0.4, [1, 2], vectors, ["a", "b"])
        with pytest.raises(ValueError):
            index.vectors[0] = np.nan
        vectors[0] = [0.0, 1.0]
        assert index.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        save_index(index, tmp_path / "h.idx")
        with pytest.raises(ValueError):
            load_index(tmp_path / "h.idx").vectors[1, 1] = np.inf


class TestQueryNearest:
    def test_self_query_scores_one(self):
        model = attention_model(seed=6)
        pairs = [pair(i, [f"t{i}"], [f"t{i+10}"]) for i in range(8)]
        index = build_history_index(model, pairs, response_weight=0.0)
        hits = query_nearest(index, ["t3"], top_k=1)
        assert hits[0].pair_id == 3
        assert hits[0].score == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_rows(self):
        emb = EmbeddingTable(
            {"a": 0, "b": 1, "c": 2}, np.eye(3)
        )
        params = AttentionParams.create(3, 3, np.random.default_rng(0))
        model = DualEncoderModel(emb, params, params, np.eye(3))
        pairs = [pair(0, ["a"], ["a"]), pair(1, ["b"], ["b"]), pair(2, ["c"], ["c"])]
        index = build_history_index(model, pairs, response_weight=0.0)
        hits = query_nearest(index, ["b"], top_k=3)
        assert hits[0].pair_id == 1
        assert hits[0].score == pytest.approx(1.0)
        assert hits[1].score == pytest.approx(0.0, abs=1e-12)
        assert hits[2].score == pytest.approx(0.0, abs=1e-12)

    def brute_force(self, index, query_vector):
        query_vector = query_vector / np.linalg.norm(query_vector)
        scored = []
        for row in range(len(index)):
            cosine = float(np.dot(index.vectors[row], query_vector))
            scored.append((int(index.pair_ids[row]), cosine))
        scored.sort(key=lambda t: (-t[1], t[0]))
        return scored

    def test_matches_brute_force_scan(self):
        from dialret.encoder import encode

        model = attention_model(vocab_size=700, dim=16, seed=7)
        rng = np.random.default_rng(8)
        pairs = [
            pair(i, [f"t{rng.integers(0, 700)}", f"t{rng.integers(0, 700)}"],
                 [f"t{rng.integers(0, 700)}"])
            for i in range(500)
        ]
        index = build_history_index(model, pairs)
        for q in range(100):
            query = [f"t{rng.integers(0, 700)}", f"t{rng.integers(0, 700)}"]
            hits = query_nearest(index, query, top_k=len(index))
            query_vec = encode(model.context_encoder, model.embeddings, query)
            expected = self.brute_force(index, query_vec)
            assert [h.pair_id for h in hits] == [p for p, _ in expected]
            assert np.allclose(
                [h.score for h in hits], [s for _, s in expected], atol=1e-12
            )

    def test_ranking_invariant_to_query_scaling(self):
        # A single-token query makes the attention encoder exactly linear
        # in the embedding, so scaling the table scales the raw query
        # vector by 7.3 before normalization.
        model = attention_model(seed=9)
        pairs = [pair(i, [f"t{i}"], [f"t{i+5}"]) for i in range(10)]
        index = build_history_index(model, pairs)
        baseline = [h.pair_id for h in query_nearest(index, ["t2"], top_k=10)]
        scaled_model = attention_model(seed=9)
        scaled_model.embeddings.matrix *= 7.3
        scaled_index = HistoryIndex(
            index.response_weight, index.pair_ids, index.vectors,
            index.responses, model=scaled_model,
        )
        scaled = [h.pair_id for h in query_nearest(scaled_index, ["t2"], top_k=10)]
        assert scaled == baseline

    def test_full_query_returns_permutation(self):
        model = attention_model(seed=10)
        pairs = [pair(i, [f"t{i}"], [f"t{i+9}"]) for i in range(12)]
        index = build_history_index(model, pairs)
        hits = query_nearest(index, ["t4"], top_k=len(index))
        assert sorted(h.pair_id for h in hits) == list(range(12))

    def test_deterministic(self):
        model = attention_model(seed=11)
        pairs = [pair(i, [f"t{i}"], [f"t{i+7}"]) for i in range(15)]
        index = build_history_index(model, pairs)
        a = query_nearest(index, ["t1", "t2"], top_k=15)
        b = query_nearest(index, ["t1", "t2"], top_k=15)
        assert a == b

    def test_exact_ties_broken_by_pair_id(self):
        model = attention_model(seed=12)
        # Identical contexts and responses -> bitwise-equal vectors.
        pairs = [pair(i, ["t1"], ["t2"]) for i in (9, 2, 5)]
        index = build_history_index(model, pairs)
        hits = query_nearest(index, ["t3"], top_k=3)
        assert [h.pair_id for h in hits] == [2, 5, 9]

    def test_empty_index_and_bad_topk(self):
        model = attention_model(seed=13)
        index = build_history_index(model, [pair(0, ["t0"], ["t1"])])
        with pytest.raises(DataError):
            query_nearest(index, ["t0"], top_k=0)
        empty = HistoryIndex(0.4, [], np.zeros((0, 8)), [], model=model)
        with pytest.raises(DataError, match="index is empty"):
            query_nearest(empty, ["t0"], top_k=1)

    def unit_rows(self, rows, dim, seed):
        vectors = np.random.default_rng(seed).standard_normal((rows, dim))
        return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)

    def index_of(self, vectors, model):
        rows = len(vectors)
        pair_ids = 3 * np.arange(rows) + 1
        return HistoryIndex(0.4, pair_ids, vectors, [f"r{i}" for i in range(rows)], model=model)

    @pytest.mark.parametrize("dim", [16, 17, 33])
    def test_duplicated_rows_tie_exactly(self, dim):
        # The copies include every row holding an element at a multiple
        # of 8192 in the row-major matrix, so a scan that split rows at
        # numpy's 8192-element buffer boundaries would round those rows
        # differently from the copies elsewhere.
        model = attention_model(vocab_size=20, dim=dim, seed=17)
        query = encode(model.context_encoder, model.embeddings, ["t5"])
        vectors = self.unit_rows(1500, dim, seed=17)
        straddling = [8192 * m // dim for m in range(1, 1500 * dim // 8192 + 1)]
        spread = np.random.default_rng(18).choice(1500, size=60, replace=False)
        twins = np.union1d(spread, straddling)
        # Copies of the query direction are the top hits.
        vectors[twins] = query / np.linalg.norm(query)
        index = self.index_of(vectors, model)
        hits = query_nearest(index, ["t5"], top_k=len(twins))
        assert [h.pair_id for h in hits] == list(index.pair_ids[twins])
        assert len({h.score for h in hits}) == 1

    @pytest.mark.parametrize("dim", [16, 17, 33])
    def test_hit_order_matches_stable_argsort(self, dim):
        model = attention_model(vocab_size=20, dim=dim, seed=19)
        # Seven distinct rows repeated in a shuffled pattern give many ties
        # at every rank, including at the k-th score.
        picks = np.random.default_rng(20).integers(0, 7, size=1500)
        index = self.index_of(self.unit_rows(7, dim, seed=19)[picks], model)
        n = len(index)
        for token in ("t1", "t2", "t3"):
            query = encode(model.context_encoder, model.embeddings, [token])
            query = query / np.linalg.norm(query)
            scores = np.einsum("ij,j->i", index.vectors, query)
            old_scores = (index.vectors * query).sum(axis=1)
            assert np.max(np.abs(scores - old_scores)) <= 1e-12
            for top_k in (1, 5, n, n + 3):
                reference = np.argsort(-scores, kind="stable")[:top_k]
                hits = query_nearest(index, [token], top_k=top_k)
                assert len(hits) == min(top_k, n)
                assert [h.pair_id for h in hits] == list(index.pair_ids[reference])
                assert [h.score for h in hits] == list(scores[reference])

    @settings(max_examples=150, deadline=None)
    @given(scan_problems(), st.booleans())
    def test_equals_a_full_float64_scan(self, problem, through_file):
        model, pairs, query = problem
        index = build_history_index(model, pairs)
        with tempfile.TemporaryDirectory() as tmp:
            if through_file:
                save_index(index, Path(tmp) / "h.idx")
                index = load_index(Path(tmp) / "h.idx", model)
            n = len(index)
            for tokens in (query, ["zero"]):
                for top_k in (1, 5, n, n + 3):
                    assert_matches_reference(index, tokens, top_k)

    def test_near_ties_inside_float32_error_keep_the_float64_order(self):
        # Rows 60 degrees from the query, 1e-8 apart: their float64 scores
        # differ by less than float32 rounding, so a float32 top k alone
        # would miss true hits; the slack keeps them through the screen.
        dim = 16
        model = attention_model(vocab_size=20, dim=dim, seed=21)
        query = model.encode_context(["t5"])
        query = query / np.linalg.norm(query)
        misses = 0
        for seed in range(22, 27):
            rng = np.random.default_rng(seed)
            side = rng.standard_normal(dim)
            side -= (side @ query) * query
            side /= np.linalg.norm(side)
            vectors = 0.5 * query + np.sqrt(0.75) * side + 1e-8 * rng.standard_normal((300, dim))
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            index = self.index_of(vectors, model)
            for top_k in (1, 5):
                assert_matches_reference(index, ["t5"], top_k)
                exact = np.einsum("ij,j->i", index.vectors, query)
                screen = query.astype(np.float32) @ index._screen
                best = np.argsort(-exact, kind="stable")[:top_k]
                misses += bool(np.any(screen[best] < np.partition(screen, -top_k)[-top_k]))
        assert misses > 0

    def test_screen_is_read_only_and_built_on_the_first_query(self, tmp_path):
        model = attention_model(seed=23)
        built = build_history_index(model, [pair(i, [f"t{i}"], [f"t{i+9}"]) for i in range(12)])
        save_index(built, tmp_path / "h.idx")
        for index in (built, load_index(tmp_path / "h.idx", model)):
            assert "_screen" not in vars(index)
            query_nearest(index, ["t4"], top_k=3)
            screen = vars(index)["_screen"]
            assert screen.dtype == np.float32 and screen.flags.c_contiguous
            assert np.array_equal(screen, index.vectors.T.astype(np.float32))
            with pytest.raises(ValueError):
                screen[0, 0] = 0.0
            query_nearest(index, ["t5"], top_k=3)
            assert vars(index)["_screen"] is screen


class TestIndexPersistence:
    def test_roundtrip(self, tmp_path):
        model = attention_model(seed=14)
        pairs = [pair(i, [f"t{i}"], [f"t{i+3}"]) for i in range(6)]
        index = build_history_index(
            model, pairs, checkpoint_ref="model.ckpt", checkpoint_sha256="ab" * 32
        )
        path = tmp_path / "history.idx"
        save_index(index, path)
        loaded = load_index(path, model=model)
        assert np.array_equal(loaded.vectors, index.vectors)
        assert list(loaded.pair_ids) == list(index.pair_ids)
        assert loaded.responses == index.responses
        assert loaded.response_weight == index.response_weight
        assert loaded.checkpoint_ref == "model.ckpt"
        assert loaded.checkpoint_sha256 == "ab" * 32
        assert query_nearest(loaded, ["t2"], 3) == query_nearest(index, ["t2"], 3)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = attention_model(seed=15)
        index = build_history_index(model, [pair(0, ["t0"], ["t1"])])
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(index, p1)
        save_index(index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_query_without_model_fails(self, tmp_path):
        model = attention_model(seed=16)
        index = build_history_index(model, [pair(0, ["t0"], ["t1"])])
        path = tmp_path / "x.idx"
        save_index(index, path)
        loaded = load_index(path)
        with pytest.raises(DataError):
            query_nearest(loaded, ["t0"], 1)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"WRONG!" + b"\x00" * 20)
        with pytest.raises(DataError):
            load_index(path)
