import dataclasses
import hashlib
import logging
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gradcheck import finite_difference_gradients, max_relative_error

from dialret import encoder as encoder_module
from dialret.encoder import (
    AttentionParams,
    DualEncoderModel,
    EmbeddingTable,
    GruParams,
    TrainConfig,
    _epoch_batches,
    _IndexedExamples,
    _pad_batch,
    encode,
    encode_batch,
    load_checkpoint,
    load_embeddings,
    loss_and_gradients,
    random_embeddings,
    save_checkpoint,
    score_pair,
    sigmoid,
    train,
    truncate_context,
    truncate_response,
)
from dialret.errors import (
    DataError,
    DialretError,
    DivergenceError,
    NonFiniteParameterError,
    NumericError,
)
from dialret.sampling import TrainingExample, TrainingSet


def zero_gru(input_dim, hidden):
    return GruParams(
        w=np.zeros((3 * hidden, input_dim)), u=np.zeros((3 * hidden, hidden)),
        b=np.zeros(3 * hidden),
    )


def tiny_vocab(n=30):
    return [f"t{i}" for i in range(n)]


def random_batch(vocab, rng, size=6):
    batch = []
    for b in range(size):
        ctx = [vocab[rng.integers(0, len(vocab))] for _ in range(int(rng.integers(1, 7)))]
        rsp = [vocab[rng.integers(0, len(vocab))] for _ in range(int(rng.integers(1, 5)))]
        batch.append(TrainingExample(tuple(ctx), tuple(rsp), int(rng.integers(0, 2)), b))
    return batch


def random_gru(input_dim, hidden, seed):
    """GRU weights and biases all drawn at random, so every block matters."""
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.normal(scale=0.6, size=shape)
    return GruParams(
        w=draw(3 * hidden, input_dim), u=draw(3 * hidden, hidden), b=draw(3 * hidden),
    )


def reference_gru(params, emb, tokens):
    """Final GRU state by the module docstring's per-gate equations."""
    # Gate rows of the fused tensors, in z, r, h order.
    wz, wr, wh = np.split(params.w, 3)
    uz, ur, uh = np.split(params.u, 3)
    bz, br, bh = np.split(params.b, 3)
    h = np.zeros(params.hidden)
    for token in tokens:
        e = emb.matrix[emb.indices([token])[0]]
        z = sigmoid(wz @ e + uz @ h + bz)
        r = sigmoid(wr @ e + ur @ h + br)
        g = np.tanh(wh @ e + uh @ (r * h) + bh)
        h = (1.0 - z) * h + z * g
    return h


class TestLoadEmbeddings:
    def test_oov_is_mean_of_rows(self):
        table = load_embeddings(["2 2\n", "a 1 0\n", "b 0 1\n"])
        assert np.allclose(table.matrix[table.oov_index], [0.5, 0.5])

    def test_unseen_token_gets_oov(self):
        table = load_embeddings(["2 2\n", "a 1 0\n", "b 0 1\n"])
        assert np.allclose(table.matrix[table.indices(["zzz"])[0]], table.matrix[table.oov_index])

    def test_empty_file(self):
        with pytest.raises(DataError):
            load_embeddings([])

    def test_bad_header(self):
        with pytest.raises(DataError):
            load_embeddings(["not a header\n", "a 1 0\n"])

    def test_dim_mismatch_row(self):
        with pytest.raises(DataError):
            load_embeddings(["2 3\n", "a 1 0 0\n", "b 1 0\n"])

    def test_expected_dim_rejected(self):
        with pytest.raises(DataError):
            load_embeddings(["1 2\n", "a 1 0\n"], expected_dim=300)

    @pytest.mark.parametrize("count", [1, 3])
    def test_count_must_match_the_vectors(self, count):
        # The blank line is not a vector.
        with pytest.raises(DataError, match=f"'{count} 2' does not match the 2 vectors"):
            load_embeddings([f"{count} 2\n", "a 1 0\n", "\n", "b 0 1\n"])

    # 400 digits parse as an int; 5000 are past int()'s default digit limit.
    @pytest.mark.parametrize("digits", [400, 5000])
    def test_long_count_is_quoted_short(self, digits):
        with pytest.raises(DataError) as exc:
            load_embeddings(["9" * digits + " 2\n", "a 1 0\n"])
        assert "9" * 40 + "'..." in str(exc.value)
        assert len(str(exc.value)) < 120

    def test_duplicate_token_first_wins(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(["2 2\n", "a 1 0\n", "a 0 1\n"])
        assert np.allclose(table.matrix[table.indices(["a"])[0]], [1, 0])
        assert any("duplicate" in r.message for r in caplog.records)

    def test_file_path_roundtrip(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n", encoding="utf-8")
        table = load_embeddings(path, expected_dim=3)
        assert np.allclose(table.matrix[table.indices(["beta"])[0]], [4, 5, 6])


class TestRandomEmbeddings:
    def test_same_seed_identical(self):
        a = random_embeddings(tiny_vocab(), 8, 0.5, seed=3)
        b = random_embeddings(tiny_vocab(), 8, 0.5, seed=3)
        assert np.array_equal(a.matrix, b.matrix)

    def test_scale_zero_all_zero(self):
        table = random_embeddings(tiny_vocab(), 4, 0.0, seed=1)
        assert np.all(table.matrix == 0.0)
        assert np.all(table.matrix[table.oov_index] == 0.0)

    def test_component_mean_clt_bound(self):
        # 2500 tokens x 40 dims = 1e5 iid uniform[-s, s] samples.
        scale = 0.7
        table = random_embeddings([f"w{i}" for i in range(2500)], 40, scale, seed=9)
        samples = table.matrix[:-1].ravel()
        assert samples.size == 100_000
        bound = 3.0 * scale / math.sqrt(3.0 * samples.size)
        assert abs(samples.mean()) < bound


class TestEncode:
    def test_zero_gru_encodes_to_zero(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=0)
        params = zero_gru(6, 5)
        out = encode(params, emb, ["t1", "t2", "t3"])
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_attention_single_token_returns_embedding(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        params = AttentionParams.create(6, np.random.default_rng(2))
        out = encode(params, emb, ["t4"])
        assert np.allclose(out, emb.matrix[emb.indices(["t4"])[0]], atol=1e-12)

    def test_attention_identical_tokens_convex(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        params = AttentionParams.create(6, np.random.default_rng(2))
        out = encode(params, emb, ["t4", "t4"])
        assert np.allclose(out, emb.matrix[emb.indices(["t4"])[0]], atol=1e-12)

    def test_attention_weights_simplex(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=3)
        params = AttentionParams.create(6, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        for _ in range(20):
            tokens = [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(1, 9)))]
            idx, mask = _pad_batch(emb, [tokens])
            _, (_, weights) = params.forward(emb.matrix[idx], mask)
            w = weights[0]
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_gru_hidden_stays_in_unit_interval(self):
        emb = random_embeddings(tiny_vocab(), 6, 2.0, seed=6)
        rng = np.random.default_rng(7)
        params = GruParams.create(6, 5, rng)
        from dialret.encoder import _pad_batch

        for _ in range(10):
            tokens = [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(2, 12)))]
            idx, mask = _pad_batch(emb, [tokens])
            final, (_, h) = params.forward(emb.matrix[idx], mask)
            states = np.concatenate([h[1:-1, 0], final], axis=0)
            assert np.all(states > -1.0) and np.all(states < 1.0)

    def test_gru_is_order_sensitive(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=8)
        params = GruParams.create(6, 5, np.random.default_rng(9))
        a = encode(params, emb, ["t1", "t2", "t3"])
        b = encode(params, emb, ["t3", "t2", "t1"])
        assert not np.allclose(a, b, atol=1e-6)

    def test_attention_is_order_invariant(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=8)
        params = AttentionParams.create(6, np.random.default_rng(9))
        a = encode(params, emb, ["t1", "t2", "t3"])
        b = encode(params, emb, ["t3", "t2", "t1"])
        assert np.allclose(a, b, atol=1e-12)

    def test_batch_matches_individual_encodes(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=10)
        rng = np.random.default_rng(11)
        seqs = [
            [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(1, 9)))]
            for _ in range(12)
        ]
        for params in (
            GruParams.create(6, 5, np.random.default_rng(12)),
            AttentionParams.create(6, np.random.default_rng(13)),
        ):
            batched = encode_batch(params, emb, seqs)
            for i, seq in enumerate(seqs):
                assert np.allclose(batched[i], encode(params, emb, seq), atol=1e-12)

    def test_fused_forward_matches_per_gate_reference(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=14)
        params = random_gru(6, 5, seed=15)
        rng = np.random.default_rng(16)
        # Mixed lengths, so most rows are padded for some steps.
        seqs = [
            [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(1, 10)))]
            for _ in range(9)
        ]
        from dialret.encoder import _pad_batch

        idx, mask = _pad_batch(emb, seqs)
        assert not mask.all()
        final, _ = params.forward(emb.matrix[idx], mask)
        for row, seq in zip(final, seqs):
            assert np.max(np.abs(row - reference_gru(params, emb, seq))) < 1e-12

    def test_encode_batch_over_several_blocks(self):
        from dialret.encoder import ENCODE_BLOCK_ROWS

        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=17)
        rng = np.random.default_rng(18)
        seqs = [
            [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(1, 14)))]
            for _ in range(2 * ENCODE_BLOCK_ROWS + 7)
        ]
        for params in (random_gru(6, 5, seed=19),
                       AttentionParams.create(6, np.random.default_rng(20))):
            batched = encode_batch(params, emb, seqs)
            single = np.array([encode(params, emb, seq) for seq in seqs])
            assert np.max(np.abs(batched - single)) < 1e-12

    def test_empty_tokens_rejected(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=0)
        params = AttentionParams.create(6, np.random.default_rng(0))
        with pytest.raises(DataError):
            encode(params, emb, [])


class TestScorePair:
    def test_zero_context_scores_half(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        params = zero_gru(6, 5)
        model = DualEncoderModel(emb, params, params, np.eye(5))
        assert score_pair(model, ["t1", "t2"], ["t3"]) == pytest.approx(0.5)

    def test_sigmoid_of_one(self):
        # Single-token attention passes embeddings through untouched, so
        # unit vectors and an identity interaction give sigma(1).
        emb = EmbeddingTable({"ca": 0, "ra": 1}, np.array([[1.0, 0.0], [1.0, 0.0]]))
        params = AttentionParams.create(2, np.random.default_rng(0))
        model = DualEncoderModel(emb, params, params, np.eye(2))
        assert score_pair(model, ["ca"], ["ra"]) == pytest.approx(0.7310585786300049, abs=1e-9)

    def test_transpose_swap_invariance(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=2)
        params = GruParams.create(6, 5, np.random.default_rng(3))
        bilinear = np.random.default_rng(4).normal(size=(5, 5))
        model = DualEncoderModel(emb, params, params, bilinear)
        swapped = DualEncoderModel(emb, params, params, bilinear.T.copy())
        a = score_pair(model, ["t1", "t2"], ["t3", "t4"])
        b = score_pair(swapped, ["t3", "t4"], ["t1", "t2"])
        assert a == pytest.approx(b, abs=1e-12)

    def test_negated_bilinear_complements(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=5)
        params = GruParams.create(6, 5, np.random.default_rng(6))
        bilinear = np.random.default_rng(7).normal(size=(5, 5))
        model = DualEncoderModel(emb, params, params, bilinear)
        negated = DualEncoderModel(emb, params, params, -bilinear)
        a = score_pair(model, ["t1", "t2"], ["t3"])
        b = score_pair(negated, ["t1", "t2"], ["t3"])
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_symmetry(self):
        xs = np.linspace(-30, 30, 501)
        assert np.max(np.abs(sigmoid(xs) + sigmoid(-xs) - 1.0)) < 1e-12


class TestLossAndGradients:
    def test_zero_model_loss_is_ln2(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        params = zero_gru(6, 5)
        model = DualEncoderModel(emb, params, params, np.zeros((5, 5)))
        loss, _ = loss_and_gradients(
            model, [TrainingExample(("t1",), ("t2",), 1, 0)]
        )
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction_zero_loss_and_grads(self):
        # Saturate the logit so p ~= 1 on a positive example.
        emb = EmbeddingTable({"a": 0, "b": 1}, np.array([[1.0, 0.0], [1.0, 0.0]]))
        params = AttentionParams.create(2, np.random.default_rng(0))
        model = DualEncoderModel(emb, params, params, np.eye(2) * 50.0)
        loss, grads = loss_and_gradients(model, [TrainingExample(("a",), ("b",), 1, 0)])
        assert loss < 1e-12
        for g in grads.values():
            assert np.max(np.abs(g)) < 1e-12

    @pytest.mark.parametrize("variant", ["gru", "attention"])
    @pytest.mark.parametrize("tied", [True, False])
    def test_gradients_match_finite_differences(self, variant, tied):
        emb = random_embeddings(tiny_vocab(), 8, 1.0, seed=2)
        model = DualEncoderModel.create(
            emb, variant=variant, hidden=8, seed=4, tied=tied
        )
        batch = random_batch(tiny_vocab(), np.random.default_rng(11))
        _, analytic = loss_and_gradients(model, batch)
        numeric = finite_difference_gradients(model, batch)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_embedding_gradients_match_finite_differences(self):
        emb = random_embeddings(tiny_vocab(12), 6, 1.0, seed=3)
        model = DualEncoderModel.create(
            emb, variant="gru", hidden=6, seed=5, train_embeddings=True
        )
        batch = random_batch(tiny_vocab(12), np.random.default_rng(12), size=4)
        _, analytic = loss_and_gradients(model, batch)
        assert "embeddings.matrix" in analytic
        numeric = finite_difference_gradients(model, batch)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_nonfinite_parameter_named(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        model = DualEncoderModel.create(emb, variant="gru", hidden=5, seed=0)
        model.bilinear[0, 0] = np.nan
        with pytest.raises(NonFiniteParameterError) as exc:
            loss_and_gradients(model, [TrainingExample(("t1",), ("t2",), 1, 0)])
        assert exc.value.tensor_name == "bilinear"

    def test_empty_batch_rejected(self):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        model = DualEncoderModel.create(emb, variant="gru", hidden=5, seed=0)
        with pytest.raises(DataError):
            loss_and_gradients(model, [])


class TestTrain:
    def make_model_and_data(self, seed=0):
        vocab = tiny_vocab(20)
        emb = random_embeddings(vocab, 6, 1.0, seed=seed)
        model = DualEncoderModel.create(emb, variant="gru", hidden=6, seed=seed)
        batch = random_batch(vocab, np.random.default_rng(seed + 1), size=24)
        return model, TrainingSet.from_examples(batch)

    def test_zero_learning_rate_leaves_parameters(self):
        model, examples = self.make_model_and_data()
        before = {k: v.copy() for k, v in model.trainable_tensors().items()}
        train(model, examples, TrainConfig(learning_rate=0.0, batch_size=8,
                                           max_iterations=20, seed=3, eval_every=5))
        for name, tensor in model.trainable_tensors().items():
            assert np.array_equal(tensor, before[name])

    def test_same_seed_bit_identical(self):
        results = []
        for _ in range(2):
            model, examples = self.make_model_and_data(seed=4)
            train(model, examples, TrainConfig(learning_rate=0.3, batch_size=8,
                                               max_iterations=40, seed=9, eval_every=10))
            results.append({k: v.copy() for k, v in model.trainable_tensors().items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name]), name

    def test_divergence_aborts_with_iteration(self):
        # A step large enough to overflow the parameters themselves; the
        # next iteration must abort rather than propagate NaNs.
        model, examples = self.make_model_and_data(seed=5)
        config = TrainConfig(learning_rate=1e308, batch_size=8,
                             max_iterations=50, seed=1, eval_every=10)
        with pytest.raises(NumericError) as exc, np.errstate(all="ignore"):
            train(model, examples, config)
        if isinstance(exc.value, DivergenceError):
            assert exc.value.iteration >= 1

    def test_resampler_supplies_only_later_epochs(self):
        model, examples = self.make_model_and_data(seed=8)
        calls = []

        def resampler(epoch):
            calls.append(epoch)
            return examples[::-1]

        # 24 examples in batches of 8: 9 iterations are exactly 3 epochs.
        train(model, examples, TrainConfig(learning_rate=0.1, batch_size=8,
                                           max_iterations=9, seed=1, eval_every=3),
              resampler=resampler)
        assert calls == [1, 2]

    def test_empty_set_rejected_in_any_epoch(self):
        model, examples = self.make_model_and_data(seed=8)
        config = TrainConfig(batch_size=8, max_iterations=9, seed=1)
        with pytest.raises(DataError, match="epoch 0"):
            train(model, [], config)
        with pytest.raises(DataError, match="epoch 1"):
            train(model, examples, config, resampler=lambda epoch: [])

    def test_loss_trace_iterations(self):
        model, examples = self.make_model_and_data(seed=6)
        result = train(model, examples, TrainConfig(learning_rate=0.2, batch_size=8,
                                                    max_iterations=25, seed=2,
                                                    eval_every=10))
        assert [it for it, _ in result.loss_trace] == [10, 20, 25]

    def test_loss_decreases_on_learnable_data(self):
        vocab = tiny_vocab(20)
        emb = random_embeddings(vocab, 8, 1.0, seed=7)
        model = DualEncoderModel.create(emb, variant="gru", hidden=8, seed=7)
        # Pairs where context token index equals response token index.
        examples = []
        for i in range(10):
            examples.append(TrainingExample((vocab[i],), (vocab[i],), 1, i))
            examples.append(TrainingExample((vocab[i],), (vocab[(i + 3) % 10],), 0, i))
        first = loss_and_gradients(model, examples)[0]
        train(model, TrainingSet.from_examples(examples),
              TrainConfig(learning_rate=1.0, batch_size=10, max_iterations=300, seed=0,
                          eval_every=100))
        last = loss_and_gradients(model, examples)[0]
        assert last < first / 2


    @pytest.mark.parametrize("variant", ["gru", "attention"])
    @pytest.mark.parametrize("train_embeddings", [False, True])
    def test_first_step_is_loss_and_gradients_plus_clipped_sgd(
        self, variant, train_embeddings
    ):
        def make():
            emb = random_embeddings(tiny_vocab(20), 6, 1.0, seed=21)
            return DualEncoderModel.create(emb, variant=variant, hidden=6, seed=22,
                                           tied=False, train_embeddings=train_embeddings)

        examples = TrainingSet.from_examples(
            random_batch(tiny_vocab(20), np.random.default_rng(23), size=30))
        config = TrainConfig(learning_rate=0.8, batch_size=8, max_iterations=1, seed=24,
                             gradient_clip_norm=1e-3, eval_every=1)
        trained = make()
        result = train(trained, examples, config)

        expected = make()
        lengths = np.array([len(ex.context_tokens) for ex in examples])
        rows = _epoch_batches(lengths, config.batch_size, np.random.default_rng(config.seed))[0]
        batch = [examples[i] for i in rows]
        loss, grads = loss_and_gradients(expected, batch)
        norm = float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
        assert norm > config.gradient_clip_norm
        step = config.learning_rate * (config.gradient_clip_norm / norm)
        for name, tensor in expected.trainable_tensors().items():
            tensor -= step * grads[name]

        assert result.loss_trace == [(1, loss)]
        for name, tensor in trained.trainable_tensors().items():
            assert np.array_equal(tensor, expected.trainable_tensors()[name]), name


def mixed_lengths(n, choices=(3, 10, 17), seed=0):
    return np.random.default_rng(seed).choice(choices, size=n)


def max_steps(lengths, batches):
    """GRU steps an epoch runs over ``batches``: each batch's longest context."""
    return sum(int(lengths[rows].max()) for rows in batches)


class TestIndexedExamples:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_batch_is_pad_batch_of_its_views(self, data):
        vocab = tiny_vocab(12)
        emb = random_embeddings(vocab[:8], 4, 1.0, seed=0)  # t8..t11 are OOV
        tokens = st.lists(st.sampled_from(vocab), min_size=1, max_size=9).map(tuple)
        examples = data.draw(st.lists(st.builds(
            TrainingExample, tokens, tokens, st.integers(0, 1), st.integers(0, 3),
        ), min_size=1, max_size=20))
        trainset = TrainingSet.from_examples(examples)
        rows = np.array(data.draw(st.lists(
            st.integers(0, len(examples) - 1), min_size=1, max_size=10)))
        views = [trainset[i] for i in rows]
        # A short cut, so that both ends of some sequences are dropped.
        with mock.patch.object(encoder_module, "MAX_SEQUENCE_TOKENS", 5):
            batch = _IndexedExamples(emb, trainset).batch(rows)
            expected = (
                *_pad_batch(emb, [truncate_context(v.context_tokens) for v in views]),
                *_pad_batch(emb, [truncate_response(v.response_tokens) for v in views]),
                np.array([v.label for v in views], dtype=np.float64),
            )
        assert len(batch) == len(expected)
        for got, want in zip(batch, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestEpochBatches:
    @pytest.mark.parametrize("n, batch_size", [(1003, 8), (1000, 8), (5, 8), (2000, 7)])
    def test_batches_partition_the_indices_with_at_most_one_short(self, n, batch_size):
        lengths = mixed_lengths(n)
        batches = _epoch_batches(lengths, batch_size, np.random.default_rng(1))
        assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(n))
        sizes = [len(rows) for rows in batches]
        assert sum(size < batch_size for size in sizes) <= 1
        assert all(0 < size <= batch_size for size in sizes)

    @pytest.mark.parametrize("seed", range(5))
    def test_fewer_steps_than_the_unbucketed_order(self, seed):
        # Seed's first draw is the shuffle both orders share, so each
        # bucketed chunk sorts the examples the unbucketed one slices.
        n, batch_size = 3001, 16
        for choices, strict in (((3, 10, 17), True), (tuple(range(1, 31)), False)):
            lengths = mixed_lengths(n, choices, seed=seed + 10)
            order = np.random.default_rng(seed).permutation(n)
            plain = [order[s : s + batch_size] for s in range(0, n, batch_size)]
            bucketed = _epoch_batches(lengths, batch_size, np.random.default_rng(seed))
            assert max_steps(lengths, bucketed) <= max_steps(lengths, plain)
            if strict:
                assert max_steps(lengths, bucketed) < max_steps(lengths, plain)

    def test_a_chunk_is_sorted_by_length_before_it_is_cut(self):
        lengths = mixed_lengths(3000)
        batches = _epoch_batches(lengths, 6, np.random.default_rng(2))
        # A batch spans at most one length boundary of its sorted chunk.
        assert sum(len(set(lengths[rows])) > 1 for rows in batches) <= 2 * -(-3000 // 300)

    def test_same_seed_and_lengths_give_the_same_batches(self):
        lengths = mixed_lengths(777)
        first, second = (_epoch_batches(lengths, 9, np.random.default_rng(5)) for _ in range(2))
        assert len(first) == len(second)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        other = _epoch_batches(lengths, 9, np.random.default_rng(6))
        assert not all(np.array_equal(a, b) for a, b in zip(first, other))

    def test_each_resampled_epoch_buckets_its_own_set(self, monkeypatch):
        vocab = tiny_vocab(20)
        rng = np.random.default_rng(3)

        def examples_with_context(size, tokens):
            return [
                TrainingExample(tuple(vocab[int(i)] for i in rng.integers(0, 20, size=tokens)),
                                (vocab[int(rng.integers(0, 20))],), b % 2, b)
                for b in range(size)
            ]

        # Epoch 0 has 40 one-token contexts; epoch 1 has 56 of 2 to 17
        # tokens, more rows than epoch 0's lengths could index.
        first = examples_with_context(40, 1)
        second = [ex for tokens in (3, 10, 17) for ex in examples_with_context(16, tokens)]
        second += examples_with_context(8, 2)
        seen = []

        def recording(lengths, batch_size, generator):
            seen.append(lengths.copy())
            return _epoch_batches(lengths, batch_size, generator)

        monkeypatch.setattr(encoder_module, "_epoch_batches", recording)
        config = TrainConfig(learning_rate=0.3, batch_size=8, max_iterations=12,
                             seed=11, eval_every=4)
        runs = []
        for _ in range(2):
            emb = random_embeddings(vocab, 6, 1.0, seed=12)
            model = DualEncoderModel.create(emb, variant="gru", hidden=6, seed=13)
            result = train(model, TrainingSet.from_examples(first), config,
                           resampler=lambda epoch: TrainingSet.from_examples(second))
            runs.append((tensor_bytes(model), result.loss_trace))
        assert runs[0] == runs[1]
        expected = [[len(ex.context_tokens) for ex in examples] for examples in (first, second)]
        assert [list(lengths) for lengths in seen] == expected * 2


def make_job(j):
    """Job ``j`` of a mixed set: GRU and attention, tied and untied, with and
    without trained embeddings, with and without a resampler."""
    vocab = tiny_vocab(20)
    emb = random_embeddings(vocab, 6, 1.0, seed=30 + j)
    model = DualEncoderModel.create(
        emb, variant=("gru", "attention")[j % 2], hidden=6, seed=40 + j,
        tied=j % 3 == 0, train_embeddings=j % 4 < 2,
    )
    examples = TrainingSet.from_examples(
        random_batch(vocab, np.random.default_rng(50 + j), size=12 + j))
    config = TrainConfig(learning_rate=0.4, batch_size=8, max_iterations=10 + j,
                         seed=60 + j, eval_every=3)
    resampler = None
    if j % 3 != 1:
        def resampler(epoch):
            return TrainingSet.from_examples(
                random_batch(vocab, np.random.default_rng((70 + j, epoch)), size=9 + epoch))
    return model, examples, config, resampler


def failing_job(j):
    """Job ``j``, made to fail: job 4 on an empty set, the others numerically."""
    model, examples, config, resampler = make_job(j)
    if j == 4:
        return model, [], config, resampler
    return model, examples, dataclasses.replace(config, learning_rate=1e308), resampler


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def tensor_bytes(model):
    return {name: tensor.tobytes() for name, tensor in model.all_tensors().items()}


def train_jobs(jobs):
    return train(*(list(column) for column in zip(*jobs)))


@pytest.fixture(params=[None, 1, 2], ids=["all-cpus", "one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The CPUs ``train`` may use: the process's own, or a patched affinity."""
    if request.param is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))


class TestTrainSeveralJobs:
    def test_each_job_gets_the_bits_of_training_it_alone(self, cpus):
        # Five jobs: more than the patched one and two CPUs.
        jobs = [make_job(j) for j in range(5)]
        live = [model.trainable_tensors() for model, *_ in jobs]
        results = train_jobs(jobs)
        assert len(results) == len(jobs)
        for j, (job, result) in enumerate(zip(jobs, results)):
            alone = make_job(j)
            expected = train(*alone)
            assert result.model is job[0]
            assert result.loss_trace == expected.loss_trace
            assert tensor_bytes(result.model) == tensor_bytes(alone[0])
            # The caller's own arrays hold the trained values.
            for name, tensor in result.model.trainable_tensors().items():
                assert tensor is live[j][name]
        assert no_children_left()

    def test_one_job_list_and_empty_list(self, cpus):
        model, examples, config, resampler = make_job(2)
        [result] = train([model], [examples], [config], [resampler])
        alone = make_job(2)
        assert result.loss_trace == train(*alone).loss_trace
        assert tensor_bytes(model) == tensor_bytes(alone[0])
        assert train([], [], [], []) == []

    def test_unequal_lists_rejected(self):
        model, examples, config, resampler = make_job(0)
        with pytest.raises(ValueError):
            train([model, model], [examples], [config], [resampler])

    @pytest.mark.parametrize("failing", [(0,), (1,), (3,), (1, 2), (2, 3), (2, 4)])
    def test_first_failure_in_list_order_is_raised(self, cpus, failing):
        jobs = [failing_job(j) if j in failing else make_job(j) for j in range(5)]
        with np.errstate(all="ignore"):
            with pytest.raises(Exception) as alone:
                train(*failing_job(failing[0]))
            with pytest.raises(type(alone.value)) as together:
                train_jobs(jobs)
        assert str(together.value) == str(alone.value)
        assert no_children_left()

    def test_parent_interrupt_stops_every_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(encoder_module, "_train_one", lambda *job: time.sleep(60))

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        # The parent trains nothing itself: interrupt it while it waits.
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                train_jobs([make_job(j) for j in range(3)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        assert no_children_left()

    def test_a_free_cpu_starts_the_next_job(self, monkeypatch, tmp_path):
        # Job 0 outlasts jobs 1 and 2 together, so on two CPUs job 2 must
        # start on the CPU job 1 frees, not wait for job 0.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        seconds = {60: 2.0, 61: 0.3, 62: 0.3}

        def timed(model, examples, config, resampler=None):
            start = time.monotonic()
            time.sleep(seconds[config.seed])
            times = f"{start} {time.monotonic()}"
            (tmp_path / f"job{config.seed - 60}").write_text(times)
            return encoder_module.TrainResult(model, [])

        monkeypatch.setattr(encoder_module, "_train_one", timed)
        train_jobs([make_job(j) for j in range(3)])
        times = [[float(t) for t in (tmp_path / f"job{j}").read_text().split()] for j in range(3)]
        assert times[2][0] < times[0][1]  # job 2 started before job 0 ended
        assert no_children_left()

    def test_children_die_with_their_parent(self):
        # A parent killed outright cannot reap its children; they must still
        # stop. PID 1 may not reap orphans, so a zombie counts as gone.
        script = textwrap.dedent("""
            import os, sys, time
            sys.path[:0] = [sys.argv[1], sys.argv[2]]
            import test_encoder
            from dialret import encoder

            def report_and_sleep(*job):
                os.write(1, b"%d\\n" % os.getpid())  # one write: lines never interleave
                time.sleep(60)

            os.sched_getaffinity = lambda pid: {0, 1}
            encoder._train_one = report_and_sleep
            test_encoder.train_jobs([test_encoder.make_job(j) for j in range(2)])
        """)
        tests_dir = os.path.dirname(__file__)
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        parent = subprocess.Popen(
            [sys.executable, "-c", script, src_dir, tests_dir], stdout=subprocess.PIPE, text=True
        )
        try:
            pids = [int(parent.stdout.readline()) for _ in range(2)]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()

        def gone(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
            except FileNotFoundError:
                return True

        deadline = time.monotonic() + 5
        while not all(map(gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(gone, pids))

    def test_a_worker_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()
        real = encoder_module._train_one

        def dies_in_worker(*job):
            if os.getpid() != parent:
                os._exit(3)
            return real(*job)

        monkeypatch.setattr(encoder_module, "_train_one", dies_in_worker)
        with pytest.raises(DialretError, match="exited with code 3"):
            train_jobs([make_job(j) for j in range(2)])
        assert no_children_left()


class TestGruParams:
    def test_tied_model_trains_fused_tensors(self):
        emb = random_embeddings(tiny_vocab(), 4, 1.0, seed=25)
        model = DualEncoderModel.create(emb, variant="gru", hidden=3, seed=25)
        shapes = {name: t.shape for name, t in model.trainable_tensors().items()}
        assert shapes == {
            "bilinear": (3, 3), "encoder.w": (9, 4), "encoder.u": (9, 3), "encoder.b": (9,),
        }

    @pytest.mark.parametrize("name, shape", [
        ("w", (10, 4)), ("u", (9, 4)), ("b", (12,)), ("w", (9,)),
    ])
    def test_misshapen_tensor_rejected(self, name, shape):
        tensors = random_gru(4, 3, seed=26).tensors()
        tensors[name] = np.zeros(shape)
        with pytest.raises(DataError, match=f"GRU tensor {name} "):
            GruParams(**tensors)


class TestAttentionParams:
    @pytest.mark.parametrize("proj, score", [
        ((3, 3), (2,)), ((3, 2), (3,)), ((3,), (3,)),
    ])
    def test_misshapen_tensor_rejected(self, proj, score):
        with pytest.raises(DataError, match="attention tensors"):
            AttentionParams(proj=np.zeros(proj), score=np.zeros(score))


class TestCheckpoint:
    @pytest.mark.parametrize("variant", ["gru", "attention"])
    @pytest.mark.parametrize("tied", [True, False])
    def test_roundtrip(self, tmp_path, variant, tied):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        model = DualEncoderModel.create(emb, variant=variant, hidden=5, seed=2, tied=tied)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.tied == model.tied
        assert loaded.embeddings.vocab == model.embeddings.vocab
        for name, tensor in model.all_tensors().items():
            assert np.array_equal(loaded.all_tensors()[name], tensor), name
        # Loaded model scores identically.
        a = score_pair(model, ["t1", "t2"], ["t3"])
        b = score_pair(loaded, ["t1", "t2"], ["t3"])
        assert a == b

    def test_save_is_byte_deterministic(self, tmp_path):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        model = DualEncoderModel.create(emb, variant="gru", hidden=5, seed=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_sha256_checked_on_the_bytes_read(self, tmp_path):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        path = tmp_path / "model.ckpt"
        actual = save_checkpoint(DualEncoderModel.create(emb, variant="gru", hidden=5, seed=2), path)
        # The pin is the SHA-256 of the prefix and header, which hold the payload hash.
        data = path.read_bytes()
        assert actual == hashlib.sha256(data[: 16 + int.from_bytes(data[8:16], "little")]).hexdigest()
        load_checkpoint(path, actual)
        with pytest.raises(DataError) as exc:
            load_checkpoint(path, "0" * 64)
        message = str(exc.value)
        assert str(path) in message and actual[:12] in message and "0" * 12 in message

    @pytest.mark.parametrize("tensor, value", [("bilinear", np.nan), ("embeddings", np.inf)])
    def test_non_finite_tensor_rejected(self, tmp_path, tensor, value):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        model = DualEncoderModel.create(emb, variant="gru", hidden=5, seed=2)
        (model.bilinear if tensor == "bilinear" else model.embeddings.matrix)[0, 0] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match=f"'{tensor}.*non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("variant, tied", [("gru", True), ("attention", False)])
    def test_training_a_loaded_checkpoint_matches_the_original(self, tmp_path, variant, tied):
        emb = random_embeddings(tiny_vocab(20), 6, 1.0, seed=3)
        model = DualEncoderModel.create(emb, variant=variant, hidden=6, seed=3, tied=tied,
                                        train_embeddings=True)
        save_checkpoint(model, tmp_path / "model.ckpt")
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        assert all(t.flags.writeable for t in loaded.all_tensors().values())
        examples = TrainingSet.from_examples(
            random_batch(tiny_vocab(20), np.random.default_rng(5), size=24))
        config = TrainConfig(learning_rate=0.3, batch_size=8, max_iterations=30, seed=9,
                             eval_every=10)
        traces = [train(m, examples, config).loss_trace for m in (model, loaded)]
        assert traces[0] == traces[1]
        save_checkpoint(model, tmp_path / "a.ckpt")
        save_checkpoint(loaded, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_loaded_model_is_trainable(self, tmp_path):
        emb = random_embeddings(tiny_vocab(), 6, 1.0, seed=1)
        model = DualEncoderModel.create(emb, variant="gru", hidden=5, seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        examples = TrainingSet.from_examples([TrainingExample(("t1",), ("t2",), 1, 0)])
        train(loaded, examples, TrainConfig(learning_rate=0.1, batch_size=1,
                                            max_iterations=3, seed=0, eval_every=1))
