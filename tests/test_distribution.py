import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialret import distribution
from dialret.corpus import extract_all_pairs
from dialret.distribution import (
    ResponseDistribution,
    TransformSpec,
    count_responses,
    distribution_report,
    format_report,
    response_vectors,
    transform,
)
from dialret.encoder import random_embeddings
from dialret.errors import ConfigError, DataError
from dialret.synthetic import make_synthetic_corpus


def dist_from(probs, responses=None, counts=None):
    if responses is None:
        responses = [f"r{i}" for i in range(len(probs))]
    return ResponseDistribution(responses, probs, counts)


def random_distribution(rng, n):
    w = rng.random(n) + 1e-3
    return dist_from(w / w.sum())


class TestCountResponses:
    def test_basic_counts(self):
        pairs = make_pairs(["a", "a", "b"])
        dist = count_responses(pairs)
        assert dist.prob("a") == pytest.approx(2 / 3)
        assert dist.count("a") == 2
        assert dist.prob("b") == pytest.approx(1 / 3)
        assert dist.count("b") == 1

    def test_single_response(self):
        dist = count_responses(make_pairs(["same", "same", "same"]))
        assert len(dist) == 1
        assert dist.prob("same") == 1.0

    def test_empty_input(self):
        with pytest.raises(DataError):
            count_responses([])

    def test_zipf_corpus_matches_independent_recount(self):
        dialogues = make_synthetic_corpus(600, 40, 120, 1.0, seed=3)
        pairs = extract_all_pairs(dialogues)
        assert len(pairs) >= 1000
        dist = count_responses(pairs)
        oracle = Counter(p.response_text for p in pairs)
        assert set(dist.responses) == set(oracle)
        total = sum(oracle.values())
        for response, count in oracle.items():
            assert dist.count(response) == count
            assert dist.prob(response) == count / total


def make_pairs(responses):
    from dialret.corpus import ContextResponsePair

    return [
        ContextResponsePair(
            pair_id=i,
            context_tokens=("ctx",),
            response_text=r,
            response_tokens=tuple(r.split()),
            dialogue_id=f"d{i}",
            turn_index=1,
        )
        for i, r in enumerate(responses)
    ]


class TestTransformSpec:
    def test_parse_roundtrip(self):
        assert TransformSpec.parse("identity").kind == "identity"
        assert TransformSpec.parse("uniform").kind == "uniform"
        power = TransformSpec.parse("power:-0.25")
        assert power.kind == "power" and power.degree == -0.25
        kde = TransformSpec.parse("kde:0.4")
        assert kde.kind == "kde" and kde.bandwidth == 0.4

    def test_label_is_canonical(self):
        for label in ("identity", "uniform", "power:-0.5", "power:-0.125", "power:1",
                      "power:12", "kde:0.4"):
            assert TransformSpec.parse(label).label() == label
        for text, label in (("KDE:0.40", "kde:0.4"), ("kde", "kde:0.4"), ("Power:1.0", "power:1")):
            assert TransformSpec.parse(text).label() == label
        # A parameter that %g would round keeps every digit.
        for spec in (TransformSpec.power(0.1234567), TransformSpec.kde_smoothed(1 / 3)):
            assert TransformSpec.parse(spec.label()) == spec

    def test_negative_zero_degree_labels_as_zero(self):
        for text in ("power:0", "power:-0", "power:-0.0", "power:-1e-400"):
            assert TransformSpec.parse(text).label() == "power:0"
        assert TransformSpec.power(-0.0).label() == "power:0"

    def test_parse_rejects_garbage(self):
        for bad in ("nope", "power:xyz", "kde:0") + ("power",):
            with pytest.raises(ConfigError):
                TransformSpec.parse(bad)

    @pytest.mark.parametrize("bad", ["uniform:3", "uniform:bogus", "identity:x", "Identity:"])
    def test_parse_rejects_a_parameter_on_a_bare_transform(self, bad):
        with pytest.raises(ConfigError, match="takes no parameter"):
            TransformSpec.parse(bad)

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigError):
            TransformSpec.kde_smoothed(0.0)


class TestPowerTransform:
    def test_degree_zero_is_uniform(self):
        dist = dist_from([0.5, 0.25, 0.25])
        out = transform(dist, TransformSpec.power(0.0))
        assert np.allclose(out.probs, [1 / 3] * 3, atol=1e-15)

    def test_degree_one_is_identity(self):
        dist = dist_from([0.5, 0.25, 0.25])
        out = transform(dist, TransformSpec.power(1.0))
        assert np.allclose(out.probs, dist.probs, atol=1e-15)

    def test_frozen_value_minus_quarter(self):
        # High-precision evaluation of p^d / sum(p^d) for d = -0.25:
        # [0.2959968589..., 0.3520015706..., 0.3520015706...]
        dist = dist_from([0.5, 0.25, 0.25])
        out = transform(dist, TransformSpec.power(-0.25))
        assert np.allclose(out.probs, [0.29600, 0.35200, 0.35200], atol=1e-5)

    def test_single_entry_stays_one(self):
        dist = dist_from([1.0])
        out = transform(dist, TransformSpec.power(-3.0))
        assert out.probs[0] == pytest.approx(1.0)

    def test_negative_degree_reverses_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dist = random_distribution(rng, int(rng.integers(2, 12)))
            out = transform(dist, TransformSpec.power(-float(rng.uniform(0.05, 2.0))))
            p, q = dist.probs, out.probs
            for i in range(len(p)):
                for j in range(len(p)):
                    if p[i] > p[j]:
                        assert q[i] < q[j]

    def test_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            dist = random_distribution(rng, int(rng.integers(2, 10)))
            d1, d2 = rng.uniform(-1.5, 1.5, size=2)
            via_two = transform(
                transform(dist, TransformSpec.power(d1)), TransformSpec.power(d2)
            )
            direct = transform(dist, TransformSpec.power(d1 * d2))
            assert np.allclose(via_two.probs, direct.probs, atol=1e-9)

    def test_counts_carried_through(self):
        dist = dist_from([0.5, 0.5], counts=[7, 3])
        out = transform(dist, TransformSpec.power(-0.5))
        assert list(out.counts) == [7, 3]


class TestUniformTransform:
    def test_uniform_probs(self):
        out = transform(dist_from([0.7, 0.2, 0.1]), TransformSpec.uniform())
        assert np.allclose(out.probs, [1 / 3] * 3, atol=1e-15)

    def test_invariant_to_input_probs(self):
        a = transform(dist_from([0.9, 0.05, 0.05]), TransformSpec.uniform())
        b = transform(dist_from([0.2, 0.3, 0.5]), TransformSpec.uniform())
        assert np.allclose(a.probs, b.probs)


class TestTransformInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=20),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    def test_sum_one_support_preserved(self, weights, degree):
        probs = np.array(weights) / np.sum(weights)
        dist = dist_from(probs)
        for spec in (
            TransformSpec.identity(),
            TransformSpec.uniform(),
            TransformSpec.power(degree),
        ):
            out = transform(dist, spec)
            assert abs(out.probs.sum() - 1.0) < 1e-9
            assert out.responses == dist.responses
            assert np.all(out.probs > 0)


class TestKdeTransform:
    def embeddings(self, seed=0, dim=8):
        vocab = [f"w{i}" for i in range(40)]
        return random_embeddings(vocab, dim, 1.0, seed=seed)

    def test_requires_embeddings(self):
        with pytest.raises(DataError):
            transform(dist_from([0.5, 0.5]), TransformSpec.kde_smoothed(0.4))

    def test_identical_vectors_get_equal_probs(self):
        emb = self.embeddings()
        # Same token sequence -> identical response vectors.
        dist = dist_from([0.8, 0.2], responses=["w1 w2", "w2 w1"])
        out = transform(dist, TransformSpec.kde_smoothed(0.4), emb)
        assert out.probs[0] == pytest.approx(out.probs[1], abs=1e-12)

    def test_bandwidth_to_infinity_approaches_uniform(self):
        emb = self.embeddings(seed=5)
        rng = np.random.default_rng(2)
        dist = dist_from(
            rng.dirichlet(np.ones(10)), responses=[f"w{i} w{i+1}" for i in range(10)]
        )
        out = transform(dist, TransformSpec.kde_smoothed(1e3), emb)
        assert np.max(np.abs(out.probs - 0.1)) < 1e-3

    def test_bandwidth_to_zero_approaches_input(self):
        emb = self.embeddings(seed=6)
        rng = np.random.default_rng(3)
        dist = dist_from(
            rng.dirichlet(np.ones(10)), responses=[f"w{i} w{i+1}" for i in range(10)]
        )
        out = transform(dist, TransformSpec.kde_smoothed(1e-6), emb)
        assert np.max(np.abs(out.probs - dist.probs)) < 1e-3

    def test_response_vectors_unit_norm(self):
        emb = self.embeddings(seed=7)
        vectors = response_vectors(["w1 w2 w3", "w4", "w5 w6"], emb)
        norms = np.linalg.norm(vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_counts_carried_through(self):
        emb = self.embeddings()
        dist = dist_from([0.5, 0.5], responses=["w1", "w2"], counts=[4, 9])
        out = transform(dist, TransformSpec.kde_smoothed(0.4), emb)
        assert list(out.counts) == [4, 9]


def dense_kde_weights(dist, bandwidth, emb):
    """The kde weights through full n×n temporaries, as one expression."""
    v = response_vectors(dist.responses, emb)
    sq_norms = np.sum(v * v, axis=1)
    sq_dist = sq_norms[:, None] - 2.0 * (v @ v.T) + sq_norms[None, :]
    np.maximum(sq_dist, 0.0, out=sq_dist)
    return np.exp(-sq_dist / (2.0 * bandwidth**2)) @ dist.probs


def word_pair_distribution(words, seed):
    """A distribution over every two-word response ``"wA wB"``, A, B < words."""
    responses = [f"w{a} w{b}" for a in range(words) for b in range(words)]
    weights = np.random.default_rng(seed).random(len(responses)) + 1e-3
    return dist_from(weights / weights.sum(), responses=responses)


class TestKdeBlocks:
    def embeddings(self, words):
        return random_embeddings([f"w{i}" for i in range(words)], 16, 1.0, seed=9)

    def test_one_block_is_the_dense_expression_bit_for_bit(self):
        dist = word_pair_distribution(20, seed=1)
        assert distribution.KDE_BLOCK_BYTES // (8 * len(dist)) >= len(dist)
        emb = self.embeddings(20)
        weights = distribution._kde_weights(dist, 0.4, emb)
        assert np.array_equal(weights, dense_kde_weights(dist, 0.4, emb))

    def test_several_blocks_agree_with_the_dense_expression(self, monkeypatch):
        dist = word_pair_distribution(20, seed=2)
        # 400 responses in row blocks of 130: three full blocks and one row.
        monkeypatch.setattr(distribution, "KDE_BLOCK_BYTES", 8 * len(dist) * 130)
        emb = self.embeddings(20)
        weights = distribution._kde_weights(dist, 0.4, emb)
        dense = dense_kde_weights(dist, 0.4, emb)
        assert np.max(np.abs(weights - dense) / dense) <= 1e-12

    def test_memory_stays_bounded_on_a_wide_support(self):
        dist = word_pair_distribution(78, seed=3)
        assert len(dist) == 6084
        emb = self.embeddings(78)
        tracemalloc.start()
        try:
            out = transform(dist, TransformSpec.kde_smoothed(0.4), emb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.responses == dist.responses
        # One dense n×n float64 temporary alone would take 296 MB.
        assert peak < 64 * 2**20


class TestDistributionReport:
    def test_two_entry_table(self):
        dist = ResponseDistribution.from_counts({"a": 2, "b": 1})
        rows = distribution_report(dist)
        assert [(r.rank, r.response, r.prob) for r in rows] == [
            (1, "a", 2 / 3),
            (2, "b", 1 / 3),
        ]

    def test_uniform_five_rows(self):
        dist = dist_from([0.2] * 5)
        rows = distribution_report(dist)
        assert len(rows) == 5
        assert all(r.prob == pytest.approx(0.2) for r in rows)

    def test_zipf_loglog_slope(self):
        # Counts proportional to 1/rank give slope -1 in log-log space;
        # least-squares fit is the oracle.
        n = 1000
        counts = {f"r{r}": round(1e9 / r) for r in range(1, n + 1)}
        dist = ResponseDistribution.from_counts(counts)
        rows = distribution_report(dist)
        x = np.log([row.rank for row in rows])
        y = np.log([row.prob for row in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - (-1.0)) < 0.1

    def test_format_is_tab_separated(self):
        dist = ResponseDistribution.from_counts({"hello !": 2, "bye": 1})
        text = format_report(distribution_report(dist))
        lines = text.splitlines()
        assert lines[0].split("\t") == ["1", "2", repr(2 / 3), "hello !"]
        assert lines[1].split("\t") == ["2", "1", repr(1 / 3), "bye"]


class TestDistributionValidation:
    def test_rejects_nonpositive_probs(self):
        with pytest.raises(DataError):
            dist_from([0.5, 0.5, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(DataError):
            dist_from([0.5, 0.4])

    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            dist_from([0.5, 0.5], responses=["x", "x"])
