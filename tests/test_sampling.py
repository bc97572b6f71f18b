import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dialret import distribution
from dialret.corpus import ContextResponsePair, extract_all_pairs
from dialret.distribution import (
    ResponseDistribution,
    TransformSpec,
    count_responses,
    transform,
)
from dialret.encoder import random_embeddings
from dialret.errors import CandidatePoolError, DataError
from dialret.sampling import (
    AliasSampler,
    SamplingStrategy,
    TrainingExample,
    TrainingSet,
    build_training_set,
    draw_distinct_alternatives,
    draw_negatives,
    make_epoch_resampler,
    write_training_set,
)
from dialret.seeding import derive_rng
from dialret.synthetic import corpus_vocabulary, make_synthetic_corpus


def dist_from(probs, responses=None, counts=None):
    if responses is None:
        responses = [f"r{i}" for i in range(len(probs))]
    return ResponseDistribution(responses, probs, counts)


def cumulative_search_draws(probs, rng, size):
    """Naive inverse-CDF sampler used as the alias-table oracle."""
    cumulative = np.cumsum(probs)
    return np.searchsorted(cumulative, rng.random(size), side="right")


class TestAliasSampler:
    def test_effective_probs_match_weights_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            weights = rng.random(n) + 1e-6
            sampler = AliasSampler(weights)
            assert np.allclose(
                sampler.effective_probs(), weights / weights.sum(), atol=1e-12
            )

    def test_draws_match_cumulative_search_oracle(self):
        rng = np.random.default_rng(1)
        probs = np.array([0.55, 0.3, 0.1, 0.05])
        sampler = AliasSampler(probs)
        n = 60_000
        alias_counts = np.bincount(sampler.draw(np.random.default_rng(2), n), minlength=4)
        oracle_counts = np.bincount(
            cumulative_search_draws(probs, np.random.default_rng(3), n), minlength=4
        )
        # Both empirical distributions must fit the same target.
        assert stats.chisquare(alias_counts, probs * n).pvalue > 0.01
        assert stats.chisquare(oracle_counts, probs * n).pvalue > 0.01

    def test_deterministic_under_seed(self):
        sampler = AliasSampler([0.2, 0.5, 0.3])
        a = sampler.draw(np.random.default_rng(7), 100)
        b = sampler.draw(np.random.default_rng(7), 100)
        assert np.array_equal(a, b)

    def test_rejects_bad_weights(self):
        for bad in ([], [0.0, 0.0], [-1.0, 2.0], [np.nan, 1.0]):
            with pytest.raises(DataError):
                AliasSampler(bad)


class TestDrawNegatives:
    def test_conditional_uniform_chi_square(self):
        dist = dist_from([1 / 3] * 3, responses=["a", "b", "c"])
        rng = derive_rng(5, "negatives")
        draws = draw_negatives(dist, "a", 100_000, rng)
        counts = np.array([draws.count("b"), draws.count("c")])
        assert counts.sum() == 100_000
        assert stats.chisquare(counts, [50_000, 50_000]).pvalue > 0.01
        assert "a" not in draws

    def test_exclusion_forces_remainder(self):
        dist = dist_from([0.99, 0.01], responses=["a", "b"])
        draws = draw_negatives(dist, "a", 500, derive_rng(1, "x"))
        assert set(draws) == {"b"}

    def test_deterministic_sequence(self):
        dist = dist_from([0.5, 0.3, 0.2])
        a = draw_negatives(dist, "r0", 50, derive_rng(9, "s"))
        b = draw_negatives(dist, "r0", 50, derive_rng(9, "s"))
        assert a == b

    def test_single_entry_errors(self):
        with pytest.raises(DataError):
            draw_negatives(dist_from([1.0]), "r0", 3, derive_rng(0))

    def test_unknown_true_response_draws_unconditionally(self):
        dist = dist_from([0.5, 0.5], responses=["a", "b"])
        draws = draw_negatives(dist, "not-present", 200, derive_rng(2, "u"))
        assert set(draws) <= {"a", "b"}


def unbounded_distinct_alternatives(dist, true_response, m, rng):
    """The alternatives draw before it had a round bound, kept as the reference stream."""
    responses = dist.responses
    sampler = dist.sampler()
    chosen = []
    seen = {true_response}
    while len(chosen) < m:
        for i in sampler.draw(rng, m - len(chosen)):
            text = responses[i]
            if text not in seen:
                seen.add(text)
                chosen.append(text)
    return chosen


def concentrated(label):
    """r0 with 1000 occurrences and r1..r49 with one each, transformed by ``label``."""
    counts = {"r0": 1000, **{f"r{i}": 1 for i in range(1, 50)}}
    return transform(ResponseDistribution.from_counts(counts), TransformSpec.parse(label))


class TestDrawBound:
    def test_too_concentrated_alternatives_raise(self):
        # power:12 leaves r1..r49 about 1e-36 of the mass: nine distinct
        # alternatives besides r1 cannot be found, and the draw must say so.
        with pytest.raises(CandidatePoolError, match="10000 draw rounds"):
            draw_distinct_alternatives(concentrated("power:12"), "r1", 9, derive_rng(0))

    def test_too_concentrated_negatives_raise(self):
        with pytest.raises(DataError, match="failed to exclude"):
            draw_negatives(concentrated("power:12"), "r0", 5, derive_rng(0))

    @pytest.mark.parametrize("label", ["identity", "uniform", "power:-0.5"])
    def test_bounded_draw_keeps_the_unbounded_stream(self, label):
        counts = {f"r{i}": max(1, 400 // (i + 1)) for i in range(30)}
        dist = transform(ResponseDistribution.from_counts(counts), TransformSpec.parse(label))
        for seed in range(20):
            for pair_id in range(10):
                true = f"r{(seed * 7 + pair_id) % 30}"
                got = draw_distinct_alternatives(dist, true, 9, derive_rng(seed, "p", pair_id))
                want = unbounded_distinct_alternatives(
                    dist, true, 9, derive_rng(seed, "p", pair_id)
                )
                assert got == want, (seed, pair_id)


def make_pairs(responses):
    from dialret.corpus import ContextResponsePair

    return [
        ContextResponsePair(
            pair_id=i,
            context_tokens=("ctx", str(i)),
            response_text=r,
            response_tokens=tuple(r.split()),
            dialogue_id=f"d{i}",
            turn_index=1,
        )
        for i, r in enumerate(responses)
    ]


class TestBuildTrainingSet:
    def test_ratio_one_to_five(self):
        pairs = make_pairs([f"resp {i % 10}" for i in range(100)])
        dist = count_responses(pairs)
        examples = build_training_set(
            pairs, dist, SamplingStrategy(neg_per_pos=5), derive_rng(3, "b")
        )
        assert len(examples) == 600
        assert sum(e.label for e in examples) == 100

    def test_negatives_never_equal_true_response(self):
        pairs = make_pairs([f"resp {i % 7}" for i in range(80)])
        dist = count_responses(pairs)
        examples = build_training_set(
            pairs, dist, SamplingStrategy(neg_per_pos=5), derive_rng(4, "c")
        )
        truth = {p.pair_id: p.response_text for p in pairs}
        for ex in examples:
            if ex.label == 0:
                assert " ".join(ex.response_tokens) != truth[ex.source_pair_id]

    def test_inverse_count_filter_expectation(self):
        # One response occurring 4 times: expected surviving positives 1.
        pairs = make_pairs(["quad"] * 4 + ["x", "y", "z"])
        dist = count_responses(pairs)
        strategy = SamplingStrategy(neg_per_pos=1, filter_by_inverse_count=True)
        survivors = []
        for seed in range(2000):
            examples = build_training_set(pairs, dist, strategy, derive_rng(seed, "f"))
            survivors.append(
                sum(
                    1
                    for e in examples
                    if e.label == 1 and " ".join(e.response_tokens) == "quad"
                )
            )
        mean = np.mean(survivors)
        sem = np.std(survivors, ddof=1) / np.sqrt(len(survivors))
        assert abs(mean - 1.0) <= 3 * sem

    def test_uniform_transform_flattens_negative_frequencies(self):
        dialogues = make_synthetic_corpus(300, 20, 60, 1.2, seed=6)
        pairs = extract_all_pairs(dialogues)
        dist = count_responses(pairs)
        top = int(np.argmax(dist.probs))
        top_response, top_prob = dist.responses[top], dist.probs[top]
        strategy = SamplingStrategy(transform=TransformSpec.uniform(), neg_per_pos=5)
        examples = build_training_set(pairs, dist, strategy, derive_rng(8, "u"))
        negatives = [e for e in examples if e.label == 0]
        observed = sum(
            1 for e in negatives if " ".join(e.response_tokens) == top_response
        ) / len(negatives)
        # Expectation under the uniform transform with per-pair exclusion:
        # pairs whose truth is the top response can never draw it, the
        # rest draw it with probability 1/(n-1).
        n = len(dist)
        share_other = sum(1 for p in pairs if p.response_text != top_response) / len(pairs)
        expected = share_other / (n - 1)
        sigma = np.sqrt(expected * (1 - expected) / len(negatives))
        assert abs(observed - expected) < 4 * sigma + 1e-9
        # And nowhere near the empirical probability of the top response.
        assert observed < top_prob / 3

    def test_sampler_marginal_matches_transform_targets(self):
        rng = np.random.default_rng(11)
        base = rng.dirichlet(np.ones(30) * 0.5)
        dist = dist_from(base)
        for spec in (
            TransformSpec.identity(),
            TransformSpec.uniform(),
            TransformSpec.power(-0.125),
            TransformSpec.power(-0.25),
        ):
            target = transform(dist, spec)
            draws = target.sampler().draw(derive_rng(21, spec.label()), 20_000)
            counts = np.bincount(draws, minlength=len(dist))
            pvalue = stats.chisquare(counts, target.probs * 20_000).pvalue
            assert pvalue > 0.01, spec.label()

    def test_requires_counts_when_filtering(self):
        pairs = make_pairs(["a", "b"])
        dist = dist_from([0.5, 0.5], responses=["a", "b"], counts=[0, 0])
        with pytest.raises(DataError):
            build_training_set(
                pairs,
                dist,
                SamplingStrategy(neg_per_pos=1, filter_by_inverse_count=True),
                derive_rng(0),
            )

    def test_filtering_a_response_outside_the_distribution_is_a_data_error(self):
        pairs = make_pairs(["a", "c"])
        dist = dist_from([0.5, 0.5], responses=["a", "b"], counts=[1, 1])
        filtered = SamplingStrategy(neg_per_pos=1, filter_by_inverse_count=True)
        with pytest.raises(DataError, match="no occurrence count for response 'c'"):
            build_training_set(pairs, dist, filtered, derive_rng(0))

    def test_epoch_resampler_deterministic(self):
        pairs = make_pairs([f"resp {i % 5}" for i in range(20)])
        dist = count_responses(pairs)
        resample = make_epoch_resampler(pairs, dist, SamplingStrategy(), 77)
        assert resample(0) == resample(0)
        assert resample(0) != resample(1)

    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("label", ["identity", "uniform", "power:-0.5", "kde:0.4"])
    def test_epoch_resampler_equals_build_training_set(self, label, filtered):
        dialogues = make_synthetic_corpus(200, 25, 80, 1.0, seed=3)
        pairs = extract_all_pairs(dialogues)
        dist = count_responses(pairs)
        emb = random_embeddings(corpus_vocabulary(dialogues), 8, 1.0, seed=4)
        strategy = SamplingStrategy(
            transform=TransformSpec.parse(label), neg_per_pos=3,
            filter_by_inverse_count=filtered,
        )
        resample = make_epoch_resampler(pairs, dist, strategy, 55, emb)
        for epoch in range(3):
            rng = derive_rng(55, "resample-epoch", epoch)
            assert resample(epoch) == build_training_set(pairs, dist, strategy, rng, emb)

    def test_epoch_resampler_transforms_once(self, monkeypatch):
        calls = []
        kde_weights = distribution._kde_weights
        monkeypatch.setattr(
            distribution, "_kde_weights", lambda *a: calls.append(1) or kde_weights(*a)
        )
        dialogues = make_synthetic_corpus(100, 15, 50, 1.0, seed=3)
        pairs = extract_all_pairs(dialogues)
        emb = random_embeddings(corpus_vocabulary(dialogues), 8, 1.0, seed=4)
        strategy = SamplingStrategy(transform=TransformSpec.kde_smoothed(0.4))
        resample = make_epoch_resampler(pairs, count_responses(pairs), strategy, 9, emb)
        for epoch in range(3):
            resample(epoch)
        assert len(calls) == 1


# SHA-256 of the written training set per (transform, inverse-count
# filter) on the golden corpus below. They pin the generator stream of
# build_training_set: which calls it makes, in which order, of which size.
GOLDEN_TRAINSETS = {
    ("identity", False): (
        "bb2221b663d8fc9ce52c3650f1359b9c0ab05ad4d204092ca7de28a2995f3bd5"
    ),
    ("uniform", False): (
        "5846f87e205f4176e1b4870591379db7314fe519b789ad981bff4c7027606f6c"
    ),
    ("power:-0.5", False): (
        "8eaeb28f817de05a86c1209ebd9a33181817f1491e0e77f1613c9c628268f27f"
    ),
    ("kde:0.4", False): (
        "25abc4096f7aae84a1b3efe532429863c3765f0df4cdeb29aff3177c544d3e7d"
    ),
    ("identity", True): (
        "d1371daffa3ee708790a5864a1c894b3860f75e330408cad112891b011169b50"
    ),
}


@pytest.fixture(scope="module")
def golden_corpus():
    """5970 pairs over 2378 distinct responses: several kde row blocks."""
    dialogues = make_synthetic_corpus(3000, 3000, 6050, 0.5, seed=11)
    pairs = extract_all_pairs(dialogues)
    emb = random_embeddings(corpus_vocabulary(dialogues), 16, 1.0, seed=12)
    return pairs, count_responses(pairs), emb


@pytest.mark.parametrize("label, filtered", list(GOLDEN_TRAINSETS))
def test_golden_trainset(golden_corpus, tmp_path, label, filtered):
    pairs, dist, emb = golden_corpus
    assert len(dist) == 2378
    # At least three kde row blocks.
    assert 2 * (distribution.KDE_BLOCK_BYTES // (8 * len(dist))) < len(dist)
    strategy = SamplingStrategy(
        transform=TransformSpec.parse(label), neg_per_pos=5,
        filter_by_inverse_count=filtered,
    )
    examples = build_training_set(pairs, dist, strategy, derive_rng(0, "golden", label), emb)
    path = tmp_path / "trainset.jsonl"
    write_training_set(path, examples)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_TRAINSETS[label, filtered]


def reference_training_set(pairs, dist, strategy, rng, embeddings=None):
    """The build as one TrainingExample object per example, kept as the reference."""
    sample_dist = transform(dist, strategy.transform, embeddings)
    examples = []
    for pair in pairs:
        if strategy.filter_by_inverse_count:
            count = dist.count(pair.response_text) if pair.response_text in dist else 0
            if count < 1:
                raise DataError(f"no occurrence count for response {pair.response_text!r}")
            if rng.random() >= 1.0 / count:
                continue
        context, pair_id = pair.context_tokens, pair.pair_id
        examples.append(TrainingExample(context, pair.response_tokens, 1, pair_id))
        for negative in draw_negatives(sample_dist, pair.response_text, strategy.neg_per_pos, rng):
            examples.append(TrainingExample(context, tuple(negative.split(" ")), 0, pair_id))
    return examples


# Tokens with non-ASCII, a quote and a backslash; none holds a space, as
# no tokenized text does.
TOKENS = ["a", "b", "c", "ок", "⟨eou⟩", 'say"hi"', "back\\slash"]
token_tuples = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4).map(tuple)
STRATEGY_KINDS = {
    "identity": lambda k: SamplingStrategy(neg_per_pos=k),
    "uniform": lambda k: SamplingStrategy(TransformSpec.uniform(), k),
    "power": lambda k: SamplingStrategy(TransformSpec.power(-0.5), k),
    "kde": lambda k: SamplingStrategy(TransformSpec.kde_smoothed(0.4), k),
    "filtered": lambda k: SamplingStrategy(neg_per_pos=k, filter_by_inverse_count=True),
}
KDE_EMBEDDINGS = random_embeddings(TOKENS, 4, 1.0, seed=0)


@st.composite
def sampling_problems(draw):
    """Pairs, a distribution that may lack some of their responses, a strategy."""
    responses = draw(st.lists(token_tuples, min_size=1, max_size=6, unique=True))
    pairs = [
        ContextResponsePair(
            pair_id=draw(st.integers(0, 50)), context_tokens=draw(token_tuples),
            response_text=" ".join(response), response_tokens=response,
            dialogue_id=f"d{i}", turn_index=1,
        )
        for i, response in enumerate(draw(st.lists(st.sampled_from(responses), max_size=12)))
    ]
    kept = draw(st.lists(st.sampled_from(responses), min_size=1, unique=True))
    extra = draw(st.lists(token_tuples, max_size=3))
    counts = {" ".join(r): draw(st.integers(1, 4)) for r in kept + extra}
    kind = draw(st.sampled_from(sorted(STRATEGY_KINDS)))
    strategy = STRATEGY_KINDS[kind](draw(st.integers(1, 4)))
    return pairs, ResponseDistribution.from_counts(counts), strategy, draw(st.integers(0, 9))


def outcome(build, *args):
    """What ``build`` returns, as a list, or the type and text of what it raised."""
    try:
        return list(build(*args))
    except DataError as exc:
        return type(exc), str(exc)


class TestTrainingSet:
    @settings(max_examples=150, deadline=None)
    @given(sampling_problems(), st.data())
    def test_views_equal_the_reference_build(self, problem, data):
        pairs, dist, strategy, seed = problem
        args = (pairs, dist, strategy)
        expected = outcome(reference_training_set, *args, derive_rng(seed), KDE_EMBEDDINGS)
        assert outcome(build_training_set, *args, derive_rng(seed), KDE_EMBEDDINGS) == expected
        if not isinstance(expected, list):
            return
        trainset = build_training_set(*args, derive_rng(seed), KDE_EMBEDDINGS)
        assert len(trainset) == len(expected)
        assert len(trainset.contexts) == len(trainset.pair_ids) == sum(e.label for e in expected)
        assert len(set(trainset.responses)) == len(trainset.responses)
        assert [trainset[i] for i in range(-len(expected), len(expected))] == expected * 2
        start, stop = sorted(data.draw(st.lists(st.integers(0, len(expected)),
                                                min_size=2, max_size=2)))
        assert list(trainset[start:stop]) == expected[start:stop]
        assert trainset == TrainingSet.from_examples(expected)
        assert list(TrainingSet.from_examples(expected)) == expected

    def test_sets_with_different_views_differ(self):
        examples = [TrainingExample(("a",), ("b",), 1, 0), TrainingExample(("a",), ("c",), 0, 0)]
        trainset = TrainingSet.from_examples(examples)
        assert trainset != TrainingSet.from_examples(examples[::-1])
        assert trainset != TrainingSet.from_examples(examples[:1])
        assert trainset[1:] == TrainingSet.from_examples(examples[1:])
        with pytest.raises(IndexError):
            trainset[2]


@pytest.fixture(scope="module")
def trainset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("trainset") / "trainset.jsonl"


texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


class TestTrainingExampleIO:
    @settings(max_examples=100, deadline=None)
    @given(examples=st.lists(st.builds(
        TrainingExample,
        st.lists(st.sampled_from(['"', "\\", "ок", "⟨eou⟩"]) | texts, max_size=4).map(tuple),
        st.lists(st.sampled_from(['"', "\\", "ок"]) | texts, max_size=4).map(tuple),
        st.integers(0, 1), st.integers(0, 2**62),
    ), max_size=12))
    def test_bytes_are_json_dumps_per_example(self, trainset_path, examples):
        write_training_set(trainset_path, TrainingSet.from_examples(examples))
        assert trainset_path.read_bytes() == "".join(
            json.dumps(
                {"context_tokens": list(ex.context_tokens),
                 "response_tokens": list(ex.response_tokens),
                 "label": ex.label, "source_pair_id": ex.source_pair_id},
                ensure_ascii=False, sort_keys=True, separators=(",", ":"),
            ) + "\n"
            for ex in examples
        ).encode("utf-8")

    def test_roundtrip(self, tmp_path):
        examples = TrainingSet.from_examples([
            TrainingExample(("hello", "!"), ("fine", "."), 1, 0),
            TrainingExample(("привет", "⟨eou⟩"), ("ок",), 0, 1),
        ])
        path = tmp_path / "train.jsonl"
        write_training_set(path, examples)
        assert path.read_bytes() == (
            '{"context_tokens":["hello","!"],"label":1,"response_tokens":["fine","."],'
            '"source_pair_id":0}\n'
            '{"context_tokens":["привет","⟨eou⟩"],"label":0,"response_tokens":["ок"],'
            '"source_pair_id":1}\n'
        ).encode("utf-8")

    def test_label_validation(self):
        with pytest.raises(DataError):
            TrainingExample(("a",), ("b",), 2, 0)

    def test_byte_identical_serialization(self, tmp_path):
        examples = TrainingSet.from_examples([TrainingExample(("a",), ("b",), 1, 0)])
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_training_set(p1, examples)
        write_training_set(p2, examples)
        assert p1.read_bytes() == p2.read_bytes()
