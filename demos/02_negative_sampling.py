"""Negative-sampling strategies and what they put in the training set.

Compares how often the most frequent response shows up as a negative
under each strategy, and demonstrates the inverse-count pair filter.
"""

from collections import Counter

import numpy as np

from dialret import (
    SamplingStrategy,
    TransformSpec,
    build_training_set,
    count_responses,
    derive_rng,
    extract_all_pairs,
)
from dialret.synthetic import make_synthetic_corpus

dialogues = make_synthetic_corpus(600, 30, 90, 1.0, seed=3)
pairs = extract_all_pairs(dialogues)
dist = count_responses(pairs)
top = int(np.argmax(dist.probs))
top_response, top_count, top_prob = dist.responses[top], dist.counts[top], dist.probs[top]
print(f"{len(pairs)} pairs, {len(dist)} distinct responses")
print(f"most frequent response: {top_response!r} "
      f"(count {top_count}, prob {top_prob:.3f})\n")

print("share of negatives that are the most frequent response, by strategy:")
for label in ("identity", "uniform", "power:-0.125", "power:-0.25"):
    strategy = SamplingStrategy(transform=TransformSpec.parse(label), neg_per_pos=5)
    examples = build_training_set(pairs, dist, strategy, derive_rng(11, "demo", label))
    negatives = [e for e in examples if e.label == 0]
    share = sum(
        1 for e in negatives if " ".join(e.response_tokens) == top_response
    ) / len(negatives)
    print(f"  {label:<13} {share:.4f}   ({len(examples)} examples, "
          f"{sum(e.label for e in examples)} positive)")
print(f"  (empirical prob {top_prob:.4f}; uniform share would be "
      f"~{1 / len(dist):.4f})\n")

filtered = SamplingStrategy(neg_per_pos=5, filter_by_inverse_count=True)
examples = build_training_set(pairs, dist, filtered, derive_rng(11, "demo", "filter"))
kept = Counter(
    " ".join(e.response_tokens) for e in examples if e.label == 1
)
print("inverse-count filter: each pair survives with probability "
      "1/count(response), so every response keeps about one positive:")
print(f"  positives kept {sum(kept.values())} of {len(pairs)} pairs; "
      f"most frequent response kept {kept.get(top_response, 0)} of {top_count}")
