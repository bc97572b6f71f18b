"""Training the dual encoder from scratch on a separable corpus.

Fifty contexts with one correct response each: a working model should
drive the cross-entropy near zero and rank the true response first. All
gradients are hand-derived; nothing here touches an autodiff framework.
"""

from dialret import (
    DualEncoderModel,
    EvalConfig,
    SamplingStrategy,
    TrainConfig,
    count_responses,
    evaluate,
    extract_all_pairs,
    random_embeddings,
    score_pair,
    train,
)
from dialret.sampling import make_epoch_resampler
from dialret.seeding import derive_seed
from dialret.synthetic import corpus_vocabulary, make_separable_corpus

dialogues = make_separable_corpus(50, seed=0)
pairs = extract_all_pairs(dialogues)
dist = count_responses(pairs)
vocab = corpus_vocabulary(dialogues, pad_to=200)

embeddings = random_embeddings(vocab, 16, 1.0, seed=derive_seed(7, "emb"))
model = DualEncoderModel.create(
    embeddings, variant="gru", hidden=16, seed=derive_seed(7, "init")
)
print(f"model: GRU hidden 16, dim 16, tied encoders, "
      f"{sum(t.size for t in model.trainable_tensors().values())} trainable scalars")

before = score_pair(model, pairs[0].context_tokens, pairs[0].response_tokens)
resampler = make_epoch_resampler(
    pairs, dist, SamplingStrategy(neg_per_pos=5), derive_seed(7, "ts")
)
config = TrainConfig(
    learning_rate=1.0, batch_size=32, max_iterations=2000,
    seed=derive_seed(7, "train"), eval_every=400,
)
result = train(model, resampler(0), config, resampler=resampler)
print("loss trace (iteration, mean binary cross-entropy):")
for iteration, loss in result.loss_trace:
    print(f"  {iteration:>5}  {loss:.4f}")

after = score_pair(model, pairs[0].context_tokens, pairs[0].response_tokens)
wrong = score_pair(model, pairs[0].context_tokens, pairs[1].response_tokens)
print(f"\npair 0 true-response probability: {before:.3f} -> {after:.3f}")
print(f"pair 0 wrong-response probability after training: {wrong:.3f}")

report = evaluate(model, pairs, dist, EvalConfig(ks=(1, 3), seed=3))
print(f"held-in recall@1 = {report.recalls[1]:.3f}, "
      f"recall@3 = {report.recalls[3]:.3f} (9 sampled alternatives per pair)")
