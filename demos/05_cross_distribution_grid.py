"""The headline experiment: negative-sampling distribution vs recall@1.

Trains one dual encoder with negatives from the empirical response
distribution and one with negatives from the uniform distribution, then
evaluates both against test alternatives drawn from each distribution.
The models do best when training negatives and test alternatives come
from the same distribution, so automatic recall@k comparisons are only
meaningful with matched distributions.

Desk-scale run (a few hundred dialogues, reduced iterations): expect the
diagonal cells to lead their columns, not any particular absolute value.
"""

from dialret import (
    DualEncoderModel,
    EvalConfig,
    SamplingStrategy,
    SplitSpec,
    TrainConfig,
    TransformSpec,
    build_training_set,
    count_responses,
    cross_distribution_grid,
    extract_all_pairs,
    random_embeddings,
    split_corpus,
    train,
)
from dialret.evaluation import format_grid_table
from dialret.seeding import derive_rng, derive_seed
from dialret.synthetic import corpus_vocabulary, make_synthetic_corpus

MASTER = 0

dialogues = make_synthetic_corpus(800, 60, 160, 1.0, seed=42)
train_d, dev_d, test_d = split_corpus(
    dialogues, SplitSpec.from_ratio(80, 10, 10, seed=derive_seed(MASTER, "split"))
)
train_pairs = extract_all_pairs(train_d)
test_pairs = extract_all_pairs(test_d)
dist = count_responses(train_pairs)
vocab = corpus_vocabulary(train_d)
print(f"{len(train_pairs)} training pairs, {len(test_pairs)} test pairs, "
      f"{len(dist)} distinct responses (top prob {dist.probs.max():.3f})\n")

embeddings = random_embeddings(vocab, 16, 1.0, seed=derive_seed(MASTER, "emb"))
models = {}
for label in ("identity", "uniform"):
    strategy = SamplingStrategy(
        transform=TransformSpec.parse(label), neg_per_pos=5
    )
    examples = build_training_set(
        train_pairs, dist, strategy, derive_rng(MASTER, "ts", label)
    )
    model = DualEncoderModel.create(
        embeddings, variant="gru", hidden=16,
        seed=derive_seed(MASTER, "init", label),
    )
    result = train(model, examples, TrainConfig(
        learning_rate=0.5, batch_size=64, max_iterations=1000,
        seed=derive_seed(MASTER, "train", label), eval_every=500,
    ))
    models[label] = model
    print(f"trained '{label}' negatives variant, "
          f"final loss {result.loss_trace[-1][1]:.3f}")

# One evaluation config per column of alternatives, all with one seed.
columns = {
    label: EvalConfig(ks=(1, 3), alternative_transform=TransformSpec.parse(label),
                      seed=derive_seed(MASTER, "eval"))
    for label in ("identity", "uniform")
}
grid = cross_distribution_grid(models, columns, test_pairs, dist)
print("\n" + format_grid_table(grid, (1, 3)))

id_margin = grid["identity", "identity"].recalls[1] - grid["identity", "uniform"].recalls[1]
un_margin = grid["uniform", "uniform"].recalls[1] - grid["uniform", "identity"].recalls[1]
print(f"matched-distribution advantage at recall@1: "
      f"{id_margin:+.3f} on empirical alternatives, "
      f"{un_margin:+.3f} on uniform alternatives")
