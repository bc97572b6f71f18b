"""The embedding-based model: history vectors and nearest-context search.

Instead of scoring every candidate with the full dual encoder, each
training pair is indexed once by a history vector (encoded context plus
0.4 times the encoded response, unit-normalized) and answering a query
is a single exact cosine scan.
"""

from dialret import (
    DualEncoderModel,
    SamplingStrategy,
    TrainConfig,
    build_history_index,
    count_responses,
    extract_all_pairs,
    query_nearest,
    random_embeddings,
    tokenize,
    train,
)
from dialret.sampling import build_training_set, make_epoch_resampler
from dialret.seeding import derive_rng, derive_seed
from dialret.synthetic import corpus_vocabulary, make_separable_corpus

dialogues = make_separable_corpus(50, seed=0)
pairs = extract_all_pairs(dialogues)
dist = count_responses(pairs)
vocab = corpus_vocabulary(dialogues, pad_to=200)

embeddings = random_embeddings(vocab, 16, 1.0, seed=derive_seed(7, "emb"))
model = DualEncoderModel.create(
    embeddings, variant="gru", hidden=16, seed=derive_seed(7, "init")
)
resampler = make_epoch_resampler(
    pairs, dist, SamplingStrategy(neg_per_pos=5), derive_seed(7, "ts")
)
train(model, resampler(0), TrainConfig(learning_rate=1.0, batch_size=32,
                                       max_iterations=1200, seed=derive_seed(7, "train"),
                                       eval_every=400), resampler=resampler)

index = build_history_index(model, pairs)  # response weight defaults to 0.4
print(f"indexed {len(index)} history vectors of dim {index.dim} "
      f"(response weight {index.response_weight})\n")

for query in ("ask17 topic17", "word3 ask31 topic31", "topic5"):
    hits = query_nearest(index, tokenize(query), top_k=3)
    print(f"query: {query!r}")
    for rank, hit in enumerate(hits, start=1):
        print(f"  {rank}. cosine {hit.score:+.4f}  pair {hit.pair_id:>3}  "
              f"-> {hit.response_text}")
    print()

print("the returned answer for a dialogue system is the response stored "
      "with the nearest context; with the 0.4 response weight the index "
      "also rewards candidates that sit naturally next to their contexts.")
