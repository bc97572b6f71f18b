"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines as they complete. The heavyweight pipelines (training sanity and
the cross-distribution grid) run once in session fixtures and are reused
by the determinism criterion.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from gradcheck import finite_difference_gradients, max_relative_error
from scipy import stats

from dialret.cli import main
from dialret.corpus import ContextResponsePair, extract_all_pairs
from dialret.distribution import (
    ResponseDistribution,
    TransformSpec,
    count_responses,
    transform,
)
from dialret.encoder import (
    DualEncoderModel,
    TrainConfig,
    loss_and_gradients,
    random_embeddings,
    save_checkpoint,
    train,
)
from dialret.evaluation import (
    AnnotationRecord,
    EvalConfig,
    evaluate,
    score_human_marks,
)
from dialret.retrieval import (
    DEFAULT_RESPONSE_WEIGHT,
    build_history_index,
    query_nearest,
)
from dialret.sampling import (
    SamplingStrategy,
    TrainingExample,
    build_training_set,
    draw_negatives,
    make_epoch_resampler,
)
from dialret.seeding import derive_rng, derive_seed
from dialret.synthetic import corpus_vocabulary, make_separable_corpus


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion:02d}: {detail}")
    assert ok, f"criterion {criterion:02d}: {detail}"


def make_pairs(responses):
    return [
        ContextResponsePair(i, ("ctx", str(i)), r, tuple(r.split(" ")), f"d{i}", 1)
        for i, r in enumerate(responses)
    ]


# ----------------------------------------------------------------------
# criterion 1: transform correctness
# ----------------------------------------------------------------------

def test_criterion_01_transform_correctness():
    rng = np.random.default_rng(101)
    worst_zero = worst_one = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 25))
        probs = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
        dist = ResponseDistribution([f"r{i}" for i in range(n)], probs)
        zero = transform(dist, TransformSpec.power(0.0)).probs
        one = transform(dist, TransformSpec.power(1.0)).probs
        worst_zero = max(worst_zero, float(np.max(np.abs(zero - 1.0 / n))))
        worst_one = max(worst_one, float(np.max(np.abs(one - dist.probs))))
    frozen = transform(
        ResponseDistribution(["a", "b", "c"], [0.5, 0.25, 0.25]),
        TransformSpec.power(-0.25),
    ).probs
    frozen_err = float(np.max(np.abs(frozen - [0.29600, 0.35200, 0.35200])))
    ok = worst_zero < 1e-12 and worst_one < 1e-12 and frozen_err < 1e-5
    report(
        1, ok,
        f"power(0) uniform err {worst_zero:.2e}, power(1) identity err "
        f"{worst_one:.2e}, power(-0.25) frozen err {frozen_err:.2e}",
    )


# ----------------------------------------------------------------------
# criterion 2: sampler fidelity
# ----------------------------------------------------------------------

def test_criterion_02_sampler_fidelity():
    rng = np.random.default_rng(202)
    base = rng.dirichlet(np.ones(40) * 0.4)
    dist = ResponseDistribution([f"r{i}" for i in range(40)], base)
    draws_per_target = 100_000
    pvalues = {}
    for spec in (
        TransformSpec.identity(),
        TransformSpec.uniform(),
        TransformSpec.power(-0.125),
        TransformSpec.power(-0.25),
    ):
        target = transform(dist, spec)
        draws = target.sampler().draw(derive_rng(7, "fidelity", spec.label()),
                                      draws_per_target)
        counts = np.bincount(draws, minlength=len(dist))
        pvalues[spec.label()] = stats.chisquare(
            counts, target.probs * draws_per_target
        ).pvalue
    # Exclusion: a skewed distribution where the excluded response holds
    # most of the mass, one million draws, zero leaks allowed.
    skewed = ResponseDistribution(
        ["true resp"] + [f"r{i}" for i in range(9)], [0.55] + [0.05] * 9
    )
    leak = 0
    exclusion_rng = derive_rng(7, "exclusion")
    for _ in range(10):
        chunk = draw_negatives(skewed, "true resp", 100_000, exclusion_rng)
        leak += sum(1 for r in chunk if r == "true resp")
    ok = all(p > 0.01 for p in pvalues.values()) and leak == 0
    detail = ", ".join(f"{k} p={v:.3f}" for k, v in pvalues.items())
    report(2, ok, f"chi-square {detail}; exclusion leaks {leak}/1e6")


# ----------------------------------------------------------------------
# criterion 3: inverse-count filter
# ----------------------------------------------------------------------

def test_criterion_03_inverse_count_filter():
    pairs = make_pairs(["quad"] * 4 + ["other a", "other b", "other c"])
    dist = count_responses(pairs)
    assert dist.count("quad") == 4
    strategy = SamplingStrategy(neg_per_pos=1, filter_by_inverse_count=True)
    survivors = np.empty(10_000)
    for seed in range(10_000):
        examples = build_training_set(pairs, dist, strategy, derive_rng(seed, "f3"))
        survivors[seed] = sum(
            1 for e in examples
            if e.label == 1 and " ".join(e.response_tokens) == "quad"
        )
    mean = survivors.mean()
    sem = survivors.std(ddof=1) / math.sqrt(len(survivors))
    ok = abs(mean - 1.0) <= 3.0 * sem
    report(3, ok, f"mean surviving positives {mean:.4f} (1 ± {3 * sem:.4f})")


# ----------------------------------------------------------------------
# criterion 4: gradient exactness
# ----------------------------------------------------------------------

def test_criterion_04_gradient_exactness():
    vocab = [f"t{i}" for i in range(30)]
    rng = np.random.default_rng(404)
    worst = {}
    for variant in ("gru", "attention"):
        worst[variant] = 0.0
        for batch_index in range(5):
            emb = random_embeddings(vocab, 8, 1.0, seed=40 + batch_index)
            model = DualEncoderModel.create(
                emb, variant=variant, hidden=8, seed=50 + batch_index
            )
            batch = [
                TrainingExample(
                    tuple(vocab[rng.integers(0, 30)] for _ in range(rng.integers(1, 7))),
                    tuple(vocab[rng.integers(0, 30)] for _ in range(rng.integers(1, 5))),
                    int(rng.integers(0, 2)),
                    b,
                )
                for b in range(5)
            ]
            _, analytic = loss_and_gradients(model, batch)
            numeric = finite_difference_gradients(model, batch, step=1e-5)
            worst[variant] = max(worst[variant], max_relative_error(analytic, numeric))
    ok = all(w < 1e-4 for w in worst.values())
    report(
        4, ok,
        f"max relative error gru {worst['gru']:.2e}, "
        f"attention {worst['attention']:.2e} (threshold 1e-4)",
    )


# ----------------------------------------------------------------------
# criterion 5: training sanity (session fixture, reused by criterion 9)
# ----------------------------------------------------------------------

TRAIN_SANITY_SEED = 7


def run_training_sanity():
    """Criterion-5 pipeline: 50 separable pairs, vocab 200, dim/hidden 16."""
    dialogues = make_separable_corpus(50, seed=0)
    pairs = extract_all_pairs(dialogues)
    dist = count_responses(pairs)
    vocab = corpus_vocabulary(dialogues, pad_to=200)
    emb = random_embeddings(vocab, 16, 1.0, seed=derive_seed(TRAIN_SANITY_SEED, "emb"))
    model = DualEncoderModel.create(
        emb, variant="gru", hidden=16, seed=derive_seed(TRAIN_SANITY_SEED, "init")
    )
    strategy = SamplingStrategy(neg_per_pos=5)
    resampler = make_epoch_resampler(
        pairs, dist, strategy, derive_seed(TRAIN_SANITY_SEED, "ts")
    )
    config = TrainConfig(
        learning_rate=1.0, batch_size=32, max_iterations=2000,
        seed=derive_seed(TRAIN_SANITY_SEED, "train"), eval_every=500,
    )
    result = train(model, resampler(0), config, resampler=resampler)
    return model, pairs, dist, result


@pytest.fixture(scope="session")
def training_sanity():
    return run_training_sanity()


def test_criterion_05_training_sanity(training_sanity):
    model, pairs, dist, result = training_sanity
    final_loss = result.loss_trace[-1][1]
    recall = evaluate(
        model, pairs, dist, EvalConfig(ks=(1,), seed=3)
    ).recalls[1]
    ok = final_loss < 0.1 and recall >= 0.9
    report(
        5, ok,
        f"loss {final_loss:.4f} (< 0.1) within 2000 iterations, "
        f"held-in recall@1 {recall:.3f} (>= 0.9)",
    )


# ----------------------------------------------------------------------
# criterion 6: evaluation calibration
# ----------------------------------------------------------------------

def test_criterion_06_evaluation_calibration():
    pool = 30
    pairs = [
        ContextResponsePair(i, ("x",), f"r{i % pool}", (f"r{i % pool}",), "d", 1)
        for i in range(10_000)
    ]
    dist = ResponseDistribution(
        [f"r{i}" for i in range(pool)], [1.0 / pool] * pool
    )
    rng = np.random.default_rng(606)
    random_scorer = lambda ctx, cands: rng.random(len(cands))
    cfg = EvalConfig(ks=(1, 3, 5, 9, 10), seed=66)
    random_report = evaluate(random_scorer, pairs, dist, cfg)
    random_err = max(
        abs(random_report.recalls[k] - k / 10) for k in (1, 3, 5, 9, 10)
    )
    oracle = lambda ctx, cands: np.arange(len(cands), 0, -1.0)
    oracle_report = evaluate(oracle, pairs[:500], dist, cfg)
    oracle_ok = all(v == 1.0 for v in oracle_report.recalls.values())
    constant = lambda ctx, cands: np.full(len(cands), 0.125)
    constant_report = evaluate(constant, pairs[:500], dist, cfg)
    constant_ok = (
        all(constant_report.recalls[k] == 0.0 for k in (1, 3, 5, 9))
        and constant_report.recalls[10] == 1.0
    )
    ok = random_err < 0.02 and oracle_ok and constant_ok
    report(
        6, ok,
        f"random scorer max |recall@k - k/10| = {random_err:.4f} over 1e4 pairs; "
        f"oracle all 1.0: {oracle_ok}; constant 0 below k=10: {constant_ok}",
    )


# ----------------------------------------------------------------------
# criterion 7: retrieval oracle equivalence
# ----------------------------------------------------------------------

def test_criterion_07_retrieval_oracle_equivalence():
    from dialret.encoder import AttentionParams, encode

    vocab = [f"t{i}" for i in range(700)]
    emb = random_embeddings(vocab, 16, 1.0, seed=707)
    params = AttentionParams.create(16, 16, np.random.default_rng(708))
    model = DualEncoderModel(emb, params, params, np.eye(16))
    rng = np.random.default_rng(709)
    pairs = [
        ContextResponsePair(
            i,
            (f"t{rng.integers(0, 700)}", f"t{rng.integers(0, 700)}"),
            f"t{rng.integers(0, 700)}",
            (f"t{rng.integers(0, 700)}",),
            f"d{i}", 1,
        )
        for i in range(500)
    ]
    index = build_history_index(model, pairs)
    assert index.response_weight == DEFAULT_RESPONSE_WEIGHT == 0.4
    mismatches = 0
    for q in range(100):
        query = [f"t{rng.integers(0, 700)}", f"t{rng.integers(0, 700)}"]
        hits = query_nearest(index, query, top_k=len(index))
        vec = encode(model.context_encoder, model.embeddings, query)
        vec = vec / np.linalg.norm(vec)
        scored = sorted(
            ((int(index.pair_ids[r]), float(np.dot(index.vectors[r], vec)))
             for r in range(len(index))),
            key=lambda t: (-t[1], t[0]),
        )
        if [h.pair_id for h in hits] != [p for p, _ in scored]:
            mismatches += 1
    ok = mismatches == 0
    report(
        7, ok,
        f"{mismatches}/100 rank-list mismatches vs brute-force scan over "
        f"500 rows; response weight default {index.response_weight}",
    )


# ----------------------------------------------------------------------
# criterion 8: directional grid reproduction (session fixture)
# ----------------------------------------------------------------------

GRID_SEEDS = (0, 1, 2)


def write_grid_config(path: Path, corpus: Path, master_seed: int, out_name: str):
    config = {
        "master_seed": master_seed,
        "paths": {"corpus": corpus.name, "output_dir": out_name},
        "split": {"train": 80, "dev": 10, "test": 10},
        "sampling": {"neg_per_pos": 5},
        "encoder": {"variant": "gru", "dim": 16, "hidden": 16,
                    "embedding_scale": 1.0},
        "train": {"learning_rate": 0.5, "batch_size": 64,
                  "max_iterations": 1500, "eval_every": 500},
        "eval": {"num_alternatives": 9, "ks": [1, 3], "split": "test"},
        "retrieval": {"build_index": True},
        "grid": {"train_transforms": ["identity", "uniform"],
                 "alt_transforms": ["identity", "uniform"]},
    }
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def parse_grid_table(path: Path) -> dict[tuple[str, str], float]:
    cells = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        fields = line.split()
        cells[(fields[0], fields[1])] = float(fields[2])
    return cells


@pytest.fixture(scope="session")
def grid_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("grid_acceptance")
    corpus = root / "corpus.jsonl"
    assert main([
        "make-synthetic-corpus", "--out", str(corpus), "--dialogues", "2000",
        "--responses", "100", "--vocab", "250", "--exponent", "1.0",
        "--seed", "42",
    ]) == 0
    results = {}
    for seed in GRID_SEEDS:
        config = write_grid_config(
            root / f"grid_seed{seed}.json", corpus, seed, f"out_seed{seed}"
        )
        assert main(["grid", "--config", str(config)]) == 0
        results[seed] = parse_grid_table(root / f"out_seed{seed}" / "grid_table.txt")
    return root, results


def test_criterion_08_directional_grid(grid_workspace):
    _, results = grid_workspace
    initial_margins = []
    uniform_margins = []
    for seed in GRID_SEEDS:
        cells = results[seed]
        initial_margins.append(
            cells[("identity", "identity")] - cells[("identity", "uniform")]
        )
        uniform_margins.append(
            cells[("uniform", "uniform")] - cells[("uniform", "identity")]
        )
    mean_initial = float(np.mean(initial_margins))
    mean_uniform = float(np.mean(uniform_margins))
    ok = mean_initial >= 0.02 and mean_uniform >= 0.02
    report(
        8, ok,
        "recall@1 margins averaged over 3 seeds: initial-alternatives "
        f"(initial-trained ahead) {mean_initial:+.4f}, uniform-alternatives "
        f"(uniform-trained ahead) {mean_uniform:+.4f}; required >= +0.02 both",
    )


# ----------------------------------------------------------------------
# criterion 9: determinism (re-runs criteria 5 and 8 once)
# ----------------------------------------------------------------------

def _artifact_bytes(directory: Path) -> dict[str, bytes]:
    artifacts = {}
    for path in sorted(directory.iterdir()):
        if path.name.endswith(".manifest.json"):
            continue
        artifacts[path.name] = path.read_bytes()
    return artifacts


def _manifest_payloads(directory: Path) -> dict[str, dict]:
    payloads = {}
    for path in sorted(directory.glob("*.manifest.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        data.pop("created_at", None)
        # Output paths embed the run directory; compare basenames + hashes.
        for key in ("inputs", "outputs"):
            data[key] = {Path(p).name: h for p, h in data[key].items()}
        payloads[path.name] = data
    return payloads


def test_criterion_09_determinism(tmp_path, grid_workspace, training_sanity):
    root, _ = grid_workspace
    corpus = root / "corpus.jsonl"

    # Re-run the criterion-8 seed-0 grid with the byte-identical config
    # into the same directory, after snapshotting the first run.
    first = _artifact_bytes(root / "out_seed0")
    first_manifests = _manifest_payloads(root / "out_seed0")
    assert main(["grid", "--config", str(root / "grid_seed0.json")]) == 0
    second = _artifact_bytes(root / "out_seed0")
    grid_identical = first == second
    manifests_identical = first_manifests == _manifest_payloads(root / "out_seed0")

    # Re-run the criterion-5 training and compare serialized checkpoints.
    model_again, _, _, result_again = run_training_sanity()
    model_first, _, _, result_first = training_sanity
    ckpt_a, ckpt_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model_first, ckpt_a)
    save_checkpoint(model_again, ckpt_b)
    training_identical = (
        ckpt_a.read_bytes() == ckpt_b.read_bytes()
        and result_first.loss_trace == result_again.loss_trace
    )

    # Remaining artifact writers: ingest, stats, build-trainset,
    # export-anno, run twice into fresh directories.
    stage_identical = True
    for run in ("detA", "detB"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        config = {
            "master_seed": 5,
            "paths": {"corpus": str(corpus), "output_dir": str(run_dir)},
            "split": {"train": 80, "dev": 10, "test": 10},
            "encoder": {"variant": "gru", "dim": 16, "hidden": 16},
            "train": {"learning_rate": 0.5, "batch_size": 64,
                      "max_iterations": 1500, "eval_every": 500},
            "eval": {"num_alternatives": 9, "ks": [1], "split": "test"},
            "annotation": {"num_questions": 10, "n_responses": 3},
        }
        config_path = tmp_path / f"{run}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["stats", "--config", str(config_path), "--split", "train"]) == 0
        assert main([
            "build-trainset", "--config", str(config_path),
            "--transform", "power:-0.125",
        ]) == 0
        assert main([
            "export-anno", "--config", str(config_path),
            "--checkpoint", str(root / "out_seed0" / "model_identity.ckpt"),
        ]) == 0
    stage_identical = _artifact_bytes(tmp_path / "detA") == _artifact_bytes(
        tmp_path / "detB"
    )

    ok = grid_identical and manifests_identical and training_identical and stage_identical
    report(
        9, ok,
        f"grid artifacts byte-identical: {grid_identical}; manifests equal "
        f"minus timestamps: {manifests_identical}; training checkpoint "
        f"byte-identical: {training_identical}; ingest/stats/trainset/anno "
        f"byte-identical: {stage_identical}",
    )


# ----------------------------------------------------------------------
# criterion 10: human-mark scoring
# ----------------------------------------------------------------------

def test_criterion_10_human_mark_scoring():
    cases = {
        (0, 1, 0): (0.0, 1.0),
        (3, 0, 0): (1.0, 1.0),
        (0, 0, 0): (0.0, 0.0),
    }
    trivial_ok = all(
        score_human_marks([AnnotationRecord("q", ("a", "b", "c"), marks)]) == expected
        for marks, expected in cases.items()
    )
    rng = np.random.default_rng(1010)
    order_ok = True
    for _ in range(1000):
        records = [
            AnnotationRecord(
                f"q{i}", ("a", "b", "c"), tuple(int(m) for m in rng.integers(0, 4, 3))
            )
            for i in range(int(rng.integers(1, 30)))
        ]
        cr, ur = score_human_marks(records)
        order_ok = order_ok and cr <= ur
    ok = trivial_ok and order_ok
    report(
        10, ok,
        f"mark-definition cases exact: {trivial_ok}; CR <= UR over 1000 "
        f"random tables: {order_ok}",
    )
