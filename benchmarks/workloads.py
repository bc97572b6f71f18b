"""The three benchmark workloads: set-up, one measured pass, output checks.

Each workload makes its inputs from the seed alone. A pass times only the
calls into dialret (inside the tracer's context, so a traced pass wraps
exactly those calls); the checks run after the timed calls and count one
operation each toward ``attempted`` and ``failed``. Outputs that must
repeat are compared with the first pass of the run, and their SHA-256
digests are reported for review across commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dialret import cli, corpus, distribution, encoder, evaluation, retrieval, sampling, synthetic
from dialret.seeding import derive_rng, derive_seed

from oracle import hits_match, oracle_top_k
from tracer import STAGES, Tracer

clock = time.perf_counter


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Checks:
    """Operations attempted and failed across a run, with the first failures."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class PassResult:
    wall_s: float
    items_per_s: float
    # Workload-specific end-to-end figures: name -> (value, unit, samples).
    figures: dict[str, tuple[float, str, int]]


class Workload:
    name = ""
    item = ""
    stages: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first: dict[str, object] = {}
        self.digests: dict[str, str] = {}

    def same_as_first(self, key: str, value) -> bool:
        """Record ``value`` on the first pass; afterwards compare with it."""
        if key not in self.first:
            self.first[key] = value
            return True
        return self.first[key] == value


# ----------------------------------------------------------------------
# grid-c8: the criterion-8 cross-distribution grid through the CLI
# ----------------------------------------------------------------------

GRID_TRANSFORMS = ["identity", "uniform"]
GRID_ITERATIONS = 1500
GRID_CONFIG = {
    "master_seed": 0,
    "split": {"train": 80, "dev": 10, "test": 10},
    "sampling": {"neg_per_pos": 5},
    "encoder": {"variant": "gru", "dim": 16, "hidden": 16, "embedding_scale": 1.0},
    "train": {"learning_rate": 0.5, "batch_size": 64,
              "max_iterations": GRID_ITERATIONS, "eval_every": 500},
    "eval": {"num_alternatives": 9, "ks": [1, 3], "split": "test"},
    "retrieval": {"build_index": True},
    "grid": {"train_transforms": GRID_TRANSFORMS, "alt_transforms": GRID_TRANSFORMS},
}


class GridC8(Workload):
    name = "grid-c8"
    item = "training steps"
    stages = STAGES

    def setup(self) -> None:
        self.root = self.workdir / "grid"
        self.root.mkdir(parents=True, exist_ok=True)
        dialogues = synthetic.make_synthetic_corpus(2000, 100, 250, 1.0, self.seed)
        with open(self.root / "corpus.jsonl", "w", encoding="utf-8") as fh:
            for d in dialogues:
                fh.write(corpus.dialogue_to_record(d) + "\n")

    def run_pass(self, n: int, tracer: Tracer, checks: Checks) -> PassResult:
        out = f"pass{n}"
        config_path = self.root / f"grid_{n}.json"
        config = dict(GRID_CONFIG, paths={"corpus": "corpus.jsonl", "output_dir": out})
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            code = cli.main(["grid", "--config", str(config_path)])
            wall = clock() - start
        totals = tracer.totals()

        out_dir = self.root / out
        cells = self._check_table(out_dir / "grid_table.txt")
        eval_pairs = 0
        for path in out_dir.glob("grid_*__alt_*.txt"):
            eval_pairs += int(evaluation.parse_eval_report(path.read_text(encoding="utf-8"))["pairs"])
        expected = {(a, t) for a in GRID_TRANSFORMS for t in GRID_TRANSFORMS}
        checks.op(
            code == 0 and cells is not None and set(cells) == expected,
            f"grid pass {n}: exit {code}, cells {sorted(cells or ())}",
        )
        artifacts = {
            p.name: _sha256(p.read_bytes())
            for p in sorted(out_dir.iterdir()) if not p.name.endswith(".manifest.json")
        }
        self.digests.update(
            (k, v) for k, v in artifacts.items()
            if k == "grid_table.txt" or k.endswith((".ckpt", ".idx"))
        )
        repeatable = self.same_as_first("artifacts", artifacts)
        if n > 0:
            checks.op(repeatable, f"grid pass {n}: artifacts differ from pass 0")
        shutil.rmtree(out_dir)
        config_path.unlink()

        train_s = totals["encoder.train"]
        eval_s = totals["evaluation.evaluate"]
        steps = len(GRID_TRANSFORMS) * GRID_ITERATIONS
        return PassResult(wall, steps / train_s, {
            "train_steps_per_s": (steps / train_s, "1/s", steps),
            "eval_pairs_per_s": (eval_pairs / eval_s, "1/s", eval_pairs),
            "index_build_s": (totals["retrieval.build_history_index"], "s", len(GRID_TRANSFORMS)),
        })

    @staticmethod
    def _check_table(path: Path):
        """Cells of grid_table.txt, or None if a recall is outside [0, 1]."""
        if not path.exists():
            return None
        cells = {}
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            alt, trained, *recalls = line.split()
            values = [float(r) for r in recalls]
            if not values or not all(0.0 <= v <= 1.0 for v in values):
                return None
            cells[(alt, trained)] = values
        return cells


# ----------------------------------------------------------------------
# retrieve-wide: history index, closed-loop queries, recall@k
# ----------------------------------------------------------------------

RETRIEVE_QUERIES = 2000
RETRIEVE_TOP_K = 5
RETRIEVE_TRAIN_STEPS = 200
# Positive pairs whose sampled negatives make up the 200-step training set.
RETRIEVE_TRAIN_PAIRS = 3000


class RetrieveWide(Workload):
    name = "retrieve-wide"
    item = "queries"

    def setup(self) -> None:
        seed = self.seed
        dialogues = synthetic.make_synthetic_corpus(20000, 5000, 10050, 1.0, seed)
        spec = corpus.SplitSpec.from_ratio(80, 10, 10, seed=derive_seed(seed, "split"))
        train_d, _, test_d = corpus.split_corpus(dialogues, spec)
        self.train_pairs = corpus.extract_all_pairs(train_d)
        self.test_pairs = corpus.extract_all_pairs(test_d)
        embeddings = encoder.random_embeddings(
            synthetic.corpus_vocabulary(train_d), 16, 1.0, seed=derive_seed(seed, "embeddings")
        )
        examples = sampling.build_training_set(
            self.train_pairs[:RETRIEVE_TRAIN_PAIRS],
            distribution.count_responses(self.train_pairs),
            sampling.SamplingStrategy(),
            derive_rng(seed, "trainset"),
        )
        self.model = encoder.DualEncoderModel.create(
            embeddings, "gru", hidden=16, seed=derive_seed(seed, "model-init")
        )
        encoder.train(self.model, examples, encoder.TrainConfig(
            learning_rate=0.5, batch_size=64, max_iterations=RETRIEVE_TRAIN_STEPS,
            seed=derive_seed(seed, "train"),
        ))
        self.queries = [p.context_tokens for p in self.test_pairs[:RETRIEVE_QUERIES]]
        self.eval_cfg = evaluation.EvalConfig(seed=derive_seed(seed, "eval"))
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, n: int, tracer: Tracer, checks: Checks) -> PassResult:
        ckpt_path = self.workdir / "model.ckpt"
        index_path = self.workdir / "history.idx"
        latencies = []
        hits = []
        with tracer:
            t0 = clock()
            train_dist = distribution.count_responses(self.train_pairs)
            t1 = clock()
            index = retrieval.build_history_index(self.model, self.train_pairs)
            t2 = clock()
            encoder.save_checkpoint(self.model, ckpt_path)
            model = encoder.load_checkpoint(ckpt_path)
            retrieval.save_index(index, index_path)
            loaded = retrieval.load_index(index_path, model)
            t3 = clock()
            for tokens in self.queries:
                q0 = time.perf_counter_ns()
                hits.append(retrieval.query_nearest(loaded, tokens, RETRIEVE_TOP_K))
                latencies.append(time.perf_counter_ns() - q0)
            t4 = clock()
            reports = {"model": evaluation.evaluate(model, self.test_pairs, train_dist, self.eval_cfg)}
            reports["index"] = evaluation.evaluate(loaded, self.test_pairs, train_dist, self.eval_cfg)
            t5 = clock()

        ids = index.pair_ids
        checks.op(len(index) == len(self.train_pairs) and bool(np.all(np.diff(ids) > 0)),
                  f"pass {n}: index rows or order")
        original, restored = self.model.all_tensors(), model.all_tensors()
        checks.op(
            original.keys() == restored.keys()
            and all(np.array_equal(original[k], restored[k]) for k in original),
            f"pass {n}: checkpoint round trip",
        )
        checks.op(
            np.array_equal(index.vectors, loaded.vectors)
            and np.array_equal(ids, loaded.pair_ids) and index.responses == loaded.responses,
            f"pass {n}: index round trip",
        )
        for q, (tokens, got) in enumerate(zip(self.queries, hits)):
            checks.op(hits_match(got, oracle_top_k(loaded, model, tokens, RETRIEVE_TOP_K)),
                      f"pass {n}: query {q} differs from the oracle")
        for name, report in reports.items():
            recalls = report.recalls
            ok = report.num_pairs == len(self.test_pairs) and all(
                0.0 <= v <= 1.0 for v in recalls.values()
            )
            checks.op(ok and self.same_as_first(f"recall-{name}", recalls),
                      f"pass {n}: {name} recall {recalls}")
            self.digests[f"recall_{name}"] = json.dumps(recalls, sort_keys=True)
        self.digests["history.idx"] = _sha256(index_path.read_bytes())
        self.digests["model.ckpt"] = _sha256(ckpt_path.read_bytes())
        self.digests["top5"] = _sha256(
            json.dumps([[h.pair_id for h in got] for got in hits]).encode()
        )

        eval_pairs = 2 * len(self.test_pairs)
        wall = t5 - t0
        return PassResult(wall, len(self.queries) / (t4 - t3), {
            "query_p50_ms": (float(np.percentile(latencies, 50)) / 1e6, "ms", len(latencies)),
            "query_p99_ms": (float(np.percentile(latencies, 99)) / 1e6, "ms", len(latencies)),
            "index_build_s": (t2 - t1, "s", 1),
            "eval_pairs_per_s": (eval_pairs / (t5 - t4), "1/s", eval_pairs),
        })


# ----------------------------------------------------------------------
# sample-wide: ingestion, distribution transforms, negative sampling
# ----------------------------------------------------------------------

SAMPLE_TRANSFORMS = ("identity", "uniform", "power:-0.5", "kde:0.4")
NEG_PER_POS = 5
# One malformed record is interleaved after every this many good ones, so
# the parser's reject path runs too.
BAD_RECORD_EVERY = 500
BAD_RECORDS = (
    '{"id": "bad-json", "turns": [',
    '{"id": "bad-first", "turns": [{"speaker": "operator", "text": "hi"}, '
    '{"speaker": "user", "text": "hello"}]}',
    '{"id": "bad-repeat", "turns": [{"speaker": "user", "text": "a"}, '
    '{"speaker": "user", "text": "b"}]}',
    '{"id": "bad-blank", "turns": [{"speaker": "user", "text": " "}, '
    '{"speaker": "operator", "text": "ok"}]}',
    '{"id": "bad-fields"}',
)


class SampleWide(Workload):
    name = "sample-wide"
    item = "trainset examples"

    def setup(self) -> None:
        dialogues = synthetic.make_synthetic_corpus(24000, 8000, 16050, 0.9, self.seed)
        self.lines = []
        for i, d in enumerate(dialogues):
            if i % BAD_RECORD_EVERY == BAD_RECORD_EVERY - 1:
                self.lines.append(BAD_RECORDS[(i // BAD_RECORD_EVERY) % len(BAD_RECORDS)])
            self.lines.append(corpus.dialogue_to_record(d))
        self.dialogue_count = len(dialogues)
        self.bad_count = len(self.lines) - len(dialogues)
        self.embeddings = encoder.random_embeddings(
            synthetic.corpus_vocabulary(dialogues), 16, 1.0,
            seed=derive_seed(self.seed, "embeddings"),
        )
        self.split = corpus.SplitSpec.from_ratio(80, 10, 10, seed=derive_seed(self.seed, "split"))

    def run_pass(self, n: int, tracer: Tracer, checks: Checks) -> PassResult:
        strategies = [
            (label, sampling.SamplingStrategy(
                transform=distribution.TransformSpec.parse(label), neg_per_pos=NEG_PER_POS))
            for label in SAMPLE_TRANSFORMS
        ]
        strategies.append(("identity-filtered", sampling.SamplingStrategy(
            neg_per_pos=NEG_PER_POS, filter_by_inverse_count=True)))
        trainset_s = 0.0
        examples = 0
        with tracer:
            t0 = clock()
            parsed = corpus.parse_dialogues(self.lines)
            train_d, dev_d, test_d = corpus.split_corpus(parsed.dialogues, self.split)
            pairs = corpus.extract_all_pairs(train_d)
            dist = distribution.count_responses(pairs)
            ingest_s = clock() - t0
            for label, strategy in strategies:
                rng = derive_rng(self.seed, "trainset", label)
                start = clock()
                trainset = sampling.build_training_set(pairs, dist, strategy, rng, self.embeddings)
                trainset_s += clock() - start
                examples += len(trainset)
                # Checked here, outside the timed calls, so that only one
                # training set is alive at a time.
                self._check_trainset(n, label, strategy, pairs, trainset, checks)
                del trainset

        total = len(parsed.dialogues)
        checks.op(total == self.dialogue_count and len(parsed.errors) == self.bad_count,
                  f"pass {n}: parsed {total} dialogues, {len(parsed.errors)} rejected")
        checks.op(
            len(train_d) == total * 8 // 10 and len(dev_d) == total // 10
            and len(train_d) + len(dev_d) + len(test_d) == total,
            f"pass {n}: split sizes",
        )
        checks.op([p.pair_id for p in pairs] == list(range(len(pairs))),
                  f"pass {n}: pair ids not sequential")
        checks.op(
            int(dist.counts.sum()) == len(pairs)
            and len(dist) == len({p.response_text for p in pairs}),
            f"pass {n}: response counts",
        )
        if n == 0:
            for label, strategy in strategies[: len(SAMPLE_TRANSFORMS)]:
                moved = distribution.transform(dist, strategy.transform, self.embeddings)
                checks.op(
                    moved.responses == dist.responses
                    and np.array_equal(moved.counts, dist.counts),
                    f"{label}: transform changed the support",
                )
        return PassResult(ingest_s + trainset_s, examples / trainset_s, {
            "trainset_examples_per_s": (examples / trainset_s, "1/s", examples),
        })

    def _check_trainset(self, n, label, strategy, pairs, trainset, checks) -> None:
        group = 1 + strategy.neg_per_pos
        ok = len(trainset) % group == 0 and len(trainset) > 0
        lines = []
        for start in range(0, len(trainset) if ok else 0, group):
            pos = trainset[start]
            negs = trainset[start + 1 : start + group]
            ok = ok and pos.label == 1 and all(
                e.label == 0 and e.source_pair_id == pos.source_pair_id
                and e.response_tokens != pos.response_tokens
                for e in negs
            )
            lines.append(f"{pos.source_pair_id}\t" + "\t".join(
                " ".join(e.response_tokens) for e in negs
            ))
        kept = len(trainset) // group
        ok = ok and (kept <= len(pairs) if strategy.filter_by_inverse_count else kept == len(pairs))
        digest = _sha256("\n".join(lines).encode())
        self.digests[f"trainset_{label}"] = digest
        checks.op(ok and self.same_as_first(f"trainset-{label}", digest),
                  f"pass {n}: trainset {label} malformed or not repeatable")


WORKLOADS = {w.name: w for w in (GridC8, RetrieveWide, SampleWide)}
