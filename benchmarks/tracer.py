"""Spans recorded from outside the program by wrapping its public functions.

A traced pass replaces each target function with a wrapper that records a
span (name, start, end, parent span) and a small capture of its arguments
or result, runs the pass, then puts every original back. Nothing under
``src/`` is edited: the wrappers are installed on the module attributes,
class attributes and module-level dict entries that hold the original
object, so a name imported into several modules (``encode`` into
``retrieval`` and ``evaluation``, ``transform`` into ``sampling`` and
``evaluation``) is wrapped wherever it is bound, and ``cmd_grid`` is also
wrapped inside the CLI's command table.

Spans stay in memory until the pass ends; :meth:`Tracer.write` writes them
out and :func:`self_times` reduces them to self times.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

MODULES = (
    "dialret", "dialret.corpus", "dialret.distribution", "dialret.sampling",
    "dialret.encoder", "dialret.retrieval", "dialret.evaluation", "dialret.cli",
    "dialret.synthetic", "dialret.config", "dialret.seeding", "dialret.errors",
)


# Span name -> capture(args, kwargs, result). Captures run after the span
# has ended and keep only counts or references, so the work they add is
# small and falls outside the span they describe.
CAPTURES: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "corpus.parse_dialogues": lambda a, kw, r: (len(r.dialogues), len(r.errors)),
    "corpus.extract_all_pairs": lambda a, kw, r: len(r),
    "distribution.count_responses": lambda a, kw, r: len(r),
    "distribution.transform": lambda a, kw, r: (a[1].kind, len(a[0])),
    "sampling.build_training_set": lambda a, kw, r: (
        a[2].transform.kind, a[2].filter_by_inverse_count, len(a[0]),
        len(r), a[2].neg_per_pos,
    ),
    "sampling.draw_negatives": lambda a, kw, r: a[2],
    "sampling.AliasSampler.draw": lambda a, kw, r: a[2],
    "encoder.loss_and_gradients": lambda a, kw, r: a[1],
    "encoder.encode": lambda a, kw, r: 1,
    "encoder.encode_batch": lambda a, kw, r: len(a[2]),
    "encoder.save_checkpoint": lambda a, kw, r: os.path.getsize(a[1]),
    "retrieval.build_history_index": lambda a, kw, r: len(r),
    "retrieval.save_index": lambda a, kw, r: os.path.getsize(a[1]),
    "retrieval.query_nearest": lambda a, kw, r: (len(a[0]), a[0].dim),
    "retrieval.file_sha256": lambda a, kw, r: os.path.getsize(a[0]),
    "evaluation.evaluate": lambda a, kw, r: (len(a[1]), a[3].num_alternatives),
    "evaluation.DualEncoderScorer.score_candidates": lambda a, kw, r: len(a[2]),
    "evaluation.HistoryIndexScorer.score_candidates": lambda a, kw, r: len(a[2]),
}

# Every public function a traced pass wraps, as "layer.attribute" where the
# layer is the dialret module that defines it.
TRACED = (
    "corpus.parse_dialogues",
    "corpus.split_corpus",
    "corpus.extract_all_pairs",
    "distribution.count_responses",
    "distribution.transform",
    "sampling.build_training_set",
    "sampling.draw_negatives",
    "sampling.write_training_set",
    "sampling.AliasSampler.__init__",
    "sampling.AliasSampler.draw",
    "encoder.random_embeddings",
    "encoder.train",
    "encoder.loss_and_gradients",
    "encoder.encode",
    "encoder.encode_batch",
    "encoder.save_checkpoint",
    "encoder.load_checkpoint",
    "retrieval.build_history_index",
    "retrieval.query_nearest",
    "retrieval.save_index",
    "retrieval.load_index",
    "retrieval.file_sha256",
    "evaluation.evaluate",
    "evaluation.DualEncoderScorer.score_candidates",
    "evaluation.HistoryIndexScorer.score_candidates",
    "cli.cmd_grid",
)

# The stage functions timed in an untraced pass of the grid workload, where
# the CLI hides them from the benchmark: eight calls per pass.
STAGES = ("encoder.train", "evaluation.evaluate", "retrieval.build_history_index")


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    info: Any = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def _resolve(target: str):
    """(owner, attribute, original) for 'layer.func' or 'layer.Class.method'."""
    layer, _, rest = target.partition(".")
    owner = importlib.import_module(f"dialret.{layer}")
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, vars(owner)[attr]


def bindings(original) -> list[tuple[Any, str]]:
    """Every (module or dict, key) in the dialret modules holding ``original``."""
    found = []
    for name in MODULES:
        module = importlib.import_module(name)
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
            elif type(value) is dict:
                found.extend((value, k) for k, v in value.items() if v is original)
    return found


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Installs span-recording wrappers on ``targets`` for one pass at a time."""

    def __init__(self, targets=TRACED):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        capture = CAPTURES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if capture is not None:
                span.info = capture(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self.spans.clear()
        try:
            for target in self.targets:
                owner, attr, original = _resolve(target)
                wrapper = self._wrapper(target, original)
                places = [(owner, attr)]
                if not isinstance(owner, type):
                    places = bindings(original)
                for container, key in places:
                    self._patched.append((container, key, original))
                    _set(container, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            container, key, original = self._patched.pop()
            _set(container, key, original)

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration / 1e9
        return out

    def write(self, path, run_id: str) -> None:
        """Append the spans as TSV: run, span, parent, name, start_ns, end_ns."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(
                    f"{run_id}\t{i}\t{span.parent}\t{span.name}\t"
                    f"{span.start}\t{span.end}\n"
                )


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own
