"""Dialogue corpus ingestion, tokenization, pair extraction, splitting.

A corpus file is UTF-8 text with one JSON record per line:

    {"id": "d1", "turns": [{"speaker": "user", "text": "hi"},
                           {"speaker": "operator", "text": "hello!"}]}

Dialogues must have at least two turns, alternate speakers, and start
with the user; an id is one non-empty line, unique in its file, so a
split manifest holds one id per line. Violations are reported and the
dialogue is skipped, never silently dropped. All types here are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._container import write_artifact
from .errors import DataError

# Separator inserted between turns when concatenating a context, so
# encoders can learn turn boundaries. It enters the vocabulary like any
# other token.
EOU_TOKEN = "⟨eou⟩"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
MAX_CONTEXT_TURNS = 10  # turns a context keeps by default


def tokenize(text: str) -> list[str]:
    """Lowercase and split on Unicode word/punctuation boundaries.

    Tokens are maximal runs of word characters (letters, digits,
    underscore); every other non-space character becomes its own token.
    This single function defines token identity for the whole package:
    vocabulary construction, response canonicalization, and query
    processing all route through it.

    >>> tokenize("Hello! How?")
    ['hello', '!', 'how', '?']
    """
    return _TOKEN_RE.findall(text.lower())


class Speaker(Enum):
    USER = "user"
    OPERATOR = "operator"


@dataclass(frozen=True)
class Turn:
    speaker: Speaker
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise DataError("turn text is empty after trimming whitespace")


@dataclass(frozen=True)
class Dialogue:
    id: str
    turns: tuple[Turn, ...]

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))
        if self.id.splitlines() != [self.id]:
            raise DataError(f"dialogue id {self.id!r} is not one non-empty line")
        if len(self.turns) < 2:
            raise DataError(f"dialogue {self.id!r}: fewer than 2 turns")
        if self.turns[0].speaker is not Speaker.USER:
            raise DataError(f"dialogue {self.id!r}: first turn is not the user")
        for i in range(1, len(self.turns)):
            if self.turns[i].speaker is self.turns[i - 1].speaker:
                raise DataError(
                    f"dialogue {self.id!r}: consecutive turns by the same "
                    f"speaker at position {i}"
                )


@dataclass(frozen=True)
class ContextResponsePair:
    """One training unit: everything said before an operator turn, plus it."""

    pair_id: int
    context_tokens: tuple[str, ...]
    response_text: str
    response_tokens: tuple[str, ...]
    dialogue_id: str
    turn_index: int


@dataclass(frozen=True)
class RecordError:
    """A rejected input line or dialogue, with enough context to fix it."""

    line_no: int
    dialogue_id: str | None
    message: str

    def __str__(self) -> str:
        who = "<no id>" if self.dialogue_id is None else str(self.dialogue_id)
        if who.splitlines() != [who]:  # one error per line of an errors file
            who = repr(who)
        return f"line {self.line_no} ({who}): {self.message}"


@dataclass(frozen=True)
class ParseResult:
    dialogues: tuple[Dialogue, ...]
    errors: tuple[RecordError, ...]


def read_text_lines(path, kind: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, read lazily; other bytes raise DataError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{kind} {path} is not UTF-8 text ({exc.reason})") from None


def parse_dialogues(lines: Iterable[str]) -> ParseResult:
    """Parse a line-delimited record stream into validated dialogues.

    Returns all dialogues in file order plus a report of every rejected
    line, one reusing an accepted dialogue's id too. Blank lines are ignored.
    """
    dialogues: list[Dialogue] = []
    errors: list[RecordError] = []
    first_lines: dict[str, int] = {}  # accepted dialogue id -> its line
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # a too-long integer is a ValueError
            errors.append(RecordError(line_no, None, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        dialogue_id = record.get("id") if isinstance(record, dict) else None
        try:
            dialogue = _dialogue_from_record(record)
            first = first_lines.setdefault(dialogue.id, line_no)
            if first != line_no:
                raise DataError(f"dialogue id {dialogue.id!r} already used on line {first}")
            dialogues.append(dialogue)
        except DataError as exc:
            errors.append(RecordError(line_no, dialogue_id, str(exc)))
    return ParseResult(tuple(dialogues), tuple(errors))


def _dialogue_from_record(record: object) -> Dialogue:
    if not isinstance(record, dict):
        raise DataError("record is not a JSON object")
    if "id" not in record:
        raise DataError("record missing required field 'id'")
    if "turns" not in record:
        raise DataError("record missing required field 'turns'")
    raw_turns = record["turns"]
    if not isinstance(raw_turns, list):
        raise DataError("'turns' is not a list")
    turns = []
    for i, raw in enumerate(raw_turns):
        if not isinstance(raw, dict) or "speaker" not in raw or "text" not in raw:
            raise DataError(f"turn {i} missing 'speaker' or 'text'")
        try:
            speaker = Speaker(raw["speaker"])
        except ValueError:
            raise DataError(f"turn {i}: unknown speaker tag {raw['speaker']!r}")
        if not isinstance(raw["text"], str):
            raise DataError(f"turn {i}: 'text' is not a string")
        turns.append(Turn(speaker, raw["text"]))
    return Dialogue(str(record["id"]), tuple(turns))


def dialogue_to_record(dialogue: Dialogue) -> str:
    """Serialize one dialogue back to its JSON-line form."""
    obj = {
        "id": dialogue.id,
        "turns": [
            {"speaker": t.speaker.value, "text": t.text} for t in dialogue.turns
        ],
    }
    return json.dumps(obj, ensure_ascii=False, separators=(", ", ": "))


def extract_pairs(
    dialogue: Dialogue,
    max_context_turns: int = MAX_CONTEXT_TURNS,
    start_pair_id: int = 0,
) -> list[ContextResponsePair]:
    """Extract one ⟨context, response⟩ pair per operator turn.

    The context is the concatenation of the most recent
    ``max_context_turns`` turns preceding the operator turn (all of them
    when there are fewer), with ``EOU_TOKEN`` between turns.
    """
    if max_context_turns < 1:
        raise DataError("max_context_turns must be positive")
    pairs = []
    pair_id = start_pair_id
    turn_tokens = [tokenize(t.text) for t in dialogue.turns]
    for i, turn in enumerate(dialogue.turns):
        if turn.speaker is not Speaker.OPERATOR:
            continue
        window = turn_tokens[max(0, i - max_context_turns) : i]
        context: list[str] = []
        for j, toks in enumerate(window):
            if j > 0:
                context.append(EOU_TOKEN)
            context.extend(toks)
        pairs.append(
            ContextResponsePair(
                pair_id=pair_id,
                context_tokens=tuple(context),
                response_text=" ".join(turn_tokens[i]),
                response_tokens=tuple(turn_tokens[i]),
                dialogue_id=dialogue.id,
                turn_index=i,
            )
        )
        pair_id += 1
    return pairs


def extract_all_pairs(
    dialogues: Sequence[Dialogue], max_context_turns: int = MAX_CONTEXT_TURNS
) -> list[ContextResponsePair]:
    """Extract pairs from many dialogues with globally unique sequential ids."""
    pairs: list[ContextResponsePair] = []
    for d in dialogues:
        pairs.extend(extract_pairs(d, max_context_turns, start_pair_id=len(pairs)))
    return pairs


@dataclass(frozen=True)
class SplitSpec:
    """Exact train/dev/test fractions plus the shuffle seed.

    Fractions are stored as ``fractions.Fraction`` so that "sums to 1"
    and the floor arithmetic in :func:`split_corpus` are exact.
    """

    train_fraction: Fraction
    dev_fraction: Fraction
    test_fraction: Fraction
    seed: int = 0

    def __post_init__(self):
        for name in ("train_fraction", "dev_fraction", "test_fraction"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        total = self.train_fraction + self.dev_fraction + self.test_fraction
        if total != 1:
            raise DataError(f"split fractions must sum to exactly 1, got {total}")
        if not 0 <= self.seed < 2**64:
            raise DataError("seed must fit in an unsigned 64-bit integer")

    @classmethod
    def from_ratio(cls, train: int, dev: int, test: int, seed: int = 0) -> "SplitSpec":
        """Build a spec from integer parts, e.g. ``from_ratio(80, 10, 10)``."""
        total = train + dev + test
        return cls(
            Fraction(train, total), Fraction(dev, total), Fraction(test, total), seed
        )


def split_corpus(
    dialogues: Sequence[Dialogue], spec: SplitSpec
) -> tuple[list[Dialogue], list[Dialogue], list[Dialogue]]:
    """Deterministically shuffle and split at dialogue granularity.

    Sizes are ``floor(n * train)``, ``floor(n * dev)``, remainder to test,
    so a dialogue's pairs never straddle splits and the three outputs
    partition the input.
    """
    n = len(dialogues)
    if n < 3:
        raise DataError(f"need at least 3 dialogues to split, got {n}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    order = rng.permutation(n)
    n_train = int(n * spec.train_fraction)
    n_dev = int(n * spec.dev_fraction)
    shuffled = [dialogues[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_dev],
        shuffled[n_train + n_dev :],
    )


def write_split_manifest(path, dialogues: Sequence[Dialogue]) -> None:
    """Write a split as a plain-text list of dialogue ids, one per line."""
    write_artifact(path, (d.id + "\n" for d in dialogues))
