import json
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialret.corpus import (
    EOU_TOKEN,
    Dialogue,
    Speaker,
    SplitSpec,
    Turn,
    extract_all_pairs,
    extract_pairs,
    parse_dialogues,
    split_corpus,
    tokenize,
    write_split_manifest,
)
from dialret.errors import DataError


def record(dialogue_id, *turns):
    return json.dumps(
        {
            "id": dialogue_id,
            "turns": [{"speaker": s, "text": t} for s, t in turns],
        },
        ensure_ascii=False,
    )


def make_dialogue(dialogue_id, *texts):
    speakers = [Speaker.USER, Speaker.OPERATOR]
    turns = tuple(Turn(speakers[i % 2], t) for i, t in enumerate(texts))
    return Dialogue(dialogue_id, turns)


class TestTokenize:
    def test_punctuation_separated(self):
        assert tokenize("Hello! How?") == ["hello", "!", "how", "?"]

    def test_empty(self):
        assert tokenize("") == []

    def test_cyrillic_against_unicode_oracle(self):
        # Independent scanner over Unicode character classes.
        def oracle(text):
            tokens, word = [], ""
            for ch in text.lower():
                if ch.isalnum() or ch == "_":
                    word += ch
                else:
                    if word:
                        tokens.append(word)
                        word = ""
                    if not ch.isspace():
                        tokens.append(ch)
            if word:
                tokens.append(word)
            return tokens

        samples = [
            "Привет,мир",
            "Здравствуйте! Чем могу помочь?",
            "Спасибо за ответ, приду сам.",
            "item#42 (см. ссылку)",
            "ёлки-палки... да!",
            "e-mail: a_b@c.d",
            "12:30, 45.6%",
        ]
        for text in samples:
            assert tokenize(text) == oracle(text), text
        assert tokenize("Привет,мир") == ["привет", ",", "мир"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd", "Po", "Zs"),
                whitelist_characters="абвгдежзиклмн ",
                max_codepoint=0x2000,
            ),
            max_size=40,
        )
    )
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    def test_response_text_is_its_tokens_joined_by_one_space(self):
        [pair] = extract_pairs(make_dialogue("d", "hi", "Hello!  THERE"))
        assert pair.response_text == "hello ! there"
        assert pair.response_tokens == ("hello", "!", "there")


class TestParseDialogues:
    def test_minimal_record(self):
        result = parse_dialogues([record("d1", ("user", "hi"), ("operator", "hello"))])
        assert len(result.dialogues) == 1
        assert len(result.errors) == 0
        d = result.dialogues[0]
        assert d.id == "d1"
        assert [t.speaker for t in d.turns] == [Speaker.USER, Speaker.OPERATOR]

    def test_empty_stream(self):
        result = parse_dialogues([])
        assert result.dialogues == ()
        assert result.errors == ()

    def test_no_turns_reports_violation(self):
        result = parse_dialogues([json.dumps({"id": "d1", "turns": []})])
        assert len(result.dialogues) == 0
        assert len(result.errors) == 1
        assert "fewer than 2 turns" in result.errors[0].message

    def test_malformed_lines_collected_not_dropped(self):
        lines = [
            "{not json",
            json.dumps({"turns": []}),
            json.dumps({"id": "d", "turns": [{"speaker": "robot", "text": "x"}]}),
            record("ok", ("user", "hi"), ("operator", "yo")),
        ]
        result = parse_dialogues(lines)
        assert len(result.dialogues) == 1
        assert len(result.errors) == 3
        assert result.errors[0].line_no == 1
        assert "missing required field 'id'" in result.errors[1].message
        assert "unknown speaker" in result.errors[2].message

    def test_same_speaker_twice_skipped(self):
        result = parse_dialogues(
            [record("d", ("user", "a"), ("user", "b"), ("operator", "c"))]
        )
        assert len(result.dialogues) == 0
        assert "same speaker" in result.errors[0].message

    def test_operator_first_skipped(self):
        result = parse_dialogues([record("d", ("operator", "a"), ("user", "b"))])
        assert len(result.dialogues) == 0
        assert "not the user" in result.errors[0].message

    def test_blank_text_rejected(self):
        result = parse_dialogues([record("d", ("user", "   "), ("operator", "b"))])
        assert len(result.dialogues) == 0
        assert "empty" in result.errors[0].message

    @pytest.mark.parametrize("dialogue_id", ["", "a\nb", "a\r\nb", "a\rb", "a\u2028b", "ab\n"])
    def test_id_must_be_one_non_empty_line(self, dialogue_id):
        lines = [record("a", ("user", "hi"), ("operator", "yo")),
                 record(dialogue_id, ("user", "hi"), ("operator", "yo"))]
        result = parse_dialogues(lines)
        assert [d.id for d in result.dialogues] == ["a"]
        [error] = result.errors
        assert error.line_no == 2 and "not one non-empty line" in error.message
        assert str(error).count("\n") == 0

    def test_reused_id_is_rejected_naming_the_first_line(self):
        lines = [record("d1", ("user", "hi"), ("operator", "yo")),
                 record("d0", ("operator", "bad"), ("user", "order")),
                 record("d0", ("user", "hi"), ("operator", "yo")),
                 "",
                 record("d1", ("user", "again"), ("operator", "yo")),
                 json.dumps({"id": 0, "turns": [{"speaker": "user", "text": "a"},
                                                {"speaker": "operator", "text": "b"}]}),
                 record("0", ("user", "hi"), ("operator", "yo"))]
        result = parse_dialogues(lines)
        # d0 on line 2 was rejected, so line 3's d0 is the first one accepted.
        assert [(d.id, d.turns[0].text) for d in result.dialogues] == [
            ("d1", "hi"), ("d0", "hi"), ("0", "a")
        ]
        assert [(e.line_no, e.message) for e in result.errors[1:]] == [
            (5, "dialogue id 'd1' already used on line 1"),
            (7, "dialogue id '0' already used on line 6"),
        ]

    def test_split_manifests_list_each_parsed_id_once(self, tmp_path):
        lines = [record(f"d{i % 7}", ("user", "hi"), ("operator", "yo")) for i in range(20)]
        lines.insert(9, record("d7\nd0", ("user", "hi"), ("operator", "yo")))
        dialogues = parse_dialogues(lines).dialogues
        parts = split_corpus(dialogues, SplitSpec.from_ratio(3, 2, 2, seed=0))
        listed = []
        for name, part in zip(("train", "dev", "test"), parts):
            write_split_manifest(tmp_path / f"{name}.ids", part)
            listed += (tmp_path / f"{name}.ids").read_text(encoding="utf-8").splitlines()
        assert sorted(listed) == sorted(d.id for d in dialogues) == [f"d{i}" for i in range(7)]


class TestExtractPairs:
    def test_two_round_dialogue(self):
        d = make_dialogue("d", "Q1 a", "A1 b", "Q2 c", "A2 d")
        pairs = extract_pairs(d, max_context_turns=100)
        assert len(pairs) == 2
        assert pairs[0].context_tokens == ("q1", "a")
        assert pairs[0].response_text == "a1 b"
        assert pairs[1].context_tokens == (
            "q1", "a", EOU_TOKEN, "a1", "b", EOU_TOKEN, "q2", "c",
        )
        assert pairs[1].response_text == "a2 d"
        assert pairs[1].turn_index == 3

    def test_single_round(self):
        d = make_dialogue("d", "Q1", "A1")
        assert len(extract_pairs(d, max_context_turns=100)) == 1

    def test_no_context_turns_is_a_data_error(self):
        d = make_dialogue("d", "Q1", "A1")
        with pytest.raises(DataError, match="max_context_turns must be positive"):
            extract_pairs(d, max_context_turns=0)

    def test_truncated_context_keeps_most_recent_turn(self):
        d = make_dialogue("d", "Q1", "A1", "Q2", "A2")
        pairs = extract_pairs(d, max_context_turns=1)
        assert pairs[1].context_tokens == ("q2",)

    def test_one_pair_per_operator_turn(self):
        for texts in (("q", "a"), ("q", "a", "x", "y"), ("q", "a", "x", "y", "u", "v")):
            d = make_dialogue("d", *texts)
            operator_turns = sum(1 for t in d.turns if t.speaker is Speaker.OPERATOR)
            assert len(extract_pairs(d)) == operator_turns

    def test_global_ids_sequential(self):
        ds = [make_dialogue(f"d{i}", "q", "a", "x", "y") for i in range(3)]
        pairs = extract_all_pairs(ds)
        assert [p.pair_id for p in pairs] == list(range(6))


class TestSplitCorpus:
    def make_corpus(self, n):
        return [make_dialogue(f"d{i}", f"q {i}", f"a {i}") for i in range(n)]

    def test_sizes_10(self):
        train, dev, test = split_corpus(
            self.make_corpus(10), SplitSpec.from_ratio(80, 10, 10, seed=1)
        )
        assert (len(train), len(dev), len(test)) == (8, 1, 1)

    def test_sizes_25000(self):
        train, dev, test = split_corpus(
            self.make_corpus(25000), SplitSpec.from_ratio(80, 10, 10, seed=9)
        )
        assert (len(train), len(dev), len(test)) == (20000, 2500, 2500)

    def test_same_seed_identical(self):
        corpus = self.make_corpus(20)
        spec = SplitSpec.from_ratio(80, 10, 10, seed=42)
        first = split_corpus(corpus, spec)
        second = split_corpus(corpus, spec)
        for a, b in zip(first, second):
            assert [d.id for d in a] == [d.id for d in b]

    def test_partition_property(self):
        corpus = self.make_corpus(17)
        train, dev, test = split_corpus(corpus, SplitSpec.from_ratio(3, 2, 1, seed=5))
        all_ids = sorted(d.id for part in (train, dev, test) for d in part)
        assert all_ids == sorted(d.id for d in corpus)
        assert not (set(d.id for d in train) & set(d.id for d in dev))
        assert not (set(d.id for d in train) & set(d.id for d in test))
        assert not (set(d.id for d in dev) & set(d.id for d in test))

    def test_too_few_dialogues(self):
        with pytest.raises(DataError):
            split_corpus(self.make_corpus(2), SplitSpec.from_ratio(80, 10, 10))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(DataError):
            SplitSpec(Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))

    def test_fractions_must_be_positive(self):
        with pytest.raises(DataError):
            SplitSpec(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))


class TestDialogueInvariants:
    def test_requires_two_turns(self):
        with pytest.raises(DataError):
            Dialogue("d", (Turn(Speaker.USER, "hi"),))

    def test_unicode_category_check(self):
        # Sanity anchor for the oracle above: Cyrillic letters are category Lo/Lu/Ll.
        assert unicodedata.category("п") == "Ll"
