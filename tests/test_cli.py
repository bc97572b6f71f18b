import contextlib
import hashlib
import io
import json
import os
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialret import _container, encoder
from dialret.cli import build_parser, main
from dialret.config import _FIELDS, ExperimentConfig, load_config, parse_config
from dialret.corpus import extract_all_pairs, parse_dialogues, split_corpus
from dialret.distribution import TransformSpec, count_responses
from dialret.encoder import TrainConfig, load_checkpoint, save_checkpoint
from dialret.errors import ConfigError, DataError, DivergenceError
from dialret.evaluation import EvalConfig
from dialret.sampling import SamplingStrategy, make_epoch_resampler, write_training_set
from dialret.seeding import derive_seed
from dialret.synthetic import corpus_vocabulary

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample_dialogues.jsonl"


def write_config(path, corpus, **overrides):
    cfg = {
        "master_seed": 11,
        "paths": {"corpus": str(corpus), "output_dir": "out"},
        "split": {"train": 80, "dev": 10, "test": 10},
        "encoder": {"variant": "gru", "dim": 10, "hidden": 10},
        "train": {
            "learning_rate": 0.5,
            "batch_size": 16,
            "max_iterations": 60,
            "eval_every": 20,
        },
        "eval": {"num_alternatives": 9, "ks": [1, 3], "split": "test"},
    }
    for key, value in overrides.items():
        cfg[key] = value
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def split_container(data: bytes) -> tuple[dict, list[list]]:
    """A container's header and its payload as [name, shape, raw bytes] entries."""
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16 : 16 + header_len])
    tensors, offset = [], 16 + header_len
    for name, shape in header["tensors"]:
        size = 8 * int(np.prod(shape))
        tensors.append([name, shape, data[offset : offset + size]])
        offset += size
    return header, tensors


def join_container(data: bytes, header: dict, tensors: list[list]) -> bytes:
    """``data``'s magic and version over ``header`` and ``tensors``, whose
    tensor list and payload hash are rewritten to match them."""
    raw = b"".join(r for _, _, r in tensors)
    header = dict(
        header,
        payload_sha256=hashlib.sha256(raw).hexdigest(),
        tensors=[[name, shape] for name, shape, _ in tensors],
    )
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return data[:8] + struct.pack("<Q", len(blob)) + blob + raw


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus plus a config, with ingest/train already run."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    assert main([
        "make-synthetic-corpus", "--out", str(corpus),
        "--dialogues", "150", "--responses", "15", "--vocab", "45",
        "--exponent", "1.0", "--seed", "5",
    ]) == 0
    config = write_config(root / "config.json", corpus)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    return root


class TestConfigValidation:
    def test_all_field_errors_listed(self, tmp_path):
        bad = {
            "master_seed": -1,
            "paths": {"corpus": "missing.jsonl", "output_dir": "out"},
            "split": {"train": 0, "dev": 10, "test": 10},
            "encoder": {"variant": "transformer"},
            "train": {"batch_size": 0},
            "eval": {"ks": [99]},
            "mystery": 1,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        text = str(exc.value)
        for field in (
            "master_seed", "paths.corpus", "split.train", "encoder.variant",
            "train.batch_size", "eval.ks", "mystery",
        ):
            assert field in text, field

    def test_cli_reports_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{\"master_seed\": -3}", encoding="utf-8")
        assert main(["stats", "--config", str(path)]) == 2
        assert "master_seed" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope", encoding="utf-8")
        assert main(["ingest", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text", [
        "[" * 5000,  # nested past the JSON parser's recursion limit
        '{"master_seed": 1' + "0" * 5000 + "}",  # past int's digit limit
    ], ids=["deep", "long-int"])
    def test_json_the_parser_refuses_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        assert main(["ingest", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "is not valid UTF-8 JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["plus", "minus"])
    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys, value):
        config = write_config(tmp_path / "config.json", SAMPLE,
                              train={"learning_rate": value})
        assert main(["ingest", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "train.learning_rate: must be finite, got" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["paths.corpus", "paths.embeddings",
                                       "paths.output_dir", "annotation.models.m"])
    def test_nul_in_a_path_exit_2(self, tmp_path, capsys, field):
        paths = {"corpus": str(SAMPLE), "output_dir": "out"}
        annotation = {"models": {"m": {"kind": "index", "path": "x.idx"}}}
        if field == "annotation.models.m":
            annotation["models"]["m"]["path"] = "x\0.idx"
        else:
            paths[field.split(".")[1]] = "a\0b"
        config = write_config(tmp_path / "config.json", SAMPLE, paths=paths,
                              annotation=annotation)
        assert main(["ingest", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{field}: must" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("paths, error", [
        ({"corpus": 5}, "expected str, got int"),
        ({"corpus": "a\0b"}, "must not contain a NUL character"),
        ({}, "required but missing"),
    ], ids=["int", "nul", "absent"])
    def test_a_bad_corpus_path_is_one_error(self, tmp_path, paths, error):
        with pytest.raises(ConfigError) as exc:
            parse_config({"paths": paths}, tmp_path, require_corpus=True)
        errors = [e for e in exc.value.field_errors if e.startswith("paths.corpus")]
        assert errors == [f"paths.corpus: {error}"]

    def test_encoder_variant_choices_are_the_encoders(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config({"encoder": {"variant": "lstm"}}, tmp_path)
        assert exc.value.field_errors == [
            f"encoder.variant: must be one of {list(encoder.ENCODERS)}, got 'lstm'"
        ]

    def test_non_finite_floats_rejected(self, tmp_path, capsys):
        bad = {
            "train": {"learning_rate": float("nan"), "gradient_clip_norm": float("inf"),
                      "batch_size": 0},
            "encoder": {"embedding_scale": float("-inf")},
            "retrieval": {"response_weight": float("nan")},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        text = str(exc.value)
        for field in (
            "train.learning_rate", "train.gradient_clip_norm", "train.batch_size",
            "encoder.embedding_scale", "retrieval.response_weight",
        ):
            assert field in text, field
        assert main(["stats", "--config", str(path)]) == 2
        assert "train.learning_rate" in capsys.readouterr().err

    def test_valid_config_defaults(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("", encoding="utf-8")
        path = write_config(tmp_path / "config.json", corpus)
        cfg = load_config(path)
        assert cfg.master_seed == 11
        assert cfg.sampling.neg_per_pos == 5
        assert cfg.response_weight == 0.4
        assert cfg.eval.num_alternatives == 9


    def test_every_field_sets_its_attribute(self, tmp_path):
        (tmp_path / "c.jsonl").write_text("", encoding="utf-8")
        (tmp_path / "emb.txt").write_text("1 2\nhello 0.5 0.25\n", encoding="utf-8")
        data = {
            "master_seed": 7, "max_context_turns": 4,
            "paths": {"corpus": "c.jsonl", "embeddings": "emb.txt", "output_dir": "o"},
            "split": {"train": 70, "dev": 20, "test": 10},
            "sampling": {"transform": "power:-0.5", "neg_per_pos": 3,
                         "filter_by_inverse_count": True, "resample_each_epoch": True},
            "encoder": {"variant": "attention", "dim": 8, "hidden": 4, "tied": False,
                        "train_embeddings": True, "embedding_scale": 2},
            "train": {"learning_rate": 0.1, "batch_size": 8, "max_iterations": 50,
                      "gradient_clip_norm": 2.0, "eval_every": 10},
            "eval": {"num_alternatives": 4, "ks": [1, 2], "alternative_transform": "uniform",
                     "split": "dev"},
            "retrieval": {"response_weight": 0.3, "build_index": False},
            "grid": {"train_transforms": ["kde:0.4"], "alt_transforms": ["power:1", "uniform"]},
            "annotation": {"num_questions": 5, "n_responses": 2,
                           "models": {"m": {"kind": "index", "path": "x.idx"}}},
        }
        cfg = parse_config(data, tmp_path)
        expected = {
            "master_seed": 7, "max_context_turns": 4,
            "corpus_path": (tmp_path / "c.jsonl").resolve(),
            "embeddings_path": (tmp_path / "emb.txt").resolve(),
            "output_dir": tmp_path / "o", "split_ratio": (70, 20, 10),
            "sampling": SamplingStrategy(
                transform=TransformSpec.parse("power:-0.5"), neg_per_pos=3,
                filter_by_inverse_count=True,
            ),
            "resample_each_epoch": True,
            "encoder_variant": "attention", "encoder_dim": 8, "encoder_hidden": 4,
            "encoder_tied": False, "train_embeddings": True, "embedding_scale": 2.0,
            "train": TrainConfig(
                learning_rate=0.1, batch_size=8, max_iterations=50,
                gradient_clip_norm=2.0, eval_every=10,
            ),
            "eval": EvalConfig(
                num_alternatives=4, ks=(1, 2),
                alternative_transform=TransformSpec.parse("uniform"),
            ),
            "eval_split": "dev",
            "response_weight": 0.3, "build_index": False,
            "grid_train_transforms": (TransformSpec.parse("kde:0.4"),),
            "grid_alt_transforms": (TransformSpec.parse("power:1"), TransformSpec.uniform()),
            "annotation_num_questions": 5, "annotation_n_responses": 2,
            "annotation_models": {
                "m": {"kind": "index", "path": (tmp_path / "x.idx").resolve()}
            },
            "raw": data,
        }
        assert vars(cfg) == expected
        assert type(cfg.embedding_scale) is float

    def test_empty_config_takes_dataclass_defaults(self, tmp_path):
        cfg = parse_config({}, tmp_path)
        assert cfg == ExperimentConfig(output_dir=tmp_path / "out")

    def test_unknown_fields_in_every_section(self):
        data = {"bogus": 1, **{name: {"bogus": 1} for name in (
            "paths", "split", "sampling", "encoder", "train", "eval", "retrieval",
            "grid", "annotation",
        )}}
        with pytest.raises(ConfigError) as exc:
            parse_config(data, Path("."))
        errors = exc.value.field_errors
        assert "bogus: unknown field" in errors
        for name in data:
            if name != "bogus":
                assert f"{name}.bogus: unknown field" in errors

    def test_transform_labels_are_stored_canonical(self, tmp_path):
        cfg = parse_config({"sampling": {"transform": "KDE"},
                            "eval": {"alternative_transform": "Power:-0.50"},
                            "grid": {"train_transforms": ["identity", "power:1.0"]}}, tmp_path)
        assert cfg.sampling.transform.label() == "kde:0.4"
        assert cfg.eval.alternative_transform.label() == "power:-0.5"
        assert tuple(s.label() for s in cfg.grid_train_transforms) == ("identity", "power:1")

    def test_one_transform_spelled_three_ways_is_one_grid_variant(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", SAMPLE,
                              grid={"train_transforms": ["kde", "kde:0.4", "KDE:0.40"]})
        assert main(["grid", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "grid.train_transforms: labels must be unique" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["build-trainset", "--config", "c.json", "--transform"],
        ["train", "--config", "c.json", "--transform"],
        ["eval", "--config", "c.json", "--alternative-transform"],
    ])
    def test_transform_flags_are_canonical(self, capsys, argv):
        args = build_parser().parse_args([*argv, "KDE:0.40"])
        spec = args.transform if "train" in argv[0] else args.alternative_transform
        assert spec.label() == "kde:0.4"
        assert main([*argv, "power:xyz"]) == 2
        assert "bad transform parameter" in capsys.readouterr().err
        assert main([*argv, "uniform:bogus"]) == 2
        assert "takes no parameter" in capsys.readouterr().err

    def test_grid_rejects_a_parameter_on_a_bare_transform(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", SAMPLE,
                              grid={"train_transforms": ["uniform:3"]})
        assert main(["grid", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "takes no parameter" in err
        assert not (tmp_path / "out").exists()


class TestSubcommands:
    def test_unknown_subcommand_usage(self, capsys):
        code = main(["definitely-not-a-command"])
        assert code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_usage(self, capsys):
        assert main([]) != 0

    def test_stats_on_shipped_sample(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", SAMPLE)
        assert main(["stats", "--config", str(config), "--split", "all"]) == 0
        table = (tmp_path / "out" / "stats_all.tsv").read_text(encoding="utf-8")
        rows = [line.split("\t") for line in table.splitlines()]
        # Hand count over the 3 shipped dialogues: "hello !" is the
        # operator's greeting in all three; the other responses are unique.
        assert rows[0] == ["1", "3", repr(0.5), "hello !"]
        assert len(rows) == 4
        assert {r[1] for r in rows[1:]} == {"1"}
        singles = sorted(r[3] for r in rows[1:])
        assert singles == [
            "i will check , one moment .",
            "you are welcome .",
            "you can reset it in account settings .",
        ]

    def test_ingest_writes_splits_and_errors(self, workspace):
        out = workspace / "out"
        train_ids = (out / "train.ids").read_text().splitlines()
        dev_ids = (out / "dev.ids").read_text().splitlines()
        test_ids = (out / "test.ids").read_text().splitlines()
        assert (len(train_ids), len(dev_ids), len(test_ids)) == (120, 15, 15)
        assert (out / "ingest_errors.txt").exists()
        manifest = json.loads((out / "ingest.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["argv"][0] == "ingest"
        assert manifest["master_seed"] == 11
        assert len(manifest["inputs"]) == 1
        assert all(len(h) == 64 for h in manifest["inputs"].values())

    def test_ingest_reports_bad_lines(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "ok", "turns": [{"speaker": "user", "text": "q"}, '
            '{"speaker": "operator", "text": "a"}]}\n'
            "{broken\n",
            encoding="utf-8",
        )
        config = write_config(tmp_path / "config.json", corpus)
        # Only one valid dialogue: split must fail with a data error.
        assert main(["ingest", "--config", str(config)]) == 4

    @pytest.mark.parametrize("line, reason", [
        ("[" * 5000, "maximum recursion depth exceeded while decoding a JSON array"),
        ('{"id": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ], ids=["deep", "long-int"])
    def test_json_the_parser_refuses_is_a_rejected_record(
        self, workspace, tmp_path, line, reason
    ):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            line + "\n" + (workspace / "corpus.jsonl").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        config = write_config(tmp_path / "config.json", corpus)
        assert main(["ingest", "--config", str(config)]) == 0
        errors = (tmp_path / "out" / "ingest_errors.txt").read_text(encoding="utf-8")
        assert errors.startswith(f"line 1 (<no id>): invalid JSON: {reason}")
        assert errors.count("\n") == 1
        split = (tmp_path / "out" / "train.ids").read_bytes()
        assert split == (workspace / "out" / "train.ids").read_bytes()

    @pytest.mark.parametrize("train_embeddings", [False, True])
    def test_train_and_grid_write_one_variant_alike(
        self, workspace, tmp_path, monkeypatch, train_embeddings
    ):
        # One training path: ``train --transform uniform`` writes what the
        # grid writes for its uniform variant. The grid trains one job at a
        # time, so a table shared between variants would carry the first
        # one's trained embeddings into the second.
        config = write_config(
            tmp_path / "config.json", workspace / "corpus.jsonl",
            encoder={"variant": "gru", "dim": 10, "hidden": 10,
                     "train_embeddings": train_embeddings},
            grid={"train_transforms": ["identity", "uniform"], "alt_transforms": ["identity"]},
        )
        names = ["trainset_uniform.jsonl", "model_uniform.ckpt", "train_uniform_loss.tsv",
                 "history_uniform.idx"]
        out = tmp_path / "out"
        assert main(["train", "--config", str(config), "--transform", "uniform"]) == 0
        trained = {name: (out / name).read_bytes() for name in names}
        for name in names:
            (out / name).unlink()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["grid", "--config", str(config)]) == 0
        assert {name: (out / name).read_bytes() for name in names} == trained
        tables = [load_checkpoint(out / f"model_{label}.ckpt").embeddings.matrix
                  for label in ("identity", "uniform")]
        assert np.array_equal(*tables) == (not train_embeddings)

    def test_build_trainset_flags(self, workspace, capsys):
        config = workspace / "config.json"
        assert main([
            "build-trainset", "--config", str(config),
            "--transform", "power:-0.5", "--neg-ratio", "2",
        ]) == 0
        path = workspace / "out" / "trainset_power_-0.5.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(l) for l in lines]
        positives = sum(r["label"] for r in records)
        assert len(records) == positives * 3

    def test_train_artifacts(self, workspace):
        out = workspace / "out"
        assert (out / "model_identity.ckpt").exists()
        assert (out / "history_identity.idx").exists()
        trace = (out / "train_identity_loss.tsv").read_text().splitlines()
        assert [int(l.split("\t")[0]) for l in trace] == [20, 40, 60]

    def test_resampling_trainset_is_what_training_used(self, workspace, tmp_path):
        corpus = workspace / "corpus.jsonl"
        config = write_config(
            tmp_path / "config.json", corpus, sampling={"resample_each_epoch": True}
        )
        cfg = load_config(config)
        parsed = parse_dialogues(corpus.read_text(encoding="utf-8").splitlines())
        train_dialogues, _, _ = split_corpus(
            parsed.dialogues, cfg.split_spec(seed=derive_seed(cfg.master_seed, "split"))
        )
        pairs = extract_all_pairs(train_dialogues, cfg.max_context_turns)
        strategy = SamplingStrategy(
            transform=TransformSpec.parse("identity"), neg_per_pos=cfg.sampling.neg_per_pos
        )
        resample = make_epoch_resampler(
            pairs, count_responses(pairs), strategy,
            derive_seed(cfg.master_seed, "trainset", "identity"),
        )
        expected = tmp_path / "epoch0.jsonl"
        write_training_set(expected, resample(0))
        written = tmp_path / "out" / "trainset_identity.jsonl"
        for command in ("train", "build-trainset"):
            written.unlink(missing_ok=True)
            assert main([command, "--config", str(config)]) == 0
            assert written.read_bytes() == expected.read_bytes(), command

    def test_filtered_trainset_keeps_the_one_name(self, workspace, tmp_path):
        corpus = workspace / "corpus.jsonl"
        config = write_config(
            tmp_path / "config.json", corpus, sampling={"filter_by_inverse_count": True}
        )
        written = tmp_path / "out" / "trainset_identity.jsonl"
        assert main(["train", "--config", str(config)]) == 0
        trained_on = written.read_bytes()
        written.unlink()
        assert main(["build-trainset", "--config", str(config)]) == 0
        assert written.read_bytes() == trained_on
        written.unlink()
        flag_config = write_config(tmp_path / "flag.json", corpus)
        assert main(["build-trainset", "--config", str(flag_config),
                     "--filter-inverse-count"]) == 0
        assert written.read_bytes() == trained_on
        assert not list((tmp_path / "out").glob("*_filtered.jsonl"))

    def test_too_concentrated_alternatives_exit_4(self, workspace, capsys):
        index = workspace / "out" / "history_identity.idx"
        assert main([
            "eval", "--config", str(workspace / "config.json"), "--index", str(index),
            "--alternative-transform", "power:12",
        ]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "distinct alternatives" in err
        assert "Traceback" not in err

    def test_grid_checks_alternative_columns_before_training(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        assert main([
            "make-synthetic-corpus", "--out", str(corpus),
            "--dialogues", "120", "--responses", "12", "--vocab", "40",
        ]) == 0
        config = write_config(
            tmp_path / "config.json", corpus,
            grid={"train_transforms": ["identity", "uniform"],
                  "alt_transforms": ["identity", "power:12"]},
        )
        assert main(["grid", "--config", str(config)]) == 4
        assert "distinct alternatives" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not list(out.glob("model_*.ckpt")) and not list(out.glob("trainset_*"))

    def test_annotation_model_paths_resolve_against_the_config(
        self, workspace, tmp_path, monkeypatch
    ):
        (tmp_path / "models").mkdir()
        ckpt = tmp_path / "models" / "m.ckpt"
        ckpt.write_bytes((workspace / "out" / "model_identity.ckpt").read_bytes())
        config = write_config(
            tmp_path / "config.json", workspace / "corpus.jsonl",
            annotation={"models": {"m": {"kind": "checkpoint", "path": "models/m.ckpt"}}},
        )
        monkeypatch.chdir(workspace)
        assert main(["export-anno", "--config", str(config)]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "export-anno.manifest.json").read_text(encoding="utf-8")
        )
        assert str(ckpt.resolve()) in manifest["inputs"]

    def test_retrieve_prints_ranked(self, workspace, capsys):
        index = workspace / "out" / "history_identity.idx"
        assert main([
            "retrieve", "--index", str(index), "--query", "ask3 word1", "--top-k", "2",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank\tcosine\tpair_id\tresponse"
        assert len(lines) == 3
        assert lines[1].startswith("1\t")

    def test_retrieve_checkpoint_hash_guard(self, workspace, tmp_path, capsys):
        # Pointing the index at a different checkpoint must fail loudly.
        other = workspace / "out" / "model_other.ckpt"
        other.write_bytes((workspace / "out" / "model_identity.ckpt").read_bytes()[:-8] + b"\x00" * 8)
        code = main([
            "retrieve", "--index", str(workspace / "out" / "history_identity.idx"),
            "--query", "ask1", "--checkpoint", str(other),
        ])
        assert code == 4

    def test_retrieve_checkpoint_with_another_file_hash_exit_4(self, workspace, tmp_path, capsys):
        # A well-formed checkpoint, payload hash included, that is not the
        # one the index recorded.
        model = load_checkpoint(workspace / "out" / "model_identity.ckpt")
        model.bilinear[0, 0] += 1.0
        save_checkpoint(model, tmp_path / "other.ckpt")
        assert main([
            "retrieve", "--index", str(workspace / "out" / "history_identity.idx"),
            "--query", "ask1", "--checkpoint", str(tmp_path / "other.ckpt"),
        ]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "does not match the recorded" in err

    def test_retrieve_checkpoint_with_another_header_exit_4(self, workspace, tmp_path, capsys):
        # The same tensors under a vocabulary with two tokens swapped: only
        # the header differs from the checkpoint the index recorded.
        data = (workspace / "out" / "model_identity.ckpt").read_bytes()
        header, tensors = split_container(data)
        vocab = header["vocab"]
        vocab[0], vocab[1] = vocab[1], vocab[0]
        other = join_container(data, header, tensors)
        assert other != data and split_container(other)[1] == split_container(data)[1]
        (tmp_path / "other.ckpt").write_bytes(other)
        assert main([
            "retrieve", "--index", str(workspace / "out" / "history_identity.idx"),
            "--query", "ask1", "--checkpoint", str(tmp_path / "other.ckpt"),
        ]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "does not match the recorded" in err

    def test_retrieve_hashes_each_byte_once(self, workspace, monkeypatch, capsys):
        fed = []
        real = hashlib.sha256

        class Counting:
            def __init__(self, data=b""):
                self.digest = real()
                self.update(data)

            def update(self, data):
                fed.append(memoryview(data).nbytes)
                self.digest.update(data)

            def hexdigest(self):
                return self.digest.hexdigest()

        monkeypatch.setattr(_container, "hashlib", SimpleNamespace(sha256=Counting))
        index = workspace / "out" / "history_identity.idx"
        assert main(["retrieve", "--index", str(index), "--query", "ask1"]) == 0
        ckpt = workspace / "out" / "model_identity.ckpt"
        assert sum(fed) <= index.stat().st_size + ckpt.stat().st_size

    def test_retrieve_reads_the_checkpoint_once(self, workspace, monkeypatch, capsys):
        ckpt = workspace / "out" / "model_identity.ckpt"
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if Path(file) == ckpt:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert main([
            "retrieve", "--index", str(workspace / "out" / "history_identity.idx"),
            "--query", "ask1",
        ]) == 0
        assert len(opened) == 1

    def test_non_finite_artifact_exit_4(self, workspace, tmp_path, capsys):
        model = load_checkpoint(workspace / "out" / "model_identity.ckpt")
        model.bilinear[0, 0] = np.nan
        save_checkpoint(model, tmp_path / "nan.ckpt")
        config = workspace / "config.json"
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(tmp_path / "nan.ckpt")]) == 4
        assert "'bilinear' holds non-finite" in capsys.readouterr().err
        # The loaded index is read-only, so write row 3 of the payload as NaN
        # and hash the new payload.
        data = (workspace / "out" / "history_identity.idx").read_bytes()
        header, [vectors] = split_container(data)
        dim = vectors[1][1]
        raw = bytearray(vectors[2])
        raw[3 * dim * 8 : 4 * dim * 8] = np.full(dim, np.nan, dtype="<f8").tobytes()
        vectors[2] = bytes(raw)
        (tmp_path / "nan.idx").write_bytes(join_container(data, header, [vectors]))
        assert main(["retrieve", "--index", str(tmp_path / "nan.idx"), "--query", "ask1"]) == 4
        assert "'vectors' holds non-finite" in capsys.readouterr().err

    def test_eval_with_checkpoint_and_index(self, workspace, capsys):
        config = workspace / "config.json"
        ckpt = workspace / "out" / "model_identity.ckpt"
        index = workspace / "out" / "history_identity.idx"
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        assert main(["eval", "--config", str(config), "--index", str(index)]) == 0
        out = capsys.readouterr().out
        assert "recall@1" in out
        assert (workspace / "out" / "eval_dual-encoder_identity.txt").exists()
        assert (workspace / "out" / "eval_history-index_identity.txt").exists()

    def test_eval_requires_scorer(self, workspace):
        assert main(["eval", "--config", str(workspace / "config.json")]) == 2

    @pytest.mark.parametrize("command", [
        ["make-synthetic-corpus", "--out", "{root}/neg.jsonl", "--seed", "-1"],
        ["build-trainset", "--config", "{root}/config.json", "--seed", "-1"],
        ["build-trainset", "--config", "{root}/config.json", "--neg-ratio", "0"],
        ["build-trainset", "--config", "{root}/config.json", "--neg-ratio", "-1"],
        ["retrieve", "--index", "{root}/out/history_identity.idx", "--query", "ask1",
         "--top-k", "0"],
        ["make-synthetic-corpus", "--out", "{root}/neg.jsonl", "--exponent", "nan"],
        ["make-synthetic-corpus", "--out", "{root}/neg.jsonl", "--dialogues", "0"],
        ["make-synthetic-corpus", "--out", "{root}/neg.jsonl", "--responses", "-1"],
        ["make-synthetic-corpus", "--out", "{root}/neg.jsonl", "--vocab", "-3"],
        ["make-synthetic-corpus", "--out", "{root}/neg.jsonl", "--responses", "1"],
    ])
    def test_negative_seed_is_usage_error(self, workspace, capsys, command):
        # Also every other out-of-range numeric flag: the last two words.
        argv = [arg.format(root=workspace) for arg in command]
        assert main(argv) == 2
        assert command[-2] in capsys.readouterr().err
        assert not (workspace / "neg.jsonl").exists()

    @pytest.mark.parametrize("defect", [
        "cut@3", "cut@10", "cut@16", "cut@40", "cut@header-end", "cut@payload+8",
        "cut@last-byte", "missing-key", "trailing-byte", "version-1", "version-2",
        "flip@payload+8",
    ])
    @pytest.mark.parametrize("kind", ["checkpoint", "index"])
    def test_malformed_container_exit_4(self, workspace, tmp_path, capsys, kind, defect):
        name = {"checkpoint": "model_identity.ckpt", "index": "history_identity.idx"}[kind]
        data = (workspace / "out" / name).read_bytes()
        (header_len,) = struct.unpack("<Q", data[8:16])
        end = 16 + header_len
        if defect == "missing-key":
            header = json.loads(data[16:end])
            del header["tensors"]
            blob = json.dumps(header, sort_keys=True).encode("utf-8")
            data = data[:8] + struct.pack("<Q", len(blob)) + blob + data[end:]
        elif defect == "trailing-byte":
            data += b"\x00"
        elif defect.startswith("version-"):
            # Versions 1 and 2 are not read, whatever follows their prefix.
            data = data[:6] + struct.pack("<H", int(defect[-1])) + data[8:]
        elif defect == "flip@payload+8":
            data = bytearray(data)
            data[end + 8] ^= 0x01
            data = bytes(data)
        else:
            cut = defect.partition("@")[2]
            offsets = {"header-end": end, "payload+8": end + 8, "last-byte": len(data) - 1}
            data = data[: offsets[cut] if cut in offsets else int(cut)]
        bad = tmp_path / name
        bad.write_bytes(data)
        if kind == "checkpoint":
            argv = ["eval", "--config", str(workspace / "config.json"), "--checkpoint", str(bad)]
        else:
            argv = ["retrieve", "--index", str(bad), "--query", "ask1"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert ("checkpoint" if kind == "checkpoint" else "history index") in err
        expected = {"version-1": "version 1", "version-2": "version 2",
                    "flip@payload+8": "payload hash"}.get(defect, "")
        assert expected in err
        if defect.startswith("version-"):
            assert "re-run train or grid" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("defect", ["missing", "misshapen"])
    def test_bad_gru_tensor_in_checkpoint_exit_4(self, workspace, tmp_path, capsys, defect):
        data = (workspace / "out" / "model_identity.ckpt").read_bytes()
        header, tensors = split_container(data)
        if defect == "missing":
            tensors = [t for t in tensors if t[0] != "encoder.u"]
        else:
            tensor = next(t for t in tensors if t[0] == "encoder.b")
            tensor[1] = [tensor[1][0] - 1]
            tensor[2] = tensor[2][:-8]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(join_container(data, header, tensors))
        config = workspace / "config.json"
        assert main(["eval", "--config", str(config), "--checkpoint", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "data error" in err
        assert ("'u'" if defect == "missing" else "tensor b ") in err

    def test_checkpoint_of_an_unknown_variant_exit_4(self, workspace, tmp_path, capsys):
        model = load_checkpoint(workspace / "out" / "model_identity.ckpt")
        assert "lstm" not in encoder.ENCODERS
        header = {"tied": model.tied, "train_embeddings": model.train_embeddings,
                  "variant": "lstm", "vocab": model.embeddings.tokens_in_index_order()}
        bad = tmp_path / "lstm.ckpt"
        _container.write_container(bad, b"DRCKPT", header, model.all_tensors())
        message = f"checkpoint variant 'lstm' is not one of {sorted(encoder.ENCODERS)}"
        with pytest.raises(DataError, match=re.escape(message)):
            load_checkpoint(bad)
        config = workspace / "config.json"
        assert main(["eval", "--config", str(config), "--checkpoint", str(bad)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("bad, code", [("corpus", 4), ("embeddings", 4), ("config", 2)])
    def test_non_utf8_input_exit_code(self, workspace, tmp_path, capsys, bad, code):
        target = tmp_path / f"bad_{bad}"
        target.write_bytes(b"\xff\xfe" + "not utf-8".encode("utf-16-le"))
        corpus = target if bad == "corpus" else workspace / "corpus.jsonl"
        paths = {"corpus": str(corpus), "output_dir": "out"}
        if bad == "embeddings":
            paths["embeddings"] = str(target)
        config = write_config(tmp_path / "config.json", corpus, paths=paths)
        if bad == "config":
            config = target
        argv = ["build-trainset", "--config", str(config), "--transform", "kde:0.4"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("header, vectors, message", [
        ("3 10", 1, "does not match the 1 vectors"), ("1 10", 3, "does not match the 3 vectors"),
        ("9" * 5000 + " 10", 2, "bad embedding header"),
    ])
    def test_embedding_count_mismatch_exit_4(
        self, workspace, tmp_path, capsys, header, vectors, message
    ):
        embeddings = tmp_path / "emb.txt"
        embeddings.write_text(header + "\n" + "".join(
            f"t{i}" + " 0.5" * 10 + "\n" for i in range(vectors)
        ), encoding="utf-8")
        corpus = workspace / "corpus.jsonl"
        config = write_config(tmp_path / "config.json", corpus, paths={
            "corpus": str(corpus), "embeddings": str(embeddings), "output_dir": "out",
        })
        assert main(["train", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert "Traceback" not in err and len(err) < 200

    @pytest.mark.parametrize("defect", [
        "rank-not-integer", "mark-not-integer", "empty-file", "key-line-without-tab",
        "key-line-not-integer", "not-utf8", "missing-rank-2", "duplicated-rank",
        "fewer-ranks-than-other-question", "sheet-line-missing-from-key",
        "key-line-names-no-sheet-line", "key-line-listed-twice", "header-only-sheet",
    ])
    def test_malformed_marked_annotation_exit_4(self, tmp_path, capsys, defect):
        anno = ["question_id\trank\tresponse\tmark"] + [
            f"q1\t{rank}\tresponse {rank}\t{rank % 2}" for rank in (1, 2, 3)
        ]
        key = ["line\tmodel", "2\ta", "3\ta", "4\ta"]
        if defect == "rank-not-integer":
            anno[2] = "q1\ttwo\tresponse 2\t0"
        elif defect == "mark-not-integer":
            anno[2] = "q1\t2\tresponse 2\tgood"
        elif defect == "empty-file":
            anno = []
        elif defect == "key-line-without-tab":
            key[2] = "3 a"
        elif defect == "key-line-not-integer":
            key[2] = "three\ta"
        elif defect == "missing-rank-2":
            del anno[2]
        elif defect == "duplicated-rank":
            anno[3] = "q1\t2\tresponse 3\t1"
        elif defect == "fewer-ranks-than-other-question":
            anno += ["q2\t1\tresponse 1\t0", "q2\t2\tresponse 2\t0"]
            key += ["5\ta", "6\ta"]
        elif defect == "sheet-line-missing-from-key":
            del key[2]
        elif defect == "key-line-names-no-sheet-line":
            key += ["5\ta"]
        elif defect == "key-line-listed-twice":
            key += ["3\tb"]
        elif defect == "header-only-sheet":
            anno, key = anno[:1], key[:1]
        anno_path, key_path = tmp_path / "marked.tsv", tmp_path / "key.tsv"
        anno_path.write_text("".join(line + "\n" for line in anno), encoding="utf-8")
        key_path.write_text("\n".join(key) + "\n", encoding="utf-8")
        if defect == "not-utf8":
            anno_path.write_bytes(b"\xff\xfe" + anno_path.read_text().encode("utf-16-le"))
        assert main(["score-anno", "--anno", str(anno_path), "--key", str(key_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error: annotation")
        assert "Traceback" not in err
        where = {"sheet-line-missing-from-key": "annotation line 3: not in the annotation key",
                 "key-line-names-no-sheet-line": "key line 5: line 5 is not a data line",
                 "key-line-listed-twice": "key line 5: line 3 is already keyed on line 3",
                 "header-only-sheet": "has no data rows"}
        assert where.get(defect, "") in err

    @pytest.mark.parametrize("output_dir", ["afile", "afile/out"])
    def test_output_dir_blocked_by_a_file_exit_2(self, workspace, tmp_path, capsys, output_dir):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        corpus = workspace / "corpus.jsonl"
        config = write_config(tmp_path / "config.json", corpus,
                              paths={"corpus": str(corpus), "output_dir": output_dir})
        assert main(["ingest", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "paths.output_dir" in err and "exists and is not a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("out", ["afile/c.jsonl", "afile/sub/c.jsonl"])
    def test_corpus_out_under_a_file_exit_2(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        assert main(["make-synthetic-corpus", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "is not a directory" in err
        assert err.count("\n") == 1
        assert (tmp_path / "afile").read_bytes() == b""

    def test_missing_input_exit_3(self, workspace):
        assert main([
            "retrieve", "--index", "/nonexistent.idx", "--query", "x",
        ]) == 3

    def test_index_under_a_regular_file_exit_3(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        assert main([
            "retrieve", "--index", str(tmp_path / "afile" / "x.idx"), "--query", "hi",
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("missing input:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["retrieve", "--index", "{dir}", "--query", "ask1"],
        ["eval", "--config", "{root}/config.json", "--checkpoint", "{dir}"],
        ["score-anno", "--anno", "{dir}"],
    ])
    def test_directory_as_input_exit_3(self, workspace, tmp_path, capsys, command):
        assert main([arg.format(root=workspace, dir=tmp_path) for arg in command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("missing input:")
        assert "Traceback" not in err

    def test_grid_artifacts_parse(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        assert main([
            "make-synthetic-corpus", "--out", str(corpus), "--dialogues", "120",
            "--responses", "12", "--vocab", "40", "--exponent", "1.0", "--seed", "2",
        ]) == 0
        config = write_config(tmp_path / "config.json", corpus)
        assert main(["grid", "--config", str(config)]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        table = (tmp_path / "out" / "grid_table.txt").read_text(encoding="utf-8")
        lines = table.splitlines()
        assert lines[0].split() == [
            "test_alternatives", "train_negatives", "recall@1", "recall@3",
        ]
        assert len(lines) == 5
        cells = {tuple(l.split()[:2]): float(l.split()[2]) for l in lines[1:]}
        assert set(cells) == {
            ("identity", "identity"), ("identity", "uniform"),
            ("uniform", "identity"), ("uniform", "uniform"),
        }
        for name in (
            "grid_identity__alt_identity.txt", "grid_uniform__alt_uniform.txt",
        ):
            report = (tmp_path / "out" / name).read_text(encoding="utf-8")
            assert "recall@1" in report

    def test_eval_writes_the_grids_cell_reports(self, tmp_path, capsys):
        # One evaluation set-up: eval of a grid checkpoint against one of the
        # grid's alternatives writes that cell's report byte for byte.
        corpus = tmp_path / "corpus.jsonl"
        assert main([
            "make-synthetic-corpus", "--out", str(corpus), "--dialogues", "120",
            "--responses", "12", "--vocab", "40",
        ]) == 0
        alts = ["identity", "kde:0.4"]
        grid = {"train_transforms": ["identity", "uniform"], "alt_transforms": alts}
        configs = {
            out: write_config(tmp_path / f"{out}.json", corpus, grid=grid,
                              paths={"corpus": str(corpus), "output_dir": out})
            for out in ("grid", "eval")
        }
        assert main(["grid", "--config", str(configs["grid"])]) == 0
        for variant in grid["train_transforms"]:
            checkpoint = tmp_path / "grid" / f"model_{variant}.ckpt"
            for alt in alts:
                assert main(["eval", "--config", str(configs["eval"]), "--checkpoint",
                             str(checkpoint), "--alternative-transform", alt]) == 0
                alt = alt.replace(":", "_")
                report = (tmp_path / "eval" / f"eval_dual-encoder_{alt}.txt").read_bytes()
                assert report == (tmp_path / "grid" / f"grid_{variant}__alt_{alt}.txt").read_bytes()

    @pytest.mark.parametrize("failing", ["identity", "uniform"])
    def test_grid_with_a_diverging_variant_fails_as_on_one_cpu(
        self, tmp_path, capsys, monkeypatch, failing
    ):
        corpus = tmp_path / "corpus.jsonl"
        assert main([
            "make-synthetic-corpus", "--out", str(corpus), "--dialogues", "120",
            "--responses", "12", "--vocab", "40", "--seed", "2",
        ]) == 0
        capsys.readouterr()
        real = encoder._train_one
        failing_seed = derive_seed(11, "train", failing)

        def diverge_one_variant(model, examples, config, resampler=None):
            if config.seed == failing_seed:
                raise DivergenceError(7, float("nan"))
            return real(model, examples, config, resampler)

        monkeypatch.setattr(encoder, "_train_one", diverge_one_variant)
        errs = []
        for run, cpus in (("two-cpus", {0, 1}), ("one-cpu", {0})):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            config = write_config(
                tmp_path / f"{run}.json", corpus, paths={"corpus": str(corpus), "output_dir": run}
            )
            assert main(["grid", "--config", str(config)]) == 5
            errs.append(capsys.readouterr().err)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            out = tmp_path / run
            assert sorted(p.name for p in out.iterdir()) == [
                "trainset_identity.jsonl", "trainset_uniform.jsonl",
            ]
        assert errs[0] == errs[1]
        assert errs[0].splitlines()[-1] == "numeric error: loss diverged (value nan) at iteration 7"

    def test_annotation_roundtrip(self, workspace, capsys):
        config = workspace / "config.json"
        ckpt = workspace / "out" / "model_identity.ckpt"
        index = workspace / "out" / "history_identity.idx"
        assert main([
            "export-anno", "--config", str(config),
            "--checkpoint", str(ckpt), "--index", str(index),
        ]) == 0
        anno = workspace / "out" / "annotation.tsv"
        key = workspace / "out" / "annotation_key.tsv"
        lines = anno.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "question_id\trank\tresponse\tmark"
        assert all(line.endswith("\t") for line in lines[1:])
        marked = [lines[0]] + [l + str(i % 4) for i, l in enumerate(lines[1:])]
        marked_path = workspace / "out" / "annotation_marked.tsv"
        marked_path.write_text("\n".join(marked) + "\n", encoding="utf-8")
        assert main([
            "score-anno", "--anno", str(marked_path), "--key", str(key),
            "--out", str(workspace / "out" / "human_scores.txt"),
        ]) == 0
        scored = (workspace / "out" / "human_scores.txt").read_text(encoding="utf-8")
        assert scored.splitlines()[0] == "model\tquestions\tCR\tUR"
        assert "dual-encoder" in scored and "history-index" in scored

    def test_annotation_roundtrip_two_responses(self, workspace, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json", workspace / "corpus.jsonl",
            annotation={"num_questions": 4, "n_responses": 2},
        )
        ckpt = workspace / "out" / "model_identity.ckpt"
        assert main(["export-anno", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        out = tmp_path / "out"
        lines = (out / "annotation.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 4 * 2
        marked = out / "annotation_marked.tsv"
        marked.write_text(
            "\n".join([lines[0]] + [line + "2" for line in lines[1:]]) + "\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        key = out / "annotation_key.tsv"
        assert main(["score-anno", "--anno", str(marked), "--key", str(key)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "model\tquestions\tCR\tUR", "dual-encoder\t4\t1.0000\t1.0000",
        ]


class TestManifests:
    def test_manifest_echoes_config_and_hashes_outputs(self, workspace):
        manifest = json.loads(
            (workspace / "out" / "train.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["config"]["master_seed"] == 11
        assert manifest["command"] == "train"
        assert any("model_identity.ckpt" in k for k in manifest["outputs"])
        assert "created_at" in manifest

    @pytest.mark.parametrize("command, scorer", [
        ("ingest", None), ("stats", None), ("build-trainset", None), ("train", None),
        ("eval", "model_identity.ckpt"), ("grid", None),
        ("export-anno", "history_identity.idx"),
    ])
    def test_every_config_command_records_its_run(self, workspace, tmp_path, command, scorer):
        corpus = workspace / "corpus.jsonl"
        argv = [command, "--config", str(write_config(tmp_path / "config.json", corpus))]
        inputs = [corpus]
        if scorer is not None:
            path = workspace / "out" / scorer
            argv += ["--checkpoint" if path.suffix == ".ckpt" else "--index", str(path)]
            inputs.append(path)
        assert main(argv) == 0
        manifest = json.loads(
            (tmp_path / "out" / f"{command}.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["command"] == command
        assert {Path(p).resolve() for p in manifest["inputs"]} == {
            p.resolve() for p in inputs
        }
        assert manifest["outputs"]
        for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A tiny corpus next to which each fuzzed config is written."""
    root = tmp_path_factory.mktemp("config_fuzz")
    assert main([
        "make-synthetic-corpus", "--out", str(root / "corpus.jsonl"),
        "--dialogues", "40", "--responses", "6", "--vocab", "20", "--seed", "3",
    ]) == 0
    return root


# Every known field and section, as the key path that sets it.
FUZZ_KEYS = sorted({(s, k) if s else (k,) for s, k in _FIELDS} | {(s,) for s, _ in _FIELDS if s})

WRONG_VALUES = st.one_of(
    st.booleans(), st.none(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.integers(-3, 12), st.integers(max_value=-1), st.integers(min_value=2**63),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(allow_nan=False, allow_infinity=False),
    # No "/" or ".": a fuzzed output_dir stays inside the config's directory.
    st.text(st.characters(blacklist_characters="/."), max_size=10),
    st.lists(st.integers(-3, 12), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)


DAMAGES = ["truncate", "flip", "invalid-utf8"]


def damage_bytes(raw: bytes, damage: str, data) -> bytes:
    """``raw`` cut short, with one byte flipped, or with invalid UTF-8 put in."""
    raw = bytearray(raw)
    at = data.draw(st.integers(0, len(raw) - 1))
    if damage == "truncate":
        del raw[at:]
    elif damage == "flip":
        raw[at] ^= data.draw(st.integers(1, 255))
    else:
        raw[at:at] = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]))
    return bytes(raw)


class TestConfigFuzz:
    """Whatever a config file holds, ingest exits 0, 2, 3 or 4 and never raises."""

    @settings(max_examples=300, deadline=None)
    @given(fields=st.dictionaries(st.sampled_from(FUZZ_KEYS), WRONG_VALUES,
                                  min_size=1, max_size=4))
    def test_wrong_field_values(self, fuzz_dir, fields):
        data = json.loads(write_config(fuzz_dir / "config.json", "corpus.jsonl").read_text())
        for key, value in fields.items():
            section = data if len(key) == 1 else data.setdefault(key[0], {})
            if isinstance(section, dict):
                section[key[-1]] = value
        path = fuzz_dir / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        # Only a ConfigError: the config objects are built after validation.
        try:
            load_config(path, require_corpus=True)
        except ConfigError:
            pass
        assert main(["ingest", "--config", str(path)]) in (0, 2, 3, 4)

    @settings(max_examples=300, deadline=None)
    @given(damage=st.sampled_from(DAMAGES), data=st.data())
    def test_damaged_bytes(self, fuzz_dir, damage, data):
        # No output_dir: no damage to the file can point the run elsewhere.
        config = write_config(fuzz_dir / "config.json", "corpus.jsonl",
                              paths={"corpus": "corpus.jsonl"})
        config.write_bytes(damage_bytes(config.read_bytes(), damage, data))
        code = main(["ingest", "--config", str(config)])
        assert code == 2 if damage == "invalid-utf8" else code in (0, 2, 3, 4)


# Raw JSON or TSV text for a fuzzed value: huge integers, non-finite
# numbers in every spelling, wrong types, line breaks, deep nesting.
FUZZ_LITERALS = [
    "1" + "0" * 5000, "-" + "9" * 400, "18446744073709551616", "NaN", "Infinity",
    "-Infinity", "1e400", "-1e400", "nan", "inf", "-inf", "-1", "0", "", "null", "true",
    "[]", "{}", '""', '"a\\nb"', "[" * 3000,
]


def mutated_lines(lines: list[str], data, mutate_line) -> list[str]:
    """``lines`` with one line dropped, doubled or changed by ``mutate_line``."""
    at = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["drop", "duplicate", "change"]))
    if how == "drop":
        return lines[:at] + lines[at + 1 :]
    if how == "duplicate":
        return lines[: at + 1] + lines[at:]
    return lines[:at] + [mutate_line(lines[at], data)] + lines[at + 1 :]


def mutated_field(line: str, sep: str, data) -> str:
    """``line`` with one ``sep``-separated field replaced by a fuzz literal."""
    fields = line.split(sep)
    at = data.draw(st.integers(0, len(fields) - 1))
    fields[at] = data.draw(st.sampled_from(FUZZ_LITERALS))
    return sep.join(fields)


def mutated_record(line: str, data) -> str:
    """A corpus record with a key dropped, doubled or set to a fuzz literal."""
    record = json.loads(line)
    turn = record["turns"][0]
    obj, key = data.draw(st.sampled_from(
        [(record, "id"), (record, "turns"), (turn, "speaker"), (turn, "text")]
    ))
    how = data.draw(st.sampled_from(["drop", "duplicate", "literal"]))
    if how == "drop":
        del obj[key]
        return json.dumps(record)
    literal = data.draw(st.sampled_from(FUZZ_LITERALS))
    if how == "duplicate":  # JSON keeps the last copy of a doubled key
        literal = f'{json.dumps(obj[key])}, "{key}": {literal}'
    obj[key] = "\0fuzz"
    return json.dumps(record).replace(json.dumps("\0fuzz"), literal, 1)


def survives(argv) -> None:
    """``main(argv)`` exits 0 to 5 and prints no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert 0 <= code <= 5
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def text_fuzz_dir(fuzz_dir):
    """Valid text inputs next to ``fuzz_dir``'s corpus, and the configs that read them."""
    root = fuzz_dir / "text"
    root.mkdir()
    lines = (fuzz_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    (root / "corpus.jsonl").write_text("\n".join(lines[:12]) + "\n", encoding="utf-8")
    write_config(root / "ingest.json", "corpus.jsonl", split={"train": 2, "dev": 1, "test": 1})
    vocab = corpus_vocabulary(parse_dialogues(lines).dialogues)
    (root / "emb.txt").write_text(f"{len(vocab)} 4\n" + "".join(
        f"{tok} 0.5 -0.25 1e-3 2\n" for tok in vocab
    ), encoding="utf-8")
    write_config(root / "emb.json", fuzz_dir / "corpus.jsonl",
                 paths={"corpus": str(fuzz_dir / "corpus.jsonl"), "embeddings": "emb.txt",
                        "output_dir": "out_emb"},
                 encoder={"variant": "gru", "dim": 4, "hidden": 4})
    sheet, key = ["question_id\trank\tresponse\tmark"], ["line\tmodel"]
    for q in range(3):
        for model in ("a", "b"):
            for rank in (1, 2):
                sheet.append(f"q{q}\t{rank}\tresponse {q}{model}{rank}\t{(q + rank) % 4}")
                key.append(f"{len(sheet)}\t{model}")
    (root / "marked.tsv").write_text("\n".join(sheet) + "\n", encoding="utf-8")
    (root / "key.tsv").write_text("\n".join(key) + "\n", encoding="utf-8")
    # Each fuzzed input starts from one that its command accepts.
    assert main(["ingest", "--config", str(root / "ingest.json")]) == 0
    assert main(["build-trainset", "--config", str(root / "emb.json")]) == 0
    assert main(["score-anno", "--anno", str(root / "marked.tsv"),
                 "--key", str(root / "key.tsv")]) == 0
    return root


class TestTextInputFuzz:
    """Whatever the corpus, embeddings, marked sheet or key hold, each command
    that reads them exits 0 to 5 and prints no traceback."""

    def fuzzed(self, path: Path, valid: str, data, mutate_line) -> None:
        how = data.draw(st.sampled_from(["lines", *DAMAGES]))
        if how == "lines":
            lines = mutated_lines(valid.splitlines(), data, mutate_line)
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        else:
            path.write_bytes(damage_bytes(valid.encode("utf-8"), how, data))

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_corpus_through_ingest(self, text_fuzz_dir, data):
        corpus = text_fuzz_dir / "corpus.jsonl"
        valid = corpus.read_text(encoding="utf-8")
        try:
            self.fuzzed(corpus, valid, data, mutated_record)
            survives(["ingest", "--config", str(text_fuzz_dir / "ingest.json")])
        finally:
            corpus.write_text(valid, encoding="utf-8")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_embeddings_through_build_trainset(self, text_fuzz_dir, data):
        embeddings = text_fuzz_dir / "emb.txt"
        valid = embeddings.read_text(encoding="utf-8")
        try:
            self.fuzzed(embeddings, valid, data, lambda line, d: mutated_field(line, " ", d))
            survives(["build-trainset", "--config", str(text_fuzz_dir / "emb.json")])
        finally:
            embeddings.write_text(valid, encoding="utf-8")

    @settings(max_examples=250, deadline=None)
    @given(which=st.sampled_from(["marked.tsv", "key.tsv"]), data=st.data())
    def test_marked_sheet_and_key_through_score_anno(self, text_fuzz_dir, which, data):
        path = text_fuzz_dir / which
        valid = path.read_text(encoding="utf-8")
        try:
            self.fuzzed(path, valid, data, lambda line, d: mutated_field(line, "\t", d))
            survives(["score-anno", "--anno", str(text_fuzz_dir / "marked.tsv"),
                      "--key", str(text_fuzz_dir / "key.tsv")])
        finally:
            path.write_text(valid, encoding="utf-8")
