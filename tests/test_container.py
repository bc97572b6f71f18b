"""Golden bytes of the checkpoint and history-index containers.

Both formats share one layout: a six-byte magic, a uint16 version (3), a
uint64 header length, the UTF-8 JSON header with sorted keys, then the
float64 little-endian row-major payload. The header lists the payload as
``tensors``, ``[[name, shape], ...]`` in file order, and holds its
SHA-256 as ``payload_sha256``. The expected bytes are assembled here from
that description alone. The writer returns the SHA-256 of the bytes
before the payload, the digest that pins the file.

Every artifact writer, text or binary, writes through
``_container.write_artifact``, so a failed write keeps the previous file.
"""

import errno
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialret import _container
from dialret.cli import main
from dialret.corpus import Dialogue, Speaker, Turn, write_split_manifest
from dialret.encoder import DualEncoderModel, load_checkpoint, random_embeddings, save_checkpoint
from dialret.errors import DataError
from dialret.evaluation import AnnotationRow, write_annotation_file, write_annotation_key
from dialret.retrieval import HistoryIndex, load_index, save_index
from dialret.sampling import TrainingExample, TrainingSet, write_training_set


def container(magic: bytes, header: dict, payload: list[tuple[str, np.ndarray]]) -> bytes:
    data = b"".join(np.asarray(t, dtype="<f8").tobytes() for _, t in payload)
    header = dict(
        header,
        payload_sha256=hashlib.sha256(data).hexdigest(),
        tensors=[[name, list(np.shape(t))] for name, t in payload],
    )
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return magic + struct.pack("<H", 3) + struct.pack("<Q", len(blob)) + blob + data


def small_index(vectors) -> HistoryIndex:
    return HistoryIndex(
        response_weight=0.4, pair_ids=[1, 4, 9], vectors=vectors,
        responses=["grüß dich", "ok", "fact1 ok"],
        checkpoint_ref="model.ckpt", checkpoint_sha256="cd" * 32,
    )


def test_index_bytes(tmp_path):
    vectors = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]])
    path = tmp_path / "history.idx"
    digest = save_index(small_index(vectors), path)
    header = {
        "checkpoint_ref": "model.ckpt", "checkpoint_sha256": "cd" * 32,
        "pair_ids": [1, 4, 9], "response_weight": 0.4,
        "responses": ["grüß dich", "ok", "fact1 ok"],
    }
    expected = container(b"DRHIDX", header, [("vectors", vectors)])
    assert path.read_bytes() == expected
    assert digest == hashlib.sha256(expected[: -vectors.nbytes]).hexdigest()


@pytest.mark.parametrize("variant, tied", [("gru", True), ("attention", False)])
def test_checkpoint_bytes(tmp_path, variant, tied):
    vocab = ["hello", "wörld", "!"]
    emb = random_embeddings(vocab, 3, 1.0, seed=3)
    model = DualEncoderModel.create(emb, variant=variant, hidden=2, seed=4, tied=tied)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)

    if variant == "gru":
        shapes = {"w": [6, 3], "u": [6, 2], "b": [6]}
        encoder = [(f"encoder.{name}", shapes[name]) for name in "wub"]
        params = {"encoder": model.context_encoder}
    else:
        encoder = [
            (f"{side}_encoder.{name}", shape)
            for side in ("context", "response")
            for name, shape in (("proj", [3, 3]), ("score", [3]))
        ]
        params = {"context_encoder": model.context_encoder,
                  "response_encoder": model.response_encoder}
    enc_dim = 2 if variant == "gru" else 3
    layout = [("embeddings.matrix", [4, 3]), ("bilinear", [enc_dim, enc_dim])] + encoder
    header = {"tied": tied, "train_embeddings": False, "variant": variant, "vocab": vocab}

    def tensor(name):
        if name == "embeddings.matrix":
            return model.embeddings.matrix
        if name == "bilinear":
            return model.bilinear
        prefix, _, attr = name.partition(".")
        return getattr(params[prefix], attr)

    payload = [(name, tensor(name)) for name, _ in layout]
    for (_, t), (_, shape) in zip(payload, layout):
        assert list(t.shape) == shape
    assert path.read_bytes() == container(b"DRCKPT", header, payload)


def _checkpoint(path, version):
    emb = random_embeddings(["hello", "wörld"], 3, 1.0, seed=version)
    save_checkpoint(DualEncoderModel.create(emb, variant="gru", hidden=2, seed=4), path)


def _split_ids(path, version):
    turns = [Turn(Speaker.USER, "hi"), Turn(Speaker.OPERATOR, "ok")]
    write_split_manifest(path, [Dialogue(f"d{version}-{i}", turns) for i in range(3)])


def _annotation_rows(version):
    return [AnnotationRow(str(q), 1, f"réponse {version}", "", "model") for q in range(3)]


# Every artifact writer, as write(path, version): versions 0 and 1 differ.
WRITERS = {
    "checkpoint": _checkpoint,
    "index": lambda path, version: save_index(
        small_index(np.roll(np.eye(3), version, axis=0)), path),
    "trainset": lambda path, version: write_training_set(
        path, TrainingSet.from_examples([TrainingExample(("ask",), ("ok",), 1, version)] * 3)),
    "split-ids": _split_ids,
    "annotation-sheet": lambda path, version: write_annotation_file(
        path, _annotation_rows(version)),
    "annotation-key": lambda path, version: write_annotation_key(
        path, _annotation_rows(version)[version:]),
    "cli-corpus": lambda path, version: main([
        "make-synthetic-corpus", "--out", str(path), "--dialogues", "5", "--seed", str(version),
    ]),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, capsys, writer):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 0)
    before = path.read_bytes()

    class FullDisk:
        """A file that takes half of the first write, then fails, as on a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            data = memoryview(data).cast("B")
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(_container, "open", lambda *a: FullDisk(open(*a)), raising=False)
    if writer == "cli-corpus":
        # The CLI reports any other OS error in one line and exits 1.
        assert WRITERS[writer](path, 1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No space left" in err and err.count("\n") == 1
    else:
        with pytest.raises(OSError):
            WRITERS[writer](path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_failing_chunks_keep_the_previous_file(tmp_path):
    path = tmp_path / "artifact"
    _container.write_artifact(path, ["before\n"])

    def chunks():
        yield "first line\n"
        raise DataError("bad record")

    with pytest.raises(DataError, match="bad record"):
        _container.write_artifact(path, chunks())
    assert path.read_bytes() == b"before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_load_without_a_file_hash_checks_only_the_payload_hash(tmp_path, monkeypatch):
    path = tmp_path / "history.idx"
    save_index(small_index(np.eye(3)), path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))
    made = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(_container.hashlib, "sha256", lambda: made.append(sha256()) or made[-1])
    with pytest.raises(DataError, match="payload hash"):
        load_index(path)
    assert len(made) == 1


def test_wrong_file_hash_is_a_data_error(tmp_path):
    path = tmp_path / "history.idx"
    digest = save_index(small_index(np.eye(3)), path)

    def read(sha256):
        return _container.read_container(
            path, b"DRHIDX", "history index", lambda header, tensors: tensors["vectors"], sha256
        )

    assert np.array_equal(read(digest), np.eye(3))
    with pytest.raises(DataError, match="does not match the recorded"):
        read(hashlib.sha256(path.read_bytes()).hexdigest())


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A directory holding a small checkpoint and an index that references it."""
    directory = tmp_path_factory.mktemp("pristine")
    emb = random_embeddings(["hello", "wörld"], 3, 1.0, seed=5)
    model = DualEncoderModel.create(emb, variant="gru", hidden=3, seed=6)
    digest = save_checkpoint(model, directory / "model.ckpt")
    index = HistoryIndex(
        response_weight=0.4, pair_ids=[1, 4, 9], vectors=np.eye(3),
        responses=["grüß dich", "ok", "fact1 ok"],
        checkpoint_ref="model.ckpt", checkpoint_sha256=digest,
    )
    save_index(index, directory / "history.idx")
    return directory


LOADERS = {"model.ckpt": load_checkpoint, "history.idx": load_index}


def corrupted(blob: bytes, truncate: bool, position: int) -> bytes:
    """``blob`` cut to ``position`` bytes, or with bit ``position`` flipped."""
    if truncate:
        return blob[:position]
    flipped = bytearray(blob)
    flipped[position // 8] ^= 1 << (position % 8)
    return bytes(flipped)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), truncate=st.booleans(), data=st.data())
def test_a_corrupt_container_loads_or_is_a_data_error(pristine, name, truncate, data):
    blob = (pristine / name).read_bytes()
    position = data.draw(st.integers(0, (len(blob) if truncate else 8 * len(blob)) - 1))
    path = pristine / f"corrupt.{name}"
    path.write_bytes(corrupted(blob, truncate, position))
    try:
        LOADERS[name](path)
    except DataError:
        pass


def _byte_after(blob: bytes, text: bytes) -> int:
    return blob.index(text) + len(text)


# name -> (truncate, position given the index's bytes): the bytes kept by a
# cut, or the bit a flip changes.
RETRIEVE_CORRUPTIONS = {
    "empty": (True, lambda blob: 0),
    "cut-in-prefix": (True, lambda blob: 11),
    "cut-in-header": (True, lambda blob: 40),
    "cut-in-payload": (True, lambda blob: len(blob) - 5),
    "flip-magic": (False, lambda blob: 3),
    "flip-version": (False, lambda blob: 8 * 6),
    "flip-header-length": (False, lambda blob: 8 * 8 + 2),
    "flip-checkpoint-hash": (False, lambda blob: 8 * _byte_after(blob, b'"checkpoint_sha256": "')),
    "flip-response-text": (False, lambda blob: 8 * _byte_after(blob, b'"fact') + 1),
    "flip-payload": (False, lambda blob: 8 * len(blob) - 20),
}


@pytest.mark.parametrize("corruption", sorted(RETRIEVE_CORRUPTIONS))
def test_retrieve_on_a_corrupt_index_fails_cleanly(pristine, capsys, corruption):
    blob = (pristine / "history.idx").read_bytes()
    truncate, position = RETRIEVE_CORRUPTIONS[corruption]
    path = pristine / "corrupt.idx"
    path.write_bytes(corrupted(blob, truncate, position(blob)))
    code = main(["retrieve", "--index", str(path), "--query", "hello"])
    err = capsys.readouterr().err
    assert code in (0, 4)
    assert "Traceback" not in err
    assert (code == 4) == err.startswith("data error:")


def test_retrieve_through_a_corrupt_checkpoint_reference_is_a_missing_input(pristine, capsys):
    # The flipped name points at no file, which is reported like any other
    # missing input.
    blob = (pristine / "history.idx").read_bytes()
    path = pristine / "corrupt.idx"
    path.write_bytes(corrupted(blob, False, 8 * _byte_after(blob, b'"checkpoint_ref": "')))
    assert main(["retrieve", "--index", str(path), "--query", "hello"]) == 3
    assert capsys.readouterr().err.startswith("missing input:")


def test_retrieve_on_a_deeply_nested_index_header_is_a_data_error(tmp_path, capsys):
    # JSON nested past the parser's recursion limit is a malformed header.
    blob = ("[" * 5000).encode("utf-8")
    path = tmp_path / "deep.idx"
    path.write_bytes(b"DRHIDX" + struct.pack("<HQ", 3, len(blob)) + blob)
    assert main(["retrieve", "--index", str(path), "--query", "hello"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("data error: malformed history index file: RecursionError")
    assert "Traceback" not in err
