"""Golden bytes of the checkpoint and history-index containers.

Both formats share one layout: a six-byte magic, a uint16 version (1), a
uint64 header length, the UTF-8 JSON header with sorted keys, then the
float64 little-endian row-major payload. The expected bytes are assembled
here from that description alone.
"""

import json
import struct

import numpy as np
import pytest

from dialret.encoder import DualEncoderModel, random_embeddings, save_checkpoint
from dialret.retrieval import HistoryIndex, save_index


def container(magic: bytes, header: dict, payload: list[np.ndarray]) -> bytes:
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return (
        magic + struct.pack("<H", 1) + struct.pack("<Q", len(blob)) + blob
        + b"".join(np.asarray(t, dtype="<f8").tobytes() for t in payload)
    )


def test_index_bytes(tmp_path):
    vectors = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]])
    index = HistoryIndex(
        response_weight=0.4, pair_ids=[1, 4, 9], vectors=vectors,
        responses=["grüß dich", "ok", "fact1 ok"],
        checkpoint_ref="model.ckpt", checkpoint_sha256="cd" * 32,
    )
    path = tmp_path / "history.idx"
    save_index(index, path)
    header = {
        "checkpoint_ref": "model.ckpt", "checkpoint_sha256": "cd" * 32,
        "count": 3, "dim": 2, "pair_ids": [1, 4, 9], "response_weight": 0.4,
        "responses": ["grüß dich", "ok", "fact1 ok"],
    }
    assert path.read_bytes() == container(b"DRHIDX", header, [vectors])


@pytest.mark.parametrize("variant, tied", [("gru", True), ("attention", False)])
def test_checkpoint_bytes(tmp_path, variant, tied):
    vocab = ["hello", "wörld", "!"]
    emb = random_embeddings(vocab, 3, 1.0, seed=3)
    model = DualEncoderModel.create(emb, variant=variant, hidden=2, seed=4, tied=tied)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)

    if variant == "gru":
        shapes = {"w": [2, 3], "u": [2, 2], "b": [2]}
        encoder = [(f"encoder.{kind}_{gate}", shapes[kind]) for gate in "zrh" for kind in "wub"]
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
    header = {
        "bilinear_dim": enc_dim, "dim": 3, "hidden": 2 if variant == "gru" else None,
        "tensors": [[name, shape] for name, shape in layout],
        "tied": tied, "train_embeddings": False, "variant": variant, "vocab": vocab,
    }

    def tensor(name):
        if name == "embeddings.matrix":
            return model.embeddings.matrix
        if name == "bilinear":
            return model.bilinear
        prefix, _, attr = name.partition(".")
        if variant == "gru":
            # Gate block g of fused w, u or b: rows g*H up to (g+1)*H.
            kind, _, gate = attr.partition("_")
            return np.split(getattr(params[prefix], kind), 3)["zrh".index(gate)]
        return getattr(params[prefix], attr)

    payload = [tensor(name) for name, _ in layout]
    for t, (_, shape) in zip(payload, layout):
        assert list(t.shape) == shape
    assert path.read_bytes() == container(b"DRCKPT", header, payload)
