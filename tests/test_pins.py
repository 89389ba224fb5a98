"""Output pins: SHA-256 digests of what stage one and greedy decoding produce
on the acceptance world, starting from the checked-in benchmark backbone.

A change that claims the same outputs must leave both digests as they are.
Float bytes depend on numpy and on the BLAS build, so `pins.json` records
both, and in any other environment the tests fail naming the difference.
Print this environment's values with `PYTHONPATH=src python tests/test_pins.py`.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from metadapt import checkpoint, training
from metadapt.corpus import SyntheticWorldSpec, Vocab, generate_world
from metadapt.model import AdapterConfig, ModelConfig, build_model, greedy_decode, hash_seed
from metadapt.optim import OptimizerSettings
from metadapt.pipeline import role_datasets

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().with_name("pins.json")
BACKBONE = ROOT / "perfbench" / "backbone" / "backbone.ckpt"
SEED = 1
META_BATCHES = 8
SAMPLES = 24
SAMPLE_SIZE = 32


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _world(root: Path):
    raw = json.loads((ROOT / "configs" / "acceptance.json").read_text(encoding="utf-8"))
    spec = SyntheticWorldSpec.from_json(ROOT / "configs" / "acceptance_world.json")
    registry = generate_world(spec, root)
    vocab = Vocab.load(registry.root / "vocab.json")
    mc = ModelConfig(vocab_size=len(vocab), **raw["model"])
    return raw, registry, vocab, mc, AdapterConfig(**raw["adapter"])


def _model(mc, ac, seed: int):
    model = build_model(mc, ac, seed=seed, adapter_groups=("main",))
    training.restore_params(model, checkpoint.load_params(BACKBONE))
    return model


def meta_train_snapshot(world) -> str:
    """The adapter after META_BATCHES Reptile meta-batches of the acceptance
    meta config: names and bytes of every tensor, in name order."""
    raw, registry, vocab, mc, ac = world
    meta = dict(raw["meta"])
    inner = OptimizerSettings(lr=meta.pop("inner_lr"))
    meta["max_meta_batches"] = META_BATCHES
    cfg = training.MetaConfig(seed=hash_seed(SEED, 60, 0), inner=inner, **meta)
    snapshot, _ = training.meta_train(_model(mc, ac, hash_seed(SEED, 50)), vocab,
                                      role_datasets(registry, "meta_train"), cfg)
    digest = hashlib.sha256()
    for name in sorted(snapshot.tensors):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(snapshot.tensors[name]).tobytes())
    return digest.hexdigest()


def greedy_hypotheses(world) -> str:
    """Greedy hypotheses of SAMPLES seeded samples of SAMPLE_SIZE sentences,
    each from the test split of a seeded held-out task, as one JSON list."""
    raw, registry, vocab, mc, ac = world
    model = _model(mc, ac, hash_seed(SEED, 51))
    heldout = role_datasets(registry, "heldout")
    ids = sorted(heldout)
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 3]))
    hyps = []
    for _ in range(SAMPLES):
        dlp = ids[int(rng.integers(len(ids)))]
        test = heldout[dlp].test
        picked = rng.choice(len(test), min(SAMPLE_SIZE, len(test)), replace=False)
        hyps.append(greedy_decode(model, vocab, [test[i][0] for i in picked], dlp.src_lang,
                                  dlp.tgt_lang, raw["eval"]["max_len"]))
    return hashlib.sha256(json.dumps(hyps).encode("utf-8")).hexdigest()


def pinned(key: str) -> str:
    """The pinned digest `key`; fails in one line if this environment is not
    the one the pins were taken in."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    here = environment()
    for name, value in pins["environment"].items():
        if here.get(name) != value:
            pytest.fail(f"pins were taken with {name} {value!r}, this environment has "
                        f"{here.get(name)!r}; see tests/test_pins.py", pytrace=False)
    return pins[key]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return _world(tmp_path_factory.mktemp("acceptance_world"))


def test_meta_train_snapshot_is_pinned(world):
    expected = pinned("meta_train_snapshot")
    assert meta_train_snapshot(world) == expected


def test_greedy_hypotheses_are_pinned(world):
    expected = pinned("greedy_hypotheses")
    assert greedy_hypotheses(world) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        acceptance = _world(Path(tmp))
        print(json.dumps({"environment": environment(),
                          "meta_train_snapshot": meta_train_snapshot(acceptance),
                          "greedy_hypotheses": greedy_hypotheses(acceptance)}, indent=2))
