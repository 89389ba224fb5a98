"""Benchmark inputs: the program under test, the acceptance configs, the
generated world and the checked-in backbone.

Every path is resolved from this file, so the benchmark runs from any
checkout that holds `src/`, `configs/` and `perfbench/`. The program is
imported from that checkout's `src/`, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
CONFIG_DIR = ROOT / "configs"
OUT_DIR = BENCH_DIR / "out"
BACKBONE_CKPT = BENCH_DIR / "backbone" / "backbone.ckpt"
BACKBONE_INFO = BENCH_DIR / "backbone" / "backbone.json"

#: Criterion 8's learnability gate: dev BLEU of the pretrained backbone.
DEV_BLEU_GATE = 90.0
#: backbone_dev_bleu sample size used by the acceptance experiment.
DEV_SAMPLE_PER_DLP = 4


class BenchError(Exception):
    """The checkout or one of the benchmark's inputs is unusable."""


def import_program():
    """Import `metadapt` from this checkout's `src/`."""
    package = SRC_DIR / "metadapt" / "__init__.py"
    for need in (package, CONFIG_DIR / "acceptance.json", CONFIG_DIR / "acceptance_world.json"):
        if not need.is_file():
            raise BenchError(f"{need.relative_to(ROOT)} not found; run from a full checkout")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import metadapt

    if Path(metadapt.__file__).resolve().parent != package.parent:
        raise BenchError(f"metadapt was imported from {metadapt.__file__}, not {package.parent}")
    return metadapt


@dataclass(frozen=True)
class Configs:
    """configs/acceptance.json plus the world spec of acceptance_world.json."""

    raw: dict
    spec: object  # metadapt.corpus.SyntheticWorldSpec


def load_configs() -> Configs:
    from metadapt.corpus import SyntheticWorldSpec

    raw = json.loads((CONFIG_DIR / "acceptance.json").read_text(encoding="utf-8"))
    spec = SyntheticWorldSpec.from_json(CONFIG_DIR / "acceptance_world.json")
    return Configs(raw=raw, spec=spec)


def model_configs(raw: dict, vocab_size: int, dropout: float | None = None):
    from metadapt.model import AdapterConfig, ModelConfig

    model = dict(raw["model"])
    if dropout is not None:
        model["dropout"] = dropout
    return ModelConfig(vocab_size=vocab_size, **model), AdapterConfig(**raw["adapter"])


def generate(spec, out_dir: Path):
    """Generate the world under `out_dir`; returns (registry, vocab)."""
    from metadapt import corpus

    registry = corpus.generate_world(spec, out_dir)
    vocab = corpus.Vocab.load(registry.root / "vocab.json")
    return registry, vocab


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_backbone(registry, mc, ac) -> dict:
    """Load the checked-in backbone and check it against the fresh world.

    Checks, in order: the file checksum recorded when it was made, the
    vocabulary it was trained on against this world's vocab.json, the
    parameter names and shapes against a model built from `mc`, and the
    backbone checksum of that model after restoring the parameters.
    """
    from metadapt import checkpoint
    from metadapt.model import build_model

    if not BACKBONE_CKPT.is_file() or not BACKBONE_INFO.is_file():
        raise BenchError(f"{BACKBONE_CKPT.relative_to(ROOT)} missing; "
                         "run `python3 perfbench/make_backbone.py`")
    info = json.loads(BACKBONE_INFO.read_text(encoding="utf-8"))
    if sha256_file(BACKBONE_CKPT) != info["file_sha256"]:
        raise BenchError("backbone.ckpt does not match the checksum in backbone.json")
    if sha256_file(registry.root / "vocab.json") != info["vocab_sha256"]:
        raise BenchError("backbone was trained on another vocabulary than this world's")
    if info["vocab_size"] != mc.vocab_size:
        raise BenchError(f"backbone vocabulary {info['vocab_size']} != world {mc.vocab_size}")
    params = checkpoint.load_params(BACKBONE_CKPT)
    model = build_model(mc, ac, seed=0, adapter_groups=())
    expected = {n: p.shape for n, p in model.params.items()}
    got = {n: a.shape for n, a in params.items()}
    if got != expected:
        raise BenchError("backbone parameter names or shapes differ from the model config")
    for name, value in params.items():
        model.params[name].data = value
    if model.backbone_checksum() != info["backbone_checksum"]:
        raise BenchError("backbone checksum differs from backbone.json")
    return params
