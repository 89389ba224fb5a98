"""Output pins: SHA-256 digests of what stage one and greedy decoding produce
on the acceptance world, starting from the checked-in benchmark backbone,
and of every artifact the smoke CLI chain writes.

A change that claims the same outputs must leave every digest as it is.
Float bytes depend on numpy and on the BLAS build, so `pins.json` records
both, and in any other environment the tests fail naming the difference.
Print this environment's values with `PYTHONPATH=src python tests/test_pins.py`.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metadapt import checkpoint, training
from metadapt.cli import run
from metadapt.corpus import SyntheticWorldSpec, Vocab, generate_world
from metadapt.model import AdapterConfig, ModelConfig, build_model, greedy_decode, hash_seed
from metadapt.optim import OptimizerSettings
from metadapt.pipeline import STRATEGIES, role_datasets

from test_pipeline_cli import _smoke_config

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().with_name("pins.json")
BACKBONE = ROOT / "perfbench" / "backbone" / "backbone.ckpt"
SEED = 1
META_BATCHES = 8
SAMPLES = 24
SAMPLE_SIZE = 32
SWEEP_POINTS = [{"tau": 1.0}, {"tau": "inf", "k": 2}]
# hypotheses shorter than their references, so BLEU's brevity penalty shows
HYPOTHESES = "a b c d\ne f g h i\nj k l\n"
REFERENCES = "a b c d x\ne f g h i y z\nj k l m\n"


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


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _artifact_digest(path: Path) -> str:
    """SHA-256 of the file's bytes; a metrics table is digested without its
    wall_time column."""
    data = path.read_bytes()
    if path.name in ("metrics.csv", "details_by_dlp.csv"):
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        wall = rows[0].index("wall_time")
        data = json.dumps([row[:wall] + row[wall + 1 :] for row in rows]).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def smoke_chain(tmp: Path) -> dict[str, str]:
    """Run gen-corpus, pretrain, meta-train, every baseline, adapt over every
    strategy, a two-point sweep and report on the smoke world, and digest the
    corpus tree, every file of the run directory but its manifest and JSONL
    logs (absolute paths and wall times), and the stdout of scoring a fixed
    hypotheses file."""
    config = str(_smoke_config(tmp))
    out = tmp / "run"
    commands = [["gen-corpus"], ["pretrain"], ["meta-train"]]
    commands += [["baseline", "--set", f"strategy={s}"] for s, setup in STRATEGIES.items()
                 if setup.stage_one and s != "meta_adapter"]
    commands += [["adapt", "--set", f"eval.strategies={json.dumps(list(STRATEGIES))}"],
                 ["sweep", "--set", f"sweep.points={json.dumps(SWEEP_POINTS)}"]]
    with contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            assert run([command[0], "--config", config, *command[1:]]) == 0, command
        assert run(["report", "--runs", str(out), "--out", str(out / "report")]) == 0
    (tmp / "hyp.txt").write_text(HYPOTHESES, encoding="utf-8")
    (tmp / "ref.txt").write_text(REFERENCES, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert run(["evaluate", "--hyp-file", str(tmp / "hyp.txt"),
                    "--ref-file", str(tmp / "ref.txt")]) == 0
    digests = {"corpus": _tree_digest(tmp / "corpus"),
               "evaluate_stdout": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json" and path.suffix != ".jsonl":
            digests[path.relative_to(out).as_posix()] = _artifact_digest(path)
    return digests


def pinned(key: str):
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


def test_smoke_chain_artifacts_are_pinned(tmp_path):
    expected = pinned("smoke_chain")
    assert smoke_chain(tmp_path) == expected


PIN_TESTS = ["test_meta_train_snapshot_is_pinned", "test_greedy_hypotheses_are_pinned",
             "test_smoke_chain_artifacts_are_pinned"]


def test_pins_hold_on_one_blas_thread():
    """The three pin tests pass again in a fresh interpreter on one OpenBLAS
    thread, so no pinned output depends on the BLAS thread count; forked
    meta-train workers inherit that setting. Only those three run there."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    here = Path(__file__).resolve()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *(f"{here}::{name}" for name in PIN_TESTS)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        acceptance = _world(Path(tmp) / "acceptance")
        smoke = Path(tmp) / "smoke"
        smoke.mkdir()
        print(json.dumps({"environment": environment(),
                          "meta_train_snapshot": meta_train_snapshot(acceptance),
                          "greedy_hypotheses": greedy_hypotheses(acceptance),
                          "smoke_chain": smoke_chain(smoke)}, indent=2))
