"""Remake the backbone input of the meta-train and translate workloads.

    python3 perfbench/make_backbone.py

Generates the acceptance world and pretrains a backbone on it exactly as the
acceptance experiment does (configs/acceptance.json pretrain settings,
dropout 0, world seed), through `pipeline.pretrain_backbone`. It then scores
the backbone with `pipeline.backbone_dev_bleu` and refuses to save it when
dev BLEU is below the learnability gate of criterion 8. On success it writes
perfbench/backbone/backbone.ckpt and backbone.json, which records the
checksums every benchmark run verifies. About 4 minutes on a 2-core box.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from inputs import (
    BACKBONE_CKPT,
    BACKBONE_INFO,
    DEV_BLEU_GATE,
    DEV_SAMPLE_PER_DLP,
    OUT_DIR,
    BenchError,
    generate,
    import_program,
    load_configs,
    model_configs,
    sha256_file,
)


def main() -> int:
    import_program()
    from metadapt import checkpoint
    from metadapt.optim import OptimizerSettings
    from metadapt.pipeline import backbone_dev_bleu, pretrain_backbone

    cfg = load_configs()
    work = OUT_DIR / f"make-backbone-{os.getpid()}"
    try:
        registry, vocab = generate(cfg.spec, work / "corpus")
        mc, ac = model_configs(cfg.raw, len(vocab), dropout=0.0)
        pre = cfg.raw["pretrain"]
        t0 = time.perf_counter()
        model, losses = pretrain_backbone(
            registry, vocab, mc, ac, OptimizerSettings(lr=pre["lr"]),
            epochs=pre["epochs"], batch_size=pre["batch_size"], seed=cfg.spec.seed)
        seconds = time.perf_counter() - t0
        dev = backbone_dev_bleu(model, vocab, registry, sample_per_dlp=DEV_SAMPLE_PER_DLP,
                                max_len=cfg.raw["eval"]["max_len"])
        print(f"pretrained {len(losses)} steps in {seconds:.1f} s: "
              f"final loss {losses[-1]:.4f}, dev BLEU {dev:.2f}")
        if dev < DEV_BLEU_GATE:
            print(f"dev BLEU {dev:.2f} is below the gate {DEV_BLEU_GATE}; not saved",
                  file=sys.stderr)
            return 1
        tmp = BACKBONE_CKPT.with_suffix(".tmp")
        checkpoint.save_params(tmp, {n: p.data for n, p in model.params.items()})
        os.replace(tmp, BACKBONE_CKPT)
        info = {
            "file_sha256": sha256_file(BACKBONE_CKPT),
            "backbone_checksum": model.backbone_checksum(),
            "vocab_sha256": sha256_file(registry.root / "vocab.json"),
            "vocab_size": len(vocab),
            "model": {**cfg.raw["model"], "dropout": 0.0},
            "pretrain": {**pre, "seed": cfg.spec.seed},
            "steps": len(losses),
            "final_loss": losses[-1],
            "dev_bleu": dev,
            "pretrain_seconds": round(seconds, 1),
        }
        BACKBONE_INFO.write_text(json.dumps(info, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
        print(f"wrote {BACKBONE_CKPT} and {BACKBONE_INFO.name}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"make_backbone: {exc}", file=sys.stderr)
        sys.exit(2)
