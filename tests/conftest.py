import multiprocessing

import numpy as np
import pytest

from metadapt import tensor as T
from metadapt.corpus import SyntheticWorldSpec, generate_world


@pytest.fixture(autouse=True)
def clear_tape():
    T.active_tape().clear()
    yield
    T.active_tape().clear()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test fails when a process it started is still running after it."""
    yield
    left = multiprocessing.active_children()  # also reaps the ones that ended
    for proc in left:
        proc.terminate()
        proc.join()
    if left:
        pytest.fail(f"left {len(left)} child process(es) running: "
                    f"{', '.join(str(p.pid) for p in left)}")


def tiny_world_spec(seed: int = 0, **overrides) -> SyntheticWorldSpec:
    base = dict(
        languages=("apa", "bel", "cor"),
        domains=("general", "gears", "herbs"),
        pretrain_domain="general",
        heldout_domains=("herbs",),
        heldout_languages=("cor",),
        content_vocab_size=40,
        domain_vocab_size=14,
        neutral_len=(3, 5),
        specialist_len=(5, 8),
        train_size=40,
        adapt_size=16,
        valid_size=8,
        test_size=8,
        seed=seed,
    )
    base.update(overrides)
    return SyntheticWorldSpec(**base)


@pytest.fixture(scope="session")
def tiny_registry(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_world")
    return generate_world(tiny_world_spec(), root)


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
