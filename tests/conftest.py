import multiprocessing
import os

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


def captured(tape) -> list:
    """Every value that the backwards of the nodes on `tape` capture,
    nested closures included."""
    values = []
    fns = [node.bwd for node in tape.nodes]  # a stack, not a recursive closure: no cycle
    while fns:
        for cell in fns.pop().__closure__ or ():
            values.append(cell.cell_contents)
            if callable(cell.cell_contents) and hasattr(cell.cell_contents, "__closure__"):
                fns.append(cell.cell_contents)
    return values


def saved_arrays(tape) -> list:
    """Every array that the nodes on `tape` keep for their backward: each
    array a backward captures and each node's `like`, once each."""
    found = [v for v in captured(tape) if isinstance(v, np.ndarray)]
    found += [node.like for node in tape.nodes if node.like is not None]
    return list({id(a): a for a in found}.values())


def on_cpus(monkeypatch, count):
    """Make `count` CPUs available to this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


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
