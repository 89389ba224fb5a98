import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadapt.errors import InputError
from metadapt.tasks import (
    DlpDataset,
    DlpId,
    SamplingPlan,
    build_episode,
    compute_shares,
    dlp_count,
    sample_dlps,
    sampling_probs,
)


def _ids(k):
    return [DlpId("dom", "l0", f"l{i + 1}") for i in range(k)]


def _plan(sizes, tau):
    data = {i: s for i, s in zip(_ids(len(sizes)), sizes)}
    return SamplingPlan.build(data, tau)


# --- dlp_count ---------------------------------------------------------------

def test_dlp_count_paper_scale():
    assert dlp_count(6, 6) == 180


def test_dlp_count_two_directions():
    assert dlp_count(1, 2) == 2


def test_dlp_count_arithmetic():
    assert dlp_count(10, 16) == 10 * 16 * 15


def test_dlp_count_rejects_single_language():
    with pytest.raises(InputError):
        dlp_count(3, 1)


# --- shares ------------------------------------------------------------------

def test_shares_symmetric():
    assert compute_shares([5000, 5000]) == [0.5, 0.5]


def test_shares_arithmetic():
    assert compute_shares([5000, 5000, 2500]) == pytest.approx([0.4, 0.4, 0.2])


def test_shares_single_nonzero():
    assert compute_shares([1234]) == [1.0]


def test_shares_all_zero_rejected():
    with pytest.raises(InputError):
        compute_shares([0, 0])


# --- sampling probabilities ----------------------------------------------------

def test_probs_tau_one_is_proportional():
    s = [0.4, 0.4, 0.2]
    assert sampling_probs(s, 1.0) == pytest.approx(s, abs=1e-15)


def test_probs_tau_inf_is_uniform():
    for k in (2, 5, 9):
        probs = sampling_probs([1 / k] * k, math.inf)
        assert probs == [1.0 / k] * k
    skew = sampling_probs([0.9, 0.05, 0.05], math.inf)
    assert skew == [1 / 3] * 3


def test_probs_tau_two_high_precision():
    # frozen from direct formula evaluation at 64-bit precision
    s = [0.5, 0.3, 0.2]
    powered = [x ** 0.5 for x in s]
    expected = [p / sum(powered) for p in powered]
    got = sampling_probs(s, 2.0)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx([0.4154, 0.3218, 0.2627], abs=1e-4)


def test_probs_tiny_temperature_puts_all_mass_on_the_largest_shares():
    """Every share_i^(1/tau) underflows to 0 here; the limit tau -> 0 splits
    the mass evenly over the largest shares."""
    assert sampling_probs([0.5, 0.3, 0.2], 1e-9) == [1.0, 0.0, 0.0]
    assert sampling_probs([0.4, 0.4, 0.2], 1e-300) == [0.5, 0.5, 0.0]


def test_probs_invalid_temperature():
    with pytest.raises(InputError):
        sampling_probs([1.0], 0.0)
    with pytest.raises(InputError):
        sampling_probs([1.0], -2.0)


def test_probs_zero_share_stays_zero_at_any_tau():
    for tau in (1.0, 2.0, 5.0, math.inf):
        probs = sampling_probs([0.7, 0.0, 0.3], tau)
        assert probs[1] == 0.0
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_probs_monotone_and_flattening():
    s = [0.5, 0.3, 0.2]
    prev_spread = None
    for tau in (1.0, 2.0, 5.0, 50.0):
        p = sampling_probs(s, tau)
        assert p[0] > p[1] > p[2]
        spread = max(p) - min(p)
        if prev_spread is not None:
            assert spread < prev_spread
        prev_spread = spread


def test_probs_normalized_over_temperature_grid():
    rng = np.random.default_rng(0)
    for tau in (1.0, 2.0, 5.0, math.inf):
        sizes = rng.integers(1, 5001, size=12).tolist()
        probs = sampling_probs(compute_shares(sizes), tau)
        assert abs(sum(probs) - 1.0) < 1e-12


# --- multinomial draws ----------------------------------------------------------

def test_sample_dlps_empirical_frequencies_match():
    plan = _plan([5000, 2500, 1500, 1000], tau=1.0)
    rng = np.random.default_rng(42)
    draws = sample_dlps(plan, 100_000, rng, replace=True)
    counts = Counter(draws)
    tv = 0.5 * sum(abs(counts[i] / 100_000 - p) for i, p in zip(plan.dlp_ids, plan.probs))
    assert tv < 0.01


def test_sample_dlps_single_registry_degenerate():
    plan = _plan([10], tau=1.0)
    rng = np.random.default_rng(0)
    assert sample_dlps(plan, 1, rng) == [plan.dlp_ids[0]]


def test_sample_dlps_zero_probability_never_drawn():
    plan = _plan([100, 0, 50], tau=1.0)
    rng = np.random.default_rng(1)
    draws = sample_dlps(plan, 50_000, rng, replace=True)
    assert plan.dlp_ids[1] not in draws


def test_sample_dlps_without_replacement_limits():
    plan = _plan([5, 5], tau=1.0)
    rng = np.random.default_rng(2)
    assert len(set(sample_dlps(plan, 2, rng))) == 2
    with pytest.raises(InputError):
        sample_dlps(plan, 3, np.random.default_rng(3))


def test_sample_dlps_deterministic_under_seed():
    plan = _plan([10, 20, 30], tau=2.0)
    a = sample_dlps(plan, 2, np.random.default_rng(9))
    b = sample_dlps(plan, 2, np.random.default_rng(9))
    assert a == b


# --- episodes -------------------------------------------------------------------

def _datasets(sizes):
    out = {}
    for idx, size in enumerate(sizes):
        dlp = DlpId("dom", "l0", f"l{idx + 1}")
        pairs = [(f"src {idx} {j}", f"tgt {idx} {j}") for j in range(size)]
        out[dlp] = DlpDataset(id=dlp, train=pairs)
    return out


def test_build_episode_structure():
    data = _datasets([30, 30])
    episode = build_episode(list(data), data, n=3, q=1, rng=np.random.default_rng(0))
    assert len(episode.tasks) == 2
    for task in episode.tasks:
        assert len(task.support) == 3 and len(task.query) == 1
        assert not set(task.support) & set(task.query)
        assert not task.support_with_replacement


def test_build_episode_deterministic():
    data = _datasets([30, 30])
    a = build_episode(list(data), data, 4, 2, np.random.default_rng(5))
    b = build_episode(list(data), data, 4, 2, np.random.default_rng(5))
    assert a == b


def test_build_episode_fallback_with_replacement():
    data = _datasets([4])
    episode = build_episode(list(data), data, n=6, q=2, rng=np.random.default_rng(1))
    task = episode.tasks[0]
    assert task.support_with_replacement
    assert len(task.support) == 6 and len(task.query) == 2
    assert not set(task.support) & set(task.query)


def test_build_episode_inclusion_uniform_at_50k():
    data = _datasets([20])
    dlp = next(iter(data))
    counts = Counter()
    episodes = 50_000
    rng = np.random.default_rng(3)
    for _ in range(episodes):
        ep = build_episode([dlp], data, n=6, q=2, rng=rng)
        for pair in ep.tasks[0].support + ep.tasks[0].query:
            counts[pair] += 1
    expected = episodes * 8 / 20
    for pair in data[dlp].train:
        assert abs(counts[pair] - expected) / expected < 0.02


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),   # m
    st.integers(min_value=1, max_value=6),   # n
    st.integers(min_value=0, max_value=4),   # q
    st.integers(min_value=12, max_value=40), # dataset size
    st.integers(min_value=0, max_value=10_000),
)
def test_episode_disjointness_property(m, n, q, size, seed):
    data = _datasets([size] * m)
    episode = build_episode(list(data), data, n, q, np.random.default_rng(seed))
    for task in episode.tasks:
        assert len(task.support) == n and len(task.query) == q
        assert not set(task.support) & set(task.query)
