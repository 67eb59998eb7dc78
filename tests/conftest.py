"""Shared fixtures: trained stacks are expensive, so they are session scoped.

Every fixture here is deterministic; nothing reads the wall clock or an
unseeded RNG, so a failing test reproduces byte for byte. Hypothesis
draws fresh examples on each run unless ``HYPOTHESIS_PROFILE=ci`` is set:
that profile derandomizes every ``@given`` test, so a CI run draws the same
examples every time, and prints the blob that replays a failure.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

import tokenwire as tw
from tokenwire.dependency import stream_conditions, stream_step

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

# Mid-size stack shared by pipeline, streaming, and acceptance tests.
# Big enough that reconstruction quality responds to packet loss, small
# enough to train in a few seconds.
STACK_CFG = tw.ExperimentConfig(
    vocab=256,
    n_layers=6,
    n_coarse=1,
    n_fine_groups=3,
    gos_len=12,
    n_units=3,
    levels=(6,),
    clip_frames=24,
    train_clips=512,
    train_epochs=16,
    schedule_epochs=40,
    n_trials=60,
    frame_len=160,
    dim=64,
    n_tones=1,
    noise=0.0,
    base_seed=7,
)

# Throwaway stack for tests that only need plumbing, not quality.
MINI_CFG = tw.ExperimentConfig(
    vocab=8,
    n_layers=3,
    n_coarse=1,
    n_fine_groups=2,
    gos_len=6,
    n_units=2,
    levels=(3,),
    clip_frames=12,
    train_clips=4,
    train_epochs=2,
    schedule_epochs=6,
    n_trials=3,
    frame_len=160,
    dim=16,
    base_seed=11,
)


@pytest.fixture(scope="session")
def stack_cfg():
    return STACK_CFG


@pytest.fixture(scope="session")
def stack(stack_cfg):
    return tw.train_stack(stack_cfg)


@pytest.fixture(scope="session")
def mini_cfg():
    return MINI_CFG


@pytest.fixture(scope="session")
def mini_stack(mini_cfg):
    return tw.train_stack(mini_cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_grid(rng, n_frames, n_layers, vocab, level=None):
    """Uniform random token grid, uniformly encoded at one level."""
    if level is None:
        level = n_layers
    tokens = rng.integers(0, vocab, size=(n_frames, n_layers))
    tokens[:, level:] = 0
    levels = np.full(n_frames, level, dtype=np.int64)
    return tw.TokenGrid(tokens, levels, vocab)


def stream_conditions_of(cfg, n_frames, n_coarse):
    """The Conditions of every frame of an ``n_frames`` stream: those of
    the step that finalizes it, as both ends derive them."""
    conds = {}
    for i in range(-(-n_frames // cfg.stride)):
        due, horizon = stream_step(i, cfg, n_frames)
        conds.update(dict.fromkeys(
            due, stream_conditions(cfg, horizon, n_coarse)))
    return conds
