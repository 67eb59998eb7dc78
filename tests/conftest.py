"""Shared fixtures: trained stacks are expensive, so they are session scoped.

Every fixture here is deterministic; nothing reads the wall clock or an
unseeded RNG, so a failing test reproduces byte for byte. Hypothesis
draws fresh examples on each run unless ``HYPOTHESIS_PROFILE=ci`` is set:
that profile derandomizes every ``@given`` test, so a CI run draws the same
examples every time, and prints the blob that replays a failure.
"""

import functools
import os
import zlib

import numpy as np
import pytest
from hypothesis import settings

import tokenwire as tw
from tokenwire.errors import DecodeError
from tokenwire.transport import Packet

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
    gos_len=12,
    n_units=3,
    levels=(6,),
    clip_frames=24,
    train_clips=512,
    train_epochs=16,
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
    gos_len=6,
    n_units=2,
    levels=(3,),
    clip_frames=12,
    train_clips=4,
    train_epochs=2,
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


def slice_of(sg, packet):
    """The slice of ``sg`` that ``packet`` carries: the coarse or fine one
    whose first cell is in the packet's first frame."""
    return next(sid for sid, cells in sg.slices.items()
                if sid.group == packet.group
                and cells[0, 0] == packet.first_frame)


@functools.lru_cache(maxsize=None)
def counted_model(vocab: int, n_layers: int) -> tw.CountModel:
    """A count model trained on tokens whose layers follow the first, so
    that each layer's row, and its mode, is skewed."""
    rng = np.random.default_rng(63)
    grids = []
    for _ in range(6):
        tokens = rng.integers(0, vocab, size=(24, n_layers))
        tokens[:, 1:] = (tokens[:, :1] + np.arange(1, n_layers)) % vocab
        tokens[rng.random(tokens.shape) < 0.2] = 0
        grids.append(tw.TokenGrid(tokens, np.full(24, n_layers), vocab))
    return tw.train_count_model(grids, vocab, n_layers)


def flip(packet: Packet, rng, crc: bool | None = None) -> Packet | None:
    """One byte of ``packet`` flipped on the wire; its CRC is recomputed
    when ``crc`` is true, so that the damage parses, and half the time
    when it is None. None where it does not parse."""
    data = bytearray(packet.to_bytes())
    data[rng.integers(len(data))] ^= int(rng.integers(1, 256))
    if rng.random() < 0.5 if crc is None else crc:
        data[-4:] = zlib.crc32(bytes(data[:-4])).to_bytes(4, "little")
    try:
        return Packet.from_bytes(bytes(data))
    except DecodeError:
        return None
