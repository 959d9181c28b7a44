"""Batched trial seeding, bit for bit.

`geometry._seed_words` runs NumPy's SeedSequence hash for a batch of
(seed, stream) keys; each row is checked against NumPy's own
`SeedSequence` and `rng_for`.  The certificates that derive their trial
generators through it are checked against the per-trial derivation they
replaced (one `rng_for` or `SeedSequence` per key), kept here as the
reference.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import setcover_kit as sk
from setcover_kit import certify
from setcover_kit.geometry import _rng, _sampling_words, _seed_words, rng_for
from test_images import NORMS, make_map

# the seed's word count crosses 1, 2, 3, 4 and 5 words: five or more run
# words spill past the pool into the second mixing phase
BOUNDARY_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**128, 2**160 + 12_345)
SEEDS = st.sampled_from(BOUNDARY_SEEDS) | st.integers(0, 2**200)
ENTRIES = st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**63)) | st.integers(0, 2**64 - 1)
STREAMS = st.lists(ENTRIES, min_size=1, max_size=3).map(tuple)


def assert_row_is_numpys(seed, stream, row):
    assert _rng(row).bit_generator.state == rng_for(seed, *stream).bit_generator.state
    first = np.random.SeedSequence(entropy=seed, spawn_key=stream).generate_state(1)[0]
    assert int(row[0]) & 0xFFFFFFFF == int(first)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, streams=st.lists(STREAMS, max_size=6))
@example(seed=7, streams=[]).via("a batch of no keys")
@example(seed=2**130 + 1, streams=[(2**40, 3)]).via("one key, six run words")
def test_rows_equal_numpys(seed, streams):
    words = _seed_words(seed, streams)
    assert words.shape == (len(streams), 4) and words.dtype == np.uint64
    for stream, row in zip(streams, words):
        assert_row_is_numpys(seed, stream, row)


@settings(max_examples=150, deadline=None)
@given(seeds=st.lists(st.sampled_from((0, 1, 2**32 - 1)) | st.integers(0, 2**32 - 1), max_size=6))
@example(seeds=[]).via("a batch of no keys")
@example(seeds=[2**32 - 1]).via("one seed")
def test_sampling_rows_equal_numpys(seeds):
    words = _sampling_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 2, 4) and words.dtype == np.uint64
    for seed, pair in zip(seeds, words):
        for stream, row in enumerate(pair):
            assert_row_is_numpys(seed, (stream,), row)


def test_numpy_integer_keys_read_as_their_values():
    row = _seed_words(np.int64(3), [(np.uint32(2), 7)])[0]
    assert_row_is_numpys(3, (2, 7), row)
    cert = sk.check_set_covering(sk.SphereScale(), 0.5, 5, np.int64(3))
    assert cert.to_jsonable() == sk.check_set_covering(sk.SphereScale(), 0.5, 5, 3).to_jsonable()


@pytest.mark.parametrize("seed, stream", [(-1, (0,)), (3, (0, -2)), (-(2**70), (1,))])
def test_a_negative_key_raises_as_rng_for_does(seed, stream):
    with pytest.raises(ValueError) as expected:
        rng_for(seed, *stream)
    with pytest.raises(ValueError) as got:
        _seed_words(seed, [(0,), stream])
    assert str(got.value) == str(expected.value)


class PerTrial:
    """The per-trial derivation the batched seeds replaced: one NumPy hash per key."""

    def __init__(self, seed, trials, sub=None):
        self.seed, self.sub = seed, sub

    def rng(self, t):
        return rng_for(self.seed, t)

    def enlargement(self, t, space, s, rho, n):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(t, self.sub))
        return sk.sample_enlargement(space, s, rho, n, seed=int(ss.generate_state(1)[0]))


def _outcome(run):
    try:
        return run().to_jsonable()
    except (ValueError, NotImplementedError) as exc:  # a map kind the check does not take
        return repr(exc)


def certificates(m, trials, seed):
    """Each certificate function's to_jsonable() for map m (or the exception it raises)."""
    alpha, x0 = 3.0, np.full(m.space_x.dim, 1.5)  # above every rate: violations
    # a psi whose excess under m shrinks toward the anchor, so that the
    # semicontinuity check records sequence points (modulus 0)
    psi = sk.Dilation(np.zeros(m.space_y.dim), 0.1, anchor=np.zeros(m.space_x.dim),
                      space_x=m.space_x, space_y=m.space_y)
    runs = {
        "covering": lambda: sk.check_covering(m, alpha, trials, seed, search_budget=40),
        "set-covering": lambda: sk.check_set_covering(m, alpha, trials, seed, n_inclusion=16),
        "inverse-errorbound": lambda: sk.check_inverse_errorbound(m, alpha, trials, seed),
        "inverse-hausdorff": lambda: sk.check_inverse_hausdorff(m, alpha, trials, seed),
        "exc-semicontinuity": lambda: sk.check_exc_semicontinuity(m, psi, x0, trials, seed,
                                                                  modulus=0.0),
    }
    return {name: _outcome(run) for name, run in runs.items()}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("dilation", "sphere_scale", "unit_ball_translate", "composed")),
       dx=st.integers(1, 2), dy=st.integers(1, 2), norm=st.sampled_from(NORMS),
       trials=st.integers(1, 40), seed=st.sampled_from((0, 2**64 + 3)) | st.integers(0, 2**32),
       draw=st.integers(0, 2**16))
def test_certificates_equal_the_per_trial_derivation(kind, dx, dy, norm, trials, seed, draw):
    m = make_map(kind, dx, dy, norm, np.random.default_rng(draw))
    with mock.patch.object(certify, "_TrialSeeds", PerTrial):
        reference = certificates(m, trials, seed)
    assert certificates(m, trials, seed) == reference
    with mock.patch.object(certify, "_BATCH_FROM", 1):  # every trial count batched
        assert certificates(m, trials, seed) == reference
