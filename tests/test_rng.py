"""Tests for the seedable generator and its bounded draws."""

import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilegame.rng import (
    LANE_STEPS,
    MASK64,
    MAX_LANES,
    MAX_PILE,
    Xoshiro256StarStar,
    _top_bytes,
    expand_seed,
    jump,
    splitmix64,
    stream,
)

from reference import ScalarXoshiro

#: Any valid xoshiro256** state: four 64-bit words, not all zero.
states = st.tuples(*[st.integers(0, MASK64)] * 4).filter(any)


def test_splitmix64_reference_vector():
    # Published reference output of splitmix64 for seed 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


@given(st.integers(0, 1 << 72))
def test_splitmix64_reads_its_input_mod_two_to_the_64(x):
    assert splitmix64(x) == splitmix64(x & MASK64)


def test_expand_seed_reference_vector():
    # First four splitmix64 outputs for seed 0, per the reference stream.
    assert expand_seed(0) == (
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    )


def test_expand_seed_wraps_at_top_of_range():
    # The splitmix64 state wraps past 2**64 on the first step.
    assert expand_seed(MASK64) == (
        0xE4D971771B652C20,
        0xE99FF867DBF682C9,
        0x382FF84CB27281E9,
        0x6D1DB36CCBA982D2,
    )


def test_expand_seed_rejects_out_of_range():
    with pytest.raises(ValueError):
        expand_seed(-1)
    with pytest.raises(ValueError):
        expand_seed(1 << 64)
    expand_seed(MASK64)  # top of the range is fine


def test_first_output_matches_step_definition():
    """One xoshiro256** step recomputed inline from the published recipe."""
    seed = 42
    s1 = expand_seed(seed)[1]
    x = (s1 * 5) & MASK64
    expected = ((((x << 7) & MASK64) | (x >> 57)) * 9) & MASK64
    assert Xoshiro256StarStar(seed).next_u64() == expected


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(12345)
    b = Xoshiro256StarStar(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_outputs_are_u64():
    g = Xoshiro256StarStar(7)
    for _ in range(1000):
        assert 0 <= g.next_u64() <= MASK64


def test_draw_stays_in_range():
    g = Xoshiro256StarStar(2024)
    for m in range(1, 21):
        for _ in range(200):
            assert 1 <= g.draw(m) <= m


def test_draw_of_one_is_forced_but_advances_state():
    g = Xoshiro256StarStar(5)
    assert g.draw(1) == 1
    fresh = Xoshiro256StarStar(5)
    fresh.next_u64()
    assert g.next_u64() == fresh.next_u64()  # the draw read the first output


def test_draw_rejects_bad_bound():
    with pytest.raises(ValueError, match=r"^draw bound must be >= 1, got 0$"):
        Xoshiro256StarStar(0).draw(0)


def test_draw_bound_is_one_64_bit_output():
    g = Xoshiro256StarStar(7)
    assert 1 <= g.draw(MAX_PILE) <= 2**64
    with pytest.raises(ValueError, match="at most 2\\*\\*64"):
        g.draw(MAX_PILE + 1)


def test_draw_roughly_uniform():
    # m = 4: no rejection path; each value has p = 1/4. The 5-sigma band on
    # 40_000 draws is about +/- 433 counts.
    g = Xoshiro256StarStar(99)
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    n = 40_000
    for _ in range(n):
        counts[g.draw(4)] += 1
    for value, count in counts.items():
        assert abs(count - n / 4) < 5 * (n * 0.25 * 0.75) ** 0.5, f"value {value}"


def test_draw_covers_rejection_path():
    # m = 3 uses two high bits and rejects the value 3; all of {1, 2, 3}
    # must still appear.
    g = Xoshiro256StarStar(11)
    seen = {g.draw(3) for _ in range(1000)}
    assert seen == {1, 2, 3}


@given(seed=st.integers(0, MASK64), skip=st.integers(0, 5))
def test_from_state_continues_a_seeded_generator(seed, skip):
    seeded = ScalarXoshiro(seed)
    for _ in range(skip):
        seeded.next_u64()
    copy = ScalarXoshiro._from_state(seeded.state)
    assert copy.state == seeded.state
    assert [copy.next_u64() for _ in range(8)] == [seeded.next_u64() for _ in range(8)]


def _as_int(state):
    return sum(word << 64 * i for i, word in enumerate(state))


@settings(deadline=None)
@given(states)
def test_jump_equals_lane_steps_scalar_steps(state):
    rng = ScalarXoshiro._from_state(state)
    for _ in range(LANE_STEPS):
        rng.next_u64()
    assert jump(_as_int(state)) == _as_int(rng.state)


@settings(max_examples=10, deadline=None)
@given(states)
def test_stream_equals_successive_next_u64(state):
    # Batches have 1 (run 0 alone), 2, 4, ..., MAX_LANES lanes, then
    # MAX_LANES each: 1 + 2 + ... + MAX_LANES = 2 * MAX_LANES - 1 runs go
    # through every growing batch, then two full ones follow.
    count = LANE_STEPS * (2 * MAX_LANES - 1 + 2 * MAX_LANES)
    rng = ScalarXoshiro._from_state(state)
    assert list(islice(stream(state), count)) == [rng.next_u64() for _ in range(count)]


#: Bounds that cover forced, exact-power and rejecting draws, from one bit to 64.
DRAW_BOUNDS = (1, 2, 3, 10, 100, 256, 257, 2**40, 2**63 + 1, MAX_PILE)


@pytest.mark.parametrize("seed", [0, 1, MASK64, 12345])
def test_generator_reads_the_scalar_sequence_through_two_full_batches(seed):
    # Batches of 1, 2, ..., MAX_LANES lanes, then two of MAX_LANES: the
    # generator's stream against the scalar step, as outputs and as draws
    # (each draw reads at least one output, so the draws read as far).
    count = LANE_STEPS * (4 * MAX_LANES - 1)
    ours, scalar = Xoshiro256StarStar(seed), ScalarXoshiro(seed)
    assert [ours.next_u64() for _ in range(count)] == [scalar.next_u64() for _ in range(count)]
    ours, scalar = Xoshiro256StarStar(seed), ScalarXoshiro(seed)
    bounds = [DRAW_BOUNDS[i % len(DRAW_BOUNDS)] for i in range(count)]
    assert list(map(ours.draw, bounds)) == list(map(scalar.draw, bounds))


@settings(max_examples=10, deadline=None)
@given(states)
def test_top_bytes_are_the_top_bytes_of_stream(state):
    # The count of the test above: every growing batch, then two full ones.
    count = LANE_STEPS * (2 * MAX_LANES - 1 + 2 * MAX_LANES)
    expected = [x >> 56 for x in islice(stream(state), count)]
    assert list(islice(_top_bytes(state), count)) == expected


def test_jump_tables_are_not_built_at_import():
    # Then a block that stays in run 0, on either path, builds no jump tables
    # either; the 513th output of a stream, the first of run 1, does.
    code = ("import pilegame.cli, pilegame.rng, pilegame.simulate; "
            "from itertools import islice; "
            "from pilegame.rng import _jump_tables, _top_bytes, stream; "
            "print(_jump_tables.cache_info().currsize, "
            "pilegame.simulate._pile_table.cache_info().currsize); "
            "s = pilegame.rng.expand_seed(1); "
            "pilegame.simulate._run_block(10, 1, s); "
            "pilegame.simulate._run_block(2**40, 1, s); "
            "list(islice(stream(s), 512)); list(islice(_top_bytes(s), 512)); "
            "print(_jump_tables.cache_info().currsize); "
            "list(islice(stream(s), 513)); "
            "print(_jump_tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0", "0", "1"]
