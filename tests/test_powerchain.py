import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadenet.powerchain import (
    PowerChain,
    SizeGuardError,
    brute_force_kappa,
    decompose,
    is_power_chain,
    longest_chain,
    validate_chain,
)
from fadenet.topology import Topology, generate, parse_generator_spec, prune


def test_is_power_chain_on_wyner():
    topo = generate("wyner_linear", 3)
    assert is_power_chain(topo, (1, 2, 3))
    assert is_power_chain(topo, (3, 2, 1))
    assert is_power_chain(topo, ())
    # 2 covers receivers {2,3}; then 1 brings receiver 1, fine either way
    assert is_power_chain(topo, (2, 1))
    # full hearing: nobody after the first can bring a fresh receiver
    full = generate("full", 3, 3)
    assert is_power_chain(full, (2,))
    assert not is_power_chain(full, (2, 1))


def test_is_power_chain_rejects_bad_input():
    topo = generate("diagonal", 3)
    with pytest.raises(ValueError):
        is_power_chain(topo, (1, 1))
    with pytest.raises(ValueError):
        is_power_chain(topo, (0,))
    with pytest.raises(ValueError):
        is_power_chain(topo, (4,))


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("full:1,1", 1),
        ("full:2,2", 1),
        ("full:5,5", 1),
        ("diagonal:1", 1),
        ("diagonal:3", 3),
        ("diagonal:8", 8),
        ("wyner_linear:3", 3),
        ("wyner_cyclic:4", 3),
        ("wyner_cyclic:6", 5),
    ],
)
def test_longest_chain_known_values(spec, expected):
    topo = parse_generator_spec(spec)
    kappa, chain = longest_chain(topo)
    assert kappa == expected
    assert len(chain) == expected
    validate_chain(topo, chain)


def test_longest_chain_prefers_smallest_indices():
    kappa, chain = longest_chain(generate("diagonal", 4))
    assert chain.transmitters == (1, 2, 3, 4)
    assert chain.witnesses == (1, 2, 3, 4)
    kappa, chain = longest_chain(generate("full", 3, 2))
    assert kappa == 1
    assert chain.transmitters == (1,)
    assert chain.witnesses == (1,)


def test_longest_chain_matches_brute_force_small_random():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 40:
        n_t = int(rng.integers(1, 7))
        n_r = int(rng.integers(1, 7))
        topo = generate("random", n_t, n_r, float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(1 << 30)))
        if topo.is_empty:
            continue
        assert longest_chain(topo)[0] == brute_force_kappa(topo)
        checked += 1


def _reference_longest_chain(topo: Topology) -> tuple[int, PowerChain]:
    """The dynamic program without the per-state ceiling: every state scans
    all of its transmitters."""
    masks = topo.hearer_masks
    memo: dict[int, int] = {}

    def best(covered: int) -> int:
        cached = memo.get(covered)
        if cached is not None:
            return cached
        value = 0
        for mask in masks:
            if mask & ~covered:
                value = max(value, 1 + best(covered | mask))
        memo[covered] = value
        return value

    kappa_star = best(0)
    transmitters: list[int] = []
    witnesses: list[int] = []
    covered = 0
    while best(covered) > 0:
        for t, mask in enumerate(masks, start=1):
            fresh = mask & ~covered
            if fresh and 1 + best(covered | mask) == best(covered):
                transmitters.append(t)
                witnesses.append((fresh & -fresh).bit_length())
                covered |= mask
                break
    chain = PowerChain(tuple(transmitters), tuple(witnesses))
    return kappa_star, chain


@st.composite
def _topologies(draw, max_transmitters=10, receivers=(1, 10)):
    n_t = draw(st.integers(1, max_transmitters))
    n_r = draw(st.integers(*receivers))
    # a cell is heard when its digit falls below the drawn density
    density = draw(st.integers(1, 9))
    digits = draw(st.lists(st.integers(0, 9), min_size=n_t * n_r, max_size=n_t * n_r))
    zeros = {
        (r, t)
        for r in range(1, n_r + 1)
        for t in range(1, n_t + 1)
        if digits[(r - 1) * n_t + t - 1] >= density
    }
    return Topology(n_t=n_t, n_r=n_r, zeros=frozenset(zeros))


@given(_topologies())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_longest_chain_equals_the_unbounded_dp(topo):
    result = longest_chain(topo)
    assert result == _reference_longest_chain(topo)
    if topo.n_t <= 7:
        assert result[0] == brute_force_kappa(topo)


@given(_topologies(max_transmitters=14, receivers=(11, 14)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_longest_chain_equals_the_unbounded_dp_on_11_to_14_receivers(topo):
    assert longest_chain(topo) == _reference_longest_chain(topo)


@given(_topologies(max_transmitters=10, receivers=(15, 24)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_longest_chain_equals_the_unbounded_dp_on_15_to_24_receivers(topo):
    # fewer transmitters than receivers: the live-transmitter half of the
    # ceiling decides, and the reference's 2**n_t states stay cheap
    assert longest_chain(topo) == _reference_longest_chain(topo)


@pytest.mark.parametrize(
    "spec,seed,transmitters,witnesses",
    [
        (
            "random:22,22,0.8",
            5,
            (3, 5, 8, 10, 13, 15, 1, 4, 17, 14, 2, 9, 11, 12, 6, 18, 7),
            (19, 5, 3, 1, 10, 2, 16, 11, 13, 15, 14, 21, 6, 7, 8, 17, 9),
        ),
        ("wyner_cyclic:16", None, tuple(range(1, 16)), (1, *range(3, 17))),
    ],
)
def test_longest_chain_on_the_chain_workload(spec, seed, transmitters, witnesses):
    # the chains the benchmark's kappa runs print; the search order must not move them
    kappa, chain = longest_chain(parse_generator_spec(spec, seed=seed))
    assert kappa == len(transmitters)
    assert chain == PowerChain(transmitters, witnesses)


@pytest.mark.parametrize("n", [24, 40, 64])
def test_longest_chain_on_large_rings(n):
    topo = generate("wyner_cyclic", n)
    kappa, chain = longest_chain(topo, max_receivers=n)
    assert kappa == n - 1
    assert chain == PowerChain(tuple(range(1, n)), (1, *range(3, n + 1)))
    validate_chain(topo, chain)


@pytest.mark.parametrize(
    "spec,expected",
    [("diagonal:24", 24), ("wyner_linear:23", 23)],
)
def test_longest_chain_at_the_receiver_guard(spec, expected):
    topo = parse_generator_spec(spec)
    assert topo.n_r == 24
    kappa, chain = longest_chain(topo)
    assert kappa == expected
    assert chain.transmitters == tuple(range(1, expected + 1))
    validate_chain(topo, chain)


def test_size_guards():
    with pytest.raises(SizeGuardError):
        longest_chain(generate("diagonal", 25))
    with pytest.raises(SizeGuardError):
        brute_force_kappa(generate("full", 8, 2))
    # guards are parameters, not constants
    with pytest.raises(SizeGuardError):
        longest_chain(generate("diagonal", 4), max_receivers=3)
    assert brute_force_kappa(generate("diagonal", 4), max_transmitters=4) == 4


@st.composite
def _networks_with_deaf_receivers(draw):
    n_t = draw(st.integers(1, 5))
    n_r = draw(st.integers(20, 30))
    deaf = draw(st.sets(st.integers(1, n_r), max_size=7))
    # every other receiver hears a nonempty set of transmitters
    heard_by = {
        r: draw(st.integers(1, 2**n_t - 1)) for r in range(1, n_r + 1) if r not in deaf
    }
    zeros = {
        (r, t)
        for r in range(1, n_r + 1)
        for t in range(1, n_t + 1)
        if not heard_by.get(r, 0) >> (t - 1) & 1
    }
    return Topology(n_t=n_t, n_r=n_r, zeros=frozenset(zeros))


@given(_networks_with_deaf_receivers())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_guard_counts_the_receivers_that_hear(topo):
    # a deaf receiver never enters a search state, wherever it sits
    pruned = prune(topo)
    if pruned.n_r > 24:
        with pytest.raises(SizeGuardError):
            longest_chain(topo)
    else:
        assert longest_chain(topo)[0] == longest_chain(pruned)[0]


def test_longest_chain_empty_topology():
    empty = prune(Topology(n_t=1, n_r=1, zeros=frozenset({(1, 1)})))
    with pytest.raises(ValueError):
        longest_chain(empty)


def test_validate_chain_rejects_heard_witness():
    topo = generate("wyner_linear", 3)
    # receiver 2 hears transmitter 1, so it cannot witness a successor of 1
    chain = PowerChain(transmitters=(1, 2), witnesses=(1, 2))
    with pytest.raises(ValueError):
        validate_chain(topo, chain)
    validate_chain(topo, PowerChain(transmitters=(1, 2), witnesses=(1, 3)))


def test_validate_chain_rejects_unheard_witness():
    topo = generate("diagonal", 2)
    with pytest.raises(ValueError):
        validate_chain(topo, PowerChain(transmitters=(1,), witnesses=(2,)))


def test_validate_chain_rejects_witness_out_of_range():
    topo = generate("diagonal", 2)
    for r in (0, -1, 3):
        with pytest.raises(ValueError, match="not newly reached"):
            validate_chain(topo, PowerChain(transmitters=(1,), witnesses=(r,)))


def test_power_chain_length_mismatch():
    with pytest.raises(ValueError):
        PowerChain(transmitters=(1, 2), witnesses=(1,))


def test_decompose_identity_diagonal():
    topo = generate("diagonal", 3)
    dec = decompose(topo, (1, 2, 3))
    assert dec.kappa == 3
    assert dec.chain_positions == (1, 2, 3)
    assert dec.chain.transmitters == (1, 2, 3)
    assert dec.receiver_blocks == ({1}, {2}, {3})
    assert dec.transmitter_blocks == ({1}, {2}, {3})


def test_decompose_full_keeps_only_first():
    topo = generate("full", 3, 2)
    dec = decompose(topo, (2, 3, 1))
    assert dec.kappa == 1
    assert dec.chain_positions == (1,)
    assert dec.chain.transmitters == (2,)
    assert dec.receiver_blocks == ({1, 2},)
    assert dec.transmitter_blocks == ({1, 2, 3},)


def test_decompose_wyner_reversed():
    topo = generate("wyner_linear", 3)
    dec = decompose(topo, (3, 2, 1))
    # 3 covers {3,4}; 2 adds {2}; 1 adds {1}
    assert dec.kappa == 3
    assert dec.chain.transmitters == (3, 2, 1)
    assert dec.receiver_blocks == ({3, 4}, {2}, {1})
    assert dec.chain.witnesses == (3, 2, 1)


def test_decompose_validates_permutation_and_pruning():
    topo = generate("diagonal", 3)
    with pytest.raises(ValueError):
        decompose(topo, (1, 2))
    with pytest.raises(ValueError):
        decompose(topo, (1, 2, 2))
    unpruned = Topology(n_t=2, n_r=2, zeros=frozenset({(1, 2), (2, 2)}))
    with pytest.raises(ValueError):
        decompose(unpruned, (1, 2))


def _random_pruned(rng) -> Topology:
    while True:
        topo = generate(
            "random",
            int(rng.integers(1, 6)),
            int(rng.integers(1, 6)),
            float(rng.uniform(0.2, 0.8)),
            seed=int(rng.integers(1 << 30)),
        )
        if not topo.is_empty:
            return topo


def test_decompose_invariants_over_all_permutations():
    rng = np.random.default_rng(99)
    for _ in range(12):
        topo = _random_pruned(rng)
        kappa_star, _ = longest_chain(topo)
        best = 0
        for perm in itertools.permutations(range(1, topo.n_t + 1)):
            dec = decompose(topo, perm)
            assert dec.kappa <= kappa_star
            covered = set().union(*dec.receiver_blocks)
            assert covered == set(range(1, topo.n_r + 1))
            assert sum(len(b) for b in dec.receiver_blocks) == topo.n_r
            flat = [t for block in dec.transmitter_blocks for t in block]
            assert sorted(flat) == list(range(1, topo.n_t + 1))
            validate_chain(topo, dec.chain)
            best = max(best, dec.kappa)
        assert best == kappa_star


@st.composite
def _pruned_orderings(draw):
    topo = draw(_topologies(max_transmitters=9, receivers=(1, 9)).map(prune).filter(
        lambda topo: not topo.is_empty
    ))
    return topo, tuple(draw(st.permutations(range(1, topo.n_t + 1))))


@given(_pruned_orderings())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_decompose_blocks_follow_their_definition(case):
    # every block derived from the zero pairs alone: receiver block k holds
    # the receivers that hear the k-th kept transmitter and no earlier one of
    # the order, a position is kept when its block is non-empty, transmitter
    # block k runs from kept position k to the next, and the witness is the
    # smallest receiver of its block
    topo, perm = case
    positions, receiver_blocks = [], []
    for pos, t in enumerate(perm, start=1):
        block = frozenset(
            r
            for r in range(1, topo.n_r + 1)
            if all((r, u) in topo.zeros for u in perm[: pos - 1]) and (r, t) not in topo.zeros
        )
        if block:
            positions.append(pos)
            receiver_blocks.append(block)
    ends = positions[1:] + [topo.n_t + 1]
    dec = decompose(topo, perm)
    assert dec.permutation == perm
    assert dec.chain_positions == tuple(positions)
    assert dec.receiver_blocks == tuple(receiver_blocks)
    assert dec.transmitter_blocks == tuple(
        frozenset(perm[start - 1 : end - 1]) for start, end in zip(positions, ends)
    )
    assert dec.chain == PowerChain(
        tuple(perm[pos - 1] for pos in positions), tuple(min(b) for b in receiver_blocks)
    )


def test_decompose_walks_hearer_masks_not_zero_pairs(monkeypatch):
    def unbuilt(topo):
        raise AssertionError("the zero set was built")

    # 999 000 zero pairs, and a decomposition that needs O(n) work
    monkeypatch.setattr(Topology, "zeros", property(unbuilt))
    dec = decompose(generate("diagonal", 1000), tuple(range(1000, 0, -1)))
    assert dec.kappa == 1000
    assert dec.chain.transmitters == dec.chain.witnesses == tuple(range(1000, 0, -1))
    assert dec.receiver_blocks == tuple(frozenset({t}) for t in range(1000, 0, -1))
