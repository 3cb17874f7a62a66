import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadenet.topology import (
    GENERATOR_KINDS,
    Topology,
    generate,
    load_topology,
    parse_generator_spec,
    prune,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)


def test_construction_validates_ranges():
    with pytest.raises(ValueError):
        Topology(n_t=-1, n_r=2)
    with pytest.raises(ValueError):
        Topology(n_t=2, n_r=2, zeros=frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        Topology(n_t=2, n_r=2, zeros=frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        Topology(n_t=2, n_r=2, zeros=frozenset({(3, 1)}))


def test_hearing_matrix_is_complement_of_zeros():
    topo = generate("wyner_linear", 3)
    h = topo.hearing
    assert h.shape == (4, 3)
    for t in range(1, 4):
        heard_rows = {r for r in range(1, 5) if h[r - 1, t - 1]}
        assert heard_rows == {t, t + 1}
        assert topo.hearers(t) == {t, t + 1}
    assert topo.heard(1) == {1}
    assert topo.heard(2) == {1, 2}
    assert topo.heard(4) == {3}


def test_hearing_matrix_read_only():
    topo = generate("diagonal", 3)
    with pytest.raises(ValueError):
        topo.hearing[0, 0] = False


def test_full_topology_everyone_hears_everyone():
    topo = generate("full", 2, 3)
    assert topo.zeros == frozenset()
    for t in (1, 2):
        assert topo.hearers(t) == {1, 2, 3}
    for r in (1, 2, 3):
        assert topo.heard(r) == {1, 2}


def test_diagonal_pairs_only():
    topo = generate("diagonal", 4)
    assert topo.hearers(2) == {2}
    assert topo.heard(3) == {3}
    assert len(topo.zeros) == 12


def test_wyner_cyclic_wraps():
    topo = generate("wyner_cyclic", 4)
    assert topo.n_r == 4
    assert topo.hearers(4) == {4, 1}


def test_out_of_range_queries_rejected():
    topo = generate("diagonal", 2)
    with pytest.raises(ValueError):
        topo.hearers(0)
    with pytest.raises(ValueError):
        topo.hearers(3)
    with pytest.raises(ValueError):
        topo.heard(5)


def test_prune_removes_silent_and_deaf():
    # receiver 3 hears nobody, transmitter 3 reaches nobody
    zeros = {(3, 1), (3, 2), (3, 3), (1, 3), (2, 3)}
    topo = Topology(n_t=3, n_r=3, zeros=frozenset(zeros))
    assert not topo.is_pruned
    result = prune(topo)
    assert result.removed_transmitters == (3,)
    assert result.removed_receivers == (3,)
    assert result.topology.n_t == 2
    assert result.topology.n_r == 2
    assert result.topology.is_pruned
    assert not result.degenerate
    # old index -> new index maps
    assert result.transmitter_map == {1: 1, 2: 2}
    assert result.receiver_map == {1: 1, 2: 2}


def test_prune_cascades():
    # t2 reaches only r2; r2 hears only t2.  Removing either must not strand
    # the other, and the fixed point here keeps both.
    zeros = {(1, 2), (2, 1)}
    topo = Topology(n_t=2, n_r=2, zeros=frozenset(zeros))
    assert prune(topo).topology == topo

    # t3 is silent; r2 heard only t3; t2 reached only r2: two-stage cascade
    zeros = {(1, 3), (2, 3), (2, 1), (2, 2), (1, 2)}
    topo = Topology(n_t=3, n_r=2, zeros=frozenset(zeros))
    result = prune(topo)
    assert result.removed_transmitters == (2, 3)
    assert result.removed_receivers == (2,)
    assert result.topology == Topology(n_t=1, n_r=1)


def test_prune_degenerate_all_zero():
    topo = Topology(n_t=2, n_r=2, zeros=frozenset({(r, t) for r in (1, 2) for t in (1, 2)}))
    result = prune(topo)
    assert result.degenerate
    assert result.topology.is_empty
    assert not result.topology.is_pruned


def test_prune_idempotent_on_families():
    for spec in ("full:3,2", "diagonal:4", "wyner_linear:3", "wyner_cyclic:5"):
        topo = parse_generator_spec(spec)
        assert prune(topo).topology == topo


def test_random_generator_is_seeded_and_pruned():
    a = generate("random", 5, 5, 0.5, seed=123)
    b = generate("random", 5, 5, 0.5, seed=123)
    c = generate("random", 5, 5, 0.5, seed=124)
    assert a == b
    assert a != c
    assert a.is_pruned or a.is_empty


def test_random_generator_requires_seed():
    with pytest.raises(ValueError):
        generate("random", 4, 4, 0.5)


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        generate("full", 3)
    with pytest.raises(ValueError):
        generate("diagonal", 2, 2)
    with pytest.raises(ValueError):
        generate("nonsense", 3)
    with pytest.raises(ValueError):
        generate("random", 3, 3, 1.5, seed=1)
    # a fractional or infinite size is rejected, not truncated
    for kind, params in (
        ("diagonal", (1.5,)),
        ("full", (2.7, 3)),
        ("full", (float("inf"), 1)),
        ("random", (3.5, 4, 0.5)),
    ):
        with pytest.raises(ValueError, match="whole numbers"):
            generate(kind, *params, seed=1)
    assert generate("full", 2.0, 3) == generate("full", 2, 3)


def test_parse_generator_spec():
    assert parse_generator_spec("full:2,3") == generate("full", 2, 3)
    assert parse_generator_spec("diagonal:3") == generate("diagonal", 3)
    for bad in ("full", "full:", "full:a,b", ":3"):
        with pytest.raises(ValueError):
            parse_generator_spec(bad)
    assert set(GENERATOR_KINDS) == {"full", "diagonal", "wyner_linear", "wyner_cyclic", "random"}


def test_dict_round_trip():
    topo = generate("wyner_cyclic", 4)
    doc = topology_to_dict(topo)
    assert doc["zeros"] == sorted(doc["zeros"])
    assert topology_from_dict(doc) == topo


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n_t"),
        lambda d: d.update(n_t="two"),
        lambda d: d.update(zeros=[[1, 1], [1, 1]]),
        lambda d: d.update(zeros=[[1]]),
        lambda d: d.update(zeros=[[9, 1]]),
        lambda d: d.update(zeros="nope"),
    ],
)
def test_malformed_documents_rejected(mutate):
    doc = topology_to_dict(generate("diagonal", 2))
    mutate(doc)
    with pytest.raises((ValueError, TypeError, KeyError)):
        topology_from_dict(doc)


def test_file_round_trip(tmp_path):
    topo = generate("random", 4, 5, 0.4, seed=7)
    path = tmp_path / "topo.json"
    save_topology(topo, path)
    assert load_topology(path) == topo
    # file is plain JSON
    json.loads(path.read_text())


@st.composite
def topologies(draw):
    n_t = draw(st.integers(min_value=1, max_value=5))
    n_r = draw(st.integers(min_value=1, max_value=5))
    pairs = [(r, t) for r in range(1, n_r + 1) for t in range(1, n_t + 1)]
    zeros = draw(st.sets(st.sampled_from(pairs)))
    return Topology(n_t=n_t, n_r=n_r, zeros=frozenset(zeros))


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_prune_reaches_fixed_point(topo):
    result = prune(topo)
    pruned = result.topology
    assert pruned.is_pruned or pruned.is_empty
    assert prune(pruned).topology == pruned
    # maps cover exactly the survivors, contiguously renumbered
    assert sorted(result.transmitter_map.values()) == list(range(1, pruned.n_t + 1))
    assert sorted(result.receiver_map.values()) == list(range(1, pruned.n_r + 1))


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_serialization_round_trips(topo):
    assert topology_from_dict(topology_to_dict(topo)) == topo


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_hearing_counts_match_zero_count(topo):
    assert int(np.sum(topo.hearing)) == topo.n_t * topo.n_r - len(topo.zeros)
