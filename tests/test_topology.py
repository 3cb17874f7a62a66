import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadenet.fading import FadingModel, block_mutual_information
from fadenet.powerchain import PowerChain, decompose, is_power_chain, validate_chain
from fadenet.topology import (
    GENERATOR_KINDS,
    Topology,
    _hearing_receivers,
    _shape,
    generate,
    load_topology,
    parse_generator_spec,
    prune,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from oracles import generate_from_zeros, prune_pairs


def test_construction_validates_ranges():
    with pytest.raises(ValueError):
        Topology(n_t=-1, n_r=2)
    with pytest.raises(ValueError):
        Topology(n_t=2, n_r=2, zeros=frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        Topology(n_t=2, n_r=2, zeros=frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        Topology(n_t=2, n_r=2, zeros=frozenset({(3, 1)}))
    for size in (2.0, True, "2"):
        with pytest.raises(ValueError, match="integers"):
            Topology(n_t=size, n_r=2)


Z_CHANNEL = Topology(n_t=2, n_r=2, zeros=frozenset({(2, 1)}))
# each public entry point that takes node labels, called with labels (a, 2);
# (1, 2) is valid everywhere
LABELLED = {
    "Topology": lambda a, b: Topology(n_t=2, n_r=2, zeros=frozenset({(a, b)})),
    "from_mapping": lambda a, b: FadingModel.from_mapping(Z_CHANNEL, means={(a, b): 1.0}),
    "block_mutual_information": lambda a, b: block_mutual_information(
        FadingModel.iid_rayleigh(Z_CHANNEL), [(a, 1)], [(2, b)]
    ),
    "decompose": lambda a, b: decompose(Z_CHANNEL, (a, b)),
    "is_power_chain": lambda a, b: is_power_chain(Z_CHANNEL, (a, b)),
    "validate_chain transmitters": lambda a, b: validate_chain(Z_CHANNEL, PowerChain((a, b), (1, 2))),
    "validate_chain witnesses": lambda a, b: validate_chain(Z_CHANNEL, PowerChain((1, 2), (a, b))),
    "entry_mean": lambda a, b: FadingModel.iid_rayleigh(Z_CHANNEL).entry_mean(a, b),
}


@pytest.mark.parametrize("label", [1.5, 1.0, True, "1"])
@pytest.mark.parametrize("entry_point", LABELLED)
def test_labels_must_be_integers(entry_point, label):
    # checked, not truncated: each of these once ran as label 1
    LABELLED[entry_point](np.int64(1), np.int32(2))
    with pytest.raises(ValueError, match="integers"):
        LABELLED[entry_point](label, 2)


def test_hearer_masks_are_complement_of_zeros():
    topo = generate("wyner_linear", 3)
    assert (topo.n_r, topo.n_t) == (4, 3)
    # transmitter t is heard by receivers {t, t+1}
    assert topo.hearer_masks == (0b0011, 0b0110, 0b1100)
    assert topo.nonzero_pairs() == [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]


def test_full_topology_everyone_hears_everyone():
    topo = generate("full", 2, 3)
    assert topo.zeros == frozenset()
    assert topo.hearer_masks == (0b111, 0b111)


def test_diagonal_pairs_only():
    topo = generate("diagonal", 4)
    assert topo.hearer_masks == (0b0001, 0b0010, 0b0100, 0b1000)
    assert len(topo.zeros) == 12


def test_wyner_cyclic_wraps():
    topo = generate("wyner_cyclic", 4)
    assert topo.n_r == 4
    assert topo.hearer_masks == (0b0011, 0b0110, 0b1100, 0b1001)


def test_prune_removes_silent_and_deaf():
    # receiver 3 hears nobody, transmitter 3 reaches nobody
    zeros = {(3, 1), (3, 2), (3, 3), (1, 3), (2, 3)}
    topo = Topology(n_t=3, n_r=3, zeros=frozenset(zeros))
    assert not topo.is_pruned
    pruned = prune(topo)
    assert pruned == Topology(n_t=2, n_r=2)
    assert pruned.is_pruned


def test_prune_cascades():
    # t2 reaches only r2; r2 hears only t2.  Removing either must not strand
    # the other, and the fixed point here keeps both.
    zeros = {(1, 2), (2, 1)}
    topo = Topology(n_t=2, n_r=2, zeros=frozenset(zeros))
    assert prune(topo) == topo

    # t2 and t3 reach nobody and r2 hears nobody; none of the three is in a
    # hearing pair, so no cascade is possible and one pass removes all three
    zeros = {(1, 3), (2, 3), (2, 1), (2, 2), (1, 2)}
    topo = Topology(n_t=3, n_r=2, zeros=frozenset(zeros))
    assert prune(topo) == Topology(n_t=1, n_r=1)


def test_prune_degenerate_all_zero():
    topo = Topology(n_t=2, n_r=2, zeros=frozenset({(r, t) for r in (1, 2) for t in (1, 2)}))
    pruned = prune(topo)
    assert pruned == Topology(n_t=0, n_r=0)
    assert pruned.is_empty
    assert not pruned.is_pruned


def test_prune_idempotent_on_families():
    for spec in ("full:3,2", "diagonal:4", "wyner_linear:3", "wyner_cyclic:5"):
        topo = parse_generator_spec(spec)
        # nothing to drop: the input itself comes back
        assert prune(topo) is topo


def assert_same_topology(topo, oracle):
    assert topo == oracle and hash(topo) == hash(oracle)
    assert topo.hearer_masks == oracle.hearer_masks and topo.zeros == oracle.zeros
    assert json.dumps(topology_to_dict(topo)) == json.dumps(topology_to_dict(oracle))
    assert topo.nonzero_pairs() == oracle.nonzero_pairs()
    assert topo.is_pruned == oracle.is_pruned


def test_families_match_their_zero_pair_oracle():
    for n in range(1, 25):
        for kind in ("diagonal", "wyner_linear", "wyner_cyclic"):
            assert_same_topology(generate(kind, n), generate_from_zeros(kind, n))
        for n_r in {1, n, 25 - n}:
            assert_same_topology(generate("full", n, n_r), generate_from_zeros("full", n, n_r))


@pytest.mark.parametrize(
    "n_t,n_r,p,seed",
    [(1, 1, 0.5, 0), (5, 6, 0.5, 1), (12, 9, 0.7, 2), (22, 22, 0.8, 5), (16, 16, 0.3, 5),
     (20, 3, 0.9, 3), (3, 20, 0.95, 4), (9, 9, 0.0, 6), (9, 9, 1.0, 7), (70, 65, 0.97, 8),
     # any real p, as a Fraction variance is: the network of p = 0.5
     (5, 5, Fraction(1, 2), 1)],
)
def test_random_matches_its_zero_pair_oracle(n_t, n_r, p, seed):
    topo = generate("random", n_t, n_r, p, seed=seed)
    assert_same_topology(topo, generate_from_zeros("random", n_t, n_r, float(p), seed=seed))


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
    # a fractional, infinite or bool size is rejected, not truncated
    for kind, params in (
        ("diagonal", (1.5,)),
        ("full", (2.7, 3)),
        ("full", (float("inf"), 1)),
        ("random", (3.5, 4, 0.5)),
        ("diagonal", (True,)),
        ("full", (2, np.True_)),
    ):
        with pytest.raises(ValueError, match="whole numbers"):
            generate(kind, *params, seed=1)
    assert generate("full", 2.0, 3) == generate("full", 2, 3)


def test_string_size_is_rejected():
    # float("2") would read it as 2 and build a 2x2 topology
    with pytest.raises(ValueError, match="whole numbers"):
        generate("diagonal", "2")


def test_bool_zero_probability_is_rejected():
    # float(True) would read it as p = 1
    with pytest.raises(ValueError, match="zero probability"):
        generate("random", 3, 3, True, seed=1)


def test_bool_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be an integer"):
        generate("random", 3, 3, 0.5, seed=True)
    assert generate("random", 3, 3, 0.5, seed=np.int64(1)) == generate("random", 3, 3, 0.5, seed=1)


def test_shape_is_what_generate_builds():
    # the CLI sizes a spec by _shape before it builds the spec's masks
    for n in range(1, 31):
        for size in (int, float):
            for kind, params in (
                ("full", (size(n), size(31 - n))),
                ("diagonal", (size(n),)),
                ("wyner_linear", (size(n),)),
                ("wyner_cyclic", (size(n),)),
            ):
                topo = generate(kind, *params)
                assert _shape(kind, params) == (topo.n_t, topo.n_r), (kind, params)
    # random's shape is the draw's, before pruning, which may drop every node
    assert _shape("random", (4, 5, 1.0), seed=0) == (4, 5)
    assert generate("random", 4, 5, 1.0, seed=0).is_empty
    assert _shape("random", (22.0, 30, 0.8), seed=5) == (22, 30)


@pytest.mark.parametrize(
    "kind,params,seed",
    [
        ("full", (3,), None),  # wrong parameter counts
        ("diagonal", (2, 2), None),
        ("random", (3, 3), 1),
        ("diagonal", (0,), None),  # size 0
        ("full", (2, 0), None),
        ("random", (0, 3, 0.5), 1),
        ("wyner_linear", (1.5,), None),  # size 1.5
        ("random", (3, 1.5, 0.5), 1),
        ("wyner_cyclic", (True,), None),  # bool sizes
        ("full", (2, np.True_), None),
        ("random", (3, 3, "0.5"), 1),  # p a string
        ("random", (3, 3, 1.5), 1),  # p outside [0, 1]
        ("random", (3, 3, -0.1), 1),
        ("random", (3, 3, 0.5), None),  # missing seed
        ("diagonal", (3,), 1.0),  # non-integer seeds
        ("random", (3, 3, 0.5), "1"),
        ("hexagonal", (3,), None),  # unknown kind
    ],
)
def test_shape_refuses_what_generate_refuses(kind, params, seed):
    with pytest.raises(ValueError) as built:
        generate(kind, *params, seed=seed)
    with pytest.raises(ValueError) as sized:
        _shape(kind, params, seed)
    assert str(sized.value) == str(built.value)


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


@pytest.mark.parametrize(
    "doc,match",
    [
        ([[1, 1]], "JSON object"),
        ({"n_t": 2, "n_r": 2, "zeros": [[1.0, 1]]}, "must hold integers"),
        ({"n_t": 2, "n_r": 2, "zeros": [[1, True]]}, "must hold integers"),
    ],
)
def test_document_rejections_name_their_cause(doc, match):
    with pytest.raises(ValueError, match=match):
        topology_from_dict(doc)


def test_numpy_sizes_are_stored_as_int():
    topo = Topology(n_t=np.int64(2), n_r=np.int32(2), zeros=frozenset({(np.int64(2), 1)}))
    assert type(topo.n_t) is int and type(topo.n_r) is int
    assert topo == Z_CHANNEL and hash(topo) == hash(Z_CHANNEL)
    assert topology_from_dict(json.loads(json.dumps(topology_to_dict(topo)))) == Z_CHANNEL


def test_file_round_trip(tmp_path):
    topo = generate("random", 4, 5, 0.4, seed=7)
    path = tmp_path / "topo.json"
    save_topology(topo, path)
    assert load_topology(path) == topo
    # file is plain JSON
    json.loads(path.read_text())


@st.composite
def zero_sets(draw):
    n_t = draw(st.integers(min_value=1, max_value=5))
    n_r = draw(st.integers(min_value=1, max_value=5))
    pairs = [(r, t) for r in range(1, n_r + 1) for t in range(1, n_t + 1)]
    return n_t, n_r, frozenset(draw(st.sets(st.sampled_from(pairs))))


def topologies():
    return zero_sets().map(lambda case: Topology(n_t=case[0], n_r=case[1], zeros=case[2]))


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_prune_reaches_fixed_point(topo):
    pruned = prune(topo)
    assert pruned.is_pruned or pruned.is_empty
    assert prune(pruned) == pruned


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_prune_keeps_fading_entries_in_order(topo):
    # the survivors are exactly the nodes of some fading entry, relabelled in
    # ascending order: entry i of the original maps to entry i of the pruned
    pairs = topo.nonzero_pairs()
    new_r = {r: i for i, r in enumerate(sorted({r for r, _ in pairs}), start=1)}
    new_t = {t: i for i, t in enumerate(sorted({t for _, t in pairs}), start=1)}
    pruned = prune(topo)
    assert (pruned.n_r, pruned.n_t) == (len(new_r), len(new_t))
    assert pruned.nonzero_pairs() == [(new_r[r], new_t[t]) for r, t in pairs]


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_serialization_round_trips(topo):
    assert topology_from_dict(topology_to_dict(topo)) == topo


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_hearing_counts_match_zero_count(topo):
    masks = topo.hearer_masks
    assert sum(mask.bit_count() for mask in masks) == topo.n_t * topo.n_r - len(topo.zeros)
    hearing = [
        (r, t)
        for r in range(1, topo.n_r + 1)
        for t in range(1, topo.n_t + 1)
        if masks[t - 1] >> (r - 1) & 1
    ]
    assert topo.nonzero_pairs() == hearing


@given(zero_sets())
@settings(max_examples=150, deadline=None)
def test_hearing_receivers_are_counted_from_the_zero_pairs(case):
    # the count a --topo file is guarded by before its masks are built: a
    # receiver is deaf when all n_t of its pairs are zeros
    assert _hearing_receivers(*case) == prune(Topology(*case)).n_r
    assert _hearing_receivers(0, case[1], frozenset()) == 0


@given(topologies())
@settings(max_examples=150, deadline=None)
def test_prune_matches_its_pair_oracle(topo):
    assert_same_topology(prune(topo), prune_pairs(topo))


@given(zero_sets())
@settings(max_examples=150, deadline=None)
def test_zeros_read_back_and_masks_agree_with_the_pairs(case):
    n_t, n_r, zeros = case
    topo = Topology(n_t=n_t, n_r=n_r, zeros=zeros)
    assert topo.zeros == zeros
    for r in range(1, n_r + 1):
        for t in range(1, n_t + 1):
            assert bool(topo.hearer_masks[t - 1] >> (r - 1) & 1) == ((r, t) not in zeros)
