import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fadenet.fading import (
    FadingModel,
    block_mutual_information,
    fading_model_from_dict,
    fading_model_to_dict,
    load_fading_model,
    log_h_squared_mean,
    memory_gap_ar1,
    save_fading_model,
)
from fadenet.topology import generate
from oracles import (
    dense_conditional_covariance,
    dense_covariance,
    dense_mutual_information,
    log_h_squared_mean_mc,
)

EULER_GAMMA = 0.5772156649015329


@pytest.fixture
def row_pair_model():
    """Two correlated entries on one receiver row: cov [[1, .6], [.6, 1]]."""
    topo = generate("full", 2, 1)
    cov = np.array([[1.0, 0.6], [0.6, 1.0]], dtype=complex)
    return FadingModel.from_mapping(topo, covariance=cov)


def test_model_copies_the_callers_arrays():
    topo = generate("full", 2, 1)
    means = np.array([0.5, 0.0], dtype=np.complex128)
    cov = np.array([[1.0, 0.6], [0.6, 1.0]], dtype=np.complex128)
    models = [
        FadingModel(topo, means, cov),
        FadingModel.from_mapping(topo, {(1, 1): 0.5}, covariance=cov),
    ]
    assert means.flags.writeable and cov.flags.writeable
    cov[0, 1] = cov[1, 0] = 0.3
    means[0] = 2.0
    for model in models:
        assert not (model.means.flags.writeable or model.covariance.flags.writeable)
        assert (model.covariance[0, 1], model.means[0]) == (0.6, 0.5)


def test_iid_rayleigh_basics():
    topo = generate("wyner_linear", 3)
    model = FadingModel.iid_rayleigh(topo)
    assert model.entries == tuple(topo.nonzero_pairs())
    assert model.entry_mean(1, 1) == 0
    assert model.entry_variance(2, 2) == 1.0
    assert model.frob_second_moment == pytest.approx(6.0)  # six nonzero entries
    richer = FadingModel.iid_rayleigh(topo, variance=2.5)
    assert richer.frob_second_moment == pytest.approx(15.0)


def test_construction_rejects_bad_statistics():
    topo = generate("full", 2, 1)
    with pytest.raises(ValueError):
        FadingModel(topo=topo, means=np.zeros(3, dtype=complex), covariance=np.eye(2, dtype=complex))
    skew = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        FadingModel(topo=topo, means=np.zeros(2, dtype=complex), covariance=skew)
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="positive definite"):
        FadingModel(topo=topo, means=np.zeros(2, dtype=complex), covariance=indefinite)
    for bad_mean in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            FadingModel.from_mapping(topo, means={(1, 1): bad_mean})
    with pytest.raises(ValueError, match="finite"):
        FadingModel.from_mapping(topo, covariance=np.diag([1.0, math.inf]).astype(complex))
    with pytest.raises(ValueError):
        FadingModel.from_mapping(topo, ar1_rho=1.0)
    with pytest.raises(ValueError):
        FadingModel.from_mapping(topo, ar1_rho=-0.1)


@pytest.mark.parametrize("value", [False, True, "0.5", b"0.5", 0.5j, np.complex128(0.5)])
def test_scalar_statistics_must_be_real_numbers(value):
    # a bool, a string or bytes was once taken as its float, and a complex
    # raised TypeError
    topo = generate("full", 2, 1)
    with pytest.raises(ValueError, match="ar1_rho"):
        FadingModel(topo, np.zeros(2), np.eye(2), ar1_rho=value)
    with pytest.raises(ValueError, match="variance"):
        FadingModel.iid_rayleigh(topo, variance=value)
    with pytest.raises(ValueError, match="variance"):
        log_h_squared_mean(1.0, value)


@pytest.mark.parametrize("value", [0, 0.5, np.float32(0.5), np.float64(0.25), np.int64(0)])
def test_scalar_statistics_take_python_and_numpy_reals(value):
    topo = generate("full", 2, 1)
    assert FadingModel(topo, np.zeros(2), np.eye(2), ar1_rho=value).ar1_rho == float(value)
    variance = value + 1
    assert FadingModel.iid_rayleigh(topo, variance=variance).entry_variance(1, 1) == float(variance)


def test_rejections_inside_independent_blocks():
    topo = generate("full", 4, 1)
    not_pd = np.eye(4, dtype=complex)
    not_pd[np.ix_([1, 3], [1, 3])] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(ValueError, match="^covariance is not positive definite$"):
        FadingModel.from_mapping(topo, covariance=not_pd)
    for diagonal in (0.0, -1.0):
        singleton = np.eye(4, dtype=complex)
        singleton[2, 2] = diagonal
        with pytest.raises(ValueError, match="^covariance is not positive definite$"):
            FadingModel.from_mapping(topo, covariance=singleton)
    one_sided = np.eye(4, dtype=complex)
    one_sided[0, 2] = 0.3
    with pytest.raises(ValueError, match="^covariance is not Hermitian$"):
        FadingModel.from_mapping(topo, covariance=one_sided)


def test_hermitian_tolerance_is_np_allclose():
    # a one-sided cell within 1e-10, and a mirrored pair within 1e-5
    # relative, pass; a wider gap fails, as in np.allclose
    topo = generate("full", 3, 1)
    cov = 2.0 * np.eye(3, dtype=complex)
    cov[0, 2] = 0.9e-10
    FadingModel.from_mapping(topo, covariance=cov.copy())
    cov[0, 2], cov[2, 0] = 1.0, 1.0 + 0.9e-5
    assert np.allclose(cov, cov.conj().T, atol=1e-10)
    FadingModel.from_mapping(topo, covariance=cov.copy())
    cov[2, 0] = 1.0 + 1.1e-5
    assert not np.allclose(cov, cov.conj().T, atol=1e-10)
    with pytest.raises(ValueError, match="Hermitian"):
        FadingModel.from_mapping(topo, covariance=cov)


@st.composite
def interleaved_block_models(draw):
    """A model on one receiver row whose covariance is block diagonal with its
    blocks interleaved in entry order, and the block label of each entry."""
    m = draw(st.integers(2, 9))
    labels = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cov = np.zeros((m, m), dtype=complex)
    for label in set(labels):
        idx = [i for i, other in enumerate(labels) if other == label]
        k = len(idx)
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        cov[np.ix_(idx, idx)] = g @ g.conj().T / k + 0.5 * np.eye(k)
    return FadingModel.from_mapping(generate("full", m, 1), covariance=cov), labels


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_block_algebra_matches_dense_oracle(data):
    model, labels = data.draw(interleaved_block_models())
    entries = list(model.entries)
    m = len(entries)
    roles = data.draw(st.lists(st.sampled_from("tgn"), min_size=m, max_size=m))
    targets = [e for e, role in zip(entries, roles) if role == "t"]
    given_entries = [e for e, role in zip(entries, roles) if role == "g"]
    if targets:
        got = model.conditional_covariance(targets, given_entries)
        want = dense_conditional_covariance(model, targets, given_entries)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    got = block_mutual_information(model, targets, given_entries)
    want = max(0.0, dense_mutual_information(model, targets, given_entries))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    # groups drawn from disjoint sets of blocks are independent, exactly
    side = data.draw(st.lists(st.booleans(), min_size=4, max_size=4))
    a = [e for e, label in zip(entries, labels) if side[label]]
    b = [e for e, label in zip(entries, labels) if not side[label]]
    assert block_mutual_information(model, a, b) == 0.0
    if a:
        assert np.array_equal(model.conditional_covariance(a, b), dense_covariance(model, a))


def test_from_mapping_rejects_zero_entries():
    topo = generate("diagonal", 2)
    with pytest.raises(ValueError):
        FadingModel.from_mapping(topo, means={(1, 2): 1.0})
    model = FadingModel.from_mapping(topo, means={(2, 2): 2 + 1j})
    assert model.entry_mean(2, 2) == 2 + 1j
    assert model.entry_mean(1, 1) == 0


def test_entry_lookup_errors():
    model = FadingModel.iid_rayleigh(generate("diagonal", 2))
    with pytest.raises(ValueError):
        model.entry_mean(1, 2)
    with pytest.raises(ValueError):
        model.entry_variance(9, 9)


def test_conditional_statistics_schur(row_pair_model):
    # scalar case: var(h1 | h2) = 1 - c^2
    assert row_pair_model.conditional_variance((1, 1), [(1, 2)]) == pytest.approx(0.64)
    cond = row_pair_model.conditional_covariance([(1, 1)], [(1, 2)])
    assert cond.shape == (1, 1)
    assert cond[0, 0].real == pytest.approx(0.64)
    # conditioning on nothing returns the marginal
    marg = row_pair_model.conditional_covariance([(1, 1)], [])
    assert marg[0, 0].real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        row_pair_model.conditional_covariance([(1, 1)], [(1, 1)])


def test_conditional_variance_complex_coupling():
    topo = generate("full", 2, 1)
    c = 0.3 + 0.4j
    cov = np.array([[1.0, c], [np.conj(c), 1.0]], dtype=complex)
    model = FadingModel.from_mapping(topo, covariance=cov)
    assert model.conditional_variance((1, 1), [(1, 2)]) == pytest.approx(0.75)


def test_log_h_squared_mean_zero_mean_closed_form():
    assert log_h_squared_mean(0, 1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert log_h_squared_mean(0, 4.0) == pytest.approx(math.log(4.0) - EULER_GAMMA, abs=1e-12)
    with pytest.raises(ValueError):
        log_h_squared_mean(0, 0.0)


@pytest.mark.parametrize("ratio", [1e-6, 1e-3, 0.1, 1.0, 4.0, 25.0, 400.0, 1e4])
def test_log_h_squared_mean_matches_exponential_integral(ratio):
    # independent closed form: E[log q] = log(ratio) - Ei(-ratio) for the
    # unit-variance noncentral law with |mean|^2 = ratio
    expected = math.log(ratio) - special.expi(-ratio)
    got = log_h_squared_mean(math.sqrt(ratio), 1.0)
    assert got == pytest.approx(expected, abs=1e-8)


def test_log_h_squared_mean_variance_scale_and_phase():
    # scaling H by sigma adds log sigma^2; the mean's phase is irrelevant
    base = log_h_squared_mean(2.0, 1.0)
    assert log_h_squared_mean(2.0 * 1j, 1.0) == pytest.approx(base, abs=1e-10)
    assert log_h_squared_mean(6.0, 9.0) == pytest.approx(base + math.log(9.0), abs=1e-8)


# K = |mean|^2 / variance = 1e-3, 1.125 and 100: near zero-mean, moderate
# and strong line of sight.  Sampling shares no code with scipy's E1.
@pytest.mark.parametrize("mean, variance", [(0.1, 10.0), (1.5, 2.0), (20.0, 4.0)])
def test_log_h_squared_mean_mc_agrees(mean, variance):
    value, stderr = log_h_squared_mean_mc(mean, variance, n_samples=400_000, seed=3)
    assert stderr > 0
    assert abs(value - log_h_squared_mean(mean, variance)) < 4 * stderr


def test_block_mutual_information_independent_is_zero():
    model = FadingModel.iid_rayleigh(generate("diagonal", 3))
    assert block_mutual_information(model, [(1, 1)], [(2, 2)]) == 0.0
    assert block_mutual_information(model, [(1, 1), (2, 2)], [(3, 3)]) == 0.0
    assert block_mutual_information(model, [], [(1, 1)]) == 0.0


def test_block_mutual_information_gaussian_value(row_pair_model):
    got = block_mutual_information(row_pair_model, [(1, 1)], [(1, 2)])
    assert got == pytest.approx(-math.log(1 - 0.36), rel=1e-12)


def test_block_mutual_information_rejects_overlap(row_pair_model):
    with pytest.raises(ValueError):
        block_mutual_information(row_pair_model, [(1, 1)], [(1, 1)])
    with pytest.raises(ValueError):
        block_mutual_information(row_pair_model, [(1, 1), (1, 1)], [(1, 2)])


def test_memory_gap_ar1_values():
    topo = generate("full", 2, 2)
    model = FadingModel.from_mapping(topo, ar1_rho=0.5)
    assert memory_gap_ar1(model) == pytest.approx(4 * -math.log1p(-0.25), rel=1e-12)
    memoryless = FadingModel.iid_rayleigh(topo)
    with pytest.raises(ValueError):
        memory_gap_ar1(memoryless)
    nearly_one = FadingModel.from_mapping(topo, ar1_rho=1 - 1e-9)
    with pytest.raises(ValueError, match="diverges"):
        memory_gap_ar1(nearly_one)


def test_serialization_round_trip(tmp_path):
    topo = generate("full", 2, 1)
    cov = np.array([[1.0, 0.25j], [-0.25j, 1.0]], dtype=complex)
    model = FadingModel.from_mapping(topo, means={(1, 2): 1 - 2j}, covariance=cov, ar1_rho=0.3)
    doc = fading_model_to_dict(model)
    back = fading_model_from_dict(topo, doc)
    assert np.array_equal(back.means, model.means)
    assert np.array_equal(back.covariance, model.covariance)
    assert back.ar1_rho == model.ar1_rho

    path = tmp_path / "model.json"
    save_fading_model(model, path)
    loaded = load_fading_model(path, topo)
    assert np.array_equal(loaded.means, model.means)


def test_deserialization_validates(tmp_path):
    topo = generate("diagonal", 2)
    doc = fading_model_to_dict(FadingModel.iid_rayleigh(topo))
    bad = dict(doc)
    bad["means"] = [[1, 2, 0.0, 0.0]]  # (1,2) is a structural zero
    with pytest.raises(ValueError, match="not a fading entry"):
        fading_model_from_dict(topo, bad)
    bad = dict(doc)
    bad["means"] = [[1, 1, 0.0, 0.0], [1, 1, 0.0, 0.0]]
    with pytest.raises(ValueError, match="duplicate"):
        fading_model_from_dict(topo, bad)
    bad = dict(doc)
    bad["means"] = [[1, 1, 0.0]]
    with pytest.raises(ValueError, match="malformed"):
        fading_model_from_dict(topo, bad)
    bad = dict(doc)
    bad["covariance"] = [[[1.0, 0.0]]]  # 1x1 for two fading entries
    with pytest.raises(ValueError, match="covariance must be"):
        fading_model_from_dict(topo, bad)
    bad = dict(doc)
    bad["covariance"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match=r"\[re, im\]"):
        fading_model_from_dict(topo, bad)
    # entry labels are checked, not coerced: each of these once set (1, 1)
    for labels in ([1.7, 1.2], [True, 1], ["1", "1"], [1, None]):
        bad = dict(doc)
        bad["means"] = [[*labels, 0.5, 0.0]]
        with pytest.raises(ValueError, match="integers"):
            fading_model_from_dict(topo, bad)
    # values must be JSON numbers: a string or a bool was once coerced, and
    # null or a list raised TypeError
    for value in ("0.5", True, None, [0.5]):
        bad = dict(doc)
        bad["means"] = [[1, 1, value, 0.0]]
        with pytest.raises(ValueError, match="numbers"):
            fading_model_from_dict(topo, bad)
        bad["means"] = [[1, 1, 0.0, value]]
        with pytest.raises(ValueError, match="numbers"):
            fading_model_from_dict(topo, bad)
    for cell in ([True, False], ["1", "0"], [1.0, None], [1.0, 0.0, 0.0], "10"):
        bad = dict(doc)
        bad["covariance"] = [[cell, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ValueError, match=r"\[re, im\]"):
            fading_model_from_dict(topo, bad)
    for rho in ("0.5", True, [0.5]):
        bad = dict(doc)
        bad["ar1_rho"] = rho
        with pytest.raises(ValueError, match="ar1_rho"):
            fading_model_from_dict(topo, bad)
    bad = dict(doc)
    bad["ar1_rho"] = 0
    assert fading_model_from_dict(topo, bad).ar1_rho == 0.0
    bad = dict(doc)
    bad["means"] = [[1, 1, float("nan"), 0.0]]
    with pytest.raises(ValueError, match="finite"):
        fading_model_from_dict(topo, bad)
    bad = dict(doc)
    bad.pop("covariance")
    model = fading_model_from_dict(topo, bad)  # identity default
    assert model.entry_variance(1, 1) == 1.0
