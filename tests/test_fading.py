import math

import numpy as np
import pytest
from scipy import special

from fadenet.fading import (
    FadingModel,
    block_mutual_information,
    fading_model_from_dict,
    fading_model_to_dict,
    load_fading_model,
    log_h_squared_mean,
    log_h_squared_mean_mc,
    memory_gap_ar1,
    save_fading_model,
)
from fadenet.topology import generate

EULER_GAMMA = 0.5772156649015329


@pytest.fixture
def row_pair_model():
    """Two correlated entries on one receiver row: cov [[1, .6], [.6, 1]]."""
    topo = generate("full", 2, 1)
    cov = np.array([[1.0, 0.6], [0.6, 1.0]], dtype=complex)
    return FadingModel.from_mapping(topo, covariance=cov)


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
    bad = dict(doc)
    bad["means"] = [[1, 1, float("nan"), 0.0]]
    with pytest.raises(ValueError, match="finite"):
        fading_model_from_dict(topo, bad)
    bad = dict(doc)
    bad.pop("covariance")
    model = fading_model_from_dict(topo, bad)  # identity default
    assert model.entry_variance(1, 1) == 1.0
