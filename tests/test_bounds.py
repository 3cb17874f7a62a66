import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from fadenet import bounds
from fadenet.bounds import (
    AllocationInfeasibleError,
    PowerAllocation,
    allocation,
    alpha_penalty,
    duality_upper_bound,
    evaluate,
    interference_penalty,
    min_valid_snr,
    plan,
    scalar_mi_lower_bound,
    scheme_rate_lower_bound,
)
from fadenet.fading import FadingModel, block_mutual_information, log_h_squared_mean
from fadenet.powerchain import PowerChain, longest_chain
from fadenet.topology import Topology, generate, parse_generator_spec, prune
from oracles import log_spread, separation_ratios, weaker_level_power

EULER_GAMMA = 0.5772156649015329


class TestMinValidSnr:
    def test_single_level_floor_is_e(self):
        assert min_valid_snr(1) == math.e
        # and indeed sqrt(E) > log E on a dense sample above e
        for e in np.geomspace(math.e, 1e4, 50):
            assert math.sqrt(e) > math.log(e)

    def test_two_levels_near_2_4e7(self):
        e0 = min_valid_snr(2)
        assert 2.0e7 < e0 < 3.0e7
        # threshold is the upper root of exp(u/6) = u
        u0 = math.log(e0)
        assert math.exp(u0 / 6.0) == pytest.approx(u0, rel=1e-9)

    @pytest.mark.parametrize("kappa", range(2, 10))
    def test_threshold_is_tight_and_feasible(self, kappa):
        e0 = min_valid_snr(kappa)
        assert allocation(e0, kappa).kappa == kappa
        with pytest.raises(AllocationInfeasibleError):
            allocation(e0 * (1 - 1e-9), kappa)

    def test_monotone_in_kappa(self):
        assert min_valid_snr(1) < min_valid_snr(2) < min_valid_snr(3) < min_valid_snr(4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            min_valid_snr(0)

    @pytest.mark.parametrize("kappa", [True, 2.0, "2"])
    def test_kappa_must_be_an_integer(self, kappa):
        # cached numpy integers equal to True and 2.0 must not answer for them
        for cached in (np.int64(1), np.int64(2)):
            min_valid_snr(cached)
        with pytest.raises(ValueError, match="kappa must be an integer"):
            min_valid_snr(kappa)
        with pytest.raises(ValueError, match="kappa must be an integer"):
            allocation(1e30, kappa)

    def test_numpy_integer_kappa_is_accepted(self):
        assert min_valid_snr(np.int32(3)) == min_valid_snr(3)
        assert allocation(1e30, np.int64(2)) == allocation(1e30, 2)


class TestScipyFreeForms:
    """The scalar special functions the bounds compute without scipy, each
    against the scipy function it replaced."""

    @pytest.mark.parametrize("kappa", range(2, 10))
    def test_min_valid_snr_matches_lambert_w(self, kappa):
        k = kappa * (kappa + 1)
        u = -k * float(special.lambertw(-1.0 / k, -1).real)
        assert min_valid_snr(kappa) == pytest.approx(math.exp(u * (1.0 + 1e-12)), rel=1e-15)

    def test_digamma_at_integers(self):
        for n in range(1, 65):
            assert bounds._digamma_int(n) == pytest.approx(float(special.digamma(n)), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 2.5, 7.3, 100.0])
    def test_alpha_penalty_matches_gammaln(self, alpha):
        expected = float(special.gammaln(alpha)) - alpha * math.log(alpha)
        assert alpha_penalty(alpha) == pytest.approx(expected, rel=1e-15, abs=1e-300)


class TestAllocation:
    def test_worked_example_two_levels(self):
        alloc = allocation(1e8, 2)
        log_e = math.log(1e8)
        (lo1, hi1), (lo2, hi2) = alloc.levels
        assert hi1 == 1e8
        assert hi2 == pytest.approx(1e4, rel=1e-12)
        assert lo1 == pytest.approx(1e4 * log_e, rel=1e-12)
        assert lo2 == pytest.approx(1e8 ** (1.0 / 3.0) * log_e, rel=1e-12)
        assert lo1 > hi2  # nesting with a gap

    def test_single_level(self):
        alloc = allocation(1e8, 1)
        assert alloc.levels == ((pytest.approx(1e4 * math.log(1e8)), 1e8),)

    def test_separation_is_log_squared(self):
        for snr, kappa in ((1e8, 2), (1e12, 2), (1e22, 3)):
            alloc = allocation(snr, kappa)
            for ratio in separation_ratios(alloc):
                assert ratio == pytest.approx(math.log(snr) ** 2, rel=1e-9)

    def test_log_spread_overflow_safe(self):
        alloc = allocation(1e300, 1)
        # squaring x_max would overflow; the log spread must not
        spread = log_spread(alloc, 1)
        assert math.isfinite(spread)
        assert spread == pytest.approx(math.log(1e300) - 2 * math.log(math.log(1e300)), rel=1e-12)

    def test_infeasible_budget_carries_threshold(self):
        with pytest.raises(AllocationInfeasibleError) as err:
            allocation(1e6, 2)
        assert 2.0e7 < err.value.threshold < 3.0e7
        assert err.value.kappa == 2

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PowerAllocation(snr_budget=10.0, levels=((5.0, 2.0),))
        for budget in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="power budget"):
                PowerAllocation(snr_budget=budget, levels=())


def test_reports_carry_each_levels_noise_std():
    # sigma_w^2 is the witness's noise variance: thermal plus the weaker levels at
    # worst case, as each report carries it per level
    network = plan(FadingModel.iid_rayleigh(generate("wyner_linear", 2)))
    assert (network.kappa_star, network.frob2) == (2, 4.0)
    sigma_w = evaluate(network, 1e8).sigma_w
    assert sigma_w[1] == 1.0
    assert sigma_w[0] ** 2 == pytest.approx(4.00000001e8, rel=1e-12)
    values = evaluate(plan(FadingModel.iid_rayleigh(generate("wyner_linear", 3))), 1e22).sigma_w
    assert len(values) == 3
    assert values[0] >= values[1] >= values[2] == 1.0


@pytest.mark.parametrize(
    "spec, seed, kappa, start",
    [("wyner_linear:8", None, 8, 191), ("random:16,16,0.3", 5, 6, 100),
     ("wyner_cyclic:6", None, 5, 66)],
)
def test_weaker_level_power_matches_the_per_level_oracle(spec, seed, kappa, start):
    # the benchmark's bounds grids: 50 points from 10^start to 10^300
    network = plan(FadingModel.iid_rayleigh(prune(parse_generator_spec(spec, seed=seed))))
    assert network.kappa_star == kappa
    step = (300 - start) / 49
    for k in range(50):
        report = evaluate(network, 10.0 ** (start + k * step))
        for nu, level in enumerate(network.levels, start=1):
            power = weaker_level_power(report.alloc, nu, network.frob2)
            x_min = report.alloc.levels[nu - 1][0]
            penalty = math.log1p(power / (1.0 + level.eps2 * x_min**2))
            assert report.sigma_w[nu - 1] == math.sqrt(1.0 + power)
            assert report.per_level_terms[nu - 1][1] == penalty
            assert interference_penalty(nu, report.alloc, network.frob2, level.eps2) == penalty


@pytest.mark.parametrize("windows", [((1, 2), (1, 10), (1, 3)), ((1, 2), (1, 3), (1, 10))])
def test_weaker_level_power_keeps_the_running_peak(windows):
    # windows that are not nested: the strongest weaker level need not be the next one
    alloc = PowerAllocation(snr_budget=100.0, levels=windows)
    for nu in (1, 2, 3):
        power = weaker_level_power(alloc, nu, 2.0)
        assert interference_penalty(nu, alloc, 2.0, 0.5) == math.log1p(power / 1.5)


class TestScalarBound:
    def test_frozen_example(self):
        got = scalar_mi_lower_bound(1e3, 1e6, 1.0, 1.0, -EULER_GAMMA)
        assert got == pytest.approx(1.0465772489083114, rel=1e-9)

    def test_vanishing_noise_limit(self):
        # with sigma_w -> 0 the correction terms collapse to exactly -1 nat
        spread = math.log(2 * (math.log(1e6) - math.log(1e3)))
        got = scalar_mi_lower_bound(1e3, 1e6, 1.0, 0.0, -EULER_GAMMA)
        assert got == pytest.approx(spread - EULER_GAMMA - 1.0, rel=1e-12)

    def test_monotonicities(self):
        base = scalar_mi_lower_bound(1e3, 1e6, 1.0, 1.0, 0.0)
        assert scalar_mi_lower_bound(1e3, 1e7, 1.0, 1.0, 0.0) > base
        assert scalar_mi_lower_bound(1e3, 1e6, 1.0, 1.0, 0.5) > base
        assert scalar_mi_lower_bound(1e3, 1e6, 1.0, 5.0, 0.0) < base

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            scalar_mi_lower_bound(1e3, 1e3, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            scalar_mi_lower_bound(1e3, 1e6, 0.0, 1.0, 0.0)


class TestInterferencePenalty:
    def test_weakest_level_is_exactly_zero(self):
        alloc = allocation(1e8, 2)
        assert interference_penalty(2, alloc, 4.0, 1.0) == 0.0

    def test_frozen_example(self):
        alloc = allocation(1e8, 2)
        got = interference_penalty(1, alloc, 4.0, 1.0)
        assert got == pytest.approx(0.011719291124791037, rel=1e-9)

    def test_decreasing_in_budget(self):
        values = [
            interference_penalty(1, allocation(e, 2), 4.0, 1.0)
            for e in (1e8, 1e10, 1e12, 1e14, 1e16)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05

    def test_requires_positive_eps2(self):
        alloc = allocation(1e8, 2)
        with pytest.raises(ValueError):
            interference_penalty(1, alloc, 4.0, 0.0)

    @pytest.mark.parametrize("frob2", [0.0, -4.0])
    def test_requires_positive_frob2(self, frob2):
        with pytest.raises(ValueError, match="frob2"):
            interference_penalty(1, allocation(1e8, 2), frob2, 1.0)

    @pytest.mark.parametrize("nu", [0, 3])
    def test_level_out_of_range(self, nu):
        with pytest.raises(ValueError, match="out of range"):
            interference_penalty(nu, allocation(1e8, 2), 4.0, 1.0)

    @pytest.mark.parametrize("nu", [True, 1.0, "1"])
    def test_level_must_be_an_integer(self, nu):
        alloc = allocation(1e8, 2)
        with pytest.raises(ValueError, match="level nu="):
            interference_penalty(nu, alloc, 4.0, 1.0)
        numpy = interference_penalty(np.int64(1), alloc, 4.0, 1.0)
        assert numpy == interference_penalty(1, alloc, 4.0, 1.0)


def test_level_window_loglog_drift_is_bounded():
    # the log of a level's log-spread should track log log E; at desk scale
    # that holds for the strongest level of each allocation (the weakest
    # window of a multi-level allocation needs astronomically large budgets
    # before its drift settles, which is out of testable range)
    for kappa in (1, 2):
        e0 = min_valid_snr(kappa)
        grid = np.geomspace(e0 * 1e2, e0 * 1e12, 6)
        drift = [
            math.log(log_spread(allocation(e, kappa), 1)) - math.log(math.log(e))
            for e in grid
        ]
        assert max(drift) - min(drift) < 1.0


class TestSchemeRate:
    def test_scalar_case_matches_scalar_formula(self):
        topo = generate("full", 1, 1)
        model = FadingModel.iid_rayleigh(topo)
        _, chain = longest_chain(topo)
        report = scheme_rate_lower_bound(model, chain, 1e8)
        alloc = allocation(1e8, 1)
        direct = scalar_mi_lower_bound(
            alloc.levels[0][0], alloc.levels[0][1], 1.0, 1.0, -EULER_GAMMA
        )
        assert report.lower_bound == pytest.approx(direct, rel=1e-12)
        assert report.kappa == 1
        assert report.per_level_terms[0][1] == 0.0

    def test_two_level_report_structure(self):
        topo = generate("diagonal", 2)
        model = FadingModel.iid_rayleigh(topo)
        _, chain = longest_chain(topo)
        report = scheme_rate_lower_bound(model, chain, 1e10)
        assert report.kappa == 2
        assert report.loglog_term == pytest.approx(2 * math.log(math.log(1e10)), rel=1e-12)
        assert report.lower_bound == pytest.approx(
            sum(term for term, _ in report.per_level_terms), rel=1e-12
        )
        assert report.per_level_terms[1][1] == 0.0
        # level 2 reaches level 1's witness through the whole matrix's second
        # moment, 2 on diagonal:2
        x_max = report.alloc.levels[1][1]
        assert report.sigma_w[1] == 1.0
        assert report.sigma_w[0] == pytest.approx(math.sqrt(1.0 + 2.0 * x_max**2), rel=1e-12)

    def test_below_threshold_raises(self):
        topo = generate("diagonal", 2)
        model = FadingModel.iid_rayleigh(topo)
        _, chain = longest_chain(topo)
        with pytest.raises(AllocationInfeasibleError):
            scheme_rate_lower_bound(model, chain, 1e6)

    def test_empty_chain_raises(self):
        # the empty tuple is a power chain, but it carries no level
        model = FadingModel.iid_rayleigh(generate("diagonal", 2))
        with pytest.raises(ValueError, match="at least one member"):
            scheme_rate_lower_bound(model, PowerChain((), ()), 1e8)


def test_alpha_penalty():
    assert alpha_penalty(1.0) == 0.0
    assert alpha_penalty(0.05) > 0.0
    with pytest.raises(ValueError):
        alpha_penalty(0.0)


_ALLOC_1E8_2 = allocation(1e8, 2)
_NON_FINITE_ARGUMENTS = {
    "interference_penalty frob2": lambda v: interference_penalty(1, _ALLOC_1E8_2, v, 1.0),
    "interference_penalty eps2": lambda v: interference_penalty(1, _ALLOC_1E8_2, 4.0, v),
    "scalar_mi_lower_bound x_min": lambda v: scalar_mi_lower_bound(v, 100, 1, 1, 0),
    "scalar_mi_lower_bound x_max": lambda v: scalar_mi_lower_bound(10, v, 1, 1, 0),
    "scalar_mi_lower_bound sigma_h": lambda v: scalar_mi_lower_bound(10, 100, v, 1, 0),
    "scalar_mi_lower_bound sigma_w": lambda v: scalar_mi_lower_bound(10, 100, 1, v, 0),
    "scalar_mi_lower_bound e_log_h2": lambda v: scalar_mi_lower_bound(10, 100, 1, 1, v),
    "alpha_penalty": alpha_penalty,
    "log_h_squared_mean mean": lambda v: log_h_squared_mean(v, 1.0),
    "log_h_squared_mean variance": lambda v: log_h_squared_mean(0.0, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("argument", sorted(_NON_FINITE_ARGUMENTS))
def test_bound_helpers_reject_non_finite_arguments(argument, value):
    # each once returned nan or inf: NaN passes an "x <= 0" test
    with pytest.raises(ValueError):
        _NON_FINITE_ARGUMENTS[argument](value)


@pytest.mark.parametrize("mean", [True, "1"])
def test_log_h_squared_mean_rejects_bool_and_string_means(mean):
    # complex() parses both
    with pytest.raises(ValueError, match="mean"):
        log_h_squared_mean(mean, 1.0)


class TestDualityUpperBound:
    def test_frozen_scalar_value(self):
        topo = generate("full", 1, 1)
        model = FadingModel.iid_rayleigh(topo)
        assert duality_upper_bound(model, 1e8) == pytest.approx(
            3.8117156885835115, rel=1e-9
        )

    def test_tracks_loglog(self):
        topo = generate("full", 1, 1)
        model = FadingModel.iid_rayleigh(topo)
        gaps = [
            duality_upper_bound(model, e) - math.log(math.log(e))
            for e in (1e8, 1e10, 1e12, 1e14)
        ]
        assert max(gaps) - min(gaps) < 2.0

    def test_sits_above_scheme_rate(self):
        topo = generate("full", 1, 1)
        model = FadingModel.iid_rayleigh(topo)
        _, chain = longest_chain(topo)
        for e in (1e8, 1e12):
            lower = scheme_rate_lower_bound(model, chain, e).lower_bound
            assert duality_upper_bound(model, e) > lower

    def test_zero_budget_is_finite(self):
        topo = generate("full", 1, 1)
        model = FadingModel.iid_rayleigh(topo)
        assert math.isfinite(duality_upper_bound(model, 0.0))
        with pytest.raises(ValueError):
            duality_upper_bound(model, -1.0)

    def test_needs_dominant_transmitter(self):
        topo = generate("diagonal", 2)
        model = FadingModel.iid_rayleigh(topo)
        with pytest.raises(ValueError, match="heard by every receiver"):
            duality_upper_bound(model, 1e8)
        # but the receiver-1 block, plan's first phase, has one
        value = bounds._duality_phase(model, [1], [1, 2], 1).upper_bound(1e8)
        assert math.isfinite(value)

    @pytest.mark.parametrize("snr", [0.0, 1e8, 1e300])
    @pytest.mark.parametrize("rician", [False, True], ids=["iid", "rician"])
    @pytest.mark.parametrize("spec", ["full:1,1", "full:2,2", "full:3,2", "full:2,4"])
    def test_is_the_plan_of_a_full_network(self, spec, rician, snr):
        # a full network's identity decomposition is one phase led by
        # transmitter 1, with no cross-block MI, so the converse is this
        # bound plus log n_t!
        topo = generate(*_parse(spec))
        if rician:
            rng = np.random.default_rng(7)
            m = topo.n_t * topo.n_r
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            means = {pair: complex(*rng.standard_normal(2)) for pair in topo.nonzero_pairs()}
            model = FadingModel.from_mapping(topo, means=means, covariance=a @ a.conj().T / m + np.eye(m))
        else:
            model = FadingModel.iid_rayleigh(topo)
        expected = duality_upper_bound(model, snr) + math.lgamma(topo.n_t + 1)
        assert plan(model).upper_bound(snr) == pytest.approx(expected, rel=1e-12)

    def test_requires_pruned(self):
        unpruned = Topology(n_t=2, n_r=1, zeros=frozenset({(1, 2)}))
        model = FadingModel.iid_rayleigh(unpruned)
        with pytest.raises(ValueError, match="pruned"):
            duality_upper_bound(model, 1e8)


def two_phase_converse(model, snr, cross):
    """The converse of a two-transmitter network whose receiver 1 hears
    transmitter 1 and receiver 2 only transmitter 2, from its per-block
    pieces on explicit blocks: the duality bound of each phase of the
    identity ordering, the cross-block MI between them and log 2!."""
    return (
        bounds._duality_phase(model, [1], [1, 2], 1).upper_bound(snr)
        + bounds._duality_phase(model, [2], [2], 2).upper_bound(snr)
        + cross
        + math.log(2.0)
    )


class TestConverseEnvelope:
    def test_zero_budget_anchor(self):
        network = plan(FadingModel.iid_rayleigh(generate("diagonal", 2)))
        # log(1 + log(1 + 0)) = 0: the value is the phases, cross MIs and log n_t! alone
        constant = (
            sum(phase.upper_bound(0.0) for phase in network.phases)
            + sum(network.cross_block_mi)
            + network.log_permutation_count
        )
        assert network.upper_bound(0.0) == constant

    def test_defined_where_the_scheme_is_not(self, rician_z_channel):
        network = plan(rician_z_channel)
        assert not evaluate(network, 1e6).feasible
        for snr in (0.0, 1e6):
            assert math.isfinite(network.upper_bound(snr))

    def test_frozen_two_user_value(self):
        network = plan(FadingModel.iid_rayleigh(generate("diagonal", 2)))
        assert network.upper_bound(1e8) == pytest.approx(8.722043665838022, rel=1e-9)

    def test_full_network_coefficient_is_one(self):
        network = plan(FadingModel.iid_rayleigh(generate("full", 2, 2)))
        assert network.kappa_star == 1
        assert len(network.phases) == 1

    @pytest.mark.parametrize("spec", ["diagonal:2", "full:2,2", "wyner_cyclic:4"])
    def test_gap_to_loglog_is_bounded(self, spec):
        topo = generate(*_parse(spec))
        network = plan(FadingModel.iid_rayleigh(topo))
        kappa_star, _ = longest_chain(topo)
        gaps = [
            network.upper_bound(e) - kappa_star * math.log(math.log(e))
            for e in np.geomspace(1e8, 1e16, 5)
        ]
        assert max(gaps) - min(gaps) < 2.0

    def test_identity_decomposition_phases_match_duality(self):
        model = FadingModel.iid_rayleigh(generate("diagonal", 2))
        cross = block_mutual_information(model, [(1, 1)], [(2, 2)])
        assert cross == 0.0  # independent entries
        upper = two_phase_converse(model, 1e8, cross)
        assert plan(model).upper_bound(1e8) == pytest.approx(upper, rel=1e-12)


_FULL_1_1 = FadingModel.iid_rayleigh(generate("full", 1, 1))
_BUDGET_ENTRY_POINTS = {
    "allocation": lambda snr: allocation(snr, 1),
    "evaluate": lambda snr: evaluate(plan(_FULL_1_1), snr),
    "scheme_rate_lower_bound": lambda snr: scheme_rate_lower_bound(
        _FULL_1_1, longest_chain(_FULL_1_1.topo)[1], snr
    ),
    "Plan.upper_bound": lambda snr: plan(_FULL_1_1).upper_bound(snr),
    "duality_upper_bound": lambda snr: duality_upper_bound(_FULL_1_1, snr),
}


@pytest.mark.parametrize("snr", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(_BUDGET_ENTRY_POINTS))
def test_budget_must_be_finite_and_non_negative(entry, snr):
    with pytest.raises(ValueError) as err:
        _BUDGET_ENTRY_POINTS[entry](snr)
    assert type(err.value) is ValueError
    assert f"power budget {snr:g} " in str(err.value)


def test_zero_budget_has_no_scheme():
    # the converse is finite at E = 0 (TestConverseEnvelope::test_zero_budget_anchor)
    assert not evaluate(plan(_FULL_1_1), 0.0).feasible
    with pytest.raises(AllocationInfeasibleError):
        allocation(0.0, 1)


class TestPlan:
    @pytest.mark.parametrize("snr", [1e8, 1e12, 1e16])
    def test_evaluate_equals_the_public_bounds(self, rician_z_channel, snr):
        model = rician_z_channel
        _, chain = longest_chain(model.topo)
        report = evaluate(plan(model), snr)
        lower = scheme_rate_lower_bound(model, chain, snr)
        assert report.lower_bound == lower.lower_bound
        assert dataclasses.replace(report, upper_bound=None) == lower
        cross = block_mutual_information(model, [(1, 1), (1, 2)], [(2, 2)])
        assert cross > 0.0  # the correlated covariance couples the phases
        upper = two_phase_converse(model, snr, cross)
        assert report.upper_bound == pytest.approx(upper, rel=1e-12)

    def test_evaluate_below_threshold_is_infeasible(self, rician_z_channel):
        report = evaluate(plan(rician_z_channel), 1e6)
        assert not report.feasible
        assert (report.lower_bound, report.upper_bound, report.alloc) == (None, None, None)
        assert report.per_level_terms == ()
        assert report.loglog_term == pytest.approx(2 * math.log(math.log(1e6)), rel=1e-12)
        assert report.note == f"below feasibility threshold {min_valid_snr(2):.6g}"


def _assert_plan_levels_read_the_model(model):
    # each level's record holds the model's own statistics of its entries,
    # the witness entry first, in read-only arrays
    network = plan(model)
    chain = network.chain
    assert [level.nu for level in network.levels] == list(range(1, len(chain) + 1))
    for level in network.levels:
        nu, r = level.nu, level.witness
        assert (level.transmitter, r) == (chain.transmitters[nu - 1], chain.witnesses[nu - 1])
        heard = [
            eta
            for eta in range(nu + 1, len(chain) + 1)
            if (r, chain.transmitters[eta - 1]) not in model.topo.zeros
        ]
        assert level.interferers == tuple(heard)
        entries = [(r, level.transmitter)] + [(r, chain.transmitters[eta - 1]) for eta in heard]
        idx = [model.entry_index(*entry) for entry in entries]
        assert np.array_equal(level.mu, model.means[idx])
        assert np.array_equal(level.sigma, model.covariance[np.ix_(idx, idx)])
        assert not (level.mu.flags.writeable or level.sigma.flags.writeable)
        variance = model.entry_variance(*entries[0])
        assert level.sigma_h == math.sqrt(variance)
        assert level.e_log_h2 == log_h_squared_mean(model.entry_mean(*entries[0]), variance)
        # bitwise the model's conditional variance, also where nothing is
        # heard and the record takes the variance itself
        assert level.eps2.hex() == model.conditional_variance(entries[0], entries[1:]).hex()


def test_plan_levels_read_the_correlated_rician_model(rician_z_channel):
    _assert_plan_levels_read_the_model(rician_z_channel)
    # level 1's witness hears level 2 through a correlated entry
    level_1, level_2 = plan(rician_z_channel).levels
    assert level_1.interferers == (2,) and level_2.interferers == ()
    assert level_1.eps2 < level_1.sigma[0, 0].real


@st.composite
def _correlated_models(draw):
    n_t, n_r = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = [(r, t) for r in range(1, n_r + 1) for t in range(1, n_t + 1)]
    topo = prune(Topology(n_t=n_t, n_r=n_r, zeros=frozenset(draw(st.sets(st.sampled_from(cells))))))
    assume(not topo.is_empty)
    m = len(topo.nonzero_pairs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    # dense, or diagonal so that the levels' entries are independent
    cov = g @ g.conj().T / m + 0.5 * np.eye(m)
    if draw(st.booleans()):
        cov = np.diag(cov.diagonal().real)
    means = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * rng.integers(0, 2, m)
    return FadingModel(topo, means, cov)


@given(_correlated_models())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_plan_levels_read_the_model_on_random_topologies(model):
    _assert_plan_levels_read_the_model(model)


def _parse(spec):
    kind, _, rest = spec.partition(":")
    return (kind, *[int(p) for p in rest.split(",")])
