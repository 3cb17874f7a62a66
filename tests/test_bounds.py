import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import special

from fadenet import bounds
from fadenet.bounds import (
    AllocationInfeasibleError,
    PowerAllocation,
    allocation,
    alpha_penalty,
    converse_envelope,
    converse_envelope_report,
    duality_upper_bound,
    effective_noise_variance,
    evaluate,
    interference_penalty,
    min_valid_snr,
    plan,
    scalar_mi_lower_bound,
    scheme_rate_lower_bound,
)
from fadenet.fading import FadingModel
from fadenet.powerchain import longest_chain
from fadenet.topology import Topology, generate

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
            for ratio in alloc.separation_ratios():
                assert ratio == pytest.approx(math.log(snr) ** 2, rel=1e-9)

    def test_log_spread_overflow_safe(self):
        alloc = allocation(1e300, 1)
        # squaring x_max would overflow; the log spread must not
        spread = alloc.log_spread(1)
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
        with pytest.raises(ValueError):
            PowerAllocation(snr_budget=-1.0, levels=())


def test_effective_noise_variance():
    alloc = allocation(1e8, 2)
    assert effective_noise_variance(2, alloc, 4.0) == 1.0
    assert effective_noise_variance(1, alloc, 4.0) == pytest.approx(4.00000001e8, rel=1e-12)
    big = allocation(1e22, 3)
    values = [effective_noise_variance(nu, big, 2.0) for nu in (1, 2, 3)]
    assert values[0] >= values[1] >= values[2] == 1.0
    with pytest.raises(ValueError):
        effective_noise_variance(0, alloc, 4.0)
    with pytest.raises(ValueError):
        effective_noise_variance(1, alloc, 0.0)


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


def test_level_window_loglog_drift_is_bounded():
    # the log of a level's log-spread should track log log E; at desk scale
    # that holds for the strongest level of each allocation (the weakest
    # window of a multi-level allocation needs astronomically large budgets
    # before its drift settles, which is out of testable range)
    for kappa in (1, 2):
        e0 = min_valid_snr(kappa)
        grid = np.geomspace(e0 * 1e2, e0 * 1e12, 6)
        drift = [
            math.log(allocation(e, kappa).log_spread(1)) - math.log(math.log(e))
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
        assert report.constants["frob_second_moment"] == pytest.approx(2.0)
        # report serializes cleanly
        json.dumps(report.to_json_dict())

    def test_below_threshold_raises(self):
        topo = generate("diagonal", 2)
        model = FadingModel.iid_rayleigh(topo)
        _, chain = longest_chain(topo)
        with pytest.raises(AllocationInfeasibleError):
            scheme_rate_lower_bound(model, chain, 1e6)


def test_alpha_penalty():
    assert alpha_penalty(1.0) == 0.0
    assert alpha_penalty(0.05) > 0.0
    with pytest.raises(ValueError):
        alpha_penalty(0.0)


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
        # but the receiver-1 block has one
        value = duality_upper_bound(model, 1e8, t_star=1, receivers=[1], transmitters=[1, 2])
        assert math.isfinite(value)
        with pytest.raises(ValueError):
            duality_upper_bound(model, 1e8, t_star=1, receivers=[1, 2])

    def test_requires_pruned(self):
        unpruned = Topology(n_t=2, n_r=1, zeros=frozenset({(1, 2)}))
        model = FadingModel.iid_rayleigh(unpruned)
        with pytest.raises(ValueError, match="pruned"):
            duality_upper_bound(model, 1e8)


class TestConverseEnvelope:
    def test_zero_budget_anchor(self):
        topo = generate("diagonal", 2)
        model = FadingModel.iid_rayleigh(topo)
        report = converse_envelope_report(model, 0.0)
        assert report["loglog_term"] == 0.0
        assert report["value"] == report["constant"]

    def test_frozen_two_user_value(self):
        topo = generate("diagonal", 2)
        model = FadingModel.iid_rayleigh(topo)
        assert converse_envelope(model, 1e8) == pytest.approx(
            8.722043665838022, rel=1e-9
        )

    def test_full_network_coefficient_is_one(self):
        topo = generate("full", 2, 2)
        model = FadingModel.iid_rayleigh(topo)
        report = converse_envelope_report(model, 1e10)
        assert report["kappa_star"] == 1
        assert len(report["per_phase_upper"]) == 1

    @pytest.mark.parametrize("spec", ["diagonal:2", "full:2,2", "wyner_cyclic:4"])
    def test_gap_to_loglog_is_bounded(self, spec):
        topo = generate(*_parse(spec))
        model = FadingModel.iid_rayleigh(topo)
        kappa_star, _ = longest_chain(topo)
        gaps = [
            converse_envelope(model, e) - kappa_star * math.log(math.log(e))
            for e in np.geomspace(1e8, 1e16, 5)
        ]
        assert max(gaps) - min(gaps) < 2.0

    def test_identity_decomposition_phases_match_duality(self):
        topo = generate("diagonal", 2)
        model = FadingModel.iid_rayleigh(topo)
        report = converse_envelope_report(model, 1e8)
        phase1 = duality_upper_bound(model, 1e8, t_star=1, receivers=[1], transmitters=[1, 2])
        phase2 = duality_upper_bound(model, 1e8, t_star=2, receivers=[2], transmitters=[2])
        assert report["per_phase_upper"][0] == pytest.approx(phase1, rel=1e-12)
        assert report["per_phase_upper"][1] == pytest.approx(phase2, rel=1e-12)
        assert report["cross_block_mi"] == [0.0]
        assert report["log_permutation_count"] == pytest.approx(math.log(2.0), rel=1e-12)


class TestPlan:
    @pytest.fixture
    def z_channel(self):
        # receiver 1 hears both transmitters, receiver 2 only the second;
        # entries in sorted order: (1, 1), (1, 2), (2, 2).  Rician means and
        # a correlated covariance reach eps2, the duality phases and the
        # cross-block MI
        topo = Topology(n_t=2, n_r=2, zeros=frozenset({(2, 1)}))
        cov = np.array(
            [[1.0, 0.3 + 0.1j, 0.2], [0.3 - 0.1j, 1.5, 0.1 + 0.2j], [0.2, 0.1 - 0.2j, 1.0]]
        )
        means = {(1, 1): 1.0 + 0.5j, (1, 2): 0.3 - 0.2j, (2, 2): -0.8j}
        return FadingModel.from_mapping(topo, means=means, covariance=cov)

    @pytest.mark.parametrize("snr", [1e8, 1e12, 1e16])
    def test_evaluate_equals_the_public_bounds(self, z_channel, snr):
        model = z_channel
        _, chain = longest_chain(model.topo)
        report = evaluate(plan(model), snr)
        lower = scheme_rate_lower_bound(model, chain, snr)
        assert report.lower_bound == lower.lower_bound
        assert report.upper_bound == converse_envelope(model, snr)
        assert dataclasses.replace(report, upper_bound=None) == lower
        assert converse_envelope_report(model, snr)["cross_block_mi"][0] > 0.0

    def test_evaluate_below_threshold_is_infeasible(self, z_channel):
        report = evaluate(plan(z_channel), 1e6)
        assert not report.feasible
        assert (report.lower_bound, report.upper_bound, report.alloc) == (None, None, None)
        assert report.per_level_terms == ()
        assert report.loglog_term == pytest.approx(2 * math.log(math.log(1e6)), rel=1e-12)
        assert report.note == f"below feasibility threshold {min_valid_snr(2):.6g}"
        assert list(report.to_json_dict()) == [
            "snr", "kappa", "loglog_term", "lower_bound", "upper_bound", "feasible", "note"
        ]


def _parse(spec):
    kind, _, rest = spec.partition(":")
    return (kind, *[int(p) for p in rest.split(",")])
