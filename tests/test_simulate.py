import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import i0e
from scipy.stats import kstest

from fadenet import simulate
from fadenet.bounds import allocation, scalar_mi_lower_bound
from fadenet.fading import FadingModel, _standard_complex, log_h_squared_mean
from fadenet.powerchain import PowerChain, longest_chain
from fadenet.simulate import (
    SweepRecord,
    estimate_pair_mi,
    fit_loglog_slope,
    records_to_csv,
    records_to_json,
    snr_sweep,
)
from fadenet.topology import Topology, generate, prune


@pytest.fixture
def scalar_setup():
    topo = generate("full", 1, 1)
    model = FadingModel.iid_rayleigh(topo)
    _, chain = longest_chain(topo)
    return topo, model, chain


class TestInputLaw:
    """The law every level input is drawn from, as the estimator draws it:
    log|x| uniform on the level's window, phase uniform."""

    def test_magnitudes_stay_in_window(self):
        rng = np.random.default_rng(11)
        for x_min, x_max in allocation(1e8, 2).levels:
            mags = np.abs(simulate._level_inputs(rng, x_min, x_max, 400))
            assert np.all(mags >= x_min * (1 - 1e-12))
            assert np.all(mags <= x_max * (1 + 1e-12))

    def test_log_power_is_uniform_on_window(self):
        x_min, x_max = allocation(1e8, 1).levels[0]
        x = simulate._level_inputs(np.random.default_rng(7), x_min, x_max, 100_000)
        log_pow = np.log(np.abs(x) ** 2)
        lo, hi = 2 * math.log(x_min), 2 * math.log(x_max)
        # mean of a uniform on [lo, hi], 4 sigma band
        tol = 4 * (hi - lo) / math.sqrt(12 * len(log_pow))
        assert abs(log_pow.mean() - 0.5 * (lo + hi)) < tol
        assert np.all(log_pow >= lo - 1e-9)
        assert np.all(log_pow <= hi + 1e-9)
        assert kstest((log_pow - lo) / (hi - lo), "uniform").pvalue > 1e-3

    def test_phase_is_uniform(self):
        x_min, x_max = allocation(1e8, 1).levels[0]
        x = simulate._level_inputs(np.random.default_rng(19), x_min, x_max, 40_000)
        resultant = np.mean(x / np.abs(x))
        assert abs(resultant) < 3 / math.sqrt(len(x))
        assert kstest(np.angle(x) / (2 * math.pi) + 0.5, "uniform").pvalue > 1e-3

    def test_seed_determinism(self):
        x_min, x_max = allocation(1e8, 2).levels[1]

        def draw(seed):
            return simulate._level_inputs(np.random.default_rng(seed), x_min, x_max, (10, 3))

        assert draw(5).shape == (10, 3)
        assert np.array_equal(draw(5), draw(5))
        assert not np.array_equal(draw(5), draw(6))


def _two_point_magnitude_mi(a: float, b: float) -> float:
    """Exact I(X;Y) for Y = hX + Z, h ~ CN(0,1), |X| in {a, b} equiprobable.

    Given |X| = m the output is CN(0, 1 + m^2), so the channel is a mixture
    of two circular Gaussians and both entropies reduce to 1-d integrals over
    s = |y|^2.
    """
    va, vb = 1.0 + a * a, 1.0 + b * b

    def density(s):
        return 0.5 * (math.exp(-s / va) / (math.pi * va) + math.exp(-s / vb) / (math.pi * vb))

    def integrand(s):
        g = density(s)
        if g == 0.0:  # underflow far in the tail; g*log(g) -> 0 there
            return 0.0
        return math.pi * g * math.log(g)

    h_y = -quad(integrand, 0.0, np.inf, limit=200)[0]
    h_y_given_x = 0.5 * (math.log(math.pi * math.e * va) + math.log(math.pi * math.e * vb))
    return h_y - h_y_given_x


class TestEstimatePairMi:
    def test_sample_count_floor(self, scalar_setup):
        topo, model, chain = scalar_setup
        alloc = allocation(1e8, 1)
        with pytest.raises(ValueError, match="at least"):
            estimate_pair_mi(model, chain, alloc, 1, 50, 200, seed=0)
        with pytest.raises(ValueError, match="at least"):
            estimate_pair_mi(model, chain, alloc, 1, 200, 50, seed=0)

    def test_level_and_alloc_validation(self, scalar_setup):
        topo, model, chain = scalar_setup
        with pytest.raises(ValueError, match="differ"):
            estimate_pair_mi(model, chain, allocation(1e8, 2), 1, 200, 200, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            estimate_pair_mi(model, chain, allocation(1e8, 1), 2, 200, 200, seed=0)
        # transmitter 2 reaches witness 1 after transmitter 1 already did, so
        # a stronger member would be heard at level 2's witness
        z = Topology(n_t=2, n_r=2, zeros=frozenset({(2, 1)}))
        with pytest.raises(ValueError, match="newly reached"):
            estimate_pair_mi(
                FadingModel.iid_rayleigh(z),
                PowerChain((1, 2), (1, 1)),
                allocation(1e12, 2),
                2,
                200,
                200,
                seed=0,
            )

    def test_constant_magnitude_gives_zero(self, scalar_setup):
        # zero-mean fading with a fixed input magnitude: the output law does
        # not depend on the input at all, so the true MI is exactly zero
        topo, model, chain = scalar_setup
        est = estimate_pair_mi(
            model,
            chain,
            allocation(1e8, 1),
            1,
            2000,
            200,
            seed=101,
            magnitude_sampler=lambda rng, shape: np.full(shape, 300.0),
        )
        assert abs(est.value) <= max(2 * est.stderr, 1e-9)

    def test_two_point_magnitude_matches_quadrature(self, scalar_setup):
        topo, model, chain = scalar_setup
        target = _two_point_magnitude_mi(1.0, 30.0)

        def sampler(rng, shape):
            return rng.choice([1.0, 30.0], size=shape)

        est = estimate_pair_mi(
            model,
            chain,
            allocation(1e8, 1),
            1,
            4000,
            400,
            seed=77,
            magnitude_sampler=sampler,
        )
        assert est.stderr < 0.1
        assert abs(est.value - target) < 4 * est.stderr

    def test_estimate_clears_analytic_floor(self, scalar_setup):
        topo, model, chain = scalar_setup
        alloc = allocation(1e8, 1)
        est = estimate_pair_mi(model, chain, alloc, 1, 3000, 300, seed=13)
        x_min, x_max = alloc.levels[0]
        floor = scalar_mi_lower_bound(x_min, x_max, 1.0, 1.0, log_h_squared_mean(0.0, 1.0))
        assert est.value > floor - 3 * est.stderr

    def test_stderr_scales_as_root_n(self, scalar_setup):
        topo, model, chain = scalar_setup
        alloc = allocation(1e8, 1)
        small = estimate_pair_mi(model, chain, alloc, 1, 1600, 150, seed=29)
        large = estimate_pair_mi(model, chain, alloc, 1, 6400, 150, seed=29)
        assert 0.35 < large.stderr / small.stderr < 0.65

    def test_interference_path_runs(self):
        # in a linear chain the witness of an early level hears later levels,
        # so the estimator has to marginalize a genuine interferer
        topo = generate("wyner_linear", 3)
        model = FadingModel.iid_rayleigh(topo)
        kappa, chain = longest_chain(topo)
        assert kappa == 3
        alloc = allocation(1e22, 3)
        d_per_level = []
        for nu in range(1, 4):
            r = chain.witnesses[nu - 1]
            heard = [
                eta
                for eta in range(nu + 1, 4)
                if (r, chain.transmitters[eta - 1]) not in topo.zeros
            ]
            d_per_level.append(len(heard))
            est = estimate_pair_mi(model, chain, alloc, nu, 400, 120, seed=nu)
            assert math.isfinite(est.value)
            assert est.stderr > 0.0
        assert max(d_per_level) > 0

    def test_seed_changes_estimate(self, scalar_setup):
        topo, model, chain = scalar_setup
        alloc = allocation(1e8, 1)
        a = estimate_pair_mi(model, chain, alloc, 1, 300, 120, seed=1)
        b = estimate_pair_mi(model, chain, alloc, 1, 300, 120, seed=1)
        c = estimate_pair_mi(model, chain, alloc, 1, 300, 120, seed=2)
        assert a == b
        assert a != c


def _log_uniform_sampler(x_lo, x_hi):
    # the layered scheme's own magnitude law, handed in as a custom sampler
    # so that the estimator takes its nested mixture path
    def sampler(rng, shape):
        return np.exp(rng.uniform(math.log(x_lo), math.log(x_hi), size=shape))

    return sampler


class TestMagnitudeQuadrature:
    @pytest.fixture(params=["iid", "rician"])
    def pair_model(self, request):
        topo = generate("diagonal", 2)
        if request.param == "iid":
            model = FadingModel.iid_rayleigh(topo)
        else:
            model = FadingModel.from_mapping(topo, means={(1, 1): 1.0 + 0.5j, (2, 2): -0.8j})
        _, chain = longest_chain(topo)
        return model, chain

    @pytest.mark.parametrize("snr", [1e8, 1e12, 1e16])
    def test_matches_nested_oracle(self, pair_model, snr):
        model, chain = pair_model
        alloc = allocation(snr, 2)
        for nu in (1, 2):
            quadrature = estimate_pair_mi(model, chain, alloc, nu, 2000, 2000, seed=nu)
            nested = estimate_pair_mi(
                model,
                chain,
                alloc,
                nu,
                2000,
                1000,
                seed=10 + nu,
                magnitude_sampler=_log_uniform_sampler(*alloc.levels[nu - 1]),
            )
            tol = 3 * math.hypot(quadrature.stderr, nested.stderr)
            assert abs(quadrature.value - nested.value) < tol, (nu, quadrature, nested)

    def test_draws_no_inner_randomness(self, pair_model):
        model, chain = pair_model
        alloc = allocation(1e12, 2)
        for nu in (1, 2):
            few = estimate_pair_mi(model, chain, alloc, nu, 500, 200, seed=3)
            many = estimate_pair_mi(model, chain, alloc, nu, 500, 2000, seed=3)
            assert few == many

    def test_converged_in_nodes_per_panel(self, pair_model, monkeypatch):
        model, chain = pair_model
        for snr in (1e8, 1e16):
            alloc = allocation(snr, 2)
            for nu in (1, 2):
                base = estimate_pair_mi(model, chain, alloc, nu, 500, 200, seed=4)
                with monkeypatch.context() as patch:
                    patch.setattr(simulate, "_GL_NODES_PER_PANEL", 2 * simulate._GL_NODES_PER_PANEL)
                    fine = estimate_pair_mi(model, chain, alloc, nu, 500, 200, seed=4)
                assert abs(fine.value - base.value) < 1e-6

    @pytest.mark.parametrize("mean", [10.0 * math.sqrt(10.0), 100.0])
    def test_resolves_strong_line_of_sight(self, scalar_setup, mean, monkeypatch):
        # Rician K = |mu|^2 / eps2 of 1e3 and 1e4: the peak in log|x| is about
        # 1 / sqrt(K) wide, far narrower than the default panel
        topo, _, chain = scalar_setup
        model = FadingModel.from_mapping(topo, means={(1, 1): mean})
        for snr in (1e8, 1e16):
            alloc = allocation(snr, 1)
            base = estimate_pair_mi(model, chain, alloc, 1, 100, 100, seed=6)
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_GL_NODES_PER_PANEL", 64)
                fine = estimate_pair_mi(model, chain, alloc, 1, 100, 100, seed=6)
            assert abs(fine.value - base.value) < 1e-6, (snr, base, fine)


class TestOutputLaw:
    def test_matches_sampled_fading(self):
        # the correlated Rician block (1, 1), (1, 2) of a Z-channel: fading
        # drawn through the Cholesky factor of its covariance, inputs fixed
        mu = np.array([1.0 + 0.5j, 0.3 - 0.2j])
        sigma = np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.5]])
        w = np.array([2.0 * np.exp(1.1j), 3.0 * np.exp(-0.4j)])
        mean, var = simulate._output_law(mu, sigma, w)

        rng = np.random.default_rng(2024)
        n = 200_000
        h = mu + _standard_complex(rng, (n, 2)) @ np.linalg.cholesky(sigma).T
        y = h @ w + _standard_complex(rng, (n,))
        power = np.abs(y - mean) ** 2
        # complex-normal y: each of the two real parts has variance var / 2,
        # and |y - mean|^2 is exponential with standard deviation var
        assert abs(y.mean() - mean) < 5 * math.sqrt(var / n)
        assert abs(power.mean() - var) < 5 * power.std() / math.sqrt(n)
        # w^H sigma w would give 19.95 here, and a dropped mean is far off
        wrong_var = 1.0 + (w.conj() @ sigma @ w).real
        assert abs(power.mean() - wrong_var) > 20 * power.std() / math.sqrt(n)
        assert abs(y.mean()) > 20 * math.sqrt(var / n)


def _z_channel() -> Topology:
    # kappa* = 2; level 1's witness (receiver 1) also hears level 2's
    # transmitter, so level 1 has d = 1 and level 2 has d = 0
    return Topology(n_t=2, n_r=2, zeros=frozenset({(2, 1)}))


class TestInterfererQuadrature:
    @pytest.fixture(
        params=["iid", "witness_rician", "comparable_interferer", "loud_interferer"]
    )
    def z_model(self, request):
        topo = _z_channel()
        if request.param == "iid":
            model = FadingModel.iid_rayleigh(topo)
        elif request.param == "witness_rician":
            model = FadingModel.from_mapping(topo, means={(1, 1): 1.0 + 0.5j, (2, 2): -0.8j})
        elif request.param == "comparable_interferer":
            # entries in sorted order: (1, 1), (1, 2), (2, 2).  With unit
            # variances the interferer at level 1's witness is weaker than
            # the target's own fading noise by about (log E)^2; here the two
            # are comparable, and at E = 1e16 the interferer axis takes
            # several panels
            model = FadingModel.from_mapping(topo, covariance=np.diag([1.0, 1e3, 1.0]))
        else:
            # interference far louder than the target's fading noise: the
            # nested oracle's components carry the interferer's spread in
            # their variance, so a few hundred inner draws still cover it
            model = FadingModel.from_mapping(topo, covariance=np.diag([1.0, 1e6, 1.0]))
        _, chain = longest_chain(topo)
        assert chain == PowerChain(transmitters=(1, 2), witnesses=(1, 2))
        return model, chain

    @pytest.mark.parametrize("snr", [1e8, 1e12, 1e16])
    def test_matches_nested_oracle(self, z_model, snr):
        model, chain = z_model
        alloc = allocation(snr, 2)
        for nu in (1, 2):
            quadrature = estimate_pair_mi(model, chain, alloc, nu, 1000, 200, seed=nu)
            nested = estimate_pair_mi(
                model,
                chain,
                alloc,
                nu,
                1000,
                500,
                seed=10 + nu,
                magnitude_sampler=_log_uniform_sampler(*alloc.levels[nu - 1]),
            )
            tol = 3 * math.hypot(quadrature.stderr, nested.stderr)
            assert abs(quadrature.value - nested.value) < tol, (nu, quadrature, nested)

    def test_draws_no_inner_randomness(self, z_model):
        model, chain = z_model
        alloc = allocation(1e12, 2)
        for nu in (1, 2):
            few = estimate_pair_mi(model, chain, alloc, nu, 500, 200, seed=3)
            many = estimate_pair_mi(model, chain, alloc, nu, 500, 2000, seed=3)
            assert few == many

    def test_converged_in_nodes_per_panel(self, z_model, monkeypatch):
        # one constant sets the nodes per panel on both axes
        model, chain = z_model
        for snr in (1e8, 1e16):
            alloc = allocation(snr, 2)
            for nu in (1, 2):
                base = estimate_pair_mi(model, chain, alloc, nu, 300, 200, seed=4)
                with monkeypatch.context() as patch:
                    patch.setattr(simulate, "_GL_NODES_PER_PANEL", 2 * simulate._GL_NODES_PER_PANEL)
                    fine = estimate_pair_mi(model, chain, alloc, nu, 300, 200, seed=4)
                assert abs(fine.value - base.value) < 1e-6

    @pytest.mark.parametrize("mu", [0j, 1.0 + 0.5j])
    @pytest.mark.parametrize("sigma2", [1.0, 1e6])
    def test_densities_match_adaptive_quadrature(self, mu, sigma2):
        # both log densities against scipy's adaptive rules applied to the
        # phase-averaged Gaussian density; sigma2 = 1e6 makes the interferer
        # dominate and spreads its axis over several panels
        (x_lo, x_hi), xi_window = allocation(1e16, 2).levels
        s_lo, s_hi = math.log(x_lo), math.log(x_hi)
        t_lo, t_hi = (math.log(v) for v in xi_window)
        rule = simulate._magnitude_quadrature(mu, 1.0, x_lo, x_hi, sigma2, xi_window)

        for a in (x_lo, math.sqrt(x_lo * x_hi), 0.5 * x_hi):
            y = np.array([a * np.exp(0.3j)])
            x = np.array([0.7 * a * np.exp(1.1j)])

            def conditional(t):
                v = 1.0 + abs(x[0]) ** 2 + sigma2 * math.exp(2 * t)
                return math.exp(-abs(y[0] - mu * x[0]) ** 2 / v) / (math.pi * v)

            def marginal(t, s):
                r = math.exp(s)
                v = 1.0 + r * r + sigma2 * math.exp(2 * t)
                z = 2 * abs(mu) * r * a / v
                return math.exp(-((a - abs(mu) * r) ** 2) / v) * i0e(z) / (math.pi * v)

            cond = quad(conditional, t_lo, t_hi, epsabs=0, epsrel=1e-12)[0] / (t_hi - t_lo)
            marg = dblquad(marginal, s_lo, s_hi, t_lo, t_hi, epsabs=0, epsrel=1e-10)[0]
            marg /= (s_hi - s_lo) * (t_hi - t_lo)
            assert rule.log_conditional(y, x)[0] == pytest.approx(math.log(cond), abs=1e-8)
            assert rule.log_marginal(y)[0] == pytest.approx(math.log(marg), abs=1e-8)

    @pytest.mark.parametrize("dependence", ["interferer_mean", "witness_interferer_covariance"])
    def test_dependent_interferer_stays_nested(self, dependence):
        topo = _z_channel()
        if dependence == "interferer_mean":
            model = FadingModel.from_mapping(topo, means={(1, 2): 0.5})
        else:
            # entries in sorted order: (1, 1), (1, 2), (2, 2)
            covariance = np.eye(3, dtype=complex)
            covariance[0, 1] = covariance[1, 0] = 0.3
            model = FadingModel.from_mapping(topo, covariance=covariance)
        _, chain = longest_chain(topo)
        alloc = allocation(1e8, 2)
        few = estimate_pair_mi(model, chain, alloc, 1, 200, 100, seed=3)
        more = estimate_pair_mi(model, chain, alloc, 1, 200, 120, seed=3)
        assert few != more

    def test_nested_blocks_fit_the_element_budget(self, monkeypatch):
        # an interferer mean puts level 1 on the nested path, where a block
        # of outer rows draws rows x m_inner inner inputs at once
        topo = _z_channel()
        model = FadingModel.from_mapping(topo, means={(1, 2): 0.5})
        _, chain = longest_chain(topo)
        shapes = []
        draw = simulate._level_inputs

        def recording(rng, x_min, x_max, shape):
            shapes.append(shape)
            return draw(rng, x_min, x_max, shape)

        monkeypatch.setattr(simulate, "_level_inputs", recording)
        estimate_pair_mi(model, chain, allocation(1e12, 2), 1, 100, 20_000, seed=3)
        assert max(math.prod(shape) for shape in shapes) <= simulate._BLOCK_ELEMENTS

    def test_two_interferers_stay_nested(self):
        # lower-triangular 3x3: level 1's witness hears both weaker members
        topo = Topology(n_t=3, n_r=3, zeros=frozenset({(2, 1), (3, 1), (3, 2)}))
        model = FadingModel.iid_rayleigh(topo)
        _, chain = longest_chain(topo)
        assert chain == PowerChain(transmitters=(1, 2, 3), witnesses=(1, 2, 3))
        alloc = allocation(1e22, 3)
        few = estimate_pair_mi(model, chain, alloc, 1, 200, 100, seed=3)
        more = estimate_pair_mi(model, chain, alloc, 1, 200, 120, seed=3)
        assert math.isfinite(few.value) and few != more


class TestSnrSweep:
    @pytest.fixture
    def pair_network(self):
        return FadingModel.iid_rayleigh(generate("diagonal", 2))

    def test_worker_count_never_changes_bytes(self, pair_network):
        model = pair_network
        grid = [1e5, 1e8, 1e10]
        serial = snr_sweep(model, grid, 400, 120, seed=77, workers=1)
        pooled = snr_sweep(model, grid, 400, 120, seed=77, workers=4)
        assert records_to_csv(serial) == records_to_csv(pooled)

    def test_infeasible_point_is_isolated(self, pair_network):
        model = pair_network
        records = snr_sweep(model, [1e5, 1e8], 400, 120, seed=3)
        assert not records[0].feasible
        assert records[0].mc_estimate is None
        assert records[0].note.startswith("below feasibility threshold")
        assert records[1].feasible
        assert records[1].note is None

    def test_estimates_sit_between_bounds(self, pair_network):
        model = pair_network
        (rec,) = snr_sweep(model, [1e8], 600, 150, seed=21)
        assert rec.mc_estimate > rec.analytic_lower - 3 * rec.mc_stderr
        assert rec.mc_estimate < rec.analytic_upper + 3 * rec.mc_stderr

    def test_input_validation(self, pair_network):
        model = pair_network
        unpruned = Topology(n_t=2, n_r=1, zeros=frozenset({(1, 2)}))
        with pytest.raises(ValueError, match="pruned"):
            snr_sweep(FadingModel.iid_rayleigh(unpruned), [1e8], 400, 120, seed=0)
        with pytest.raises(ValueError, match="increasing"):
            snr_sweep(model, [1e8, 1e8], 400, 120, seed=0)
        with pytest.raises(ValueError, match="positive"):
            snr_sweep(model, [-1e8], 400, 120, seed=0)
        with pytest.raises(ValueError, match="empty"):
            snr_sweep(model, [], 400, 120, seed=0)
        with pytest.raises(ValueError, match="seed"):
            snr_sweep(model, [1e8], 400, 120, seed=-1)
        with pytest.raises(ValueError, match="workers"):
            snr_sweep(model, [1e8], 400, 120, seed=0, workers=0)
        # sample counts are checked even when no grid point is feasible
        with pytest.raises(ValueError, match="need at least 100"):
            snr_sweep(model, [1e5], 50, 120, seed=0)


def _fake_record(snr, mc, feasible=True):
    loglog = math.log(math.log(snr))
    return SweepRecord(
        snr=snr,
        kappa_star=1,
        loglog_term=loglog if feasible else None,
        analytic_lower=mc - 1.0 if feasible else None,
        mc_estimate=mc if feasible else None,
        mc_stderr=0.01 if feasible else None,
        analytic_upper=mc + 1.0 if feasible else None,
        n_outer=100,
        m_inner=100,
        seed=0,
        feasible=feasible,
        note=None if feasible else "below feasibility threshold 1",
    )


class TestSerialization:
    def test_csv_exact_bytes(self):
        records = [_fake_record(1e8, 2.5), _fake_record(10.0, 0.0, feasible=False)]
        got = records_to_csv(records)
        expected = (
            "E,kappa_star,loglog,lower,mc,mc_stderr,upper,feasible\n"
            "100000000.0,1,2.9134739869277917,1.5,2.5,0.01,3.5,true\n"
            "10.0,1,,,,,,false\n"
        )
        assert got == expected

    def test_json_round_trip(self):
        records = [_fake_record(1e8, 2.5), _fake_record(10.0, 0.0, feasible=False)]
        parsed = json.loads(records_to_json(records))
        assert parsed[0]["mc_estimate"] == 2.5
        assert parsed[1]["mc_estimate"] is None
        assert parsed[1]["feasible"] is False
        assert parsed[1]["note"].startswith("below feasibility")


class TestFitLoglogSlope:
    def test_exact_line(self):
        records = [
            _fake_record(e, 3.0 * math.log(math.log(e)) + 5.0)
            for e in np.geomspace(1e8, 1e16, 5)
        ]
        slope, intercept, resid = fit_loglog_slope(records)
        assert slope == pytest.approx(3.0, abs=1e-9)
        assert intercept == pytest.approx(5.0, abs=1e-9)
        assert resid < 1e-9

    def test_perturbed_line(self):
        bumps = [0.05, -0.04, 0.03, -0.05, 0.02]
        records = [
            _fake_record(e, 2.0 * math.log(math.log(e)) + 1.0 + b)
            for e, b in zip(np.geomspace(1e8, 1e16, 5), bumps)
        ]
        slope, _, resid = fit_loglog_slope(records)
        assert abs(slope - 2.0) < 0.15
        assert resid < 0.06

    def test_skips_infeasible(self):
        records = [_fake_record(1e2, 0.0, feasible=False)] + [
            _fake_record(e, math.log(math.log(e))) for e in (1e8, 1e10, 1e12)
        ]
        slope, _, _ = fit_loglog_slope(records)
        assert slope == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points(self):
        records = [_fake_record(e, 1.0) for e in (1e8, 1e10)]
        with pytest.raises(ValueError, match="at least 3"):
            fit_loglog_slope(records)

    def test_degenerate_grid(self):
        records = [_fake_record(1e8, 1.0) for _ in range(3)]
        with pytest.raises(ValueError, match="slope undefined"):
            fit_loglog_slope(records)

    def test_fits_named_bound(self):
        records = [
            _fake_record(e, 3.0 * math.log(math.log(e)) + 5.0)
            for e in np.geomspace(1e8, 1e16, 5)
        ]
        slope, intercept, _ = fit_loglog_slope(records, field="analytic_lower")
        assert slope == pytest.approx(3.0, abs=1e-9)
        assert intercept == pytest.approx(4.0, abs=1e-9)
        with pytest.raises(ValueError, match="cannot fit"):
            fit_loglog_slope(records, field="snr")


@st.composite
def _small_pruned_topologies(draw):
    n_t = draw(st.integers(1, 4))
    n_r = draw(st.integers(1, 4))
    cells = [(r, t) for r in range(1, n_r + 1) for t in range(1, n_t + 1)]
    zeros = draw(st.sets(st.sampled_from(cells)))
    topo = prune(Topology(n_t=n_t, n_r=n_r, zeros=frozenset(zeros))).topology
    assume(not topo.is_empty and longest_chain(topo)[0] <= 2)
    return topo


@given(_small_pruned_topologies())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_estimate_sits_between_bounds_on_random_topologies(topo):
    model = FadingModel.iid_rayleigh(topo)
    for rec in snr_sweep(model, [1e8, 1e12, 1e16], 400, 100, seed=1):
        assert rec.feasible
        assert rec.analytic_lower <= rec.mc_estimate + 3 * rec.mc_stderr, rec
        assert rec.mc_estimate - 3 * rec.mc_stderr <= rec.analytic_upper, rec
