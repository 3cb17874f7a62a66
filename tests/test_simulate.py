import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import expi, i0e, logsumexp
from scipy.stats import ks_2samp, kstest

from fadenet import cli, simulate
from fadenet.bounds import _chain_level, allocation, plan, scalar_mi_lower_bound
from fadenet.fading import FadingModel, _standard_complex, log_h_squared_mean
from fadenet.powerchain import PowerChain, longest_chain
from fadenet.simulate import (
    SweepRecord,
    estimate_pair_mi,
    fit_loglog_slope,
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

    @pytest.mark.parametrize("name, value", [
        ("nu", True), ("nu", 1.0), ("nu", "1"),
        ("n_outer", True), ("n_outer", 1000.0), ("n_outer", "200"),
        ("m_inner", True), ("m_inner", 150.5), ("m_inner", "200"),
    ])
    def test_integer_arguments(self, scalar_setup, name, value):
        _, model, chain = scalar_setup
        kwargs = {"nu": 1, "n_outer": 200, "m_inner": 200, name: value}
        with pytest.raises(ValueError, match=f"{name}[= ]"):
            estimate_pair_mi(model, chain, allocation(1e8, 1), seed=0, **kwargs)

    def test_numpy_integer_arguments_are_accepted(self, scalar_setup):
        _, model, chain = scalar_setup
        alloc = allocation(1e8, 1)
        plain = estimate_pair_mi(model, chain, alloc, 1, 200, 200, seed=0)
        numpy = estimate_pair_mi(
            model, chain, alloc, np.int64(1), np.int32(200), np.int64(200), seed=np.int64(0)
        )
        assert numpy == plain

    @pytest.mark.parametrize("seed", [None, True, 1.5, "1", -1, np.random.default_rng(0)])
    def test_seed_must_be_an_integer_or_seed_sequence(self, scalar_setup, seed):
        # None once drew OS entropy, True ran as seed 1 and 1.5 raised TypeError
        _, model, chain = scalar_setup
        with pytest.raises(ValueError, match="seed"):
            estimate_pair_mi(model, chain, allocation(1e8, 1), 1, 200, 200, seed=seed)

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
        # plain Monte Carlo: the level's own magnitude law, handed in as a
        # sampler, keeps it on the nested path
        topo, model, chain = scalar_setup
        alloc = allocation(1e8, 1)
        sampler = _log_uniform_sampler(*alloc.levels[0])
        small, large = (
            estimate_pair_mi(model, chain, alloc, 1, n, 150, seed=29, magnitude_sampler=sampler)
            for n in (1600, 6400)
        )
        assert 0.35 < large.stderr / small.stderr < 0.65
        # the quadrature path's lattice rule converges faster than root n
        small = estimate_pair_mi(model, chain, alloc, 1, 1600, 150, seed=29)
        large = estimate_pair_mi(model, chain, alloc, 1, 6400, 150, seed=29)
        assert large.stderr / small.stderr <= 0.55

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

    def test_rician_blocks_fit_the_element_budget(self, scalar_setup, monkeypatch):
        # K = 1e4 at E = 1e16 narrows the s panels to 0.025: thousands of
        # nodes per row, so a block holds a few dozen rows
        topo, _, chain = scalar_setup
        model = FadingModel.from_mapping(topo, means={(1, 1): 100.0})
        shapes = []
        kernel = simulate._logsumexp_rows

        def recording(block):
            shapes.append(block.shape)
            return kernel(block)

        monkeypatch.setattr(simulate, "_logsumexp_rows", recording)
        estimate_pair_mi(model, chain, allocation(1e16, 1), 1, 300, 100, seed=3)
        columns = {shape[1] for shape in shapes}
        assert len(columns) == 1 and columns.pop() >= 1000, shapes
        assert sum(rows for rows, _ in shapes) == 300
        assert len(shapes) > 1
        assert max(math.prod(shape) for shape in shapes) <= simulate._BLOCK_ELEMENTS


class TestLogsumexpRows:
    """The quadrature's own row-wise log-sum-exp, against scipy's."""

    @pytest.mark.parametrize(
        "block",
        [
            np.random.default_rng(1).normal(scale=1e-3, size=(7, 50)),
            np.random.default_rng(2).normal(scale=1.0, size=(7, 50)),
            np.random.default_rng(3).normal(scale=1e3, size=(7, 50)),
            np.random.default_rng(4).normal(size=(5, 1)),
            np.full((1, 40), 2.5),
            -1e5 + np.random.default_rng(5).normal(scale=10.0, size=(3, 30)),
        ],
        ids=["spread_1e-3", "spread_1", "spread_1e3", "one_column", "equal_row", "near_-1e5"],
    )
    def test_matches_scipy(self, block):
        expected = logsumexp(block, axis=-1)
        scratch = block.copy()
        got = simulate._logsumexp_rows(scratch)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
        # the kernel overwrites its argument, as its docstring says
        assert not np.array_equal(scratch, block)


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


def _scipy_rows(block):
    return logsumexp(block, axis=-1)


def _assert_row_kernel_matches_scipy(model, chain, monkeypatch):
    # swapping the quadrature's log-sum-exp for scipy's moves each estimate
    # only by rounding
    for snr in (1e8, 1e16):
        alloc = allocation(snr, 2)
        for nu in (1, 2):
            own = estimate_pair_mi(model, chain, alloc, nu, 500, 200, seed=5)
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_logsumexp_rows", _scipy_rows)
                ref = estimate_pair_mi(model, chain, alloc, nu, 500, 200, seed=5)
            assert own.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12)
            assert own.stderr == pytest.approx(ref.stderr, rel=1e-12, abs=1e-12)


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

    @pytest.mark.parametrize(
        "z_model", ["iid", "witness_rician", "comparable_interferer"], indirect=True
    )
    def test_row_kernel_matches_scipy_estimates(self, z_model, monkeypatch):
        _assert_row_kernel_matches_scipy(*z_model, monkeypatch)

    def test_row_kernel_matches_scipy_estimates_on_diagonal(self, monkeypatch):
        topo = generate("diagonal", 2)
        _, chain = longest_chain(topo)
        _assert_row_kernel_matches_scipy(FadingModel.iid_rayleigh(topo), chain, monkeypatch)

    def test_densities_do_not_depend_on_the_rows_beside_them(self, z_model, monkeypatch):
        # the estimator hands each rule a whole chunk of outer rows, which it
        # splits into blocks by its node counts; a row's densities must be
        # the same bits whatever rows share its block.  Outputs from far
        # below to far above each level's range send the zero-mean models'
        # rows to every form of the closed-form marginal
        model, chain = z_model
        rules = []
        real = simulate._magnitude_quadrature

        def recording(*args):
            rules.append(real(*args))
            return rules[-1]

        monkeypatch.setattr(simulate, "_magnitude_quadrature", recording)
        alloc = allocation(1e12, 2)
        for nu in (1, 2):
            estimate_pair_mi(model, chain, alloc, nu, 100, 100, seed=0)
        assert len(rules) == 2
        rng = np.random.default_rng(7)
        for rule, (x_lo, x_hi) in zip(rules, alloc.levels):
            # the rules read squared magnitudes: |x|^2, |y - mu x|^2 and |y|^2
            r2 = simulate._log_uniform_quantile(rng.random(400), x_lo, x_hi) ** 2
            d2 = simulate._log_uniform_quantile(rng.random(400), 1e-4, 1e4 * x_hi) ** 2
            a2 = simulate._log_uniform_quantile(rng.random(400), 1e-4, 1e4 * x_hi) ** 2
            rows = [slice(i, i + 1) for i in range(len(a2))]
            cond = np.concatenate([rule.log_conditional(d2[i], r2[i]) for i in rows])
            marg = np.concatenate([rule.log_marginal(a2[i]) for i in rows])
            assert np.array_equal(cond, rule.log_conditional(d2, r2))
            assert np.array_equal(marg, rule.log_marginal(a2))

    @pytest.mark.parametrize("mu", [0j, 1.0 + 0.5j])
    @pytest.mark.parametrize("sigma2", [1.0, 1e3, 1e6])
    def test_densities_match_adaptive_quadrature(self, mu, sigma2):
        # both log densities against scipy's adaptive rules applied to the
        # phase-averaged Gaussian density; sigma2 = 1e3 makes the interferer
        # comparable to the target's floor, and 1e6 makes it dominate and
        # spreads its axis over several panels
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
            d2, r2 = np.abs(y - mu * x) ** 2, np.abs(x) ** 2
            assert rule.log_conditional(d2, r2)[0] == pytest.approx(math.log(cond), abs=1e-8)
            assert rule.log_marginal(np.abs(y) ** 2)[0] == pytest.approx(math.log(marg), abs=1e-8)

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


class TestMagnitudeDraw:
    """A quadrature level draws magnitudes only; they must follow the law of
    the complex draw through ``_output_law`` that the nested path makes."""

    @pytest.mark.parametrize(
        "network, fading, nu",
        [
            ("diagonal", {}, 1),
            ("z_channel", {}, 1),
            # Z-channel entries in sorted order: (1, 1), (1, 2), (2, 2).  At
            # unit variances the interferer barely moves level 1's output,
            # so a loud one checks that its magnitude enters the draw
            ("z_channel", {"covariance": np.diag([1.0, 1e6, 1.0])}, 1),
            ("z_channel", {"means": {(1, 1): 1.0 + 0.5j, (2, 2): -0.8j}}, 1),
            ("z_channel", {"means": {(1, 1): 1.0 + 0.5j, (2, 2): -0.8j}}, 2),
        ],
        ids=["d0_iid", "d1_iid", "d1_loud_interferer", "d1_rician_witness", "d0_rician_witness"],
    )
    def test_matches_the_complex_output_law(self, network, fading, nu, monkeypatch):
        topo = generate("diagonal", 2) if network == "diagonal" else _z_channel()
        model = FadingModel.from_mapping(topo, **fading)
        kappa, chain = longest_chain(topo)
        alloc = allocation(1e12, kappa)
        n = 20_000

        # the magnitude draw, read off the arguments the rule's densities get
        # in all their calls
        calls = {"d2": [], "r2": [], "a2": []}
        real = simulate._magnitude_quadrature

        def recording(*args):
            rule = real(*args)

            def log_conditional(d2, r2):
                calls["d2"].append(d2.copy())
                calls["r2"].append(r2.copy())
                return rule.log_conditional(d2, r2)

            def log_marginal(a2):
                calls["a2"].append(a2.copy())
                return rule.log_marginal(a2)

            return rule._replace(log_conditional=log_conditional, log_marginal=log_marginal)

        monkeypatch.setattr(simulate, "_magnitude_quadrature", recording)
        estimate_pair_mi(model, chain, alloc, nu, n, 100, seed=31)
        drawn = {name: np.concatenate(blocks) for name, blocks in calls.items()}
        assert all(len(values) == n for values in drawn.values())

        # the complex draw: inputs with their phases, through _output_law
        level = _chain_level(model, chain, nu)
        d = 1 if network == "z_channel" and nu == 1 else 0
        assert simulate._gaussian_given_magnitudes(level) and len(level.interferers) == d
        rng = np.random.default_rng(32)
        x = simulate._level_inputs(rng, *alloc.levels[nu - 1], (n,))
        xi = [simulate._level_inputs(rng, *alloc.levels[eta - 1], (n, 1)) for eta in level.interferers]
        mean, var = simulate._output_law(level.mu, level.sigma, np.concatenate([x[:, None]] + xi, axis=-1))
        y = mean + np.sqrt(var) * _standard_complex(rng, (n,))
        reference = {
            "r2": np.abs(x) ** 2,
            "a2": np.abs(y) ** 2,
            "d2": np.abs(y - level.mu[0] * x) ** 2,
        }
        # the three, and one ratio that ties the output to the input
        drawn["a2/r2"] = drawn["a2"] / drawn["r2"]
        reference["a2/r2"] = reference["a2"] / reference["r2"]
        for name, values in reference.items():
            assert ks_2samp(drawn[name], values).pvalue > 1e-3, name


def _gl_average(lo: float, hi: float, width: float, nodes: int):
    # nodes and weights of composite Gauss-Legendre for the uniform average
    # over [lo, hi], on equal panels at most ``width`` wide
    panels = max(1, math.ceil((hi - lo) / width))
    t, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (hi - lo) / panels
    centres = lo + half * (2.0 * np.arange(panels) + 1.0)
    return (centres[:, None] + half * t).ravel(), np.tile(w * half / (hi - lo), panels)


@pytest.mark.parametrize("nodes", [None, 3, 64])
def test_gl_rule_follows_the_node_count(nodes, monkeypatch):
    # the node table is cached, yet a patched node count still takes effect
    if nodes is not None:
        monkeypatch.setattr(simulate, "_GL_NODES_PER_PANEL", nodes)
    for _ in range(2):
        s, log_w = simulate._gl_rule(-1.0, 2.0, 0.25)
        s_ref, w_ref = _gl_average(-1.0, 2.0, 0.25, simulate._GL_NODES_PER_PANEL)
        assert np.array_equal(s, s_ref) and np.array_equal(log_w, np.log(w_ref))
    with pytest.raises(ValueError):
        simulate._legendre(simulate._GL_NODES_PER_PANEL)[0][0] = 0.0


def _fine_log_marginal(a2, x_lo, x_hi, sigma2, xi_window):
    """Zero-mean log f(y) at |y|^2 = a2, unit fading variance: 64 nodes per
    0.05-wide panel over s = log|x|, beside the estimator's own rule over the
    interferer's s' (8 nodes per panel at most 0.25 wide in (1/2) log v)."""
    s, w = _gl_average(math.log(x_lo), math.log(x_hi), 0.05, 64)
    if xi_window is None:
        b, w_b = np.zeros(1), np.ones(1)
    else:
        xi_lo, xi_hi = xi_window
        b_max = sigma2 * xi_hi * xi_hi
        width = 0.25 * (1.0 + x_lo * x_lo + b_max) / b_max
        s_b, w_b = _gl_average(math.log(xi_lo), math.log(xi_hi), width, 8)
        b = sigma2 * np.exp(2.0 * s_b)
    v = (1.0 + np.exp(2.0 * s))[:, None] + b
    log_w = np.log(w[:, None] * w_b) - np.log(math.pi * v)
    out = []
    for a2_row in a2:
        e = log_w - a2_row / v
        peak = e.max()
        out.append(peak + math.log(np.exp(e - peak).sum()))
    return np.array(out)


class TestClosedFormMarginal:
    """With a zero fading mean, log f(y) averages s = log|x| in closed form."""

    @pytest.mark.parametrize(
        "snr, nu, sigma2",
        [(1e8, 2, 1.0), (1e16, 1, 1.0), (1e16, 2, 1.0), (1e16, 1, 1e3), (1e16, 1, 1e6)],
        ids=["narrow_window", "level_1", "level_2", "comparable_interferer", "loud_interferer"],
    )
    def test_matches_fine_gauss_legendre(self, snr, nu, sigma2):
        levels = allocation(snr, 2).levels
        x_lo, x_hi = levels[nu - 1]
        xi_window = levels[1] if nu == 1 else None
        rule = simulate._magnitude_quadrature(0j, 1.0, x_lo, x_hi, sigma2, xi_window)
        # |y|^2 from far below the level's least output variance to far
        # above its largest
        v_lo, v_hi = 1.0 + x_lo * x_lo, 1.0 + x_hi * x_hi
        if xi_window is not None:
            v_lo += sigma2 * xi_window[0] ** 2
            v_hi += sigma2 * xi_window[1] ** 2
        a2 = np.geomspace(1e-12 * v_lo, 30.0 * v_hi, 25)
        got = rule.log_marginal(a2)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(
            got, _fine_log_marginal(a2, x_lo, x_hi, sigma2, xi_window), rtol=0, atol=1e-11
        )

    def test_scaled_ei_series(self):
        # log(q e^-q Ei(q)) against scipy's Ei where e^q is finite (scipy is
        # good to about 2e-14 relative near q = 41), and against the series'
        # first terms where they settle it
        q = np.geomspace(simulate._EI_SERIES_MIN, 700.0, 200)
        expected = np.log(q * np.exp(-q) * expi(q))
        np.testing.assert_allclose(simulate._log_scaled_ei(q), expected, rtol=0, atol=5e-14)
        q = np.geomspace(1e6, 1e300, 50)
        np.testing.assert_allclose(
            simulate._log_scaled_ei(q), np.log1p((1.0 + (2.0 + 6.0 / q) / q) / q), rtol=1e-15, atol=0
        )
        assert simulate._log_scaled_ei(np.empty(0)).shape == (0,)

    def test_scaled_ei_series_to_full_precision(self):
        # log(q e^-q Ei(q)) from mpmath at 50 digits, rounded to floats:
        # mpmath.log(q * mpmath.exp(-q) * mpmath.ei(q)) with mp.dps = 50 at
        # each float q below.  Together and one at a time, bit for bit, since
        # each q runs the term count its own value needs
        q = np.concatenate([np.geomspace(40.0, 1e8, 58), [40.5, 41.0]])
        expected = np.array([
            0.026013214785952192, 0.01989916061908807, 0.015257815131746974,
            0.011719258133259325, 0.009012971423316373, 0.006938372829148056,
            0.005345235503284836, 0.004120209627978784, 0.003177295319562497,
            0.0024509708095226176, 0.001891158242496878, 0.0014594912501746827,
            0.001126521963491376, 0.000869616013019408, 0.0006713572527367722,
            0.0005183335992812202, 0.00040020987821124754, 0.00030901802265942527,
            0.00023861259649110716, 0.00018425249736611822, 0.00014227921900635202,
            0.00010986915752936075, 8.484278726594556e-05, 6.55175691218482e-05,
            5.059452136949627e-05, 3.9070720736222566e-05, 3.0171789129085986e-05,
            2.329979099709013e-05, 1.799301767815605e-05, 1.3894943186693465e-05,
            1.0730257699859162e-05, 8.286363841013277e-06, 6.399089840804604e-06,
            4.94165812397248e-06, 3.816167264546181e-06, 2.9470145091648363e-06,
            2.2758166752178254e-06, 1.7574880309351082e-06, 1.3572115713319105e-06,
            1.0481001684377237e-06, 8.093904460358474e-07, 6.25048031941268e-07,
            4.826904848598612e-07, 3.7275553813338394e-07, 2.878587848441117e-07,
            2.222976560728714e-07, 1.7166837214666902e-07, 1.3257013603219188e-07,
            1.023766986462075e-07, 7.905995156603833e-08, 6.105369751191471e-08,
            4.7148447842051176e-08, 3.641018046517162e-08, 2.8117601046186827e-08,
            2.1713693278410243e-08, 1.676830381247339e-08, 1.2949248643114462e-08,
            1.0000000150000004e-08, 0.025678687474114593, 0.025352668981688732,
        ])
        np.testing.assert_allclose(simulate._log_scaled_ei(q), expected, rtol=0, atol=1e-16)
        alone = [simulate._log_scaled_ei(q[i : i + 1])[0] for i in range(q.size)]
        assert np.array_equal(alone, simulate._log_scaled_ei(q))

    @pytest.mark.parametrize("snr", [1e8, 1e16])
    def test_marginal_blocks_fit_the_interferer_rule(self, snr, monkeypatch):
        # the marginal's log-sum-exp runs over the interferer nodes alone
        # (none with no interferer), and a zero-mean level builds no tensor
        # rule for any row.  At unit variances level 1's interferer axis is a
        # single panel
        topo = _z_channel()
        model = FadingModel.iid_rayleigh(topo)
        _, chain = longest_chain(topo)
        kernel = simulate._logsumexp_rows

        def no_tensor_rule(*args):
            raise AssertionError("a zero-mean level built the tensor rule")

        monkeypatch.setattr(simulate, "_rician_marginal", no_tensor_rule)
        for nu, nodes in ((1, simulate._GL_NODES_PER_PANEL), (2, 1)):
            shapes = []

            def recording(block):
                shapes.append(block.shape)
                return kernel(block)

            monkeypatch.setattr(simulate, "_logsumexp_rows", recording)
            estimate_pair_mi(model, chain, allocation(snr, 2), nu, 20_000, 100, seed=3)
            assert all(columns == nodes for _, columns in shapes), (nu, shapes)
            assert (nu == 1) == bool(shapes)


class TestLatticeRule:
    """A quadrature level's outer average: randomly shifted copies of one
    Korobov lattice, whose replicate means give the estimate and its
    stderr."""

    @pytest.mark.parametrize("m", [6, 101, 187, 1250])
    @pytest.mark.parametrize("dims", [2, 3, 4])
    def test_each_coordinate_is_a_permutation(self, m, dims):
        points = simulate._korobov_lattice(m, dims)
        assert points.shape == (dims, m) and not points.flags.writeable
        assert np.array_equal(points[0], np.arange(m) / m)
        for j in range(dims):
            assert np.array_equal(np.sort(points[j]), np.arange(m) / m), j

    @pytest.mark.parametrize("n_outer", [100, 101, 3000, 20011])
    def test_replicates_are_shifted_lattices(self, n_outer):
        dims = 3
        u = simulate._shifted_lattice(np.random.default_rng(5), n_outer, dims)
        assert u.shape == (dims, n_outer)
        assert u.min() >= 0.0 and u.max() < 1.0
        replicates = simulate._LATTICE_REPLICATES
        shifts = np.random.default_rng(5).random((dims, replicates, 1))
        size, extra = divmod(n_outer, replicates)
        start = 0
        for i in range(replicates):
            m = size + 1 if i < extra else size
            offset = u[:, start : start + m] - shifts[:, i] - simulate._korobov_lattice(m, dims)
            assert np.abs(offset - np.round(offset)).max() < 1e-12, i
            start += m
        assert start == n_outer

    def test_folded_points_are_uniform(self):
        # the fold maps each shifted point through u -> 1 - |2u - 1|, and
        # every point stays uniform on the cube: the first point of each
        # replicate, independent across replicates and seeds, passes a KS
        # test in every coordinate
        dims, n_outer = 3, 3000
        u = simulate._folded_lattice(np.random.default_rng(5), n_outer, dims)
        shifted = simulate._shifted_lattice(np.random.default_rng(5), n_outer, dims)
        assert np.array_equal(u, 1.0 - np.abs(2.0 * shifted - 1.0))
        assert u.min() >= 0.0 and u.max() < 1.0
        size, extra = divmod(n_outer, simulate._LATTICE_REPLICATES)
        replicates = np.arange(simulate._LATTICE_REPLICATES)
        starts = replicates * size + np.minimum(replicates, extra)
        firsts = np.concatenate(
            [
                simulate._folded_lattice(np.random.default_rng(seed), n_outer, dims)[:, starts]
                for seed in range(300)
            ],
            axis=1,
        )
        for j in range(dims):
            assert kstest(firsts[j], "uniform").pvalue > 1e-3, j

    @pytest.mark.parametrize("network", ["diagonal", "z_channel", "rician_z_channel"])
    def test_rows_stay_finite_at_the_folds_ends(self, network, monkeypatch):
        # shifts of exactly 0.5 and 0.0 put each replicate's first point on
        # 0.5 in every coordinate, which the fold takes to 1, where the
        # exponential's inverse CDF is infinite, and on 0.0, where the
        # output magnitude is 0 on a zero-mean level
        topo = generate("diagonal", 2) if network == "diagonal" else _z_channel()
        means = {(1, 1): 1.0 + 0.5j, (2, 2): -0.8j} if network == "rician_z_channel" else {}
        model = FadingModel.from_mapping(topo, means=means)
        _, chain = longest_chain(topo)
        level = _chain_level(model, chain, 1)

        class Shifts:
            # stands in for the generator: the shifts are the lattice's only draw
            def random(self, shape):
                shifts = np.full(shape, 0.5)
                shifts[:, 1::2] = 0.0
                return shifts

        rows = []
        means_of = simulate._replicate_means

        def recording(vals):
            rows.append(vals.copy())
            return means_of(vals)

        monkeypatch.setattr(simulate, "_replicate_means", recording)
        terms = simulate._quadrature_terms(level, allocation(1e12, 2), 1000, Shifts())
        assert len(rows) == 1 and np.isfinite(rows[0]).all() and np.isfinite(terms).all()

    def test_fold_narrows_an_interferer_free_level(self):
        # 40 seeds of 2000 rows on diagonal:2's level 1 at 1e8: the estimates'
        # sd was 0.0062 on the unfolded lattice, and is 0.0026 folded
        topo = generate("diagonal", 2)
        model = FadingModel.iid_rayleigh(topo)
        _, chain = longest_chain(topo)
        alloc = allocation(1e8, 2)
        values = [estimate_pair_mi(model, chain, alloc, 1, 2000, 100, seed=s).value for s in range(40)]
        assert np.std(values, ddof=1) < 0.004

    @pytest.mark.parametrize("n_outer", [100, 101, 3000, 20011])
    def test_evaluates_exactly_n_outer_rows(self, n_outer, monkeypatch):
        # level 1 of the Z-channel hears one interferer: three uniforms a row
        rows = {"conditional": 0, "marginal": 0}
        real = simulate._magnitude_quadrature

        def recording(*args):
            rule = real(*args)

            def log_conditional(d2, r2):
                rows["conditional"] += len(d2)
                return rule.log_conditional(d2, r2)

            def log_marginal(a2):
                rows["marginal"] += len(a2)
                return rule.log_marginal(a2)

            return rule._replace(log_conditional=log_conditional, log_marginal=log_marginal)

        monkeypatch.setattr(simulate, "_magnitude_quadrature", recording)
        model = FadingModel.iid_rayleigh(_z_channel())
        _, chain = longest_chain(_z_channel())
        estimate_pair_mi(model, chain, allocation(1e12, 2), 1, n_outer, 100, seed=2)
        assert rows == {"conditional": n_outer, "marginal": n_outer}

    @pytest.mark.parametrize(
        "network, snr, n_outer",
        [("full", 1e8, 500), ("z_channel", 1e12, 500), ("z_channel", 1e12, 2000)],
        ids=["full_1_1", "z_channel", "z_channel_2000_rows"],
    )
    def test_stderr_is_honest(self, network, snr, n_outer):
        # 200 seeds on level 1: the estimates scatter as their reported
        # stderr says, around a 64 000-row reference
        topo = generate("full", 1, 1) if network == "full" else _z_channel()
        model = FadingModel.iid_rayleigh(topo)
        kappa, chain = longest_chain(topo)
        alloc = allocation(snr, kappa)
        reference = estimate_pair_mi(model, chain, alloc, 1, 64_000, 100, seed=10**6)
        ests = [estimate_pair_mi(model, chain, alloc, 1, n_outer, 100, seed=s) for s in range(200)]
        values = np.array([est.value for est in ests])
        stderrs = np.array([est.stderr for est in ests])
        rms_stderr = math.sqrt(np.mean(stderrs**2))
        assert 0.8 <= values.std(ddof=1) / rms_stderr <= 1.2
        assert np.mean(np.abs(values - reference.value) <= 3 * stderrs) >= 0.97


class TestSnrSweep:
    @pytest.fixture
    def pair_network(self):
        return FadingModel.iid_rayleigh(generate("diagonal", 2))

    def test_worker_count_never_changes_bytes(self, pair_network):
        model = pair_network
        grid = [1e5, 1e8, 1e10]
        serial = snr_sweep(model, grid, 400, 120, seed=77, workers=1)
        pooled = snr_sweep(model, grid, 400, 120, seed=77, workers=4)
        # repr spells out every field, each float in the form the CSV writes
        assert repr(serial) == repr(pooled)

    def test_worker_count_never_changes_bytes_on_a_rician_interferer_level(self):
        # level 1 of this Z-channel has d = 1 and a fading mean, so each
        # quadrature call runs the tensor rule on arrays of its own
        topo = _z_channel()
        model = FadingModel.from_mapping(topo, means={(1, 1): 1.0 + 0.5j, (2, 2): -0.8j})
        grid = [1e8, 1e12, 1e16]
        serial = snr_sweep(model, grid, 400, 120, seed=77, workers=1)
        pooled = snr_sweep(model, grid, 400, 120, seed=77, workers=4)
        assert repr(serial) == repr(pooled)

    def test_worker_count_never_changes_bytes_on_a_nested_level(self):
        # the mean on level 1's interferer entry puts that level on the nested
        # path, the one where a second worker pays
        model = FadingModel.from_mapping(_z_channel(), means={(1, 2): 0.5})
        grid = [1e8, 1e12, 1e16]
        serial = snr_sweep(model, grid, 400, 120, seed=77, workers=1)
        pooled = snr_sweep(model, grid, 400, 120, seed=77, workers=4)
        assert repr(serial) == repr(pooled)

    @pytest.mark.parametrize("cores, workers, threads", [(3, 10**6, 3), (None, 10**6, 1), (3, 2, 2)])
    def test_pool_is_capped_at_the_cpu_count(
        self, pair_network, monkeypatch, cores, workers, threads
    ):
        # a stub pool records its size and maps the tasks serially, so no
        # thread is started whatever the count asked for
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
        grid = [1e5, 1e8, 1e10]
        records = snr_sweep(pair_network, grid, 400, 120, seed=77, workers=workers)
        assert sizes == [threads]
        monkeypatch.undo()
        assert repr(records) == repr(snr_sweep(pair_network, grid, 400, 120, seed=77))

    def test_chunked_quadrature_levels_keep_the_contract(self, monkeypatch):
        # a quadrature level evaluates its lattice rows in calls of at most
        # its rule's rows.  On both Z-channels every rule kind runs: d = 0
        # and d = 1, each zero-mean and Rician.  With the element budget
        # shrunk, 1000 rows take several calls per level, and the calls cut
        # across replicates.  No row's densities depend on its call, so the
        # records are the one-block records bit for bit, with one worker or
        # two; and no call, nor any log-sum-exp block, outgrows the budget
        grid = [1e8, 1e12, 1e16]
        real, kernel = simulate._magnitude_quadrature, simulate._logsumexp_rows
        kinds = set()
        for means in ({}, {(1, 1): 1.0 + 0.5j, (2, 2): -0.8j}):
            model = FadingModel.from_mapping(_z_channel(), means=means)
            whole = snr_sweep(model, grid, 1000, 100, seed=3)
            rules, shapes = [], []

            def recording(mu, eps2, x_lo, x_hi, sigma2, xi_window=None):
                rule = real(mu, eps2, x_lo, x_hi, sigma2, xi_window)
                calls = []
                rules.append((rule.rows, calls))
                kinds.add((xi_window is not None, mu != 0))

                def log_conditional(d2, r2):
                    calls.append(len(d2))
                    return rule.log_conditional(d2, r2)

                def log_marginal(a2):
                    assert len(a2) == calls[-1]
                    return rule.log_marginal(a2)

                return rule._replace(log_conditional=log_conditional, log_marginal=log_marginal)

            def recording_rows(block):
                shapes.append(block.shape)
                return kernel(block)

            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_BLOCK_ELEMENTS", 4096)
                patch.setattr(simulate, "_magnitude_quadrature", recording)
                patch.setattr(simulate, "_logsumexp_rows", recording_rows)
                serial = snr_sweep(model, grid, 1000, 100, seed=3, workers=1)
                assert len(rules) == 6
                for rows, calls in rules:
                    assert len(calls) > 1 and max(calls) <= rows and sum(calls) == 1000
                assert shapes and max(math.prod(shape) for shape in shapes) <= 4096
                pooled = snr_sweep(model, grid, 1000, 100, seed=3, workers=2)
            assert repr(serial) == repr(whole) == repr(pooled)
        assert kinds == {(False, False), (True, False), (False, True), (True, True)}

    def test_slope_spread_across_seeds(self, pair_network):
        # criterion 6c's sweep (diagonal:2, --grid 8,16,5, 3000 outer rows):
        # with plain Monte Carlo on its levels the fitted slope's sd across
        # seeds was 0.030, and 1.7 sat 2.9 sd below its mean
        grid = [10.0 ** (8 + 2 * k) for k in range(5)]
        sweeps = [snr_sweep(pair_network, grid, 3000, 100, seed=s) for s in range(30)]
        slopes = np.array([fit_loglog_slope(records)[0] for records in sweeps])
        assert slopes.std(ddof=1) <= 0.015
        assert np.all(np.abs(slopes - 2.0) <= 0.15 * 2.0), slopes

    def test_estimates_are_requested_in_grid_order(self, pair_network, monkeypatch):
        # point by point, level by level; the infeasible point requests none
        calls = []
        real = simulate._estimate_level

        def recording(level, alloc, *args, **kwargs):
            calls.append((alloc.levels[0], level.nu))
            return real(level, alloc, *args, **kwargs)

        monkeypatch.setattr(simulate, "_estimate_level", recording)
        records = snr_sweep(pair_network, [1e5, 1e8, 1e10], 200, 100, seed=5)
        assert [r.feasible for r in records] == [False, True, True]
        windows = [allocation(e, 2).levels[0] for e in (1e8, 1e10)]
        assert calls == [(windows[0], 1), (windows[0], 2), (windows[1], 1), (windows[1], 2)]

    @pytest.mark.parametrize("network", ["diagonal", "z_channel", "rician_z_channel"])
    def test_records_sum_the_public_per_level_estimates(self, network, rician_z_channel):
        # the sweep estimates each level from the plan's per-level record;
        # its sums must be those of estimate_pair_mi's estimates, bit for
        # bit, each level seeded by its grid position and level
        if network == "rician_z_channel":
            model = rician_z_channel
            # level 1 on the nested path (its interferer has a mean and is
            # correlated with the witness entry), level 2 on the Rician
            # quadrature
            paths = [simulate._gaussian_given_magnitudes(level) for level in plan(model).levels]
            assert paths == [False, True] and model.means[0] != 0
        else:
            topo = generate("diagonal", 2) if network == "diagonal" else _z_channel()
            model = FadingModel.iid_rayleigh(topo)
        kappa, chain = longest_chain(model.topo)
        grid = [1e5, 1e8, 1e12]
        records = snr_sweep(model, grid, 300, 100, seed=9, workers=2)
        assert [r.feasible for r in records] == [False, True, True]
        for i, (snr, rec) in enumerate(zip(grid, records)):
            if not rec.feasible:
                continue
            alloc = allocation(snr, kappa)
            ests = [
                estimate_pair_mi(
                    model, chain, alloc, nu, 300, 100, seed=np.random.SeedSequence([9, i, nu])
                )
                for nu in range(1, kappa + 1)
            ]
            assert rec.mc_estimate == sum(est.value for est in ests)
            assert rec.mc_stderr == math.sqrt(sum(est.stderr**2 for est in ests))

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", "1"), ("seed", True),
        ("workers", 2.5), ("workers", "2"), ("workers", True),
    ])
    def test_seed_and_workers_must_be_integers(self, pair_network, name, value):
        kwargs = {"seed": 1, "workers": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be"):
            snr_sweep(pair_network, [1e8], 400, 120, **kwargs)

    def test_numpy_integer_seed_and_workers_are_accepted(self, pair_network):
        # stored as int, sample counts too, so the records read as those of
        # the same Python ints
        grid = [1e5, 1e8]
        plain = snr_sweep(pair_network, grid, 200, 100, seed=5, workers=2)
        numpy = snr_sweep(
            pair_network, grid, np.int64(200), np.int32(100), seed=np.int64(5), workers=np.int32(2)
        )
        assert repr(numpy) == repr(plain)
        assert all(type(r.n_outer) is int and type(r.m_inner) is int for r in numpy)

    @pytest.mark.parametrize("name, value", [
        ("n_outer", True), ("n_outer", 1000.0), ("n_outer", "200"),
        ("m_inner", True), ("m_inner", 150.5), ("m_inner", "200"),
    ])
    def test_sample_counts_must_be_integers(self, pair_network, name, value):
        counts = {"n_outer": 200, "m_inner": 200, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            snr_sweep(pair_network, [1e8], counts["n_outer"], counts["m_inner"], seed=1)

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
    """Sweep records as the ``sweep`` command writes them."""

    @pytest.fixture
    def write(self, monkeypatch, capsys):
        records = [_fake_record(1e8, 2.5), _fake_record(10.0, 0.0, feasible=False)]
        monkeypatch.setattr(cli, "snr_sweep", lambda *args, **kwargs: records)

        def written(fmt):
            argv = ["sweep", "--gen", "full:1,1", "--grid", "1,8,2", "--seed", "0"]
            assert cli.main(argv + ["--format", fmt]) == 0
            return capsys.readouterr().out

        return written

    def test_csv_exact_bytes(self, write):
        got = write("csv")
        expected = (
            "E,kappa_star,loglog,lower,mc,mc_stderr,upper,feasible\n"
            "100000000.0,1,2.9134739869277917,1.5,2.5,0.01,3.5,true\n"
            "10.0,1,,,,,,false\n"
        )
        assert got == expected

    def test_json_round_trip(self, write):
        parsed = json.loads(write("json"))
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
    topo = prune(Topology(n_t=n_t, n_r=n_r, zeros=frozenset(zeros)))
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
