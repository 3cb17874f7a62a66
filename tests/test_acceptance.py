"""End-to-end acceptance checks, one numbered test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible under
``pytest -s`` or in failure output) before asserting, so the tee'd run log
doubles as a checklist.  Statistical checks use fixed seeds; every tolerance
is written into the assertion it guards.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma

from fadenet.bounds import (
    allocation,
    duality_upper_bound,
    interference_penalty,
    min_valid_snr,
    scheme_rate_lower_bound,
)
from fadenet.cli import main
from fadenet.fading import FadingModel, log_h_squared_mean, memory_gap_ar1
from fadenet.powerchain import brute_force_kappa, decompose, longest_chain
from fadenet.simulate import (
    SweepRecord,
    estimate_pair_mi,
    fit_loglog_slope,
    snr_sweep,
)
from fadenet.topology import generate

EULER_GAMMA = 0.5772156649015329
GRID = [1e8, 1e10, 1e12, 1e14, 1e16]


def _report(tag: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def _random_topologies(count: int, max_side: int, rng: np.random.Generator):
    """Seeded stream of non-degenerate pruned random topologies."""
    produced = 0
    seed = 0
    while produced < count:
        n_t = int(rng.integers(1, max_side + 1))
        n_r = int(rng.integers(1, max_side + 1))
        p = float(rng.uniform(0.2, 0.9))
        topo = generate("random", n_t, n_r, p, seed=seed)
        seed += 1
        if topo.n_t == 0 or topo.n_r == 0:
            continue
        produced += 1
        yield topo


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    for topo in _random_topologies(200, 6, rng):
        kappa, chain = longest_chain(topo)
        assert kappa == brute_force_kappa(topo), topo
        assert len(chain) == kappa
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    assert _report("1", ok, f"200 topologies in {elapsed:.2f}s")


def test_criterion_02_known_kappa_values():
    checks = []
    for n in range(1, 6):
        checks.append(longest_chain(generate("full", n, n))[0] == 1)
    for n in range(1, 9):
        checks.append(longest_chain(generate("diagonal", n))[0] == n)
    checks.append(longest_chain(generate("wyner_cyclic", 4))[0] == 3)
    ok = all(checks)
    assert _report("2", ok, f"{sum(checks)}/{len(checks)} families")


def test_criterion_03_decomposition_invariants():
    topologies = [
        *(generate("diagonal", n) for n in (2, 3, 4, 5)),
        generate("full", 2, 2),
        generate("full", 3, 3),
        generate("full", 2, 3),
        generate("wyner_linear", 3),
        generate("wyner_linear", 4),
        generate("wyner_cyclic", 4),
        generate("wyner_cyclic", 5),
    ]
    rng = np.random.default_rng(3)
    topologies += [t for t in _random_topologies(15, 5, rng) if t.n_t <= 5]
    start = time.monotonic()
    for topo in topologies:
        kappa_star, _ = longest_chain(topo)
        best = 0
        for perm in itertools.permutations(range(1, topo.n_t + 1)):
            dec = decompose(topo, perm)
            assert dec.kappa <= kappa_star
            receivers = [r for block in dec.receiver_blocks for r in block]
            assert sorted(receivers) == list(range(1, topo.n_r + 1))
            transmitters = [t for block in dec.transmitter_blocks for t in block]
            assert sorted(transmitters) == list(range(1, topo.n_t + 1))
            best = max(best, dec.kappa)
        assert best == kappa_star, topo
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    assert _report("3", ok, f"{len(topologies)} topologies, all perms, {elapsed:.2f}s")


def test_criterion_04_allocation_validity():
    threshold = min_valid_snr(2)
    in_range = 2.0e7 <= threshold <= 3.0e7
    alloc = allocation(1e8, 2)
    nested = alloc.levels[0][0] > alloc.levels[1][1]
    ratio_ok = all(
        r == pytest.approx(math.log(1e8) ** 2, rel=1e-9)
        for r in alloc.separation_ratios()
    )
    ok = in_range and nested and ratio_ok
    assert _report("4", ok, f"threshold={threshold:.6g}")


def test_criterion_05_bounded_gap():
    topo = generate("diagonal", 2)
    model = FadingModel.iid_rayleigh(topo)
    _, chain = longest_chain(topo)
    gaps = [
        2 * math.log(math.log(e))
        - scheme_rate_lower_bound(model, chain, e).lower_bound
        for e in GRID
    ]
    top_four = gaps[1:]
    spread = max(top_four) - min(top_four)
    ok = spread < 1.0
    assert _report("5", ok, f"spread={spread:.4f} over top four")


def _analytic_records(topo, model):
    _, chain = longest_chain(topo)
    kappa_star = len(chain)
    return [
        SweepRecord(
            snr=e,
            kappa_star=kappa_star,
            loglog_term=kappa_star * math.log(math.log(e)),
            analytic_lower=scheme_rate_lower_bound(model, chain, e).lower_bound,
            mc_estimate=None,
            mc_stderr=None,
            analytic_upper=None,
            n_outer=0,
            m_inner=0,
            seed=0,
            feasible=True,
        )
        for e in GRID
    ]


def test_criterion_06a_analytic_slope_diagonal():
    # the analytic bound's weakest-level window opens very slowly: just above
    # the two-level feasibility threshold its log-spread term still climbs
    # several times faster than log log E, so the fitted slope over this grid
    # overshoots 2 by far; see the decisions ledger for the full analysis
    topo = generate("diagonal", 2)
    model = FadingModel.iid_rayleigh(topo)
    slope, _, _ = fit_loglog_slope(_analytic_records(topo, model), field="analytic_lower")
    ok = abs(slope - 2.0) <= 0.2
    _report("6a", ok, f"slope={slope:.4f}, required 2 +- 0.2")
    assert ok


def test_criterion_06b_analytic_slope_full():
    # single-level analogue of 6a: the log-spread transient inflates the
    # fitted slope slightly past the 1.15 ceiling at these budgets
    topo = generate("full", 2, 2)
    model = FadingModel.iid_rayleigh(topo)
    slope, _, _ = fit_loglog_slope(_analytic_records(topo, model), field="analytic_lower")
    ok = abs(slope - 1.0) <= 0.15
    _report("6b", ok, f"slope={slope:.4f}, required 1 +- 0.15")
    assert ok


def test_criterion_06c_mc_slope():
    start = time.monotonic()
    details = []
    ok = True
    for spec in (("diagonal", 2), ("full", 2, 2)):
        topo = generate(*spec)
        model = FadingModel.iid_rayleigh(topo)
        kappa_star, _ = longest_chain(topo)
        records = snr_sweep(model, GRID, 20000, 2000, seed=42, workers=4)
        slope, _, _ = fit_loglog_slope(records)
        details.append(f"{spec[0]}: slope={slope:.4f} vs kappa*={kappa_star}")
        ok = ok and abs(slope - kappa_star) <= 0.15 * kappa_star
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 900.0
    assert _report("6c", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def _two_point_magnitude_mi(a: float, b: float) -> float:
    va, vb = 1.0 + a * a, 1.0 + b * b

    def density(s):
        return 0.5 * (
            math.exp(-s / va) / (math.pi * va) + math.exp(-s / vb) / (math.pi * vb)
        )

    def integrand(s):
        g = density(s)
        return math.pi * g * math.log(g) if g > 0.0 else 0.0

    h_y = -quad(integrand, 0.0, np.inf, limit=200)[0]
    h_y_given_x = 0.5 * (math.log(math.pi * math.e * va) + math.log(math.pi * math.e * vb))
    return h_y - h_y_given_x


def test_criterion_07_estimator_validation():
    topo = generate("full", 1, 1)
    model = FadingModel.iid_rayleigh(topo)
    _, chain = longest_chain(topo)
    alloc = allocation(1e8, 1)

    target = _two_point_magnitude_mi(1.0, 30.0)
    two_point = estimate_pair_mi(
        model, chain, alloc, 1, 4000, 400, seed=700,
        magnitude_sampler=lambda rng, shape: rng.choice([1.0, 30.0], size=shape),
    )
    quad_ok = abs(two_point.value - target) < 3 * two_point.stderr

    constant = estimate_pair_mi(
        model, chain, alloc, 1, 2000, 200, seed=701,
        magnitude_sampler=lambda rng, shape: np.full(shape, 300.0),
    )
    # the constant-magnitude estimate is zero in exact arithmetic, sample by
    # sample, so its stderr collapses to float roundoff; the 1e-9 floor keeps
    # the two-stderr check meaningful instead of comparing rounding noise
    const_ok = abs(constant.value) <= max(2 * constant.stderr, 1e-9)

    ok = quad_ok and const_ok
    assert _report(
        "7",
        ok,
        f"two-point err={abs(two_point.value - target):.4f} "
        f"(3se={3 * two_point.stderr:.4f}), const={constant.value:.2e}",
    )


def test_criterion_08_bound_ordering():
    topo = generate("full", 1, 1)
    model = FadingModel.iid_rayleigh(topo)
    _, chain = longest_chain(topo)
    details = []
    ok = True
    for e in (1e8, 1e12):
        lower = scheme_rate_lower_bound(model, chain, e).lower_bound
        est = estimate_pair_mi(model, chain, allocation(e, 1), 1, 6000, 600, seed=8)
        upper = duality_upper_bound(model, e)
        high = est.value + 3 * est.stderr
        ok = ok and lower <= high <= upper
        details.append(f"E={e:g}: {lower:.3f} <= {high:.3f} <= {upper:.3f}")
    assert _report("8", ok, "; ".join(details))


def test_criterion_09_interference_penalty_decay():
    values = [
        interference_penalty(1, allocation(e, 2), 4.0, 1.0)
        for e in (1e8, 1e10, 1e12, 1e14)
    ]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    tail = interference_penalty(1, allocation(1e16, 2), 4.0, 1.0)
    ok = decreasing and tail < 0.05
    assert _report("9", ok, f"values={[f'{v:.4f}' for v in values]}, tail={tail:.4f}")


def test_criterion_10_fading_memory():
    model = FadingModel.from_mapping(generate("full", 2, 2), ar1_rho=0.5)
    gap = memory_gap_ar1(model)
    exact = -4 * math.log1p(-0.25)
    closed_ok = gap == pytest.approx(exact, rel=1e-12) and gap == pytest.approx(
        1.15073, abs=1e-5
    )

    rho = 0.5
    rng = np.random.default_rng(10)
    n = 200_000

    def cn(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)

    h_prev = cn(n)
    h_now = rho * h_prev + math.sqrt(1 - rho**2) * cn(n)
    resid_var = 1 - rho**2
    log_cond = -np.abs(h_now - rho * h_prev) ** 2 / resid_var - math.log(math.pi * resid_var)
    log_marg = -np.abs(h_now) ** 2 - math.log(math.pi)
    mc = float(np.mean(log_cond - log_marg))
    target = -math.log(1 - rho**2)
    mc_ok = abs(mc - target) < 0.02

    ok = closed_ok and mc_ok
    assert _report("10", ok, f"gap={gap:.5f}, mc={mc:.5f} vs {target:.5f}")


def test_criterion_11_special_functions():
    rng = np.random.default_rng(11)
    details = []
    ok = True
    for n_r in (1, 2, 4):
        z = (
            rng.standard_normal((1_000_000, n_r))
            + 1j * rng.standard_normal((1_000_000, n_r))
        ) / math.sqrt(2)
        mc = float(np.mean(np.log(np.sum(np.abs(z) ** 2, axis=1))))
        err = abs(mc - float(digamma(n_r)))
        ok = ok and err < 0.01
        details.append(f"n_r={n_r}: err={err:.4f}")

    h = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) / math.sqrt(2)
    scalar_mc = float(np.mean(np.log(np.abs(h) ** 2)))
    scalar_err = abs(scalar_mc - (-EULER_GAMMA))
    ok = ok and scalar_err < 0.01
    # and the analytic helper agrees with the closed form it generalizes
    ok = ok and log_h_squared_mean(0.0, 1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    details.append(f"scalar err={scalar_err:.4f}")
    assert _report("11", ok, "; ".join(details))


def test_criterion_12_sweep_determinism(tmp_path, capsys):
    outputs = []
    for workers in ("1", "8"):
        path = tmp_path / f"w{workers}.csv"
        code = main(
            [
                "sweep",
                "--gen", "diagonal:2",
                "--grid", "8,12,3",
                "--seed", "7",
                "--outer", "400",
                "--inner", "120",
                "--workers", workers,
                "--out", str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1]
    assert _report("12", ok, f"{len(outputs[0])} bytes each")
