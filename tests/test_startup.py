"""scipy stays off the start-up path: importing the CLI, and every zero-mean
``kappa``, ``bounds`` and quadrature ``sweep`` run (with no interferer or
one), CSV or JSON, and a zero-mean nested-path estimate load no scipy module.
Each check runs in a fresh interpreter, since pytest's own process has
already imported scipy."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fadenet

SRC = Path(fadenet.__file__).resolve().parents[1]

PRELUDE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
"""


def run_fresh(body: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body), *args],
        capture_output=True, text=True, timeout=120, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_zero_mean_runs_load_no_scipy(tmp_path):
    # the Z-channel's level 1 hears one zero-mean interferer, so its sweep
    # takes the closed-form marginal beside the interferer rule
    z_channel = tmp_path / "z_channel.json"
    z_channel.write_text('{"n_t": 2, "n_r": 2, "zeros": [[2, 1]]}')
    got = run_fresh(
        """
        from fadenet import cli
        after_import = scipy_modules()
        run(["kappa", "--gen", "diagonal:5"])
        for fmt in ("csv", "json"):
            run(["bounds", "--gen", "diagonal:2", "--grid", "8,16,3", "--format", fmt])
            run(["sweep", "--gen", "diagonal:2", "--grid", "8,16,3", "--format", fmt,
                 "--outer", "100", "--inner", "100", "--seed", "0"])
        run(["sweep", "--topo", sys.argv[1], "--grid", "8,16,3",
             "--outer", "100", "--inner", "100", "--seed", "0"])
        # a constant magnitude_sampler puts the level on the nested path
        import numpy as np
        from fadenet.bounds import allocation
        from fadenet.fading import FadingModel
        from fadenet.powerchain import longest_chain
        from fadenet.simulate import estimate_pair_mi
        from fadenet.topology import generate

        topo = generate("full", 1, 1)
        estimate = estimate_pair_mi(
            FadingModel.iid_rayleigh(topo), longest_chain(topo)[1], allocation(1e8, 1), 1,
            100, 100, seed=0, magnitude_sampler=lambda rng, shape: np.full(shape, 300.0),
        )
        assert np.isfinite(estimate.value)
        print(json.dumps({"import": after_import, "runs": scipy_modules()}))
        """,
        str(z_channel),
    )
    assert got == {"import": [], "runs": []}


def test_lazy_scipy_imports_resolve(tmp_path):
    # a Rician witness reaches E1 in the bounds and the Bessel factor in the
    # quadrature.  A nested-path level needs no scipy, which
    # test_zero_mean_runs_load_no_scipy checks
    model = tmp_path / "model.json"
    model.write_text('{"means": [[1, 1, 1.5, -0.5]]}')
    got = run_fresh(
        """
        from fadenet import cli

        model = sys.argv[1]
        run(["bounds", "--gen", "full:1,1", "--model", model, "--grid", "8,16,3"])
        run(["sweep", "--gen", "full:1,1", "--model", model, "--grid", "8,16,3",
             "--outer", "100", "--inner", "100", "--seed", "0"])
        print(json.dumps({"special": "scipy.special" in scipy_modules()}))
        """,
        str(model),
    )
    assert got == {"special": True}
