import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadenet import cli, powerchain, topology
from fadenet.bounds import allocation
from fadenet.cli import _json_text, build_parser, main
from fadenet.fading import FadingModel
from fadenet.topology import Topology, generate, save_topology


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKappa:
    def test_generated_topology(self, capsys):
        code, out, _ = run(capsys, "kappa", "--gen", "diagonal:3")
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa_star"] == 3
        assert doc["chain_transmitters"] == [1, 2, 3]
        assert len(doc["chain_witnesses"]) == 3

    def test_topology_file(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        save_topology(generate("wyner_cyclic", 4), path)
        code, out, _ = run(capsys, "kappa", "--topo", str(path))
        assert code == 0
        assert json.loads(out)["kappa_star"] == 3

    def test_size_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "kappa", "--gen", "diagonal:30")
        assert code == 3
        assert "error:" in err

    def test_random_needs_seed(self, capsys):
        code, _, err = run(capsys, "kappa", "--gen", "random:4,4,0.5")
        assert code == 2
        assert "--seed" in err

    def test_random_with_seed(self, capsys):
        code, out, _ = run(capsys, "kappa", "--gen", "random:4,4,0.5", "--seed", "9")
        assert code == 0
        doc = json.loads(out)
        assert 1 <= doc["kappa_star"] <= 4

    def test_bad_generator_spec(self, capsys):
        # a fractional or infinite size is an error, not truncated
        for spec in ("hexagonal:3", "diagonal:1.5", "full:1e400,1"):
            code, out, err = run(capsys, "kappa", "--gen", spec)
            assert (code, out) == (2, "")
            assert "error:" in err

    def test_missing_topology_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "kappa", "--topo", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in err


class TestDecompose:
    def test_identity_on_diagonal(self, capsys):
        code, out, _ = run(capsys, "decompose", "--gen", "diagonal:3", "--perm", "1,2,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == 3
        assert doc["receiver_blocks"] == [[1], [2], [3]]
        assert doc["transmitter_blocks"] == [[1], [2], [3]]

    def test_full_network_single_block(self, capsys):
        code, out, _ = run(capsys, "decompose", "--gen", "full:3,3", "--perm", "1,2,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == 1
        assert doc["receiver_blocks"] == [[1, 2, 3]]
        assert doc["transmitter_blocks"] == [[1, 2, 3]]

    def test_bad_permutation(self, capsys):
        code, _, err = run(capsys, "decompose", "--gen", "diagonal:3", "--perm", "1,2")
        assert code == 2
        assert "error:" in err
        code, _, err = run(capsys, "decompose", "--gen", "diagonal:3", "--perm", "a,b,c")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "--gen", "diagonal:2"],
        ["decompose", "--gen", "diagonal:2", "--perm", "2,1"],
    ],
)
def test_model_is_a_usage_error_where_it_is_not_read(capsys, argv):
    # only the grid commands load a fading model
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", "/nonexistent.json"])
    assert exc.value.code == 2
    assert "--model" in capsys.readouterr().err


class TestBounds:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "8,16,5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,kappa,loglog,lower,upper,feasible"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "100000000.0"
        assert first[-1] == "true"
        assert float(first[4]) > float(first[3])  # upper above lower

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--gen", "full:1,1", "--grid", "8,8,1", "--format", "json"
        )
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 1
        assert docs[0]["feasible"] is True
        assert docs[0]["upper_bound"] == pytest.approx(3.8117156885835115, rel=1e-9)
        # the per-level constants, assembled from the plan and the report
        [level] = docs[0]["constants"]["levels"]
        assert docs[0]["constants"]["frob_second_moment"] == 1.0
        assert (level["level"], level["transmitter"], level["witness"]) == (1, 1, 1)
        assert (level["x_min"], level["x_max"]) == allocation(1e8, 1).levels[0]
        assert (level["sigma_h"], level["sigma_w"], level["eps2"]) == (1.0, 1.0, 1.0)
        assert [level["rate_term"], level["interference_penalty"]] == docs[0]["per_level_terms"][0]

    def test_mixed_feasibility_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "5,9,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].endswith(",false")
        assert lines[2].endswith(",true")
        # one evaluator serves both commands: every shared cell is equal
        grid = ("--grid", "5,9,2", "--seed", "1", "--outer", "100", "--inner", "100")
        code, sweep_out, _ = run(capsys, "sweep", "--gen", "diagonal:2", *grid)
        assert code == 0
        bounds_rows = list(csv.DictReader(io.StringIO(out)))
        sweep_rows = list(csv.DictReader(io.StringIO(sweep_out)))
        assert len(bounds_rows) == len(sweep_rows) == 2
        for b, s in zip(bounds_rows, sweep_rows):
            for key in ("E", "loglog", "lower", "upper", "feasible"):
                assert b[key] == s[key]
        assert bounds_rows[0]["loglog"] != ""
        code, out, _ = run(
            capsys, "bounds", "--gen", "diagonal:2", "--grid", "5,9,2", "--format", "json"
        )
        infeasible = json.loads(out)[0]
        assert (infeasible["lower_bound"], infeasible["upper_bound"]) == (None, None)
        assert infeasible["loglog_term"] == float(lines[1].split(",")[2])
        code, sweep_json, _ = run(
            capsys, "sweep", "--gen", "diagonal:2", *grid, "--format", "json"
        )
        assert code == 0
        assert infeasible["note"] == json.loads(sweep_json)[0]["note"]
        assert infeasible["note"].startswith("below feasibility threshold")

    def test_all_infeasible_exit_code(self, capsys):
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "4,5,2")
        assert code == 4
        assert "feasibility" in err

    @pytest.mark.parametrize(
        "grid, feasible", [("8,12,3", 3), ("5,9,5", 2)], ids=["feasible", "mixed"]
    )
    def test_out_and_plot_data_files(self, capsys, tmp_path, grid, feasible):
        data = tmp_path / "bounds.csv"
        plot = tmp_path / "plot.csv"
        code, out, _ = run(
            capsys,
            "bounds",
            "--gen",
            "diagonal:2",
            "--grid",
            grid,
            "--out",
            str(data),
            "--plot-data",
            str(plot),
        )
        assert code == 0
        assert out == ""
        text = data.read_text()
        assert text.startswith("E,kappa,loglog")
        # the plot keeps only the feasible rows, with x = log log E
        kept = [row for row in csv.DictReader(io.StringIO(text)) if row["feasible"] == "true"]
        rows = [row.split(",") for row in plot.read_text().strip().splitlines()]
        assert len(kept) == len(rows) == feasible
        for row, (x, y) in zip(kept, rows):
            assert float(x) == math.log(math.log(float(row["E"])))
            assert y == row["lower"]

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "8,4,3")
        assert code == 2
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "8,9,1")
        assert code == 2
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "8,16")
        assert code == 2
        assert "START,STOP,POINTS" in err
        for grid in ("nan,16,3", "8,nan,3", "8,inf,3"):
            code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", grid)
            assert code == 2
            assert "finite" in err
        # budgets that underflow to 0.0 break the same contract as in sweep
        for grid in ("-330,1,3", "-400,-399,2"):
            code, out, err = run(capsys, "bounds", "--gen", "full:1,1", "--grid=" + grid)
            assert code == 2
            assert out == ""
            assert "positive" in err

    def test_non_finite_model_is_input_error(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"means": [[1, 1, NaN, 0]]}')
        code, out, err = run(
            capsys, "bounds", "--gen", "full:1,1", "--model", str(model), "--grid", "8,9,2"
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_threshold_overflow_is_input_error(self, capsys):
        # min_valid_snr overflows a double for kappa* = 12
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:12", "--grid", "8,16,3")
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_grid_overflow_is_input_error(self, capsys):
        # 10**400 is beyond double range
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "8,400,3")
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestSweep:
    def test_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--gen", "full:1,1", "--grid", "8,10,2",
            "--outer", "400", "--inner", "120",
        )
        assert code == 2
        assert "--seed" in err

    def test_huge_fading_variance(self, capsys, tmp_path):
        # at 1e200 the closed-form marginal's v_lo * v_hi left double range,
        # and mc read inf; the estimate sits in the noise-free limit, where a
        # variance of 1e100 already is.  At 1e300 the output power itself
        # leaves double range
        rows = {}
        for variance in ("1e100", "1e200", "1e300"):
            model = tmp_path / f"model{variance}.json"
            model.write_text(f'{{"covariance": [[[{variance}, 0]]]}}')
            code, out, err = run(
                capsys, "sweep", "--gen", "full:1,1", "--model", str(model),
                "--grid", "8,16,3", "--seed", "8", "--outer", "400", "--inner", "120",
            )
            if variance == "1e300":
                assert (code, out) == (2, "")
                assert err.startswith("error: level 1's output power at E = 1e+08")
                break
            assert code == 0
            # mc and mc_stderr at each point
            lines = out.splitlines()[1:]
            rows[variance] = [[float(v) for v in line.split(",")[4:6]] for line in lines]
        assert len(rows["1e200"]) == 3 and np.isfinite(rows["1e200"]).all()
        np.testing.assert_allclose(rows["1e200"], rows["1e100"], rtol=1e-9, atol=0)

    def test_loud_interferer(self, capsys, tmp_path):
        # from an interferer variance between 1e150 and 1e200 on the
        # Z-channel's level-1 witness, q / a^2 at the low end of the output
        # variance underflowed to 0, the closed-form marginal's log rho read
        # 0/0, and mc was nan
        rows = {}
        for variance in ("1e100", "1e150", "1e200", "1e250", "1e280"):
            model = tmp_path / f"model{variance}.json"
            cov = np.diag([1.0, float(variance), 1.0]).tolist()
            model.write_text(json.dumps({"covariance": [[[c, 0.0] for c in row] for row in cov]}))
            code, out, _ = run(
                capsys, "sweep", "--topo", Z_CHANNEL, "--model", str(model),
                "--grid", "8,16,3", "--seed", "1", "--outer", "2000",
            )
            assert code == 0
            lines = out.splitlines()[1:]
            rows[variance] = [[float(v) for v in line.split(",")[4:6]] for line in lines]
        assert len(rows["1e280"]) == 3 and np.isfinite(list(rows.values())).all()
        for values in rows.values():
            np.testing.assert_allclose(values, rows["1e100"], rtol=1e-9, atol=0)

    def test_grid_cap(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--gen", "full:1,1", "--grid", "8,18,2",
            "--seed", "1", "--outer", "400", "--inner", "120",
        )
        assert code == 2
        assert "capped" in err

    def test_non_finite_grid(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--gen", "full:1,1", "--grid", "nan,16,3",
            "--seed", "1", "--outer", "400", "--inner", "120",
        )
        assert code == 2
        assert "finite" in err
        for grid in ("-330,1,3", "-400,-399,2"):
            code, out, err = run(
                capsys, "sweep", "--gen", "full:1,1", "--grid=" + grid,
                "--seed", "1", "--outer", "400", "--inner", "120",
            )
            assert code == 2
            assert out == ""
            assert "positive" in err

    def test_csv_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--gen", "full:1,1",
            "--grid", "8,12,3",
            "--seed", "5",
            "--outer", "400",
            "--inner", "120",
            "--out", str(out_file),
        )
        assert code == 0
        # summary goes to stdout once the data has its own file
        assert out.startswith("kappa_star=1 fitted_slope=")
        assert "feasible_points=3/3" in out
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "E,kappa_star,loglog,lower,mc,mc_stderr,upper,feasible"
        assert len(lines) == 4

    def test_stdout_data_summary_on_stderr(self, capsys):
        code, out, err = run(
            capsys,
            "sweep",
            "--gen", "full:1,1",
            "--grid", "8,8,1",
            "--seed", "5",
            "--outer", "400",
            "--inner", "120",
        )
        assert code == 0
        assert out.startswith("E,kappa_star")
        assert "fitted_slope=n/a" in err

    def test_reruns_and_workers_are_byte_identical(self, capsys, tmp_path):
        files = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for path, workers in zip(files, ("1", "1", "2")):
            code, _, _ = run(
                capsys,
                "sweep",
                "--gen", "diagonal:2",
                "--grid", "8,10,2",
                "--seed", "42",
                "--outer", "400",
                "--inner", "120",
                "--workers", workers,
                "--out", str(path),
            )
            assert code == 0
        blobs = [path.read_bytes() for path in files]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_all_infeasible_exit_code(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--gen", "diagonal:2", "--grid", "4,5,2",
            "--seed", "1", "--outer", "400", "--inner", "120",
        )
        assert code == 4

    def test_unallocatable_outer_is_input_error(self, capsys):
        # 10**14 outer samples need 728 TiB, which numpy refuses at once
        code, out, err = run(
            capsys, "sweep", "--gen", "full:1,1", "--grid", "8,8,1", "--seed", "1",
            "--outer", "100000000000000", "--inner", "100",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid", ["4,5,2", "8,9,2"], ids=["infeasible", "feasible"])
    def test_too_few_samples_is_input_error_on_any_grid(self, capsys, grid):
        code, out, err = run(
            capsys, "sweep", "--gen", "diagonal:2", "--grid", grid, "--seed", "1", "--outer", "5"
        )
        assert code == 2
        assert out == ""
        assert "need at least 100" in err


class TestUnprunedTopologyFile:
    """bounds and sweep prune a --topo file, so a silent transmitter or a
    deaf receiver gives the same bytes as the pruned network."""

    COMMANDS = [
        ["bounds", "--grid", "8,16,5"],
        ["bounds", "--grid", "8,16,5", "--format", "json"],
        ["sweep", "--grid", "8,12,3", "--seed", "5", "--outer", "400", "--inner", "120"],
    ]

    @staticmethod
    def output(capsys, source, command, extra=()):
        code, out, _ = run(capsys, command[0], *source, *command[1:], *extra)
        assert code == 0
        return out

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("with_mean", [False, True])
    def test_silent_transmitter_matches_full_1_1(self, capsys, tmp_path, command, with_mean):
        topo = tmp_path / "net.json"
        topo.write_text('{"n_t": 2, "n_r": 1, "zeros": [[1, 2]]}')
        extra = ()
        if with_mean:
            model = tmp_path / "model.json"
            model.write_text('{"means": [[1, 1, 1.5, -0.5]]}')
            extra = ("--model", str(model))
        got = self.output(capsys, ("--topo", str(topo)), command, extra)
        assert got == self.output(capsys, ("--gen", "full:1,1"), command, extra)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_deaf_receiver_matches_z_channel(self, capsys, tmp_path, command):
        topo = tmp_path / "net.json"
        topo.write_text('{"n_t": 2, "n_r": 3, "zeros": [[2, 1], [3, 1], [3, 2]]}')
        z_channel = Path(__file__).resolve().parents[1] / "perfbench" / "z_channel.json"
        got = self.output(capsys, ("--topo", str(topo)), command)
        assert got == self.output(capsys, ("--topo", str(z_channel)), command)

    @pytest.mark.parametrize("command", ["bounds", "sweep"])
    def test_topology_that_prunes_to_nothing_is_input_error(self, capsys, tmp_path, command):
        topo = tmp_path / "net.json"
        topo.write_text('{"n_t": 1, "n_r": 2, "zeros": [[1, 1], [2, 1]]}')
        code, out, err = run(
            capsys, command, "--topo", str(topo), "--grid", "8,9,2", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert "prunes to nothing" in err


# JSON row keys in the order they are written
BOUNDS_HEAD = ["snr", "kappa", "loglog_term", "lower_bound", "upper_bound"]
SWEEP_KEYS = [
    "snr", "kappa_star", "loglog_term", "analytic_lower", "mc_estimate", "mc_stderr",
    "analytic_upper", "n_outer", "m_inner", "seed", "feasible", "note",
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["bounds", "sweep"])
def test_grid_table_on_out_matches_stdout(capsys, tmp_path, command, fmt):
    # a mixed grid: 1e5..1e7 lie below the two-level threshold, 1e8 and 1e9 above
    argv = [command, "--gen", "diagonal:2", "--grid", "5,9,5", "--format", fmt]
    if command == "sweep":
        argv += ["--seed", "1", "--outer", "100", "--inner", "100"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "table"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()
    if fmt == "csv":
        return
    rows = json.loads(out)
    assert [row["feasible"] for row in rows] == [False, False, False, True, True]
    for row in rows:
        if command == "sweep":
            assert list(row) == SWEEP_KEYS
        elif row["feasible"]:
            assert list(row) == BOUNDS_HEAD + ["per_level_terms", "constants", "feasible"]
        else:
            assert list(row) == BOUNDS_HEAD + ["feasible", "note"]


@pytest.mark.parametrize("command", ["bounds", "sweep"])
def test_oversized_grid_is_refused_before_it_is_built(capsys, monkeypatch, command):
    # POINTS is read before any budget is listed: 10**20 of them would take
    # the run until it is killed
    def unbuilt(grid):
        raise AssertionError("the oversized grid was built")

    monkeypatch.setattr(cli, "_check_grid", unbuilt)
    for points in (10**6 + 1, 10**20):
        code, out, err = run(
            capsys, command, "--gen", "diagonal:2", "--grid", f"8,16,{points}", "--seed", "1"
        )
        assert (code, out) == (2, "")
        assert err == f"error: --grid POINTS {points} exceeds the limit of 1000000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--gen", "diagonal:2", "--grid", "8,16,5"],
        ["sweep", "--gen", "diagonal:2", "--grid", "8,10,2", "--seed", "1",
         "--outer", "400", "--inner", "120"],
    ],
)
def test_longest_chain_runs_once_per_grid_command(capsys, monkeypatch, argv):
    original = powerchain.longest_chain
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # patch every module-level name the function is looked up by
    patched = []
    for name, module in list(sys.modules.items()):
        if name == "fadenet" or name.startswith("fadenet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
                    patched.append(f"{name}.{attr}")
    assert "fadenet.powerchain.longest_chain" in patched
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_cached_parser_carries_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "kappa", "--gen", "random:3,3,0.5", "--seed", "1")
    assert code == 0 and json.loads(out)["kappa_star"] >= 1
    code, out, err = run(capsys, "kappa", "--gen", "random:3,3,0.5")
    assert (code, out) == (2, "")
    assert "random topologies need --seed" in err
    grid = ("bounds", "--gen", "diagonal:2", "--grid", "8,16,3")
    code, out, _ = run(capsys, *grid, "--format", "json")
    assert code == 0 and len(json.loads(out)) == 3
    code, out, _ = run(capsys, *grid)
    assert code == 0
    assert out.splitlines()[0] == "E,kappa,loglog,lower,upper,feasible"
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fadenet")


@pytest.mark.parametrize(
    "argv,n_r",
    [
        (["kappa", "--gen", "diagonal:500"], 500),
        (["kappa", "--gen", "full:2,1000"], 1000),
        (["bounds", "--gen", "wyner_linear:24", "--grid", "8,16,3"], 25),
        (["sweep", "--gen", "wyner_cyclic:25", "--grid", "8,10,2", "--seed", "1"], 25),
        (["bounds", "--gen", "full:1000,1000", "--grid", "8,16,3"], 1000),
        # one hearer mask of 10**12 bits would need 125 GB
        (["kappa", "--gen", "full:1,1000000000000"], 10**12),
    ],
)
def test_oversized_spec_is_refused_before_it_is_built(capsys, monkeypatch, argv, n_r):
    # neither the hearer masks, nor the zero set, nor a fading model over the
    # network's entries may be built before the refusal
    with pytest.raises(powerchain.SizeGuardError) as guard:
        powerchain._check_receivers(n_r)

    def unbuilt(*args, **kwargs):
        raise AssertionError("the oversized network was built")

    monkeypatch.setattr(topology, "generate", unbuilt)
    monkeypatch.setattr(Topology, "zeros", property(unbuilt))
    monkeypatch.setattr(FadingModel, "iid_rayleigh", unbuilt)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {guard.value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa"],
        ["bounds", "--grid", "8,16,3"],
        ["sweep", "--grid", "8,16,3", "--seed", "1"],
    ],
    ids=["kappa", "bounds", "sweep"],
)
def test_oversized_topology_file_is_refused_before_it_is_built(capsys, monkeypatch, tmp_path, argv):
    # a 42-byte file naming 10**9 receivers, every one of which hears the one
    # transmitter: its count is read off the zero pairs, and no Topology, and
    # so no hearer mask of 10**9 bits, is built before the refusal
    topo = tmp_path / "wide.json"
    topo.write_text(json.dumps({"n_t": 1, "n_r": 10**9, "zeros": []}))
    assert topo.stat().st_size == 42
    with pytest.raises(powerchain.SizeGuardError) as guard:
        powerchain._check_receivers(10**9)

    def unbuilt(*args, **kwargs):
        raise AssertionError("the oversized network was built")

    monkeypatch.setattr(Topology, "__init__", unbuilt)
    monkeypatch.setattr(Topology, "_from_masks", unbuilt)
    code, out, err = run(capsys, argv[0], "--topo", str(topo), *argv[1:])
    assert (code, out) == (3, "")
    assert err == f"error: {guard.value}\n"


def test_decompose_builds_specs_over_the_chain_guard(capsys):
    perm = ",".join(map(str, range(1, 31)))
    code, out, _ = run(capsys, "decompose", "--gen", "diagonal:30", "--perm", perm)
    assert code == 0
    assert json.loads(out)["kappa"] == 30


# strings with non-ASCII, quote, backslash and control characters
_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
    )
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308]),
)
# the writer's domain, which is what fadenet's documents hold
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _FLOATS,
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(_TEXT, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        object(),
        np.int64(3),
        1 + 2j,
        {1, 2},
        b"bytes",
        [1.0, {"k": np.bool_(True)}],
        {(1, 2): 0.5},
        {"nested": {frozenset(): 1}},
    ],
    ids=["object", "np.int64", "complex", "set", "bytes", "np.bool_", "tuple key", "nested key"],
)
def test_json_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize(
    "value",
    [(1, 2), np.float64(1.0), {1: 2}, {True: 1}],
    ids=["tuple", "np.float64", "int key", "bool key"],
)
def test_json_writer_rejects_what_no_document_holds(value):
    # json.dumps takes each of these; the writer's domain is what fadenet prints
    json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _json_text(value)


Z_CHANNEL = str(Path(__file__).resolve().parents[1] / "perfbench" / "z_channel.json")
_SWEEP_JSON = ("--outer", "300", "--inner", "100", "--format", "json")


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "--gen", "wyner_cyclic:6"],
        ["kappa", "--topo", Z_CHANNEL],
        ["kappa", "--gen", "random:5,5,0.4", "--seed", "3"],
        ["decompose", "--gen", "diagonal:3", "--perm", "3,1,2"],
        ["decompose", "--topo", Z_CHANNEL, "--perm", "2,1"],
        ["bounds", "--gen", "wyner_linear:3", "--grid", "8,300,7", "--format", "json"],
        ["bounds", "--topo", Z_CHANNEL, "--model", "MODEL", "--grid", "5,16,4", "--format", "json"],
        ["bounds", "--gen", "full:2,2", "--grid", "1,16,4", "--format", "json"],
        ["bounds", "--gen", "random:6,6,0.5", "--seed", "4", "--grid", "40,60,3", "--format", "json"],
        ["sweep", "--topo", Z_CHANNEL, "--model", "MODEL", "--grid", "8,16,3", "--seed", "1",
         *_SWEEP_JSON],
        ["sweep", "--gen", "diagonal:2", "--grid", "5,16,3", "--seed", "2", *_SWEEP_JSON],
    ],
)
def test_every_json_document_is_what_json_dumps_writes(capsys, tmp_path, argv):
    # between them: --topo, random, infeasible rows, a Rician witness and a
    # correlated interferer, which takes the sweep's nested path
    model = tmp_path / "model.json"
    model.write_text(
        '{"means": [[1, 1, 1.0, 0.5], [2, 2, 0.0, -0.8]], "covariance": '
        "[[[1.0, 0.0], [0.3, 0.1], [0.0, 0.0]], [[0.3, -0.1], [1.0, 0.0], [0.0, 0.0]], "
        "[[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]]}"
    )
    code, out, _ = run(capsys, *[str(model) if a == "MODEL" else a for a in argv])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_deeply_nested_json_file_is_input_error(capsys, tmp_path):
    # json's parser recurses once per level of nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (
        ["kappa", "--topo", str(deep)],
        ["bounds", "--gen", "diagonal:2", "--grid", "8,16,3", "--model", str(deep)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: RecursionError: ")


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["kappa"], 0, ""),
        (["bounds", "--grid", "8,16,3"], 0, ""),
        (["sweep", "--grid", "8,16,3", "--seed", "1", "--outer", "300", "--inner", "100"],
         0, "kappa_star=1"),
        (["decompose", "--perm", "1,2,3"], 2, "error: decompose requires a pruned topology\n"),
    ],
    ids=["kappa", "bounds", "sweep", "decompose"],
)
def test_guard_counts_named_or_pruned_receivers_by_command(capsys, tmp_path, argv, code, err):
    # 26 receivers are named and 24 hear someone: kappa guards the hearing
    # count, the grid commands the pruned one, which is the same, and
    # decompose wants no deaf receiver at all
    topo = tmp_path / "net.json"
    zeros = [[r, t] for r in (25, 26) for t in (1, 2, 3)]
    topo.write_text(json.dumps({"n_t": 3, "n_r": 26, "zeros": zeros}))
    got_code, out, got_err = run(capsys, argv[0], "--topo", str(topo), *argv[1:])
    assert got_code == code
    assert bool(out) == (code == 0)
    # the sweep's summary line goes on to its fitted slope
    assert got_err == err or got_err.startswith(err + " ")
