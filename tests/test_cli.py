import json
import sys
from pathlib import Path

import pytest

from fadenet import powerchain
from fadenet.cli import main
from fadenet.topology import generate, save_topology


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

    def test_mixed_feasibility_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "5,9,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].endswith(",false")
        assert lines[2].endswith(",true")
        # an infeasible point has the sweep's loglog cell at the same E
        grid = ("--grid", "5,9,2", "--seed", "1", "--outer", "100", "--inner", "100")
        code, sweep_out, _ = run(capsys, "sweep", "--gen", "diagonal:2", *grid)
        assert code == 0
        sweep_lines = sweep_out.strip().splitlines()
        assert sweep_lines[1].endswith(",false")
        assert lines[1].split(",")[2] == sweep_lines[1].split(",")[2] != ""
        code, out, _ = run(
            capsys, "bounds", "--gen", "diagonal:2", "--grid", "5,9,2", "--format", "json"
        )
        infeasible = json.loads(out)[0]
        assert (infeasible["lower_bound"], infeasible["upper_bound"]) == (None, None)
        assert infeasible["loglog_term"] == float(lines[1].split(",")[2])

    def test_all_infeasible_exit_code(self, capsys):
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "4,5,2")
        assert code == 4
        assert "feasibility" in err

    def test_out_and_plot_data_files(self, capsys, tmp_path):
        data = tmp_path / "bounds.csv"
        plot = tmp_path / "plot.csv"
        code, out, _ = run(
            capsys,
            "bounds",
            "--gen",
            "diagonal:2",
            "--grid",
            "8,12,3",
            "--out",
            str(data),
            "--plot-data",
            str(plot),
        )
        assert code == 0
        assert out == ""
        assert data.read_text().startswith("E,kappa,loglog")
        rows = plot.read_text().strip().splitlines()
        assert len(rows) == 3
        x, y = rows[0].split(",")
        float(x), float(y)  # both parse

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "8,4,3")
        assert code == 2
        code, _, err = run(capsys, "bounds", "--gen", "diagonal:2", "--grid", "8,9,1")
        assert code == 2
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
