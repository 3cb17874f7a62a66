"""The benchmark's workloads: the CLI invocations of one pass, and the checks
on their outputs.

Every invocation is a ``fadenet.cli.main`` argument list.  A check gets the
invocation's stdout and stderr and returns the problems it found, plus the
Monte Carlo standard errors the output carries (none for exact results).
NOTES.md gives the reason for each workload and the inputs left out.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fadenet.powerchain import PowerChain, is_power_chain, longest_chain, validate_chain
from fadenet.topology import load_topology, parse_generator_spec

Z_CHANNEL = Path(__file__).resolve().parent / "z_channel.json"
WORKERS = 2  # one per core of the 2-core reference machine; BLAS has 1 thread
MC_INNER = 2000
# mc_diag's fitted slope sits near 1.81; 3000 outer samples put its standard
# error near 0.023, so criterion 6c's band edge at 1.7 is ~5 errors away
MC_DIAG_OUTER = 3000
# ~3.5 s passes; the stderr estimate's own scatter across seeds, which
# time_to_se01_s squares, stays near 5%
MC_INTERF_OUTER = 2000
SLOPE_TOLERANCE = 0.15  # criterion 6c: |slope - kappa*| <= 15% of kappa*
SE_MARGIN = 3.0

Check = Callable[[str, str], "tuple[list[str], list[float]]"]


@dataclass(frozen=True)
class Case:
    argv: list[str]
    check: Check
    points: int  # results one invocation delivers: grid points or one kappa*

    @property
    def is_sweep(self) -> bool:
        return self.argv[0] == "sweep"

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: list[Case]
    exact: bool  # no Monte Carlo error in the results
    # calibration samples timed before and after each op; 0 leaves the op's
    # time unscaled.  See NOTES.md
    calibration_repeats: int

    @property
    def points(self) -> int:
        return sum(case.points for case in self.cases)


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def kappa_case(spec: str, kappa: int, seed: int | None = None) -> Case:
    topo = parse_generator_spec(spec, seed=seed)
    argv = ["kappa", "--gen", spec] + ([] if seed is None else ["--seed", str(seed)])

    def check(out: str, err: str):
        try:
            doc = json.loads(out)
            chain = PowerChain(tuple(doc["chain_transmitters"]), tuple(doc["chain_witnesses"]))
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable kappa output: {exc}"], []
        problems = []
        if doc["kappa_star"] != kappa or len(chain) != kappa:
            problems.append(f"kappa* {doc['kappa_star']} (chain {len(chain)}), expected {kappa}")
        if not is_power_chain(topo, chain.transmitters):
            problems.append("returned chain is not a power chain")
        else:
            try:
                validate_chain(topo, chain)
            except ValueError as exc:
                problems.append(str(exc))
        return problems, []

    return Case(argv, check, points=1)


def bounds_case(source: list[str], grid: str, kappa: int, fmt: str = "csv") -> Case:
    points = int(grid.split(",")[2])
    argv = ["bounds", *source, "--grid", grid] + (["--format", fmt] if fmt != "csv" else [])

    def check(out: str, err: str):
        try:
            if fmt == "json":
                rows = [
                    (d["kappa"], d["feasible"], d["lower_bound"], d["upper_bound"])
                    for d in json.loads(out)
                ]
            else:
                table = list(csv.DictReader(io.StringIO(out)))
                rows = [
                    (int(r["kappa"]), r["feasible"] == "true", _finite(r["lower"]), _finite(r["upper"]))
                    for r in table
                ]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable bounds output: {exc}"], []
        problems = []
        if len(rows) != points:
            problems.append(f"{len(rows)} rows, expected {points}")
        for i, (k, feasible, lower, upper) in enumerate(rows):
            if k != kappa or feasible is not True:
                problems.append(f"row {i}: kappa {k}, feasible {feasible}")
            elif not all(isinstance(v, float) and math.isfinite(v) for v in (lower, upper)):
                problems.append(f"row {i}: non-finite bounds {lower}, {upper}")
            elif lower > upper:
                problems.append(f"row {i}: lower {lower} above upper {upper}")
        return problems, []

    return Case(argv, check, points=points)


def sweep_case(source: list[str], grid: str, outer: int, seed: int, kappa: int, fit_slope: bool) -> Case:
    points = int(grid.split(",")[2])
    argv = [
        "sweep", *source, "--grid", grid, "--outer", str(outer), "--inner", str(MC_INNER),
        "--workers", str(WORKERS), "--seed", str(seed),
    ]

    def check(out: str, err: str):
        try:
            table = list(csv.DictReader(io.StringIO(out)))
            rows = [
                (float(r["E"]), int(r["kappa_star"]), r["feasible"] == "true",
                 _finite(r["lower"]), _finite(r["mc"]), _finite(r["mc_stderr"]), _finite(r["upper"]))
                for r in table
            ]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable sweep output: {exc}"], []
        problems = []
        if len(rows) != points:
            problems.append(f"{len(rows)} rows, expected {points}")
        stderrs = []
        for e, k, feasible, lower, mc, se, upper in rows:
            if k != kappa or not feasible or None in (lower, mc, se, upper) or se <= 0:
                problems.append(f"E={e:g}: kappa {k}, feasible {feasible}, se {se}")
                continue
            stderrs.append(se)
            if lower > mc + SE_MARGIN * se:
                problems.append(f"E={e:g}: lower {lower} above mc {mc} + {SE_MARGIN} se")
            if mc - SE_MARGIN * se > upper:
                problems.append(f"E={e:g}: mc {mc} - {SE_MARGIN} se above upper {upper}")
        if fit_slope and not problems:
            x = [math.log(math.log(row[0])) for row in rows]
            slope = float(np.polyfit(x, [row[4] for row in rows], 1)[0])
            if abs(slope - kappa) > SLOPE_TOLERANCE * kappa:
                problems.append(f"fitted slope {slope:.4f} outside {kappa} +- {SLOPE_TOLERANCE:.0%}")
            if f"fitted_slope={slope:.4f}" not in err:
                problems.append(f"summary {err.strip()!r} disagrees with slope {slope:.4f}")
        return problems, stderrs

    return Case(argv, check, points=points)


def _check_z_channel() -> None:
    # the point of mc_interf: kappa* = 2 and level 1's witness hears level 2
    topo = load_topology(Z_CHANNEL)
    kappa, chain = longest_chain(topo)
    hearable = [t for t in chain.transmitters[1:] if (chain.witnesses[0], t) not in topo.zeros]
    if kappa != 2 or len(hearable) != 1:
        raise SystemExit(f"{Z_CHANNEL.name}: kappa*={kappa}, level-1 interferers {len(hearable)}")


def build(name: str, seed: int) -> Workload:
    """The workload called ``name``; ``seed`` is the Monte Carlo sweeps' --seed."""
    if name == "chain":
        return Workload(name, [
            kappa_case("diagonal:18", 18),
            kappa_case("random:22,22,0.8", 17, seed=5),
            kappa_case("wyner_linear:20", 20),
            kappa_case("wyner_cyclic:16", 15),
        ], exact=True, calibration_repeats=5)
    if name == "bounds":
        return Workload(name, [
            bounds_case(["--gen", "diagonal:2"], "8,16,50", 2),
            bounds_case(["--gen", "wyner_cyclic:6"], "66,300,50", 5),
            bounds_case(["--gen", "random:16,16,0.3", "--seed", "5"], "100,300,50", 6),
            bounds_case(["--gen", "wyner_linear:8"], "191,300,50", 8, fmt="json"),
        ], exact=True, calibration_repeats=5)
    if name == "mc_diag":
        return Workload(name, [
            sweep_case(["--gen", "diagonal:2"], "8,16,5", MC_DIAG_OUTER, seed, 2, fit_slope=True),
        ], exact=False, calibration_repeats=0)
    if name == "mc_interf":
        _check_z_channel()
        return Workload(name, [
            sweep_case(["--topo", str(Z_CHANNEL)], "8,16,3", MC_INTERF_OUTER, seed, 2, fit_slope=False),
        ], exact=False, calibration_repeats=0)
    raise ValueError(f"unknown workload {name!r}")
