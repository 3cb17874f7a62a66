"""Command-line front end.

Four subcommands: ``kappa`` (longest-chain computation), ``decompose``
(chain decomposition under a given transmitter ordering), ``bounds``
(analytic bound evaluation over an SNR grid), and ``sweep`` (bounds plus the
Monte Carlo estimate, written as CSV or JSON).

Every stochastic run demands an explicit --seed and is then bit-reproducible,
including under --workers parallelism.  Exit codes: 0 success, 2 bad input,
3 size guard tripped, 4 every grid point infeasible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bounds import AllocationInfeasibleError, Plan, _loglog_term, evaluate, plan
from .fading import FadingModel, load_fading_model
from .powerchain import SizeGuardError, decompose, longest_chain
from .simulate import (
    _check_grid, _to_csv, fit_loglog_slope, records_to_csv, records_to_json, snr_sweep
)
from .topology import Topology, load_topology, parse_generator_spec, prune

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_SIZE_GUARD = 3
_EXIT_INFEASIBLE = 4

_MC_SNR_CAP = 1e16  # estimator variance is unvalidated beyond this


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--topo", metavar="FILE", help="topology JSON file")
    src.add_argument(
        "--gen",
        metavar="SPEC",
        help="generator spec such as full:2,3 diagonal:4 wyner_linear:3 "
        "wyner_cyclic:4 random:3,4,0.5 (random needs --seed)",
    )
    sub.add_argument("--seed", type=int, help="root seed for anything stochastic")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--model",
        metavar="FILE",
        help="fading model JSON file (default: IID CN(0,1) on the nonzero entries)",
    )
    sub.add_argument(
        "--grid",
        metavar="START,STOP,POINTS",
        required=True,
        help="log-spaced SNR grid given as base-10 exponents, e.g. 8,16,5",
    )
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="PATH", help="write data here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadenet",
        description="High-SNR capacity analysis of non-coherent fading networks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_kappa = commands.add_parser(
        "kappa", help="longest power chain and its witnesses"
    )
    _add_source_flags(p_kappa)
    p_kappa.set_defaults(func=cmd_kappa)

    p_dec = commands.add_parser(
        "decompose", help="chain decomposition under a transmitter ordering"
    )
    _add_source_flags(p_dec)
    p_dec.add_argument(
        "--perm",
        required=True,
        metavar="P1,P2,...",
        help="transmitter ordering, a permutation of 1..n_t",
    )
    p_dec.set_defaults(func=cmd_decompose)

    p_bounds = commands.add_parser(
        "bounds", help="analytic lower and upper bounds over an SNR grid"
    )
    _add_source_flags(p_bounds)
    _add_grid_flags(p_bounds)
    p_bounds.add_argument(
        "--plot-data",
        metavar="PATH",
        help="also write two columns, log log E and the achievable bound",
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = commands.add_parser(
        "sweep", help="bounds plus Monte Carlo rate estimates over an SNR grid"
    )
    _add_source_flags(p_sweep)
    _add_grid_flags(p_sweep)
    p_sweep.add_argument("--outer", type=int, default=20000, help="outer MC samples")
    p_sweep.add_argument(
        "--inner",
        type=int,
        default=2000,
        help="inner draws of the level inputs per outer sample, used only on "
        "levels with two or more interferers or a correlated or nonzero-mean "
        "one; every other level uses deterministic quadrature",
    )
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel grid points")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _load_topo(args: argparse.Namespace) -> Topology:
    if args.topo is not None:
        return load_topology(args.topo)
    if args.gen.partition(":")[0].strip() == "random" and args.seed is None:
        raise ValueError("random topologies need --seed")
    return parse_generator_spec(args.gen, seed=args.seed)


def _load_model(args: argparse.Namespace, topo: Topology) -> FadingModel:
    if args.model is None:
        return FadingModel.iid_rayleigh(topo)
    return load_fading_model(args.model, topo)


def _load_pruned_network(args: argparse.Namespace) -> FadingModel:
    """The model of a grid command, on its topology with silent transmitters
    and deaf receivers removed.

    The model is read against the file's own labels.  Pruning drops only
    all-zero rows and columns and relabels monotonically, so the surviving
    entries keep their sorted order and the model's arrays carry over as
    they are.  Output labels are the pruned ones.
    """
    topo = _load_topo(args)
    model = _load_model(args, topo)
    pruned = prune(topo)
    if pruned.degenerate:
        raise ValueError("topology prunes to nothing: no receiver hears any transmitter")
    return FadingModel(pruned.topology, model.means, model.covariance, model.ar1_rho)


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("--grid wants START,STOP,POINTS")
    start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    if points == 1 and start != stop:
        raise ValueError("one-point grid needs START == STOP")
    step = (stop - start) / max(points - 1, 1)
    return _check_grid([10.0 ** (start + k * step) for k in range(points)])


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_kappa(args: argparse.Namespace) -> int:
    topo = _load_topo(args)
    kappa_star, chain = longest_chain(topo)
    doc = {
        "n_t": topo.n_t,
        "n_r": topo.n_r,
        "kappa_star": kappa_star,
        "chain_transmitters": list(chain.transmitters),
        "chain_witnesses": list(chain.witnesses),
    }
    print(json.dumps(doc, indent=2))
    return _EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    topo = _load_topo(args)
    try:
        perm = tuple(int(p) for p in args.perm.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --perm {args.perm!r}") from exc
    dec = decompose(topo, perm)
    doc = {
        "permutation": list(dec.permutation),
        "kappa": dec.kappa,
        "chain_positions": list(dec.chain_positions),
        "chain_transmitters": list(dec.chain.transmitters),
        "chain_witnesses": list(dec.chain.witnesses),
        "receiver_blocks": [sorted(b) for b in dec.receiver_blocks],
        "transmitter_blocks": [sorted(b) for b in dec.transmitter_blocks],
    }
    print(json.dumps(doc, indent=2))
    return _EXIT_OK


def _bounds_row(bounds_plan: Plan, snr: float) -> dict:
    try:
        return {**evaluate(bounds_plan, snr).to_json_dict(), "feasible": True}
    except AllocationInfeasibleError as exc:
        return {
            "snr": snr,
            "kappa": bounds_plan.kappa_star,
            "loglog_term": _loglog_term(bounds_plan.kappa_star, snr),
            "lower_bound": None,
            "upper_bound": None,
            "feasible": False,
            "note": f"below feasibility threshold {exc.threshold:.6g}",
        }


def cmd_bounds(args: argparse.Namespace) -> int:
    model = _load_pruned_network(args)
    grid = _parse_grid(args.grid)
    bounds_plan = plan(model)
    rows = [_bounds_row(bounds_plan, snr) for snr in grid]
    if not any(row["feasible"] for row in rows):
        print("every grid point is below the feasibility threshold", file=sys.stderr)
        return _EXIT_INFEASIBLE

    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        keys = ("snr", "kappa", "loglog_term", "lower_bound", "upper_bound", "feasible")
        cells = [tuple(row[key] for key in keys) for row in rows]
        _emit(_to_csv([("E", "kappa", "loglog", "lower", "upper", "feasible")] + cells), args.out)

    if args.plot_data:
        points = [
            (math.log(math.log(row["snr"])), row["lower_bound"]) for row in rows if row["feasible"]
        ]
        Path(args.plot_data).write_text(_to_csv(points))
    return _EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ValueError("sweep is stochastic; --seed is required")
    model = _load_pruned_network(args)
    grid = _parse_grid(args.grid)
    if any(v > _MC_SNR_CAP * (1 + 1e-12) for v in grid):
        raise ValueError(
            f"sweep grid is capped at E = {_MC_SNR_CAP:g}; "
            "estimator variance is unvalidated beyond that"
        )
    records = snr_sweep(model, grid, args.outer, args.inner, seed=args.seed, workers=args.workers)
    if not any(rec.feasible for rec in records):
        print("every grid point is below the feasibility threshold", file=sys.stderr)
        return _EXIT_INFEASIBLE

    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    _emit(text, args.out)

    try:
        slope, _, _ = fit_loglog_slope(records)
        summary = (
            f"kappa_star={records[0].kappa_star} fitted_slope={slope:.4f} "
            f"feasible_points={sum(r.feasible for r in records)}/{len(records)}"
        )
    except ValueError:
        summary = (
            f"kappa_star={records[0].kappa_star} fitted_slope=n/a "
            f"(needs 3 feasible points)"
        )
    # keep stdout clean for data when no --out was given
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return _EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SIZE_GUARD
    except AllocationInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except ArithmeticError as exc:
        # last resort: an input beyond double range (a huge --grid exponent,
        # a kappa* whose feasibility threshold overflows) is still bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_INPUT
