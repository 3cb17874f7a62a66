"""Command-line front end.

Four subcommands: ``kappa`` (longest-chain computation), ``decompose``
(chain decomposition under a given transmitter ordering), ``bounds``
(analytic bound evaluation over an SNR grid), and ``sweep`` (bounds plus the
Monte Carlo estimate).  Both grid tables, CSV or JSON, are written by the one
writer ``_write_grid``; this module is the only one that knows their format.
Every JSON document the commands print is written by ``_json_text``, whose
domain is what those documents hold: dicts with string keys, lists, strings,
ints, floats, booleans and null.

Every stochastic run demands an explicit --seed and is then bit-reproducible,
including under --workers parallelism.  Exit codes: 0 success, 2 bad input,
3 size guard tripped, 4 every grid point infeasible.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

from . import topology
from .bounds import BoundReport, Plan, evaluate, plan
from .fading import FadingModel, load_fading_model
from .powerchain import SizeGuardError, _check_receivers, decompose, longest_chain
from .simulate import _check_grid, fit_loglog_slope, snr_sweep
from .topology import Topology, prune

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_SIZE_GUARD = 3
_EXIT_INFEASIBLE = 4

_MC_SNR_CAP = 1e16  # estimator variance is unvalidated beyond this
_MAX_GRID_POINTS = 10**6  # refused before the grid's list is built

_BOUNDS_HEADER = ("E", "kappa", "loglog", "lower", "upper", "feasible")
_SWEEP_HEADER = ("E", "kappa_star", "loglog", "lower", "mc", "mc_stderr", "upper", "feasible")


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
        help="log-spaced SNR grid given as base-10 exponents, e.g. 8,16,5; "
        f"POINTS is at most {_MAX_GRID_POINTS}",
    )
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="PATH", help="write data here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of ``main``: parsing leaves it unchanged and returns a fresh
    namespace, so no caller may add to it."""
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
    p_sweep.add_argument(
        "--outer",
        type=int,
        default=20000,
        help="outer samples per level: i.i.d. draws on nested-path levels, and "
        "on quadrature levels the points of 16 randomly shifted copies of one "
        "lattice rule folded by the baker's transform, whose spread gives the "
        "stderr; under about 1000 a one-interferer level's stderr can exceed "
        "the unfolded rule's",
    )
    p_sweep.add_argument(
        "--inner",
        type=int,
        default=2000,
        help="inner draws of the level inputs per outer sample, used only on "
        "levels with two or more interferers or a correlated or nonzero-mean "
        "one; every other level uses deterministic quadrature",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads sharing the (grid point, level) estimates, at most the "
        "CPU count; a second one pays on nested-path levels and ties with one "
        "on quadrature levels; the output bytes do not depend on it",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _load_topo(args: argparse.Namespace, exact_search: bool = True) -> Topology:
    """The topology of --topo or --gen.  For a command that runs the exact
    chain search, a receiver count over the search's guard is refused
    before the hearer masks are built: a --topo file's count of receivers
    that hear someone, read off its checked zero pairs, and a deterministic
    --gen spec's n_r, sized by ``topology._shape``, the rule ``generate``
    builds it by.  A ``random`` spec, which pruning may shrink, is guarded
    once built."""
    if args.topo is not None:
        n_t, n_r, zeros = topology._load_topology_fields(args.topo)
        if exact_search:
            _check_receivers(topology._hearing_receivers(n_t, n_r, zeros))
        return Topology(n_t, n_r, zeros)
    if args.gen.partition(":")[0].strip() == "random" and args.seed is None:
        raise ValueError("random topologies need --seed")
    kind, params = topology._split_spec(args.gen)
    if exact_search and kind != "random":
        _check_receivers(topology._shape(kind, params)[1])
    return topology.generate(kind, *params, seed=args.seed)


def _load_pruned_network(args: argparse.Namespace) -> FadingModel:
    """The model of a grid command, on its topology with silent transmitters
    and deaf receivers removed.

    Without --model the IID CN(0, 1) model is built once, on the pruned
    topology.  A --model file is read against the file's own labels.
    Pruning drops no fading entry and relabels the survivors in ascending
    order, so entry i of the file's ``nonzero_pairs()`` is entry i of the
    pruned one and the model's arrays carry over as they are
    (``tests/test_topology.py::test_prune_keeps_fading_entries_in_order``).
    Output labels are the pruned ones.  A network over the exact chain
    search's receiver guard is refused before any model is built.
    """
    topo = _load_topo(args)
    pruned = prune(topo)
    _check_receivers(pruned.n_r)
    model = None if args.model is None else load_fading_model(args.model, topo)
    if pruned.is_empty:
        raise ValueError("topology prunes to nothing: no receiver hears any transmitter")
    if model is None:
        return FadingModel.iid_rayleigh(pruned)
    return FadingModel(pruned, model.means, model.covariance, model.ar1_rho)


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("--grid wants START,STOP,POINTS")
    start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"--grid POINTS {points} exceeds the limit of {_MAX_GRID_POINTS}")
    if points == 1 and start != stop:
        raise ValueError("one-point grid needs START == STOP")
    step = (stop - start) / max(points - 1, 1)
    return _check_grid([10.0 ** (start + k * step) for k in range(points)])


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _to_csv(rows: Iterable[Sequence]) -> str:
    """CSV text with one line per row of cells.

    Floats are written with repr, the shortest round-trip form, so equal
    values always produce equal bytes.
    """
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without the standard
    library's pure-Python encoder, which ``indent`` selects.

    Takes exactly what fadenet's documents hold, by exact type: a dict with
    str keys, a list, a str, int, float, bool or None; anything else raises
    TypeError.  ``newline`` is the line break plus the indent of the
    enclosing level.
    """
    encode = _JSON_SCALARS.get(type(value))
    if encode is not None:
        return encode(value)
    inner = newline + "  "
    scalar = _JSON_SCALARS.get
    if type(value) is list:
        if not value:
            return "[]"
        items = [
            leaf(item) if (leaf := scalar(type(item))) else _json_text(item, inner)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key)
            + ": "
            + (leaf(item) if (leaf := scalar(type(item))) else _json_text(item, inner))
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


# the encoder of each scalar type, by exact type; bool is not an int here
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    float: _json_float,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _emit_json(doc, out: str | None) -> None:
    _emit(_json_text(doc) + "\n", out)


def _write_grid(
    args: argparse.Namespace, header: Sequence[str], cells: Iterable[Sequence], docs: Iterable
) -> None:
    """Emit ``cells`` as CSV under ``header``, or ``docs`` as an indented JSON
    list, as --format asks; only the one consumed is built from its iterator."""
    if args.format == "json":
        _emit_json(list(docs), args.out)
    else:
        _emit(_to_csv([header, *cells]), args.out)


def _bounds_doc(bounds_plan: Plan, report: BoundReport) -> dict:
    """A bounds JSON row: the allocation is left out, and an infeasible row
    carries its note in place of the per-level terms and constants, which
    are read off the plan's levels, the report and its allocation."""
    head = {
        "snr": report.snr,
        "kappa": report.kappa,
        "loglog_term": report.loglog_term,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
    }
    if not report.feasible:
        return {**head, "feasible": False, "note": report.note}
    levels = [
        {
            "level": level.nu,
            "transmitter": level.transmitter,
            "witness": level.witness,
            "x_min": x_min,
            "x_max": x_max,
            "sigma_h": level.sigma_h,
            "sigma_w": sigma_w,
            "e_log_h2": level.e_log_h2,
            "eps2": level.eps2,
            "rate_term": term,
            "interference_penalty": penalty,
        }
        for level, (x_min, x_max), sigma_w, (term, penalty) in zip(
            bounds_plan.levels, report.alloc.levels, report.sigma_w, report.per_level_terms
        )
    ]
    return {
        **head,
        "per_level_terms": [list(pair) for pair in report.per_level_terms],
        "constants": {"frob_second_moment": bounds_plan.frob2, "levels": levels},
        "feasible": True,
    }


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
    _emit_json(doc, None)
    return _EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    topo = _load_topo(args, exact_search=False)
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
    _emit_json(doc, None)
    return _EXIT_OK


def _any_feasible(points: list) -> bool:
    """Whether any grid point is feasible; if none is, says so on stderr."""
    if any(point.feasible for point in points):
        return True
    print("every grid point is below the feasibility threshold", file=sys.stderr)
    return False


def cmd_bounds(args: argparse.Namespace) -> int:
    model = _load_pruned_network(args)
    grid = _parse_grid(args.grid)
    bounds_plan = plan(model)
    reports = [evaluate(bounds_plan, snr) for snr in grid]
    if not _any_feasible(reports):
        return _EXIT_INFEASIBLE

    cells = (
        (r.snr, r.kappa, r.loglog_term, r.lower_bound, r.upper_bound, r.feasible) for r in reports
    )
    docs = (_bounds_doc(bounds_plan, r) for r in reports)
    _write_grid(args, _BOUNDS_HEADER, cells, docs)

    if args.plot_data:
        points = [(math.log(math.log(r.snr)), r.lower_bound) for r in reports if r.feasible]
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
    if not _any_feasible(records):
        return _EXIT_INFEASIBLE

    cells = (
        (r.snr, r.kappa_star, r.loglog_term, r.analytic_lower, r.mc_estimate, r.mc_stderr,
         r.analytic_upper, r.feasible)
        for r in records
    )
    _write_grid(args, _SWEEP_HEADER, cells, map(asdict, records))

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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SIZE_GUARD
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (ArithmeticError, MemoryError, RecursionError) as exc:
        # last resort: an input beyond double range (a huge --grid exponent,
        # a kappa* whose feasibility threshold overflows), beyond memory (a
        # huge --outer) or nested past the parser's depth is still bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_INPUT
