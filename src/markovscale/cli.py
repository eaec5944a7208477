"""Command-line front end.

Subcommands: analyze, position, occupation, payoff, verify, game-compile.
Human output prints numbers with 12 significant digits; --json switches every
command to a deterministic machine format (sorted keys, fixed separators).
Exit codes: 0 success, 1 input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chain_model import dump_chain, load_chain, read_json_file
from .errors import InputError, InternalError, ResourceError
from .evaluator import limit_payoff, occupation, position
from .games import compile_game, load_game
from .hierarchy import analyze, report
from .oracle import convergence_sweep


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract wants 1."""

    def error(self, message):
        raise InputError(f"{message}\n{self.format_usage()}".rstrip())


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _print_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _print_matrix(labels_out, mat) -> None:
    width = max((len(s) for s in labels_out), default=1)
    for s, row in zip(labels_out, mat):
        cells = "  ".join(_fmt(v) for v in row)
        print(f"{s:>{width}}  {cells}")


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_analyze(args) -> int:
    chain = load_chain(args.chain)
    model = analyze(chain)
    doc = report(model)
    if args.out:
        _write_json(args.out, doc)
    if args.json:
        _print_json(doc)
        return 0
    print("thresholds: " + ", ".join(doc["alphas"]))
    print(f"N = {doc['N']}")
    for i, cls in enumerate(doc["classes"]):
        print(f"class {i}: " + " ".join(cls))
    print("mu (state x class):")
    _print_matrix(chain.states, doc["mu"])
    print("A (class x class):")
    _print_matrix([" ".join(c) for c in doc["classes"]], doc["A"])
    print("M (class x state):")
    _print_matrix([" ".join(c) for c in doc["classes"]], doc["M"])
    if args.out:
        print(f"report written to {args.out}")
    return 0


def _cmd_position(args) -> int:
    chain = load_chain(args.chain)
    if (args.t is None) == (args.fraction is None):
        raise InputError("give exactly one of --t and --fraction")
    model = analyze(chain)
    P = position(model, t=args.t, fraction=args.fraction)
    horizon = args.t if args.t is not None else -np.log1p(-args.fraction)
    if args.from_state is not None:
        if args.from_state not in chain.index:
            raise InputError(f"unknown state {args.from_state!r}")
        row = P[chain.index[args.from_state]]
        if args.json:
            _print_json(
                {
                    "states": list(chain.states),
                    "t": horizon,
                    "from": args.from_state,
                    "position": [float(v) for v in row],
                }
            )
        else:
            _print_matrix([args.from_state], [row])
        return 0
    if args.json:
        _print_json(
            {
                "states": list(chain.states),
                "t": horizon,
                "position": [[float(v) for v in row] for row in P],
            }
        )
    else:
        _print_matrix(chain.states, P)
    return 0


def _cmd_occupation(args) -> int:
    chain = load_chain(args.chain)
    if args.total == (args.t is not None):
        raise InputError("give exactly one of --t and --total")
    model = analyze(chain)
    res = occupation(model, t=args.t, total=args.total)
    if args.json:
        _print_json(
            {
                "states": list(chain.states),
                "horizon": res.horizon,
                "occupation": [[float(v) for v in row] for row in res.matrix],
            }
        )
    else:
        label = "total" if res.horizon is None else f"t = {_fmt(res.horizon)}"
        print(f"occupation ({label}):")
        _print_matrix(chain.states, res.matrix)
    return 0


def _cmd_payoff(args) -> int:
    chain = load_chain(args.chain)
    gdoc = read_json_file(args.g, "payoff", InputError)
    if not isinstance(gdoc, dict):
        raise InputError("payoff file must be a JSON object state -> number")
    model = analyze(chain)
    vals = limit_payoff(model, gdoc)
    if args.json:
        _print_json({"states": list(chain.states), "payoff": [float(v) for v in vals]})
    else:
        width = max(len(s) for s in chain.states)
        for s, v in zip(chain.states, vals):
            print(f"{s:>{width}}  {_fmt(v)}")
    return 0


def _cmd_verify(args) -> int:
    chain = load_chain(args.chain)
    try:
        lambdas = [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"malformed --lambdas {args.lambdas!r}") from None
    if not lambdas:
        raise InputError("--lambdas must list at least one value")
    model = analyze(chain)
    diag = convergence_sweep(chain, model, args.t, lambdas)
    if args.json:
        _print_json(diag.entries)
        return 0
    print(f"{'lambda':>12}  {'position_err':>14}  {'occupation_t_err':>17}  {'total_err':>12}")
    for e in diag.entries:
        print(
            f"{_fmt(e['lambda']):>12}  {_fmt(e['position_err']):>14}  "
            f"{_fmt(e['occupation_t_err']):>17}  {_fmt(e['total_err']):>12}"
        )
    ok = lambda flag: "non-increasing" if flag else "NOT non-increasing"  # noqa: E731
    print(f"position error:     {ok(diag.position_non_increasing)}")
    print(f"occupation_t error: {ok(diag.occupation_non_increasing)}")
    print(f"total error:        {ok(diag.total_non_increasing)}")
    return 0


def _cmd_game_compile(args) -> int:
    game, x, y = load_game(args.game)
    chain, g = compile_game(game, x, y)
    doc = dump_chain(chain)
    if args.out:
        _write_json(args.out, doc)
    if args.payoff_out:
        _write_json(args.payoff_out, {s: float(v) for s, v in zip(chain.states, g)})
    if args.json:
        _print_json({"chain": doc, "payoff": {s: float(v) for s, v in zip(chain.states, g)}})
        return 0
    if not args.out:
        _print_json(doc)
    else:
        print(f"chain written to {args.out}")
        if args.payoff_out:
            print(f"payoff vector written to {args.payoff_out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="markovscale", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("analyze", parents=[common], help="full multi-scale analysis")
    p.add_argument("chain", metavar="CHAIN", help="chain JSON file")
    p.add_argument("--out", metavar="REPORT", help="write the report JSON here")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("position", parents=[common], help="limit position matrix")
    p.add_argument("chain", metavar="CHAIN")
    p.add_argument("--t", type=float, help="time on the 1/lambda scale")
    p.add_argument("--fraction", type=float, help="fraction of discounted weight in [0,1)")
    p.add_argument("--from", dest="from_state", metavar="STATE", help="print one row only")
    p.set_defaults(fn=_cmd_position)

    p = sub.add_parser("occupation", parents=[common], help="limit occupation measure")
    p.add_argument("chain", metavar="CHAIN")
    p.add_argument("--t", type=float, help="finite horizon (> 0)")
    p.add_argument("--total", action="store_true", help="total occupation")
    p.set_defaults(fn=_cmd_occupation)

    p = sub.add_parser("payoff", parents=[common], help="limit discounted payoff")
    p.add_argument("chain", metavar="CHAIN")
    p.add_argument("--g", required=True, metavar="GFILE", help="JSON object state -> payoff")
    p.set_defaults(fn=_cmd_payoff)

    p = sub.add_parser("verify", parents=[common], help="oracle convergence sweep")
    p.add_argument("chain", metavar="CHAIN")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambdas", required=True, help="comma-separated, strictly decreasing")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("game-compile", parents=[common], help="reduce a game to a chain")
    p.add_argument("game", metavar="GAME", help="game JSON file with strategies")
    p.add_argument("--out", metavar="CHAIN", help="write the compiled chain here")
    p.add_argument("--payoff-out", metavar="VEC", help="write the payoff vector here")
    p.set_defaults(fn=_cmd_game_compile)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalError, ResourceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
