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


def _dumps(doc) -> str:
    """The one serialization of every document the CLI prints or writes.
    numpy arrays in `doc` become lists here, so a text run never converts them."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        fh.write(_dumps(doc) + "\n")


def _matrix(labels, mat):
    width = max((len(s) for s in labels), default=1)
    for s, row in zip(labels, mat):
        yield f"{s:>{width}}  " + "  ".join(_fmt(v) for v in row)


def _cmd_analyze(args, chain):
    doc = report(analyze(chain))
    if args.out:
        _write_json(args.out, doc)

    def text():
        yield "thresholds: " + ", ".join(doc["alphas"])
        yield f"N = {doc['N']}"
        names = [" ".join(cls) for cls in doc["classes"]]
        for i, name in enumerate(names):
            yield f"class {i}: {name}"
        yield "mu (state x class):"
        yield from _matrix(chain.states, doc["mu"])
        yield "A (class x class):"
        yield from _matrix(names, doc["A"])
        yield "M (class x state):"
        yield from _matrix(names, doc["M"])
        if args.out:
            yield f"report written to {args.out}"

    return doc, text()


def _cmd_position(args, chain):
    if (args.t is None) == (args.fraction is None):
        raise InputError("give exactly one of --t and --fraction")
    if args.from_state is not None and args.from_state not in chain.index:
        raise InputError(f"unknown state {args.from_state!r}")
    P = position(analyze(chain), t=args.t, fraction=args.fraction)
    horizon = args.t if args.t is not None else -np.log1p(-args.fraction)
    doc = {"states": list(chain.states), "t": horizon, "position": P}
    if args.from_state is None:
        return doc, _matrix(chain.states, P)
    doc.update({"from": args.from_state, "position": P[chain.index[args.from_state]]})
    return doc, _matrix([args.from_state], [doc["position"]])


def _cmd_occupation(args, chain):
    if args.total == (args.t is not None):
        raise InputError("give exactly one of --t and --total")
    res = occupation(analyze(chain), t=args.t, total=args.total)
    doc = {"states": list(chain.states), "horizon": res.horizon, "occupation": res.matrix}

    def text():
        label = "total" if res.horizon is None else f"t = {_fmt(res.horizon)}"
        yield f"occupation ({label}):"
        yield from _matrix(chain.states, res.matrix)

    return doc, text()


def _cmd_payoff(args, chain):
    gdoc = read_json_file(args.g, "payoff", InputError)
    if not isinstance(gdoc, dict):
        raise InputError("payoff file must be a JSON object state -> number")
    vals = limit_payoff(analyze(chain), gdoc)
    return {"states": list(chain.states), "payoff": vals}, _matrix(chain.states, vals[:, None])


def _cmd_verify(args, chain):
    try:
        lambdas = [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"malformed --lambdas {args.lambdas!r}") from None
    if not lambdas:
        raise InputError("--lambdas must list at least one value")
    diag = convergence_sweep(chain, analyze(chain), args.t, lambdas)

    def text():
        columns = {"lambda": 12, "position_err": 14, "occupation_t_err": 17, "total_err": 12}
        yield "  ".join(f"{key:>{w}}" for key, w in columns.items())
        for e in diag.entries:
            yield "  ".join(f"{_fmt(e[key]):>{w}}" for key, w in columns.items())
        ok = lambda flag: "non-increasing" if flag else "NOT non-increasing"  # noqa: E731
        yield f"position error:     {ok(diag.position_non_increasing)}"
        yield f"occupation_t error: {ok(diag.occupation_non_increasing)}"
        yield f"total error:        {ok(diag.total_non_increasing)}"

    return diag.entries, text()


def _cmd_game_compile(args, _):
    chain, g = compile_game(*load_game(args.game))
    doc = {"chain": dump_chain(chain), "payoff": dict(zip(chain.states, g.tolist()))}
    if args.out:
        _write_json(args.out, doc["chain"])
    if args.payoff_out:
        _write_json(args.payoff_out, doc["payoff"])

    def text():
        yield f"chain written to {args.out}" if args.out else _dumps(doc["chain"])
        if args.out and args.payoff_out:
            yield f"payoff vector written to {args.payoff_out}"

    return doc, text()


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
        # one chain load and one print for every subcommand: each _cmd_* returns
        # its JSON document and a lazy text rendering, made only when printed
        doc, text = args.fn(args, load_chain(args.chain) if "chain" in args else None)
        for line in [_dumps(doc)] if args.json else text:
            print(line)
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalError, ResourceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
