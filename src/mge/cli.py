"""Command-line front end.

Subcommands cover the whole pipeline: building groups from expressions,
isomorphism and embedding tests, catalog enumeration, minimal-order search,
the bound calculators, certificate verification, and the scenario runner.
Exit codes: 0 all checks passed, 1 a check failed or a search was negative,
2 usage or configuration errors.  Skipped scenario items (tier limits) do
not affect the exit code.  The tier is read from MGE_TIER alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import enumerator, registry, verify
from ._version import ENGINE_VERSION
from .errors import EngineError, OutOfRange
from .groups import TableGroup, construct
from .morphisms import find_embedding, is_isomorphic
from .numtheory import FACTOR_LIMIT


def _cmd_construct(args) -> int:
    g = construct(args.expr)
    print(f"order {g.order}")
    if isinstance(g, TableGroup):
        print(f"exponent {g.exponent}")
        print(f"abelian {g.is_abelian}")
        print(f"center {len(g.center_elements)}")
        print(f"conjugacy classes {len(g.class_reps)}")
    else:
        print(f"components {', '.join(g.comp_names)}")
        print(f"twist rank {g.rank}")
    print(f"generators {', '.join(g.gens)}")
    return 0


def _cmd_iso(args) -> int:
    a, b = construct(args.left), construct(args.right)
    m = is_isomorphic(a, b)
    if m is None:
        print("not isomorphic")
        return 1
    pairs = ", ".join(f"{s} -> {t}" for s, t in m.witness_words())
    print(f"isomorphic via {pairs}" if pairs else "isomorphic (trivial)")
    return 0


def _cmd_embed(args) -> int:
    h, g = construct(args.inner), construct(args.outer)
    support = args.support.split(",") if args.support else None
    m = find_embedding(h, g, support=support)
    if m is None:
        if isinstance(g, TableGroup):
            print("no embedding")
        else:
            print("no embedding found in the searched pool (inconclusive)")
        return 1
    pairs = ", ".join(f"{s} -> {t}" for s, t in m.witness_words())
    print(f"embeds via {pairs}" if pairs else "embeds (trivial)")
    return 0


def _cmd_enumerate(args) -> int:
    cat = enumerator.enumerate_groups(args.order)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(cat.dumps() + "\n")
        print(f"{len(cat)} groups of order {args.order} -> {args.out}")
    else:
        print(f"{len(cat)} groups of order {args.order}")
        for e in cat.entries:
            print(f"  {e.recipe_text}")
    return 0


def _cmd_minimal(args) -> int:
    kind = "order" if args.order is not None else "upto"
    n = args.order if args.order is not None else args.upto
    out = verify.minimal_embedding_search(kind, n, args.max)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not out.found:
        print(f"exhausted({args.max}): no group up to order {args.max} hosts {out.collection}")
        return 1
    print(f"minimal order {out.found_order} for {out.collection}")
    for text in out.groups:
        print(f"  {text}")
    return 0


BOUND_DIGITS = 4000  # below the 4300 digits Python prints an int with by default


def _require_printable(digits: float) -> None:
    """Refuse a bound whose decimal length, estimated from its logarithm
    before anything is multiplied, is over BOUND_DIGITS."""
    if digits > BOUND_DIGITS:
        raise OutOfRange(f"the bound has more than {BOUND_DIGITS} digits, "
                         f"the most `mge bounds` prints")


def _cmd_bounds(args) -> int:
    arg = args.pbound[0] if args.pbound is not None else (
        args.nbound if args.nbound is not None else args.collection)
    if arg > FACTOR_LIMIT:
        raise OutOfRange(f"{arg} is over {FACTOR_LIMIT}, the most `mge bounds` factors")
    if args.pbound is not None:
        p, k = args.pbound
        if p > 1:
            _require_printable((2 * k - 1) * math.log10(p))
        print(registry.pbound(p, k))
    elif args.nbound is not None:
        digits = 0.0
        for factor in registry.nbound_factors(args.nbound):  # stops at the first refusal
            digits += math.log10(factor)
            _require_printable(digits)
        print(registry.nbound(args.nbound))
    else:
        print(registry.collection_bound(args.collection))
    return 0


def _report(rep, json_path) -> int:
    for line in rep.lines():
        print(line)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(rep.dumps())
    return 0 if rep.passed else 1


def _cmd_verify(args) -> int:
    return _report(verify.verify_certificate(args.certificate), args.json)


def _cmd_reproduce(args) -> int:
    return _report(verify.reproduce(args.scenario), args.json)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mge",
        description="finite-group construction, embedding search, and "
                    "minimal-embedding verification",
    )
    ap.add_argument("--version", action="version", version=f"mge {ENGINE_VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a group and print its invariants")
    p.add_argument("expr", help="group expression, e.g. 'D(4) x C(3)' or 'named(H2)'")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("iso", help="test two expressions for isomorphism")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("embed", help="search for an embedding of one group in another")
    p.add_argument("inner")
    p.add_argument("outer")
    p.add_argument("--support", help="comma-separated component names or indices "
                                     "restricting the image (twisted hosts only)")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("enumerate", help="list all groups of an order up to isomorphism")
    p.add_argument("order", type=int)
    p.add_argument("--out", help="write the catalog as JSON to this path")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("minimal", help="least order hosting a whole collection")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--order", type=int, help="collection: all groups of this order")
    mode.add_argument("--upto", type=int, help="collection: all groups up to this order")
    p.add_argument("--max", type=int, required=True, help="largest order to try")
    p.add_argument("--json", help="write the search outcome to this path")
    p.set_defaults(fn=_cmd_minimal)

    p = sub.add_parser("bounds", help="divisibility lower bounds for embedding orders")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pbound", nargs=2, type=int, metavar=("P", "K"),
                      help="bound from hosting C(p^k) and the rank-k power of C(p)")
    mode.add_argument("--nbound", type=int, metavar="N",
                      help="bound for hosting every group of order at most N")
    mode.add_argument("--collection", type=int, metavar="N",
                      help="bound for hosting every group of order exactly N")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("verify", help="check every claim of a certificate file")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.add_argument("--json", help="write the report to this path")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reproduce", help="run a named verification scenario")
    p.add_argument("scenario", choices=verify.scenario_ids())
    p.add_argument("--json", help="write the report to this path")
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (EngineError, OSError, ValueError) as e:  # a JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
