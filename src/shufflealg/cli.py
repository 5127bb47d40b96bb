"""Command-line interface.

Subcommands: paths (enum/stats/chi), actions (build/lhs), sweep (path/dp),
braid (eval/of-coloring), verify (shuffle/suite/relation).  All output is JSON
with deterministic ordering; exit status is 1 when a verification fails and 2,
with a JSON {"error": ...} on stdout and nothing on stderr, when the
command line cannot be parsed or the input cannot be computed (this
includes input too deep for Python's recursion limit, a path whose
characteristic function is over `char_function`'s word budget, a
relation whose k is over `vkspace.STRAND_BUDGET` or whose spanning set is over
`vkspace.SPANNING_BUDGET`, a `braid eval` k over `vkspace.STRAND_BUDGET`, and a
`verify shuffle` triple whose (g n1)! words per path times its Dyck paths exceed
`verify.SHUFFLE_BUDGET`).
When the reader of stdout goes away (`shufflealg ... | head -1`), the exit
status is 2 and nothing is printed on either stream.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from . import actions as ac
from . import braid as br
from . import combinat as cb
from . import sweep as sw
from . import verify as vf
from . import vkspace as vk
from .scalars import ExactDomain


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_path(text: str) -> cb.DyckPath:
    text = text.strip()
    if set(text) != {"0", "1"}:
        raise ValueError(f"--path must be a string of 0 (East) and 1 (North) steps "
                         f"with at least one of each, got {text!r}")
    bits = [int(c) for c in text]
    return cb.DyckPath(bits.count(0), bits.count(1), bits)


def _check_at_least_zero(args, *names):
    for name in names:
        if getattr(args, name) < 0:
            raise ValueError(f"--{name} must be at least 0, got {getattr(args, name)}")


def _parse_alpha(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--alpha must be comma-separated integers, got {text!r}") from None


def cmd_paths(args):
    dom = ExactDomain()
    if args.paths_cmd == "enum":
        alpha = _parse_alpha(args.alpha) if args.alpha is not None else None
        paths = cb.enumerate_paths(args.m, args.n, alpha)
        _emit({"m": args.m, "n": args.n,
               "alpha": list(alpha) if alpha else None,
               "count": len(paths),
               "paths": sorted(str(p) for p in paths)}, args.out)
    elif args.paths_cmd == "stats":
        p = _parse_path(args.path)
        st = cb.statistics(p)
        mp = cb.attack_structure(p)
        _emit({"path": str(p), "m": p.m, "n": p.n,
               "touch_composition": list(cb.touch_composition(p)),
               "area": st["area"], "dinv": st["dinv"], "maxtdinv": st["maxtdinv"],
               "pi_prime": str(mp.pi_prime),
               "marks": sorted(list(c) for c in mp.marks)}, args.out)
    else:  # chi
        p = _parse_path(args.path)
        mp = cb.attack_structure(p)
        chi = cb.char_function(mp, dom)
        payload = {"path": str(p), "chi": chi.to_json()}
        if args.weighted:
            payload["weight"] = cb.path_weight(p, dom).to_json()
        _emit(payload, args.out)
    return 0


def cmd_actions(args):
    dom = ExactDomain()
    if args.actions_cmd == "build":
        probe = ac.build_action(dom, args.m, args.n).dplus(vk.VElem.one(dom, 0))
        _emit({"m": args.m, "n": args.n, "dplus_on_1": str(probe)}, args.out)
    else:  # lhs
        alpha = _parse_alpha(args.alpha)
        val = ac.lhs_compositional(args.m1, args.n1, args.g, alpha, dom)
        _emit({"m1": args.m1, "n1": args.n1, "g": args.g, "alpha": list(alpha),
               "lhs": val.to_json()}, args.out)
    return 0


def cmd_sweep(args):
    dom = ExactDomain()
    if args.sweep_cmd == "path":
        p = _parse_path(args.path)
        events = sw.event_sequence(p)
        val = sw.sweep_path(p, dom)
        _emit({"path": str(p),
               "events": [{"point": list(e.point), "kind": e.kind, "a": e.a}
                          for e in events],
               "value": val.to_json()}, args.out)
    else:  # dp
        events = sw.dp_events(args.m, args.n)
        for _, state in sw.dp_strata(sw.transitions(events), dom):
            pass   # every reachable coloring, complete or not
        payload = {"m": args.m, "n": args.n,
                   "events": [list(e) for e in events],
                   "colorings": len(state)}
        if args.emit_colorings:
            payload["state"] = [{"intervals": [list(iv) for iv in key],
                                 "value": str(val)}
                                for key, val in sorted(state.items())]
        _emit(payload, args.out)
    return 0


def cmd_braid(args):
    dom = ExactDomain()
    if args.braid_cmd == "eval":
        _check_at_least_zero(args, "k")
        _, gens = vk.parse_word(args.word)
        word = br.BraidWord(args.k, gens)
        val = br.evaluate(word, vk.dplus_power(dom, args.k))
        _emit({"word": str(word), "k": args.k,
               "on": f"d_+^{args.k}(1)", "value": str(val)}, args.out)
    else:  # of-coloring
        with open(args.coloring) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "intervals" not in data:
            raise ValueError(f"{args.coloring} has no \"intervals\" list")
        intervals = data["intervals"]
        if not isinstance(intervals, list) or not all(
                isinstance(iv, list) and len(iv) == 2 and all(type(c) is int for c in iv)
                and 0 <= iv[0] <= args.m and 0 <= iv[1] <= args.n for iv in intervals):
            raise ValueError(f"\"intervals\" must be a list of integer pairs [x, y] "
                             f"with 0 <= x <= {args.m} and 0 <= y <= {args.n}")
        intervals = tuple(tuple(iv) for iv in intervals)
        events = sw.dp_events(args.m, args.n)
        stratum = data.get("stratum", len(events))
        if type(stratum) is not int or not 0 <= stratum <= len(events):
            raise ValueError(f"stratum must be an integer from 0 to {len(events)}")
        g = gcd(args.m, args.n)
        h = br.safe_height(*sw.stratum_bounds(args.m, args.n, events, stratum),
                           args.m // g, args.n // g)
        word, cfg0, cfg1 = br.braid_of_coloring(args.m // g, args.n // g, intervals, h)
        _emit({"m": args.m, "n": args.n, "intervals": [list(iv) for iv in intervals],
               "stratum": stratum, "braid": str(word),
               "inv_initial": br._inversions(cfg0),
               "inv_final": br._inversions(cfg1)}, args.out)
    return 0


def cmd_verify(args):
    if args.verify_cmd == "shuffle":
        cfg = vf.JobConfig(m1=args.m1, n1=args.n1, g=args.g,
                           alpha=_parse_alpha(args.alpha) if args.alpha is not None else None)
        report = vf.verify_shuffle(cfg)
        _emit(report, args.out)
        return 0 if report["ok"] else 1
    dom = ExactDomain()
    if args.verify_cmd == "relation":
        _check_at_least_zero(args, "k", "degree")
        lhs = vk.parse_word(args.lhs, dom)
        rhs = vk.parse_word(args.rhs, dom)
        rep = vk.relation_check([lhs], [rhs], args.k, args.degree, dom,
                                name=f"{args.lhs} = {args.rhs}")
        _emit({"relation": rep.name, "k": args.k, "degree": args.degree,
               "passed": rep.passed, "cases": rep.cases,
               "witness": rep.witness}, args.out)
        return 0 if rep.passed else 1
    report = vf.run_suite(args.name, dom)
    _emit(report, args.out)
    return 0 if not report["failures"] else 1


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line, so main reports it as JSON, not on stderr."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    ap = _Parser(prog="shufflealg", description="Exact Dyck-path-algebra calculator")
    ap.add_argument("--out", default=None, help="write JSON report to this file")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("paths")
    ps = p.add_subparsers(dest="paths_cmd", required=True)
    q = ps.add_parser("enum")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--alpha", default=None)
    q = ps.add_parser("stats")
    q.add_argument("--path", required=True)
    q = ps.add_parser("chi")
    q.add_argument("--path", required=True)
    q.add_argument("--weighted", action="store_true")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("actions")
    ps = p.add_subparsers(dest="actions_cmd", required=True)
    q = ps.add_parser("build")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q = ps.add_parser("lhs")
    q.add_argument("--m1", type=int, required=True)
    q.add_argument("--n1", type=int, required=True)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_actions)

    p = sub.add_parser("sweep")
    ps = p.add_subparsers(dest="sweep_cmd", required=True)
    q = ps.add_parser("path")
    q.add_argument("--path", required=True)
    q = ps.add_parser("dp")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--emit-colorings", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("braid")
    ps = p.add_subparsers(dest="braid_cmd", required=True)
    q = ps.add_parser("eval")
    q.add_argument("--word", required=True)
    q.add_argument("--k", type=int, required=True)
    q = ps.add_parser("of-coloring")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--coloring", required=True, help="JSON file with intervals")
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("verify")
    ps = p.add_subparsers(dest="verify_cmd", required=True)
    q = ps.add_parser("shuffle")
    q.add_argument("--m1", type=int, required=True)
    q.add_argument("--n1", type=int, required=True)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--alpha", default=None)
    q = ps.add_parser("suite")
    q.add_argument("name", help="relations|sweep|coloring|braid_formula|braid|trains|specialbraids|all")
    q = ps.add_parser("relation")
    q.add_argument("--lhs", required=True, help='e.g. "z1 d+"')
    q.add_argument("--rhs", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    try:
        args = ap.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout is closed: drop what is still buffered instead of failing again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, ArithmeticError, OSError, RecursionError, ResourceWarning) as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        return 2


if __name__ == "__main__":
    sys.exit(main())
