"""Command-line front end.

Subcommands: gr info, classes, count, exists, construct, enumerate, table,
verify.  Every one prints through one emitter: under --json (table: --format
json) a JSON document with the three top-level keys "parameters", "result",
"breakdown", otherwise its text lines.  Output is deterministic: identical
invocations produce identical bytes (verify only adds wall-clock times under
--timings).  Exit codes: 0 success, 1 verification failure, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from functools import lru_cache, partial

from .counting import (abelian_count, cyclic_count_n, cyclic_count_p2,
                       euclidean_abelian_count, euclidean_cyclic_count_n,
                       euclidean_cyclic_count_p2, euclidean_semisimple_count,
                       exists_self_dual, hermitian_abelian_count,
                       hermitian_cyclic_count_n, hermitian_cyclic_count_p2,
                       hermitian_semisimple_count, is_principal_ideal_group_ring)
from .cyclotomic import partition
from .errors import BoundExceededError, DomainError
from .galois import construct_ring, element_text, modulus_text, ring_name
from .group_ring import GroupRing
from .group_ring import element_text as gr_element_text
from .groups import (AbelianGroup, element_text as group_element_text,
                     format_group, parse_group, sylow_decompose)
from .ideals import (BOUND_ENV_VAR, DEFAULT_BOUND, ExhaustiveGroupRing, construct_self_dual,
                     enumerate_semisimple_selfdual, exhaustive_bound)
from .numth import prime_power_split


def _emit(as_json: bool, parameters: dict, result, breakdown=(), lines=()) -> None:
    """The one printer: the three-key JSON document, or the text lines.
    Either may hold an int past the interpreter's int -> str digit cap."""
    with _uncapped_int_text():
        if as_json:
            print(json.dumps({"parameters": parameters, "result": result,
                              "breakdown": list(breakdown)}, indent=2))
        else:
            for line in lines:
                print(line)


@contextmanager
def _uncapped_int_text():
    """Lift the int -> str digit cap (4300, where the build has one) in the block."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_cap(0)
    try:
        yield
    finally:
        set_cap(cap)


# -- gr info ---------------------------------------------------------------------

def _cmd_gr_info(args) -> int:
    spec = construct_ring(args.p, args.r, args.s)
    fields = {"ring": ring_name(spec),
              "characteristic": str(spec.char),
              "cardinality": str(spec.size),
              "residue-field": str(spec.residue_size),
              "modulus": modulus_text(spec),
              "teichmuller-generator": element_text(spec.xi)}
    _emit(args.json, {"p": args.p, "r": args.r, "s": args.s}, fields,
          lines=[f"{k}: {v}" for k, v in fields.items()])
    return 0


# -- classes ---------------------------------------------------------------------

def _cmd_classes(args) -> int:
    _, s = prime_power_split(args.q)
    group = parse_group(args.group)
    parts = partition(group, args.q)

    def partner_text(rep):
        return "-" if rep is None else group_element_text(rep)

    rows = []
    for c in parts.classes:
        row = {"representative": group_element_text(c.rep),
               "elements": [group_element_text(g) for g in c.elements],
               "cardinality": c.cardinality,
               "euclidean_type": c.euclidean_type,
               "partner": partner_text(c.euclidean_partner)}
        if s % 2 == 0:
            row["hermitian_type"] = c.hermitian_type
            row["hermitian_partner"] = partner_text(c.hermitian_partner)
        rows.append(row)
    # a text line is the row's values in order, members joined by commas
    _emit(args.json, {"group": format_group(group), "q": args.q}, {"classes": len(rows)}, rows,
          [" ".join(",".join(v) if isinstance(v, list) else str(v) for v in row.values())
           for row in rows])
    return 0


# -- count, exists, construct, enumerate ---------------------------------------------

def _code_query(args):
    """The group of a code subcommand and its JSON parameters."""
    group = parse_group(args.group)
    return group, {"p": args.p, "r": args.r, "s": args.s,
                   "group": format_group(group), "dual": args.dual}


_COUNTS = {"euclidean": euclidean_abelian_count, "hermitian": hermitian_abelian_count,
           "none": abelian_count}


def _cmd_count(args) -> int:
    construct_ring(args.p, args.r, args.s)  # refuses bad (p, r, s) before the Sylow split
    group, parameters = _code_query(args)
    dec = sylow_decompose(group, args.p)
    report = _COUNTS[args.dual](args.p, args.r, args.s, dec.coprime_part, dec.p_part,
                                args.provider)
    _emit(args.json, dict(parameters, provider=args.provider),
          {"count": report.count, "provider": report.provider},
          [dict(asdict(f), factor=f.factor) for f in report.factors], [report.count])
    return 0


def _cmd_exists(args) -> int:
    group, parameters = _code_query(args)
    answer = exists_self_dual(args.p, args.r, group, args.dual, args.s)
    _emit(args.json, parameters,
          {"exists": answer,
           "principal_ideal_ring": is_principal_ideal_group_ring(args.p, args.r, group)},
          lines=["true" if answer else "false"])
    return 0


def _cmd_construct(args) -> int:
    group, parameters = _code_query(args)
    made = construct_self_dual(args.p, args.r, args.s, group, args.dual)
    texts = [gr_element_text(g) for g in made.generators]
    _emit(args.json, parameters,
          {"ring": ring_name(construct_ring(args.p, args.r, args.s)), "group": parameters["group"],
           "generators": texts, "ideal_size": made.ideal.size if made.ideal else None},
          lines=texts)
    return 0


def _cmd_enumerate(args) -> int:
    group, parameters = _code_query(args)
    fam = enumerate_semisimple_selfdual(args.p, args.r, args.s, group, args.dual)
    reps = [[gr_element_text(g) for g in gens] for gens in fam.representatives]
    _emit(args.json, parameters,
          {"count": fam.count, "ring": ring_name(construct_ring(args.p, args.r, args.s)),
           "group": parameters["group"]},
          [{"generators": gens} for gens in reps],
          [f"count {fam.count}"] + [" | ".join(gens) for gens in reps])
    return 0


# -- table -------------------------------------------------------------------------

def _parse_lengths(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise DomainError(f"cannot parse length range {text!r}; expected a..b")
    if a < 1 or b < a:
        raise DomainError(f"invalid length range {text!r}")
    return range(a, b + 1)


def _cmd_table(args) -> int:
    if args.r != 2:
        raise DomainError("closed-form tables require r = 2")
    rows = []
    for n in _parse_lengths(args.lengths):
        rows.append({"n": n, "NC": cyclic_count_n(args.p, args.s, n).count,
                     "NEC": euclidean_cyclic_count_n(args.p, args.s, n).count,
                     "NHC": (hermitian_cyclic_count_n(args.p, args.s, n).count
                             if args.s % 2 == 0 else None)})
    _emit(args.format == "json",
          {"p": args.p, "r": args.r, "s": args.s, "lengths": args.lengths},
          {"rows": len(rows)}, rows,
          ["n,NC,NEC,NHC"] + [",".join("" if v is None else str(v) for v in row.values())
                              for row in rows])
    return 0


# -- verify ------------------------------------------------------------------------

def _decomposition_selfdual(p, r, s, group, form, bound):
    """Materialize each representative generator list and count the distinct
    self-dual ideals they span; raises through if one fails the duality check."""
    fam = enumerate_semisimple_selfdual(p, r, s, group, form)
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, s), group), bound)
    found = set()
    for gens in fam.representatives:
        ideal = eng.generated_ideal(map(eng.to_vector, gens))
        if not eng.is_self_dual(ideal, form):
            return -1
        found.add(ideal)
    return len(found)


_WALK_ORACLE = "socle-walk enumeration"
_DECOMP_ORACLE = "decomposition enumeration"

# (p, s, largest n) of the length tables: every n <= 8 whose ring
# GR(p^2, s)[Z_n] has at most 3^12 elements
_LENGTH_TABLES = [(2, 1, 8), (2, 2, 4), (3, 1, 6), (3, 2, 3), (5, 1, 4)]


def _verify_checks(bound):
    """Yield (check, params, formula_thunk, oracle_thunk, oracle_kind) in
    canonical order; each oracle runs under the bound.  The socle-walk
    oracles share one enumeration per ring, held for this run only."""

    @lru_cache(maxsize=None)
    def enumerated(p, r, s, group):
        eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, s), group), bound)
        return eng, eng.enumerate_ideals()

    def brute(p, r, s, group, dual):
        """All ideals for dual="none", else those self-dual for that form."""
        eng, ideals = enumerated(p, r, s, group)
        if dual == "none":
            return len(ideals)
        return sum(1 for c in ideals if eng.is_self_dual(c, dual))

    decomposed = partial(_decomposition_selfdual, bound=bound)

    for check, closed, dual, rows in (
            ("cyclic-count", cyclic_count_p2, "none",
             [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1)]),
            ("euclidean-cyclic-count", euclidean_cyclic_count_p2, "euclidean",
             [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (3, 1, 1)]),
            ("hermitian-cyclic-count", hermitian_cyclic_count_p2, "hermitian",
             [(2, 2, 1), (2, 2, 2), (3, 2, 1)])):
        for (p, s, a) in rows:
            yield (check, {"p": p, "s": s, "a": a},
                   lambda f=closed, p=p, s=s, a=a: f(p, s, a),
                   lambda p=p, s=s, a=a, d=dual: brute(p, 2, s, AbelianGroup((p**a,)), d),
                   _WALK_ORACLE)

    for (p, r, s, gtext, dual) in [(2, 2, 1, "Z3", "euclidean"),
                                   (2, 2, 1, "Z7", "euclidean"),
                                   (3, 2, 1, "Z2", "euclidean"),
                                   (3, 1, 1, "Z2", "euclidean"),
                                   (2, 3, 1, "Z3", "euclidean"),
                                   (2, 2, 2, "Z3", "hermitian"),
                                   (2, 2, 1, "Z15", "euclidean"),
                                   (2, 2, 2, "Z7", "hermitian"),
                                   (3, 2, 1, "Z13", "euclidean"),
                                   (5, 2, 1, "Z12", "euclidean")]:
        group = parse_group(gtext)
        semisimple = (euclidean_semisimple_count if dual == "euclidean"
                      else hermitian_semisimple_count)
        params = {"p": p, "r": r, "s": s, "group": gtext, "dual": dual}
        for kind, oracle in ((_WALK_ORACLE, brute), (_DECOMP_ORACLE, decomposed)):
            yield ("semisimple-count", params,
                   lambda f=semisimple, p=p, r=r, s=s, g=group: f(p, r, s, g).count,
                   lambda o=oracle, p=p, r=r, s=s, g=group, d=dual: o(p, r, s, g, d),
                   kind)

    for (p, r, s, gtext, dual) in [(2, 2, 1, "Z6", "euclidean"),
                                   (3, 2, 1, "Z3", "euclidean"),
                                   (2, 2, 1, "Z4", "euclidean"),
                                   (2, 2, 2, "Z2", "hermitian")]:
        group = parse_group(gtext)
        dec = sylow_decompose(group, p)
        general = (euclidean_abelian_count if dual == "euclidean"
                   else hermitian_abelian_count)
        yield ("general-count", {"p": p, "r": r, "s": s, "group": gtext, "dual": dual},
               lambda f=general, p=p, r=r, s=s, d=dec: f(p, r, s, d.coprime_part, d.p_part, "closed").count,
               lambda p=p, r=r, s=s, g=group, d=dual: brute(p, r, s, g, d),
               _WALK_ORACLE)

    for (p, s, top) in _LENGTH_TABLES:
        counts = [("none", cyclic_count_n), ("euclidean", euclidean_cyclic_count_n)]
        if s % 2 == 0:
            counts.append(("hermitian", hermitian_cyclic_count_n))
        for n in range(1, top + 1):
            group = AbelianGroup((n,) if n > 1 else ())
            for dual, closed in counts:
                yield ("length-count", {"p": p, "s": s, "n": n, "dual": dual},
                       lambda f=closed, p=p, s=s, n=n: f(p, s, n).count,
                       lambda p=p, s=s, g=group, d=dual: brute(p, 2, s, g, d),
                       _WALK_ORACLE)

    for (p, r, gtext) in [(2, 1, "Z2"), (2, 1, "Z3"), (2, 2, "Z2"),
                          (2, 2, "Z3"), (3, 1, "Z2"), (3, 1, "Z3"),
                          (3, 2, "Z2"), (3, 2, "Z3")]:
        group = parse_group(gtext)
        yield ("exists", {"p": p, "r": r, "s": 1, "group": gtext, "dual": "euclidean"},
               lambda p=p, r=r, g=group: int(exists_self_dual(p, r, g)),
               lambda p=p, r=r, g=group: int(brute(p, r, 1, g, "euclidean") > 0),
               _WALK_ORACLE)


def _cmd_verify(args) -> int:
    bound = exhaustive_bound() if args.max_ring_size is None else args.max_ring_size
    records, lines = [], []
    for check, params, formula, oracle, kind in _verify_checks(bound):
        pstr = " ".join(f"{k}={v}" for k, v in params.items())
        t0 = time.monotonic()
        try:
            ov = oracle()
        except BoundExceededError as exc:
            # this oracle would walk more ring elements than the bound
            records.append({"check": check, "parameters": params, "oracle_kind": kind,
                            "status": "skip", "reason": str(exc)})
            lines.append(f'SKIP {check} {pstr} oracle="{kind}": {exc}')
            continue
        fv = formula()
        rec = {"check": check, "parameters": params, "formula": fv, "oracle": ov,
               "oracle_kind": kind, "status": "pass" if fv == ov else "fail"}
        line = (f'{rec["status"].upper():4s} {check} {pstr} formula={fv} oracle={ov} '
                f'oracle="{kind}"')
        if args.timings:
            rec["elapsed"] = time.monotonic() - t0
            line += f' elapsed={rec["elapsed"]:.2f}s'
        records.append(rec)
        lines.append(line)
    failed = sum(1 for rec in records if rec["status"] == "fail")
    skipped = sum(1 for rec in records if rec["status"] == "skip")
    ran = len(records) - skipped
    _emit(args.json, {"max_ring_size": bound},
          {"total": len(records), "passed": ran - failed, "failed": failed,
           "skipped": skipped, "status": "fail" if failed else "pass"},
          records, lines + [f"{ran - failed}/{ran} checks passed, {skipped} skipped"])
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------------

_PAIRINGS = ["euclidean", "hermitian"]


def _add_ring_args(sub):
    sub.add_argument("--p", type=int, required=True, help="characteristic prime")
    sub.add_argument("--r", type=int, required=True, help="nilpotency exponent")
    sub.add_argument("--s", type=int, default=1, help="extension degree")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galcodes",
        description="Self-dual abelian codes over Galois rings")
    subs = parser.add_subparsers(dest="command", required=True)

    gr = subs.add_parser("gr", help="Galois ring utilities")
    gr_subs = gr.add_subparsers(dest="gr_command", required=True)
    info = gr_subs.add_parser("info", help="print ring parameters")
    _add_ring_args(info)
    info.add_argument("--json", action="store_true")
    info.set_defaults(func=_cmd_gr_info)

    classes = subs.add_parser("classes", help="cyclotomic classes of a group")
    classes.add_argument("--group", required=True, help="e.g. Z7 or Z2xZ4")
    classes.add_argument("--q", type=int, required=True, help="prime power p^s")
    classes.add_argument("--json", action="store_true")
    classes.set_defaults(func=_cmd_classes)

    for name, help_text, func, duals in (
            ("count", "count (self-dual) abelian codes", _cmd_count, list(_COUNTS)),
            ("exists", "self-dual existence predicate", _cmd_exists, _PAIRINGS),
            ("construct", "build one self-dual code", _cmd_construct, _PAIRINGS),
            ("enumerate", "all self-dual codes, semisimple case", _cmd_enumerate, _PAIRINGS)):
        sub = subs.add_parser(name, help=help_text)
        _add_ring_args(sub)
        sub.add_argument("--group", required=True)
        sub.add_argument("--dual", choices=duals, default="euclidean")
        if func is _cmd_count:
            sub.add_argument("--provider", choices=["auto", "closed", "brute"],
                             default="auto")
        sub.add_argument("--json", action="store_true")
        sub.set_defaults(func=func)

    table = subs.add_parser("table", help="cyclic-code count table over GR(p^2,s)")
    table.add_argument("--p", type=int, required=True)
    table.add_argument("--r", type=int, default=2)
    table.add_argument("--s", type=int, default=1)
    table.add_argument("--lengths", required=True, help="inclusive range a..b")
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.set_defaults(func=_cmd_table)

    verify = subs.add_parser("verify", help="formula-vs-oracle harness")
    verify.add_argument("--max-ring-size", type=int,
                        help="skip oracles that would walk more ring elements than this "
                             f"(default: ${BOUND_ENV_VAR}, else {DEFAULT_BOUND})")
    verify.add_argument("--timings", action="store_true",
                        help="append wall-clock times (non-deterministic)")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
