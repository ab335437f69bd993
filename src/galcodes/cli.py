"""Command-line front end.

Subcommands: gr info, classes, count, exists, construct, enumerate, table,
verify.  Every one prints through one emitter: under --json (table: --format
json) a JSON document with the three top-level keys "parameters", "result",
"breakdown", otherwise its text lines.  Output is deterministic: identical
invocations produce identical bytes (verify only adds wall-clock times under
--timings).  Exit codes: 0 success, 1 verification failure, 2 usage or
domain error.

verify is two tables and one loop: _CHECKS, a row per check (name, printed
parameters, ring (p, r, s, G, dual), formula of the ring, oracle kinds), and
_ORACLES, an oracle per kind.  A new check is a row, a new oracle an entry.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial

from .counting import (_CLOSED_FORMS, TOTAL, abelian_count, cyclic_count_n,
                       euclidean_abelian_count, euclidean_cyclic_count_n,
                       euclidean_semisimple_count, hermitian_abelian_count,
                       hermitian_cyclic_count_n, hermitian_semisimple_count,
                       is_principal_ideal_group_ring)
from .cyclotomic import partition
from .errors import BoundExceededError, DomainError
from .galois import _check_ring, construct_ring, element_text, modulus_text, ring_name
from .group_ring import GroupRing, element_text as gr_element_text
from .groups import (AbelianGroup, element_text as group_element_text,
                     format_group, parse_group, sylow_decompose)
from .ideals import (BOUND_ENV_VAR, DEFAULT_BOUND, ExhaustiveGroupRing, construct_self_dual,
                     enumerate_semisimple_selfdual, exhaustive_bound, exists_self_dual)
from .numth import prime_power_split, valuation


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
    """The group of a code subcommand and its JSON parameters, once (p, r, s)
    passes the ring rule: the ring is checked before any other work."""
    _check_ring(args.p, args.r, args.s)
    group = parse_group(args.group)
    return group, {"p": args.p, "r": args.r, "s": args.s,
                   "group": format_group(group), "dual": args.dual}


# dual -> count function, one table per formula family
_COUNTS = {"euclidean": euclidean_abelian_count, "hermitian": hermitian_abelian_count,
           "none": abelian_count}
_LENGTH_COUNTS = {"none": cyclic_count_n, "euclidean": euclidean_cyclic_count_n,
                  "hermitian": hermitian_cyclic_count_n}
_SEMISIMPLE_COUNTS = {"euclidean": euclidean_semisimple_count,
                      "hermitian": hermitian_semisimple_count}


def _cmd_count(args) -> int:
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
    try:
        a, b = int(lo), int(hi if sep else lo)
    except ValueError:
        raise DomainError(f"cannot parse length range {text!r}; expected a..b")
    if a < 1 or b < a:
        raise DomainError(f"invalid length range {text!r}")
    return range(a, b + 1)


def _cmd_table(args) -> int:
    if args.r != 2:
        raise DomainError("closed-form tables require r = 2")
    rows = [{"n": n} | {col: None if dual == "hermitian" and args.s % 2
                        else _LENGTH_COUNTS[dual](args.p, args.s, n).count
                        for col, dual in zip(("NC", "NEC", "NHC"), _LENGTH_COUNTS)}
            for n in _parse_lengths(args.lengths)]
    _emit(args.format == "json",
          {"p": args.p, "r": args.r, "s": args.s, "lengths": args.lengths},
          {"rows": len(rows)}, rows,
          ["n,NC,NEC,NHC"] + [",".join("" if v is None else str(v) for v in row.values())
                              for row in rows])
    return 0


# -- verify ------------------------------------------------------------------------

def _socle_walk(p, r, s, group, dual, bound, walks):
    """All ideals for dual="none", else the self-dual ones; walks keeps each ring's list."""
    if (p, r, s, group) not in walks:
        eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, s), group), bound)
        walks[p, r, s, group] = eng, list(eng.ideal_stream())
    eng, ideals = walks[p, r, s, group]
    return len(ideals) if dual == "none" else sum(eng.is_self_dual(c, dual) for c in ideals)


def _decomposition(p, r, s, group, dual, bound, walks):
    """Distinct ideals of the semisimple family's generators; -1 if one is not self-dual."""
    eng = ExhaustiveGroupRing(GroupRing(construct_ring(p, r, s), group), bound)
    ideals = [eng.generated_ideal(map(eng.to_vector, gens))
              for gens in enumerate_semisimple_selfdual(p, r, s, group, dual).representatives]
    return len(set(ideals)) if all(eng.is_self_dual(c, dual) for c in ideals) else -1


_WALK, _DECOMPOSITION = "socle-walk enumeration", "decomposition enumeration"
_ORACLES = {_WALK: _socle_walk, _DECOMPOSITION: _decomposition}
_RING_KEYS = ("p", "r", "s", "group", "dual")


def _closed_form(p, r, s, group, dual):
    return _CLOSED_FORMS[TOTAL if dual == "none" else dual](p, s, valuation(group.order, p))


def _length_count(p, r, s, group, dual):
    return _LENGTH_COUNTS[dual](p, s, group.order).count


def _semisimple_count(p, r, s, group, dual):
    return _SEMISIMPLE_COUNTS[dual](p, r, s, group).count


def _general_count(p, r, s, group, dual):
    dec = sylow_decompose(group, p)
    return _COUNTS[dual](p, r, s, dec.coprime_part, dec.p_part, "closed").count


def _exists(p, r, s, group, dual):
    return int(exists_self_dual(p, r, group, dual, s))


def _rows(check, formula, rings, keys=_RING_KEYS, kinds=(_WALK,), reading=int):
    """The rows of one check, one per ring (p, r, s, n, dual) with G = Z_n,
    printing these keys of p, r, s, a = log_p n, n, group and dual."""
    for p, r, s, n, dual in rings:
        group = AbelianGroup((n,) if n > 1 else ())
        named = dict(p=p, r=r, s=s, a=valuation(n, p), n=n, group=format_group(group), dual=dual)
        yield check, {k: named[k] for k in keys}, (p, r, s, group, dual), formula, kinds, reading


_CHECKS = (
    # the closed forms of length p^a over GR(p^2, s), one row per (p, s, a)
    *(row for dual, triples in [
        ("none", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1)]),
        ("euclidean", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (3, 1, 1)]),
        ("hermitian", [(2, 2, 1), (2, 2, 2), (3, 2, 1)])]
      for row in _rows(("" if dual == "none" else f"{dual}-") + "cyclic-count", _closed_form,
                       [(p, 2, s, p**a, dual) for p, s, a in triples], ("p", "s", "a"))),
    *_rows("semisimple-count", _semisimple_count,
           [(2, 2, 1, 3, "euclidean"), (2, 2, 1, 7, "euclidean"), (3, 2, 1, 2, "euclidean"),
            (3, 1, 1, 2, "euclidean"), (2, 3, 1, 3, "euclidean"), (2, 2, 2, 3, "hermitian"),
            (2, 2, 1, 15, "euclidean"), (2, 2, 2, 7, "hermitian"), (3, 2, 1, 13, "euclidean"),
            (5, 2, 1, 12, "euclidean")], kinds=(_WALK, _DECOMPOSITION)),
    *_rows("general-count", _general_count,
           [(2, 2, 1, 6, "euclidean"), (3, 2, 1, 3, "euclidean"), (2, 2, 1, 4, "euclidean"),
            (2, 2, 2, 2, "hermitian")]),
    # the length tables, (p, s, largest n): every n <= 8 with |GR(p^2, s)[Z_n]| <= 3^12
    *_rows("length-count", _length_count, [
        (p, 2, s, n, dual) for p, s, top in [(2, 1, 8), (2, 2, 4), (3, 1, 6), (3, 2, 3), (5, 1, 4)]
        for n in range(1, top + 1) for dual in _LENGTH_COUNTS if dual != "hermitian" or s % 2 == 0],
        ("p", "s", "n", "dual")),
    # existence read off the walk's self-dual count: min(1, count)
    *_rows("exists", _exists, [(p, r, 1, n, "euclidean") for p in (2, 3) for r in (1, 2)
                               for n in (2, 3)], reading=partial(min, 1)))


def _cmd_verify(args) -> int:
    bound = exhaustive_bound() if args.max_ring_size is None else args.max_ring_size
    walks, records, lines = {}, [], []
    for check, params, ring, formula, kinds, reading in _CHECKS:
        head = " ".join([check] + [f"{k}={v}" for k, v in params.items()])
        for kind in kinds:
            t0 = time.monotonic()
            try:
                ov = reading(_ORACLES[kind](*ring, bound, walks))
            except BoundExceededError as exc:
                # this oracle would walk more ring elements than the bound
                records.append({"check": check, "parameters": params, "oracle_kind": kind,
                                "status": "skip", "reason": str(exc)})
                lines.append(f'SKIP {head} oracle="{kind}": {exc}')
                continue
            fv = formula(*ring)
            rec = {"check": check, "parameters": params, "formula": fv, "oracle": ov,
                   "oracle_kind": kind, "status": "pass" if fv == ov else "fail"}
            lines.append(f'{rec["status"].upper():4s} {head} formula={fv} oracle={ov} '
                         f'oracle="{kind}"')
            if args.timings:
                rec["elapsed"] = time.monotonic() - t0
                lines[-1] += f' elapsed={rec["elapsed"]:.2f}s'
            records.append(rec)
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
