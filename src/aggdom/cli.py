"""Command-line entry point.

Exit codes: 0 accept/success, 1 well-formed reject (not in the class, no
aggregator found, census mismatch), 2 input error, 3 cap exceeded, 4 internal
error (a failed re-verification, which is always a bug).  Machine
output only under --json; the JSON records use the stable keys
{class, verdict, witness, method, counterexample}.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import aggregate, oracle, recognize, synthesize
from .domain import DEFAULT_TUPLE_CAP, parse_domain, render_domain
from .errors import CapExceededError, ParseError, VerificationError
from .formula import DEFAULT_MODELS_CAP, models, parse_formula, render_formula


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _varset(values) -> list[int]:
    return sorted(values)


def _witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, recognize.SeparabilityWitness):
        return {"part1": _varset(witness.part1), "part2": _varset(witness.part2)}
    if isinstance(witness, recognize.RPHWitness):
        return {"renamed": _varset(witness.renamed), "admissible": _varset(witness.admissible)}
    if isinstance(witness, recognize.LpicWitness):
        return {
            "renamed": _varset(witness.renamed),
            "v0": _varset(witness.v0),
            "v1": _varset(witness.v1),
            "v2": _varset(witness.v2),
        }
    if isinstance(witness, aggregate.Aggregator):
        return {"arity": witness.k, "components": list(witness.describe())}
    if isinstance(witness, frozenset):
        return _varset(witness)
    return str(witness)


def _record(name, verdict, witness=None, method="", counterexample=None):
    return {
        "class": name,
        "verdict": bool(verdict),
        "witness": _witness_json(witness),
        "method": method,
        "counterexample": counterexample,
    }


def _emit(records, as_json: bool):
    if as_json:
        print(json.dumps(records, indent=2))
        return
    width = max(len(r["class"]) for r in records)
    for r in records:
        verdict = "yes" if r["verdict"] else "no"
        extra = ""
        if r["witness"] is not None:
            extra = f"  witness={json.dumps(r['witness'])}"
        if r["method"]:
            extra += f"  [{r['method']}]"
        if r["counterexample"] is not None:
            extra += f"  counterexample={r['counterexample']}"
        print(f"{r['class']:<{width}}  {verdict:<3}{extra}")


def cmd_classify_formula(args) -> int:
    f = parse_formula(_read(args.file))
    report = recognize.classify_formula(f)
    records = [
        _record("horn", report.horn),
        _record("dual_horn", report.dual_horn),
        _record("bijunctive", report.bijunctive),
        _record("affine", report.affine),
        _record("separable", report.separable is not None, report.separable),
        _record("renamable_horn", report.renamable_horn is not None, report.renamable_horn),
        _record("partially_horn", report.partially_horn is not None, report.partially_horn),
        _record(
            "renamable_partially_horn",
            report.renamable_partially_horn is not None,
            report.renamable_partially_horn,
        ),
        _record("pic", report.pic.accepted, None, ",".join(report.pic.kinds())),
        _record("lpic", report.lpic is not None, report.lpic),
    ]
    if report.notes:
        records.append(_record("notes", True, None, ",".join(report.notes)))
    _emit(records, args.json)
    return 0 if report.pic.accepted else 1


def cmd_classify_domain(args) -> int:
    d = parse_domain(_read(args.file))
    policy = "permissive" if args.permissive else "strict"
    result = aggregate.classify_domain(d, policy=policy, cap=args.cap_models, tuple_cap=args.cap_tuples)
    records = []
    for name in aggregate.VERDICTS:
        verdict = getattr(result, name)
        records.append(_record(name, verdict.holds, verdict.witness if args.witness else None, verdict.method))
    records.append(_record("systematic_family", bool(result.systematic_family), None,
                           ",".join(result.systematic_family)))
    _emit(records, args.json)
    return 0 if result.possibility.holds else 1


def cmd_synthesize(args) -> int:
    d = parse_domain(_read(args.file))
    policy = "permissive" if args.permissive else "strict"
    if args.lpic:
        result = synthesize.lpic_for(d, policy=policy, cap=args.cap_models)
    else:
        result = synthesize.pic_for(d, policy=policy, cap=args.cap_models)
    if result is None:
        kind = "local possibility" if args.lpic else "possibility"
        print(f"domain admits no {kind} integrity constraint", file=sys.stderr)
        return 1
    # the library checked result.formula's model set; the text must parse back to it
    text = render_formula(result.formula)
    if parse_formula(text) != result.formula:
        raise VerificationError("round-trip verification failed")
    if args.json:
        record = _record(result.kind, True, result.witness, "synthesis")
        record["formula"] = text
        print(json.dumps(record))
        if args.out:
            _write_out(text, args.out)
    else:
        _write_out(text, args.out)
    return 0


def cmd_models(args) -> int:
    f = parse_formula(_read(args.file))
    d = models(f, cap=args.cap_models)
    if not d.members:
        print("formula is unsatisfiable; empty domain files are not representable", file=sys.stderr)
        return 1
    _write_out(render_domain(d), args.out)
    return 0


def cmd_aggregator_check(args) -> int:
    d = parse_domain(_read(args.domain))
    F = aggregate.parse_aggregator(_read(args.aggfile))
    counterexample = aggregate.aggregator_counterexample(F, d, args.cap_tuples)
    ok = counterexample is None
    records = [
        _record(
            "aggregator",
            ok,
            F,
            "closure-check",
            None if ok else ["".join(map(str, row)) for row in counterexample],
        ),
        _record("dictatorial", aggregate.is_dictatorial(F)),
        _record("projection_aggregator", aggregate.is_projection_aggregator(F)),
        _record("systematic", aggregate.is_systematic(F)),
        _record("anonymous", aggregate.is_anonymous(F)),
        _record("monotone", aggregate.is_monotone(F)),
        _record("strongdem", aggregate.is_strongdem(F)),
        _record("locally_nondictatorial", aggregate.is_locally_nondictatorial(F)),
    ]
    if ok:
        gd = aggregate.generalized_dictatorship_counterexample(F, d, args.cap_tuples)
        records.append(
            _record(
                "generalized_dictatorship",
                gd is None,
                None,
                "",
                None if gd is None else ["".join(map(str, row)) for row in gd],
            )
        )
    _emit(records, args.json)
    return 0 if ok else 1


# aggregator find --kind K: the (property tag, search space) pair it runs
FIND_KINDS = {
    "binary": ("nondictatorial", "binary-unanimous"),
    "ternary-commutative": ("locally-nondictatorial", "ternary-commutative"),
    "strongdem": ("strongdem", "ternary-commutative-no-xor"),
    "anonymous": ("anonymous", "ternary-commutative"),
}


def cmd_aggregator_find(args) -> int:
    d = parse_domain(_read(args.domain))
    found = oracle.brute_property(d, *FIND_KINDS[args.kind])
    if found is None:
        print("no aggregator of the requested kind", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(_record(args.kind, True, found, "brute-force")))
    else:
        sys.stdout.write(aggregate.render_aggregator(found))
    return 0


def cmd_census(args) -> int:
    report = oracle.census(args.n, sample=args.sample, seed=args.seed)
    if args.json:
        print(report.to_json())
    else:
        for record in report.records:
            verdict = "ok" if record.match else "MISMATCH"
            print(f"{record.domain_bits} |d|={len(record.members):2d} {verdict}")
        print(f"domains={len(report.records)} mismatches={len(report.mismatches)}")
    return 0 if not report.mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggdom",
        description="Recognize constraint classes, synthesize constraints from "
        "explicit domains, and classify the aggregators a domain admits.",
    )
    parser.add_argument("--cap-models", type=int, default=DEFAULT_MODELS_CAP,
                        help="max variable count for model enumeration")
    parser.add_argument("--cap-tuples", type=int, default=DEFAULT_TUPLE_CAP,
                        help="max |d|^k for closure checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-formula", help="report every recognized formula class")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify_formula)

    p = sub.add_parser("classify-domain", help="aggregator classes the domain admits")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--witness", action="store_true", help="include verified witnesses")
    p.add_argument("--permissive", action="store_true",
                   help="classify the free coordinates of a degenerate domain")
    p.set_defaults(func=cmd_classify_domain)

    p = sub.add_parser("synthesize", help="write an integrity constraint for a domain")
    p.add_argument("file")
    p.add_argument("--lpic", action="store_true", help="local possibility constraint")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--permissive", action="store_true")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("models", help="enumerate the models of a formula")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_models)

    agg = sub.add_parser("aggregator", help="check or search for aggregators")
    agg_sub = agg.add_subparsers(dest="agg_command", required=True)
    p = agg_sub.add_parser("check", help="verify an aggregator file against a domain")
    p.add_argument("domain")
    p.add_argument("aggfile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_aggregator_check)
    p = agg_sub.add_parser("find", help="brute-force search for an aggregator")
    p.add_argument("domain")
    p.add_argument("--kind", required=True, choices=list(FIND_KINDS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_aggregator_find)

    p = sub.add_parser("census", help="theory vs oracle over all small domains")
    p.add_argument("n", type=int)
    p.add_argument("--sample", type=int, default=None,
                   help="sample this many domains instead of exhausting")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
