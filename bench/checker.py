"""Independent output checker for the benchmark's CLI jobs.

Nothing here imports aggdom: formulas and domains are re-read with the
checker's own parsers, synthesized formulas are evaluated over the whole
cube, and every witness is re-verified with the checker's own closure check
and syntactic conditions.  `check_job` returns None for a correct job and a
one-line reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np

# ---------------------------------------------------------------------------
# formulas: a clause is (kind, or_literals, xor_literals), kind "o", "x", "g"
# ---------------------------------------------------------------------------


def parse_ecnf(text: str) -> tuple[int, list[tuple]]:
    """Parse extended DIMACS; raises ValueError on anything malformed."""
    lines = [l.split() for l in text.splitlines() if l.strip() and l.split()[0] != "c"]
    if not lines or lines[0][:2] != ["p", "ecnf"] or len(lines[0]) != 4:
        raise ValueError("missing 'p ecnf' header")
    n, m = int(lines[0][2]), int(lines[0][3])
    clauses = []
    for parts in lines[1:]:
        if parts[-1] != "0":
            raise ValueError(f"clause not terminated by 0: {parts}")
        body = parts[:-1]
        if body and body[0] == "x":
            clauses.append(("x", (), tuple(map(int, body[1:]))))
        elif body and body[0] == "g":
            cut = body.index("x")
            clauses.append(("g", tuple(map(int, body[1:cut])), tuple(map(int, body[cut + 1 :]))))
        else:
            clauses.append(("o", tuple(map(int, body)), ()))
    if len(clauses) != m:
        raise ValueError(f"header declares {m} clauses, found {len(clauses)}")
    for _, o, x in clauses:
        if any(not 1 <= abs(l) <= n for l in o + x):
            raise ValueError("literal out of range")
    return n, clauses


def _variables(clause) -> set[int]:
    return {abs(l) for l in clause[1] + clause[2]}


def occurring(clauses) -> set[int]:
    return {abs(l) for _, o, x in clauses for l in o + x}


def rename(clauses, renamed) -> list[tuple]:
    renamed = set(renamed)

    def flip(lits):
        return tuple(-l if abs(l) in renamed else l for l in lits)

    return [(k, flip(o), flip(x)) for k, o, x in clauses]


def syntactic_flags(clauses) -> dict[str, bool]:
    all_or = all(k == "o" for k, _, _ in clauses)
    return {
        "horn": all_or and all(sum(l > 0 for l in o) <= 1 for _, o, _ in clauses),
        "dual_horn": all_or and all(sum(l < 0 for l in o) <= 1 for _, o, _ in clauses),
        "bijunctive": all_or and all(len(o) <= 2 for _, o, _ in clauses),
        "affine": all(k == "x" for k, _, _ in clauses),
    }


def partially_horn(clauses, admissible: set[int]) -> bool:
    """The admissible-set conditions: clauses inside the set are Horn, and
    set variables occur only negatively in clauses reaching outside it (xor
    and generalized clauses always reach outside, and their xor parts avoid
    the set)."""
    if not admissible:
        return False
    for kind, o, x in clauses:
        if kind == "o" and {abs(l) for l in o} <= admissible:
            if sum(l > 0 for l in o) > 1:
                return False
            continue
        if any(abs(l) in admissible for l in x):
            return False
        if any(l > 0 and l in admissible for l in o):
            return False
    return True


def lpic_conditions(clauses, renamed, v0, v1, v2) -> bool:
    """The three local-possibility conditions on the renamed formula."""
    if v0 | v1 | v2 != occurring(clauses) or len(v0) + len(v1) + len(v2) != len(occurring(clauses)):
        return False
    if not renamed <= v0:
        return False
    renamed_clauses = rename(clauses, renamed)
    if v0 and not partially_horn(renamed_clauses, v0):
        return False
    for kind, o, x in renamed_clauses:
        variables = [abs(l) for l in o + x]
        in_v1 = sum(v in v1 for v in variables)
        in_v2 = any(v in v2 for v in variables)
        if in_v1 > 2 or (in_v1 and in_v2):
            return False
        if in_v2:
            if kind == "o" or any(abs(l) not in v2 for l in x) or any(abs(l) not in v0 for l in o):
                return False
    return True


def separation(clauses, part1: set[int], part2: set[int]) -> bool:
    if not part1 or not part2 or part1 & part2 or part1 | part2 != occurring(clauses):
        return False
    return all(not (_variables(c) & part1 and _variables(c) & part2) for c in clauses)


def model_mask(n: int, clauses) -> np.ndarray:
    """Boolean vector over all 2^n assignments (x1 most significant): True
    where every clause holds."""
    positions = np.arange(1 << n, dtype=np.int64)
    value = [None] + [((positions >> (n - v)) & 1).astype(bool) for v in range(1, n + 1)]

    def lit(l):
        return value[l] if l > 0 else ~value[-l]

    result = np.ones(1 << n, dtype=bool)
    for kind, o, x in clauses:
        hit = np.zeros(1 << n, dtype=bool)
        for l in o:
            hit |= lit(l)
        parity = np.zeros(1 << n, dtype=bool)
        for l in x:
            parity ^= lit(l)
        result &= hit | parity if kind != "o" else hit
    return result


# ---------------------------------------------------------------------------
# domains and aggregators
# ---------------------------------------------------------------------------


def parse_domain_file(text: str) -> tuple[int, np.ndarray]:
    rows = [l.strip() for l in text.splitlines() if l.strip() and not l.startswith("c")]
    head = rows[0].split()
    if head[0] != "d":
        raise ValueError("missing 'd <n>' header")
    n = int(head[1])
    members = np.array(sorted(int(r, 2) for r in rows[1:]), dtype=np.int64)
    return n, members


NAMED_TABLES = {
    "and": (0, 0, 0, 1),
    "or": (0, 1, 1, 1),
    "and3": (0, 0, 0, 0, 0, 0, 0, 1),
    "or3": (0, 1, 1, 1, 1, 1, 1, 1),
    "maj": (0, 0, 0, 1, 0, 1, 1, 1),
    "xor3": (0, 1, 1, 0, 1, 0, 0, 1),
}


def component_table(name: str, k: int) -> tuple[int, ...]:
    """Truth table (first argument most significant) of a rendered component."""
    if name in NAMED_TABLES:
        table = NAMED_TABLES[name]
    elif name.startswith("pr") and name[2:].isdigit():
        d = int(name[2:])
        table = tuple((idx >> (k - d)) & 1 for idx in range(1 << k))
    elif name.startswith("t "):
        table = tuple(int(ch) for ch in name[2:])
    else:
        raise ValueError(f"unknown component {name!r}")
    if len(table) != 1 << k:
        raise ValueError(f"component {name!r} does not have arity {k}")
    return table


def apply_all(n: int, members: np.ndarray, tables) -> tuple[np.ndarray, list[np.ndarray]]:
    """Image of every k-tuple of members under the per-coordinate tables,
    as one packed int per tuple, plus the broadcast input arrays."""
    k = (len(tables[0]) - 1).bit_length()
    inputs = [members.reshape((1,) * i + (-1,) + (1,) * (k - 1 - i)) for i in range(k)]
    full = (1 << n) - 1
    out = np.zeros((len(members),) * k, dtype=np.int64)
    for pattern in range(1 << k):
        mask = 0
        for j, table in enumerate(tables):
            if table[pattern]:
                mask |= 1 << (n - 1 - j)
        if not mask:
            continue
        term = np.full((1,) * k, mask, dtype=np.int64)
        for i, x in enumerate(inputs):
            term = term & (x if pattern >> (k - 1 - i) & 1 else full & ~x)
        out |= term
    return out, inputs


def closed(n: int, members: np.ndarray, tables) -> bool:
    out, _ = apply_all(n, members, tables)
    return bool(np.isin(out, members).all())


def escapes_inputs(n: int, members: np.ndarray, tables) -> bool:
    """Some tuple's image is none of its inputs (not a generalized dictatorship)."""
    out, inputs = apply_all(n, members, tables)
    same = np.zeros(out.shape, dtype=bool)
    for x in inputs:
        same |= out == x
    return not bool(same.all())


def _is_projection(table) -> bool:
    k = (len(table) - 1).bit_length()
    return any(table == component_table(f"pr{d}", k) for d in range(1, k + 1))


def _dictatorial(tables) -> bool:
    k = (len(tables[0]) - 1).bit_length()
    return any(all(t == component_table(f"pr{d}", k) for t in tables) for d in range(1, k + 1))


def _anonymous(table) -> bool:
    by_weight: dict[int, int] = {}
    return all(by_weight.setdefault(bin(i).count("1"), v) == v for i, v in enumerate(table))


def _monotone(table) -> bool:
    k = (len(table) - 1).bit_length()
    return all(table[i] <= table[i | 1 << b] for i in range(1 << k) for b in range(k))


def _one_immune(table) -> bool:
    k = (len(table) - 1).bit_length()
    return all(
        any(table[i] == table[i | 1 << b] for i in range(1 << k) if not i & 1 << b) for b in range(k)
    )


WITNESS_PROPERTIES = {
    "possibility": lambda ts: not _dictatorial(ts),
    "local_possibility": lambda ts: not any(_is_projection(t) for t in ts),
    "anonymous": lambda ts: all(_anonymous(t) for t in ts),
    "monotone_nondictatorial": lambda ts: all(_monotone(t) for t in ts) and not _dictatorial(ts),
    "strongdem": lambda ts: all(_one_immune(t) for t in ts),
    "non_generalized_dictatorship": None,  # checked on the domain below
}

SYSTEMATIC = ("and", "or", "maj", "xor3")


# ---------------------------------------------------------------------------
# per-job checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks job outputs; caches parsed inputs and verdicts per distinct output."""

    def __init__(self):
        self._inputs: dict[str, tuple] = {}
        self._seen: dict[tuple, str | None] = {}

    def check_job(self, job, code, stdout: str, stderr: str) -> str | None:
        key = (tuple(job.argv), code, stdout)
        if key not in self._seen:
            try:
                self._seen[key] = self._check(job, code, stdout, stderr)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self._seen[key] = f"unreadable output: {exc!r}"
        return self._seen[key]

    def _input(self, path: str, parse):
        if path not in self._inputs:
            with open(path, encoding="utf-8") as handle:
                self._inputs[path] = parse(handle.read())
        return self._inputs[path]

    def _check(self, job, code, stdout, stderr) -> str | None:
        if code != job.expect["code"]:
            return f"exit code {code}, planted {job.expect['code']}: {stderr.strip()[:200]}"
        if job.kind == "census":
            return check_census(json.loads(stdout), job.expect["records"])
        if job.kind == "classify-formula":
            with open(job.path, encoding="utf-8") as handle:
                n, clauses = parse_ecnf(handle.read())
            return check_formula_report(n, clauses, json.loads(stdout), job.expect)
        n, members = self._input(job.path, parse_domain_file)
        if job.kind in ("synthesize", "synthesize-lpic"):
            return check_synthesis(n, members, stdout, code)
        return check_domain_report(n, members, json.loads(stdout), job.expect)


def check_census(records, expected: int) -> str | None:
    if len(records) != expected:
        return f"census returned {len(records)} records, asked for {expected}"
    for r in records:
        if r["match"] is not True or r["theory_verdicts"] != r["oracle_verdicts"]:
            return f"census mismatch on domain {r['domain_bits']}"
        bits = r["domain_bits"]
        size = len(bits)
        width = size.bit_length() - 1
        members = [format(size - 1 - i, f"0{width}b") for i, b in enumerate(bits) if b == "1"]
        if sorted(members) != r["members"]:
            return f"census members disagree with domain bits {bits}"
    return None


def _records(report) -> dict:
    return {r["class"]: r for r in report}


def check_formula_report(n, clauses, report, expect) -> str | None:
    records = _records(report)
    flags = syntactic_flags(clauses)
    for name, value in flags.items():
        if records[name]["verdict"] != value:
            return f"{name} verdict {records[name]['verdict']}, own check says {value}"
    occ = occurring(clauses)

    sep = records["separable"]["witness"]
    if sep is not None and not separation(clauses, set(sep["part1"]), set(sep["part2"])):
        return "separability witness fails"
    rh = records["renamable_horn"]["witness"]
    if rh is not None and not syntactic_flags(rename(clauses, rh))["horn"]:
        return "renamable-Horn witness does not make the formula Horn"
    ph = records["partially_horn"]["witness"]
    if ph is not None and not partially_horn(clauses, set(ph)):
        return "partially-Horn witness fails"
    rph = records["renamable_partially_horn"]["witness"]
    if rph is not None:
        renamed, admissible = set(rph["renamed"]), set(rph["admissible"])
        if not renamed <= admissible or not partially_horn(rename(clauses, renamed), admissible):
            return "renamable-partially-Horn witness fails"
    lp = records["lpic"]["witness"]
    if lp is not None:
        parts = [set(lp[key]) for key in ("renamed", "v0", "v1", "v2")]
        if not lpic_conditions(clauses, *parts):
            return "lpic witness fails"
    for name in ("separable", "renamable_horn", "renamable_partially_horn", "lpic"):
        if records[name]["verdict"] != (records[name]["witness"] is not None):
            return f"{name} verdict disagrees with its witness"
    if rh is not None and not occ <= set(rph["admissible"] if rph else ()):
        return "renamable-Horn accept without a covering RPH witness"

    pic = flags["affine"] or sep is not None or rph is not None
    if records["pic"]["verdict"] != pic:
        return f"pic verdict {records['pic']['verdict']}, witnesses say {pic}"
    if expect["pic"] != pic:
        return f"pic verdict {pic}, planted {expect['pic']}"
    if not expect["pic"] and any(records[c]["witness"] is not None for c in ("partially_horn", "lpic")):
        return "planted reject accepted by a partial class"
    for name in ("renamable_horn", "separable", "lpic"):
        if expect.get(name) and records[name]["witness"] is None:
            return f"planted {name} formula rejected"
    return None


def check_synthesis(n, members, stdout, code) -> str | None:
    if code != 0:
        return None if not stdout else "reject printed a formula"
    fn, clauses = parse_ecnf(stdout)
    if fn != n:
        return f"synthesized formula has n={fn}, domain n={n}"
    models = np.flatnonzero(model_mask(n, clauses))
    if not np.array_equal(models, members):
        return f"synthesized formula has {len(models)} models, domain has {len(members)}"
    return None


def check_domain_report(n, members, report, expect) -> str | None:
    records = _records(report)
    for name in ("possibility", "local_possibility"):
        if records[name]["verdict"] != expect[name]:
            return f"{name} verdict {records[name]['verdict']}, planted {expect[name]}"
    for name, prop in WITNESS_PROPERTIES.items():
        r = records[name]
        w = r["witness"]
        if r["verdict"] != (w is not None):
            return f"{name} verdict {r['verdict']} with witness {w}"
        if w is None:
            continue
        comps = w["components"]
        if len(comps) != n:
            return f"{name} witness has {len(comps)} components, n={n}"
        tables = [component_table(c, w["arity"]) for c in comps]
        if any(t[0] != 0 or t[-1] != 1 for t in tables):
            return f"{name} witness has a non-unanimous component"
        if not closed(n, members, tables):
            return f"{name} witness {comps} does not preserve the domain"
        if prop is not None and not prop(tables):
            return f"{name} witness {comps} lacks the property"
        if prop is None and not escapes_inputs(n, members, tables):
            return f"{name} witness {comps} is a generalized dictatorship"
    family = records["systematic_family"]
    claimed = [f for f in family["method"].split(",") if f]
    own = [f for f in SYSTEMATIC if closed(n, members, [NAMED_TABLES[f]] * n)]
    if claimed != own or family["verdict"] != bool(own):
        return f"systematic family {claimed}, own check {own}"
    return None
