"""Seeded input generators, one per benchmark workload.

Every generator is a pure function of its seed: the same seed writes
byte-identical files.  The seed picks the content (clauses, members,
renamings, census seeds); the schedule of families and sizes is fixed, so
that the total work of one pass over the job list barely depends on the
seed and the run-to-run spread stays small.

Each job carries the answer planted by its construction (`expect`), which
the checker compares against aggdom's output without calling aggdom.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = {
    "census-n4": "the routine theory-vs-oracle check and the path to an exhaustive "
    "n=4 census; thousands of tiny calls where fixed per-call overhead dominates",
    "formula-cli": "classify-formula on large generated .ecnf files; runs only "
    "parsing and the recognizers, bypassing synthesis, closure checks and the oracle",
    "domain-cli": "synthesize, synthesize --lpic and classify-domain on n=10..12 "
    "domains; few large calls dominated by the 2^n prime-CNF sweep and |D|^3 closure checks",
}

# census-n4: a pass is CENSUS_JOBS jobs of CENSUS_SAMPLE sampled domains each.
CENSUS_JOBS = 120
CENSUS_SAMPLE = 20

# formula-cli: heavy-tailed clause counts, the quantiles of a Pareto(1)
# distribution starting at 5k and cut at 50k, so every pass holds the same
# sizes and the largest file (which sets peak memory) is always 50k clauses.
FORMULA_MIN_CLAUSES = 5_000
FORMULA_MAX_CLAUSES = 50_000
FORMULA_FILES = 10

FORMULA_FAMILIES = {
    "rand3": "random 3-CNF plus a chain of 3-variable parity gadgets; the gadgets make "
    "every variable inadmissible and the variable graph connected, so every class "
    "rejects: the recognizers' worst case for zero propagation",
    "renamable-horn": "Horn clauses under a random renaming; the renamable-Horn and "
    "renamable-partially-Horn accept path with a full witness",
    "separable": "random 3-CNF blocks on disjoint variable sets; the union-find "
    "separability accept path",
    "affine": "systems of 3- and 4-variable xor clauses; the syntactic affine accept path "
    "and the lpic short cut for affine formulas",
    "lpic": "a renamed Horn part V0, 2-literal clauses over V1 and V0-guarded "
    "generalized and xor clauses over V2; the full lpic recognizer",
}

DOMAIN_FAMILIES = {
    "and-closed": "closed under and (Horn): the renamable-partially-Horn route, the "
    "common possibility case",
    "and-renamed": "an and-closed domain with random coordinates complemented: the "
    "renaming half of the RPH route",
    "affine": "a coset of a random GF(2) subspace: the affine route, which builds the "
    "prime CNF a third time, and full |D|^3 closure checks",
    "maj-closed": "models of a random 2-CNF (bijunctive): every ternary closure check "
    "runs to completion, the |D|^3 worst case",
    "product": "product of an and-closed and a bijunctive or affine domain on randomly "
    "interleaved coordinates: the separable route",
    "sphere": "a Hamming sphere of radius 2 around a random centre: an impossibility "
    "domain (no non-dictatorial binary aggregator exists once n >= 6, and it is not "
    "affine), so every job rejects",
}

# (family, n, lowest |D|, highest |D|, fixed coordinates).  |D| is bounded
# so that a job stays within a few seconds, since ternary closure checks cost
# |D|^3 tuples, and the ranges are narrow so that a pass costs about the same
# for every seed.  Domains with fixed coordinates are degenerate and run with
# --permissive, which exercises projection and lifting.
DOMAIN_SCHEDULE = (
    ("and-closed", 12, 40, 44, 0),
    ("and-renamed", 11, 30, 34, 0),
    ("affine", 12, 32, 32, 0),
    ("maj-closed", 10, 24, 28, 0),
    ("product", 11, 32, 40, 0),
    ("sphere", 12, 66, 66, 0),
    ("and-closed", 12, 24, 28, 2),
    ("maj-closed", 11, 20, 24, 1),
)


@dataclass
class Job:
    """One CLI invocation and the answer its input plants."""

    kind: str  # census | classify-formula | synthesize | synthesize-lpic | classify-domain
    argv: list[str]
    expect: dict = field(default_factory=dict)
    path: str | None = None  # the input file, for the checker


def generate(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of one workload into `workdir` and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    if workload == "census-n4":
        return census_jobs(seed)
    if workload == "formula-cli":
        return formula_jobs(seed, workdir)
    return domain_jobs(seed, workdir)


# ---------------------------------------------------------------------------
# census-n4
# ---------------------------------------------------------------------------


def census_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for _ in range(CENSUS_JOBS):
        s = rng.getrandbits(31)
        argv = ["census", "4", "--sample", str(CENSUS_SAMPLE), "--seed", str(s), "--json"]
        jobs.append(Job("census", argv, {"code": 0, "records": CENSUS_SAMPLE}))
    return jobs


# ---------------------------------------------------------------------------
# formula-cli
# ---------------------------------------------------------------------------

# A clause is (kind, or_literals, xor_literals) with kind "o", "x" or "g" and
# literals as signed 1-based ints, the .ecnf convention.


def formula_sizes() -> list[int]:
    sizes = []
    for i in range(FORMULA_FILES):
        q = (i + 0.5) / FORMULA_FILES
        sizes.append(min(FORMULA_MAX_CLAUSES, round(FORMULA_MIN_CLAUSES / (1 - q))))
    return sizes


def _distinct(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k distinct ints from range(lo, hi)."""
    out: list[int] = []
    while len(out) < k:
        v = rng.randrange(lo, hi)
        if v not in out:
            out.append(v)
    return out


def _signed(rng: random.Random, variables) -> tuple[int, ...]:
    return tuple(v if rng.getrandbits(1) else -v for v in variables)


def _parity_chain(rng: random.Random, variables: list[int]) -> list[tuple]:
    """Four clauses of a 3-xor on each overlapping triple of `variables`.

    Under any renaming, a variable of such a gadget occurs positively in two
    of its clauses whose other literals differ in sign, so it can never be
    admissible; the overlaps connect every variable into one component.
    """
    clauses = []
    for i in range(0, len(variables) - 2, 2):
        a, b, c = variables[i : i + 3]
        parity = rng.getrandbits(1)
        for signs in range(8):
            if bin(signs).count("1") % 2 == parity:
                lits = tuple(v if signs >> j & 1 else -v for j, v in enumerate((a, b, c)))
                clauses.append(("o", lits, ()))
    return clauses


def _random3(rng: random.Random, variables: list[int], m: int) -> list[tuple]:
    """A rejecting random 3-CNF with about m clauses over `variables`."""
    order = list(variables)
    rng.shuffle(order)
    clauses = _parity_chain(rng, order)
    lo, hi = 0, len(variables)
    while len(clauses) < m:
        picked = [variables[i] for i in _distinct(rng, lo, hi, 3)]
        clauses.append(("o", _signed(rng, picked), ()))
    return clauses


def _rename_clauses(clauses, renamed: set[int]) -> list[tuple]:
    def flip(lits):
        return tuple(-l if abs(l) in renamed else l for l in lits)

    return [(kind, flip(o), flip(x)) for kind, o, x in clauses]


def _horn_clause(rng: random.Random, variables, width: int) -> tuple:
    picked = [variables[i] for i in _distinct(rng, 0, len(variables), width)]
    lits = [-v for v in picked]
    if rng.random() < 0.7:  # one positive literal, otherwise a goal clause
        j = rng.randrange(width)
        lits[j] = -lits[j]
    return ("o", tuple(lits), ())


def _family_formula(family: str, rng: random.Random, m: int) -> tuple[int, list[tuple], dict]:
    if family == "rand3":
        n = max(30, m // 6)
        return n, _random3(rng, list(range(1, n + 1)), m), {"pic": False}
    if family == "renamable-horn":
        n = max(30, m // 4)
        variables = list(range(1, n + 1))
        clauses = [_horn_clause(rng, variables, rng.choice((2, 3, 3))) for _ in range(m)]
        renamed = {v for v in variables if rng.getrandbits(1)}
        return n, _rename_clauses(clauses, renamed), {"pic": True, "renamable_horn": True}
    if family == "separable":
        n = max(60, m // 6)
        blocks = rng.choice((2, 3, 4))
        bounds = [round(n * i / blocks) for i in range(blocks + 1)]
        clauses = []
        for b in range(blocks):
            block = list(range(bounds[b] + 1, bounds[b + 1] + 1))
            clauses += _random3(rng, block, m * len(block) // n)
        rng.shuffle(clauses)
        return n, clauses, {"pic": True, "separable": True}
    if family == "affine":
        n = max(30, m // 2)
        clauses = []
        for _ in range(m):
            picked = [v + 1 for v in _distinct(rng, 0, n, rng.choice((3, 4)))]
            clauses.append(("x", (), _signed(rng, picked)))
        return n, clauses, {"pic": True, "affine": True, "lpic": True}
    if family == "lpic":
        n = max(40, m // 4)
        variables = list(range(1, n + 1))
        rng.shuffle(variables)
        v0 = variables[: n // 2]
        v1 = variables[n // 2 : 3 * n // 4]
        v2 = variables[3 * n // 4 :]
        clauses = []
        for _ in range(m // 2):
            clauses.append(_horn_clause(rng, v0, rng.choice((2, 3))))
        for _ in range(m // 4):
            pair = [v1[i] for i in _distinct(rng, 0, len(v1), 2)]
            lits = _signed(rng, pair)
            if rng.getrandbits(1):  # a guard literal, negative in the Horn part
                lits = (-v0[rng.randrange(len(v0))],) + lits
            clauses.append(("o", lits, ()))
        while len(clauses) < m:
            tail = _signed(rng, [v2[i] for i in _distinct(rng, 0, len(v2), rng.choice((2, 3)))])
            if rng.random() < 0.7:
                guard = tuple(-v0[i] for i in _distinct(rng, 0, len(v0), rng.choice((1, 2))))
                clauses.append(("g", guard, tail))
            else:
                clauses.append(("x", (), tail))
        rng.shuffle(clauses)
        renamed = {v for v in v0 if rng.getrandbits(1)}
        return n, _rename_clauses(clauses, renamed), {"pic": True, "lpic": True}
    raise ValueError(f"unknown formula family {family!r}")


def render_ecnf(n: int, clauses) -> str:
    lines = [f"p ecnf {n} {len(clauses)}"]
    for kind, o, x in clauses:
        if kind == "o":
            lines.append(" ".join(map(str, o)) + " 0")
        elif kind == "x":
            lines.append("x " + " ".join(map(str, x)) + " 0")
        else:
            lines.append("g " + " ".join(map(str, o)) + " x " + " ".join(map(str, x)) + " 0")
    return "\n".join(lines) + "\n"


def formula_jobs(seed: int, workdir: str) -> list[Job]:
    families = list(FORMULA_FAMILIES)
    jobs = []
    for i, m in enumerate(formula_sizes()):
        family = families[i % len(families)]
        rng = random.Random(seed * 7919 + i)
        n, clauses, expect = _family_formula(family, rng, m)
        path = os.path.join(workdir, f"f{i:02d}-{family}.ecnf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_ecnf(n, clauses))
        expect = {"code": 0 if expect["pic"] else 1, "family": family, **expect}
        jobs.append(Job("classify-formula", ["classify-formula", path, "--json"], expect, path))
    return jobs


# ---------------------------------------------------------------------------
# domain-cli
# ---------------------------------------------------------------------------

# A domain is a set of members packed into ints, x1 as the most significant bit.


def _random_vector(rng: random.Random, n: int, density: float = 0.5) -> int:
    v = 0
    for _ in range(n):
        v = (v << 1) | (rng.random() < density)
    return v


def _close(members: set[int], op) -> set[int]:
    """Closure of a set under a binary operation on packed members."""
    members = set(members)
    frontier = list(members)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(members):
                c = op(a, b)
                if c not in members:
                    members.add(c)
                    fresh.append(c)
        frontier = fresh
    return members


def _non_degenerate(members, n: int) -> bool:
    full = (1 << n) - 1
    ones = zeros = 0
    for m in members:
        ones |= m
        zeros |= full & ~m
    return ones == full and zeros == full


def _and_closed(rng: random.Random, n: int, lo: int, hi: int) -> set[int]:
    while True:
        members: set[int] = set()
        while len(members) < lo:
            members = _close(members | {_random_vector(rng, n, 0.7)}, lambda a, b: a & b)
        if len(members) <= hi and _non_degenerate(members, n):
            return members


def _affine(rng: random.Random, n: int, size: int) -> set[int]:
    rank = size.bit_length() - 1
    while True:
        basis: list[int] = []
        span = {0}
        while len(basis) < rank:
            v = _random_vector(rng, n)
            if v not in span:
                basis.append(v)
                span |= {s ^ v for s in span}
        offset = _random_vector(rng, n)
        members = {s ^ offset for s in span}
        if _non_degenerate(members, n):
            return members


def _sat2(p: int, n: int, clause) -> bool:
    return any(((p >> (n - abs(l))) & 1) == (l > 0) for l in clause)


def _maj_closed(rng: random.Random, n: int, lo: int, hi: int) -> set[int]:
    """Models of a random 2-CNF, grown clause by clause into [lo, hi]."""
    while True:
        members = set(range(1 << n))
        while len(members) > hi:
            a, b = (v + 1 for v in _distinct(rng, 0, n, 2))
            clause = (a if rng.getrandbits(1) else -a, b if rng.getrandbits(1) else -b)
            members = {p for p in members if _sat2(p, n, clause)}
        if len(members) >= lo and _non_degenerate(members, n):
            return members


def _interleave(rng: random.Random, n1: int, d1: set[int], n2: int, d2: set[int]) -> set[int]:
    """Product of two domains with the coordinates randomly interleaved."""
    n = n1 + n2
    slots = list(range(n))
    rng.shuffle(slots)
    first, second = sorted(slots[:n1]), sorted(slots[n1:])

    def place(value: int, width: int, positions) -> int:
        out = 0
        for i, pos in enumerate(positions):
            if value >> (width - 1 - i) & 1:
                out |= 1 << (n - 1 - pos)
        return out

    return {place(a, n1, first) | place(b, n2, second) for a in d1 for b in d2}


def _sphere(rng: random.Random, n: int) -> set[int]:
    centre = _random_vector(rng, n)
    return {centre ^ (1 << i) ^ (1 << j) for i in range(n) for j in range(i + 1, n)}


def _family_domain(family: str, rng: random.Random, n: int, lo: int, hi: int) -> set[int]:
    if family == "and-closed":
        return _and_closed(rng, n, lo, hi)
    if family == "and-renamed":
        mask = _random_vector(rng, n)
        return {m ^ mask for m in _and_closed(rng, n, lo, hi)}
    if family == "affine":
        return _affine(rng, n, lo)
    if family == "maj-closed":
        return _maj_closed(rng, n, lo, hi)
    if family == "product":
        n1 = n // 2
        while True:
            d1 = _and_closed(rng, n1, 5, 8)
            d2 = _affine(rng, n - n1, 4) if rng.getrandbits(1) else _maj_closed(rng, n - n1, 5, 6)
            members = _interleave(rng, n1, d1, n - n1, d2)
            if lo <= len(members) <= hi:
                return members
    if family == "sphere":
        return _sphere(rng, n)
    raise ValueError(f"unknown domain family {family!r}")


def render_domain(n: int, members) -> str:
    return f"d {n}\n" + "".join(format(m, f"0{n}b") + "\n" for m in sorted(members))


def _insert_fixed(rng: random.Random, members, inner: int, fixed: int) -> set[int]:
    """Widen each member by `fixed` constant coordinates at random positions."""
    n = inner + fixed
    slots = sorted(_distinct(rng, 0, n, fixed))
    bits = [rng.getrandbits(1) for _ in slots]
    widened = set()
    for m in members:
        row = [(m >> (inner - 1 - i)) & 1 for i in range(inner)]
        for pos, bit in zip(slots, bits):
            row.insert(pos, bit)
        widened.add(int("".join(map(str, row)), 2))
    return widened


def domain_jobs(seed: int, workdir: str) -> list[Job]:
    jobs = []
    for i, (family, n, lo, hi, fixed) in enumerate(DOMAIN_SCHEDULE):
        rng = random.Random(seed * 7919 + i)
        members = _family_domain(family, rng, n - fixed, lo, hi)
        if fixed:
            members = _insert_fixed(rng, members, n - fixed, fixed)
        path = os.path.join(workdir, f"d{i:02d}-{family}.dom")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_domain(n, members))
        extra = ["--permissive"] if fixed else []
        # Every family but the sphere is closed under a ternary aggregator with
        # no projection component (and3, or3, maj, xor3 or a mix of them), so
        # it is both a local possibility and a possibility domain.
        possible = family != "sphere"
        expect = {"family": family, "possibility": possible, "local_possibility": possible,
                  "code": 0 if possible else 1}
        jobs.append(Job("synthesize", ["synthesize", path, *extra], expect, path))
        jobs.append(Job("synthesize-lpic", ["synthesize", path, "--lpic", *extra], expect, path))
        jobs.append(Job("classify-domain", ["classify-domain", path, "--json", "--witness", *extra],
                        expect, path))
    return jobs
