"""Syntactic recognizers with verifiable witnesses.

Every accepting recognizer re-verifies its own witness through the matching
verify_* routine before returning it; a failure there raises
VerificationError, which always indicates a bug rather than bad input.

The renamable-partially-Horn recognizer builds a directed implication graph
on vertices {x, x'} per variable and reads the witness off its strongly
connected components.  Vertex x stands for "x is renamed (and admissible)",
vertex x' for "x is admissible but not renamed"; both zero means x is not
admissible.  For each clause and each ordered pair of distinct variables
u, v in it there is an edge src(u) -> tgt(v), where src(u) is the vertex
that makes u's literal positive after renaming and tgt(v) the vertex that
makes v's literal negative.  An SCC is bad when it contains both x and x'.
Exclusive-or parts force their variables out of the admissible set, and
or-parts of mixed clauses behave like occurrences in an inadmissible clause
(their "positive after renaming" vertex is seeded dead).  Partially Horn
(no renaming) is the same graph and zero propagation with every renaming
vertex seeded dead as well.  Dead seeds do not change the SCCs, so
classify_formula builds one graph, runs one Tarjan and runs both zero
propagations on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationError
from .formula import Formula


@dataclass(frozen=True)
class SyntacticFlags:
    horn: bool
    dual_horn: bool
    bijunctive: bool
    affine: bool


@dataclass(frozen=True)
class SeparabilityWitness:
    part1: frozenset[int]
    part2: frozenset[int]


@dataclass(frozen=True)
class RPHWitness:
    """Renaming set V* and admissible set V0 with V* <= V0."""

    renamed: frozenset[int]
    admissible: frozenset[int]


@dataclass(frozen=True)
class LpicWitness:
    """Renaming V* plus the three-way split (V0, V1, V2) of occurring variables."""

    renamed: frozenset[int]
    v0: frozenset[int]
    v1: frozenset[int]
    v2: frozenset[int]


@dataclass(frozen=True)
class PicResult:
    separable: SeparabilityWitness | None
    renamable_partially_horn: RPHWitness | None
    affine: bool

    @property
    def accepted(self) -> bool:
        return self.affine or self.separable is not None or self.renamable_partially_horn is not None

    def kinds(self) -> tuple[str, ...]:
        found = []
        if self.separable is not None:
            found.append("separable")
        if self.renamable_partially_horn is not None:
            found.append("renamable-partially-horn")
        if self.affine:
            found.append("affine")
        return tuple(found)


def check_syntactic_class(f: Formula) -> SyntacticFlags:
    """The four classical clause classes.  All-OR and affine compare offset
    arrays (no xor parts, no or parts); the other three classes need all-OR
    and take one pass over the clauses each, stopping at the first failing
    clause."""
    all_or = f.xstarts == f.ends
    horn = dual_horn = bijunctive = False
    if all_or:
        spans = list(zip(f.starts, f.ends))
        positive = bytes(l > 0 for l in f.lits)
        horn = all(positive.count(1, s, e) <= 1 for s, e in spans)
        dual_horn = all(positive.count(0, s, e) <= 1 for s, e in spans)
        bijunctive = all(e - s <= 2 for s, e in spans)
    return SyntacticFlags(horn, dual_horn, bijunctive, affine=f.starts == f.xstarts)


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------


def variable_components(clause_var_lists, variables) -> list[set[int]]:
    """Connected components of the graph joining the variables of each
    clause to its first one, by union-find over one parent dict.  Each
    clause's variable set lies inside one component."""
    parent = {v: v for v in variables}

    def find(v):
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for var_list in clause_var_lists:
        rest = iter(var_list)
        for first in rest:  # at most one round: the inner loop drains `rest`
            head = find(first)
            for v in rest:
                root = find(v)
                if root != head:
                    parent[root] = head
    groups: dict[int, set[int]] = {}
    for v in variables:
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=min)


def _components(f: Formula, occurring: set[int]) -> list[set[int]]:
    """variable_components of f, streaming each clause's variable list."""
    variables = list(map(abs, f.lits))
    return variable_components((variables[s:e] for s, e in zip(f.starts, f.ends)), sorted(occurring))


def _group_by_component(components: list[set[int]], keyed_items) -> list[list]:
    """Items per component, in input order, from (variable, item) pairs in
    one pass over an index from variables to their component."""
    component_of = {v: i for i, comp in enumerate(components) for v in comp}
    groups: list[list] = [[] for _ in components]
    for v, item in keyed_items:
        groups[component_of[v]].append(item)
    return groups


def check_separable(f: Formula) -> SeparabilityWitness | None:
    """Partition of the occurring variables with no clause crossing it, or
    None when the variable graph is connected.  Linear in formula length."""
    occurring = f.occurring_variables()
    if len(occurring) < 2:
        raise ValueError("separability needs at least two occurring variables")
    return _separable_from(_components(f, occurring))


def _separable_from(components: list[set[int]]) -> SeparabilityWitness | None:
    """The separable split read off the variable components; fewer than two
    components (connected, or fewer than two occurring variables) is None."""
    if len(components) < 2:
        return None
    part1 = frozenset(components[0])
    part2 = frozenset(v for comp in components[1:] for v in comp)
    return SeparabilityWitness(part1, part2)


def _separable_or_none(f: Formula) -> SeparabilityWitness | None:
    """check_separable, with fewer than two occurring variables read as a
    reject: they make fewer than two components.  Nothing is caught, so an
    error inside the analysis propagates instead of reading as a reject."""
    return _separable_from(_components(f, f.occurring_variables()))


# ---------------------------------------------------------------------------
# partially Horn
# ---------------------------------------------------------------------------


def verify_partially_horn(f: Formula, admissible: set[int]) -> bool:
    """Mechanical check of the admissible-set conditions.

    Clauses made only of admissible variables must be Horn, and admissible
    variables may occur only negatively in any clause that reaches outside
    the set.  Mixed and xor clauses always count as reaching outside, and
    their xor parts must not meet the admissible set at all.
    """
    return _partially_horn_renamed(f, frozenset(), admissible)


def _partially_horn_renamed(f: Formula, renamed, admissible) -> bool:
    """verify_partially_horn on f with the variables in `renamed` flipped,
    read off the signs without building the renamed formula: a literal is
    positive after renaming when it is positive and its variable is not
    renamed, or negative and renamed."""
    if not admissible:
        raise ValueError("the admissible set must be non-empty")
    # one byte per literal: is its variable admissible, and is it an
    # admissible literal that is positive after renaming
    inside = bytes(map(admissible.__contains__, map(abs, f.lits)))
    positive = {v if v not in renamed else -v for v in admissible}
    hits = bytes(map(positive.__contains__, f.lits))
    for s, x, e in zip(f.starts, f.xstarts, f.ends):
        if x == e:  # an OR clause
            if not inside.count(0, s, e):  # inside the admissible set: Horn
                if hits.count(1, s, e) > 1:
                    return False
                continue
        elif inside.count(1, x, e):  # an xor part meets the admissible set
            return False
        if hits.count(1, s, x):
            return False
    return True


def check_partially_horn(f: Formula) -> frozenset[int] | None:
    """Maximal admissible set without renaming, or None.

    The renamable-partially-Horn zero propagation with every renaming vertex
    seeded dead, so only the "admissible, kept as is" vertices can survive.
    """
    witness = _greatest_admissible(f, _implication_sccs(f), renaming=False)
    return None if witness is None else witness.admissible


# ---------------------------------------------------------------------------
# renamable partially Horn
# ---------------------------------------------------------------------------

# vertex 2(v-1) is "v renamed into the admissible set",
# vertex 2(v-1)+1 is "v admissible, kept as is"


def build_implication_graph(f: Formula) -> tuple[list[list[int]], set[int]]:
    """Adjacency lists over the 2n renaming vertices plus the dead seeds."""
    adj: list[list[int]] = [[] for _ in range(2 * f.n)]
    dead: set[int] = set()
    # src(l) for every literal l, the vertex that makes l positive after
    # renaming, and tgt(l), its counterpart, which gives skew symmetry: the
    # pair (v, u) contributes exactly the edge counterpart(tgt(u)) ->
    # counterpart(src(v))
    vertices = [2 * l - 1 if l > 0 else -2 * l - 2 for l in f.lits]
    counterparts = [v ^ 1 for v in vertices]
    for s, x, e in zip(f.starts, f.xstarts, f.ends):
        sources = vertices[s:x]
        if x == e:  # an OR clause
            targets = counterparts[s:x]
            for i, src in enumerate(sources):
                adj[src].extend(targets[:i] + targets[i + 1 :])
        else:
            # both vertices of every xor-part variable
            dead.update(vertices[x:e])
            dead.update(counterparts[x:e])
            dead.update(sources)
    return adj, dead


def _tarjan(nvertices: int, adj: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """SCCs in completion order (reverse topological), visiting vertices in
    index order for reproducible witnesses."""
    UNVISITED = -1
    index_of = [UNVISITED] * nvertices
    low = [0] * nvertices
    on_stack = bytearray(nvertices)
    stack: list[int] = []
    comp_id = [UNVISITED] * nvertices
    comps: list[list[int]] = []
    counter = 0
    work_vertex: list[int] = []
    work_edge: list[int] = []
    for root in range(nvertices):
        if index_of[root] != UNVISITED:
            continue
        work_vertex.append(root)
        work_edge.append(0)
        while work_vertex:
            v = work_vertex[-1]
            edge_pos = work_edge[-1]
            if edge_pos == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            neighbors = adj[v]
            low_v = low[v]
            for i in range(edge_pos, len(neighbors)):
                w = neighbors[i]
                if index_of[w] == UNVISITED:
                    work_edge[-1] = i + 1
                    work_vertex.append(w)
                    work_edge.append(0)
                    descended = True
                    break
                if on_stack[w] and index_of[w] < low_v:
                    low_v = index_of[w]
            low[v] = low_v
            if descended:
                continue
            work_vertex.pop()
            work_edge.pop()
            if work_vertex:
                parent = work_vertex[-1]
                if low_v < low[parent]:
                    low[parent] = low_v
            if low_v == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp_id[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps, comp_id


def _implication_sccs(f: Formula):
    """The implication graph of f, its dead seeds and its SCCs, built once for
    both zero propagations: dead seeds do not change the SCCs."""
    adj, dead = build_implication_graph(f)
    comps, comp_id = _tarjan(2 * f.n, adj)
    return adj, dead, comps, comp_id


def _greatest_admissible(f: Formula, sccs, renaming: bool) -> RPHWitness | None:
    """Renamed set and greatest admissible set read off the implication graph
    and its SCCs, re-verified; without renaming, every renaming vertex is an
    extra dead seed."""
    adj, dead, comps, comp_id = sccs
    if not renaming:
        dead = dead | set(range(0, 2 * f.n, 2))

    # An SCC is zeroed when it is bad (contains some x together with x'),
    # contains a dead seed, or reaches a zeroed SCC.  Completion order is
    # reverse topological, so successors are already decided.
    zero = [False] * len(comps)
    for cid, comp in enumerate(comps):
        zero[cid] = any(comp_id[v ^ 1] == cid or v in dead for v in comp) or any(
            zero[comp_id[w]] for v in comp for w in adj[v]
        )

    UNSET = -1
    value = [UNSET] * (2 * f.n)
    for cid, comp in enumerate(comps):
        if zero[cid]:
            for v in comp:
                value[v] = 0
        else:
            for v in sorted(comp):
                if value[v] == UNSET:
                    value[v] = 1
                    value[v ^ 1] = 0

    renamed = frozenset(v for v in range(1, f.n + 1) if value[2 * (v - 1)] == 1)
    admissible = frozenset(
        v for v in range(1, f.n + 1) if value[2 * (v - 1)] == 1 or value[2 * (v - 1) + 1] == 1
    )
    if not admissible:
        return None
    if not _partially_horn_renamed(f, renamed, admissible):
        raise VerificationError("partially-Horn witness failed re-verification")
    return RPHWitness(renamed, admissible)


def check_renamable_partially_horn(f: Formula) -> RPHWitness | None:
    return _greatest_admissible(f, _implication_sccs(f), renaming=True)


def _horn_witnesses(f: Formula) -> tuple[RPHWitness | None, frozenset[int] | None]:
    """The RPH witness and the partially-Horn set of f, both zero propagations
    run on one implication graph and one Tarjan; the graph is dropped on return."""
    sccs = _implication_sccs(f)
    partially_horn = _greatest_admissible(f, sccs, renaming=False)
    return (
        _greatest_admissible(f, sccs, renaming=True),
        None if partially_horn is None else partially_horn.admissible,
    )


def check_renamable_horn(f: Formula) -> frozenset[int] | None:
    """Renaming that turns f into a Horn formula, or None.

    Accepts exactly when the renamable-partially-Horn witness covers every
    occurring variable; mixed and xor clauses therefore always reject.
    """
    return _renamable_horn_from(f.occurring_variables(), check_renamable_partially_horn(f))


def _renamable_horn_from(occurring: set[int], rph: RPHWitness | None) -> frozenset[int] | None:
    if rph is None or not occurring <= rph.admissible:
        return None
    return rph.renamed


# ---------------------------------------------------------------------------
# possibility / local possibility integrity constraints
# ---------------------------------------------------------------------------


def check_pic(f: Formula) -> PicResult:
    """Run all three branches and report every witness found."""
    return PicResult(
        _separable_or_none(f), check_renamable_partially_horn(f), check_syntactic_class(f).affine
    )


def verify_lpic(
    f: Formula,
    renamed: set[int],
    v0: set[int],
    v1: set[int],
    v2: set[int],
) -> bool:
    """Mechanical check of the three local-possibility conditions on
    f with the variables in `renamed` flipped.  The parts must partition the
    occurring variables."""
    return _verify_lpic(f, f.occurring_variables(), renamed, v0, v1, v2)


def _verify_lpic(f: Formula, occurring: set[int], renamed, v0, v1, v2) -> bool:
    """verify_lpic given the occurring variables of f."""
    if v0 | v1 | v2 != occurring or len(v0) + len(v1) + len(v2) != len(occurring):
        raise ValueError("V0, V1, V2 must partition the occurring variables")
    if not renamed <= v0:
        raise ValueError("the renamed set must lie inside V0")
    if v0 and not _partially_horn_renamed(f, renamed, v0):
        return False
    variables = list(map(abs, f.lits))
    one = bytes(map(v1.__contains__, variables))
    two = bytes(map(v2.__contains__, variables))
    for s, x, e in zip(f.starts, f.xstarts, f.ends):
        in_v1, in_v2 = one.count(1, s, e), two.count(1, s, e)
        if in_v1 > 2 or (in_v1 and in_v2):
            return False
        if in_v2:
            if x == e:  # an OR clause
                return False
            if not v2.issuperset(variables[x:e]):
                return False
            if not v0.issuperset(variables[s:x]):
                return False
    return True


def check_lpic(f: Formula) -> LpicWitness | None:
    """Recognize local possibility integrity constraints.

    Bijunctive and affine formulas are accepted outright.  Otherwise the
    admissible set V0 comes from the renamable-partially-Horn recognizer
    (which makes it maximal); an empty V0 leaves only the separable split
    into bijunctive and affine parts, and a partial V0 forces every
    remaining variable of a mixed or xor clause into V2.
    """
    flags = check_syntactic_class(f)
    rph = None if flags.bijunctive or flags.affine else check_renamable_partially_horn(f)
    occurring = f.occurring_variables()
    return _lpic_from(f, flags, rph, occurring, _components(f, occurring))


def _lpic_from(
    f: Formula,
    flags: SyntacticFlags,
    rph: RPHWitness | None,
    occurring: set[int],
    components: list[set[int]],
) -> LpicWitness | None:
    """check_lpic on the class flags, RPH witness, occurring variables and
    variable components of f, computed once by the caller."""
    if flags.bijunctive:
        witness = LpicWitness(frozenset(), frozenset(), frozenset(occurring), frozenset())
        return _verified_lpic(f, occurring, witness)
    if flags.affine:
        witness = LpicWitness(frozenset(), frozenset(), frozenset(), frozenset(occurring))
        return _verified_lpic(f, occurring, witness)

    v0 = frozenset() if rph is None else rph.admissible & occurring
    renamed = frozenset() if rph is None else rph.renamed & v0

    if occurring <= (rph.admissible if rph else frozenset()):
        witness = LpicWitness(renamed, frozenset(occurring), frozenset(), frozenset())
        return _verified_lpic(f, occurring, witness)

    if not v0:
        if len(components) == 1:
            return None
        v1: set[int] = set()
        v2: set[int] = set()
        keyed = ((abs(f.lits[s]), (s, x, e)) for s, x, e in zip(f.starts, f.xstarts, f.ends))
        for comp, clauses in zip(components, _group_by_component(components, keyed)):
            if all(x == e and e - s <= 2 for s, x, e in clauses):  # bijunctive OR clauses
                v1 |= comp
            elif all(s == x for s, x, e in clauses):  # xor clauses
                v2 |= comp
            else:
                return None
        witness = LpicWitness(frozenset(), frozenset(), frozenset(v1), frozenset(v2))
        return _verified_lpic(f, occurring, witness)

    rest = occurring - v0
    v2 = frozenset(
        v
        for s, x, e in zip(f.starts, f.xstarts, f.ends)
        if x != e  # an xor or generalized clause
        for v in map(abs, f.lits[s:e])
        if v in rest
    )
    v1 = rest - v2
    if not _verify_lpic(f, occurring, set(renamed), set(v0), set(v1), set(v2)):
        return None
    return LpicWitness(renamed, v0, frozenset(v1), v2)


def _verified_lpic(f: Formula, occurring: set[int], witness: LpicWitness) -> LpicWitness:
    parts = (set(witness.renamed), set(witness.v0), set(witness.v1), set(witness.v2))
    if not _verify_lpic(f, occurring, *parts):
        raise VerificationError("lpic witness failed re-verification")
    return witness


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaClassReport:
    horn: bool
    dual_horn: bool
    bijunctive: bool
    affine: bool
    renamable_horn: frozenset[int] | None
    separable: SeparabilityWitness | None
    partially_horn: frozenset[int] | None
    renamable_partially_horn: RPHWitness | None
    pic: PicResult
    lpic: LpicWitness | None
    notes: tuple[str, ...] = ()


def classify_formula(f: Formula) -> FormulaClassReport:
    """Every class at once.  One implication graph and one Tarjan serve both
    zero propagations (RPH and partially Horn), one occurring set and one
    variable-component split serve separability and lpic, and renamable
    Horn, pic and lpic are read off the shared results."""
    flags = check_syntactic_class(f)
    notes = ()
    if f.xstarts != f.ends:  # some clause has an xor part
        notes = ("mixed-clause-extension",)
    rph, partially_horn = _horn_witnesses(f)
    occurring = f.occurring_variables()
    components = _components(f, occurring)
    separable = _separable_from(components)
    return FormulaClassReport(
        horn=flags.horn,
        dual_horn=flags.dual_horn,
        bijunctive=flags.bijunctive,
        affine=flags.affine,
        renamable_horn=_renamable_horn_from(occurring, rph),
        separable=separable,
        partially_horn=partially_horn,
        renamable_partially_horn=rph,
        pic=PicResult(separable, rph, flags.affine),
        lpic=_lpic_from(f, flags, rph, occurring, components),
        notes=notes,
    )
