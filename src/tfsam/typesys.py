"""Type hierarchies: parsing, validation, least upper bounds, unification plans.

A hierarchy is declared as a sequence of statements

    t sub [t1,...,tn] intro [f1:r1,...,fm:rm].

with ``%`` comments.  ``bot`` names the most general type and may appear
only as a statement subject or as a feature value type.  Validation
computes the subsumption closure, checks that the order is bounded
complete and that appropriateness is monotone with unique least feature
introducers, fixes the alphabetical feature order of every type, and
precomputes for every pair of types the least upper bound together with
a step-by-step unification plan.

Types and features are interned to dense integer ids at validation time;
all per-type and per-pair tables are indexed by those ids.  Most methods
of TypeHierarchy accept either an id or a name; the machine, which only
holds ids, indexes the tables ``plans``, ``arities`` and ``approps``
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scan

BOT = "bot"


class SpecError(scan.SourceError):
    """A type specification is syntactically or semantically invalid."""


@dataclass(frozen=True)
class TypeStatement:
    name: str
    subtypes: tuple[str, ...]
    intro: tuple[tuple[str, str], ...]   # (feature, value type) pairs
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class TypeSpec:
    statements: tuple[TypeStatement, ...]


# Plan steps, one per feature of the result type, in the result's feature
# order.  Positions are 1-based offsets into the right operand's arc block.

@dataclass(frozen=True)
class RightOnly:
    pos: int


@dataclass(frozen=True)
class LeftOnly:
    pass


@dataclass(frozen=True)
class Both:
    pos: int


@dataclass(frozen=True)
class Introduced:
    vtype: int


PlanStep = RightOnly | LeftOnly | Both | Introduced


@dataclass(frozen=True)
class UnifyPlan:
    left: int
    right: int
    result: int | None
    steps: tuple[PlanStep, ...]


def parse_type_spec(text) -> TypeSpec:
    tokens = scan.tokenize(text, error=SpecError)
    cur = scan.Cursor(tokens, error=SpecError)
    statements = []
    while not cur.at_end():
        statements.append(parse_statement(cur))
    seen = {}
    for st in statements:
        if st.name in seen:
            raise SpecError(f"duplicate characterization of type {st.name!r}", st.line, st.col)
        seen[st.name] = st
    return TypeSpec(tuple(statements))


def parse_statement(cur) -> TypeStatement:
    subject = cur.expect_name("a type name")
    cur.expect("sub")
    subtypes = _name_list(cur, "a subtype name")
    intro = ()
    if cur.at("intro"):
        cur.next()
        intro = _pair_list(cur)
    cur.expect(".")
    return TypeStatement(subject.text, subtypes, intro, subject.line, subject.col)


def _name_list(cur, what):
    cur.expect("[")
    names = []
    if not cur.at("]"):
        names.append(cur.expect_name(what).text)
        while cur.at(","):
            cur.next()
            names.append(cur.expect_name(what).text)
    cur.expect("]")
    return tuple(names)


def _pair_list(cur):
    cur.expect("[")
    pairs = []
    if not cur.at("]"):
        pairs.append(_feature_pair(cur))
        while cur.at(","):
            cur.next()
            pairs.append(_feature_pair(cur))
    cur.expect("]")
    return tuple(pairs)


def _feature_pair(cur):
    f = cur.expect_name("a feature name")
    cur.expect(":")
    v = cur.expect_name("a value type")
    return (f.text, v.text)


class TypeHierarchy:
    """A validated type hierarchy with eager LUB and plan tables."""

    def __init__(self, spec: TypeSpec):
        self._build(spec)

    # -- lookups ---------------------------------------------------------

    def tid(self, t) -> int:
        if isinstance(t, int):
            return t
        try:
            return self.ids[t]
        except KeyError:
            raise SpecError(f"unknown type {t!r}") from None

    def tname(self, t) -> str:
        return self.names[t] if isinstance(t, int) else t

    @property
    def n_types(self) -> int:
        return len(self.names)

    def subsumes(self, a, b) -> bool:
        """True when *a* is at least as general as *b*."""
        return self.tid(b) in self._ups[self.tid(a)]

    def lub(self, a, b) -> int | None:
        return self._lub[self.tid(a)][self.tid(b)]

    def plan(self, left, right) -> UnifyPlan:
        return self.plans[self.tid(left)][self.tid(right)]

    def features(self, t) -> tuple[str, ...]:
        return self._features[self.tid(t)]

    def arity(self, t) -> int:
        return self.arities[self.tid(t)]

    def approp_list(self, t) -> tuple[int, ...]:
        """Value-type ids aligned with features(t)."""
        return self.approps[self.tid(t)]

    def approp(self, t, feature) -> int | None:
        tn = self.tid(t)
        try:
            k = self._features[tn].index(feature)
        except ValueError:
            return None
        return self.approps[tn][k]

    def introducer(self, feature) -> int:
        return self._introducer[feature]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self._introducer)

    # -- construction ----------------------------------------------------

    def _build(self, spec):
        by_name = {st.name: st for st in spec.statements}
        names = []
        if BOT in by_name:
            order = [st.name for st in spec.statements]
            names = [BOT] + [n for n in order if n != BOT]
        else:
            names = [BOT] + [st.name for st in spec.statements]
        ids = {n: i for i, n in enumerate(names)}

        for st in spec.statements:
            for s in st.subtypes:
                if s == BOT:
                    raise SpecError(f"{BOT!r} may not be declared a subtype of {st.name!r}",
                                    st.line, st.col)
                if s not in ids:
                    raise SpecError(f"unknown type {s!r} in subtypes of {st.name!r}",
                                    st.line, st.col)
            for f, v in st.intro:
                if v not in ids:
                    raise SpecError(f"unknown value type {v!r} for feature {f!r} of {st.name!r}",
                                    st.line, st.col)

        n = len(names)
        self.names = names
        self.ids = ids
        self.bot = ids[BOT]

        children = [[] for _ in range(n)]
        for st in spec.statements:
            for s in st.subtypes:
                children[ids[st.name]].append(ids[s])

        # reflexive transitive closure; ups[t] = every type at least as specific as t
        ups = [None] * n
        state = [0] * n    # 0 unvisited, 1 on stack, 2 done

        def close(t, path):
            if state[t] == 1:
                cycle = " < ".join(self.names[x] for x in path[path.index(t):] + [t])
                raise SpecError(f"subtype cycle, not a partial order: {cycle}")
            if state[t] == 2:
                return ups[t]
            state[t] = 1
            acc = {t}
            for c in children[t]:
                acc |= close(c, path + [t])
            ups[t] = frozenset(acc)
            state[t] = 2
            return ups[t]

        for t in range(n):
            close(t, [])
        self._ups = ups

        missing = [names[t] for t in range(n) if t not in ups[self.bot]]
        if missing:
            raise SpecError(f"type(s) not subsumed by {BOT!r}: {', '.join(sorted(missing))}")

        # bounded completeness: every consistent pair has a unique least upper bound
        lub = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                common = ups[a] & ups[b]
                if not common:
                    continue
                minimal = [u for u in common
                           if not any(v != u and u in ups[v] for v in common)]
                if len(minimal) > 1:
                    ms = ", ".join(sorted(names[m] for m in minimal))
                    raise SpecError(
                        f"not bounded complete: types {names[a]!r} and {names[b]!r} "
                        f"have minimal upper bounds {{{ms}}} but no least one")
                lub[a][b] = lub[b][a] = minimal[0]
        self._lub = lub

        # feature introduction: collect declaring types per feature
        declared = {}   # feature -> list of (type id, value id, line, col)
        for st in spec.statements:
            seen_here = set()
            for f, v in st.intro:
                if f in seen_here:
                    raise SpecError(f"feature {f!r} listed twice for {st.name!r}",
                                    st.line, st.col)
                seen_here.add(f)
                declared.setdefault(f, []).append((ids[st.name], ids[v], st.line, st.col))

        introducer = {}
        for f, decls in declared.items():
            tids = [t for t, _, _, _ in decls]
            least = [t for t in tids if all(o in ups[t] for o in tids)]
            if not least:
                two = ", ".join(sorted(names[t] for t in tids))
                raise SpecError(f"feature {f!r} introduced by incomparable types: {two}")
            introducer[f] = least[0]
            # declared value types must grow monotonically toward subtypes
            for t1, v1, l1, c1 in decls:
                for t2, v2, _, _ in decls:
                    if t1 != t2 and t2 in ups[t1] and v2 not in ups[v1]:
                        raise SpecError(
                            f"non-monotone appropriateness: {names[t2]!r} declares "
                            f"{f}:{names[v2]} but supertype {names[t1]!r} declares "
                            f"{f}:{names[v1]}", l1, c1)
        self._introducer = dict(sorted(introducer.items()))

        features = []
        approp = []
        for t in range(n):
            fs = sorted(f for f, decls in declared.items()
                        if any(t in ups[d] for d, _, _, _ in decls))
            vals = []
            for f in fs:
                inherited = [v for d, v, _, _ in declared[f] if t in ups[d]]
                v = inherited[0]
                for w in inherited[1:]:
                    v2 = lub[v][w]
                    if v2 is None:
                        raise SpecError(
                            f"non-monotone appropriateness: inherited value types "
                            f"{names[v]!r} and {names[w]!r} for feature {f!r} of "
                            f"{names[t]!r} are inconsistent")
                    v = v2
                vals.append(v)
            features.append(tuple(fs))
            approp.append(tuple(vals))
        self._features = features
        self.approps = approp
        self.arities = [len(fs) for fs in features]

        self.plans = [[self._make_plan(a, b) for b in range(n)] for a in range(n)]

    def _make_plan(self, left, right):
        result = self._lub[left][right]
        if result is None:
            return UnifyPlan(left, right, None, ())
        lf = self._features[left]
        rf = self._features[right]
        rpos = {f: k + 1 for k, f in enumerate(rf)}
        steps = []
        for k, f in enumerate(self._features[result]):
            if f in rpos:
                steps.append(Both(rpos[f]) if f in lf else RightOnly(rpos[f]))
            elif f in lf:
                steps.append(LeftOnly())
            else:
                steps.append(Introduced(self.approps[result][k]))
        return UnifyPlan(left, right, result, tuple(steps))


def validate(spec: TypeSpec) -> TypeHierarchy:
    return TypeHierarchy(spec)


def load_hierarchy(text) -> TypeHierarchy:
    """Parse and validate a type specification in one step."""
    return validate(parse_type_spec(text))
