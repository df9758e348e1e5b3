"""Type hierarchies: parsing, validation, least upper bounds, unification plans.

A hierarchy is declared as a sequence of statements

    t sub [t1,...,tn] intro [f1:r1,...,fm:rm].

with ``%`` comments.  ``bot`` names the most general type and may appear
only as a statement subject or as a feature value type.  Validation
rejects a second statement for a type, computes the subsumption closure,
checks that the order is bounded complete and that appropriateness is
monotone with unique least feature introducers, and fixes the
alphabetical feature order of every type.

Subsumption is kept as bit masks, after Ait-Kaci, Boyer, Lincoln and Nasr
("Efficient implementation of lattice operations", TOPLAS 11(1), 1989):
each type has a mask of its subtypes, so subsumption is a bit test and
the least upper bound of two types is the most general type in the AND
of their masks, so no table is needed for it.  The step-by-step
unification plan of a pair of types is made the first time it is asked
for and kept; nothing is tabled for every pair.

Types and features are interned to dense integer ids at validation time,
bot first and then in declaration order; all per-type and per-pair tables
are indexed by those ids.  Most methods of TypeHierarchy accept either an
id or a name; the machine, which only holds ids, indexes the tables
``plans``, ``arities`` and ``approps`` directly, and its walk over two
copies (``machine.walk``) indexes ``ups``, ``type_features`` and
``approps``.
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
# ``narrow`` is the result's appropriate value for the feature where the
# result narrows it below every operand that has the feature, else None.

@dataclass(frozen=True)
class RightOnly:
    pos: int
    narrow: int | None = None


@dataclass(frozen=True)
class LeftOnly:
    narrow: int | None = None


@dataclass(frozen=True)
class Both:
    pos: int
    narrow: int | None = None


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
    # when the result is the right type, the right node is kept as the
    # result: the position in its arc block of each left feature, in order
    kept: tuple[int, ...] | None = None


def parse_type_spec(text) -> TypeSpec:
    cur = scan.tokenize(text, error=SpecError)
    statements = []
    while not cur.at_end():
        statements.append(parse_statement(cur))
    return TypeSpec(tuple(statements))


def parse_statement(cur) -> TypeStatement:
    subject = cur.i
    name = cur.expect_name("a type name")
    cur.expect("sub")
    subtypes = _bracketed(cur, lambda c: c.expect_name("a subtype name"))
    intro = ()
    if cur.at("intro"):
        cur.next()
        intro = _bracketed(cur, _feature_pair)
    cur.expect(".")
    return TypeStatement(name, subtypes, intro, *cur.position(subject))


def _bracketed(cur, item):
    """A tuple of what *item* reads from each element of ``[x, ..., x]``,
    which may be empty."""
    cur.expect("[")
    items = []
    if not cur.at("]"):
        items.append(item(cur))
        while cur.at(","):
            cur.next()
            items.append(item(cur))
    cur.expect("]")
    return tuple(items)


def _feature_pair(cur):
    f = cur.expect_name("a feature name")
    cur.expect(":")
    return (f, cur.expect_name("a value type"))


class _PlanRow(dict):
    """The plans of one left type, keyed by the right type's id.  A plan
    is made the first time it is looked up and kept from then on."""
    __slots__ = ("h", "left")

    def __init__(self, h, left):
        self.h = h
        self.left = left

    def __missing__(self, right):
        plan = self[right] = self.h._make_plan(self.left, right)
        return plan


def _bits(mask):
    """The positions of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TypeHierarchy:
    """A validated type hierarchy.

    Subsumption is a bit test: ``ups[t]`` has the bit ``_rank[u]`` set
    for every type u at least as specific as t, where ranks number the
    types so that each comes before its subtypes; two types have an upper
    bound exactly when their masks share a bit.  ``type_features[t]``
    holds t's features in order.  ``plans[left][right]`` builds the
    pair's plan on first use and keeps it; ``lub`` reads the masks, so
    it makes no plan.
    """

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
        return bool(self.ups[self.tid(a)] >> self._rank[self.tid(b)] & 1)

    def lub(self, a, b) -> int | None:
        """The least upper bound, or None: the type of lowest rank among
        the common subtypes, which is the most general of them."""
        common = self.ups[self.tid(a)] & self.ups[self.tid(b)]
        if not common:
            return None
        return self._by_rank[(common & -common).bit_length() - 1]

    def plan(self, left, right) -> UnifyPlan:
        return self.plans[self.tid(left)][self.tid(right)]

    def features(self, t) -> tuple[str, ...]:
        return self.type_features[self.tid(t)]

    def arity(self, t) -> int:
        return self.arities[self.tid(t)]

    def approp_list(self, t) -> tuple[int, ...]:
        """Value-type ids aligned with features(t)."""
        return self.approps[self.tid(t)]

    def approp(self, t, feature) -> int | None:
        tn = self.tid(t)
        try:
            k = self.type_features[tn].index(feature)
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
        statements = spec.statements
        declared_names = [st.name for st in statements]
        if len(set(declared_names)) < len(declared_names):
            seen = set()
            for st in statements:
                if st.name in seen:
                    raise SpecError(f"duplicate characterization of type {st.name!r}",
                                    st.line, st.col)
                seen.add(st.name)
        names = [BOT] + [name for name in declared_names if name != BOT]
        ids = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.names = names
        self.ids = ids
        self.bot = bot = ids[BOT]

        children = [[] for _ in range(n)]
        parents = [set() for _ in range(n)]
        for st in statements:
            t = ids[st.name]
            for s in st.subtypes:
                c = ids.get(s)
                if not c:       # bot, whose id is 0, or unknown
                    message = (f"{BOT!r} may not be declared a subtype of {st.name!r}"
                               if s == BOT else f"unknown type {s!r} in subtypes of {st.name!r}")
                    raise SpecError(message, st.line, st.col)
                children[t].append(c)
                parents[c].add(t)
            for f, v in st.intro:
                if v not in ids:
                    raise SpecError(f"unknown value type {v!r} for feature {f!r} of {st.name!r}",
                                    st.line, st.col)

        # reflexive transitive closure as bit masks over ranks: ups[t] holds
        # every type at least as specific as t, downs[t] every type at least
        # as general; a topological order fills each from the one before
        order = self._topological_order(children)
        rank = [0] * n
        for r, t in enumerate(order):
            rank[t] = r
        ups = [0] * n
        for t in reversed(order):
            mask = 1 << rank[t]
            for c in children[t]:
                mask |= ups[c]
            ups[t] = mask
        downs = [0] * n
        for t in order:
            mask = 1 << rank[t]
            for p in parents[t]:
                mask |= downs[p]
            downs[t] = mask
        self._rank = rank
        self._by_rank = order
        self.ups = ups

        def subsumes(a, b):
            return ups[a] >> rank[b] & 1

        if ups[bot] != (1 << n) - 1:
            missing = [names[t] for t in range(n) if not subsumes(bot, t)]
            raise SpecError(f"type(s) not subsumed by {BOT!r}: {', '.join(sorted(missing))}")

        # bounded completeness: every consistent pair has a unique least upper
        # bound.  A comparable pair always has one, and two incomparable types
        # that share a subtype also share one with several declared supertypes
        # (where their paths down to it first meet).  meets[a] collects the
        # types above such a join with a, and only those pairs are checked, in
        # the order of their ids, so a failure names the same pair as a check
        # of every pair would
        meets = [0] * n
        for j in range(n):
            if len(parents[j]) > 1:
                for r in _bits(downs[j]):
                    meets[order[r]] |= downs[j]
        for a, meet in enumerate(meets):
            partners = meet & ~ups[a] & ~downs[a]
            if not partners:
                continue
            for b in sorted(order[r] for r in _bits(partners) if order[r] > a):
                common = ups[a] & ups[b]
                if ups[self.lub(a, b)] != common:
                    minimal = [order[r] for r in _bits(common)
                               if downs[order[r]] & common == 1 << r]
                    ms = ", ".join(sorted(names[m] for m in minimal))
                    raise SpecError(
                        f"not bounded complete: types {names[a]!r} and {names[b]!r} "
                        f"have minimal upper bounds {{{ms}}} but no least one")

        # feature introduction: collect declaring types per feature
        declared = {}   # feature -> list of (type id, value id, line, col)
        for st in statements:
            seen_here = set()
            for f, v in st.intro:
                if f in seen_here:
                    raise SpecError(f"feature {f!r} listed twice for {st.name!r}",
                                    st.line, st.col)
                seen_here.add(f)
                declared.setdefault(f, []).append((ids[st.name], ids[v], st.line, st.col))

        # a feature declared once is introduced there, with nothing to check
        introducer = {}
        for f, decls in declared.items():
            if len(decls) == 1:
                introducer[f] = decls[0][0]
                continue
            tids = [t for t, _, _, _ in decls]
            least = [t for t in tids if all(subsumes(t, o) for o in tids)]
            if not least:
                two = ", ".join(sorted(names[t] for t in tids))
                raise SpecError(f"feature {f!r} introduced by incomparable types: {two}")
            introducer[f] = least[0]
            # declared value types must grow monotonically toward subtypes
            for t1, v1, l1, c1 in decls:
                for t2, v2, _, _ in decls:
                    if t1 != t2 and subsumes(t1, t2) and not subsumes(v1, v2):
                        raise SpecError(
                            f"non-monotone appropriateness: {names[t2]!r} declares "
                            f"{f}:{names[v2]} but supertype {names[t1]!r} declares "
                            f"{f}:{names[v1]}", l1, c1)
        self._introducer = dict(sorted(introducer.items()))

        # a type has the features introduced at or above it: walk each
        # introducer's subtypes once, features in sorted order
        features_of = [[] for _ in range(n)]
        for f, i in self._introducer.items():
            for r in _bits(ups[i]):
                features_of[order[r]].append(f)

        features = []
        approp = []
        for t, fs in enumerate(features_of):
            # every declaring type lies below the introducer, itself one
            vals = []
            for f in fs:
                decls = declared[f]
                if len(decls) == 1:
                    vals.append(decls[0][1])
                    continue
                inherited = [v for d, v, _, _ in decls if subsumes(d, t)]
                v = inherited[0]
                for w in inherited[1:]:
                    v2 = self.lub(v, w)
                    if v2 is None:
                        raise SpecError(
                            f"non-monotone appropriateness: inherited value types "
                            f"{names[v]!r} and {names[w]!r} for feature {f!r} of "
                            f"{names[t]!r} are inconsistent")
                    v = v2
                vals.append(v)
            features.append(tuple(fs))
            approp.append(tuple(vals))
        self.type_features = features
        self.approps = approp
        self.arities = [len(fs) for fs in features]

        self.plans = [_PlanRow(self, a) for a in range(n)]

    def _topological_order(self, children):
        """Every type id, each before its subtypes: a depth-first postorder
        from an explicit stack, reversed.  Raises SpecError on a cycle."""
        state = [0] * len(children)    # 0 unvisited, 1 on the path, 2 done
        post = []
        for root in range(len(children)):
            if state[root]:
                continue
            state[root] = 1
            path = [root]
            pending = [iter(children[root])]
            while pending:
                for c in pending[-1]:
                    if state[c] == 1:
                        cycle = " < ".join(self.names[x] for x in path[path.index(c):] + [c])
                        raise SpecError(f"subtype cycle, not a partial order: {cycle}")
                    if state[c] == 0:
                        state[c] = 1
                        path.append(c)
                        pending.append(iter(children[c]))
                        break
                else:
                    pending.pop()
                    t = path.pop()
                    state[t] = 2
                    post.append(t)
        post.reverse()
        return post

    def _make_plan(self, left, right):
        result = self.lub(left, right)
        if result is None:
            return UnifyPlan(left, right, None, ())
        lf = self.type_features[left]
        rf = self.type_features[right]
        lvalue = dict(zip(lf, self.approps[left]))
        rvalue = dict(zip(rf, self.approps[right]))
        rpos = {f: k + 1 for k, f in enumerate(rf)}
        steps = []
        for f, v in zip(self.type_features[result], self.approps[result]):
            narrow = None if v in (lvalue.get(f), rvalue.get(f)) else v
            if f in rpos:
                steps.append(Both(rpos[f], narrow) if f in lf else RightOnly(rpos[f], narrow))
            elif f in lf:
                steps.append(LeftOnly(narrow))
            else:
                steps.append(Introduced(v))
        kept = tuple(rpos[f] for f in lf) if result == right else None
        return UnifyPlan(left, right, result, tuple(steps), kept)


def validate(spec: TypeSpec) -> TypeHierarchy:
    return TypeHierarchy(spec)


def load_hierarchy(text) -> TypeHierarchy:
    """Parse and validate a type specification in one step."""
    return validate(parse_type_spec(text))
