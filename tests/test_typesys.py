import random
import re

import pytest

import oracle
from tfsam import typesys
from tfsam.typesys import Both, Introduced, LeftOnly, RightOnly

from conftest import EXAMPLE_SPEC


def test_example_spec_loads_with_nine_types(example_hierarchy):
    h = example_hierarchy
    assert h.n_types == 9
    assert h.tid("bot") == 0
    assert h.tname(0) == "bot"
    assert sorted(h.names) == sorted(["bot", "g", "a", "b", "c", "d", "d1", "d2", "e"])


def test_features_are_alphabetical_and_inherited(example_hierarchy):
    h = example_hierarchy
    assert h.features("bot") == ()
    assert h.features("g") == ("f3",)
    assert h.features("a") == ("f1", "f3")
    assert h.features("b") == ("f2", "f3")
    assert h.features("c") == ("f1", "f2", "f3", "f4")
    assert h.features("d") == ()
    assert h.arity("c") == 4


def test_appropriateness_values(example_hierarchy):
    h = example_hierarchy
    assert h.tname(h.approp("a", "f1")) == "bot"
    assert h.tname(h.approp("a", "f3")) == "d"
    assert h.tname(h.approp("c", "f3")) == "d"
    assert h.approp("d", "f1") is None
    assert h.tname(h.introducer("f3")) == "g"
    assert h.tname(h.introducer("f4")) == "c"
    assert h.feature_names == ("f1", "f2", "f3", "f4")


def test_subsumption_basics(example_hierarchy):
    h = example_hierarchy
    for t in range(h.n_types):
        assert h.subsumes(0, t)        # bot is most general
        assert h.subsumes(t, t)
    assert h.subsumes("g", "a")
    assert h.subsumes("g", "c")
    assert h.subsumes("d", "d1")
    assert not h.subsumes("d1", "d")
    assert not h.subsumes("a", "b")
    assert not h.subsumes("b", "a")
    assert not h.subsumes("a", "e")    # e is under b only


def test_subsumption_equals_declared_reachability(example_hierarchy):
    spec = typesys.parse_type_spec(EXAMPLE_SPEC)
    edges = {}
    for st in spec.statements:
        edges.setdefault(st.name, set()).update(st.subtypes)

    def reach(x, y):
        if x == y:
            return True
        return any(reach(c, y) for c in edges.get(x, ()))

    h = example_hierarchy
    for a in h.names:
        for b in h.names:
            expect = reach(a, b) or a == "bot"
            assert h.subsumes(a, b) == expect, (a, b)


def test_lub_examples(example_hierarchy):
    h = example_hierarchy
    assert h.tname(h.lub("a", "b")) == "c"
    assert h.tname(h.lub("bot", "d")) == "d"
    assert h.tname(h.lub("d", "d1")) == "d1"
    assert h.tname(h.lub("c", "c")) == "c"
    assert h.lub("a", "d") is None
    assert h.lub("d1", "d2") is None
    assert h.lub("e", "a") is None


def test_plan_for_a_and_b_mixes_all_step_kinds(example_hierarchy):
    h = example_hierarchy
    p = h.plan(h.tid("a"), h.tid("b"))
    assert h.tname(p.result) == "c"
    assert p.steps == (LeftOnly(), RightOnly(1), Both(2), Introduced(h.tid("bot")))


def test_plan_mirrors_for_b_and_a(example_hierarchy):
    h = example_hierarchy
    p = h.plan(h.tid("b"), h.tid("a"))
    assert h.tname(p.result) == "c"
    # result features f1,f2,f3,f4 against left=b (f2,f3), right=a (f1,f3)
    assert p.steps == (RightOnly(1), LeftOnly(), Both(2), Introduced(h.tid("bot")))


def test_plan_failure_matches_lub_failure(example_hierarchy):
    h = example_hierarchy
    for a in range(h.n_types):
        for b in range(h.n_types):
            p = h.plan(a, b)
            assert (p.result is None) == (h.lub(a, b) is None)


def test_plan_step_shape_invariants_on_random_hierarchies():
    rng = random.Random(42)
    for _ in range(25):
        h, _ = oracle.random_hierarchy(rng, allow_loops=True)
        for a in range(h.n_types):
            for b in range(h.n_types):
                p = h.plan(a, b)
                if p.result is None:
                    assert p.steps == ()
                    continue
                assert len(p.steps) == h.arity(p.result)
                pending = 0
                for step in p.steps:
                    if isinstance(step, (RightOnly, Both)):
                        assert 1 <= step.pos <= h.arity(b)
                    if isinstance(step, (LeftOnly, Both)):
                        pending += 1
                # exec_plan returns one address per left feature
                assert pending == h.arity(a)
                # a kept right node gives the Both steps' positions
                assert p.kept == (tuple(s.pos for s in p.steps if isinstance(s, Both))
                                  if p.result == b else None)


def test_lub_agrees_with_brute_force_on_random_hierarchies():
    rng = random.Random(7)
    for _ in range(25):
        h, text = oracle.random_hierarchy(rng, allow_loops=True)
        for a in range(h.n_types):
            for b in range(h.n_types):
                assert h.lub(a, b) == oracle.brute_lub(h, a, b), text


# Diamonds declared out of order: a type's subtypes and supertypes come
# before or after it, so declaration order is not a topological order.
DIAMOND_SPECS = [
    EXAMPLE_SPEC,
    """
    p sub [].
    m sub [p, q] intro [h: v].
    x sub [m] intro [f: v].
    bot sub [v, y, x].
    y sub [m] intro [g: bot].
    q sub [].
    w sub [].
    v sub [w].
    """,
    """
    abc sub [] intro [k: c].
    ab sub [abc].
    a sub [ab, ac] intro [f: bot].
    b sub [ab, bc] intro [g: a].
    c sub [ac, bc].
    ac sub [abc].
    bc sub [abc] intro [h: ab].
    bot sub [a, b, c].
    """,
]


def _brute_tables(text):
    """Type names in id order, and subsumption, LUB and plan functions over
    names, computed from the text of a valid spec alone: a type subsumes
    what its ``sub`` lists reach, and everything else is searched."""
    stmts = re.findall(r"(\w+)\s+sub\s*\[([^\]]*)\](?:\s*intro\s*\[([^\]]*)\])?\s*\.",
                       re.sub(r"%.*", "", text))
    names = ["bot"] + [name for name, _, _ in stmts if name != "bot"]
    subs = {name: [] for name in names}
    intro = {}                           # feature -> [(type, value type)]
    for name, sub, pairs in stmts:
        subs[name] = [x.strip() for x in sub.split(",") if x.strip()]
        for pair in filter(str.strip, pairs.split(",")):
            f, v = (x.strip() for x in pair.split(":"))
            intro.setdefault(f, []).append((name, v))
    below = {}
    for t in names:
        below[t] = {t}
        todo = [t]
        while todo:
            for c in subs[todo.pop()]:
                if c not in below[t]:
                    below[t].add(c)
                    todo.append(c)
    assert below["bot"] == set(names)

    def lub(a, b):
        common = below[a] & below[b]
        least = [u for u in common if below[u] >= common]
        return least[0] if least else None

    features = {t: sorted(f for f, decls in intro.items()
                          if any(t in below[d] for d, _ in decls))
                for t in names}

    def approp(t, f):
        vals = [v for d, v in intro[f] if t in below[d]]
        v = vals[0]
        for w in vals[1:]:
            v = lub(v, w)
        return v

    def plan(a, b):
        """(result, steps), with each step as (kind, position or value type)."""
        r = lub(a, b)
        if r is None:
            return None, ()
        steps = []
        for f in features[r]:
            if f in features[b]:
                pos = features[b].index(f) + 1
                steps.append(("Both" if f in features[a] else "RightOnly", pos))
            elif f in features[a]:
                steps.append(("LeftOnly", None))
            else:
                steps.append(("Introduced", approp(r, f)))
        return r, tuple(steps)

    return names, below, lub, plan


def _check_against_brute_force(text):
    h = typesys.load_hierarchy(text)
    names, below, lub, plan = _brute_tables(text)
    assert h.names == names             # bot first, then declaration order
    for a in names:
        for b in names:
            assert h.subsumes(a, b) == (b in below[a]), (a, b, text)
            expect = lub(a, b)
            got = h.lub(a, b)
            assert (got if got is None else h.tname(got)) == expect, (a, b, text)
            p = h.plan(a, b)
            assert (p.left, p.right) == (h.tid(a), h.tid(b))
            result, steps = plan(a, b)
            assert (p.result if p.result is None else h.tname(p.result)) == result
            got_steps = []
            for step in p.steps:
                match step:
                    case Both(pos) | RightOnly(pos):
                        got_steps.append((type(step).__name__, pos))
                    case LeftOnly():
                        got_steps.append(("LeftOnly", None))
                    case Introduced(vtype):
                        got_steps.append(("Introduced", h.tname(vtype)))
            assert tuple(got_steps) == steps, (a, b, text)


@pytest.mark.parametrize("text", DIAMOND_SPECS)
def test_tables_agree_with_brute_force_on_diamonds(text):
    _check_against_brute_force(text)


def test_tables_agree_with_brute_force_on_random_hierarchies():
    rng = random.Random(11)
    for _ in range(25):
        _, text = oracle.random_hierarchy(rng, allow_loops=True)
        _check_against_brute_force(text)


def _chain_spec(n):
    names = ["bot"] + [f"c{i}" for i in range(1, n)]
    return "".join(f"{a} sub [{b}].\n" for a, b in zip(names, names[1:])) + f"{names[-1]} sub [].\n"


def test_long_subtype_chain_loads():
    h = typesys.load_hierarchy(_chain_spec(1201))
    assert h.n_types == 1201
    assert h.subsumes("bot", "c1200")
    assert h.subsumes("c1", "c1200")
    assert not h.subsumes("c1200", "c1")
    assert h.tname(h.lub("c3", "c1198")) == "c1198"
    assert h.tname(h.lub("c1200", "c2")) == "c1200"


def _tree_spec(rng, n):
    """A tree of *n* types in three levels below bot, shaped like the
    benchmark's semantic tree: 6 types, 7 below each of them, and the rest
    below random types of the second level; four of the first two levels
    introduce a feature.  Returns the spec and each type's parent."""
    names = [f"m{i}" for i in range(1, n)]
    level1, level2 = names[:6], names[6:48]
    parent = {t: "bot" for t in level1}
    parent.update((t, level1[k % 6]) for k, t in enumerate(level2))
    parent.update((t, rng.choice(level2)) for t in names[48:])
    children = {t: [] for t in ["bot"] + names}
    for t in names:
        children[parent[t]].append(t)
    intro = {t: f"f{k}" for k, t in enumerate(rng.sample(level1 + level2, 4))}
    lines = []
    for t in ["bot"] + names:
        line = f"{t} sub [{', '.join(children[t])}]"
        if t in intro:
            line += f" intro [{intro[t]}: bot]"
        lines.append(line + ".")
    return "\n".join(lines), parent


def test_large_tree_loads_without_pair_tables():
    text, parent = _tree_spec(random.Random(5), 5000)
    h = typesys.load_hierarchy(text)
    n = h.n_types
    assert n == 5000
    # nothing is tabled per pair: every table has a row per type at most,
    # and the plan rows fill only as plans are used
    for name, table in vars(h).items():
        if hasattr(table, "__len__"):
            assert len(table) <= n, name
    assert not any(h.plans)

    def ancestors(t):
        out = [t]
        while out[-1] != "bot":
            out.append(parent[out[-1]])
        return out

    inner = set(parent.values())
    leaves = [t for t in parent if t not in inner]
    far = [t for t in leaves if ancestors(t)[-2] != ancestors(leaves[0])[-2]]
    a, b = leaves[0], far[-1]
    top = ancestors(a)[-2]
    assert h.subsumes(top, a) and not h.subsumes(a, top)
    assert not h.subsumes(top, b)
    assert h.lub(a, b) is None
    assert h.tname(h.lub(top, a)) == a
    assert h.tname(h.lub("bot", b)) == b
    p = h.plan(top, a)
    assert h.plan(top, a) is p
    assert len(p.steps) == h.arity(a)
    # lub reads the masks, so the one plan asked for is the only one made
    assert sum(map(len, h.plans)) == 1


def test_empty_spec_is_just_bot():
    h = typesys.load_hierarchy("")
    assert h.n_types == 1
    assert h.features("bot") == ()


def test_comments_and_whitespace_ignored():
    h = typesys.load_hierarchy("% nothing here\nbot sub [x].  % trailing\nx sub [].\n")
    assert h.n_types == 2


def _reject(text, fragment):
    with pytest.raises(typesys.SpecError) as e:
        typesys.load_hierarchy(text)
    assert fragment in str(e.value), str(e.value)


def _reject_exactly(text, message):
    with pytest.raises(typesys.SpecError) as e:
        typesys.load_hierarchy(text)
    assert str(e.value) == message


def test_duplicate_characterization_rejected():
    _reject("bot sub [x]. x sub []. x sub [].", "duplicate characterization")


def test_validate_rejects_a_second_statement_for_a_type():
    spec = typesys.TypeSpec((typesys.TypeStatement("bot", ("x",), (), 1, 1),
                             typesys.TypeStatement("x", (), (), 2, 1),
                             typesys.TypeStatement("x", (), (), 3, 5)))
    with pytest.raises(typesys.SpecError) as e:
        typesys.validate(spec)
    assert (e.value.message, e.value.line, e.value.col) == \
        ("duplicate characterization of type 'x'", 3, 5)


def test_unknown_subtype_rejected():
    _reject("bot sub [x, y]. x sub [].", "unknown type 'y'")


def test_unknown_value_type_rejected():
    _reject("bot sub [x]. x sub [] intro [f: z].", "unknown value type 'z'")


def test_bot_as_subtype_rejected():
    _reject("bot sub [x]. x sub [bot].", "may not be declared a subtype")


def test_subtype_cycle_rejected():
    _reject_exactly("bot sub [x]. x sub [y]. y sub [x].",
                    "subtype cycle, not a partial order: x < y < x")


def test_unreachable_type_rejected():
    _reject_exactly("bot sub []. x sub [].", "type(s) not subsumed by 'bot': x")


def test_unbounded_diamond_rejected():
    _reject_exactly("""
        bot sub [x, y].
        x sub [m, n].
        y sub [m, n].
        m sub [].
        n sub [].
        """, "not bounded complete: types 'x' and 'y' have minimal upper bounds "
                     "{m, n} but no least one")


def test_feature_twice_in_one_statement_rejected():
    _reject("bot sub [x]. x sub [] intro [f: bot, f: bot].", "listed twice")


def test_incomparable_introducers_rejected():
    _reject("""
        bot sub [x, y].
        x sub [] intro [f: bot].
        y sub [] intro [f: bot].
        """, "introduced by incomparable types")


def test_non_monotone_redeclaration_rejected():
    _reject_exactly("""
        bot sub [x, d, e].
        x sub [y] intro [f: d].
        y sub [] intro [f: e].
        d sub [].
        e sub [].
        """, "non-monotone appropriateness: 'y' declares f:e but supertype 'x' "
                     "declares f:d (line 3, column 9)")


def test_monotone_refinement_allowed():
    h = typesys.load_hierarchy("""
        bot sub [x, d].
        x sub [y] intro [f: d].
        y sub [] intro [f: d1].
        d sub [d1].
        d1 sub [].
        """)
    assert h.tname(h.approp("x", "f")) == "d"
    assert h.tname(h.approp("y", "f")) == "d1"


def test_inconsistent_inherited_values_rejected():
    _reject_exactly("""
        bot sub [g2, d, e].
        g2 sub [x, y] intro [f: bot].
        x sub [z] intro [f: d].
        y sub [z] intro [f: e].
        z sub [].
        d sub [].
        e sub [].
        """, "non-monotone appropriateness: inherited value types 'd' and 'e' "
                     "for feature 'f' of 'z' are inconsistent")


def test_consistent_inherited_values_joined():
    h = typesys.load_hierarchy("""
        bot sub [g2, d].
        g2 sub [x, y] intro [f: bot].
        x sub [z] intro [f: d].
        y sub [z] intro [f: d1].
        z sub [].
        d sub [d1].
        d1 sub [].
        """)
    # z inherits f from both sides; the value joins to the tighter type
    assert h.tname(h.approp("z", "f")) == "d1"
    assert h.tname(h.approp("x", "f")) == "d"


def test_statement_syntax_errors_have_positions():
    with pytest.raises(typesys.SpecError) as e:
        typesys.load_hierarchy("bot sub [x")
    assert e.value.line == 1


def test_unknown_type_lookup():
    h = typesys.load_hierarchy("bot sub [x]. x sub [].")
    with pytest.raises(typesys.SpecError):
        h.tid("nope")
