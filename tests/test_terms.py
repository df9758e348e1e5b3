import random
import re

import pytest

import oracle
from conftest import DEEP_CHAIN_TYPES
from tfsam import terms
from tfsam.machine import STR, VAR, MachineState
from tfsam.terms import (
    MRS, BackRef, MostGeneral, Node, flatten, iso, iso_roots, most_general_term,
    parse_mrs, parse_term, print_mrs, print_term, well_typed_check,
)


# -- parsing and printing ----------------------------------------------------

@pytest.mark.parametrize("text", [
    "d",
    "a(d2,d)",
    "c(bot,e(d,d1),d2,g(d))",
    "b(b(#1 d,#1),d)",
    "#1 g(#1)",
    "#1 a(#1,d)",
    "a(~bot,~d)",
])
def test_round_trip(text, example_hierarchy):
    t = parse_term(text, example_hierarchy)
    assert print_term(t) == text


def test_round_trip_under_appropriateness_loop(loop_hierarchy):
    t = parse_term("t(~t)", loop_hierarchy)
    assert print_term(t) == "t(~t)"
    assert isinstance(t.args[0], MostGeneral)


def test_whitespace_is_free(example_hierarchy):
    t = parse_term("b( b( #1 d ,\n #1 ) , d )", example_hierarchy)
    assert print_term(t) == "b(b(#1 d,#1),d)"


def test_unreferenced_tags_are_dropped_on_print(example_hierarchy):
    t = parse_term("a(#9 d2,d)", example_hierarchy)
    assert print_term(t) == "a(d2,d)"


def test_print_deep_terms_without_recursion():
    # a u chain 10,000 nodes deep whose last argument points back at its
    # first node, and an untagged one ending in ~t
    depth = 10_000
    cyclic, open_ended = BackRef("1"), MostGeneral("t")
    for k in range(depth):
        cyclic = Node("u", [cyclic], "1" if k == depth - 1 else None)
        open_ended = Node("u", [open_ended])
    assert print_term(cyclic) == "#1 " + "u(" * depth + "#1" + ")" * depth
    assert print_term(open_ended) == "u(" * depth + "~t" + ")" * depth
    assert print_mrs(MRS([cyclic, open_ended, BackRef("1")])) == ", ".join(
        [print_term(cyclic), print_term(open_ended), "#1"])


def _chain_depth(t):
    """The number of t nodes above the leaf of a t(t(...)) chain."""
    depth = 0
    while isinstance(t, Node):
        t = t.args[0]
        depth += 1
    return depth, t


def test_parse_deep_terms_without_recursion(loop_hierarchy):
    # t(t(...~t)) 10,000 nodes deep, once open-ended and once closing a
    # cycle back to its first node; the reader used to recurse once per level
    depth = 10_000
    t = parse_term("t(" * depth + "~t" + ")" * depth, loop_hierarchy)
    depth_read, leaf = _chain_depth(t)
    assert (depth_read, type(leaf), leaf.type) == (depth, MostGeneral, "t")
    cyclic = "#1 " + "t(" * depth + "#1" + ")" * depth
    t = parse_term(cyclic, loop_hierarchy)
    assert _chain_depth(t)[0] == depth
    assert print_term(t) == cyclic


def test_parse_deep_rules_without_recursion(loop_hierarchy):
    depth = 10_000
    deep = "t(" * depth + "#1 ~t" + ")" * depth
    mrs = parse_mrs(f"{deep}, u(#1) => #1", loop_hierarchy)
    assert mrs.is_rule and len(mrs.roots) == 3
    depth_read, leaf = _chain_depth(mrs.roots[0])
    assert (depth_read, leaf.tag) == (depth, "1")
    assert print_mrs(mrs) == f"{deep}, u(#1) => #1"


def test_a_deep_term_reports_an_error_where_it_is(loop_hierarchy):
    # an arity error 5,000 levels down keeps the line and column of its type
    depth = 5_000
    text = "t(" * depth + "\n  t(~t,~t)" + ")" * depth
    with pytest.raises(terms.TermError, match=r"type 't' takes 1 argument\(s\), got 2") as e:
        parse_term(text, loop_hierarchy)
    assert (e.value.line, e.value.col) == (2, 3)


@pytest.mark.parametrize("text,message", [
    ("zz", "unknown type 'zz'"),
    ("~zz", "unknown type 'zz'"),
    ("a(d)", "takes 2 argument"),
    ("d(d1)", "takes 0 argument"),
    ("a(d2,d) d", "unexpected input after term"),
    ("a(#1 d1,#2) d", "tag #2 is never defined"),   # reported first, as by parse_mrs
    ("b(#1 d,#1 e)", "defined twice"),
    ("b(#1,#1 d)", "used before its definition"),
    ("b(#1,d)", "never defined"),
    ("a(d2,", "expected"),
    ("", "expected a type name"),
])
def test_parse_rejects(text, message, example_hierarchy):
    with pytest.raises(terms.TermError) as err:
        parse_term(text, example_hierarchy)
    assert message in str(err.value)


def test_errors_carry_positions(example_hierarchy):
    with pytest.raises(terms.TermError) as err:
        parse_term("a(d2,\nzz)", example_hierarchy)
    assert err.value.line == 2
    assert err.value.col == 1


# -- multi-rooted structures ---------------------------------------------------

def test_parse_mrs_rule(example_hierarchy):
    mrs = parse_mrs("a(bot,#3 d), d => a(d2,#3)", example_hierarchy)
    assert mrs.is_rule
    assert len(mrs.roots) == 3
    assert [r.type for r in mrs.roots[:-1]] == ["a", "d"]
    assert mrs.roots[-1].type == "a"
    assert print_mrs(mrs) == "a(bot,#3 d), d => a(d2,#3)"


def test_parse_mrs_plain_sequence(example_hierarchy):
    mrs = parse_mrs("d, d1", example_hierarchy)
    assert not mrs.is_rule
    assert print_mrs(mrs) == "d, d1"


def test_mrs_tags_are_scoped_across_roots(example_hierarchy):
    mrs = parse_mrs("#1 d, g(#1)", example_hierarchy)
    assert isinstance(mrs.roots[1].args[0], BackRef)
    assert mrs.roots[1].args[0].tag == "1"


def test_mrs_rejects_missing_separator(example_hierarchy):
    with pytest.raises(terms.TermError, match="',' or '=>'"):
        parse_mrs("a(d2,d) d", example_hierarchy)


def test_mrs_rejects_input_after_the_head(example_hierarchy):
    with pytest.raises(terms.TermError, match="unexpected input after structure") as err:
        parse_mrs("d => d1 d2", example_hierarchy)
    assert (err.value.line, err.value.col) == (1, 9)


# -- well-typedness ------------------------------------------------------------

def test_well_typed_accepts_concrete_and_mg_leaves(example_hierarchy):
    h = example_hierarchy
    assert well_typed_check(h, parse_term("a(d2,d)", h)) == []
    assert well_typed_check(h, parse_term("a(~bot,~d)", h)) == []
    assert well_typed_check(h, parse_term("#1 a(#1,d)", h)) == []
    assert well_typed_check(h, parse_term("b(#1 d,#1)", h)) == []


def test_well_typed_flags_too_general_argument(example_hierarchy):
    h = example_hierarchy
    out = well_typed_check(h, parse_term("a(bot,bot)", h))
    assert [str(v) for v in out] == ["at f3: expected d, found bot"]


def test_well_typed_paths_reach_nested_nodes(example_hierarchy):
    h = example_hierarchy
    out = well_typed_check(h, parse_term("g(g(bot))", h))
    assert [str(v) for v in out] == [
        "at f3: expected d, found g",
        "at f3.f3: expected d, found bot",
    ]


def test_well_typed_sees_through_backrefs_and_mg(example_hierarchy):
    h = example_hierarchy
    assert well_typed_check(h, parse_term("a(#1 e(d,d),#1)", h)) != []
    assert well_typed_check(h, parse_term("a(bot,~bot)", h)) != []


def test_well_typed_flags_wrong_arity_of_built_node(example_hierarchy):
    out = well_typed_check(example_hierarchy, Node("a", [Node("d", [])]))
    assert len(out) == 1
    assert "2 argument(s) for a" in str(out[0])


def test_well_typed_checks_shared_node_once(example_hierarchy):
    h = example_hierarchy
    # the shared bot fails under f3 only; its defining occurrence under f1 is fine
    out = well_typed_check(h, parse_term("a(#1 bot,#1)", h))
    assert [str(v) for v in out] == ["at f3: expected d, found bot"]


def test_well_typed_covers_every_mrs_root(example_hierarchy):
    h = example_hierarchy
    out = well_typed_check(h, parse_mrs("d, a(bot,bot)", h))
    assert len(out) == 1


def test_well_typed_checks_deep_terms_without_recursion(loop_hierarchy):
    # t(t(...~t)) chains 10,000 nodes deep over t's one feature f: t,
    # one ending in ~t and one in the ill-typed ~bot
    depth = 10_000
    good, bad = MostGeneral("t"), MostGeneral("bot")
    for _ in range(depth):
        good, bad = Node("t", [good]), Node("t", [bad])
    assert well_typed_check(loop_hierarchy, good) == []
    out = well_typed_check(loop_hierarchy, bad)
    assert out == [terms.Violation(".".join(["f"] * depth), "t", "bot")]


# -- flattening ----------------------------------------------------------------

def test_flatten_shared_argument(example_hierarchy):
    eqs = flatten(parse_term("a(#1 d1,#1)", example_hierarchy))
    assert str(eqs) == "X1 = a(X2,X2); X2 = d1"
    assert eqs.roots == [1]
    assert eqs.boundaries == [2]


def test_flatten_nested_sharing(example_hierarchy):
    eqs = flatten(parse_term("b(b(#1 d,#1),d)", example_hierarchy))
    assert str(eqs) == "X1 = b(X2,X3); X2 = b(X4,X4); X4 = d; X3 = d"


def test_flatten_backref_into_earlier_subtree(example_hierarchy):
    # the second argument reuses a node defined inside the first
    eqs = flatten(parse_term("b(b(#1 d,#1),#1)", example_hierarchy))
    assert str(eqs) == "X1 = b(X2,X3); X2 = b(X3,X3); X3 = d"


def test_flatten_cycle(example_hierarchy):
    eqs = flatten(parse_term("#1 g(#1)", example_hierarchy))
    assert str(eqs) == "X1 = g(X1)"


def test_flatten_most_general_leaf(loop_hierarchy):
    eqs = flatten(parse_term("t(~t)", loop_hierarchy))
    assert str(eqs) == "X1 = t(X2); X2 = ~t"


def test_flatten_mrs_numbering_and_boundaries(example_hierarchy):
    eqs = flatten(parse_mrs("a(bot,#3 d), d => a(d2,#3)", example_hierarchy))
    assert str(eqs) == ("X1 = a(X2,X3); X2 = bot; X3 = d; "
                        "X4 = d; X5 = a(X6,X3); X6 = d2")
    assert eqs.roots == [1, 4, 5]
    assert eqs.boundaries == [3, 4, 6]


def test_flatten_root_shared_between_roots(example_hierarchy):
    eqs = flatten(parse_mrs("#1 d, g(#1)", example_hierarchy))
    assert str(eqs) == "X1 = d; X2 = g(X1)"
    assert eqs.roots == [1, 2]
    assert eqs.boundaries == [1, 2]
    repeated = flatten(parse_mrs("#1 d, #1", example_hierarchy))
    assert repeated.roots == [1, 1]
    assert repeated.boundaries == [1, 1]


# -- isomorphism ---------------------------------------------------------------

def test_iso_ignores_tag_names(example_hierarchy):
    h = example_hierarchy
    assert iso(parse_term("b(#7 d,#7)", h), parse_term("b(#1 d,#1)", h))


def test_iso_distinguishes_sharing_from_copies(example_hierarchy):
    h = example_hierarchy
    assert not iso(parse_term("a(#1 d,#1)", h), parse_term("a(d,d)", h))


def test_iso_distinguishes_cycle_from_unrolling(example_hierarchy):
    h = example_hierarchy
    assert not iso(parse_term("#1 g(#1)", h), parse_term("g(#2 g(#2))", h))
    assert iso(parse_term("#1 g(g(#1))", h), parse_term("#2 g(g(#2))", h))


def test_iso_separates_mg_from_expanded(example_hierarchy):
    h = example_hierarchy
    assert not iso(parse_term("~d", h), parse_term("d", h))
    assert iso(parse_term("~d", h), parse_term("~d", h))


def test_iso_roots_respects_cross_root_sharing(example_hierarchy):
    h = example_hierarchy
    shared = parse_mrs("#1 d, g(#1)", h)
    copied = parse_mrs("d, g(d)", h)
    again = parse_mrs("#2 d, g(#2)", h)
    assert iso_roots(shared.roots, again.roots)
    assert not iso_roots(shared.roots, copied.roots)
    assert not iso_roots(shared.roots, shared.roots[:1])


def test_iso_roots_compares_argument_counts():
    # the reader never makes two nodes of one type with different arities,
    # but iso_roots takes terms of any shape
    one = Node("t", [Node("d")])
    assert not iso_roots([one], [Node("t", [])])
    assert not iso_roots([Node("t", [])], [one])
    assert iso_roots([one], [Node("t", [Node("d")])])


def test_iso_roots_is_positional(example_hierarchy):
    h = example_hierarchy
    a = [parse_term("d", h), parse_term("d1", h)]
    b = [parse_term("d1", h), parse_term("d", h)]
    assert not iso_roots(a, b)


# -- most general terms ----------------------------------------------------------

def test_most_general_term_expands_all_features(example_hierarchy):
    h = example_hierarchy
    assert iso(most_general_term(h, "c"), parse_term("c(bot,bot,d,bot)", h))
    assert iso(most_general_term(h, "bot"), parse_term("bot", h))
    assert well_typed_check(h, most_general_term(h, "c")) == []


def test_most_general_term_cuts_off_at_loop(loop_hierarchy):
    h = loop_hierarchy
    assert iso(most_general_term(h, "t"), parse_term("t(~t)", h))
    assert iso(most_general_term(h, "u"), parse_term("u(t(~t))", h))


def test_most_general_term_of_a_deep_type_chain_without_recursion(deep_chain_hierarchy):
    t = most_general_term(deep_chain_hierarchy, "c0")
    for i in range(DEEP_CHAIN_TYPES - 1):
        assert t.type == f"c{i}"
        (t,) = t.args
    assert (t.type, t.args) == (f"c{DEEP_CHAIN_TYPES - 1}", [])


# -- heap copies as a canonical key ---------------------------------------------

def _key(roots, h):
    """The roots built on a fresh machine, one register each, and copied."""
    m = MachineState(h)
    return m.snapshot_regs(dict(enumerate(m.build(roots))), range(len(roots)))


def _retagged(roots, h, prefix):
    """An isomorphic copy of an MRS, re-parsed from its printed form with
    every tag renamed."""
    text = re.sub(r"#(\w+)", rf"#{prefix}\1", print_mrs(MRS(list(roots))))
    return parse_mrs(text, h).roots


def test_key_covers_roots_not_registers(example_hierarchy):
    # the same cells, but the second root shares the first's argument in
    # one structure and the third root does in the other
    h = example_hierarchy
    x = _key(parse_mrs("a(bot,#1 d), #1, d", h).roots, h)
    y = _key(parse_mrs("a(bot,#1 d), d, #1", h).roots, h)
    assert x.cells == y.cells
    assert x.roots != y.roots
    assert x != y
    m = MachineState(h)
    d = m.build_term(parse_term("d", h))
    regs = {1: d, 2: d}
    one, two = m.snapshot_regs(regs, [1]), m.snapshot_regs(regs, [2])
    assert (one.cells, one.roots) == (two.cells, two.roots)
    # a copy does not record which register held it
    assert one == two


def test_key_equal_exactly_when_iso():
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(30):
        h, _ = oracle.random_hierarchy(rng, allow_loops=True)
        for _ in range(6):
            a, b = oracle.random_pair(rng, h)
            m = MachineState(h)
            root = m.build_term(a)
            nodes = [i for i, c in enumerate(m.heap) if c is not None and c[0] in (STR, VAR)]
            addrs = [root] + rng.choices(nodes, k=rng.randint(1, 3))
            addrs.append(m.build_term(b))
            mrs = m.extract_multi(addrs)
            perm = addrs[:]
            rng.shuffle(perm)
            alone = _retagged([m.extract(addrs[1])], h, "s")
            cases = [
                ([a], [b]),
                ([a], _retagged([a], h, "x")),
                ([a], [oracle.canonical(h, a)]),
                ([oracle.canonical(h, a)], [oracle.canonical(h, _retagged([a], h, "y")[0])]),
                ([a, b], [b, a]),
                (mrs, _retagged(mrs, h, "z")),
                (mrs, m.extract_multi(perm)),
                (mrs, mrs[:1] + alone + mrs[2:]),
                (mrs, mrs[:-1]),
            ]
            for x, y in cases:
                same = iso_roots(x, y)
                assert (_key(x, h) == _key(y, h)) == same, (print_mrs(MRS(x)), print_mrs(MRS(y)))
                assert len({_key(x, h), _key(y, h)}) == (1 if same else 2)
                seen[same] += 1
    assert sum(seen.values()) >= 1000
    assert min(seen.values()) >= 300
