import random

import pytest

import oracle
from conftest import DEEP_CHAIN_TYPES
from tfsam import compiler, machine, terms, typesys
from tfsam.compiler import (GetStructure, PutArc, PutNode, StartRule, UnifyValue,
                            UnifyVariable)
from tfsam.machine import REF, STR, VAR, MachineError, MachineState
from tfsam.terms import flatten, iso, iso_roots, parse_term


def fresh(h, eager=False):
    return (oracle.EagerMachine if eager else MachineState)(h)


# -- building ------------------------------------------------------------------

def test_query_execution_heap_layout(example_hierarchy):
    m = fresh(example_hierarchy)
    code = compiler.compile_query(flatten(parse_term("b(b(#1 d,#1),d)",
                                                     example_hierarchy)))
    regs = {}
    m.execute(code, regs)
    assert m.dump() == "\n".join([
        "0: STR b",
        "1: REF 3",
        "2: REF 7",
        "3: STR b",
        "4: REF 6",
        "5: REF 6",
        "6: STR d",
        "7: STR d",
    ])
    assert regs[1] == 0


def test_build_and_extract_round_trip(example_hierarchy):
    h = example_hierarchy
    for text in ["d", "a(d2,d)", "b(b(#1 d,#1),d)", "c(bot,e(d,d1),d2,g(d))",
                 "#1 a(#1,d)", "a(#1 d,#1)", "#1 c(#1,b(d,d1),d2,#1)"]:
        m = fresh(h)
        t = parse_term(text, h)
        assert iso(m.extract(m.build_term(t)), t), text


def test_build_preserves_sharing_across_roots(example_hierarchy):
    h = example_hierarchy
    mrs = terms.parse_mrs("#1 d, g(#1)", h)
    m = fresh(h)
    addrs = m.build(mrs.roots)
    out = m.extract_multi(addrs)
    assert iso_roots(out, mrs.roots)
    assert m.deref(addrs[0]) == m.deref(addrs[1] + 1)


def test_extract_expands_unexpanded_leaves(loop_hierarchy):
    h = loop_hierarchy
    m = fresh(h)
    a = m.build_term(parse_term("t(~t)", h))
    assert terms.print_term(m.extract(a)) == "t(t(~t))"


def test_extract_expands_a_deep_type_chain_without_recursion(deep_chain_hierarchy):
    h = deep_chain_hierarchy
    m = fresh(h)
    m.heap.append((VAR, h.tid("c0")))
    t = m.extract(0)
    for i in range(DEEP_CHAIN_TYPES - 1):
        assert t.type == f"c{i}"
        (t,) = t.args
    assert (t.type, t.args) == (f"c{DEEP_CHAIN_TYPES - 1}", [])


def test_extract_reads_unwritten_value_as_bot(example_hierarchy):
    m = fresh(example_hierarchy)
    m.heap.append((REF, 0))
    assert terms.print_term(m.extract(0)) == "bot"


# -- instruction semantics -------------------------------------------------------

def test_program_code_builds_under_unbound_root(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    m.heap.append((REF, 0))
    m.execute(compiler.compile_program(flatten(parse_term("a(#1 d1,#1)", h))), {1: 0})
    assert iso(m.extract(0), parse_term("a(#1 d1,#1)", h))


def test_get_structure_retypes_unexpanded_var(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    m.heap.append((VAR, h.tid("g")))
    m.execute(compiler.compile_program(flatten(parse_term("a(#1 d1,#1)", h))), {1: 0})
    assert iso(m.extract(0), parse_term("a(#1 d1,#1)", h))


def test_get_structure_leaves_a_var_of_the_join_type_alone(example_hierarchy):
    # d1 is already the join of d and d1, and d has no features, so there
    # is nothing to expand and nothing to bind
    h = example_hierarchy
    m = fresh(h)
    m.heap.append((VAR, h.tid("d1")))
    m.execute(compiler.compile_program(flatten(parse_term("d", h))), {1: 0})
    assert (m.heap, m.trail) == ([(VAR, h.tid("d1"))], [])
    assert iso(m.extract(0), parse_term("d1", h))


def test_program_code_against_matching_structure_changes_nothing(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    root = m.build_term(parse_term("a(#1 d1,#1)", h))
    m.execute(compiler.compile_program(flatten(parse_term("a(#1 d1,#1)", h))), {1: root})
    assert iso(m.extract(root), parse_term("a(#1 d1,#1)", h))


def test_matching_a_leaf_adds_no_cells(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    regs = {1: m.build_term(parse_term("d", h))}
    top = len(m.heap)
    m.execute(compiler.compile_program(flatten(parse_term("d", h))), regs)
    assert len(m.heap) == top


def test_program_code_fails_on_clash(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    regs = {1: m.build_term(parse_term("d1", h))}
    with pytest.raises(machine.UnifyFailure):
        m.execute(compiler.compile_program(flatten(parse_term("d2", h))), regs)


def test_put_node_arity_must_match(example_hierarchy):
    m = fresh(example_hierarchy)
    with pytest.raises(MachineError, match="arity"):
        m.execute([PutNode("a", 1, 1)], {})


def test_control_instructions_refuse_direct_execution(example_hierarchy):
    m = fresh(example_hierarchy)
    for ins in [StartRule(1), compiler.MoveDot(), compiler.NextItem(),
                compiler.EndRule()]:
        with pytest.raises(MachineError, match="only valid under the parser"):
            m.execute([ins], {})


@pytest.mark.parametrize("prefix", ["query", "program"])
@pytest.mark.parametrize("bad, error, match", [
    ([PutNode("a", 1, 9)], MachineError, "put_node arity 1 does not match arity"),
    ([GetStructure("a", 3, 9)], MachineError, "get_structure arity 3 does not match arity"),
    ([compiler.PutVar("zz", 9)], typesys.SpecError, "unknown type 'zz'"),
    ([StartRule(1)], MachineError, "only valid under the parser"),
    ([GetStructure("a", 2, 9), UnifyVariable(10)], MachineError,
     "get_structure a/2 is followed by 1 of its 2 unify instructions"),
    ([UnifyValue(1)], MachineError, "unify_value X1 is outside a get_structure"),
    ([PutNode("a", 2, 9), PutNode("d", 0, 10), PutArc(9, 3, 10)], MachineError,
     "put_arc X9,3,X10: offset 3 is outside 1..2"),
    ([PutNode("a", 2, 9), PutNode("d", 0, 10), PutArc(9, 0, 10)], MachineError,
     "put_arc X9,0,X10: offset 0 is outside 1..2"),
    ([PutNode("a", 2, 9), PutNode("d", 0, 10), PutArc(9, 5, 10)], MachineError,
     "put_arc X9,5,X10: offset 5 is outside 1..2"),
    ([PutNode("a", 2, 9), compiler.PutVar("a", 9), PutArc(9, 1, 9)], MachineError,
     "put_arc X9,1,X9: register X9 is unset"),
])
def test_linking_checks_every_instruction_before_any_runs(example_hierarchy, prefix,
                                                          bad, error, match):
    # the earlier instructions would write cells and registers if they ran
    h = example_hierarchy
    m = fresh(h)
    regs = {1: m.build_term(parse_term("b(b(#1 d,#1),d)", h))}
    compile_ = compiler.compile_query if prefix == "query" else compiler.compile_program
    code = compile_(flatten(parse_term("b(b(#1 d,#1),d)", h))) + bad
    before = (list(m.heap), list(m.trail), dict(regs))
    with pytest.raises(error, match=match):
        m.execute(code, regs)
    assert (m.heap, m.trail, regs) == before


def test_linked_code_runs_only_on_its_own_hierarchy(example_hierarchy, loop_hierarchy):
    code = compiler.compile_query(flatten(parse_term("d", example_hierarchy)))
    linked = machine.link(code, example_hierarchy)
    assert len(linked) == len(code)
    m = fresh(example_hierarchy)
    m.execute(linked, {})
    assert m.dump() == "0: STR d"
    with pytest.raises(MachineError, match="another hierarchy"):
        fresh(loop_hierarchy).execute(linked, {})


def test_bad_accesses_are_reported(example_hierarchy):
    m = fresh(example_hierarchy)
    regs = {}
    with pytest.raises(MachineError, match="^address 0 beyond heap top 0$"):
        m.cell(0)
    with pytest.raises(MachineError, match="outside a get_structure"):
        m.execute([UnifyVariable(1)], regs)
    with pytest.raises(MachineError, match="outside a get_structure"):
        m.execute([UnifyValue(1)], regs)
    with pytest.raises(MachineError, match="unset"):
        m.execute([PutArc(1, 1, 2)], regs)
    # the node's register is checked when linking, the target's only when running
    with pytest.raises(MachineError, match="put_arc register is unset"):
        m.execute([PutNode("a", 2, 1), PutArc(1, 1, 2)], {})
    with pytest.raises(MachineError, match="register X5 is unset"):
        m.execute([GetStructure("d", 0, 5)], regs)
    m.execute([PutNode("a", 2, 1)], regs)
    with pytest.raises(MachineError, match="before it was written"):
        m.cell(regs[1] + 1)
    # a unify_value register is set by earlier code, so only running finds it unset
    regs = {1: m.build_term(parse_term("a(d2,d)", example_hierarchy))}
    with pytest.raises(MachineError, match="register X7 is unset"):
        m.execute([GetStructure("a", 2, 1), UnifyVariable(2), UnifyValue(7)], regs)


def test_a_negative_address_is_refused(example_hierarchy):
    # Python reads a negative index from the end of the heap; the machine
    # refuses it before anything is read or written, so a unify cannot
    # trail address -1 and an undo cannot write into the wrong slot
    h = example_hierarchy
    m = fresh(h)
    a = m.build_term(parse_term("d1", h))
    m.build_term(parse_term("d", h))
    mark = m.checkpoint()
    before = list(m.heap)
    for op, error in [(lambda: m.unify(a, -1), "address -1 is below the heap"),
                      (lambda: m.unify(-1, a), "address -1 is below the heap"),
                      (lambda: m.deref(-1), "address -1 is below the heap"),
                      (lambda: m.extract(-1), "address -1 is below the heap"),
                      (lambda: m.snapshot_regs({0: -1}, [0]), "X0 holds -1, not a heap address"),
                      (lambda: m.snapshot_regs({0: a}, [0, 5]), "X5 holds nothing")]:
        with pytest.raises(MachineError, match=error):
            op()
        assert m.heap == before and len(m.trail) == mark.trail
    m.build_term(parse_term("d2", h))
    m.undo(mark)
    assert m.heap == before and m.trail == []
    # on an empty heap an IndexError or a KeyError escaped
    empty = fresh(h)
    for regs, live, error in [({0: -1}, [0], "X0 holds -1"), ({}, [5], "X5 holds nothing"),
                              ({0: 0}, [0], "X0 holds 0")]:
        with pytest.raises(MachineError, match=error):
            empty.snapshot_regs(regs, live)


def test_dump_shows_an_unwritten_arc_slot(example_hierarchy):
    # a put_node without its put_arcs leaves its arc slots unwritten
    m = fresh(example_hierarchy)
    m.execute([PutNode("a", 2, 1)], {})
    assert m.dump() == "0: STR a\n1: ---\n2: ---"


def test_link_reports_an_unknown_type_id(example_hierarchy):
    # a type given as an id is not a name of the hierarchy's table either
    with pytest.raises(typesys.SpecError, match="unknown type 3"):
        machine.link([PutNode(3, 0, 1)], example_hierarchy)


# -- dereferencing ----------------------------------------------------------------

def test_deref_compresses_long_chains(example_hierarchy):
    m = fresh(example_hierarchy)
    m.heap.extend([(REF, 1), (REF, 2), (STR, m.h.tid("d"))])
    mark = m.checkpoint()
    assert m.deref(0) == 2
    assert m.heap[0] == (REF, 2)   # shortcut written
    m.undo(mark)
    assert m.heap[0] == (REF, 1)   # and trailed


# l(#1 t(~t), l(#1, ...)) against l(t(~t), l(t(~t), ...)): the shared node
# is unified once per level, and each node-pair unification binds its
# old representative to the kept node of the other side, so the chain
# from an hd arc to the shared node grows by one link per level unless
# deref compresses it
SHARED_LEVELS_SPEC = """
bot sub [t, l].
t sub [u] intro [f: t].
u sub [].
l sub [] intro [hd: t, tl: l].
"""


def test_deref_compression_keeps_unification_linear():
    h = typesys.load_hierarchy(SHARED_LEVELS_SPEC)
    k = 2000
    left = parse_term("l(#1 t(~t)," + "l(#1," * (k - 1) + "~l" + ")" * k, h)
    right = parse_term("l(t(~t)," * k + "~l" + ")" * k, h)
    m = fresh(h)
    a, b = m.build_term(left), m.build_term(right)
    reads = 0
    cell = m.cell

    def counted(addr):
        nonlocal reads
        reads += 1
        return cell(addr)

    m.cell = counted
    assert m.unify(a, b)
    # about 22 reads per level with compression; without it, about k/4 per level
    assert reads < 40 * k


# -- unification -------------------------------------------------------------------

def test_worked_unification(example_hierarchy):
    h = example_hierarchy
    out = oracle.machine_unify(h, parse_term("a(#1 d1,#1)", h),
                               parse_term("b(b(#2 d,#2),d)", h))
    assert iso(out, parse_term("c(#2 d1,b(#1 d,#1),#2,bot)", h))


def test_unify_is_symmetric_on_worked_example(example_hierarchy):
    h = example_hierarchy
    lr = oracle.machine_unify(h, parse_term("a(#1 d1,#1)", h),
                              parse_term("b(b(#2 d,#2),d)", h))
    rl = oracle.machine_unify(h, parse_term("b(b(#2 d,#2),d)", h),
                              parse_term("a(#1 d1,#1)", h))
    assert iso(lr, rl)


def test_unify_with_bot_adds_no_cells(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    a = m.build_term(parse_term("bot", h))
    b = m.build_term(parse_term("a(d2,d)", h))
    top = len(m.heap)
    assert m.unify(a, b)
    assert len(m.heap) == top
    assert iso(m.extract(a), parse_term("a(d2,d)", h))


@pytest.mark.parametrize("left, right", [("a(bot,d)", "c(d1,b(d,d),d2,bot)"),
                                         ("c(d1,b(d,d),d2,bot)", "a(bot,d)")])
def test_unify_keeps_the_node_of_the_join_type(example_hierarchy, left, right):
    # at every node pair one side's type is the join, so that side's node
    # is the result: nothing is appended, in either order
    h = example_hierarchy
    m = fresh(h)
    a = m.build_term(parse_term(left, h))
    b = m.build_term(parse_term(right, h))
    top = len(m.heap)
    assert m.unify(a, b)
    assert len(m.heap) == top
    assert iso(m.extract(a), parse_term("c(d1,b(d,d),d2,bot)", h))
    assert m.deref(a) == m.deref(b)


def test_unify_incompatible_types_fails(example_hierarchy):
    h = example_hierarchy
    assert oracle.machine_unify(h, parse_term("d1", h), parse_term("d2", h)) is None
    assert oracle.machine_unify(h, parse_term("a(d2,d)", h),
                                parse_term("e(d,d)", h)) is None


def test_unify_fails_below_the_root(example_hierarchy):
    h = example_hierarchy
    assert oracle.machine_unify(h, parse_term("a(d1,d)", h),
                                parse_term("a(d2,d)", h)) is None


def test_unify_cycle_with_its_unrolling(example_hierarchy):
    h = example_hierarchy
    out = oracle.machine_unify(h, parse_term("#1 a(#1,d)", h),
                               parse_term("a(a(#2 a(#2,d),d),d)", h))
    assert iso(out, parse_term("#1 a(#1,d)", h))


def test_unify_two_cycles_of_different_length(example_hierarchy):
    h = example_hierarchy
    out = oracle.machine_unify(h, parse_term("#1 b(#1,d)", h),
                               parse_term("#2 b(b(#2,d),d)", h))
    assert iso(out, parse_term("#1 b(#1,d)", h))


def test_unify_promotes_cyclic_nodes(example_hierarchy):
    h = example_hierarchy
    out = oracle.machine_unify(h, parse_term("#1 a(#1,d)", h),
                               parse_term("#2 b(#2,d)", h))
    assert iso(out, parse_term("#1 c(#1,#1,d,bot)", h))


def test_cycle_forces_argument_merge(example_hierarchy):
    # unifying the roots makes the right term's f1 cycle fold the left's
    # two c nodes together, so their f2 values (d versus g(d)) must clash;
    # the pending copy slot for f2 is bound through the cycle before its
    # stack action is popped and must be merged, not overwritten
    h = example_hierarchy
    a = parse_term("#1 c(c(#1,g(d),d,bot),d,d,bot)", h)
    b = parse_term("#2 a(#2,d)", h)
    assert oracle.unify_terms(h, a, b) is None
    assert oracle.machine_unify(h, a, b) is None
    assert oracle.machine_unify(h, b, a) is None
    mergeable = parse_term("#1 c(c(#1,d,d,bot),d,d,bot)", h)
    out = oracle.machine_unify(h, mergeable, b)
    assert iso(out, parse_term("#1 c(#1,d,d,bot)", h))


def test_unify_result_contains_introduced_features(example_hierarchy):
    h = example_hierarchy
    out = oracle.machine_unify(h, parse_term("a(d2,d)", h),
                               parse_term("b(e(d,d1),d)", h))
    assert iso(out, parse_term("c(d2,e(d,d1),d,bot)", h))


def chain_equations(typ, depth, cyclic=False):
    """The equations of typ(typ(...~t)) with *depth* typ nodes, written by
    hand, since the term parser recurses per level.  A *cyclic* chain ends
    in a pointer back to its first node instead of ~t."""
    eqs = [terms.Equation(i, typ, (i + 1,)) for i in range(1, depth)]
    eqs.append(terms.Equation(depth, typ, (1,) if cyclic else (depth + 1,)))
    if not cyclic:
        eqs.append(terms.Equation(depth + 1, "~t", ()))
    return terms.EquationSet(eqs, [1], [len(eqs)])


def build_chain(m, typ, depth, cyclic=False):
    regs = {}
    m.execute(compiler.compile_query(chain_equations(typ, depth, cyclic)), regs)
    return regs[1]


@pytest.mark.parametrize("entry", ["unify", "unify_value"])
def test_unify_deep_chains_without_recursion(loop_hierarchy, entry):
    h = loop_hierarchy
    depth = 10_000
    m = fresh(h)
    left = build_chain(m, "t", depth)
    if entry == "unify_value":
        # program code of the cyclic chain #1 u(#1): get_structure retypes
        # the root, and its unify_value then folds every level below the
        # root into it, one worklist entry per level
        code = compiler.compile_program(chain_equations("u", 1, cyclic=True))
        assert [type(ins) for ins in code] == [GetStructure, UnifyValue]
        m.execute(code, {1: left})
        a = m.deref(left)
        assert m.cell(a) == (STR, h.tid("u")) and m.deref(a + 1) == a
        assert terms.print_term(m.extract(left)) == "#1 u(#1)"
        return
    right = build_chain(m, "u", depth)
    assert m.unify(left, right)
    # walk the result on the heap iteratively
    for a in (left, right):
        a = m.deref(a)
        nodes = 0
        while m.cell(a)[0] is STR:
            assert m.cell(a)[1] == h.tid("u")
            nodes += 1
            a = m.deref(a + 1)
        assert nodes == depth
        assert m.cell(a) == (VAR, h.tid("t"))
    # read both results back: extraction walks from a stack as well
    for a in (left, right):
        t = m.extract(a)
        nodes = 0
        while t.type == "u":
            nodes += 1
            (t,) = t.args
        assert nodes == depth
        assert terms.print_term(t) == "t(~t)"


def test_snapshot_of_deep_chain_without_recursion(loop_hierarchy):
    # copying a snapshot walks from a stack, like unify and extract; the
    # ~t leaf of the second chain stays one unexpanded cell, so the copy
    # reads back exactly as the original
    h = loop_hierarchy
    depth = 10_000
    for cyclic in (True, False):
        m = fresh(h)
        left = build_chain(m, "t", depth, cyclic)
        assert m.unify(left, build_chain(m, "u", depth, cyclic))
        expected = m.extract(left)
        snap = m.snapshot_regs({1: left}, [1])
        assert len(snap.cells) == 2 * depth + (not cyclic)
        other = fresh(h)
        restored = other.extract(other.restore_regs(snap, [1])[1])
        assert iso(restored, expected)
        nodes = 0
        while isinstance(restored, terms.Node) and restored.type == "u":
            nodes += 1
            (restored,) = restored.args
        assert nodes == depth
        if cyclic:
            assert isinstance(restored, terms.BackRef)
        else:
            assert terms.print_term(restored) == "t(~t)"


# -- unexpanded structures ----------------------------------------------------------

def test_var_var_merge_keeps_cells_unexpanded(loop_hierarchy):
    h = loop_hierarchy
    m = fresh(h)
    m.heap.append((VAR, h.tid("t")))
    m.heap.append((VAR, h.tid("u")))
    assert m.unify(0, 1)
    a = m.deref(0)
    assert m.cell(a) == (VAR, h.tid("u"))
    assert m.deref(1) == a


def test_var_binds_to_more_specific_structure(loop_hierarchy):
    h = loop_hierarchy
    out = oracle.machine_unify(h, parse_term("t(~t)", h), parse_term("u(~t)", h))
    assert iso(out, oracle.canonical(h, parse_term("u(~t)", h)))


def test_unify_terminates_under_appropriateness_loop(loop_hierarchy):
    h = loop_hierarchy
    out = oracle.machine_unify(h, parse_term("t(~t)", h), parse_term("#1 t(#1)", h))
    assert iso(out, parse_term("#1 t(#1)", h))


def test_cyclic_pairs_terminate_under_loop_hierarchy(loop_hierarchy):
    h = loop_hierarchy
    out = oracle.machine_unify(h, parse_term("#1 t(#1)", h),
                               parse_term("t(t(#2 t(#2)))", h))
    assert iso(out, parse_term("#1 t(#1)", h))
    out = oracle.machine_unify(h, parse_term("#1 t(#1)", h),
                               parse_term("#2 u(#2)", h))
    assert iso(out, parse_term("#1 u(#1)", h))


def test_eager_machine_expands_fully(example_hierarchy):
    h = example_hierarchy
    m = fresh(h, eager=True)
    a = m.build_term(parse_term("bot", h))
    b = m.build_term(parse_term("b(d,d)", h))
    assert m.unify(a, b)
    assert all(c[0] is not VAR for c in m.heap if c is not None)
    assert iso(m.extract(a), parse_term("b(d,d)", h))


def test_eager_expansion_refuses_appropriateness_loop(loop_hierarchy):
    m = fresh(loop_hierarchy, eager=True)
    with pytest.raises(MachineError, match="appropriateness loop"):
        m.build_most_general_fs("t")
    lazy = fresh(loop_hierarchy)
    assert lazy.cell(lazy.build_most_general_fs("t")) == (STR, lazy.h.tid("t"))


def test_eager_expansion_of_a_deep_type_chain_without_recursion(deep_chain_hierarchy):
    h = deep_chain_hierarchy
    m = fresh(h, eager=True)
    a = m.build_most_general_fs("c0")
    for i in range(DEEP_CHAIN_TYPES - 1):
        assert m.cell(a) == (STR, h.tid(f"c{i}"))
        a = m.deref(a + 1)
    assert m.cell(a) == (STR, h.tid(f"c{DEEP_CHAIN_TYPES - 1}"))
    assert len(m.heap) == DEEP_CHAIN_TYPES * 2 - 1


def test_machine_has_no_eager_mode(example_hierarchy):
    with pytest.raises(TypeError):
        MachineState(example_hierarchy, eager=True)


def test_lazy_and_eager_agree_on_loop_free_corpus(example_hierarchy):
    rng = random.Random(7)
    h = example_hierarchy
    for _ in range(40):
        a, b = oracle.random_pair(rng, h)
        lazy = oracle.machine_unify(h, a, b)
        eager = oracle.machine_unify(h, a, b, eager=True)
        if lazy is None:
            assert eager is None
        else:
            assert iso(lazy, eager)


# w narrows the value of the feature f it inherits from v, from c to d
NARROWING_SPEC = """
bot sub [a, v, c].
c sub [d].
d sub [].
v sub [w] intro [f: c].
a sub [w].
w sub [] intro [f: d].
"""

NARROWING_TERMS = ["a", "c", "d", "~a", "~c", "~v", "~w", "v(c)", "v(d)", "v(~c)",
                   "w(d)", "w(~d)"]


def test_lazy_and_eager_agree_on_a_narrowing_hierarchy():
    # the machine keeps a node or a VAR cell whose type is already the
    # join, and builds a node otherwise, in both modes alike, and both
    # agree with the oracle
    h = typesys.load_hierarchy(NARROWING_SPEC)
    for left in NARROWING_TERMS:
        for right in NARROWING_TERMS:
            a, b = parse_term(left, h), parse_term(right, h)
            lazy = oracle.machine_unify(h, a, b)
            eager = oracle.machine_unify(h, a, b, eager=True)
            want = oracle.unify_terms(h, a, b)
            assert (lazy is None) == (eager is None) == (want is None), (left, right)
            assert lazy is None or iso(lazy, eager) and iso(lazy, want), (left, right)


# p and q both inherit f: c from v, and their common subtype w narrows it
NARROWING_BOTH_SPEC = """
bot sub [v, c].
c sub [d].
d sub [].
v sub [p, q] intro [f: c].
p sub [w].
q sub [w].
w sub [] intro [f: d].
"""


@pytest.mark.parametrize("spec,left,right", [
    (NARROWING_SPEC, "~v", "a"), (NARROWING_SPEC, "~w", "v(c)"), (NARROWING_SPEC, "v(c)", "a"),
    (NARROWING_SPEC, "~v", "~a"), (NARROWING_SPEC, "a", "v(c)"),
    (NARROWING_BOTH_SPEC, "p(c)", "q(c)"), (NARROWING_BOTH_SPEC, "p(~c)", "q(c)"),
    (NARROWING_BOTH_SPEC, "~p", "q(c)")])
def test_a_result_type_narrows_the_values_of_its_features(spec, left, right):
    # w's f takes d, below the c its supertypes give it, so every w made
    # here reads back as w(d)
    h = typesys.load_hierarchy(spec)
    a, b = parse_term(left, h), parse_term(right, h)
    want = parse_term("w(d)", h)
    for got in (oracle.machine_unify(h, a, b), oracle.machine_unify(h, a, b, eager=True),
                oracle.unify_terms(h, a, b)):
        assert iso(got, want), terms.print_term(got)
    if "~" not in right:
        # the right term as program code: get_structure runs the plan
        m = fresh(h)
        regs = {1: m.build_term(a)}
        m.execute(compiler.compile_program(flatten(b)), regs)
        assert iso(m.extract(regs[1]), want)


def test_plans_record_a_narrowed_value():
    h = typesys.load_hierarchy(NARROWING_SPEC)
    d = h.tid("d")
    assert h.plan("v", "a").steps == (typesys.LeftOnly(d),)
    assert h.plan("a", "v").steps == (typesys.RightOnly(1, d),)
    # a w operand's own value is already d
    assert h.plan("v", "w").steps == (typesys.Both(1),)
    assert h.plan("w", "v").steps == (typesys.Both(1),)
    h = typesys.load_hierarchy(NARROWING_BOTH_SPEC)
    assert h.plan("p", "q").steps == (typesys.Both(1, h.tid("d")),)


# -- undo --------------------------------------------------------------------------

def test_undo_restores_heap_exactly(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    a = m.build_term(parse_term("a(#1 d1,#1)", h))
    b = m.build_term(parse_term("b(b(#2 d,#2),d)", h))
    before = list(m.heap)
    mark = m.checkpoint()
    assert m.unify(a, b)
    assert m.heap != before
    m.undo(mark)
    assert m.heap == before
    assert len(m.trail) == mark.trail


def test_query_code_writes_no_trail_entries(example_hierarchy):
    # every put_arc fills a slot of a node built by the same code, above
    # any mark, so undo drops it with the heap top and needs no entry
    h = example_hierarchy
    m = fresh(h)
    a = m.build_term(parse_term("a(#1 d1,#1)", h))
    code = compiler.compile_query(flatten(parse_term("b(b(#2 d,#2),d)", h)))
    assert any(isinstance(ins, PutArc) for ins in code)
    m.execute(code, {})
    assert m.trail == []
    before = list(m.heap)
    mark = m.checkpoint()
    regs = {}
    m.execute(code, regs)
    assert m.trail == []
    assert m.unify(a, regs[1])
    assert m.trail
    m.undo(mark)
    assert m.heap == before and m.trail == []


def test_undo_after_failed_unification(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    a = m.build_term(parse_term("a(d1,d)", h))
    b = m.build_term(parse_term("a(d2,d)", h))
    before = list(m.heap)
    mark = m.checkpoint()
    assert not m.unify(a, b)
    m.undo(mark)
    assert m.heap == before


def test_undo_nests_lifo(example_hierarchy):
    h = example_hierarchy
    m = fresh(h)
    a = m.build_term(parse_term("bot", h))
    outer = m.checkpoint()
    b = m.build_term(parse_term("d", h))
    after_b = list(m.heap)
    inner = m.checkpoint()
    c = m.build_term(parse_term("a(d2,d)", h))
    assert m.unify(a, c)
    m.undo(inner)
    assert m.heap == after_b
    assert iso(m.extract(b), parse_term("d", h))
    m.undo(outer)
    assert m.heap == [(STR, h.tid("bot"))]


def test_undo_rejects_stale_mark(example_hierarchy):
    m = fresh(example_hierarchy)
    first = m.checkpoint()
    m.build_term(parse_term("d", example_hierarchy))
    second = m.checkpoint()
    m.undo(first)
    with pytest.raises(MachineError, match="out of order"):
        m.undo(second)


# -- register snapshots --------------------------------------------------------------

def test_snapshot_survives_undo(example_hierarchy):
    h = example_hierarchy
    mrs = terms.parse_mrs("a(bot,#3 d), #3", h)
    m = fresh(h)
    mark = m.checkpoint()
    regs = dict(enumerate(m.build(mrs.roots), start=1))
    snap = m.snapshot_regs(regs, [1, 2])
    m.undo(mark)
    regs = m.restore_regs(snap, [1, 2])
    out = m.extract_multi([regs[1], regs[2]])
    assert iso_roots(out, mrs.roots)
    # sharing between registers is still physical, not just isomorphic
    assert m.deref(regs[1] + 2) == m.deref(regs[2])


def test_snapshot_of_an_unwritten_arc_slot_is_reported(example_hierarchy):
    # put_node leaves its arc slots empty until put_arc writes them; the
    # copy reports the first empty slot it reaches as extract does
    m = fresh(example_hierarchy)
    regs = {}
    m.execute([PutNode("a", 2, 1)], regs)
    with pytest.raises(MachineError, match="arc slot 1 read before it was written"):
        m.extract(regs[1])
    with pytest.raises(MachineError, match="arc slot 1 read before it was written"):
        m.snapshot_regs(regs, [1])


def test_restore_regs_takes_one_register_per_root(example_hierarchy):
    # a copy keeps no register numbers; a register list of the wrong
    # length is refused before any cell is appended, where zip would drop
    # registers without a word
    h = example_hierarchy
    m = fresh(h)
    snap = m.snapshot_regs({1: m.build_term(parse_term("a(bot,#3 d)", h)), 2: 0}, [1, 2])
    top = len(m.heap)
    for live in ([1], [1, 2, 3]):
        with pytest.raises(MachineError, match=f"{len(live)} registers for a copy of 2 roots"):
            m.restore_regs(snap, live)
    assert len(m.heap) == top
    regs = m.restore_regs(snap, [7, 4])
    assert sorted(regs) == [4, 7] and m.deref(regs[7]) == m.deref(regs[4])


def test_an_element_copy_is_built_in_write_mode(example_hierarchy):
    # program code on an unbound root builds the node it would match; a
    # held register is a VAR bot placeholder, and the copy's roots are the
    # held registers, the root, then the registers the code sets
    h = example_hierarchy
    code = [GetStructure("a", 2, 4), UnifyValue(2), UnifyVariable(5), GetStructure("d", 0, 5)]
    copy = fresh(h).element_copy(code, (1, 2), 4)
    bot, a, d = h.tid("bot"), h.tid("a"), h.tid("d")
    assert copy == machine.RegSnapshot(
        ((VAR, bot), (VAR, bot), (STR, a), (REF, 1), (REF, 5), (STR, d)), (0, 1, 2, 5))
    # a root an earlier element set is its placeholder, and nothing runs
    assert fresh(h).element_copy([], (1, 2), 2) == machine.RegSnapshot(
        ((VAR, bot), (VAR, bot)), (0, 1, 1))


def test_an_element_copy_with_an_unbound_cell_is_refused(example_hierarchy):
    # write mode leaves an argument no get_structure gives structure
    # unbound, a REF to itself, whose offset the walk would read as a type
    code = [GetStructure("a", 2, 1), UnifyVariable(2), UnifyVariable(3)]
    with pytest.raises(MachineError, match="leaves a cell of its copy unbound"):
        fresh(example_hierarchy).element_copy(code, (), 1)


def test_reading_a_restored_copy_writes_nothing(example_hierarchy):
    # the parser reads a complete edge's head off its restored copy inside
    # an undo mark: the copy's arcs point straight at their targets, so
    # deref has no chain to compress
    rng = random.Random(19)
    h = example_hierarchy
    read = 0
    for _ in range(40):
        a, b = oracle.random_pair(rng, h)
        m = fresh(h)
        pa = m.build_term(a)
        if not m.unify(pa, m.build_term(b)):
            continue
        copy = fresh(h)
        root = copy.build_snapshot(m.snapshot_regs({1: pa}, [1]))[0]
        cells = list(copy.heap)
        assert iso(copy.extract(root), m.extract(pa))
        assert copy.trail == [] and copy.heap == cells
        read += 1
    assert read > 10


# -- machine vs oracle on random inputs ------------------------------------------------

def test_machine_matches_oracle_on_example_hierarchy(example_hierarchy):
    rng = random.Random(11)
    h = example_hierarchy
    for _ in range(60):
        a, b = oracle.random_pair(rng, h)
        got = oracle.machine_unify(h, a, b)
        want = oracle.unify_terms(h, a, b)
        if want is None:
            assert got is None
        else:
            assert got is not None and iso(got, want)


def test_machine_matches_oracle_on_random_hierarchies():
    rng = random.Random(13)
    for _ in range(8):
        h, _ = oracle.random_hierarchy(rng)
        for _ in range(15):
            a, b = oracle.random_pair(rng, h)
            got = oracle.machine_unify(h, a, b)
            want = oracle.unify_terms(h, a, b)
            if want is None:
                assert got is None
            else:
                assert got is not None and iso(got, want)


def test_unification_is_idempotent(example_hierarchy):
    rng = random.Random(17)
    h = example_hierarchy
    for _ in range(30):
        a = oracle.random_term(rng, h)
        out = oracle.machine_unify(h, a, a)
        assert iso(out, oracle.canonical(h, a))


# -- a stateful test ---------------------------------------------------------------

def _run_machine_sequence(rng, h, n_roots=3, steps=12):
    """One seeded sequence of machine operations over *n_roots* random
    roots, each checked against ``oracle.unify_scopes_roots`` over the
    pairs applied so far; returns the names of the steps taken."""
    roots = [oracle.random_term(rng, h, max_nodes=5) for _ in range(n_roots)]
    scopes = [[t] for t in roots]
    m = fresh(h)
    addrs = [m.build_term(t) for t in roots]
    applied = []        # the pairs of roots unified so far
    marks = []          # (mark, heap copy, len(applied)) per open checkpoint
    taken = []
    for _ in range(steps):
        step = rng.choice(["checkpoint", "unify", "unify", "snapshot"] + ["undo"] * bool(marks))
        if step == "checkpoint":
            marks.append((m.checkpoint(), list(m.heap), len(applied)))
        elif step == "unify":
            x, y = rng.sample(range(n_roots), 2)
            if oracle.unify_scopes(h, scopes, applied + [(x, y)], 0) is None:
                # a failure leaves the heap dirty: like the parser, fail only
                # above a mark and undo at once
                taken.append("fail")
                marks.append((m.checkpoint(), list(m.heap), len(applied)))
                assert not m.unify(addrs[x], addrs[y])
                step = "undo"
            else:
                assert m.unify(addrs[x], addrs[y])
                applied.append((x, y))
        if step == "undo":
            mark, heap, n_applied = marks.pop()
            m.undo(mark)
            assert m.heap == heap and len(m.trail) == mark.trail
            del applied[n_applied:]
        elif step == "snapshot":
            live = rng.sample(range(n_roots), n_roots)
            heap = list(m.heap)
            snap = m.snapshot_regs(dict(enumerate(addrs)), live)
            assert m.heap == heap
            other = fresh(h)
            regs = other.restore_regs(snap, live)
            assert iso_roots(other.extract_multi([regs[r] for r in range(n_roots)]),
                             m.extract_multi(addrs))
        taken.append(step)
        # the roots read in one scope: one node bijection for all of them
        # checks each root's structure and the sharing across roots
        want = oracle.unify_scopes_roots(h, scopes, applied, range(n_roots))
        assert want is not None and iso_roots(m.extract_multi(addrs), want)
    return taken


def test_machine_sequences_match_the_oracle():
    # checkpoints, unifications that succeed and fail, undos and copies,
    # in random order over hierarchies with appropriateness loops allowed
    rng = random.Random(43)
    taken = []
    for _ in range(10):
        h, _ = oracle.random_hierarchy(rng, allow_loops=True)
        for _ in range(8):
            taken += _run_machine_sequence(rng, h)
    for step in ("checkpoint", "unify", "fail", "undo", "snapshot"):
        assert taken.count(step) > 50
