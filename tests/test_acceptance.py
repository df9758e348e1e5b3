"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import random
import time
from collections import Counter

import pytest

import oracle
from tfsam import compiler, machine, terms, typesys
from tfsam.compiler import format_instruction
from tfsam.machine import REF, STR, MachineState
from tfsam.parser import ChartParser, CompleteEdge
from tfsam.terms import flatten, iso, parse_term
from tfsam.typesys import Both, Introduced, LeftOnly, RightOnly

from conftest import LOOP_SPEC


def _report(num, label, ok):
    line = f"{'PASS' if ok else 'FAIL'}  {num:2d}. {label}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus(example_hierarchy):
    """1000 random term pairs: 400 over the example hierarchy, 600 over
    randomized loop-free hierarchies of up to 12 types."""
    rng = random.Random(20260826)
    pairs = [(example_hierarchy, *oracle.random_pair(rng, example_hierarchy))
             for _ in range(400)]
    for _ in range(12):
        h, _ = oracle.random_hierarchy(rng, max_types=12)
        pairs.extend((h, *oracle.random_pair(rng, h)) for _ in range(50))
    return pairs


def _is_cyclic(t):
    defs = {}
    oracle._collect_defs(t, defs, set())

    def walk(x, path):
        if isinstance(x, terms.BackRef):
            x = defs[x.tag]
        if not isinstance(x, terms.Node):
            return False
        if id(x) in path:
            return True
        sub = path | {id(x)}
        return any(walk(a, sub) for a in x.args)

    return walk(t, frozenset())


def test_01_heap_layout(example_hierarchy):
    h = example_hierarchy
    start = time.perf_counter()
    m = MachineState(h)
    m.execute(compiler.compile_query(flatten(parse_term("b(b(#1 d,#1),d)", h))), {})
    expected = [
        (STR, h.tid("b")),
        (REF, 3),
        (REF, 7),
        (STR, h.tid("b")),
        (REF, 6),
        (REF, 6),
        (STR, h.tid("d")),
        (STR, h.tid("d")),
    ]
    ok = m.heap == expected and time.perf_counter() - start < 1.0
    _report(1, "heap layout after building b(b(#1 d,#1),d)", ok)


def test_02_flattening(example_hierarchy):
    h = example_hierarchy
    first = str(flatten(parse_term("a(#1 d1,#1)", h)))
    second = str(flatten(parse_term("b(b(#1 d,#1),d)", h)))
    ok = (first == "X1 = a(X2,X2); X2 = d1"
          and second == "X1 = b(X2,X3); X2 = b(X4,X4); X4 = d; X3 = d")
    _report(2, "terms flatten to the expected register equations", ok)


def test_03_compiled_code(example_hierarchy):
    h = example_hierarchy
    query = [format_instruction(i) for i in
             compiler.compile_query(flatten(parse_term("b(b(#1 d,#1),d)", h)))]
    expected_query = [
        "put_node b/2,X1",
        "put_node b/2,X2",
        "put_node d/0,X4",
        "put_node d/0,X3",
        "put_arc X1,1,X2",
        "put_arc X1,2,X3",
        "put_arc X2,1,X4",
        "put_arc X2,2,X4",
    ]
    program = compiler.disassemble(
        compiler.compile_program(flatten(parse_term("a(#3 d1,#3)", h))))
    expected_program = ("get_structure a/2,X1\n"
                        "unify_variable X2\n"
                        "unify_value X2\n"
                        "get_structure d1/0,X2")
    ok = (Counter(query) == Counter(expected_query)
          and query == expected_query          # documented nodes-then-arcs order
          and program == expected_program)
    _report(3, "query and program code match the expected listings", ok)


def test_04_type_plan(example_hierarchy):
    h = example_hierarchy
    plan = h.plan("a", "b")
    ok = (h.tname(plan.result) == "c"
          and plan.steps == (LeftOnly(), RightOnly(1), Both(2),
                             Introduced(h.tid("bot"))))
    _report(4, "plan(a,b) gives c with carry/copy/unify/introduce steps", ok)


def test_05_rule_application(toy_grammar):
    h = toy_grammar.hierarchy
    result = ChartParser(toy_grammar, verify_undo=True).parse_terms(
        [parse_term("a(d2,d1)", h), parse_term("d2", h)])
    spanning = [e for e in result.chart.cell(0, 2) if isinstance(e, CompleteEdge)]
    ok = (len(spanning) == 1
          and iso(spanning[0].head, parse_term("a(d2,d1)", h)))
    _report(5, "rule application on a two-element input yields a(d2,d1)", ok)


def test_06_oracle_equivalence(corpus):
    start = time.perf_counter()
    successes = failures = cyclic = 0
    ok = True
    for h, a, b in corpus:
        cyclic += _is_cyclic(a) or _is_cyclic(b)
        want = oracle.unify_terms(h, a, b)
        got = oracle.machine_unify(h, a, b)
        if want is None:
            failures += 1
            ok = ok and got is None
        else:
            successes += 1
            ok = ok and got is not None and iso(got, want)
    elapsed = time.perf_counter() - start
    ok = (ok and len(corpus) >= 1000 and successes > 0 and failures > 0
          and cyclic > 0 and elapsed < 60.0)
    _report(6, f"machine matches the reference unifier on {len(corpus)} random "
               f"pairs ({successes} unify, {failures} fail, {cyclic} cyclic, "
               f"{elapsed:.1f}s)", ok)


def test_07_algebraic_properties(corpus):
    bad = 0
    for h, a, b in corpus:
        ab = oracle.machine_unify(h, a, b)
        ba = oracle.machine_unify(h, b, a)
        if (ab is None) != (ba is None) or (ab is not None and not iso(ab, ba)):
            bad += 1
        if not iso(oracle.machine_unify(h, a, a), oracle.canonical(h, a)):
            bad += 1
    _report(7, "unification is commutative and idempotent up to iso "
               f"({bad} counterexamples)", bad == 0)


def test_08_lazy_eager(corpus):
    ok = True
    for h, a, b in corpus:
        lazy = oracle.machine_unify(h, a, b)
        eager = oracle.machine_unify(h, a, b, eager=True)
        if lazy is None:
            ok = ok and eager is None
        else:
            ok = ok and eager is not None and iso(lazy, eager)
    # under an appropriateness loop the eager expansion cannot even be
    # built, while the lazy machine still unifies
    loop_h = typesys.load_hierarchy(LOOP_SPEC)
    got = oracle.machine_unify(loop_h, parse_term("t(~t)", loop_h),
                               parse_term("#1 t(#1)", loop_h))
    ok = ok and got is not None and iso(got, parse_term("#1 t(#1)", loop_h))
    try:
        oracle.EagerMachine(loop_h).build_most_general_fs("t")
        ok = False
    except machine.MachineError:
        pass
    _report(8, f"lazy and eager modes agree on {len(corpus)} pairs; "
               "lazy handles appropriateness loops", ok)


def test_09_undo_discipline(corpus, toy_grammar, ambiguous_grammar,
                            chain_grammar, self_feeding_grammar):
    # every combine in these parses compares the heap against its
    # checkpoint.  A combine's copies are built above its mark and never
    # reach below it, so this half checks only the heap top and the trail
    # length; in the parse_terms parse the input cells lie below every mark
    ChartParser(toy_grammar, verify_undo=True).parse(["w1", "w2"])
    ChartParser(toy_grammar, verify_undo=True).parse(["w2", "w1"])
    ChartParser(ambiguous_grammar, verify_undo=True).parse(["w1", "w2"])
    ChartParser(chain_grammar, verify_undo=True).parse(["p", "x"])
    ChartParser(self_feeding_grammar, verify_undo=True).parse(["q"])
    h = ambiguous_grammar.hierarchy
    ChartParser(ambiguous_grammar, verify_undo=True).parse_terms(
        [parse_term("a(d2,d1)", h), parse_term("d1", h)])
    ok = True
    for h, a, b in corpus[:200]:
        # the pair is built below the mark, so the unification binds cells
        # that the undo must restore from the trail
        m = MachineState(h)
        pa, pb = m.build((a, b))
        mark = m.checkpoint()
        before = list(m.heap)
        m.unify(pa, pb)
        m.undo(mark)
        ok = ok and m.heap == before and len(m.trail) == mark.trail
    _report(9, "heap is cell-for-cell restored after every rewind", ok)


def test_10_parser_fixed_point(toy_grammar, self_feeding_grammar):
    h = toy_grammar.hierarchy
    start = time.perf_counter()
    accept = ChartParser(toy_grammar).parse(["w1", "w2"])
    reject = ChartParser(toy_grammar).parse(["w2", "w1"])
    fixed = ChartParser(self_feeding_grammar).parse(["q"])
    elapsed = time.perf_counter() - start
    ok = (accept.accepted and len(accept.heads) == 1
          and iso(accept.heads[0], parse_term("a(d2,d)", h))
          and not reject.accepted
          and fixed.accepted
          and elapsed < 1.0)
    _report(10, f"toy grammar accepts, rejects and reaches a fixed point "
                f"({elapsed:.2f}s)", ok)
