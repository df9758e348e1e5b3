import pytest

from tfsam import grammar, typesys

# Nine types; g introduces f3 above both a and b, so plans over a and b
# mix carried, copied and introduced features.
EXAMPLE_SPEC = """
bot sub [g, d].
g sub [a, b] intro [f3: d].
a sub [c] intro [f1: bot].
c sub [] intro [f4: bot].
b sub [c, e] intro [f2: bot].
e sub [].
d sub [d1, d2].
d1 sub [].
d2 sub [].
"""

# t's only feature loops back to t, so its most general structure is
# infinite and can exist only unexpanded.
LOOP_SPEC = """
bot sub [t, u].
t sub [u] intro [f: t].
u sub [].
"""

# bot above c0 .. c2999, each c<i> introducing one feature of type c<i+1>:
# the most general structure of c0 is a chain of 3,000 nodes, deeper than
# Python's default recursion limit.
DEEP_CHAIN_TYPES = 3000
DEEP_CHAIN_SPEC = (
    "bot sub [%s].\n" % ", ".join(f"c{i}" for i in range(DEEP_CHAIN_TYPES))
    + "".join(f"c{i} sub [] intro [f{i}: c{i + 1}].\n" for i in range(DEEP_CHAIN_TYPES - 1))
    + f"c{DEEP_CHAIN_TYPES - 1} sub [].\n")

TOY_GRAMMAR = EXAMPLE_SPEC + """
lex w1 => a(d2,d).
lex w2 => d.
rule a(bot,#3 d), d => a(d2,#3).
start => a(bot,bot).
"""

# Two rules over the same span with non-isomorphic heads.
AMBIGUOUS_GRAMMAR = EXAMPLE_SPEC + """
lex w1 => a(d2,d).
lex w2 => d.
rule a(bot,#3 d), d => a(d2,#3).
rule a(bot,d), d => b(d,d).
start => bot.
"""

# A unary rule must feed a binary one: the active edge needing the second
# word appears only after that word's edge has left the agenda.
CHAIN_GRAMMAR = """
bot sub [tp, tq, tx, ts].
tp sub [].
tq sub [].
tx sub [].
ts sub [].
lex p => tp.
lex x => tx.
rule tp => tq.
rule tq, tx => ts.
start => ts.
"""

# A rule whose head re-derives its own body; duplicate suppression must
# reach a fixed point.
SELF_FEEDING_GRAMMAR = """
bot sub [tq].
tq sub [].
lex q => tq.
rule tq => tq.
start => tq.
"""


@pytest.fixture(scope="session")
def example_hierarchy():
    return typesys.load_hierarchy(EXAMPLE_SPEC)


@pytest.fixture(scope="session")
def loop_hierarchy():
    return typesys.load_hierarchy(LOOP_SPEC)


@pytest.fixture(scope="session")
def deep_chain_hierarchy():
    return typesys.load_hierarchy(DEEP_CHAIN_SPEC)


@pytest.fixture(scope="session")
def toy_grammar():
    return grammar.load_grammar(TOY_GRAMMAR)


@pytest.fixture(scope="session")
def ambiguous_grammar():
    return grammar.load_grammar(AMBIGUOUS_GRAMMAR)


@pytest.fixture(scope="session")
def chain_grammar():
    return grammar.load_grammar(CHAIN_GRAMMAR)


@pytest.fixture(scope="session")
def self_feeding_grammar():
    return grammar.load_grammar(SELF_FEEDING_GRAMMAR)
