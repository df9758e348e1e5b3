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
# word appears only after the unary closure of the first word's cell.
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

# A grammar without rules: a sentence parses only as one word.
LEXICON_ONLY_GRAMMAR = """
bot sub [a].
a sub [].
lex w => a.
start => a.
"""

# The agreement grammar of the benchmark and of CI: a sentence is a run
# of words, and every s + s combine needs the two agreements to unify.
AGREEMENT_GRAMMAR = """
bot sub [agr, cat].
agr sub [sg, pl].
sg sub [].
pl sub [].
cat sub [np, s] intro [agr: agr].
np sub [].
s sub [].
rule np(#1 agr) => s(#1).
rule s(#1 agr), s(#1) => s(#1).
lex w => np(sg).
lex v => np(pl).
start => s(agr).
"""

# The span-width grammar: s(len) counts words, and the last rule keeps
# the length of its left daughter, so on a sentence of a's a cell of
# width w holds an s edge of each length up to w and an active edge for
# each: cells hold many distinct edges, and one pair meets at many
# splits of a span.
SPAN_WIDTH_GRAMMAR = """
bot sub [n, s, w].  n sub [z, succ].  z sub [].  succ sub [] intro [p: n].
s sub [] intro [len: n].  w sub [].  lex a => w.  rule w => s(succ(z)).
rule s(#1 n), w => s(succ(#1)).  rule s(#1 n), s(n) => s(#1).  start => s(n).
"""

# A small HPSG-style grammar: signs with agreement, category, semantics
# and subject and complement lists.  Complements come off COMPS left to
# right, then the subject is taken from the left; coordination needs two
# equal noun phrases.  Most combines fail deep in a sign, in agreement,
# category or semantics.
HPSG_GRAMMAR = """
bot sub [agr, cat, conj, list, sem, sign].
agr sub [sg, pl].
sg sub [].
pl sub [].
cat sub [noun, verb, s].
noun sub [].
verb sub [].
s sub [].
conj sub [].
sem sub [animate, thing].
animate sub [human, dog].
human sub [].
dog sub [].
thing sub [].
list sub [cons, nil].
cons sub [] intro [first: sign, rest: list].
nil sub [].
sign sub [] intro [agr: agr, cat: cat, comps: list, sem: sem, subj: list].
rule sign(#a agr, #c cat, cons(sign(#xa agr, #xc cat, #xm list, #xs sem, #xj list), #r list), #s sem, #j list),
     sign(#xa, #xc, #xm, #xs, #xj) => sign(#a, #c, #r, #s, #j).
rule #x sign(agr, noun, nil, sem, nil), sign(#a agr, verb, nil, #s sem, cons(#x, nil))
     => sign(#a, s, nil, #s, nil).
rule #x sign(agr, noun, nil, sem, nil), conj, #x => #x.
lex kim => sign(sg, noun, nil, human, nil).
lex rex => sign(sg, noun, nil, dog, nil).
lex dogs => sign(pl, noun, nil, dog, nil).
lex rock => sign(sg, noun, nil, thing, nil).
lex and => conj.
lex sleeps => sign(#1 sg, verb, nil, sem, cons(sign(#1, noun, nil, animate, nil), nil)).
lex sleep => sign(#1 pl, verb, nil, sem, cons(sign(#1, noun, nil, animate, nil), nil)).
lex sees => sign(#1 sg, verb, cons(sign(agr, noun, nil, sem, nil), nil), sem,
                 cons(sign(#1, noun, nil, animate, nil), nil)).
lex pats => sign(#1 sg, verb, cons(sign(agr, noun, nil, dog, nil), nil), sem,
                 cons(sign(#1, noun, nil, human, nil), nil)).
start => sign(agr, s, nil, sem, nil).
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


@pytest.fixture(scope="session")
def agreement_grammar():
    return grammar.load_grammar(AGREEMENT_GRAMMAR)


@pytest.fixture(scope="session")
def hpsg_grammar():
    return grammar.load_grammar(HPSG_GRAMMAR)
