"""Seeded workload generators and their independent reference answers.

Every workload is built from its seed alone.  tfsam receives only the
generated grammar text, sentences and terms; the expected answers come
from the generators' own bookkeeping (or from ``tests/oracle.py`` for
unification), never from tfsam's output.

A workload exposes one *pass*: a fixed list of operations.  The runner
repeats whole passes, so every run measures the same mix of inputs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from pathlib import Path

from tfsam import grammar, machine, parser, terms, typesys

ROOT = Path(__file__).resolve().parent.parent


def _load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class Workload:
    """One pass of operations over inputs generated from a seed.

    Subclasses fill ``ops`` (one entry per operation of a pass),
    ``expected`` (the reference answer of each op) and ``digest``.
    """

    name = ""

    def setup(self):
        """The work every tfsam invocation pays before its first op."""
        raise NotImplementedError

    def reset(self):
        """Drop what setup built, so the next setup starts afresh."""
        raise NotImplementedError

    def run(self, i):
        """Perform op *i*; returns its answer."""
        raise NotImplementedError

    def check(self, i, answer) -> bool:
        """True when *answer* matches the reference for op *i*."""
        raise NotImplementedError


class _ParseWorkload(Workload):
    grammar_text = ""

    def setup(self):
        self.grammar = grammar.load_grammar(self.grammar_text)

    def reset(self):
        self.grammar = None

    def run(self, i):
        return parser.ChartParser(self.grammar).parse(self.ops[i]).heads

    def check(self, i, heads) -> bool:
        want = self.expected[i]
        if want is None:
            return heads == []
        return len(heads) == 1 and terms.iso(heads[0], terms.parse_term(want, self.grammar.hierarchy))

    def cli_sentence(self) -> int:
        """Index of the op that ``tfsam parse`` is timed on: the
        grammatical sentence of median length, so it does not swing
        with the seed."""
        ok = sorted((len(self.ops[i]), i) for i in range(len(self.ops))
                    if self.expected[i] is not None)
        return ok[len(ok) // 2][1]


# -- parse-ambig ----------------------------------------------------------------

# Why: every combine succeeds and chart cells fill with duplicate
# proposals (items grow as n(n+4)), so time goes to the per-combine
# rebuild (flatten, compile_query, build), to iso in the duplicate check
# and to register snapshots, while typesys stays idle.  Exercises edge
# compilation and duplicate keys; the no-change side for hierarchy work.
AMBIG_GRAMMAR = """
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

AMBIG_LENGTHS = range(12, 25)


class ParseAmbig(_ParseWorkload):
    """Uniform sentences of 12 to 24 words, each length once per pass.

    The seed orders the lengths and picks the word of each sentence; the
    lengths themselves are fixed because parse time grows as n^3, and a
    random length mix would make throughput swing with the seed.
    """

    name = "parse-ambig"
    grammar_text = AMBIG_GRAMMAR

    def __init__(self, seed, lengths=AMBIG_LENGTHS):
        rng = random.Random(f"parse-ambig:{seed}")
        lengths = list(lengths)
        rng.shuffle(lengths)
        self.ops = []
        self.expected = []
        for n in lengths:
            word = rng.choice("wv")
            self.ops.append([word] * n)
            # a uniform sentence has exactly one reading, agreeing with its word
            self.expected.append("s(sg)" if word == "w" else "s(pl)")
        self.digest = _digest([self.grammar_text] + [" ".join(s) for s in self.ops])


# -- parse-deep ------------------------------------------------------------------

# Why: an HPSG-style grammar with subcat lists, agreement reentrancies and
# selectional restrictions over a few hundred semantic types.  Ambiguity
# is low and most combines fail inside unification, while the large
# hierarchy makes the type tables dominate set-up.  Exercises a quick
# check and hierarchy encodings; mostly the no-change side for duplicate
# keys.
DEEP_SIGNATURE = """
bot sub [agr, cat, list, sem, sign].
agr sub [sg, pl].
sg sub [].
pl sub [].
cat sub [noun, verb, prep, s].
noun sub [].
verb sub [].
s sub [].
prep sub [] intro [mod: sem].
list sub [cons, nil].
cons sub [] intro [first: sign, rest: list].
nil sub [].
sign sub [] intro [agr: agr, cat: cat, comps: list, sem: sem, subj: list].
"""

# head-complement, head-subject and VP-PP adjunction.  Complements are
# taken left to right off COMPS; the subject sits on SUBJ and is taken
# from the left once COMPS is empty; a saturated PP's MOD must unify with
# the verb's semantics.
DEEP_RULES = """
rule sign(#a agr, #c cat, cons(sign(#xa agr, #xc cat, #xm list, #xs sem, #xj list), #r list), #s sem, #j list),
     sign(#xa, #xc, #xm, #xs, #xj) => sign(#a, #c, #r, #s, #j).
rule sign(#xa agr, #xc cat, #xm nil, #xs sem, #xj nil),
     sign(#a agr, verb, nil, #s sem, cons(sign(#xa, #xc, #xm, #xs, #xj), nil)) => sign(#a, s, nil, #s, nil).
rule sign(#a agr, #c verb, nil, #s sem, #j cons(sign(agr, cat, list, sem, list), nil)),
     sign(agr, prep(#s), nil, sem, nil) => sign(#a, #c, nil, #s, #j).
start => sign(agr, s, nil, sem, nil).
"""

DEEP_SEM_TYPES = 300
DEEP_SEM_FEATURES = 8
DEEP_NOUNS, DEEP_VERBS, DEEP_PREPS = 60, 30, 8
DEEP_LENGTHS = range(3, 16)
DEEP_PER_LENGTH = 8          # sentences of each length per pass (even); two are ungrammatical
VIOLATIONS = ("agreement", "subject", "object", "attachment", "missing")


class SemTree:
    """A seeded tree of semantic types below ``sem``, plus features.

    The shape is three levels with a fixed type count and near-even
    branching, so the type-table build cost (which depends on the sizes
    of the subtype sets) barely moves with the seed.  ``tests/oracle.py``
    cannot be used here: its generator draws the size at random below
    its maximum and resamples when validation fails.
    """

    def __init__(self, rng, n_types=DEEP_SEM_TYPES, n_features=DEEP_SEM_FEATURES):
        names = [f"m{i}" for i in range(1, n_types + 1)]
        self.parent = {}
        level1 = names[:6]
        for t in level1:
            self.parent[t] = "sem"
        rest = names[6:]
        level2 = rest[:len(level1) * 7]
        for k, t in enumerate(level2):
            self.parent[t] = level1[k % len(level1)]
        for t in rest[len(level2):]:
            self.parent[t] = rng.choice(level2)
        self.children = {t: [] for t in ["sem"] + names}
        for t in names:
            self.children[self.parent[t]].append(t)
        self.intro = {t: f"sf{k + 1}"
                      for k, t in enumerate(rng.sample(level1 + level2, n_features))}
        self.leaves = [t for t in names if not self.children[t]]

    def ancestors(self, t):
        """*t* and every type above it, up to and including ``sem``."""
        out = [t]
        while t != "sem":
            t = self.parent[t]
            out.append(t)
        return out

    def arity(self, t):
        return sum(1 for a in self.ancestors(t) if a in self.intro)

    def under(self, t, restriction) -> bool:
        return restriction in self.ancestors(t)

    def spec(self) -> str:
        lines = []
        for t in ["sem"] + list(self.parent):
            line = f"{t} sub [{', '.join(self.children[t])}]"
            if t in self.intro:
                line += f" intro [{self.intro[t]}: sem]"
            lines.append(line + ".")
        return "\n".join(lines) + "\n"

    def readout(self, t) -> str:
        """How the machine reads back an unconstrained structure of type t."""
        n = self.arity(t)
        return f"{t}({','.join(['sem'] * n)})" if n else t


class ParseDeep(_ParseWorkload):
    """Sentences of 3 to 15 words; a quarter carry one injected violation.

    Each length appears the same number of times per pass, with the same
    split between verb classes and the injected violations spread evenly
    over their kinds, for the same reason as in parse-ambig.  The expected head of a grammatical
    sentence is derived from the generator's lexicon: the verb's agreement
    (or the subject's, for a verb unmarked for it) and the verb's
    semantics.  A violated sentence must give ``no parse``; the grammar
    admits one analysis per sentence, so one failed unification on it is
    enough.
    """

    name = "parse-deep"

    def __init__(self, seed, lengths=DEEP_LENGTHS, per_length=DEEP_PER_LENGTH):
        rng = random.Random(f"parse-deep:{seed}")
        self.tree = tree = SemTree(rng)
        self.nouns = {f"n{i}": (rng.choice(["sg", "pl"]), rng.choice(tree.leaves))
                      for i in range(DEEP_NOUNS)}
        self.verbs = {}
        classes = ["intr", "trans", "ditr"]
        for i in range(DEEP_VERBS):
            nargs = classes[i % 3]
            ncomps = classes.index(nargs)
            agr = rng.choice(["sg", "pl", None])
            self.verbs[f"v{i}"] = {
                "agr": agr,
                "sem": rng.choice(tree.leaves),
                "subj": self._restriction(rng, agr),
                "comps": [self._restriction(rng) for _ in range(ncomps)],
            }
        verb_sems = [v["sem"] for v in self.verbs.values()]
        self.preps = {}
        for i in range(DEEP_PREPS):
            mod = rng.choice(tree.ancestors(rng.choice(verb_sems))[1:3])
            self.preps[f"p{i}"] = {"mod": mod, "obj": self._restriction(rng)}
        self.grammar_text = (DEEP_SIGNATURE + tree.spec() + DEEP_RULES
                             + self._lexicon_text())

        self.ops = []
        self.expected = []
        kinds = list(VIOLATIONS)
        rng.shuffle(kinds)
        injected = 0
        for n in lengths:
            # even positions take intransitive verbs, odd ones ditransitive
            # (for even lengths); one of each is made ungrammatical
            half = per_length // 2
            bad = {2 * rng.randrange(half), 2 * rng.randrange(half) + 1}
            for k in range(per_length):
                violation = None
                if k in bad:
                    violation = kinds[injected % len(kinds)]
                    injected += 1
                words, head = self._sentence(rng, n, violation, ditransitive=k % 2 == 1)
                self.ops.append(words)
                self.expected.append(head)
        self.digest = _digest([self.grammar_text] + [" ".join(s) for s in self.ops])

    def _restriction(self, rng, agr=None):
        """A type some nouns (of agreement *agr*, if given) fall under: a
        noun's semantics or one of its two nearest supertypes."""
        leaf = rng.choice([sem for a, sem in self.nouns.values() if agr in (None, a)])
        return rng.choice(self.tree.ancestors(leaf)[:3])

    def _lexicon_text(self) -> str:
        def np(agr, sem):
            return f"sign({agr}, noun, nil, ~{sem}, nil)"

        def comps(restrictions):
            out = "nil"
            for r in reversed(restrictions):
                out = f"cons({np('~agr', r)}, {out})"
            return out

        lines = []
        for w, (agr, sem) in self.nouns.items():
            lines.append(f"lex {w} => {np(agr, sem)}.")
        for w, v in self.verbs.items():
            agr = f"#1 {v['agr']}" if v["agr"] else "#1 ~agr"
            subj = f"cons({np('#1', v['subj'])}, nil)"
            lines.append(f"lex {w} => sign({agr}, verb, {comps(v['comps'])}, ~{v['sem']}, {subj}).")
        for w, p in self.preps.items():
            lines.append(f"lex {w} => sign(agr, prep(~{p['mod']}), {comps([p['obj']])}, sem, nil).")
        return "\n".join(lines) + "\n"

    def _nouns(self, pred):
        return [w for w, (agr, sem) in self.nouns.items() if pred(agr, sem)]

    def _sentence(self, rng, n, violation, ditransitive):
        """Words of an n-word sentence and its expected head (None when
        *violation* makes it ungrammatical).  Falls back to another
        violation when the drawn one cannot be built from this lexicon."""
        tree = self.tree
        ncomps = 1 if n % 2 else (2 if ditransitive and n >= 4 else 0)
        npp = (n - 2 - ncomps) // 2
        verb = rng.choice([w for w, v in self.verbs.items() if len(v["comps"]) == ncomps
                           and (npp == 0 or self._preps_for(v))])
        v = self.verbs[verb]

        def pick(pred):
            return rng.choice(self._nouns(pred))

        def fits_subj(agr, sem):
            return tree.under(sem, v["subj"]) and v["agr"] in (None, agr)

        kinds = [violation] + [k for k in VIOLATIONS if k != violation] if violation else []
        for kind in kinds:
            if kind == "agreement" and v["agr"] and self._nouns(
                    lambda a, s: tree.under(s, v["subj"]) and a != v["agr"]):
                break
            if kind == "subject" and self._nouns(
                    lambda a, s: not tree.under(s, v["subj"]) and v["agr"] in (None, a)):
                break
            if kind == "object" and ncomps and self._nouns(
                    lambda a, s: not tree.under(s, v["comps"][0])):
                break
            if kind == "attachment" and npp and len(self._preps_for(v)) < len(self.preps):
                break
            if kind == "missing" and ncomps:
                break
        else:
            kind = None

        if kind == "agreement":
            subj = pick(lambda a, s: tree.under(s, v["subj"]) and a != v["agr"])
        elif kind == "subject":
            subj = pick(lambda a, s: not tree.under(s, v["subj"]) and v["agr"] in (None, a))
        else:
            subj = pick(fits_subj)
        objs = [pick(lambda a, s, r=r: tree.under(s, r)) for r in v["comps"]]
        if kind == "object":
            objs[0] = pick(lambda a, s: not tree.under(s, v["comps"][0]))
        if kind == "missing":
            objs.pop()
        pps = []
        for k in range(npp):
            pool = self._preps_for(v)
            if kind == "attachment" and k == npp - 1:
                pool = [p for p in self.preps if p not in pool]
            prep = rng.choice(pool)
            pps += [prep, pick(lambda a, s, r=self.preps[prep]["obj"]: tree.under(s, r))]
        words = [subj, verb] + objs + pps
        if kind is not None:
            return words, None
        agr = v["agr"] or self.nouns[subj][0]
        return words, f"sign({agr}, s, nil, {tree.readout(v['sem'])}, nil)"

    def _preps_for(self, v):
        return [p for p, info in self.preps.items() if self.tree.under(v["sem"], info["mod"])]


# -- unify-pairs -------------------------------------------------------------------

UNIFY_HIERARCHIES = 1500
UNIFY_PAIRS_PER_HIERARCHY = 2
UNIFY_TERM_NODES = 12
UNIFY_MAX_TYPES = 12


class UnifyPairs(Workload):
    """Random reentrant, cyclic term pairs with ~t leaves over random
    small hierarchies that may have appropriateness loops, from the
    generators in ``tests/oracle.py``.

    About 45% of the pairs unify.  Why: it runs the recursive unifier,
    VAR expansion and readout with no parser or rule code, so work on the
    unification engine shows here and work on the parser does not.  The cost of a pair varies widely (its
    standard deviation is about 1.3 times its mean), so a pass holds 3000
    pairs over 1500 hierarchies to keep the mean cost of an op nearly the
    same from seed to seed.
    """

    name = "unify-pairs"

    def __init__(self, seed, n_hierarchies=UNIFY_HIERARCHIES,
                 per_hierarchy=UNIFY_PAIRS_PER_HIERARCHY):
        rng = random.Random(f"unify-pairs:{seed}")
        self.texts = []
        self.ops = []
        self.expected = []
        parts = []
        for k in range(n_hierarchies):
            h, text = oracle.random_hierarchy(rng, max_types=UNIFY_MAX_TYPES, allow_loops=True)
            self.texts.append(text)
            parts.append(text)
            for _ in range(per_hierarchy):
                # random_pair mostly draws comparable roots and succeeds
                # about 58% of the time; independent terms about 37%
                if len(self.ops) % 3 == 0:
                    a, b = oracle.random_pair(rng, h, UNIFY_TERM_NODES)
                else:
                    a = oracle.random_term(rng, h, UNIFY_TERM_NODES)
                    b = oracle.random_term(rng, h, UNIFY_TERM_NODES)
                self.ops.append((k, a, b))
                self.expected.append(oracle.unify_terms(h, a, b))
                parts += [terms.print_term(a), terms.print_term(b)]
        self.digest = _digest(parts)

    def setup(self):
        self.hierarchies = [typesys.load_hierarchy(t) for t in self.texts]

    def reset(self):
        self.hierarchies = None

    def run(self, i):
        k, a, b = self.ops[i]
        m = machine.MachineState(self.hierarchies[k])
        pa = m.build_term(a)
        pb = m.build_term(b)
        if not m.unify(pa, pb):
            return None
        return m.extract(pa)

    def check(self, i, answer) -> bool:
        want = self.expected[i]
        if want is None or answer is None:
            return want is None and answer is None
        return terms.iso(answer, want)


WORKLOADS = {w.name: w for w in (ParseAmbig, ParseDeep, UnifyPairs)}
