"""Reference implementations the tests trust, plus random input generators.

The unifier here is deliberately naive and shares nothing with the machine:
term graphs become vertex tables, unification is union-find over vertices
with children keyed by feature *name*, and type joins use a brute-force
least-upper-bound search over the subsumption relation.  Unexpanded
most-general leaves follow the same readout convention as the machine
(fully expanded, cut off with ~type at a repeated type on a branch), so
results from both sides are directly comparable with iso().

The eager machine is the one reference built on the machine: it checks
laziness, not unification, so it is the machine with every most general
structure expanded as soon as it is made.

The reference parser is a fixpoint over spans reached by brute force on
the same union-find, extended to several roots: a rule's roots share one
tag scope and each edge's head has its own.  It keeps terms, not copies
of heap cells, and compares edges with iso(), not by key.

Subsumption has two references.  ``start_compatible`` is the parser's
start filter as it was before the parser walked copies: it restores both
copies on a machine and accepts when unifying them reads back a head
isomorphic to the one read before.  It inherits the readout's cut under
appropriateness loops, so it is the reference on loop-free hierarchies
only.  ``subsumes_terms`` works on terms, type names and
``TypeHierarchy.subsumes``, and takes ``~t`` as the most general
structure of t, so it holds with loops as well.

The reference tokenizer matches blanks and comments with one pattern and
a token with another, and tells names from punctuation by the first
character.
"""

from __future__ import annotations

import re

from tfsam import machine, scan, terms, typesys

NAME = "name"
PUNCT = "punct"
END = "end"

_TOKEN_RE = re.compile(r"=>|\w+|[\[\](),:.#~]")
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)+")


def tokenize(text):
    """The tokens of *text* as (kind, text, line, col) tuples, ending with
    the END token; raises scan.SourceError on a character no token takes."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _SKIP_RE.match(text, pos)
        if m:
            skipped = m.group()
            line += skipped.count("\n")
            nl = skipped.rfind("\n")
            if nl >= 0:
                line_start = pos + nl + 1
            pos = m.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if not m:
            raise scan.SourceError(f"unexpected character {text[pos]!r}", line, col)
        kind = NAME if m.group()[0].isalnum() or m.group()[0] == "_" else PUNCT
        tokens.append((kind, m.group(), line, col))
        pos = m.end()
    tokens.append((END, "", line, n - line_start + 1))
    return tokens


def brute_lub(h, a, b):
    """Least upper bound by searching all common upper bounds."""
    uppers = [t for t in range(h.n_types)
              if h.subsumes(a, t) and h.subsumes(b, t)]
    for u in uppers:
        if all(h.subsumes(u, v) for v in uppers):
            return u
    return None


def unify_terms(h, a, b):
    """Unify two terms; returns the result term, or None on failure."""
    return unify_scopes(h, [[a], [b]], [(0, 1)], 0)


def _collect_defs(t, defs, seen):
    if isinstance(t, terms.BackRef) or id(t) in seen:
        return
    seen.add(id(t))
    if t.tag is not None:
        defs[t.tag] = t
    if isinstance(t, terms.Node):
        for a in t.args:
            _collect_defs(a, defs, seen)


def _readout(h, find, ctype, concrete, children, roots):
    """The terms at *roots*, read in one tag scope, so sharing across them
    is kept."""
    shared = []
    visited = set()

    def scout(c):
        if c in visited:
            if c not in shared:
                shared.append(c)
            return
        visited.add(c)
        if not concrete[c]:
            return
        for f in h.features(ctype[c]):
            if f in children[c]:
                scout(find(children[c][f]))

    for root in roots:
        scout(root)
    tags = {c: str(i + 1) for i, c in enumerate(shared)}
    built = {}

    def read(c):
        if c in built:
            return terms.BackRef(tags[c])
        if not concrete[c]:
            t = terms.most_general_term(h, ctype[c])
            t.tag = tags.get(c)
            built[c] = t
            return t
        node = terms.Node(h.tname(ctype[c]), [], tags.get(c))
        built[c] = node
        for f in h.features(ctype[c]):
            if f in children[c]:
                node.args.append(read(find(children[c][f])))
            else:
                node.args.append(terms.most_general_term(h, h.approp(ctype[c], f)))
        return node

    return [read(root) for root in roots]


class EagerMachine(machine.MachineState):
    """The machine with every most general structure built in full, the
    reference of acceptance criterion 8.  A most general structure is the
    term ``terms.most_general_term`` gives, built as query code, and a
    plan's result node has each introduced feature's VAR cell replaced by
    one.  Terms given with ~ leaves still build VAR cells."""

    def build_most_general_fs(self, t) -> int:
        tid = self.h.tid(t)
        top = len(self.heap)
        root = self.build_term(terms.most_general_term(self.h, tid))
        for c in self.heap[top:]:
            if c[0] is machine.VAR:
                raise machine.MachineError(
                    f"appropriateness loop at type {self.h.tname(c[1])}; "
                    f"eager expansion cannot terminate")
        return root

    def exec_plan(self, plan, addr, work):
        base = len(self.heap)
        pending = super().exec_plan(plan, addr, work)
        if len(self.heap) > base:      # the plan built a result node
            for a in range(base + 1, base + 1 + self.h.arities[plan.result]):
                c = self.heap[a]
                if c[0] is machine.VAR:
                    self._set(a, (machine.REF, self.build_most_general_fs(c[1])))
        return pending


def machine_unify(h, a, b, eager=False):
    """Unify two terms on a fresh machine, or on an ``EagerMachine``;
    result term or None."""
    m = (EagerMachine if eager else machine.MachineState)(h)
    pa = m.build_term(a)
    pb = m.build_term(b)
    if not m.unify(pa, pb):
        return None
    return m.extract(pa)


def canonical(h, t):
    """A term as the machine reads it back (most-general leaves expanded)."""
    m = machine.MachineState(h)
    return m.extract(m.build_term(t))


def unify_scopes(h, scopes, pairs, out):
    """Multi-rooted unify_terms.  *scopes* is a list of root lists; the
    roots of one list share a tag scope.  The roots are numbered in order
    across the lists, each of *pairs* names two roots to unify, and the
    result is the term at root *out*, or None on failure."""
    result = unify_scopes_roots(h, scopes, pairs, [out])
    return None if result is None else result[0]


def unify_scopes_roots(h, scopes, pairs, outs):
    """``unify_scopes``, reading the terms at each root of *outs* in one
    tag scope, so that sharing across them is kept; None on failure."""
    verts = []
    roots = [v for scope in scopes for v in _explode_scope(h, scope, verts)]
    concrete = [not v[0] for v in verts]
    ctype = [h.tid(v[1]) for v in verts]
    children = [v[2] for v in verts]
    parent = list(range(len(verts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(roots[x], roots[y]) for x, y in pairs]
    while work:
        x, y = work.pop()
        x, y = find(x), find(y)
        if x == y:
            continue
        t = brute_lub(h, ctype[x], ctype[y])
        if t is None:
            return None
        parent[y] = x
        ctype[x] = t
        concrete[x] = concrete[x] or concrete[y]
        for f, c in children[y].items():
            if f in children[x]:
                work.append((children[x][f], c))
            else:
                children[x][f] = c
        # raise each value to what type t allows for its feature: unify it
        # with a fresh most general vertex of that type
        for f, c in children[x].items():
            v = h.approp(t, f)
            c = find(c)
            if brute_lub(h, ctype[c], v) != ctype[c]:
                work.append((c, len(parent)))
                parent.append(len(parent))
                concrete.append(False)
                ctype.append(v)
                children.append({})
    return _readout(h, find, ctype, concrete, children, [find(roots[o]) for o in outs])


def _explode_scope(h, roots, verts):
    """Append the vertices of terms that share one tag scope to *verts*,
    each as (is_mg, type name, {feature: vid}); returns the vertex of
    each root."""
    defs = {}
    seen = set()
    for r in roots:
        _collect_defs(r, defs, seen)
    ids = {}

    def visit(t):
        if isinstance(t, terms.BackRef):
            return visit(defs[t.tag])
        if id(t) in ids:
            return ids[id(t)]
        vid = ids[id(t)] = len(verts)
        if isinstance(t, terms.MostGeneral):
            verts.append((True, t.type, {}))
            return vid
        row = (False, t.type, {})
        verts.append(row)
        for f, arg in zip(h.features(t.type), t.args):
            row[2][f] = visit(arg)
        return vid

    return [visit(r) for r in roots]


def reference_parse(g, words, max_edges=200):
    """The complete edges of *words* under grammar *g*, and the accepted
    heads, as ``ChartParser`` should find them; None once more than
    *max_edges* edges arise.

    The chart maps a span to its (label, head) pairs, distinct up to
    iso().  Each round tries every rule on every run of adjacent edges,
    unifying the rule's roots with the edges' heads from scratch, and the
    rounds stop when one adds nothing.  A head is accepted when the start
    term subsumes it (``subsumes_terms``)."""
    h = g.hierarchy
    n = len(words)
    chart = {}

    def add(span, label, head):
        edges = chart.setdefault(span, [])
        if any(l == label and terms.iso(x, head) for l, x in edges):
            return False
        edges.append((label, head))
        return True

    for i, w in enumerate(words):
        for (_, label), t in zip(g.code.lexicon[w], g.lexicon[w]):
            add((i, i + 1), label, unify_scopes(h, [[t]], [], 0))
    changed = True
    while changed:
        changed = False
        for info, rule in zip(g.code.rules, g.rules):
            body = len(rule.roots) - 1
            pairs = [(k, body + 1 + k) for k in range(body)]
            for i in range(n):
                for j, heads in list(_runs(chart, i, body)):
                    head = unify_scopes(h, [rule.roots] + [[x] for x in heads], pairs, body)
                    if head is not None and add((i, j), info.label, head):
                        changed = True
                        if sum(map(len, chart.values())) > max_edges:
                            return None
    accepted = [x for _, x in chart.get((0, n), []) if subsumes_terms(h, g.start, x)]
    return chart, accepted


def _runs(chart, i, m):
    """Each run of *m* adjacent edges from position *i*, as the position
    where it ends and the list of the edges' heads."""
    if m == 0:
        yield i, []
        return
    for (a, b), edges in list(chart.items()):
        if a == i:
            for _, x in edges:
                for j, rest in _runs(chart, b, m - 1):
                    yield j, [x] + rest


# -- subsumption ---------------------------------------------------------------

def start_compatible(m, start_copy, head_copy):
    """True when unifying the two copies, restored on machine *m*, gives
    back a head whose readout is isomorphic to the head's readout before
    the unification; the heap is rewound afterwards."""
    mark = m.checkpoint()
    try:
        a_start = m.build_snapshot(start_copy)[0]
        a_head = m.build_snapshot(head_copy)[0]
        head = m.extract(a_head)
        return m.unify(a_start, a_head) and terms.iso(m.extract(a_head), head)
    finally:
        m.undo(mark)


def subsumes_terms(h, general, specific):
    """True when the term *general* subsumes the term *specific*.

    Each node of *general* maps to one node of *specific*, its type
    subsumes that node's type and its values, found by feature name,
    subsume that node's values.  ``~t`` is the most general structure of
    t: on the general side it subsumes every well-typed node of a type t
    subsumes, and on the specific side each of its features holds a fresh
    ``~`` of the feature's appropriate value, shared with nothing."""
    gdefs, sdefs = {}, {}
    _collect_defs(general, gdefs, set())
    _collect_defs(specific, sdefs, set())

    def resolve(t, defs):
        return defs[t.tag] if isinstance(t, terms.BackRef) else t

    image = {}      # id(general node) -> (the node, its specific node)
    stack = [(general, specific)]
    while stack:
        g, s = stack.pop()
        g, s = resolve(g, gdefs), resolve(s, sdefs)
        if id(g) in image:
            if image[id(g)][1] is not s:
                return False
            continue
        image[id(g)] = (g, s)
        if not h.subsumes(g.type, s.type):
            return False
        if isinstance(g, terms.MostGeneral):
            continue
        if isinstance(s, terms.Node):
            values = dict(zip(h.features(s.type), s.args))
        else:
            values = {f: terms.MostGeneral(h.tname(h.approp(s.type, f)))
                      for f in h.features(s.type)}
        stack += [(arg, values[f]) for f, arg in zip(h.features(g.type), g.args)]
    return True


# -- random inputs ------------------------------------------------------------

def has_approp_loop(h) -> bool:
    state = [0] * h.n_types

    def dfs(t):
        if state[t] == 1:
            return True
        if state[t] == 2:
            return False
        state[t] = 1
        if any(dfs(v) for v in h.approp_list(t)):
            return True
        state[t] = 2
        return False

    return any(dfs(t) for t in range(h.n_types))


def random_hierarchy(rng, max_types=12, allow_loops=False):
    """A valid random hierarchy: a forest plus occasional diamonds, with
    fresh feature names so introducers stay unique.  Candidates that fail
    validation (or have appropriateness loops when those are not wanted)
    are resampled."""
    for _ in range(500):
        text = _random_spec(rng, max_types)
        try:
            h = typesys.load_hierarchy(text)
        except typesys.SpecError:
            continue
        if not allow_loops and has_approp_loop(h):
            continue
        return h, text
    raise RuntimeError("could not sample a valid hierarchy")


def _random_spec(rng, max_types):
    n = rng.randint(3, max_types - 1)
    names = [f"t{i}" for i in range(1, n + 1)]
    subs = {t: [] for t in ["bot"] + names}
    for i, name in enumerate(names):
        pool = ["bot"] + names[:i]
        chosen = {rng.choice(pool)}
        if i >= 2 and rng.random() < 0.3:
            chosen.add(rng.choice(pool))
        for p in chosen:
            subs[p].append(name)
    lines = []
    feature = 0
    for t in ["bot"] + names:
        line = f"{t} sub [{', '.join(subs[t])}]"
        if t != "bot":
            intro = []
            while rng.random() < 0.3 and len(intro) < 2:
                feature += 1
                intro.append(f"f{feature}: {rng.choice(['bot'] + names)}")
            if intro:
                line += f" intro [{', '.join(intro)}]"
        lines.append(line + ".")
    return "\n".join(lines)


def random_term(rng, h, max_nodes=8, allow_cycles=True, root_type=None):
    """A random totally well-typed term over *h*: reentrant, possibly
    cyclic, with ~type leaves where the node budget runs out."""
    nodes = []
    count = 0
    next_tag = [1]

    def pick_type(t_req):
        return rng.choice([u for u in range(h.n_types) if h.subsumes(t_req, u)])

    def reuse(t_req, path):
        pool = [nd for nd in nodes
                if h.subsumes(t_req, h.tid(nd.type))
                and (allow_cycles or id(nd) not in path)]
        if not pool:
            return None
        nd = rng.choice(pool)
        if nd.tag is None:
            nd.tag = str(next_tag[0])
            next_tag[0] += 1
        return terms.BackRef(nd.tag)

    def build(t_req, path):
        nonlocal count
        if nodes and (count >= max_nodes or rng.random() < 0.25):
            back = reuse(t_req, path)
            if back is not None:
                return back
        t = pick_type(t_req)
        if count >= max_nodes:
            return terms.MostGeneral(h.tname(t))
        count += 1
        node = terms.Node(h.tname(t), [])
        nodes.append(node)
        sub_path = path | {id(node)}
        for v in h.approp_list(t):
            node.args.append(build(v, sub_path))
        return node

    root = root_type if root_type is not None else rng.randrange(h.n_types)
    t = pick_type(root)
    count += 1
    node = terms.Node(h.tname(t), [])
    nodes.append(node)
    for v in h.approp_list(t):
        node.args.append(build(v, {id(node)}))
    return node


def random_pair(rng, h, max_nodes=8):
    """Two random terms; roots are usually comparable so that successful
    unifications are well represented."""
    a = random_term(rng, h, max_nodes)
    ra = h.tid(a.type)
    if rng.random() < 0.7:
        comparable = [t for t in range(h.n_types)
                      if h.subsumes(t, ra) or h.subsumes(ra, t)]
        b = random_term(rng, h, max_nodes, root_type=rng.choice(comparable))
    else:
        b = random_term(rng, h, max_nodes)
    return a, b


def random_grammar(rng, max_types=8, words=3, rules=3, allow_loops=False):
    """The text of a random grammar over a random hierarchy, loop-free
    unless *allow_loops*.  Words w0, w1, ... have one or two random
    lexical entries each, and a rule's one or two body elements and its
    head draw on one pool of nodes, so reentrancy spans the rule's
    elements and may close cycles.  Under a loop, some lexical entries
    are the most general structure ~t of a type t without one, which a
    rule's body element may hold structure below."""
    h, text = random_hierarchy(rng, max_types, allow_loops)
    lines = [text]
    for w in range(words):
        for _ in range(rng.randint(1, 2)):
            term = random_term(rng, h, 4)
            if allow_loops and rng.random() < 0.3 and _loop_free(h, term.type):
                term = terms.MostGeneral(term.type)
            lines.append(f"lex w{w} => {terms.print_term(term)}.")
    for _ in range(rules):
        roots = _random_roots(rng, h, rng.randint(2, 3))
        lines.append(f"rule {terms.print_mrs(terms.MRS(roots, is_rule=True))}.")
    start = terms.most_general_term(h, rng.randrange(h.n_types))
    lines.append(f"start => {terms.print_term(start)}.")
    return "\n".join(lines)


def _loop_free(h, t):
    """True when no appropriateness loop lies below type *t*, so its most
    general term holds no ~ leaf."""
    return "~" not in terms.print_term(terms.most_general_term(h, t))


def _random_roots(rng, h, n, max_nodes=5):
    """*n* random totally well-typed roots in one tag scope, with no ~
    leaf: past *max_nodes* nodes a value is a most general term, or,
    where an appropriateness loop lies below its type, a node of the
    pool (which closes a cycle), or a new node when the pool has none."""
    nodes = []

    def reuse(pool):
        nd = rng.choice(pool)
        nd.tag = nd.tag or str(nodes.index(nd) + 1)
        return terms.BackRef(nd.tag)

    def build(t_req):
        pool = [nd for nd in nodes if h.subsumes(t_req, h.tid(nd.type))]
        if pool and rng.random() < 0.3:
            return reuse(pool)
        t = rng.choice([u for u in range(h.n_types) if h.subsumes(t_req, u)])
        if len(nodes) >= max_nodes:
            if _loop_free(h, t):
                return terms.most_general_term(h, t)
            if pool:
                return reuse(pool)
        node = terms.Node(h.tname(t))
        nodes.append(node)
        node.args = [build(v) for v in h.approp_list(t)]
        return node

    return [build(typesys.BOT) for _ in range(n)]
