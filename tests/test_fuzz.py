"""A seeded fuzz of the command line on token-level mutations of the
test grammars: each mutated file goes through ``tfsam check``,
``compile``, ``parse`` and ``unify``, which must answer or exit with a
documented code, never with a traceback."""

import random
from collections import Counter

import oracle
from tfsam.cli import main
from test_cli import PARSE_GRAMMARS, PARSE_SENTENCES

MUTATIONS = 300
MAX_ITEMS = "500"       # keeps a mutated grammar that feeds itself quick
GAPS = [" ", " ", " ", "\n", "\r\n", "\t", " % a comment\n"]
# tokens a mutation may insert, besides the grammar's own: the keywords,
# punctuation, a tag, and characters no token takes
INSERTS = ["rule", "lex", "start", "sub", "intro", "bot", "=>", ".", ",", "(", ")",
           "[", "]", ":", "#", "#1", "~", "%", "$", "=", "\x00"]


def mutate(rng, texts, count, pool, names):
    """*texts* after *count* deletions, insertions of a token of *pool*,
    swaps or renames (a name replaced by one of *names*, which keeps the
    syntax)."""
    texts = list(texts)
    for _ in range(count):
        op = rng.choice(["delete", "insert", "swap", "rename", "rename"])
        if op == "insert" or len(texts) < 2:
            texts.insert(rng.randint(0, len(texts)), rng.choice(pool))
        elif op == "delete":
            del texts[rng.randrange(len(texts))]
        elif op == "swap":
            i, j = rng.randrange(len(texts)), rng.randrange(len(texts))
            texts[i], texts[j] = texts[j], texts[i]
        else:
            at = [i for i, text in enumerate(texts) if text in names]
            if at:
                texts[rng.choice(at)] = rng.choice(names)
    return texts


def join(rng, texts):
    return "".join(text + rng.choice(GAPS) for text in texts)


def fuzz_runs(seed, n):
    """*n* mutated grammar texts, each with the four command lines to run
    on it; ``FILE`` stands for the path of the text.  ``unify`` reads
    terms after an arrow in the grammar, mutated too."""
    rng = random.Random(seed)
    for _ in range(n):
        name = rng.choice(sorted(PARSE_GRAMMARS))
        texts = [tok[1] for tok in oracle.tokenize(PARSE_GRAMMARS[name])[:-1]]
        names = sorted({text for text in texts if text[0].isalnum()})
        terms = [texts[i + 1:texts.index(".", i)] for i, text in enumerate(texts) if text == "=>"]
        left, right = (mutate(rng, rng.choice(terms), rng.randint(0, 1), INSERTS, names)
                       for _ in range(2))
        yield join(rng, mutate(rng, texts, rng.randint(1, 3), texts + INSERTS, names)), [
            ["check", "FILE"],
            ["compile", "FILE", "--disasm"],
            ["parse", "FILE", PARSE_SENTENCES[name], "--max-items", MAX_ITEMS],
            ["unify", "FILE", " ".join(left), " ".join(right)],
        ]


def test_mutated_grammars_exit_with_a_documented_code(tmp_path, capsys):
    path = tmp_path / "mutated.grammar"
    failures = []
    exits = Counter()
    for text, commands in fuzz_runs(29, MUTATIONS):
        path.write_text(text, encoding="utf-8")
        for argv in commands:
            argv = [str(path) if a == "FILE" else a for a in argv]
            try:
                code = main(argv)
            except Exception as e:      # what the fuzz looks for
                failures.append((argv, text, repr(e)))
                continue
            err = capsys.readouterr().err
            if code not in (0, 1, 2, 3) or "Traceback" in err:
                failures.append((argv, text, code, err))
            exits[argv[0], code] += 1
    assert not failures, failures[:3]
    # the mutations reach past the reader: every command succeeds on some
    # texts and rejects others
    for command in ("check", "compile", "parse", "unify"):
        assert exits[command, 0] >= 10 and exits[command, 1] >= 10, exits
