"""Rule-based parsing of task names into entity sets.

A word is a run of Unicode letters and digits, lowercased, whose runs may be
joined by interior apostrophes ("don't", "rock'n'roll", "café"). A small
self-contained tagger (closed-class word lists embedded here, an open-class
lexicon shipped as a data file, suffix fallbacks) tags each word, and a
chunker reads the grammar

    NP := (DET)? (ADJ)* (NOUN)+
    VP := VERB NP?

as one regular expression over the tags spelled as letters (D, A, N, V;
every other tag is a boundary the pattern never matches). Bare nouns,
noun-phrase chunks and verb-phrase chunks become entities whose keys are
normalized node keys (lowercase, underscore-joined). Determiners and
prepositions never enter keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

_WORD_RE = re.compile(r"[^\W_]+(?:'+[^\W_]+)*")

DETERMINERS = frozenset(
    "the a an this that these those some any each every no another".split()
)
PREPOSITIONS = frozenset(
    (
        "in on at to from with of for by into onto under over behind near off up "
        "down out about around through inside outside before after during between "
        "without within against along across beside above below"
    ).split()
)
PRONOUNS = frozenset(
    (
        "i you he she it we they me him her them us my your his its our their "
        "mine yours hers ours theirs myself yourself himself herself itself "
        "ourselves themselves"
    ).split()
)
# Conjunctions are chunk boundaries. They are a code-level closed class
# because the lexicon file format has no tag for them.
CONJUNCTIONS = frozenset("and or but then".split())


@dataclass(frozen=True)
class Entity:
    key: str
    kind: str  # "Noun" | "NounPhrase" | "VerbPhrase"


@dataclass(frozen=True)
class EntitySet:
    entities: tuple[Entity, ...]

    def keys(self):
        return [e.key for e in self.entities]

    def __iter__(self):
        return iter(self.entities)

    def __len__(self):
        return len(self.entities)


@lru_cache(maxsize=1)
def _lexicon():
    table = {}
    text = resources.files("nsplan.data").joinpath("lexicon.txt").read_text("utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, _, tag = line.partition("\t")
        table[word.strip()] = tag.strip()
    return table


def tag_word(word):
    """POS tag for one lowercase word: closed classes, then the lexicon,
    then an "-ing"/"-ed" suffix for verbs, then the noun default."""
    for tag, words in (("DET", DETERMINERS), ("PREP", PREPOSITIONS),
                       ("PRON", PRONOUNS), ("CONJ", CONJUNCTIONS)):
        if word in words:
            return tag
    return _lexicon().get(word) or ("VERB" if word.endswith(("ing", "ed")) else "NOUN")


def tokenize(text):
    """Lowercase words: runs of Unicode letters and digits, joined by
    interior apostrophes; the one tokenizer shared by entity parsing,
    hashed embeddings, selection and metrics."""
    return _WORD_RE.findall(text.lower())


def normalize_key(surface, graph=None):
    """Lowercase, strip punctuation, collapse whitespace to underscores.

    When ``graph`` is given and the normalized key is absent from it, a
    single trailing "s" is stripped and the stripped form is used only if
    the graph contains it.
    """
    words = tokenize(surface.replace("_", " ").replace("'", ""))
    key = "_".join(words)
    if graph is not None and key and key not in graph and key.endswith("s"):
        stripped = key[:-1]
        if stripped in graph:
            return stripped
    return key


# One letter per chunked tag; any other tag is a boundary. A match is a
# verb with its optional object noun phrase, or a bare noun phrase; the
# noun-phrase groups hold its content (adjectives and nouns, no determiner).
_TAG_LETTERS = {"DET": "D", "ADJ": "A", "NOUN": "N", "VERB": "V"}
_CHUNK = re.compile(r"(?P<verb>V)(?:D?(?P<object>A*N+))?|D?(?P<noun>A*N+)")


def parse_entities(task_text, graph=None):
    """Parse a task name into its ordered, deduplicated entity set.

    Single-noun chunks yield Noun entities; multi-word chunks yield
    NounPhrase entities; a verb plus its following noun phrase yields a
    VerbPhrase entity (the inner phrase is emitted as well). Entities are
    ordered by the position of their first content token; on duplicate keys
    the first occurrence wins. ``graph`` makes key normalization graph
    aware (see normalize_key).
    """
    tokens = tokenize(task_text)
    tags = "".join(_TAG_LETTERS.get(tag_word(w), " ") for w in tokens)
    found = []  # (surface, kind), in first-token order
    for m in _CHUNK.finditer(tags):
        start, end = m.span("object" if m["verb"] else "noun")
        phrase = tokens[start:end]  # empty for a verb without object: span (-1, -1)
        if m["verb"]:
            found.append((" ".join([tokens[m.start()], *phrase]), "VerbPhrase"))
        if phrase:
            found.append((" ".join(phrase), "Noun" if len(phrase) == 1 else "NounPhrase"))

    entities, seen = [], set()
    for surface, kind in found:
        key = normalize_key(surface, graph=graph)
        if key and key not in seen:
            seen.add(key)
            entities.append(Entity(key=key, kind=kind))
    return EntitySet(entities=tuple(entities))
