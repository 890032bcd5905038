"""Symbolic coding over the six-letter alphabet A B L C M R.

The letters name the pieces of the real line cut by the critical frame of
the Newton map: A left of the free root, B between the root and the left
pole, L between the left pole and zero, C exactly zero, M between zero and
the right pole, R to the right of it.  Words come in three flavours:

* cycle words, written as a plain string ending in C, e.g. ``"RLRC"`` --
  the critical cycle read once, understood to repeat;
* convergent words ending in A, e.g. ``"RRA"`` -- the head is read once
  and the final A repeats forever;
* general itineraries carried by :class:`SymbolWord`, whose tail may be
  unresolved, an infinite run of A, or a periodic suffix of the head.

Most of the algebra works with the plain-string forms; ``SymbolWord`` is
the carrier the orbit coding returns and the CLI serializes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable

SYMBOLS = "ABLCMR"
RANK = {s: i for i, s in enumerate(SYMBOLS)}

# sign of the map's slope on each piece; C is the turning point itself
LAP_SIGN = {"A": 1, "B": -1, "L": -1, "M": 1, "R": 1, "C": 0}

# which letter can follow which, for the five interval letters
_FOLLOWERS = {
    "A": "A",
    "B": "A",
    "L": "MR",
    "M": "MR",
    "R": "ABLMR",
}

TAIL_UNRESOLVED = "unresolved"
TAIL_A_INF = "a-inf"
TAIL_PERIODIC = "periodic"


class WordError(ValueError):
    """Malformed symbolic word."""


# ----------------------------------------------------------------------
# SymbolWord: head + tail classification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolWord:
    """A one-sided symbol sequence with an explicitly classified tail.

    ``head`` holds the symbols actually produced.  ``tail`` says how the
    sequence continues: TAIL_UNRESOLVED (nothing known past the head),
    TAIL_A_INF (the final symbol of the head is A and repeats forever), or
    TAIL_PERIODIC (the head from index ``start`` repeats forever).
    """

    head: str
    tail: str = TAIL_UNRESOLVED
    start: int = 0

    def __post_init__(self):
        for s in self.head:
            if s not in RANK:
                raise WordError(f"unknown symbol {s!r}")
        if self.tail == TAIL_A_INF:
            if not self.head or self.head[-1] != "A":
                raise WordError("an A-tail must follow a head ending in A")
        elif self.tail == TAIL_PERIODIC:
            if not (0 <= self.start < len(self.head)):
                raise WordError("periodic start index out of range")
        elif self.tail != TAIL_UNRESOLVED:
            raise WordError(f"unknown tail kind {self.tail!r}")

    # -- queries -------------------------------------------------------
    @property
    def period(self) -> int | None:
        if self.tail == TAIL_PERIODIC:
            return len(self.head) - self.start
        return None

    def is_infinite(self) -> bool:
        return self.tail != TAIL_UNRESOLVED

    def symbol_at(self, i: int) -> str | None:
        """Symbol at position i, or None when past an unresolved head."""
        if i < len(self.head):
            return self.head[i]
        if self.tail == TAIL_A_INF:
            return "A"
        if self.tail == TAIL_PERIODIC:
            p = len(self.head) - self.start
            return self.head[self.start + (i - self.start) % p]
        return None

    def shift(self, n: int = 1) -> "SymbolWord":
        """Drop the first n symbols (the shift map applied n times)."""
        if n < 0:
            raise ValueError("cannot shift backwards")
        if n == 0:
            return self
        if self.tail == TAIL_PERIODIC:
            p = len(self.head) - self.start
            if n <= self.start:
                return SymbolWord(self.head[n:], TAIL_PERIODIC, self.start - n)
            # rotate inside the periodic block
            r = (n - self.start) % p
            block = self.head[self.start:]
            return SymbolWord(block[r:] + block[:r], TAIL_PERIODIC, 0)
        if self.tail == TAIL_A_INF:
            if n < len(self.head):
                h = self.head[n:]
                return SymbolWord(h, TAIL_A_INF if h[-1] == "A" else TAIL_UNRESOLVED)
            return SymbolWord("A", TAIL_A_INF)
        return SymbolWord(self.head[n:], TAIL_UNRESOLVED)

    # -- serialization ---------------------------------------------------
    def __str__(self) -> str:
        if self.tail == TAIL_A_INF:
            return self.head + "^inf"
        if self.tail == TAIL_PERIODIC:
            return f"{self.head[:self.start]}({self.head[self.start:]})^"
        return self.head

    @classmethod
    def parse(cls, text: str) -> "SymbolWord":
        text = text.strip()
        if text.endswith("^inf"):
            return cls(text[:-4], TAIL_A_INF)
        if text.endswith(")^"):
            open_at = text.index("(")
            head = text[:open_at] + text[open_at:-2].lstrip("(")
            block = text[open_at + 1:-2]
            if not block:
                raise WordError(f"empty periodic block in {text!r}")
            return cls(head, TAIL_PERIODIC, open_at)
        if "(" in text or ")" in text or "^" in text:
            raise WordError(f"malformed word {text!r}")
        return cls(text, TAIL_UNRESOLVED)


# ----------------------------------------------------------------------
# plain-string cycle/convergent words and the infinite-view helper
# ----------------------------------------------------------------------

def _as_stream(w) -> tuple[Callable[[int], str], int | None]:
    """Uniform infinite view of a word.

    Accepts a SymbolWord with a resolved tail, a C-ending cycle string, or
    an A-ending convergent string.  Returns (symbol_at, period) where period
    is None for non-periodic words.
    """
    if isinstance(w, SymbolWord):
        if not w.is_infinite():
            raise WordError(f"{w} has an unresolved tail")
        return w.symbol_at, w.period
    if not isinstance(w, str) or not w:
        raise WordError(f"not a word: {w!r}")
    if "^" in w or "(" in w:
        return _as_stream(SymbolWord.parse(w))
    if w.endswith("C"):
        k = len(w)
        return (lambda i: w[i % k]), k
    return (lambda i: w[i] if i < len(w) else "A"), None


# ----------------------------------------------------------------------
# order and admissibility
# ----------------------------------------------------------------------

def order_compare(a, b, horizon: int = 256) -> int:
    """Signed lexicographic comparison; returns -1, 0, +1.

    Symbols are ranked A < B < L < C < M < R; the comparison at the first
    index where the words differ is reversed when the number of
    orientation-reversing letters (B or L) seen before that index is odd.
    Words that agree to ``horizon`` compare equal.
    """
    fa, pa = _as_stream(a)
    fb, pb = _as_stream(b)
    if pa is not None and pb is not None:
        horizon = min(horizon, pa * pb + max(pa, pb))
    flips = 0
    for i in range(horizon):
        x, y = fa(i), fb(i)
        if x != y:
            cmp = 1 if RANK[x] > RANK[y] else -1
            return cmp if flips % 2 == 0 else -cmp
        if x in ("B", "L"):
            flips += 1
    return 0


def transition_allowed(a: str, b: str) -> bool:
    """May symbol b directly follow symbol a along an orbit?"""
    if a not in RANK or b not in RANK:
        raise WordError(f"unknown symbols {a!r}, {b!r}")
    if a == "C":
        return b in "MR"
    if b == "C":
        return a == "R"
    return b in _FOLLOWERS[a]


def _shifted(word: str, i: int) -> str:
    """String form of the i-fold shift of a cycle or convergent word."""
    if word.endswith("C"):
        i %= len(word)
        return word[i:] + word[:i]
    if i >= len(word):
        return "A"
    return word[i:]


def is_admissible(w) -> bool:
    """Can this word occur as the kneading sequence of the critical point?

    Accepts cycle words (``...C``), convergent words (``...A``), or a
    SymbolWord with a resolved tail.  Checks the transition rules, the
    requirement that the sequence start on the positive side (M or R),
    and the shift-dominance condition: after every orientation-reversing
    passage the remaining sequence must not fall below the whole word.
    """
    if isinstance(w, SymbolWord):
        if w.tail == TAIL_A_INF:
            w = w.head
        elif w.tail == TAIL_PERIODIC and w.start == 0:
            block = w.head
            if block == "C":
                return False
            if block.count("C") == 1 and block.endswith("C"):
                w = block
            elif "C" in block:
                return False
            else:
                # periodic block without C: admissible iff the rotation
                # ending where the block starts... not a kneading cycle;
                # fall through to the generic checks on the block word
                return _admissible_periodic_block(block)
        else:
            return False
    if not isinstance(w, str) or not w:
        return False
    if "C" in w[:-1]:
        return False
    if w[0] not in "MR":
        return False
    periodic = w.endswith("C")
    k = len(w)
    span = k if periodic else k - 1
    for i in range(span):
        a, b = w[i], w[(i + 1) % k]
        if not transition_allowed(a, b):
            return False
    if periodic:
        if "A" in w or "B" in w:
            return False
    else:
        if not w.endswith("A"):
            return False
        j = w.index("A")
        if any(s != "A" for s in w[j:]):
            return False
    for i in range(k if periodic else len(w)):
        s = w[i % k] if periodic else w[i]
        if s in ("L", "M"):
            if order_compare(_shifted(w, i + 1), w) < 0:
                return False
    return True


def _admissible_periodic_block(block: str) -> bool:
    """Periodic words with no C (boundary cycles such as M repeating)."""
    if block[0] not in "MR":
        return False
    k = len(block)
    for i in range(k):
        if not transition_allowed(block[i], block[(i + 1) % k]):
            return False
    word = SymbolWord(block, TAIL_PERIODIC, 0)
    for i in range(k):
        if block[i] in ("L", "M"):
            if order_compare(word.shift(i + 1), word) < 0:
                return False
    return True


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def _admissible_words(k: int, close: str) -> list[str]:
    """Admissible words of length k ending in ``close`` (C or A), sorted.

    Candidates are the walks on the transition graph over L, M, R that
    start on the positive side and end in R, the only interior letter
    that may precede C or A, generated in the lexicographic order of their
    letters so that words ``order_compare`` cannot tell apart keep it.
    ``is_admissible`` then checks shift dominance.
    """
    walks = [""]
    for _ in range(k - 1):
        walks = [w + s for w in walks
                 for s in (_FOLLOWERS[w[-1]] if w else "MR") if s in "LMR"]
    out = [w + close for w in walks
           if w.endswith("R") and is_admissible(w + close)]
    out.sort(key=functools.cmp_to_key(order_compare))
    return out


def admissible_cycles(k: int) -> list[str]:
    """All admissible cycle words of length k, sorted by order_compare."""
    return _admissible_words(k, "C")


def admissible_convergents(k: int) -> list[str]:
    """All admissible convergent words of length k, sorted by order.

    These are cycle interiors closed by A; words absorbed through B or a
    longer A run, such as RBA, pass ``is_admissible`` but are not listed."""
    return _admissible_words(k, "A")


# ----------------------------------------------------------------------
# the word tree
# ----------------------------------------------------------------------

@dataclass
class TreeNode:
    """One node of the kneading-word tree.

    kind is "cycle" for C-ending words and "convergent" for A-ending ones.
    ``parent`` names the nearest admissible ancestor under the structural
    parsing of the word (None for the root) and ``edge`` the symbol chain
    that connects them; chains longer than one letter pass through
    formally-valid but non-admissible intermediate words.
    """

    word: str
    level: int
    kind: str
    parent: str | None = None
    edge: str = ""
    children: list[str] = field(default_factory=list)


def parse_parent(word: str) -> tuple[str, str] | None:
    """Structural parent of a cycle word under the suffix parsing.

    Every interior over {L, M, R} that can close into a cycle ends in R,
    and the two letters before the closing C decide the unique edge:
    ``...RRC`` shortens to ``...RC``, ``...MRC`` replaces the M, and
    ``...LRC`` drops both.  Returns (parent_word, edge_label), or None for
    the root ``RC``.
    """
    if not word.endswith("C") or len(word) < 2:
        raise WordError(f"not a cycle word: {word!r}")
    u = word[:-1]
    if u == "R":
        return None
    if len(u) >= 2 and u.endswith("R"):
        if u[-2] == "R":
            return u[:-1] + "C", "R"
        if u[-2] == "M":
            return u[:-2] + "RC", "M"
        if u[-2] == "L":
            return u[:-2] + "C", "L"
    raise WordError(f"cycle word with unexpected suffix: {word!r}")


def generate_tree(max_level: int) -> dict[int, list[TreeNode]]:
    """Admissible words by level with their tree structure.

    Level k holds every admissible cycle word and convergent word of
    length k, each level sorted by order_compare.  Cycle nodes point to
    their structural parent (chaining through non-admissible intermediates
    when necessary); convergent nodes hang off the cycle word with the
    same interior.
    """
    if max_level < 2:
        raise ValueError("max_level must be at least 2")
    levels: dict[int, list[TreeNode]] = {}
    nodes: dict[str, TreeNode] = {}
    for k in range(2, max_level + 1):
        bucket: list[TreeNode] = []
        entries = ([(w, "cycle") for w in admissible_cycles(k)]
                   + [(w, "convergent") for w in admissible_convergents(k)])
        entries.sort(key=functools.cmp_to_key(lambda a, b: order_compare(a[0], b[0])))
        for w, kind in entries:
            if kind == "cycle":
                parent, edge = _nearest_admissible_ancestor(w)
            else:
                cycle = w[:-1] + "C"
                if is_admissible(cycle):
                    parent, edge = cycle, "A"
                else:
                    parent, edge = _nearest_admissible_ancestor(cycle)
                    edge = edge + "A"
            node = TreeNode(w, k, kind, parent, edge)
            bucket.append(node)
            nodes[w] = node
            if parent is not None and parent in nodes:
                nodes[parent].children.append(w)
        levels[k] = bucket
    return levels


def _nearest_admissible_ancestor(word: str) -> tuple[str | None, str]:
    """Walk parse_parent upward until an admissible word is reached.

    Returns (None, "") for the root.  The edge string is read top-down,
    one label per parsing step, so a chain through a non-admissible
    intermediate shows up as a multi-letter edge.
    """
    up = parse_parent(word)
    if up is None:
        return None, ""
    parent, edge = up
    while not is_admissible(parent):
        parent, label = parse_parent(parent)
        edge = label + edge
    return parent, edge
