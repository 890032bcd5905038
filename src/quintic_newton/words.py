"""Symbolic coding over the six-letter alphabet A B L C M R.

The letters name the pieces of the real line cut by the critical frame of
the Newton map: A left of the free root, B between the root and the left
pole, L between the left pole and zero, C exactly zero, M between zero and
the right pole, R to the right of it.

A word is a :class:`SymbolWord`: a head of symbols and a tail saying how
the sequence goes on, unresolved, an infinite run of A, or a periodic
suffix of the head.  The order, admissibility, the kneading algebra and
the locator read every word argument through :func:`as_word`, which
accepts four forms:

* a ``SymbolWord``, as it is;
* its printed form, ``"RRA^inf"`` or ``"M(RRC)^"``;
* a cycle word, a plain string ending in C such as ``"RLRC"`` -- the
  critical cycle read once, repeating from its first letter;
* a convergent word, a plain string ending in A such as ``"RRA"`` -- the
  head read once, then A forever;

and reads any other string as an unresolved head.  The enumeration and
the tree hand out cycle and convergent words as plain strings.  The tree's
suffix edits read their argument once the same way and then recurse on
plain head strings.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

SYMBOLS = "ABLCMR"
RANK = {s: i for i, s in enumerate(SYMBOLS)}
_SYMBOL_SET = frozenset(SYMBOLS)

# sign of the map's slope on each piece; C is the turning point itself
LAP_SIGN = {"A": 1, "B": -1, "L": -1, "M": 1, "R": 1, "C": 0}

# which letter can follow which along an orbit
_FOLLOWERS = {
    "A": "A",
    "B": "A",
    "L": "MR",
    "C": "MR",
    "M": "MR",
    "R": "ABLMRC",
}
# the letters of an admissible word, apart from a closing C or A
_INTERIOR = frozenset("LMR")

TAIL_UNRESOLVED = "unresolved"
TAIL_A_INF = "a-inf"
TAIL_PERIODIC = "periodic"


class WordError(ValueError):
    """Malformed symbolic word."""


# ----------------------------------------------------------------------
# SymbolWord: head + tail classification
# ----------------------------------------------------------------------

# the fields of a SymbolWord, which checks them as it is built
class _Word(NamedTuple):
    head: str
    tail: str
    start: int


class SymbolWord(_Word):
    """A one-sided symbol sequence with an explicitly classified tail.

    ``head`` holds the symbols actually produced.  ``tail`` says how the
    sequence continues: TAIL_UNRESOLVED (nothing known past the head),
    TAIL_A_INF (the final symbol of the head is A and repeats forever), or
    TAIL_PERIODIC (the head from index ``start`` repeats forever).
    """

    __slots__ = ()

    def __new__(cls, head: str, tail: str = TAIL_UNRESOLVED, start: int = 0):
        if not _SYMBOL_SET.issuperset(head):
            bad = "".join(sorted(set(head) - _SYMBOL_SET))
            raise WordError(f"unknown symbols {bad!r} in {head!r}")
        if tail == TAIL_A_INF:
            if not head or head[-1] != "A":
                raise WordError("an A-tail must follow a head ending in A")
        elif tail == TAIL_PERIODIC:
            if not (0 <= start < len(head)):
                raise WordError("periodic start index out of range")
        elif tail != TAIL_UNRESOLVED:
            raise WordError(f"unknown tail kind {tail!r}")
        return tuple.__new__(cls, (head, tail, start))

    @classmethod
    def _make(cls, iterable) -> "SymbolWord":
        """Build through the checks; the inherited ``_replace`` calls this."""
        return cls(*iterable)

    # -- queries -------------------------------------------------------
    @property
    def period(self) -> int | None:
        if self.tail == TAIL_PERIODIC:
            return len(self.head) - self.start
        return None

    def is_cycle(self) -> bool:
        """Periodic from index 0 with its only C at the end: a critical
        orbit that closes up."""
        return (self.tail == TAIL_PERIODIC and self.start == 0
                and self.head.find("C") == len(self.head) - 1)

    def prefix(self, n: int) -> str:
        """The first n symbols, or all of an unresolved head shorter than n."""
        head = self.head
        if n <= len(head) or self.tail == TAIL_UNRESOLVED:
            return head[:n]
        if self.tail == TAIL_A_INF:
            return head + "A" * (n - len(head))
        block = head[self.start:]
        return (head + block * ((n - len(head)) // len(block) + 1))[:n]

    # -- serialization ---------------------------------------------------
    def __str__(self) -> str:
        if self.tail == TAIL_A_INF:
            return self.head + "^inf"
        if self.tail == TAIL_PERIODIC:
            return f"{self.head[:self.start]}({self.head[self.start:]})^"
        return self.head

    @classmethod
    def parse(cls, text: str) -> "SymbolWord":
        if text.endswith("^inf"):
            return cls(text[:-4], TAIL_A_INF)
        if text.endswith(")^"):
            open_at = text.find("(")
            if open_at < 0:
                raise WordError(f"no '(' before ')^' in {text!r}")
            block = text[open_at + 1:-2]
            if not block:
                raise WordError(f"empty periodic block in {text!r}")
            return cls(text[:open_at] + block, TAIL_PERIODIC, open_at)
        if "(" in text or ")" in text or "^" in text:
            raise WordError(f"malformed word {text!r}")
        return cls(text, TAIL_UNRESOLVED)


def as_word(w) -> SymbolWord:
    """Read a word argument in any of the forms the module docstring lists."""
    if isinstance(w, SymbolWord):
        return w
    if not isinstance(w, str) or not w:
        raise WordError(f"not a word: {w!r}")
    if w.endswith("C"):
        return SymbolWord(w, TAIL_PERIODIC, 0)
    if w.endswith("A"):
        return SymbolWord(w, TAIL_A_INF)
    return SymbolWord.parse(w)


# ----------------------------------------------------------------------
# order and admissibility
# ----------------------------------------------------------------------

# words that agree this far compare equal
ORDER_HORIZON = 256


def order_compare(a, b) -> int:
    """Signed lexicographic comparison; returns -1, 0, +1.

    Symbols are ranked A < B < L < C < M < R; the comparison at the first
    index where the words differ is reversed when the number of
    orientation-reversing letters (B or L) seen before that index is odd.
    Words that agree to ORDER_HORIZON, or to the end of an unresolved head,
    compare equal.  The prefixes compared double in length from the longer
    head, so words that differ early are told apart cheaply.
    """
    a, b = as_word(a), as_word(b)
    n = min(ORDER_HORIZON, max(1, len(a.head), len(b.head)))
    while True:
        x, y = a.prefix(n), b.prefix(n)
        cmp = _signed_compare(x, y)
        if cmp or n >= ORDER_HORIZON or min(len(x), len(y)) < n:
            return cmp
        n = min(ORDER_HORIZON, 2 * n)


def _signed_compare(x: str, y: str) -> int:
    """The signed order on two symbol strings, read over their common
    length; 0 when one is a prefix of the other."""
    for i, (s, r) in enumerate(zip(x, y)):
        if s != r:
            cmp = 1 if RANK[s] > RANK[r] else -1
            return -cmp if (x.count("B", 0, i) + x.count("L", 0, i)) % 2 else cmp
    return 0


_by_order = functools.cmp_to_key(order_compare)


def transition_allowed(a: str, b: str) -> bool:
    """May symbol b directly follow symbol a along an orbit?"""
    if a not in RANK or b not in RANK:
        raise WordError(f"unknown symbols {a!r}, {b!r}")
    return b in _FOLLOWERS[a]


def is_admissible(w) -> bool:
    """Can this word occur as the kneading sequence of the critical point?

    Three kinds of word can: a cycle word, a convergent word (an interior
    over L, M, R closed by A forever), and a periodic block without C,
    such as M repeating at the edge of the band.  One check serves all
    three: the transition rules, read around the block for the periodic
    kinds; a first letter on the positive side (M or R); and shift
    dominance: after every passage through L or M the remaining sequence
    must not fall below the whole word.  Any other word is not admissible.
    Dominance is read off a prefix of 2n letters, n = len(head): a shift
    of any of the three agrees with the word forever once it agrees over n.
    """
    w = as_word(w)
    head = w.head
    if w.tail == TAIL_A_INF or w.is_cycle():
        interior = head[:-1]
    elif w.tail == TAIL_PERIODIC and w.start == 0:
        interior = head
    else:
        return False
    if not interior or not _INTERIOR.issuperset(interior) or head[0] not in "MR":
        return False
    around = head[0] if w.tail == TAIL_PERIODIC else ""
    if not all(map(transition_allowed, head, head[1:] + around)):
        return False
    n = len(head)
    seq = w.prefix(2 * n)
    for i, s in enumerate(head):
        if s in "LM" and _signed_compare(seq[i + 1:i + 1 + n], head) < 0:
            return False
    return True


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def _admissible_words(k: int, closes: str) -> list[str]:
    """Admissible words of length k ending in a letter of ``closes`` (C, A
    or both), sorted by order_compare.

    Candidates are the walks on the transition graph over L, M, R that
    start from C's row and whose last letter the table lets close with
    the given letter; ``is_admissible`` then checks shift dominance.  Two
    distinct words of one length differ within it, so no two compare equal.
    """
    walks = ["C"]
    for _ in range(k - 1):
        walks = [w + s for w in walks for s in _FOLLOWERS[w[-1]] if s in _INTERIOR]
    words = [as_word(w[1:] + close) for w in walks
             for close in closes if close in _FOLLOWERS[w[-1]]]
    return [w.head for w in sorted(filter(is_admissible, words), key=_by_order)]


def admissible_cycles(k: int) -> list[str]:
    """All admissible cycle words of length k, sorted by order_compare."""
    return _admissible_words(k, "C")


# ----------------------------------------------------------------------
# the word tree
# ----------------------------------------------------------------------

class TreeNode(NamedTuple):
    """One node of the kneading-word tree.

    kind is "cycle" for C-ending words and "convergent" for A-ending ones.
    ``parent`` names the nearest admissible ancestor under the structural
    parsing of the word (None for the root) and ``edge`` the symbol chain
    that connects them; chains longer than one letter pass through
    formally-valid but non-admissible intermediate words.
    """

    word: str
    kind: str
    parent: str | None = None
    edge: str = ""


def parse_parent(word: str) -> tuple[str, str] | None:
    """Structural parent of a cycle word, given as its plain string, under
    the suffix parsing.

    Every interior over {L, M, R} that can close into a cycle ends in R,
    and the two letters before the closing C decide the unique edge:
    ``...RRC`` shortens to ``...RC``, ``...MRC`` replaces the M, and
    ``...LRC`` drops both.  Returns (parent_word, edge_label), the parent
    as a plain cycle string, or None for the root ``RC``.
    """
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
    length k, each level sorted by order_compare.  One walk finds each
    node's nearest admissible ancestor, from a cycle's structural parent
    or along an A edge from a convergent's cycle word with the same
    interior, chaining through non-admissible intermediates if need be.
    """
    if max_level < 2:
        raise ValueError("max_level must be at least 2")
    levels: dict[int, list[TreeNode]] = {}
    # every admissible cycle word up to the current level: the parse
    # parents and a convergent's cycle are never longer
    cycles_so_far: set[str] = set()
    for k in range(2, max_level + 1):
        words = _admissible_words(k, "CA")
        cycles_so_far.update(w for w in words if w.endswith("C"))
        bucket: list[TreeNode] = []
        for w in words:
            if w.endswith("C"):
                kind, up = "cycle", parse_parent(w) or (None, "")
            else:
                kind, up = "convergent", (w[:-1] + "C", "A")
            bucket.append(TreeNode(w, kind, *_nearest_admissible(*up, cycles_so_far)))
        levels[k] = bucket
    return levels


def _nearest_admissible(word: str | None, edge: str,
                        admissible: set[str]) -> tuple[str | None, str]:
    """Walk parse_parent up from ``word``, itself included, to the first
    word in ``admissible``; None, the root's parent, stops the walk too.

    Returns that word and the edge string from it, read top-down, one
    label per parsing step and ending in ``edge``, so a chain through a
    non-admissible intermediate shows up as a multi-letter edge.
    """
    while word is not None and word not in admissible:
        word, label = parse_parent(word)
        edge = label + edge
    return word, edge
