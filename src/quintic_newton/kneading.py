"""Kneading increments, determinants, and the cycle-polynomial tree.

Each of the four marked points of the critical frame (free root, left pole,
zero, right pole) has one-sided symbolic futures; the weighted difference of
their invariant coordinates is a row over the five interval symbols, held
as integer polynomial numerators over one factor (1 - t^q) per row.
Deleting one column of the resulting 4 x 5 matrix, taking the determinant
of the numerators and dividing by the row factors and by (1 - eps*t) gives
a determinant D(t) that does not depend on the deleted column.  Only the
zero's row depends on the word, so D is taken as the expansion along that
row: the other three rows give each struck column's cofactors once, at
import, with the (1 - t^m) factors they share cancelled against the
denominator in advance.  ``kneading_determinant`` hands D out as a plain
pair: its integer numerator and the sorted exponents m of its (1 - t^m)
factors.  For a critical cycle of length k the combination

    P(t) = D(t) * (1 - t)^2 * (1 - t^k)

is an integer polynomial with a rigid shape: 1 - t, middle coefficients in
{-2, 0, 2}, and a tail -delta*(t^k + t^(k+1)) whose sign delta flips with
the parity of L's in the word.  The same combination without the cycle
factor handles convergent words.  ``cycle_polynomial`` rebuilds P by a
suffix recursion instead of the determinant, one ``tree_polynomial_step``
from the parent's polynomial along an R, M or L edge per word, and
``convergent_polynomial`` steps along the A edge.  ``build_polynomial_tree``
keeps the polynomials it has built in a dict that lives for that one call,
so each word, the non-admissible intermediates included, costs one step;
it cross-checks every node against the determinant and refuses to hand
out a tree where the two routes disagree.  ``kneading_numerator`` reads
the same numerator straight off the word as one integer series; every
entropy route uses it, and the determinant is kept as the oracle it is
tested against.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from .polynomials import IntPolynomial
from .words import (
    LAP_SIGN,
    SymbolWord,
    TAIL_A_INF,
    TAIL_PERIODIC,
    TAIL_UNRESOLVED,
    WordError,
    as_word,
    generate_tree,
    parse_parent,
)

# increment components; C never shows up in an increment
ALPHABET = "ABLMR"
_IDX = {s: i for i, s in enumerate(ALPHABET)}

# slope sign of the map on each branch, in ALPHABET order
COLUMN_SIGNS = (1, -1, -1, 1, 1)


class StructureError(ValueError):
    """A polynomial failed the rigid shape the recursion relies on."""


# ----------------------------------------------------------------------
# rows of the increment matrix: integer numerators over one (1 - t^q)
# ----------------------------------------------------------------------

def invariant_coordinate(w) -> tuple[Sequence[IntPolynomial], int]:
    """theta(w) = sum over positions of (running slope sign) * symbol * t^m.

    The word must have a resolved tail and contain no C: the coordinate is
    defined for orbits of ordinary points, and the closed forms for the two
    tail kinds are geometric series in t.  Returns ``(numerators, q)``, one
    integer numerator per symbol of ALPHABET over the common factor
    (1 - t^q).  A periodic block of length p and slope sign sigma sums to
    1/(1 - sigma*t^p), written over (1 - t^p) or, for sigma = -1, over
    (1 - t^2p); an A-tail is the block A repeating, over (1 - t).
    """
    w = as_word(w)
    if "C" in w.head:
        raise WordError("C has no invariant coordinate; use the cycle forms")
    if w.tail == TAIL_A_INF:
        start = len(w.head) - 1
    elif w.tail == TAIL_PERIODIC:
        start = w.start
    else:
        raise WordError(f"cannot form the coordinate of an unresolved word {w}")
    p = len(w.head) - start
    sigma = 1
    for s in w.head[start:]:
        sigma *= LAP_SIGN[s]
    q = p if sigma > 0 else 2 * p
    rows = [[0] * (start + q) for _ in ALPHABET]
    eps = 1
    for m, s in enumerate(w.head):
        row = rows[_IDX[s]]
        row[m] += eps
        if m < start:
            row[m + q] -= eps        # a head term, times (1 - t^q)
        elif sigma < 0:
            row[m + p] -= eps        # a block term, times (1 - t^p)
        eps *= LAP_SIGN[s]
    return [IntPolynomial._trusted(r) for r in rows], q


# The increments at the free root and the two poles, over (1 - t).  Their
# one-sided futures do not depend on the parameter inside the no-root band:
# the root side falls to an infinite A run, pole sides escape to the far
# right and then run down the R branch.
_UNIVERSAL_ROWS = {
    i: tuple(map(IntPolynomial, row)) for i, row in (
        # -(1+t)/(1-t) A + B
        (0, ((-1, -1), (1, -1), (), (), ())),
        # t/(1-t) A - B + L - t/(1-t) R
        (1, ((0, 1), (-1, 1), (1, -1), (), (0, -1))),
        # t/(1-t) A - M + (1 - t/(1-t)) R
        (3, ((0, 1), (), (), (-1, 1), (1, -2))),
    )
}


def _critical_side_streams(word) -> tuple[SymbolWord, SymbolWord]:
    """One-sided symbol streams of the zero point for a kneading word.

    For a cycle word the recurrence of zero resolves to M or L according to
    the product of slope signs over the interior (the two sides then agree
    from that point on); for other resolved words the two streams differ
    only in the leading symbol.
    """
    word = as_word(word)
    head = word.head
    if word.is_cycle():
        interior = head[:-1]
        sign = 1
        for s in interior:
            sign *= LAP_SIGN[s]
        x = "M" if sign > 0 else "L"
        k = len(head)
        return (SymbolWord("M" + interior + x + interior, TAIL_PERIODIC, k),
                SymbolWord("L" + interior + x + interior, TAIL_PERIODIC, k))
    if "C" in head or word.tail == TAIL_UNRESOLVED:
        raise WordError(f"cannot take side streams of {word}")
    start = word.start + 1 if word.tail == TAIL_PERIODIC else 0
    return (SymbolWord("M" + head, word.tail, start),
            SymbolWord("L" + head, word.tail, start))


def kneading_increment(word) -> tuple[Sequence[IntPolynomial], int]:
    """nu_2, the increment at the zero, as ``(numerators, q)`` like
    ``invariant_coordinate``: the difference of the coordinates of its two
    side streams.  It is the one row that depends on the kneading word."""
    # the two streams share their periodic block, hence their q
    (plus, q), (minus, _) = map(invariant_coordinate,
                                _critical_side_streams(word))
    return [a - b for a, b in zip(plus, minus)], q


# ----------------------------------------------------------------------
# determinant
# ----------------------------------------------------------------------

def _det(rows: list[Sequence[IntPolynomial]]) -> IntPolynomial:
    if len(rows) == 1:
        return rows[0][0]
    acc = IntPolynomial()
    for j, a in enumerate(rows[0]):
        if a.is_zero():
            continue
        term = a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


# the 3 x 3 minors of the three universal rows, by the columns they keep
_MINORS = {cols: _det([[_UNIVERSAL_ROWS[i][c] for c in cols] for i in (0, 1, 3)])
           for cols in itertools.combinations(range(len(ALPHABET)), 3)}


def _signed_cofactors(j: int) -> list[IntPolynomial]:
    """The cofactors of the zero row, nu_2, in the increment matrix with
    column j struck out, one per column of ALPHABET (zero at j).  Only the
    three universal rows enter them, so they do not depend on the word."""
    out = [IntPolynomial()] * len(ALPHABET)
    cols = [c for c in range(len(ALPHABET)) if c != j]
    for p, c in enumerate(cols):
        minor = _MINORS[tuple(d for d in cols if d != c)]
        out[c] = minor if p % 2 == 0 else -minor
    return out


def _column_oracle(j: int) -> tuple[tuple[IntPolynomial, ...], tuple[int, ...]]:
    """D's cofactors for struck column j and the denominator exponents that
    stay once the (1 - t^m) factors all the cofactors share are cancelled.

    The struck column contributes its sign (-1)^j and the division by
    (1 - eps*t), written as (1 - t) or, for eps = -1, as (1 - t) / (1 - t^2);
    the universal rows contribute (1 - t)^3.  nu_2's own row factor
    (1 - t^q) belongs to the word and is added per call."""
    cofactors = _signed_cofactors(j)
    factors = [1, 1, 1]
    if j % 2 == 1:
        cofactors = [-k for k in cofactors]
    if COLUMN_SIGNS[j] > 0:
        factors.append(1)
    else:
        cofactors = [k - k.shift(1) for k in cofactors]    # * (1 - t)
        factors.append(2)
    for m in sorted(set(factors), reverse=True):
        cut = IntPolynomial.one_minus_t_power(m)
        while m in factors:
            quotients = [k.try_div_exact(cut) for k in cofactors]
            if None in quotients:
                break
            cofactors = quotients
            factors.remove(m)
    return tuple(cofactors), tuple(factors)


_COLUMN_ORACLES = {s: _column_oracle(j) for j, s in enumerate(ALPHABET)}


def kneading_determinant(word, column: str = "B"
                         ) -> tuple[IntPolynomial, tuple[int, ...]]:
    """D(t) from the increment matrix with one column struck out, as
    ``(num, den_factors)``: D = num / prod (1 - t^m) over the sorted
    exponents m in ``den_factors``.

    The value is independent of the choice of column; its representation
    is not.  Only the zero row nu_2 depends on the word, so the determinant
    is the expansion along it: nu_2's numerators times the struck column's
    cofactors, which are computed once at import with their shared
    (1 - t^m) factors already cancelled against the denominator, over what
    is left of it and nu_2's own (1 - t^q).
    """
    cofactors, factors = _COLUMN_ORACLES[column]
    nu, q = kneading_increment(word)
    num = IntPolynomial()
    for a, k in zip(nu, cofactors):
        if not (a.is_zero() or k.is_zero()):
            num = num + a * k
    return num, tuple(sorted(factors + (q,)))


def determinant_polynomial(word) -> IntPolynomial:
    """The cleared integer form of D for a cycle or convergent word.

    Cycle words clear (1-t)^2 (1-t^k); convergent words clear (1-t)^2.
    These cancel exponents of D's denominator, which holds (1 - t)^2 and,
    for a cycle word, whose side streams repeat a block of length k and
    slope sign +1, also (1 - t^k); the numerator is divided only by the
    factors that remain.  Raises ArithmeticError if the result fails to be
    a polynomial, which would mean the word does not carry a consistent
    increment."""
    word = as_word(word)
    out, den_factors = kneading_determinant(word)
    factors = list(den_factors)
    for m in (1, 1, len(word.head)) if word.is_cycle() else (1, 1):
        factors.remove(m)
    for m in factors:
        out = out.div_exact(IntPolynomial.one_minus_t_power(m))
    return out


# ----------------------------------------------------------------------
# the numerator kernel
# ----------------------------------------------------------------------

# 2*w(s) as (t^0, t^1) coefficients: w is t on L, 1-2t on M, 1-t on R, 0 on A, B
_SERIES_WEIGHT = {"L": (0, 2), "M": (2, -4), "R": (2, -2)}


def kneading_numerator(word) -> IntPolynomial:
    """The numerator of D(t) read straight off the kneading sequence.

    In this family the determinant collapses to one series,

        S(t) = D(t) * (1 - t)^2 = 1 - 3t + sum_m 2 * eps_m * w(s_m) * t^m,

    over the sequence s_1 s_2 ... of the word, with eps_m the product of
    the slope signs of s_1 .. s_(m-1).  A-tails add nothing, so a finite
    head gives S itself; a periodic tail of period p whose block has slope
    sign sigma is summed in closed form and cleared by (1 - sigma*t^p).
    Cycle and convergent words get ``determinant_polynomial`` exactly.  The
    sequence comes from the determinant's own side stream, so both routes
    accept, and reject, the same words.
    """
    seq = _critical_side_streams(word)[0].shift(1)
    cut = seq.start if seq.tail == TAIL_PERIODIC else len(seq.head)
    coeffs = [1, -3] + [0] * len(seq.head)
    eps = 1
    for m, s in enumerate(seq.head, 1):
        if m == cut + 1:
            pre, pre_eps = IntPolynomial(coeffs), eps
        a, b = _SERIES_WEIGHT.get(s, (0, 0))
        coeffs[m] += eps * a
        coeffs[m + 1] += eps * b
        eps *= LAP_SIGN[s]
    series = IntPolynomial(coeffs)
    if cut == len(seq.head):
        return series
    # series = pre + block, S = pre + block / (1 - sigma*t^p)
    return series - pre.shift(seq.period) * (eps * pre_eps)


# ----------------------------------------------------------------------
# shape, branch step, recursion
# ----------------------------------------------------------------------

def shape_split(P: IntPolynomial, k: int) -> tuple[IntPolynomial, int]:
    """Split the cleared cycle polynomial as p(t) + q(t).

    p has degree < k, starts 1 - t, and all later coefficients lie in
    {-2, 0, 2}; q = -delta*(t^k + t^(k+1)) with delta +1 or -1.  Returns
    (p, delta) and raises StructureError when the shape does not hold.
    """
    cs = P.coeffs
    if len(cs) != k + 2:
        raise StructureError(f"degree {P.degree}, expected {k + 1}: {P}")
    if cs[0] != 1 or cs[1] != -1:
        raise StructureError(f"head is not 1 - t: {P}")
    for j in range(2, k):
        if cs[j] not in (-2, 0, 2):
            raise StructureError(f"middle coefficient {cs[j]} at t^{j}: {P}")
    if cs[k] != cs[k + 1] or cs[k] not in (-1, 1):
        raise StructureError(f"tail is not -delta*(t^{k} + t^{k+1}): {P}")
    return IntPolynomial._trusted(list(cs[:k])), -cs[k]


# The tree edges out of a length-k cycle word with split (p, delta), as the
# coefficients of t^k, t^(k+1), ... that follow p, in units of delta: the
# convergent image p - 2*delta*t^k (A), the R image, and the A image plus
# the germination term -+delta*(t^kc + t^(kc+1)) at the child's length
# kc = k + 1 (M) or k + 2 (L).
_EDGE_TAILS = {"A": (-2,), "R": (0, -1, -1), "M": (-2, -1, -1), "L": (-2, 0, 1, 1)}


def tree_polynomial_step(d_k: IntPolynomial, k: int, edge: str) -> IntPolynomial:
    """One step along a tree edge from a length-k cycle word's cleared
    polynomial ``d_k``: the polynomial of its child on edge R, M or L (a
    cycle word), or of its convergent on edge A.  Raises StructureError
    when d_k lacks the rigid shape and ValueError for an unknown edge.
    """
    p, delta = shape_split(d_k, k)
    if edge not in _EDGE_TAILS:
        raise ValueError(f"unknown edge {edge!r}")
    cs = list(p.coeffs)
    cs += [0] * (k - len(cs))
    cs += [delta * c for c in _EDGE_TAILS[edge]]
    return IntPolynomial._trusted(cs)


_ROOT_POLY = IntPolynomial([1, -1, -1, -1])


def cycle_polynomial(word, *,
                     known: dict[str, IntPolynomial] | None = None) -> IntPolynomial:
    """Cleared polynomial of a cycle word by the suffix recursion.

    Works for every word the suffix parsing reaches, including the
    formally-valid intermediates that are not themselves admissible; the
    recursion agrees with the determinant route on all of them.  ``known``
    maps plain cycle strings to their polynomials: the walk up the parse
    stops at the first word found there, or at the root RC, and every word
    it passes on the way back down is stored, so each new word costs one
    ``tree_polynomial_step``.  Without it the walk starts over from the root.
    """
    w = as_word(word)
    if not w.is_cycle():
        raise WordError(f"not a cycle word: {word!r}")
    if known is None:
        known = {}
    chain = []
    word = w.head
    while word not in known and word != "RC":
        parent, edge = parse_parent(word)
        chain.append((word, edge))
        word = parent
    P = known.get(word, _ROOT_POLY)
    for child, edge in reversed(chain):
        P = known[child] = tree_polynomial_step(P, len(word), edge)
        word = child
    return P


def convergent_polynomial(word, *,
                          known: dict[str, IntPolynomial] | None = None) -> IntPolynomial:
    """Cleared polynomial of a convergent word: one ``tree_polynomial_step``
    along the A edge from its cycle's polynomial, taken from ``known`` (see
    ``cycle_polynomial``) when it is there."""
    w = as_word(word)
    if w.tail != TAIL_A_INF:
        raise WordError(f"not a convergent word: {word!r}")
    cycle = w.head[:-1] + "C"
    return tree_polynomial_step(cycle_polynomial(cycle, known=known),
                                len(cycle), "A")


# ----------------------------------------------------------------------
# the decorated tree
# ----------------------------------------------------------------------

class PolyTreeNode:
    """A plain class rather than a NamedTuple, so that a field can be set (the
    benchmark's self-test sets ``parent``); ``reduced`` is poly / (1 - t)
    when that is exact."""

    _fields = ("word", "kind", "parent", "edge", "poly", "reduced")

    def __init__(self, word: str, kind: str, parent: str | None, edge: str,
                 poly: IntPolynomial, reduced: IntPolynomial | None):
        self.word, self.kind, self.parent = word, kind, parent
        self.edge, self.poly, self.reduced = edge, poly, reduced

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"PolyTreeNode({fields})"

    def __eq__(self, other):
        return type(other) is PolyTreeNode and all(
            getattr(self, n) == getattr(other, n) for n in self._fields)


def build_polynomial_tree(max_level: int) -> dict[int, list[PolyTreeNode]]:
    """The admissible word tree with exact polynomials attached.

    The levels are built in order, so a word's parse parent is built before
    it: one dict of cycle polynomials, keyed by the plain cycle string and
    local to this call, carries them from word to word, and each new word,
    admissible or an intermediate, costs one branch step.  Every node's
    recursion value is recomputed through the determinant and the two must
    agree exactly; a mismatch raises RuntimeError rather than returning a
    partial tree.
    """
    one_minus_t = IntPolynomial.one_minus_t_power(1)
    known: dict[str, IntPolynomial] = {}
    out: dict[int, list[PolyTreeNode]] = {}
    for level, nodes in generate_tree(max_level).items():
        bucket = []
        for node in nodes:
            if node.kind == "cycle":
                poly = cycle_polynomial(node.word, known=known)
            else:
                poly = convergent_polynomial(node.word, known=known)
            check = determinant_polynomial(node.word)
            if poly != check:
                raise RuntimeError(
                    f"recursion and determinant disagree on {node.word}: "
                    f"{poly} vs {check}")
            bucket.append(PolyTreeNode(
                node.word, node.kind, node.parent, node.edge,
                poly, poly.try_div_exact(one_minus_t)))
        out[level] = bucket
    return out
