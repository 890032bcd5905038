import itertools

import pytest

from quintic_newton import kneading

from frozen import CIRCLES, SQUARES, LEVELS, PERIODIC_NUMERATORS
from rational import same_rational
from quintic_newton.kneading import (
    PolyTreeNode,
    StructureError,
    build_polynomial_tree,
    convergent_polynomial,
    cycle_polynomial,
    determinant_polynomial,
    kneading_determinant,
    kneading_increment,
    kneading_numerator,
    shape_split,
    tree_polynomial_step,
)
from quintic_newton.markov import entropy_from_kneading
from quintic_newton.polynomials import IntPolynomial
from quintic_newton.words import (
    LAP_SIGN,
    SymbolWord,
    TAIL_A_INF,
    TAIL_PERIODIC,
    WordError,
    admissible_cycles,
    generate_tree,
    parse_parent,
)


# ----------------------------------------------------------------------
# the determinant route
# ----------------------------------------------------------------------

def test_rlrc_determinant_closed_form():
    # D = (1+t)(1-t-t^2-t^3) / ((1-t)(1-t^4))
    D = kneading_determinant("RLRC")
    num = IntPolynomial([1, 1]) * IntPolynomial([1, -1, -1, -1])
    assert same_rational(D, (num, (1, 4)))
    # as handed out: the cleared cycle polynomial over (1-t)^2 (1-t^4), the
    # exponents sorted
    assert D == (IntPolynomial(CIRCLES["RLRC"]), (1, 1, 4))


# cycle strings, periodic blocks with sigma = +1 (RM, MR) and -1 (RL, RLM),
# and an A-tail
COLUMN_WORDS = ["RC", "MRC", "RLRC", "MMRRC",
                SymbolWord("RM", TAIL_PERIODIC, 0),
                SymbolWord("RRLRMR", TAIL_PERIODIC, 4),
                SymbolWord("RL", TAIL_PERIODIC, 0),
                SymbolWord("RRRLM", TAIL_PERIODIC, 2),
                SymbolWord("RMMRLRA", TAIL_A_INF)]


def test_determinant_is_column_independent():
    for word in COLUMN_WORDS:
        values = [laplace_determinant(word, col) for col in "ABLMR"]
        assert all(same_rational(v, values[0]) for v in values[1:]), word


def test_cycle_polynomials_match_frozen_table():
    for word, coeffs in CIRCLES.items():
        assert determinant_polynomial(word).to_list() == coeffs, word


def test_convergent_polynomials_match_frozen_table():
    for word, coeffs in SQUARES.items():
        assert determinant_polynomial(word).to_list() == coeffs, word


def test_periodic_tail_numerators():
    for (head, start), (coeffs, factors) in PERIODIC_NUMERATORS.items():
        w = SymbolWord(head, TAIL_PERIODIC, start)
        num = IntPolynomial(coeffs)
        assert same_rational(kneading_determinant(w), (num, factors)), head
        # the frozen form is reduced: no factor left divides its numerator
        for m in factors:
            assert num.try_div_exact(IntPolynomial.one_minus_t_power(m)) is None, head


def laplace_determinant(word, column):
    """D(t) by the plain Laplace expansion of the 4 x 4 numerator matrix
    with ``column`` struck out, over the four row factors and (1 - eps*t):
    the reference the expansion along the zero row must match."""
    j = "ABLMR".index(column)
    # the rows of the free root, left pole, zero and right pole, in order;
    # the three word-free ones are over (1 - t)
    universal = kneading._UNIVERSAL_ROWS
    rows = [(universal[0], 1), (universal[1], 1), kneading_increment(word),
            (universal[3], 1)]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = IntPolynomial()
        for c, a in enumerate(rows[0]):
            term = a * det([r[:c] + r[c + 1:] for r in rows[1:]])
            acc = acc + term if c % 2 == 0 else acc - term
        return acc

    num = det([list(nums[:j]) + list(nums[j + 1:]) for nums, _ in rows])
    factors = [q for _, q in rows]
    if j % 2 == 1:
        num = -num
    if LAP_SIGN[column] > 0:
        factors.append(1)
    else:
        num = num * IntPolynomial.one_minus_t_power(1)     # 1/(1+t) = (1-t)/(1-t^2)
        factors.append(2)
    return num, factors


def test_expansion_along_the_zero_row_matches_the_laplace_reference():
    words = [n.word for nodes in generate_tree(8).values() for n in nodes]
    assert len(words) == 259
    words += COLUMN_WORDS
    for word in words:
        D = kneading_determinant(word)
        for col in "ABLMR":
            assert same_rational(D, laplace_determinant(word, col)), (word, col)


def test_zero_row_is_the_difference_of_its_two_side_streams():
    # nu_2 = theta(M.K) - theta(L.K), the two streams built here from K
    words = [n.word for nodes in generate_tree(10).values() for n in nodes]
    for n in range(1, 6):
        for letters in itertools.product("LMR", repeat=n):
            block = "".join(letters)
            words += [SymbolWord(pre + block, TAIL_PERIODIC, len(pre))
                      for pre in ("", "L", "M", "R")]
    for word in words:
        K = kneading._kneading_sequence(word)
        start = K.start + 1 if K.tail == TAIL_PERIODIC else 0
        (plus, q), (minus, q_minus) = (
            kneading.invariant_coordinate(SymbolWord(x + K.head, K.tail, start))
            for x in "ML")
        assert q == q_minus
        nu, q_nu = kneading_increment(word)
        assert q_nu == q, word
        assert [a.to_list() for a in nu] == \
            [(a - b).to_list() for a, b in zip(plus, minus)], word
    # a C has no coordinate, and an unresolved word neither a coordinate
    # nor a kneading sequence
    with pytest.raises(WordError, match="C has no invariant coordinate"):
        kneading.invariant_coordinate("RLRC")
    with pytest.raises(WordError, match="unresolved word RLR$"):
        kneading.invariant_coordinate("RLR")
    with pytest.raises(WordError, match="no kneading sequence in RLR$"):
        kneading_numerator("RLR")


def test_column_a_cofactors_have_their_closed_forms():
    # the cofactors of the zero row with A struck out, by column A B L M R,
    # once their shared (1 - t)^2 is cancelled: the weights w of the
    # numerator kernel, 0, 0, t, 1 - 2t and 1 - t, over (1 - t)^2
    cofactors, factors = kneading._column_oracle()
    assert [k.to_list() for k in cofactors] == [[], [], [0, 1], [1, -2], [1, -1]]
    assert factors == (1, 1)


# ----------------------------------------------------------------------
# shape and branch steps
# ----------------------------------------------------------------------

def test_shape_split_rc():
    p, delta = shape_split(IntPolynomial(CIRCLES["RC"]), 2)
    assert p.to_list() == [1, -1] and delta == 1


def test_shape_split_delta_counts_l_symbols():
    for word, coeffs in CIRCLES.items():
        _, delta = shape_split(IntPolynomial(coeffs), len(word))
        assert delta == (-1) ** word.count("L"), word


def test_shape_split_rejects_wrong_shapes():
    with pytest.raises(StructureError):
        shape_split(IntPolynomial([1, 1, -1, -1]), 2)   # head not 1 - t
    with pytest.raises(StructureError):
        shape_split(IntPolynomial([1, -1, -1, -1]), 3)  # degree mismatch
    with pytest.raises(StructureError):
        shape_split(IntPolynomial([1, -1, 3, -1, -1]), 3)


def test_branch_steps_from_the_root():
    P = IntPolynomial(CIRCLES["RC"])
    assert tree_polynomial_step(P, 2, "A").to_list() == SQUARES["RA"]
    assert tree_polynomial_step(P, 2, "R").to_list() == CIRCLES["RRC"]
    assert tree_polynomial_step(P, 2, "M").to_list() == CIRCLES["MRC"]
    assert tree_polynomial_step(P, 2, "L").to_list() == CIRCLES["RLRC"]
    with pytest.raises(ValueError, match="unknown edge 'X'"):
        tree_polynomial_step(cycle_polynomial("RLRC"), 4, "X")


# ----------------------------------------------------------------------
# recursion vs determinant
# ----------------------------------------------------------------------

def test_recursion_reproduces_all_frozen_cycles():
    for word, coeffs in CIRCLES.items():
        assert cycle_polynomial(word).to_list() == coeffs, word
    with pytest.raises(WordError, match="not a cycle word: 'RRA'"):
        cycle_polynomial("RRA")


def test_recursion_reproduces_all_frozen_convergents():
    for word, coeffs in SQUARES.items():
        assert convergent_polynomial(word).to_list() == coeffs, word
    with pytest.raises(WordError, match="not a convergent word: 'RC'"):
        convergent_polynomial("RC")


def test_recursion_passes_through_inadmissible_intermediates():
    # RMRC is not admissible, yet the recursion and the determinant both
    # assign it the same polynomial on the way to RMRRC
    assert cycle_polynomial("RMRC") == determinant_polynomial("RMRC")
    assert cycle_polynomial("RMRC").to_list() == [1, -1, 0, -2, -1, -1]


def test_polynomial_tree_levels():
    tree = build_polynomial_tree(6)
    for level, nodes in tree.items():
        cycles = [n for n in nodes if n.kind == "cycle"]
        assert len(cycles) == LEVELS[level]
        for n in nodes:
            table = CIRCLES if n.kind == "cycle" else SQUARES
            assert n.poly.to_list() == table[n.word], n.word


def test_polynomial_tree_raises_when_the_determinant_disagrees(monkeypatch):
    target = admissible_cycles(6)[-1]
    real = kneading.determinant_polynomial

    def wrong_on_target(word):
        return real(word) + 1 if word == target else real(word)

    monkeypatch.setattr(kneading, "determinant_polynomial", wrong_on_target)
    with pytest.raises(RuntimeError, match=f"disagree on {target}:"):
        build_polynomial_tree(6)


def _cycle_chain(word):
    """A cycle word and every parse ancestor below the root RC."""
    while word != "RC":
        yield word
        word = parse_parent(word)[0]


def test_polynomial_tree_takes_one_step_per_word(monkeypatch):
    calls = [0]
    real = kneading.shape_split

    def counted(P, k):
        calls[0] += 1
        return real(P, k)

    monkeypatch.setattr(kneading, "shape_split", counted)
    tree = build_polynomial_tree(10)
    first = calls[0]
    # every node, and every intermediate its recursion passes through
    words = set()
    for nodes in tree.values():
        for n in nodes:
            words.add(n.word)
            words.update(_cycle_chain(n.word[:-1] + "C"))
    assert 0 < first <= len(words)
    # nothing carried over from the first build
    calls[0] = 0
    build_polynomial_tree(10)
    assert calls[0] == first
    monkeypatch.undo()
    for level in range(2, 9):
        for n in tree[level]:
            alone = (cycle_polynomial(n.word) if n.kind == "cycle"
                     else convergent_polynomial(n.word))
            assert n.poly == alone, n.word


# how far each edge letter moves the word length: R and M add one letter,
# L two (...LRC drops both) and A none (it replaces the closing C)
_EDGE_GROWTH = {"R": 1, "M": 1, "L": 2, "A": 0}


def test_each_edge_string_is_the_recursion_path_from_the_parent():
    # to level 12, above the tree digest's level 10
    tree = build_polynomial_tree(12)
    polys = {n.word: n.poly for nodes in tree.values() for n in nodes}
    chains = 0
    for nodes in tree.values():
        for n in nodes:
            # the tree JSON reads vars(node), so the fields are all there, in order
            assert list(vars(n)) == list(PolyTreeNode._fields), n.word
            if n.parent is None:
                assert (n.word, n.edge) == ("RC", ""), n.word
                continue
            P, k = polys[n.parent], len(n.parent)
            for edge in n.edge:
                P, k = tree_polynomial_step(P, k, edge), k + _EDGE_GROWTH[edge]
            assert (P, k) == (n.poly, len(n.word)), n.word
            chains += len(n.edge) > 1
    assert chains > 0


def test_a_tail_words_share_the_convergent_polynomial():
    num, den_factors = kneading_determinant(SymbolWord("RRA", TAIL_A_INF))
    assert same_rational((num * IntPolynomial([1, -2, 1]), den_factors),
                         (IntPolynomial(SQUARES["RRA"]), ()))


# ----------------------------------------------------------------------
# the numerator kernel against the determinant oracle
# ----------------------------------------------------------------------

def test_kernel_equals_the_determinant_on_cycle_and_convergent_words():
    words = list(CIRCLES) + list(SQUARES)
    words += [node.word for nodes in generate_tree(10).values() for node in nodes]
    # the formally valid intermediates the tree recursion passes through
    for n in range(6):
        words += ["".join(p) + "RC" for p in itertools.product("LMR", repeat=n)]
    for word in words:
        assert kneading_numerator(word) == determinant_polynomial(word), word


def test_kernel_clears_the_periodic_tail_of_the_determinant():
    words = [SymbolWord(head, TAIL_PERIODIC, start)
             for head, start in PERIODIC_NUMERATORS]
    words.append(SymbolWord("RRLRMM", TAIL_PERIODIC, 2))
    for w in words:
        sigma = 1
        for s in w.head[w.start:]:
            sigma *= LAP_SIGN[s]
        p = w.period
        if sigma > 0:
            series = kneading_numerator(w), (p,)
        else:
            # 1/(1 + t^p) written over (1 - t^2p)
            series = (kneading_numerator(w) * IntPolynomial.one_minus_t_power(p),
                      (2 * p,))
        num, den_factors = kneading_determinant(w)
        cleared = num * IntPolynomial([1, -2, 1]), den_factors
        assert same_rational(cleared, series), w


def test_truncated_series_root_converges_to_the_cycle_root():
    # RL repeated is the RLRC plateau; A truncates the series after 120 symbols
    series = entropy_from_kneading("RL" * 60 + "A")
    assert abs(series.t_star - entropy_from_kneading("RLRC").t_star) < 1e-12
