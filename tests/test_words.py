import itertools

import pytest
from hypothesis import given, strategies as st

from frozen import LEVELS
from quintic_newton.kneading import (
    convergent_polynomial,
    cycle_polynomial,
    determinant_polynomial,
    kneading_numerator,
)
from quintic_newton.words import (
    ORDER_HORIZON,
    SYMBOLS,
    SymbolWord,
    TAIL_A_INF,
    TAIL_PERIODIC,
    TAIL_UNRESOLVED,
    WordError,
    admissible_cycles,
    as_word,
    generate_tree,
    is_admissible,
    order_compare,
    parse_parent,
    transition_allowed,
)


# ----------------------------------------------------------------------
# SymbolWord structure
# ----------------------------------------------------------------------

def test_word_string_forms_round_trip():
    for w in [
        SymbolWord("RLRC", TAIL_PERIODIC, 0),
        SymbolWord("MRRC", TAIL_PERIODIC, 1),
        SymbolWord("RRA", TAIL_A_INF),
        SymbolWord("RLM", TAIL_UNRESOLVED),
    ]:
        assert SymbolWord.parse(str(w)) == w
    with pytest.raises(WordError, match="empty periodic block"):
        SymbolWord.parse("R()^")
    with pytest.raises(WordError, match="malformed word 'R\\(L'"):
        SymbolWord.parse("R(L")


def test_word_validation():
    with pytest.raises(WordError):
        SymbolWord("RRB", TAIL_A_INF)       # A tail needs an A head ending
    with pytest.raises(WordError):
        SymbolWord("RC", TAIL_PERIODIC, 5)  # start beyond the head
    with pytest.raises(WordError):
        SymbolWord("RXC", TAIL_PERIODIC, 0)
    with pytest.raises(WordError, match="unknown tail kind 'loop'"):
        SymbolWord("R", "loop")


def test_replace_runs_the_word_checks():
    w = as_word("RLRC")
    with pytest.raises(WordError) as err:
        w._replace(head="XYZ")
    assert str(err.value) == "unknown symbols 'XYZ' in 'XYZ'"
    with pytest.raises(WordError):
        w._replace(start=4)
    # the periodic tail carries over to the new head
    assert w._replace(head="RC") == as_word("RC") == SymbolWord("RC", TAIL_PERIODIC, 0)
    assert type(w._replace(head="RC")) is SymbolWord


def test_prefix_walks_head_then_tail():
    w = SymbolWord("MRRC", TAIL_PERIODIC, 1)   # M then (RRC)^inf
    assert w.prefix(7) == "MRRCRRC"
    rlrc = SymbolWord("RLRC", TAIL_PERIODIC, 0)
    assert rlrc.period == 4 and rlrc.prefix(9) == "RLRCRLRCR"
    assert SymbolWord("RRA", TAIL_A_INF).prefix(5) == "RRAAA"
    # an unresolved head ends where the produced symbols end
    assert SymbolWord("RLM").prefix(5) == "RLM"


# ----------------------------------------------------------------------
# order
# ----------------------------------------------------------------------

def test_order_fixtures():
    # the flip parity counts B and L in the common prefix
    assert order_compare("MRRM", "MRRR") < 0
    assert order_compare("RLRA", "RLRR") > 0
    assert order_compare("RC", "RC") == 0
    # words ascend as their parameters descend
    chain = ["MRC", "RLRC", "RC", "RRC"]
    for a, b in zip(chain, chain[1:]):
        assert order_compare(a, b) < 0, (a, b)


def test_order_reads_an_unresolved_head_to_its_end_only():
    # a string ending in neither C nor A is an unresolved head: nothing
    # past it is known, so it is not padded with A
    assert order_compare("RL", "RLRC") == 0 == order_compare("RLRC", "RL")
    assert order_compare(SymbolWord("RL"), "RLA") == 0
    assert order_compare("RLM", "RLRC") > 0      # they differ inside the head
    assert order_compare("MRRM", "MRR") == 0


def test_order_looks_past_a_preperiod():
    # R^5 then M forever against R forever: they differ first at index 5,
    # past a preperiod longer than either period
    a = SymbolWord("RRRRRM", TAIL_PERIODIC, 5)
    b = SymbolWord("RRRRRR", TAIL_PERIODIC, 5)
    assert order_compare(a, b) < 0 < order_compare(b, a)


def test_order_is_antisymmetric_on_cycles():
    words = admissible_cycles(5)
    for a, b in itertools.combinations(words, 2):
        assert order_compare(a, b) == -order_compare(b, a)


@given(st.lists(st.sampled_from("MRL"), min_size=1, max_size=6),
       st.lists(st.sampled_from("MRL"), min_size=1, max_size=6))
def test_order_consistent_with_equality(xs, ys):
    a, b = "".join(xs), "".join(ys)
    cmp = order_compare(a, b)
    if a == b:
        assert cmp == 0
    else:
        assert cmp == -order_compare(b, a)


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------

def test_transition_rules():
    assert transition_allowed("A", "A")
    assert transition_allowed("B", "A")
    assert not transition_allowed("A", "R")
    assert transition_allowed("L", "M") and transition_allowed("L", "R")
    assert not transition_allowed("L", "L")
    assert transition_allowed("R", "C") and not transition_allowed("M", "C")
    assert transition_allowed("C", "R") and not transition_allowed("C", "A")


# the pairs ab where b may follow a, with C's two rules: C -> M or R, only R -> C
ALLOWED_PAIRS = {"AA", "BA", "LM", "LR", "CM", "CR", "MM", "MR",
                 "RA", "RB", "RL", "RM", "RR", "RC"}


def test_transition_rules_on_every_pair_of_letters():
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert transition_allowed(a, b) == (a + b in ALLOWED_PAIRS), a + b
    with pytest.raises(WordError):
        transition_allowed("R", "X")


def test_admissibility_fixtures():
    assert is_admissible("RLRC")
    assert not is_admissible("LMAC")
    assert not is_admissible("RMRC")   # fails shift dominance, not transitions
    assert is_admissible("RC") and is_admissible("MRC")
    assert not is_admissible("MC")     # only R may precede C
    assert is_admissible("RRA")
    assert not is_admissible("RRB")
    assert is_admissible(SymbolWord("M", TAIL_PERIODIC, 0))


def _admissible_by_shifts(w) -> bool:
    """The reference rule: shift dominance read by comparing each shifted
    word with the whole word under order_compare.  A shifted sequence is
    read as an unresolved head of ORDER_HORIZON symbols, as far as the
    order ever compares."""
    w = as_word(w)
    head = w.head
    if w.tail == TAIL_A_INF or w.is_cycle():
        interior = head[:-1]
    elif w.tail == TAIL_PERIODIC and w.start == 0:
        interior = head
    else:
        return False
    if not interior or not set(interior) <= set("LMR") or head[0] not in "MR":
        return False
    around = head[0] if w.tail == TAIL_PERIODIC else ""
    if not all(map(transition_allowed, head, head[1:] + around)):
        return False
    seq = w.prefix(ORDER_HORIZON + len(head))
    return all(order_compare(SymbolWord(seq[i + 1:i + 1 + ORDER_HORIZON]), w) >= 0
               for i, s in enumerate(head) if s in "LM")


def test_dominance_read_off_one_prefix_matches_the_shift_oracle():
    words = []
    for n in range(1, 7):
        for letters in itertools.product(SYMBOLS, repeat=n):
            x = "".join(letters)
            words.append(SymbolWord(x, TAIL_PERIODIC, 0))
            if n < 6:
                words += [x + "C", x + "A"]
    admissible = 0
    for w in words:
        want = _admissible_by_shifts(w)
        assert is_admissible(w) == want, w
        admissible += want
    assert admissible > 100


def test_every_form_of_a_word_gets_one_answer():
    cycle = ["RLRC", "(RLRC)^", SymbolWord("RLRC", TAIL_PERIODIC, 0)]
    convergent = ["RRA", "RRA^inf", SymbolWord("RRA", TAIL_A_INF)]
    # with the tree's suffix edits that take each kind
    for forms, edits in ((cycle, (cycle_polynomial,)),
                         (convergent, (convergent_polynomial,))):
        first = forms[0]
        for w in forms:
            assert as_word(w) == as_word(first)
            assert is_admissible(w)
            assert kneading_numerator(w) == kneading_numerator(first)
            assert determinant_polynomial(w) == determinant_polynomial(first)
            assert all(order_compare(w, v) == 0 for v in forms)
            assert order_compare(w, "RC") == order_compare(first, "RC") != 0
            for edit in edits:
                assert edit(w) == edit(first), (edit.__name__, w)
    block = ["(M)^", SymbolWord("M", TAIL_PERIODIC, 0)]
    assert all(is_admissible(w) for w in block)
    assert kneading_numerator(block[0]) == kneading_numerator(block[1])
    # ")^" with no "(", a doubled "(", and whitespace, which is no symbol
    for bad in ("RXC", 5, "", "RL)^", "((RC)^", "RLRC ", " RLRC"):
        with pytest.raises(WordError):
            is_admissible(bad)


def test_admissible_counts_match_brute_force():
    for k, want in LEVELS.items():
        if k > 6:
            continue
        brute = ["".join(w) + "C"
                 for w in itertools.product("ABLCMR", repeat=k - 1)
                 if is_admissible("".join(w) + "C")]
        got = admissible_cycles(k)
        assert len(got) == want
        assert sorted(got) == sorted(brute)


def _convergents(k: int) -> list[str]:
    """The convergent words of level k of the tree."""
    return [node.word for node in generate_tree(k)[k] if node.kind == "convergent"]


def test_admissible_convergents_match_brute_force():
    # absorbed spellings such as RAA and RBA share RA's numerator; only RA
    # is admissible, so the brute force finds exactly the listed words
    for k in range(2, 8):
        brute = ["".join(w) + "A"
                 for w in itertools.product("ABLCMR", repeat=k - 1)
                 if is_admissible("".join(w) + "A")]
        assert sorted(_convergents(k)) == sorted(brute), k


def test_admissible_cycles_level_7_count():
    assert len(admissible_cycles(7)) == LEVELS[7]


def test_cycles_are_sorted_by_order():
    for k in (4, 5, 6):
        words = admissible_cycles(k)
        for a, b in zip(words, words[1:]):
            assert order_compare(a, b) < 0


def test_convergent_words():
    assert _convergents(2) == ["RA"]
    assert sorted(_convergents(3)) == ["MRA", "RRA"]
    assert len(_convergents(6)) == 13


def test_no_two_words_of_a_tree_level_compare_equal():
    # distinct words of one length differ within it, so one sort of a
    # level's cycle and convergent words needs no rule for ties
    for k, nodes in generate_tree(12).items():
        words = [node.word for node in nodes]
        for a, b in zip(words, words[1:]):
            assert order_compare(a, b) < 0, (k, a, b)


# ----------------------------------------------------------------------
# the tree
# ----------------------------------------------------------------------

def test_parse_parent_edges():
    assert parse_parent("RC") is None
    assert parse_parent("RRC") == ("RC", "R")
    assert parse_parent("MRC") == ("RC", "M")
    assert parse_parent("RLRC") == ("RC", "L")
    assert parse_parent("MMRC") == ("MRC", "M")
    with pytest.raises(WordError):
        parse_parent("RBC")


def test_generate_tree_levels_and_edges():
    with pytest.raises(ValueError, match="max_level must be at least 2"):
        generate_tree(1)
    tree = generate_tree(5)
    for level, nodes in tree.items():
        cycles = [n for n in nodes if n.kind == "cycle"]
        assert len(cycles) == LEVELS[level]
    by_word = {n.word: n for nodes in tree.values() for n in nodes}
    assert by_word["RC"].parent is None
    assert by_word["RRC"].parent == "RC" and by_word["RRC"].edge == "R"
    assert by_word["RA"].parent == "RC" and by_word["RA"].edge == "A"
    # the chain to RMRRC passes through the inadmissible intermediate RMRC
    assert by_word["RMRRC"].parent == "RRC"
    assert by_word["RMRRC"].edge == "MR"
