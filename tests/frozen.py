"""Frozen oracle values.

The polynomial tables were generated once by an independent symbolic
implementation of the determinant algebra (exact rational arithmetic,
sympy) and pasted here as literals.  The superstable parameters come from
a separate bisection harness that validated each value by direct orbit
residual.  The package has to reproduce these numbers; nothing in this
file is computed by the code under test.
"""

# cleared cycle polynomials, levels 2-7, keyed by word
CIRCLES = {
    "RC": [1, -1, -1, -1],
    "MRC": [1, -1, -2, -1, -1],
    "RRC": [1, -1, 0, -1, -1],
    "MMRC": [1, -1, -2, -2, -1, -1],
    "MRRC": [1, -1, -2, 0, -1, -1],
    "RLRC": [1, -1, -2, 0, 1, 1],
    "RRRC": [1, -1, 0, 0, -1, -1],
    "MMMRC": [1, -1, -2, -2, -2, -1, -1],
    "MMRRC": [1, -1, -2, -2, 0, -1, -1],
    "MRLRC": [1, -1, -2, -2, 0, 1, 1],
    "MRMRC": [1, -1, -2, 0, -2, -1, -1],
    "MRRRC": [1, -1, -2, 0, 0, -1, -1],
    "RLRRC": [1, -1, -2, 0, 0, 1, 1],
    "RMRRC": [1, -1, 0, -2, 0, -1, -1],
    "RRRRC": [1, -1, 0, 0, 0, -1, -1],
    "MMMMRC": [1, -1, -2, -2, -2, -2, -1, -1],
    "MMMRRC": [1, -1, -2, -2, -2, 0, -1, -1],
    "MMRLRC": [1, -1, -2, -2, -2, 0, 1, 1],
    "MMRMRC": [1, -1, -2, -2, 0, -2, -1, -1],
    "MMRRRC": [1, -1, -2, -2, 0, 0, -1, -1],
    "MRLRRC": [1, -1, -2, -2, 0, 0, 1, 1],
    "MRLMRC": [1, -1, -2, -2, 0, 2, 1, 1],
    "MRMRRC": [1, -1, -2, 0, -2, 0, -1, -1],
    "MRRLRC": [1, -1, -2, 0, -2, 0, 1, 1],
    "MRRMRC": [1, -1, -2, 0, 0, -2, -1, -1],
    "MRRRRC": [1, -1, -2, 0, 0, 0, -1, -1],
    "RLRRRC": [1, -1, -2, 0, 0, 0, 1, 1],
    "RLRMRC": [1, -1, -2, 0, 0, 2, 1, 1],
    "RMRRRC": [1, -1, 0, -2, 0, 0, -1, -1],
    "RRLRRC": [1, -1, 0, -2, 0, 0, 1, 1],
    "RRRRRC": [1, -1, 0, 0, 0, 0, -1, -1],
    "MMMMMRC": [1, -1, -2, -2, -2, -2, -2, -1, -1],
    "MMMMRRC": [1, -1, -2, -2, -2, -2, 0, -1, -1],
    "MMMRLRC": [1, -1, -2, -2, -2, -2, 0, 1, 1],
    "MMMRMRC": [1, -1, -2, -2, -2, 0, -2, -1, -1],
    "MMMRRRC": [1, -1, -2, -2, -2, 0, 0, -1, -1],
    "MMRLRRC": [1, -1, -2, -2, -2, 0, 0, 1, 1],
    "MMRLMRC": [1, -1, -2, -2, -2, 0, 2, 1, 1],
    "MMRMMRC": [1, -1, -2, -2, 0, -2, -2, -1, -1],
    "MMRMRRC": [1, -1, -2, -2, 0, -2, 0, -1, -1],
    "MMRRLRC": [1, -1, -2, -2, 0, -2, 0, 1, 1],
    "MMRRMRC": [1, -1, -2, -2, 0, 0, -2, -1, -1],
    "MMRRRRC": [1, -1, -2, -2, 0, 0, 0, -1, -1],
    "MRLRRRC": [1, -1, -2, -2, 0, 0, 0, 1, 1],
    "MRLRMRC": [1, -1, -2, -2, 0, 0, 2, 1, 1],
    "MRLRLRC": [1, -1, -2, -2, 0, 2, 0, -1, -1],
    "MRLMRRC": [1, -1, -2, -2, 0, 2, 0, 1, 1],
    "MRMMRRC": [1, -1, -2, 0, -2, -2, 0, -1, -1],
    "MRMRLRC": [1, -1, -2, 0, -2, -2, 0, 1, 1],
    "MRMRMRC": [1, -1, -2, 0, -2, 0, -2, -1, -1],
    "MRMRRRC": [1, -1, -2, 0, -2, 0, 0, -1, -1],
    "MRRLRRC": [1, -1, -2, 0, -2, 0, 0, 1, 1],
    "MRRMRRC": [1, -1, -2, 0, 0, -2, 0, -1, -1],
    "MRRRLRC": [1, -1, -2, 0, 0, -2, 0, 1, 1],
    "MRRRMRC": [1, -1, -2, 0, 0, 0, -2, -1, -1],
    "MRRRRRC": [1, -1, -2, 0, 0, 0, 0, -1, -1],
    "RLRRRRC": [1, -1, -2, 0, 0, 0, 0, 1, 1],
    "RLRRMRC": [1, -1, -2, 0, 0, 0, 2, 1, 1],
    "RLRRLRC": [1, -1, -2, 0, 0, 2, 0, -1, -1],
    "RLRMRRC": [1, -1, -2, 0, 0, 2, 0, 1, 1],
    "RMRMRRC": [1, -1, 0, -2, 0, -2, 0, -1, -1],
    "RMRRRRC": [1, -1, 0, -2, 0, 0, 0, -1, -1],
    "RRLRRRC": [1, -1, 0, -2, 0, 0, 0, 1, 1],
    "RRMRRRC": [1, -1, 0, 0, -2, 0, 0, -1, -1],
    "RRRRRRC": [1, -1, 0, 0, 0, 0, 0, -1, -1],
}

# cleared convergent polynomials, levels 2-6
SQUARES = {
    "RA": [1, -1, -2],
    "MRA": [1, -1, -2, -2],
    "RRA": [1, -1, 0, -2],
    "MMRA": [1, -1, -2, -2, -2],
    "MRRA": [1, -1, -2, 0, -2],
    "RRRA": [1, -1, 0, 0, -2],
    "MMMRA": [1, -1, -2, -2, -2, -2],
    "MMRRA": [1, -1, -2, -2, 0, -2],
    "MRLRA": [1, -1, -2, -2, 0, 2],
    "MRMRA": [1, -1, -2, 0, -2, -2],
    "MRRRA": [1, -1, -2, 0, 0, -2],
    "RLRRA": [1, -1, -2, 0, 0, 2],
    "RMRRA": [1, -1, 0, -2, 0, -2],
    "RRRRA": [1, -1, 0, 0, 0, -2],
    "MMMMRA": [1, -1, -2, -2, -2, -2, -2],
    "MMMRRA": [1, -1, -2, -2, -2, 0, -2],
    "MMRLRA": [1, -1, -2, -2, -2, 0, 2],
    "MMRMRA": [1, -1, -2, -2, 0, -2, -2],
    "MMRRRA": [1, -1, -2, -2, 0, 0, -2],
    "MRLRRA": [1, -1, -2, -2, 0, 0, 2],
    "MRMRRA": [1, -1, -2, 0, -2, 0, -2],
    "MRRLRA": [1, -1, -2, 0, -2, 0, 2],
    "MRRMRA": [1, -1, -2, 0, 0, -2, -2],
    "MRRRRA": [1, -1, -2, 0, 0, 0, -2],
    "RLRRRA": [1, -1, -2, 0, 0, 0, 2],
    "RMRRRA": [1, -1, 0, -2, 0, 0, -2],
    "RRRRRA": [1, -1, 0, 0, 0, 0, -2],
}

# admissible cycle counts per word length
LEVELS = {2: 1, 3: 2, 4: 4, 5: 8, 6: 16, 7: 34}

# superstable parameters located and residual-checked by the bisection harness
SUPERSTABLE = {
    "RC": 1.319507910773,
    "RRC": 0.992607403353,
    "RLRC": 1.334196834289,
    "MRC": 1.584337456052,
}

# transition matrix of the period-4 cycle RLRC (ascending interval order,
# transient gap removed)
RLRC_MATRIX = (
    (1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1, 1),
    (1, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 1, 1),
)

# growth rate 1/t* of 1 - t - t^2 - t^3 (shared plateau of RC and RLRC)
TRIBONACCI = 1.8392867552141612

# kneading determinants of the plateau tails as (numerator, denominator
# exponents m of prod (1 - t^m)), with no factor left that divides the
# numerator
PERIODIC_NUMERATORS = {
    ("M", 0): ([1, -2, -1], (1, 1, 1)),
    ("RM", 0): ([1, -1, -1, -1], (1, 1, 2)),
    ("RL", 0): ([1, 0, -2, -2, -1], (1, 4)),
}

# sha256 of what `tree --max-level 10 --format json` prints
TREE_DIGEST = "751e3fdca3016b3720399a6f034d2a917d7b3ad6bd94b6ccaa22f5179300d284"

# sha256 of what `verify --suite all` prints: 13 checks, 0 failures
VERIFY_DIGEST = "4c14fe4e0d6de760e1286f4feff1f85e7205e025e29ac2e0be87afc2f3be6ef5"

# sha256 over one line "<word> <outcome>\n" per admissible cycle word at
# levels 2-10 (admissible_cycles order), where the outcome is
# find_superstable_parameter(word).hex() or the ValueError message; recorded
# from the full-length order bisection that read 64 symbols per comparison.
# Re-recorded when the k-th return was halved to adjacent floats inside the
# order bracket instead of polished by a secant: still 566 located, 42 c*
# moved by at most 6 ulps, and the failures' messages changed
LOCATOR_DIGEST = "996b8e09bb319cccdc2c6d60a2e849d0c8e3750f1c982fabf946f8ede313c0f6"
LOCATOR_WORDS = 627
LOCATOR_NOT_REALIZED = 61

# the same digest over the 738 admissible cycle words at level 11, recorded
# from the locator that read the orbit in prefixes of k+1, 2(k+1), ...
# symbols up to the horizon; re-recorded with the k-th return halving above,
# which locates MMMRMRLRRRC and MMMRRLMRMRC too (165 -> 163 not realized)
LOCATOR_DIGEST_11 = "ac640c32071ab329a8c0029ebb235fa3fa9bb800b38a705c70e1bae3dc40edf8"
LOCATOR_WORDS_11 = 738
LOCATOR_NOT_REALIZED_11 = 163

# the same digest over the 1632 admissible cycle words at level 12, recorded
# with the k-th return halving: 1102 located, 530 not realized
LOCATOR_DIGEST_12 = "e66874a34a5e61b67cd14a07f1e8faba250b5ee08fb82dc2db98cf4be0cadd74"
LOCATOR_WORDS_12 = 1632
LOCATOR_NOT_REALIZED_12 = 530

# critical_frame(c).d0.hex(), from the eager bisection and Newton polish
FREE_ROOT_HEX = {
    0.01: "-0x1.0082cf7514fccp+0",
    0.5: "-0x1.1749d62a73588p+0",
    1.0: "-0x1.2ad46efb1f9cfp+0",
    1.6: "-0x1.3ebd4c376fbcfp+0",
    1.649: "-0x1.403ad284b7fb4p+0",
    1000.0: "-0x1.67ea1927d4d38p+2",   # d0 lies more than 1 left of d1
    # recorded while the bracket doubled leftwards from d1 - 1 until f < 0;
    # the closed-form bracket -2 (c + 1)^(1/4) keeps the same bits
    1e6: "-0x1.f9f6e4dc2b00ep+4",
    1e30: "-0x1.e286789a07f2fp+24",
    1e60: "-0x1.c6bf526340000p+49",
    # f is exactly 0 at a midpoint of the halving: halving f itself instead
    # of its sign would stop there and give ...517p+9
    648136854325.0697: "-0x1.c0a0d976f9518p+9",
}

# sha256 over one line per polynomial of test_polynomials.planted_root_polys
# (seed 0, 400 polynomials): smallest_root_in(poly, BAND_ROOT_LO - 1e-9,
# 1.0).hex(), or "none"; 332 of them reach the Sturm fallback.  Re-recorded
# when the Sturm fallback began searching all of [lo, hi] instead of
# starting where the walk stalled: 325 entries moved, all of them on that
# route, each still within 8.8e-14 of its exact root.  Re-recorded when
# Sturm also took the 2 entries an exact Fraction bisection of the walk's
# cell had decided: entry 339 moved one ulp, its error against 320/589
# going from 3.0e-14 to 3.1e-14, and entry 95 kept its bits
PLANTED_ROOT_DIGEST = "0f2809d1552f80908bd65632078dcf47d15af25ebfe54f982686cf6d97196852"

# sha256 over one line "<word> <matrix>\n" (the matrix as its tuple repr)
# per located admissible cycle word at levels 2-8, in admissible_cycles
# order: the 135 transition matrices, recorded while the image endpoints
# were one-sided Richardson limits snapped to the partition boundaries
WINDOW_MATRIX_DIGEST = "cff3f8b0b918c703d7d100fe22fb0e7cefbdb64844cf9b6895c93df13ad9fd23"
