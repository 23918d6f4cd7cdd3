"""Golden outputs of the variation operators.

Each case pins the children of `sbx_crossover` or `polynomial_mutation`
at a fixed seed, as `float.hex` strings, and the number of draws the
operator took from its generator, through the generator's state. The
cases cover T = 1 and T = 5, both branches of u in each operator, a pair
passed through uncrossed, a child clipped onto its box, parents equal in
a gene, a zero-span gene, and a call that mutates nothing.
`random.Random(seed).random()` gives the same stream in every Python
version; `**` is the platform's `pow`.

A property then checks both operators against their `min`/`max` versions
in `leader_reference`, bit for bit, on generated boxes and parents.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from leader_reference import minmax_polynomial_mutation, minmax_sbx_crossover

from minetax.variation import polynomial_mutation, sbx_crossover


def _after(seed, draws):
    """The state of random.Random(seed) after `draws` calls of random()."""
    rng = random.Random(seed)
    for _ in range(draws):
        rng.random()
    return rng.getstate()


# (p1, p2, lows, highs)
_SBX_T1 = ((10.0,), (30.0,), (10.0,), (40.0,))
# gene 1 holds equal parents; genes 0 and 3 have their parents as bounds,
# so a spread (u > 0.5) clips a child there
_SBX_T5 = (
    (3.0, 20.0, 7.5, 41.0, 0.25),
    (5.0, 20.0, 60.0, 44.0, 9.0),
    (3.0, 0.0, 0.0, 41.0, 0.0),
    (5.0, 50.0, 62.0, 44.0, 10.0),
)


@pytest.mark.parametrize(
    "case, seed, draws, c1, c2",
    [
        # not crossed: one draw, the parents as they were
        (_SBX_T1, 2, 1, ["0x1.4000000000000p+3"], ["0x1.e000000000000p+4"]),
        # u <= 0.5: the children contract toward each other
        (_SBX_T1, 4, 3, ["0x1.44a08d51a923fp+3"], ["0x1.ddafb9572b6e1p+4"]),
        # u > 0.5: they spread, and the first is clipped onto its low bound
        (_SBX_T1, 7, 3, ["0x1.4000000000000p+3"], ["0x1.e3a2571c81f6ap+4"]),
        # gene 0 kept, gene 1 equal parents, genes 2 and 3 spread (3
        # clipped on both sides), gene 4 contracted
        (
            _SBX_T5, 0, 9,
            ["0x1.8000000000000p+1", "0x1.4000000000000p+4",
             "0x1.dd9a7ed0fd712p+2", "0x1.4800000000000p+5",
             "0x1.0d66f9fadebeep-2"],
            ["0x1.4000000000000p+2", "0x1.4000000000000p+4",
             "0x1.e04cb025e051ep+5", "0x1.6000000000000p+5",
             "0x1.1f94c830290a1p+3"],
        ),
        # gene 0 contracted, genes 1 and 3 kept, genes 2 and 4 spread
        (
            _SBX_T5, 9, 9,
            ["0x1.89ddd9f315911p+1", "0x1.4000000000000p+4",
             "0x1.df69fdd796e70p+2", "0x1.4800000000000p+5",
             "0x1.bf6d42de99d44p-3"],
            ["0x1.3b11130675377p+2", "0x1.4000000000000p+4",
             "0x1.e012c0450d231p+5", "0x1.6000000000000p+5",
             "0x1.21024af48598cp+3"],
        ),
    ],
)
def test_sbx_crossover_golden(case, seed, draws, c1, c2):
    rng = random.Random(seed)
    children = sbx_crossover(*case, rng)
    assert [list(map(float.hex, c)) for c in children] == [c1, c2]
    assert rng.getstate() == _after(seed, draws)


# (x, lows, highs)
_MUT_T1 = ((12.0,), (0.0,), (40.0,))
# gene 1 has zero span
_MUT_T5 = (
    (3.0, 20.0, 7.5, 41.0, 0.25),
    (2.5, 20.0, 0.0, 40.0, 0.0),
    (5.5, 20.0, 62.0, 45.0, 10.0),
)
_KEPT_T5 = ["0x1.8000000000000p+1", "0x1.4000000000000p+4",
            "0x1.e000000000000p+2", "0x1.4800000000000p+5",
            "0x1.0000000000000p-2"]


@pytest.mark.parametrize(
    "case, seed, draws, y",
    [
        # at T = 1 the one gene always mutates: u <= 0.5 moves it down,
        # u > 0.5 up
        (_MUT_T1, 4, 2, ["0x1.2372bd6d02581p+3"]),
        (_MUT_T1, 0, 2, ["0x1.ab76f9b413248p+3"]),
        # no gene mutates: one draw per gene
        (_MUT_T5, 0, 5, _KEPT_T5),
        # the zero-span gene passes its rate draw and takes no u; gene 3
        # moves down (u <= 0.5), then up (u > 0.5)
        (_MUT_T5, 4, 6, _KEPT_T5[:3] + ["0x1.44700aac94c29p+5"] + _KEPT_T5[4:]),
        (_MUT_T5, 7, 6, _KEPT_T5[:3] + ["0x1.48243f927e202p+5"] + _KEPT_T5[4:]),
        # two genes mutate, up and then down
        (
            _MUT_T5, 8, 7,
            _KEPT_T5[:2] + ["0x1.212ba91e56560p+3", "0x1.46b3178cbe63ap+5"]
            + _KEPT_T5[4:],
        ),
    ],
)
def test_polynomial_mutation_golden(case, seed, draws, y):
    rng = random.Random(seed)
    assert list(map(float.hex, polynomial_mutation(*case, rng))) == y
    assert rng.getstate() == _after(seed, draws)


@st.composite
def _boxes_and_parents(draw):
    """1 to 6 genes, each a box [low, high] of zero span at times, with two
    parents in it, each on one of its bounds or anywhere between. Parents
    on the bounds let a spread (u > 0.5) land a child outside the box on
    either side, which the clip puts back on the bound."""
    lows, highs, p1, p2 = [], [], [], []
    for _ in range(draw(st.integers(1, 6))):
        low = draw(st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-10.0, 50.0)))
        # one gene in four of zero span
        zero_span = draw(st.sampled_from((False, False, False, True)))
        high = low + (0.0 if zero_span else draw(st.floats(1e-9, 100.0)))
        lows.append(low)
        highs.append(high)
        for parent in (p1, p2):
            parent.append(draw(st.one_of(
                st.sampled_from((low, high)), st.floats(low, high)
            )))
    return p1, p2, lows, highs


def _hexes(x):
    return list(map(float.hex, x))


@given(case=_boxes_and_parents(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_operators_match_their_minmax_versions(case, seed):
    p1, p2, lows, highs = case
    for a, b in ((p1, p2), (p2, p1)):
        rng, ref = random.Random(seed), random.Random(seed)
        children = sbx_crossover(a, b, lows, highs, rng)
        expected = minmax_sbx_crossover(a, b, lows, highs, ref)
        assert list(map(_hexes, children)) == list(map(_hexes, expected))
        assert rng.getstate() == ref.getstate()
        for c in children:
            y = polynomial_mutation(c, lows, highs, rng)
            assert _hexes(y) == _hexes(minmax_polynomial_mutation(c, lows, highs, ref))
            assert rng.getstate() == ref.getstate()
