"""render_svg against the component-by-component drawing it replaced, and
its refusal of a figure above render.MAX_RENDER_POINTS."""

import gc
import tracemalloc
from fractions import Fraction as F

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simiso import packings as pk, render
from simiso.lattices import Lattice
from simiso.packings import PointPacking
from simiso.presets import PRESETS, preset
from simiso.render import render_svg
from simiso.rings import EISENSTEIN, GAUSSIAN, FieldElem, over_denominator, pair_norm
from simiso.similarity import Similarity

import references as ref

RINGS = st.sampled_from((GAUSSIAN, EISENSTEIN))


@st.composite
def figures(draw):
    """A packing over a sheared Γ = (1/den)·⟨(h00 + c·h01, c·h11), (h01, h11)⟩
    with den ≤ 7, often not a ring lattice, with m ≤ 3 shifts; any nonzero
    w = (a + bu)·(p/q), rotation or reflection; and a window whose corners
    have denominators ≤ 7; both rings."""
    ring = draw(RINGS)
    h00, h11 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h01, c = draw(st.integers(0, h00 - 1)), draw(st.integers(-2, 2))
    den = draw(st.integers(1, 7))
    gamma = Lattice.from_generators(
        ring, [(F(h00 + c * h01, den), F(c * h11, den)), (F(h01, den), F(h11, den))])
    coord = st.fractions(-2, 2, max_denominator=7)
    shifts = [FieldElem(ring, *draw(st.tuples(coord, coord)))]
    for a, b in draw(st.lists(st.tuples(coord, coord), max_size=2)):
        x = FieldElem(ring, a, b)
        if all(not gamma.contains(x - y) for y in shifts):
            shifts.append(x)
    a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda ab: ab != (0, 0)))
    ratio = draw(st.fractions(F(1, 3), 3, max_denominator=3))
    s = Similarity(FieldElem(ring, a, b).scale(ratio), draw(st.booleans()))
    corner = st.fractions(-5, 5, max_denominator=7)
    side = st.fractions(F(1, 7), 5, max_denominator=7)
    x0, y0, w, h = draw(corner), draw(corner), draw(side), draw(side)
    return PointPacking(gamma, tuple(shifts)), s, (x0, y0, x0 + w, y0 + h)


class TestRenderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(figures(), st.booleans())
    def test_byte_equal(self, figure, with_image):
        packing, s, window = figure
        image = s.image_lattice(packing.lattice)
        assume(ref.circle_bound(packing, image, window) <= 3_000)
        s, image = (s, image) if with_image else (None, None)
        assert render_svg(packing, s, over_denominator(window)) == ref.render_svg(
            packing, s, image, window)

    def test_presets(self):
        # Each preset under a rotation and a reflection by a ring element,
        # over a window with fractional corners.
        window = (F(-7, 2), F(-10, 3), F(9, 2), F(17, 5))
        for name in PRESETS:
            packing = preset(name)
            for conjugate in (False, True):
                s = Similarity(FieldElem(packing.ring, 2, 1), conjugate)
                image = s.image_lattice(packing.lattice)
                assert render_svg(packing, s, over_denominator(window)) == ref.render_svg(
                    packing, s, image, window)

    def test_presets_over_benchmark_sides(self):
        # The render benchmark's traffic: each preset under an accepted
        # rotation and an accepted reflection by w = p·z with N(z) = 5 over
        # Z[i] or 7 over Z[ω] and p ≤ 3, over windows of sides 6, 12 and 18,
        # here with a corner that is not an integer.
        for name in PRESETS:
            packing = preset(name)
            ring = packing.ring
            for conjugate in (False, True):
                s = next(s for a in range(-3, 4) for b in range(-3, 4)
                         if pair_norm(ring, a, b) in (5, 7) for p in (1, 2, 3)
                         for s in [Similarity(FieldElem(ring, a, b).scale(F(p)), conjugate)]
                         if pk.check_similarity(packing, s).accepted)
                image = s.image_lattice(packing.lattice)
                for side in (6, 12, 18):
                    x0, y0 = F(-side, 2) - F(1, 3), F(-side // 2 + 1)
                    window = (x0, y0, x0 + side, y0 + side)
                    assert render_svg(packing, s, over_denominator(window)) == ref.render_svg(
                        packing, s, image, window), (name, conjugate, side)


class TestRenderCap:
    @settings(max_examples=150, deadline=None)
    @given(figures(), st.booleans(), st.integers(0, 600))
    def test_refuses_exactly_above_the_cap(self, figure, with_image, cap):
        # With the cap drawn small, render_svg refuses exactly the figures
        # whose circle bound on Fraction corners exceeds it; a refusal builds
        # no Fraction and walks no point.
        packing, s, window = figure
        image = s.image_lattice(packing.lattice) if with_image else None
        s = s if with_image else None
        expected = ref.circle_bound(packing, image, window)
        window = over_denominator(window)
        walks, built = [], []
        walk, new = render.points_in_window, F.__new__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(render, "MAX_RENDER_POINTS", cap)
            mp.setattr(render, "points_in_window", lambda *a: walks.append(a) or walk(*a))
            mp.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
            if expected > cap:
                with pytest.raises(ValueError, match=f"up to {expected} circles; at most {cap} "):
                    render_svg(packing, s, window)
                assert walks == [] and built == []
            else:
                assert render_svg(packing, s, window).startswith("<?xml")
                assert len(walks) == packing.m * (2 if with_image else 1)


class TestRenderKeepsNoState:
    def test_figures_retain_no_memory(self):
        # A figure's texts live as long as the figure: after drawing twenty
        # windows of side 18, about 17,000 circles with distinct cx and cy
        # floats, the process holds no more memory than before.
        packing = preset("hex-shifted")
        s = Similarity(FieldElem(EISENSTEIN, 2, 1), True)
        windows = [(7, (x0, x0, x0 + 126, x0 + 126)) for x0 in range(-70, -50)]
        render_svg(packing, s, windows[0])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for window in windows:
                render_svg(packing, s, window)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 20_000, kept
