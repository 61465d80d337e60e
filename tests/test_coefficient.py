import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelmc.coefficient import KINDS, CoefficientSample, draw_coefficient, from_uniforms
from levelmc.mesh import aligned_structured_mesh, structured_unit_square
from levelmc.sampling import UniformSource

# x, y and (box) l of draw_coefficient(kind, 300.0, seed, stream); box and cross
# read the same first two uniforms of a substream, so they share x and y
PINNED_DRAWS = {
    (20000, 0): (0.5806819103292851, 0.42951770858506116, 0.25794996380459984),
    (20000, 7): (0.5701536174229841, 0.4734366158582642, 0.2362215190638517),
    (20000, (6, 9)): (0.5064647320070333, 0.5509871588068135, 0.2536757759256586),
    (5001, 0): (0.5344950069712986, 0.4193954266547464, 0.20719890108806827),
    (5001, 7): (0.45379854406706904, 0.48388542143444074, 0.220756633682812),
    (5001, (6, 9)): (0.5974270169223972, 0.5562307658567897, 0.24890135409498032),
}


class TestSampleBox:
    """Box samples from their uniforms."""

    def test_midpoint_uniforms(self):
        s = from_uniforms("box", 300.0, [0.5, 0.5, 0.5])
        assert (s.x, s.y, s.length) == (0.5, 0.5, 0.25)

    def test_support_endpoints(self):
        s = from_uniforms("box", 300.0, [0.0, 0.0, 0.0])
        assert (s.x, s.y, s.length) == (0.4, 0.4, 0.2)

    def test_boxes_inside_enclosing_square(self):
        for u in itertools.product([0.0, 0.3, 1.0], repeat=3):
            s = from_uniforms("box", 10.0, u)
            h = s.length / 2
            assert 0.25 <= s.x - h and s.x + h <= 0.75
            assert 0.25 <= s.y - h and s.y + h <= 0.75

    def test_draw_order_is_x_y_l(self):
        s = from_uniforms("box", 2.0, [0.0, 0.5, 1.0])
        assert s.x == 0.4 and s.y == 0.5 and s.length == 0.3


class TestSampleCross:
    """Cross samples from their uniforms."""

    def test_midpoint(self):
        s = from_uniforms("cross", 300.0, [0.5, 0.5])
        assert (s.x, s.y, s.length) == (0.5, 0.5, None)

    def test_support_corners(self):
        s = from_uniforms("cross", 300.0, [0.0, 1.0])
        assert (s.x, s.y) == (0.4, 0.6)

    def test_quadrants_partition(self):
        s = from_uniforms("cross", 5.0, [0.3, 0.7])
        rng = np.random.default_rng(1)
        pts = rng.random((500, 2))
        off_lines = (pts[:, 0] != s.x) & (pts[:, 1] != s.y)
        values = s.value_at(pts[off_lines])
        assert set(np.unique(values)) == {5.0, 0.2}


class TestDraw:
    @pytest.mark.parametrize("kind, d", [("box", 3), ("cross", 2)])
    @pytest.mark.parametrize("seed, stream", PINNED_DRAWS)
    def test_draw_is_the_sample_of_its_substreams_uniforms(self, kind, d, seed, stream):
        u = UniformSource("pseudo", seed=seed, stream=stream).next_block(d)
        assert draw_coefficient(kind, 300.0, seed, stream) == from_uniforms(kind, 300.0, u)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed, stream", PINNED_DRAWS)
    def test_pinned_draws(self, kind, seed, stream):
        # every MLMC pair, adaptive path and reference sample starts from such a
        # draw, so its bits are pinned: (6, 9) is PdeLevelModel's (level, k) form
        x, y, length = PINNED_DRAWS[seed, stream]
        s = draw_coefficient(kind, 300.0, seed, stream)
        assert (s.x, s.y, s.length) == (x, y, length if kind == "box" else None)


class TestEval:
    def test_box_inside_outside(self):
        s = CoefficientSample("box", 0.5, 0.5, 300.0, length=0.2)
        assert s.value_at(np.array([[0.5, 0.5], [0.1, 0.1]])) == pytest.approx([1 / 300, 300.0])

    def test_box_boundary_belongs_inside(self):
        s = CoefficientSample("box", 0.5, 0.5, 10.0, length=0.2)
        assert s.value_at(np.array([[0.6, 0.5]])) == pytest.approx([0.1])

    def test_cross_quadrants(self):
        s = CoefficientSample("cross", 0.5, 0.5, 300.0)
        pts = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.75], [0.75, 0.25]])
        assert s.value_at(pts) == pytest.approx([300.0, 1 / 300, 300.0, 1 / 300])

    def test_cross_lines_belong_to_second_region(self):
        s = CoefficientSample("cross", 0.5, 0.5, 300.0)
        assert s.value_at(np.array([[0.5, 0.1], [0.9, 0.5]])) == pytest.approx([1 / 300, 1 / 300])

    @given(st.floats(0.4, 0.6), st.floats(0.4, 0.6),
           st.floats(0.2, 0.3), st.floats(1.1, 1e4),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200)
    def test_two_valued_and_reciprocal(self, x, y, l, P, px, py):
        for sample in (
            CoefficientSample("box", x, y, P, length=l),
            CoefficientSample("cross", x, y, P),
        ):
            v = sample.value_at(np.array([[px, py]]))[0]
            assert v == P or v == pytest.approx(1.0 / P)

    def test_determinism(self):
        s = CoefficientSample("box", 0.45, 0.55, 7.0, length=0.25)
        pts = np.random.default_rng(2).random((50, 2))
        assert np.array_equal(s.value_at(pts), s.value_at(pts))


class TestElementValues:
    def test_elements_inside_and_outside(self):
        s = CoefficientSample("box", 0.5, 0.5, 300.0, length=0.4)
        mesh = structured_unit_square(10)
        values = s.element_values(mesh)
        bary = mesh.barycenters
        inside = (np.abs(bary[:, 0] - 0.5) <= 0.2) & (np.abs(bary[:, 1] - 0.5) <= 0.2)
        assert np.allclose(values[inside], 1 / 300)
        assert np.allclose(values[~inside], 300.0)

    def test_aligned_mesh_is_exact(self):
        s = CoefficientSample("box", 0.4, 0.6, 300.0, length=0.3)
        bx, by = s.break_lines()
        mesh = aligned_structured_mesh(bx, by, 8)
        values = s.element_values(mesh)
        # exactness: the value at every interior point of an element matches
        # the barycenter value (no element straddles the discontinuity)
        p = mesh.vertices[mesh.triangles]
        for w in ((0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6)):
            probe = (p * np.array(w)[None, :, None]).sum(axis=1)
            assert np.array_equal(s.value_at(probe), values)


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CoefficientSample("disc", 0.5, 0.5, 2.0)

    @pytest.mark.parametrize("kind", ["Box", "disc", ""])
    def test_draw_refuses_an_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=f"^unknown coefficient kind {kind!r}$"):
            draw_coefficient(kind, 300.0, 1, 0)
        with pytest.raises(ValueError, match=f"^unknown coefficient kind {kind!r}$"):
            from_uniforms(kind, 300.0, [0.5, 0.5, 0.5])

    def test_draw_gives_each_kind(self):
        assert [draw_coefficient(k, 300.0, 1, 0).kind for k in KINDS] == ["box", "cross"]

    def test_nonpositive_contrast(self):
        with pytest.raises(ValueError):
            CoefficientSample("cross", 0.5, 0.5, 0.0)

    def test_box_needs_length(self):
        with pytest.raises(ValueError):
            CoefficientSample("box", 0.5, 0.5, 2.0)
