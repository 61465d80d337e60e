import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelmc.coefficient import KINDS, CoefficientSample, draw_coefficient, sample_box, sample_cross
from levelmc.mesh import aligned_structured_mesh, structured_unit_square
from levelmc.sampling import UniformSource


class _FixedSource:
    """Feeds a prescribed uniform sequence (test stub)."""

    def __init__(self, values):
        self.values = list(values)

    def next_block(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out)


class TestSampleBox:
    def test_midpoint_uniforms(self):
        s = sample_box(_FixedSource([0.5, 0.5, 0.5]), 300.0)
        assert (s.x, s.y, s.length) == (0.5, 0.5, 0.25)

    def test_support_endpoints(self):
        s = sample_box(_FixedSource([0.0, 0.0, 0.0]), 300.0)
        assert (s.x, s.y, s.length) == (0.4, 0.4, 0.2)

    def test_boxes_inside_enclosing_square(self):
        src = UniformSource("pseudo", seed=8)
        for _ in range(200):
            s = sample_box(src, 10.0)
            h = s.length / 2
            assert 0.25 <= s.x - h and s.x + h <= 0.75
            assert 0.25 <= s.y - h and s.y + h <= 0.75

    def test_draw_order_is_x_y_l(self):
        s = sample_box(_FixedSource([0.0, 0.5, 1.0]), 2.0)
        assert s.x == 0.4 and s.y == 0.5 and s.length == 0.3


class TestSampleCross:
    def test_midpoint(self):
        s = sample_cross(_FixedSource([0.5, 0.5]), 300.0)
        assert (s.x, s.y) == (0.5, 0.5)

    def test_support_corners(self):
        s = sample_cross(_FixedSource([0.0, 1.0]), 300.0)
        assert (s.x, s.y) == (0.4, 0.6)

    def test_quadrants_partition(self):
        s = sample_cross(_FixedSource([0.3, 0.7]), 5.0)
        rng = np.random.default_rng(1)
        pts = rng.random((500, 2))
        off_lines = (pts[:, 0] != s.x) & (pts[:, 1] != s.y)
        values = s.value_at(pts[off_lines])
        assert set(np.unique(values)) == {5.0, 0.2}


class TestEval:
    def test_box_inside_outside(self):
        s = CoefficientSample("box", 0.5, 0.5, 300.0, length=0.2)
        assert s.value_at([0.5, 0.5]) == pytest.approx(1 / 300)
        assert s.value_at([0.1, 0.1]) == pytest.approx(300.0)

    def test_box_boundary_belongs_inside(self):
        s = CoefficientSample("box", 0.5, 0.5, 10.0, length=0.2)
        assert s.value_at([0.6, 0.5]) == pytest.approx(0.1)

    def test_cross_quadrants(self):
        s = CoefficientSample("cross", 0.5, 0.5, 300.0)
        assert s.value_at([0.25, 0.25]) == pytest.approx(300.0)
        assert s.value_at([0.25, 0.75]) == pytest.approx(1 / 300)
        assert s.value_at([0.75, 0.75]) == pytest.approx(300.0)
        assert s.value_at([0.75, 0.25]) == pytest.approx(1 / 300)

    def test_cross_lines_belong_to_second_region(self):
        s = CoefficientSample("cross", 0.5, 0.5, 300.0)
        assert s.value_at([0.5, 0.1]) == pytest.approx(1 / 300)
        assert s.value_at([0.9, 0.5]) == pytest.approx(1 / 300)

    @given(st.floats(0.4, 0.6), st.floats(0.4, 0.6),
           st.floats(0.2, 0.3), st.floats(1.1, 1e4),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200)
    def test_two_valued_and_reciprocal(self, x, y, l, P, px, py):
        for sample in (
            CoefficientSample("box", x, y, P, length=l),
            CoefficientSample("cross", x, y, P),
        ):
            v = sample.value_at([px, py])
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

    def test_draw_gives_each_kind(self):
        assert [draw_coefficient(k, 300.0, 1, 0).kind for k in KINDS] == ["box", "cross"]

    def test_nonpositive_contrast(self):
        with pytest.raises(ValueError):
            CoefficientSample("cross", 0.5, 0.5, 0.0)

    def test_box_needs_length(self):
        with pytest.raises(ValueError):
            CoefficientSample("box", 0.5, 0.5, 2.0)
