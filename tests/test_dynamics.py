import itertools
import math

import numpy as np
import pytest

from polysafe.dynamics import (
    CosM1Term,
    Dictionary,
    Monomial,
    PlantModel,
    SinTerm,
    term_from_json,
)
from polysafe.errors import DimensionMismatchError, DisturbanceOutOfBoundsError
from polysafe.polytope import Box


TERM_KINDS = {
    "degree-1": Monomial((0, 1, 0)),
    "degree-2": Monomial((1, 0, 1)),
    "degree-3": Monomial((2, 1, 0)),
    "sin": SinTerm(2),
    "cosm1": CosM1Term(1),
}


def quad_dict():
    return Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)


class TestTermValidation:
    def test_monomial_needs_degree(self):
        with pytest.raises(ValueError):
            Monomial((0, 0))

    def test_monomial_rejects_negative(self):
        with pytest.raises(ValueError):
            Monomial((-1, 2))

    def test_coord_range_checked(self):
        with pytest.raises(DimensionMismatchError):
            Dictionary([SinTerm(3)], 2)

    def test_exponent_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            Dictionary([Monomial((2,))], 2)

    def test_needs_a_term(self):
        with pytest.raises(ValueError):
            Dictionary([], 2)


class TestEvaluation:
    def test_quadratic_values(self):
        np.testing.assert_allclose(quad_dict().values([1.0, 2.0]), [1.0, 4.0])

    def test_batched_values(self):
        pts = np.array([[1.0, 2.0], [0.0, 0.0], [2.0, -1.0]])
        np.testing.assert_allclose(quad_dict().values(pts), [[1, 4], [0, 0], [4, 1]])

    def test_values_are_exact_left_to_right_products(self):
        # monomials of degree 1-4 against hand-written products of the
        # columns, compared bitwise: a float pow rounds differently from
        # x * x on some inputs and some CPUs
        exponents = [(1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 0, 1), (0, 2, 1),
                     (3, 1, 0), (2, 2, 0), (1, 1, 2), (4, 0, 0), (0, 0, 3)]
        d = Dictionary([Monomial(e) for e in exponents] + [SinTerm(1), CosM1Term(2)], 3)
        x = np.random.default_rng(17).uniform(-7.0, 7.0, size=(4000, 3))
        x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
        expected = np.stack([
            x0, x2, x0 * x0, x0 * x2, x1 * x1 * x2,
            x0 * x0 * x0 * x1, x0 * x0 * x1 * x1, x0 * x1 * x2 * x2, x0 * x0 * x0 * x0,
            x2 * x2 * x2, np.sin(x1), np.cos(x2) - 1.0], axis=-1)
        values = d.values(x)
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(values[:, 2], x0 * x0)
        for i in (0, 1, 1234):
            point = d.values(x[i])
            assert point.shape == (d.n_terms,)
            np.testing.assert_array_equal(point, values[i])
            assert point[5] == float(x[i, 0]) * float(x[i, 0]) * float(x[i, 0]) * float(x[i, 1])

    @pytest.mark.parametrize("shape", [(3,), (5000, 3), (4, 7, 3)])
    @pytest.mark.parametrize("kind", [*TERM_KINDS, "all"])
    def test_bitwise_equal_to_stacked_columns(self, kind, shape):
        # values writes each column into one preallocated output; the bytes
        # must match computing the columns apart and joining them with
        # np.stack, signed zeros included
        terms = list(TERM_KINDS.values()) if kind == "all" else [TERM_KINDS[kind]]
        d = Dictionary(terms, 3)
        x = np.random.default_rng(len(shape)).uniform(-7.0, 7.0, size=shape)
        x.reshape(-1, 3)[0] = [0.0, -0.0, -0.0]
        cols = []
        for t in terms:
            if isinstance(t, Monomial):
                factors = [k for k, e in enumerate(t.exponents) for _ in range(e)]
                col = x[..., factors[0]]
                for k in factors[1:]:
                    col = col * x[..., k]
                cols.append(col)
            elif isinstance(t, SinTerm):
                cols.append(np.sin(x[..., t.coord]))
            else:
                cols.append(np.cos(x[..., t.coord]) - 1.0)
        expected = np.stack(cols, axis=-1)
        values = d.values(x)
        assert values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()

    def test_one_point_matches_batched_row(self, monkeypatch):
        # a single point of a monomial-only dictionary is evaluated on Python
        # floats; each value must carry the bytes of its batched row: signed
        # zeros, subnormals, overflow to inf and NaN included
        exponents = [(1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 0, 1), (0, 2, 1),
                     (3, 1, 0), (2, 2, 0), (1, 1, 2), (4, 0, 0), (0, 0, 3)]
        d = Dictionary([Monomial(e) for e in exponents], 3)
        x = np.random.default_rng(23).uniform(-7.0, 7.0, size=(200, 3))
        x[:6] = [[0.0, -0.0, -0.0], [-0.0, 3.0, -2.0], [1e-160, -1e-160, 5e-324],
                 [1e200, -1e120, 2.0], [np.nan, 1.0, -0.0], [-np.inf, 0.0, 1.0]]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            batched = d.values(x)
        written = []
        monkeypatch.setattr(Dictionary, "_write_values",
                            lambda self, *args: written.append(args))
        for point, row in zip(x, batched):
            assert d.values(point).tobytes() == row.tobytes()
        assert d.values(list(x[7])).tobytes() == batched[7].tobytes()
        assert not written
        # a sin or cos - 1 term keeps the numpy path
        Dictionary([Monomial((2, 0, 0)), SinTerm(1)], 3).values(x[0])
        assert len(written) == 1


class TestLinearization:
    def test_quadratics_have_zero_slope(self):
        np.testing.assert_allclose(quad_dict().linearization(), np.zeros((2, 2)))

    def test_sin_slope_is_one(self):
        np.testing.assert_allclose(
            Dictionary([SinTerm(0)], 2).linearization(), [[1.0, 0.0]])

    def test_cosm1_slope_is_zero(self):
        np.testing.assert_allclose(
            Dictionary([CosM1Term(1)], 2).linearization(), [[0.0, 0.0]])

    def test_degree_one_monomial_slope(self):
        np.testing.assert_allclose(
            Dictionary([Monomial((0, 1))], 2).linearization(), [[0.0, 1.0]])

    def test_sin_and_product_slope(self):
        # x0 * x1 has degree 2: flat at the origin, like every product
        np.testing.assert_allclose(
            Dictionary([SinTerm(0), Monomial((1, 1))], 2).linearization(), [[1, 0], [0, 0]])


class TestRemainder:
    def test_quadratic_remainder_is_value(self):
        np.testing.assert_allclose(quad_dict().remainder([1.0, 1.0]), [1.0, 1.0])

    def test_sine_remainder_value(self):
        d = Dictionary([SinTerm(0)], 2)
        got = d.remainder([math.pi / 6.0, 0.0])
        np.testing.assert_allclose(got, [0.5 - math.pi / 6.0], atol=1e-15)

    def test_unit_slopes_match_linearization_product(self):
        # subtracting each unit slope's coordinate is the same, bit for bit,
        # as subtracting x @ linearization().T, on every term kind
        d = Dictionary([Monomial((1, 0, 0)), Monomial((0, 0, 1)), Monomial((2, 0, 0)),
                        Monomial((1, 1, 0)), Monomial((0, 2, 1)), SinTerm(1), SinTerm(2),
                        CosM1Term(0)], 3)
        x = np.random.default_rng(29).uniform(-7.0, 7.0, size=(5000, 3))
        np.testing.assert_array_equal(d.remainder(x), d.values(x) - x @ d.linearization().T)
        np.testing.assert_array_equal(d.remainder(x[7]), d.remainder(x)[7])

    def test_remainder_vanishes_at_origin(self):
        d = Dictionary([Monomial((1, 2)), SinTerm(1), CosM1Term(0)], 2)
        np.testing.assert_allclose(d.remainder([0.0, 0.0]), np.zeros(3), atol=0.0)


class TestLift:
    @pytest.mark.parametrize("k", [1, 2, 2049])
    @pytest.mark.parametrize("kind", [*TERM_KINDS, "all"])
    def test_bitwise_equal_to_row_major_remainder(self, kind, k):
        # the coordinate-major lift takes the same multiplication chain and
        # unit-slope subtraction as remainder, so every byte matches, signed
        # zeros included
        terms = list(TERM_KINDS.values()) if kind == "all" else [TERM_KINDS[kind]]
        d = Dictionary(terms, 3)
        x = np.random.default_rng(k).uniform(-7.0, 7.0, size=(3, k))
        x[:, 0] = [0.0, -0.0, -0.0]
        buf = np.full((3 + d.n_terms, k), np.nan)
        buf[:3] = x
        assert d.lift(buf) is buf
        assert buf[:3].tobytes() == x.tobytes()
        assert buf[3:].tobytes() == np.ascontiguousarray(d.remainder(x.T).T).tobytes()

    def test_buffer_rows_checked(self):
        d = Dictionary(list(TERM_KINDS.values()), 3)
        with pytest.raises(DimensionMismatchError):
            d.lift(np.zeros((3 + d.n_terms - 1, 4)))


class TestLipschitz:
    def test_quadratic_over_secv_box(self):
        # max row sum of the remainder Jacobian: |2 x1| <= 12 beats |2 x2| <= 7
        box = Box([-6.0, -3.5], [6.0, 3.5])
        assert abs(quad_dict().lipschitz_bound(box) - 12.0) <= 1e-12

    def test_sine_bounded_by_two(self):
        box = Box([-100.0, -1.0], [100.0, 1.0])
        d = Dictionary([SinTerm(0)], 2)
        assert d.lipschitz_bound(box) <= 2.0 + 1e-12

    def test_zero_remainder_gives_zero(self):
        box = Box([-6.0, -3.5], [6.0, 3.5])
        d = Dictionary([Monomial((1, 0))], 2)
        assert d.lipschitz_bound(box) == 0.0

    def test_sampled_soundness(self):
        box = Box([-6.0, -3.5], [6.0, 3.5])
        d = Dictionary([Monomial((2, 0)), Monomial((0, 2)), SinTerm(0), CosM1Term(1)], 2)
        bound = d.lipschitz_bound(box)
        rng = np.random.default_rng(17)
        x = rng.uniform(box.lo, box.hi, size=(100_000, 2))
        y = rng.uniform(box.lo, box.hi, size=(100_000, 2))
        lhs = np.max(np.abs(d.remainder(x) - d.remainder(y)), axis=1)
        rhs = bound * np.max(np.abs(x - y), axis=1)
        assert np.all(lhs <= rhs + 1e-9)

    def test_sampled_soundness_on_narrow_boxes(self):
        # boxes narrower than 2 pi take the cos and sin critical-point scan,
        # and boxes on one side of 0 the even powers' one-signed branches
        d = Dictionary([Monomial((1, 2)), Monomial((0, 3)), Monomial((2, 1)),
                        SinTerm(0), CosM1Term(1)], 2)
        rng = np.random.default_rng(5)
        centers = rng.uniform(-4.0, 4.0, size=(300, 2))
        widths = rng.uniform(0.01, 3.0, size=(300, 2))
        boxes = [Box([-1.0, -2.5], [2.0, -0.5])]
        boxes += [Box(c - w / 2, c + w / 2) for c, w in zip(centers, widths)]
        for box in boxes:
            bound = d.lipschitz_bound(box)
            x = rng.uniform(box.lo, box.hi, size=(200, 2))
            y = rng.uniform(box.lo, box.hi, size=(200, 2))
            lhs = np.max(np.abs(d.remainder(x) - d.remainder(y)), axis=1)
            rhs = bound * np.max(np.abs(x - y), axis=1)
            assert np.all(lhs <= rhs + 1e-9), (box.lo, box.hi)


class TestRemainderBounds:
    def test_sampled_soundness_on_scaled_boxes(self):
        # |r_j(x)| <= c_j rho**d_j on rho * box for every term kind, on a box
        # whose largest |coordinate| is lo for some axes and hi for others
        d = Dictionary([Monomial((1, 0, 0)), Monomial((1, 1, 0)), Monomial((0, 0, 3)),
                        Monomial((2, 0, 1)), SinTerm(1), CosM1Term(2)], 3)
        box = Box([-0.7, -1.3, -0.4], [1.1, 0.5, 0.9])
        coeffs, degrees = d.remainder_bounds(box)
        assert degrees.tolist() == [1, 2, 3, 3, 3, 2]
        np.testing.assert_allclose(coeffs, [0.0, 1.1 * 1.3, 0.9 ** 3, 1.1 ** 2 * 0.9,
                                            1.3 ** 3 / 6, 0.9 ** 2 / 2], rtol=1e-15)
        rng = np.random.default_rng(3)
        corners = np.array(list(itertools.product(*zip(box.lo, box.hi))))
        for rho in (1e-3, 0.05, 0.3, 0.7, 1.0):
            x = rho * np.vstack([rng.uniform(box.lo, box.hi, size=(20_000, 3)), corners])
            size = np.abs(d.remainder(x)).max(axis=0)
            bound = coeffs * rho ** degrees
            assert np.all(size <= bound * (1 + 1e-12)), (rho, size, bound)
            # the monomials' bounds are reached at a corner
            np.testing.assert_allclose(size[:4], bound[:4], rtol=1e-12)
        assert not d.remainder(x)[:, 0].any()

    def test_box_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            quad_dict().remainder_bounds(Box([-1.0], [1.0]))


class TestPlant:
    def test_step_example(self, secv_plant):
        np.testing.assert_allclose(secv_plant.step([1.0, 0.0], [0.0]), [0.8, 0.6], atol=1e-15)

    def test_origin_fixed_without_input(self, secv_plant):
        np.testing.assert_allclose(secv_plant.step([0.0, 0.0], [0.0]), [0.0, 0.0], atol=0.0)

    def test_disturbance_bound_enforced(self, secv_plant):
        with pytest.raises(DisturbanceOutOfBoundsError):
            secv_plant.step([1.0, 0.0], [0.0], w=[0.06, 0.0])

    def test_closed_loop_identity(self, secv_plant):
        # step with the feedback law equals the linear/remainder decomposition
        rng = np.random.default_rng(2)
        d = secv_plant.dictionary
        lin_base = secv_plant.linear_base()
        for _ in range(50):
            k1 = rng.normal(size=(1, 2))
            k2 = rng.normal(size=(1, 2))
            x = rng.uniform(-2, 2, size=2)
            w = rng.uniform(-0.05, 0.05, size=2)
            u = k1 @ x + k2 @ d.remainder(x)
            direct = secv_plant.step(x, u, w)
            decomposed = ((lin_base + secv_plant.b @ k1) @ x
                          + (secv_plant.a2 + secv_plant.b @ k2) @ d.remainder(x) + w)
            np.testing.assert_allclose(direct, decomposed, atol=1e-12)

    def test_simulate_records_states_and_inputs(self, secv_plant):
        class Gains:
            k1 = np.array([[0.3, -1.2]])
            k2 = np.array([[-1.0, -1.0]])

        traj = secv_plant.simulate(Gains(), [0.5, 0.5], 10)
        assert traj.states.shape == (11, 2)
        assert traj.inputs.shape == (10, 1)
        u0 = Gains.k1 @ np.array([0.5, 0.5]) + Gains.k2 @ secv_plant.dictionary.remainder([0.5, 0.5])
        np.testing.assert_allclose(traj.inputs[0], u0, atol=1e-15)
        np.testing.assert_allclose(
            traj.states[1], secv_plant.step([0.5, 0.5], u0), atol=1e-15)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_simulate_replays_step_bitwise(self, secv_plant, noisy):
        class Gains:
            k1 = np.array([[0.3, -1.2]])
            k2 = np.array([[-1.0, -1.0]])

        noise = (np.random.default_rng(4).uniform(-0.05, 0.05, size=(20, 2))
                 if noisy else None)
        traj = secv_plant.simulate(Gains(), [-0.5, 0.5], 20, noise)
        x = np.array([-0.5, 0.5])
        for t in range(20):
            u = Gains.k1 @ x + Gains.k2 @ secv_plant.dictionary.remainder(x)
            x = secv_plant.step(x, u, None if noise is None else noise[t])
            assert traj.states[t + 1].tobytes() == x.tobytes()

    def test_simulate_checks_the_whole_stream_first(self, secv_plant):
        class Gains:
            k1 = np.zeros((1, 2))
            k2 = np.zeros((1, 2))

        noise = np.zeros((10, 2))
        noise[9, 1] = 0.06
        with pytest.raises(DisturbanceOutOfBoundsError):
            secv_plant.simulate(Gains(), [0.5, 0.5], 10, noise)
        # rows past the horizon are not read, so not checked
        secv_plant.simulate(Gains(), [0.5, 0.5], 9, noise)
        with pytest.raises(DimensionMismatchError):
            secv_plant.simulate(Gains(), [0.5, 0.5], 10, noise[:9])

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            PlantModel(a1=np.eye(2), a2=np.ones((2, 3)), b=np.ones((2, 1)),
                       dictionary=quad_dict())


class TestSerialization:
    def test_round_trip(self):
        doc = [
            {"kind": "monomial", "exponents": [2, 0]},
            {"kind": "sin", "coord": 1},
            {"kind": "cosm1", "coord": 0},
        ]
        assert [term_from_json(o) for o in doc] == [Monomial((2, 0)), SinTerm(1), CosM1Term(0)]
        assert Dictionary.from_json(doc, 2).terms == [Monomial((2, 0)), SinTerm(1), CosM1Term(0)]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            term_from_json({"kind": "tanh", "coord": 0})
