import numpy as np
import pytest

from polysafe.datagen import collect, collect_informative
from polysafe.dynamics import Dictionary, Monomial, PlantModel
from polysafe.polytope import PolyhedralSet, grid_blocks
from polysafe import synthesis

# The shipped two-state benchmark: parallelogram safe set, quadratic dictionary,
# single input on the second state, disturbance bound 0.05.
SECV_F = np.array([
    [0.2, 0.4],
    [-0.2, -0.4],
    [-0.15, 0.2],
    [0.15, -0.2],
])
SECV_G = np.ones(4)

# Hand-derived vertices (solve each non-parallel row pair, keep feasible):
# rows (0,2) -> (-2, 3.5); rows (0,3) -> (6, -0.5);
# rows (1,2) -> (-6, 0.5); rows (1,3) -> (2, -3.5).
SECV_VERTICES = np.array([
    [-2.0, 3.5],
    [6.0, -0.5],
    [-6.0, 0.5],
    [2.0, -3.5],
])


def grid_members(safe_set, resolution):
    """Every member of the set's grid at ``resolution``, one per row of a
    (k, n) array, in :func:`~polysafe.polytope.grid_blocks` order."""
    return np.hstack(list(grid_blocks(safe_set, resolution))).T


def true_loop(plant, controller) -> dict:
    """The true closed loop, keyed as the CLI's grid check keys it."""
    return {"true-model": plant.closed_loop(controller)}


def data_loop(data, controller) -> dict:
    """The closed loop the data represent, ``next_states @ [g1 g2]``, keyed
    as the CLI's grid check keys it."""
    return {"data-rep": (data.next_states @ controller.g1, data.next_states @ controller.g2)}


@pytest.fixture(scope="session")
def secv_dictionary():
    return Dictionary([Monomial((2, 0)), Monomial((0, 2))], 2)


@pytest.fixture(scope="session")
def secv_plant(secv_dictionary):
    return PlantModel(
        a1=[[0.8, 0.5], [-0.4, 1.2]],
        a2=[[0.0, 0.0], [1.0, 1.0]],
        b=[[0.0], [1.0]],
        dictionary=secv_dictionary,
        w_bound=0.05,
    )


@pytest.fixture(scope="session")
def secv_set():
    return PolyhedralSet(SECV_F, SECV_G)


@pytest.fixture(scope="session")
def secv_data(secv_plant):
    return collect(secv_plant, 40, 0.003, [0.0, 0.0], seed=7)


@pytest.fixture(scope="session")
def secv_design(secv_data, secv_set):
    return synthesis.synthesize_noiseless(secv_data, secv_set)


def stable_test_plant():
    """A comfortably stable two-state plant for noisy-collection tests."""
    dictionary = Dictionary([Monomial((2, 0))], 2)
    return PlantModel(
        a1=[[0.5, 0.1], [-0.1, 0.4]],
        a2=[[0.05], [0.02]],
        b=[[1.0], [0.5]],
        dictionary=dictionary,
        w_bound=0.05,
    )


def tri_plant_and_set():
    """The 3-state benchmark plant: a parallelepiped safe set, three quadratic
    terms, one input on the third state."""
    P = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.25], [0.2, 0.0, 1.0]])
    safe_set = PolyhedralSet(np.vstack([0.5 * P, -0.5 * P]), np.ones(6))
    dictionary = Dictionary(
        [Monomial((2, 0, 0)), Monomial((0, 2, 0)), Monomial((1, 0, 1))], 3)
    plant = PlantModel(a1=[[0.7, 0.2, 0.0], [0.0, 0.6, 0.3], [0.2, -0.3, 1.1]],
                       a2=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
                       b=[[0.0], [0.0], [1.0]], dictionary=dictionary, w_bound=0.02)
    return plant, safe_set


def tri_problem(samples):
    """The 3-state benchmark plant's safe set and data; data seed 11, no noise."""
    plant, safe_set = tri_plant_and_set()
    data = collect_informative(plant, samples, 0.01, [0.0, 0.0, 0.0], 11,
                               safe_set=safe_set)
    return safe_set, data


def duo_problem(samples):
    """The stable 2-state, 3-term benchmark plant on the secV safe set; data seed 7."""
    safe_set = PolyhedralSet(SECV_F, SECV_G)
    dictionary = Dictionary([Monomial((2, 0)), Monomial((0, 2)), Monomial((1, 1))], 2)
    plant = PlantModel(a1=[[0.7, 0.3], [-0.2, 0.9]], a2=[[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
                       b=[[0.0], [1.0]], dictionary=dictionary, w_bound=0.02)
    data = collect_informative(plant, samples, 0.05, [0.0, 0.0], 7,
                               safe_set=safe_set)
    return safe_set, data
