import numpy as np

from pabi import IterationSpec, QuadraticModulus


def spec_from(diameter, c, h, sigma) -> IterationSpec:
    """IterationSpec from per-step sequences c_t, h_t and sigma_t."""
    c, h, sigma = (np.asarray(x, dtype=float).tolist() for x in (c, h, sigma))
    return IterationSpec(diameter=float(diameter), sigmas=tuple(sigma), moduli=tuple(map(QuadraticModulus, c, h)))


def same_solution(x, y) -> bool:
    """Bit-identical ShiftSolutions: equal level and shift arrays, equal objectives."""
    return np.array_equal(x.u, y.u) and np.array_equal(x.a, y.a) and x.objective == y.objective


def random_spec(rng: np.random.Generator, t_min: int = 2, t_max: int = 8) -> IterationSpec:
    """Random feasible iteration spec; shared by unit and acceptance tests."""
    horizon = int(rng.integers(t_min, t_max + 1))
    c = rng.uniform(0.5, 1.5, horizon)
    h = rng.uniform(0.0, 2.0, horizon)
    sig = rng.uniform(0.1, 2.0, horizon)
    return spec_from(rng.uniform(0.5, 4.0), c, h, sig)
