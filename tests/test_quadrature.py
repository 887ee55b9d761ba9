import inspect
import math

import pytest

from tsvar import (ConvergenceError, adaptive_simpson, brute_force_minimizer,
                   brute_force_minimizer_2d, richardson_limit, variational)


def test_iteration_caps_are_module_constants():
    # Depth and step caps, the minimizers' Newton step cap, gradient
    # tolerance and bound on unknowns are fixed constants, not per-call
    # settings.
    signatures = {fn.__name__: list(inspect.signature(fn).parameters)
                  for fn in (adaptive_simpson, richardson_limit,
                             brute_force_minimizer, brute_force_minimizer_2d)}
    assert signatures == {
        "adaptive_simpson": ["f", "a", "b", "tol"],
        "richardson_limit": ["sample", "h0", "order", "tol"],
        "brute_force_minimizer": ["p"],
        "brute_force_minimizer_2d": ["dp"],
    }
    assert type(variational.NEWTON_MAX_STEPS) is int and variational.NEWTON_MAX_STEPS > 0
    assert type(variational.MINIMIZER_MAX_UNKNOWNS) is int
    assert variational.MINIMIZER_MAX_UNKNOWNS > 0
    assert 0 < variational.NEWTON_GRAD_TOL < 1e-9


class TestAdaptiveSimpson:
    def test_cubic_is_exact_for_simpson(self):
        value, err = adaptive_simpson(lambda x: x**3 - 2 * x, 0.0, 2.0, 1e-10)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert err <= 1e-10

    def test_sine_quarter_wave(self):
        value, err = adaptive_simpson(math.sin, 0.0, math.pi, 1e-10)
        assert abs(value - 2.0) <= 1e-9
        assert abs(value - 2.0) <= max(err * 100, 1e-12)

    def test_sharp_peak_subdivides(self):
        value, _ = adaptive_simpson(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, 1e-10)
        exact = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
        assert abs(value - exact) <= 1e-6 * exact

    def test_depth_limit_miss_raises(self):
        # The singularity of x^(-1/2) at 0 exhausts the depth before the
        # tolerance is met; the best estimate travels with the error.
        with pytest.raises(ConvergenceError) as exc_info:
            adaptive_simpson(lambda x: x ** -0.5 if x > 0 else 0.0, 0.0, 1.0, 1e-10)
        assert abs(exc_info.value.estimate - 2.0) < 1e-5
        assert exc_info.value.error > 1e-10

    def test_empty_range(self):
        value, err = adaptive_simpson(math.sin, 1.0, 1.0, 1e-10)
        assert value == 0.0 and err == 0.0


class TestRichardsonLimit:
    def test_first_order_sequence(self):
        value, est = richardson_limit(lambda h: (math.exp(h) - 1.0) / h, 0.5, order=1)
        assert abs(value - 1.0) <= 1e-10
        assert abs(value - 1.0) <= max(10 * est, 1e-12)

    def test_second_order_sequence(self):
        def central(h):
            return (math.sin(1.0 + h) - math.sin(1.0 - h)) / (2.0 * h)

        value, _ = richardson_limit(central, 0.25, order=2)
        assert abs(value - math.cos(1.0)) <= 1e-11

    def test_non_convergent_raises_with_estimate(self):
        def wobble(h):
            return math.sin(1.0 / h)

        with pytest.raises(ConvergenceError) as exc_info:
            richardson_limit(wobble, 0.3, order=1)
        assert exc_info.value.estimate is not None
        assert exc_info.value.error > 1e-10
