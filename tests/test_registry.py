import math
import warnings

import numpy as np
import pytest

from cshd.exceptions import ParameterError
from cshd.registry import REGISTRY, get

from oracles import fd_gradient, fd_hessian, lipschitz_oracle

# sampling neighborhoods keeping each function well scaled
_CENTERS = {
    "rosenbrock2": np.array([1.0, 1.0]),
    "expprod3": np.array([1.0, 0.8, 0.6]),
    "quartic2": np.array([0.5, -0.5]),
    "bilinear2": np.array([0.0, 0.0]),
}


def test_lookup():
    assert get("rosenbrock2").dim == 2
    assert get("expprod3").dim == 3
    with pytest.raises(ParameterError):
        get("nope")


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_analytic_derivatives_match_finite_differences(name):
    func = get(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(10):
        x = _CENTERS[name] + 0.3 * rng.standard_normal(func.dim)
        g, fd_g = func.gradient(x), fd_gradient(func.fn, x)
        assert np.allclose(g, fd_g, rtol=1e-6, atol=1e-6)
        H, fd_H = func.hessian(x), fd_hessian(func.fn, x)
        assert np.allclose(H, fd_H, rtol=1e-6, atol=1e-4 * (1 + np.abs(H).max()))
        assert np.allclose(func.diag_hessian(x), np.diag(H))


def test_rosenbrock_values_at_reference_points():
    rosen = get("rosenbrock2")
    x1 = np.array([1.1, 1.1**2 + 1e-5])
    assert np.allclose(rosen.diag_hessian(x1), [969.996, 200.0], atol=1e-9)
    assert rosen.hessian(x1)[0, 1] == pytest.approx(-440.0, abs=1e-12)
    x2 = np.array([0.9, 0.81])
    assert np.allclose(rosen.diag_hessian(x2), [650.0, 200.0], atol=1e-9)
    assert np.allclose(rosen.gradient(x2), [-0.2, 0.0], atol=1e-12)


def test_expprod_hessian_at_reference_point():
    # hand-derived: exp(6) * [[4,7,14],[7,9,21],[14,21,36]] at (3,2,1)
    func = get("expprod3")
    x = np.array([3.0, 2.0, 1.0])
    expected = np.exp(6.0) * np.array([[4.0, 7.0, 14.0], [7.0, 9.0, 21.0], [14.0, 21.0, 36.0]])
    assert np.allclose(func.hessian(x), expected, rtol=1e-13)


def test_certificates_dominate_empirical_estimates():
    for name, delta in [("rosenbrock2", 0.5), ("quartic2", 0.5), ("expprod3", 0.1)]:
        func = get(name)
        x0 = _CENTERS[name]
        est = lipschitz_oracle(func.fn, x0, delta)
        cert = func.lipschitz_d3(x0, delta)
        assert est <= cert * (1 + 1e-6)


def _old_expprod_certificate(x0, delta):
    # The certificate as numpy scalars computed it before its powers returned inf.
    b = np.abs(np.asarray(x0, dtype=float)) + float(delta)
    m1 = float(max(b[0] * b[1], b[0] * b[2], b[1] * b[2]))
    m2 = float(b.max())
    u = b[0] * b[1] * b[2]
    growth = math.inf if u > math.log(np.finfo(float).max) else float(np.exp(u))
    return 9.0 * growth * (m1**4 + 6.0 * m2 * m1**2 + 3.0 * m2**2 + 4.0 * m1)


def test_expprod_certificate_overflows_to_inf_with_no_warning():
    func = get("expprod3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x0, delta in (([0.0, 0.0, 0.0], 1e80), ([1e40, 1e40, 0.0], 1e-80),
                          ([0.0, 0.0, 0.0], 1e200), ([3.0, 2.0, 1.0], 7.0)):
            assert func.lipschitz_d3(np.array(x0), delta) == np.inf


def test_expprod_certificate_keeps_every_finite_value():
    rng = np.random.default_rng(31)
    func = get("expprod3")
    for _ in range(200):
        x0 = rng.standard_normal(3) * 10.0 ** rng.uniform(-3.0, 1.0)
        delta = 10.0 ** rng.uniform(-8.0, 0.5)
        assert func.lipschitz_d3(x0, delta) == _old_expprod_certificate(x0, delta)


def test_bilinear_certificate_is_zero():
    func = get("bilinear2")
    assert func.lipschitz_d3(np.zeros(2), 1.0) == 0.0
    # its third derivative really is constant (zero)
    assert lipschitz_oracle(func.fn, np.zeros(2), 1.0) <= 1e-6


def test_objective_wrapper_counts():
    obj = get("rosenbrock2").objective()
    obj(np.array([1.0, 1.0]))
    obj(np.array([0.5, 0.5]))
    assert obj.evals == 2
