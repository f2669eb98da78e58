import numpy as np
import pytest

from specgap import ExpressionError, parse_expression


def test_gaussian_expression_matches_numpy():
    f = parse_expression("exp(-norm(x)^2)", 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    np.testing.assert_allclose(f(x), np.exp(-np.sum(x**2, axis=1)), rtol=1e-14)


def test_rational_expression_d1():
    f = parse_expression("1/(1+x1^2)", 1)
    x = np.linspace(-2, 2, 9).reshape(-1, 1)
    np.testing.assert_allclose(f(x), 1 / (1 + x[:, 0] ** 2), rtol=1e-15)


def test_coordinates_and_constants():
    f = parse_expression("x1*x2 + 2", 2)
    x = np.array([[1.0, 3.0], [0.5, -2.0]])
    np.testing.assert_allclose(f(x), [5.0, 1.0])


def test_power_is_caret():
    f = parse_expression("abs(x1)^1.5", 1)
    x = np.array([[-4.0], [9.0]])
    np.testing.assert_allclose(f(x), [8.0, 27.0])


def test_unary_minus_and_division():
    f = parse_expression("-x1/2 + 1", 1)
    np.testing.assert_allclose(f(np.array([[4.0]])), [-1.0])


def test_scalar_broadcast_to_points():
    f = parse_expression("3.5", 1)
    out = f(np.zeros((7, 1)))
    assert out.shape == (7,)
    np.testing.assert_allclose(out, 3.5)


@pytest.mark.parametrize(
    "src",
    [
        "sin(x1)",  # unknown function
        "x3 + 1",  # coordinate out of range for d=2
        "__import__('os')",
        "x1 +",  # syntax error
        "norm(x1)",  # norm only accepts the full point
        "exp(x1, x1)",  # wrong arity
        "",
        "x1 // 2",  # floor division not in the grammar
        "'abc'",  # string literal
        "y + 1",  # unknown identifier
        "x",  # bare full point outside norm()
        "exp(-x01^2)",  # leading zero: not a bound coordinate
        "x\u0661 + 1",  # non-ASCII digit
        "x0",  # coordinates start at x1
        "x1 < 2",  # comparison not in the grammar
        "~x1",  # bitwise inversion not in the grammar
    ],
)
def test_rejects_out_of_grammar(src):
    with pytest.raises(ExpressionError):
        parse_expression(src, 2)


def test_error_message_carries_diagnostics():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_expression("q * 2", 1)
    with pytest.raises(ExpressionError, match="out of range"):
        parse_expression("x5", 2)
    with pytest.raises(ExpressionError, match="out of range"):
        parse_expression("x0", 2)
    with pytest.raises(ExpressionError, match="unknown identifier 'x01'"):
        parse_expression("x01", 2)


def test_rejects_a_nonpositive_dimension():
    with pytest.raises(ExpressionError, match="dimension"):
        parse_expression("1", 0)


def test_wrong_point_shape_rejected_at_call():
    f = parse_expression("x1", 2)
    with pytest.raises(ValueError):
        f(np.zeros((5, 3)))
