"""Gradient checks for every autodiff primitive against central differences.

Each op gets a scalar-valued composite (op output folded to a scalar with a
weighted sum so every output coordinate influences the objective) and its
analytic gradient is compared to a finite-difference estimate at h=1e-5.
A RuntimeWarning fails a test here, so an inf * 0 in a gradient gate shows.
"""

import tracemalloc

import numpy as np
import pytest

from pathembed.autodiff import (
    Tensor,
    affine,
    concat,
    gather_rows,
    l2norm_rows,
    pair_distance,
    pair_hidden,
    row_slice,
    scatter_rows,
    segment_sum,
)

from gradcheck import max_rel_error, numeric_grad

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TOL = 1e-6


def check_unary(op, x, weights=None):
    """Analytic vs numeric gradient of sum(w * op(x))."""
    w = weights if weights is not None else np.ones_like(op(Tensor(x)).data)

    def f(arrays):
        return float((op(Tensor(arrays[0])).data * w).sum())

    t = Tensor(x, requires_grad=True)
    out = op(t)
    (out * Tensor(w)).sum().backward()
    num = numeric_grad(f, [x], which=0)
    return max_rel_error(t.grad, num)


OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
       "*": lambda x, y: x * y, "/": lambda x, y: x / y}


@pytest.mark.parametrize("op", OPS)
def test_binary_op_refuses_a_tensor_of_another_shape(op):
    # nothing broadcasts: a bias row is added by affine or pair_hidden
    t = Tensor(np.ones((4, 3)), requires_grad=True)
    for other in (Tensor(np.ones(3), requires_grad=True), Tensor(np.ones((4, 1))),
                  Tensor(np.ones((3, 4))), Tensor(np.ones((4, 3, 1)))):
        with pytest.raises(ValueError) as info:
            OPS[op](t, other)
        assert "(4, 3)" in str(info.value) and str(other.shape) in str(info.value)


@pytest.mark.parametrize("op", OPS)
def test_binary_op_refuses_an_array_constant_of_another_shape(op):
    t = Tensor(np.ones((4, 3)), requires_grad=True)
    for other in (np.ones(3), np.ones((4, 1)), np.ones((3, 4)), np.array(2.0)):
        with pytest.raises(ValueError) as info:
            OPS[op](t, other)
        assert "(4, 3)" in str(info.value) and str(other.shape) in str(info.value)
    for other, name in (([[1.0, 2.0, 3.0]] * 4, "list"), ([[1.0], [1.0, 2.0]], "list"),
                        (2, "int")):
        with pytest.raises(ValueError, match=f"of shape \\(4, 3\\) .* not {name}$"):
            OPS[op](t, other)


@pytest.mark.parametrize("op", OPS)
def test_a_constant_operand_is_no_parent(op):
    rng = np.random.default_rng(0)
    x = rng.uniform(1.0, 2.0, size=(4, 3))
    w = rng.normal(size=(4, 3))
    for const in (2.5, np.float64(0.5), rng.uniform(1.0, 2.0, size=(4, 3))):
        t = Tensor(x, requires_grad=True)
        out = OPS[op](t, const)
        assert len(out._parents) == 1 and out._parents[0] is t
        assert out.data.tobytes() == OPS[op](x, const).tobytes()
        (out * w).sum().backward()

        def f(arrays):
            return float((OPS[op](arrays[0], const) * w).sum())

        assert max_rel_error(t.grad, numeric_grad(f, [x], which=0)) < TOL


def test_mul_div_sub_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2)) + 3.0
    w = rng.normal(size=(5, 2))

    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    expr = (ta * tb - ta / tb) * Tensor(w)
    expr.sum().backward()

    def f(arrays):
        x, y = arrays
        return float(((x * y - x / y) * w).sum())

    assert max_rel_error(ta.grad, numeric_grad(f, [a, b], which=0)) < TOL
    assert max_rel_error(tb.grad, numeric_grad(f, [a, b], which=1)) < TOL


def test_exp_log_relu_grads():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.5, 2.0, size=(6,))
    w = rng.normal(size=(6,))
    assert check_unary(lambda t: t.exp(), x, w) < TOL
    assert check_unary(lambda t: t.log(), x, w) < TOL
    # keep relu probes away from the kink
    xr = rng.normal(size=(8,))
    xr[np.abs(xr) < 0.05] = 0.5
    assert check_unary(lambda t: t.relu(), xr, rng.normal(size=(8,))) < 1e-5


def test_softplus_grad_and_no_overflow():
    rng = np.random.default_rng(21)
    x = rng.normal(scale=3.0, size=(7,))
    assert check_unary(lambda t: t.softplus(), x, rng.normal(size=(7,))) < TOL
    t = Tensor(np.array([-800.0, 0.0, 800.0]), requires_grad=True)
    out = t.softplus()
    out.sum().backward()
    np.testing.assert_allclose(out.data, [0.0, np.log(2.0), 800.0], rtol=1e-12)
    np.testing.assert_allclose(t.grad, [0.0, 0.5, 1.0], rtol=0, atol=1e-12)


def test_clamp_grad_masks_outside():
    # the bounds themselves pass the gradient
    x = np.array([-2.0, -1.0, -0.5, 0.3, 1.0, 1.4])
    t = Tensor(x, requires_grad=True)
    t.clamp(-1.0, 1.0).sum().backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 1.0, 1.0, 1.0, 0.0])


def test_matmul_grad():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5))
    w = rng.normal(size=(4, 5))

    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    ((ta @ tb) * Tensor(w)).sum().backward()

    def f(arrays):
        return float(((arrays[0] @ arrays[1]) * w).sum())

    assert max_rel_error(ta.grad, numeric_grad(f, [a, b], which=0)) < TOL
    assert max_rel_error(tb.grad, numeric_grad(f, [a, b], which=1)) < TOL


def test_sum_mean_axis_grads():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    w0 = rng.normal(size=(4,))
    t = Tensor(x, requires_grad=True)
    (t.sum(axis=0) * Tensor(w0)).sum().backward()

    def f(arrays):
        return float((arrays[0].sum(axis=0) * w0).sum())

    assert max_rel_error(t.grad, numeric_grad(f, [x], which=0)) < TOL

    t2 = Tensor(x, requires_grad=True)
    t2.mean().backward()
    np.testing.assert_allclose(t2.grad, np.full_like(x, 1.0 / x.size))


def test_gather_rows_accumulates_repeats():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 2))
    idx = np.array([0, 2, 0, 3, 0])
    w = rng.normal(size=(5, 2))

    t = Tensor(x, requires_grad=True)
    (gather_rows(t, idx) * Tensor(w)).sum().backward()

    def f(arrays):
        return float((arrays[0][idx] * w).sum())

    assert max_rel_error(t.grad, numeric_grad(f, [x], which=0)) < TOL
    # row 0 is gathered three times, so its grad is the sum of three weights
    np.testing.assert_allclose(t.grad[0], w[0] + w[2] + w[4])
    np.testing.assert_allclose(t.grad[1], 0.0)


def test_scatter_rows_equals_add_at_bitwise():
    rng = np.random.default_rng(8)
    for row_shape in [(), (3,), (2, 4)]:
        for n in [0, 1, 300]:
            idx = rng.integers(0, 9, size=n)
            vals = rng.normal(size=(n,) + row_shape) * 10.0 ** rng.integers(-8, 8, size=n).reshape(
                (n,) + (1,) * len(row_shape))
            want = np.zeros((9,) + row_shape)
            np.add.at(want, idx, vals)
            got = scatter_rows(idx, vals, 9)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_signed_scatter_rows_equals_add_at_then_subtract_at_bitwise():
    rng = np.random.default_rng(9)
    for row_shape in [(), (3,), (2, 4)]:
        for n in [0, 1, 300]:
            idx = rng.integers(0, 9, size=n)
            minus = rng.integers(0, 9, size=n)
            vals = rng.normal(size=(n,) + row_shape) * 10.0 ** rng.integers(-8, 8, size=n).reshape(
                (n,) + (1,) * len(row_shape))
            want = np.zeros((9,) + row_shape)
            np.add.at(want, idx, vals)
            np.subtract.at(want, minus, vals)
            got = scatter_rows(idx, vals, 9, minus=minus)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("signed", [False, True], ids=["add", "add-then-subtract"])
def test_scatter_rows_with_take_equals_add_at_bitwise(signed):
    # take repeats value rows and skips some; out rows 7 and 8 get nothing
    rng = np.random.default_rng(17)
    for row_shape in [(), (3,), (2, 4)]:
        for n in [0, 1, 300]:
            idx = rng.integers(0, 7, size=n)
            minus = rng.integers(0, 7, size=n) if signed else None
            take = rng.integers(0, 6, size=n)
            vals = rng.normal(size=(6,) + row_shape) * 10.0 ** rng.integers(-8, 8, size=6).reshape(
                (6,) + (1,) * len(row_shape))
            want = np.zeros((9,) + row_shape)
            np.add.at(want, idx, vals[take])
            if signed:
                np.subtract.at(want, minus, vals[take])
            got = scatter_rows(idx, vals, 9, take=take, minus=minus)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("num_rows", [65535, 65536, 65537])
def test_scatter_rows_at_the_16_bit_sort_boundary(num_rows):
    # up to 65536 rows the ids sort as 16-bit keys; one row more takes the wide sort
    rng = np.random.default_rng(num_rows)
    idx = np.concatenate([[num_rows - 1, 0], rng.integers(0, num_rows, size=3000),
                          [num_rows - 1] * 3])
    minus = rng.permutation(idx)
    vals = rng.normal(size=(idx.size, 3)) * 10.0 ** rng.integers(-8, 8, size=(idx.size, 1))
    want = np.zeros((num_rows, 3))
    np.add.at(want, idx, vals)
    got = scatter_rows(idx, vals, num_rows)
    assert got.tobytes() == want.tobytes()
    np.subtract.at(want, minus, vals)
    assert scatter_rows(idx, vals, num_rows, minus=minus).tobytes() == want.tobytes()


def test_segment_sum_grad_and_empty_segment():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(6, 3))
    seg = np.array([0, 0, 2, 1, 2, 2])
    w = rng.normal(size=(4, 3))

    t = Tensor(x, requires_grad=True)
    out = segment_sum(t, np.arange(6), seg, num_segments=4)
    np.testing.assert_allclose(out.data[3], 0.0)
    (out * Tensor(w)).sum().backward()

    def f(arrays):
        acc = np.zeros((4, 3))
        np.add.at(acc, seg, arrays[0])
        return float((acc * w).sum())

    assert max_rel_error(t.grad, numeric_grad(f, [x], which=0)) < TOL


@pytest.mark.parametrize("row_shape", [(), (3,)], ids=["1-d", "2-d"])
def test_segment_sum_equals_the_gathered_scatter_bitwise(row_shape):
    # repeated rows, segments in no order, empty segments (8 segments, ids below 6)
    rng = np.random.default_rng(16)
    num_rows, num_segments = 7, 8
    rows = rng.integers(0, num_rows, size=40)
    seg = rng.integers(0, 6, size=40)
    shape = (num_rows,) + row_shape
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    g = rng.normal(size=(num_segments,) + row_shape)

    t = Tensor(x, requires_grad=True)
    out = segment_sum(t, rows, seg, num_segments)
    want = np.zeros((num_segments,) + row_shape)
    np.add.at(want, seg, x[rows])
    assert out.data.tobytes() == want.tobytes()
    assert out.data.tobytes() == scatter_rows(seg, x[rows], num_segments).tobytes()
    assert not out.data[6:].any()
    (out * Tensor(g)).sum().backward()
    want = np.zeros(shape)
    np.add.at(want, rows, g[seg])
    assert t.grad.tobytes() == want.tobytes()
    assert t.grad.tobytes() == scatter_rows(rows, g[seg], num_rows).tobytes()

    def f(arrays):
        acc = np.zeros((num_segments,) + row_shape)
        np.add.at(acc, seg, arrays[0][rows])
        return float((acc * g).sum())

    x = rng.normal(size=shape)
    t = Tensor(x, requires_grad=True)
    (segment_sum(t, rows, seg, num_segments) * Tensor(g)).sum().backward()
    assert max_rel_error(t.grad, numeric_grad(f, [x], which=0)) < TOL


def test_concat_grad_splits_columns():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 6))

    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (concat([ta, tb]) * Tensor(w)).sum().backward()

    def f(arrays):
        return float((np.concatenate(arrays, axis=1) * w).sum())

    assert max_rel_error(ta.grad, numeric_grad(f, [a, b], which=0)) < TOL
    assert max_rel_error(tb.grad, numeric_grad(f, [a, b], which=1)) < TOL


def test_l2norm_rows_grad():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3)) + 0.5
    w = rng.normal(size=(5,))

    t = Tensor(x, requires_grad=True)
    (l2norm_rows(t) * Tensor(w)).sum().backward()

    def f(arrays):
        return float((np.sqrt((arrays[0] ** 2).sum(axis=1)) * w).sum())

    assert max_rel_error(t.grad, numeric_grad(f, [x], which=0)) < TOL


def test_l2norm_zero_row_subgradient_is_zero():
    x = np.zeros((2, 3))
    x[1] = [1.0, 2.0, 2.0]
    t = Tensor(x, requires_grad=True)
    l2norm_rows(t).sum().backward()
    np.testing.assert_array_equal(t.grad[0], 0.0)
    np.testing.assert_allclose(t.grad[1], x[1] / 3.0)


def test_pair_distance_grad_and_zero_pairs():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 3))
    u = np.array([0, 2, 4, 2, 1, 3])
    v = np.array([1, 0, 2, 3, 1, 3])  # the last two pairs have zero distance
    w = rng.normal(size=(6,))

    t = Tensor(x, requires_grad=True)
    out = pair_distance(t, u, v)
    np.testing.assert_allclose(out.data, np.linalg.norm(x[u] - x[v], axis=1), rtol=1e-15)
    (out * Tensor(w)).sum().backward()

    def f(arrays):
        d = arrays[0][u[:4]] - arrays[0][v[:4]]
        return float((np.sqrt((d ** 2).sum(axis=1)) * w[:4]).sum())

    # zero-distance pairs contribute a zero subgradient
    assert max_rel_error(t.grad, numeric_grad(f, [x], which=0)) < TOL


@pytest.mark.parametrize("shared", [True, False], ids=["p-is-q", "p-and-q"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pair_hidden_grad(sign, shared):
    rng = np.random.default_rng(12)
    p = rng.normal(size=(5, 4))
    q = rng.normal(size=(6, 4))
    # repeated indices on both sides; the fourth and fifth pairs have u == v
    u = np.array([0, 2, 2, 3, 1, 2, 0])
    v = np.array([1, 0, 4, 3, 1, 4, 4])
    b = rng.normal(size=(4,))
    w = rng.normal(size=(7, 4))
    arrays = [p, b] if shared else [p, q, b]

    def pre(arrs):
        pp, bb = arrs[0], arrs[-1]
        return pp[u] + sign * (pp if shared else arrs[1])[v] + bb

    def f(arrs):
        return float((np.maximum(pre(arrs), 0.0) * w).sum())

    assert np.abs(pre(arrays)).min() > 1e-3  # every probe stays off the relu kink
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    tp, tb = tensors[0], tensors[-1]
    out = pair_hidden(tp, tp if shared else tensors[1], u, v, tb, sign)
    np.testing.assert_allclose(out.data, np.maximum(pre(arrays), 0.0), rtol=1e-15)
    (out * Tensor(w)).sum().backward()
    for i, t in enumerate(tensors):
        assert max_rel_error(t.grad, numeric_grad(f, arrays, which=i)) < TOL


@pytest.mark.parametrize("shared", [True, False], ids=["p-is-q", "p-and-q"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pair_hidden_vjp_equals_the_where_gate_bitwise(sign, shared):
    # the vjp gates by multiplying with the relu mask; on finite inputs that is
    # np.where's gate to the bit, also for a unit that is dead on every row
    rng = np.random.default_rng(16)
    p, q = rng.normal(size=(40, 6)), rng.normal(size=(30, 6))
    u, v = rng.integers(0, 30, size=500), rng.integers(0, 30, size=500)
    b = rng.normal(size=6)
    b[2] = -100.0
    tp, tb = Tensor(p, requires_grad=True), Tensor(b, requires_grad=True)
    tq = tp if shared else Tensor(q, requires_grad=True)
    out = pair_hidden(tp, tq, u, v, tb, sign)
    assert not out.data[:, 2].any()
    g = rng.normal(size=out.shape) * 10.0 ** rng.integers(-8, 8, size=(500, 1))
    g[:, 2] = -np.abs(g[:, 2])  # the multiply gates these to -0.0, np.where to 0.0
    got = out._vjp(g)
    gated = np.where(out.data > 0.0, g, 0.0)
    n = p.shape[0]
    both = scatter_rows(u, gated, n + tq.shape[0], minus=v + n)
    want = (both[:n], both[n:] if sign < 0 else -both[n:], gated.sum(axis=0))
    for a, w in zip(got, want):
        assert a.shape == w.shape and a.tobytes() == w.tobytes()


def test_row_slice_grad_equals_the_gather_grad_bitwise():
    rng = np.random.default_rng(17)
    w = rng.normal(size=(8, 3))
    phi = rng.normal(size=(5, 4))
    grads = []
    for take in (lambda t, a, b: row_slice(t, a, b),
                 lambda t, a, b: gather_rows(t, np.arange(a, b))):
        tw = Tensor(w, requires_grad=True)
        top, bottom = take(tw, 0, 4), take(tw, 4, 8)
        assert np.array_equal(top.data, w[:4]) and np.array_equal(bottom.data, w[4:])
        ((Tensor(phi) @ top) * (Tensor(phi) @ bottom)).sum().backward()
        grads.append(tw.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_affine_grad():
    rng = np.random.default_rng(13)
    arrays = [rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))]
    w = rng.normal(size=(5, 4))

    def f(arrs):
        return float(((arrs[0] @ arrs[1] + arrs[2]) * w).sum())

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = affine(*tensors)
    np.testing.assert_array_equal(out.data, arrays[0] @ arrays[1] + arrays[2])
    (out * Tensor(w)).sum().backward()
    for i, t in enumerate(tensors):
        assert max_rel_error(t.grad, numeric_grad(f, arrays, which=i)) < TOL


def test_backward_leaves_grads_on_leaves_only():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    hidden = (x @ w).relu()
    squared = hidden * hidden
    loss = squared.sum()
    loss.backward()
    assert x.grad is not None and w.grad is not None
    assert hidden.grad is None and squared.grad is None and loss.grad is None


def test_backward_frees_interior_grads_as_it_goes():
    # 20 chained ops over a 6.4 MB array: holding every interior gradient
    # until the sweep ends would trace over 20 arrays' worth
    x = Tensor(np.random.default_rng(15).normal(size=800_000), requires_grad=True)
    y = x
    for _ in range(20):
        y = y * 1.0001
    loss = y.sum()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.data.nbytes
    np.testing.assert_allclose(x.grad, 1.0001 ** 20, rtol=1e-14)


def test_grad_accumulates_across_reuse():
    # y = x*x + 3x uses x twice; dy/dx = 2x + 3
    x = np.array([1.5, -0.7])
    t = Tensor(x, requires_grad=True)
    (t * t + t * 3.0).sum().backward()
    np.testing.assert_allclose(t.grad, 2.0 * x + 3.0)


def test_backward_writes_into_no_vjp_output_and_no_held_grad():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    y = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    handed = []

    def vjp(g):
        # one array handed to both parents, which then get more gradient
        shared = g * 2.0
        handed.append((shared, shared.copy()))
        return shared, shared

    z = Tensor(x.data + y.data, _parents=(x, y), _vjp=vjp)
    wx, wy = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    loss = (z * 3.0).sum() + (x * Tensor(wx)).sum() + (x * x).sum() + (y * Tensor(wy)).sum()
    loss.backward()
    (shared, before), = handed
    assert shared.tobytes() == before.tobytes()
    assert x.grad is not shared and y.grad is not shared
    np.testing.assert_allclose(x.grad, 6.0 + wx + 2.0 * x.data, rtol=1e-14)
    np.testing.assert_allclose(y.grad, 6.0 + wy, rtol=1e-14)

    # a second sweep adds to the leaf grads without writing into the arrays held
    held_x, held_y = x.grad, y.grad
    copies = held_x.copy(), held_y.copy()
    (x * x + x * Tensor(wx) + y).sum().backward()
    assert held_x.tobytes() == copies[0].tobytes() and held_y.tobytes() == copies[1].tobytes()
    np.testing.assert_allclose(x.grad, copies[0] + 2.0 * x.data + wx, rtol=1e-14)
    np.testing.assert_allclose(y.grad, copies[1] + 1.0, rtol=1e-14)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_deep_chain_does_not_recurse():
    # 20k chained ops exceed any recursion limit if backward were recursive
    t = Tensor(np.array(1.0), requires_grad=True)
    y = t
    for _ in range(20_000):
        y = y * 1.0001
    y.backward()
    assert np.isfinite(t.grad)


def test_constants_get_no_grad():
    c = Tensor(np.ones(3))
    t = Tensor(np.ones(3), requires_grad=True)
    (c * t).sum().backward()
    assert c.grad is None
    assert t.grad is not None


def test_random_composite_graphs():
    """Seeded sweep: random little MLP-shaped graphs vs finite differences."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        n, d, h = rng.integers(2, 5), rng.integers(2, 4), rng.integers(2, 5)
        x = rng.normal(size=(int(n), int(d)))
        w1 = rng.normal(size=(int(d), int(h))) * 0.7
        b1 = rng.normal(size=(int(h),)) * 0.3
        w2 = rng.normal(size=(int(h), 1)) * 0.7

        def run(arrays):
            xx, ww1, bb1, ww2 = arrays
            hid = np.maximum(xx @ ww1 + bb1, 0.0)
            return float(np.exp(-np.sqrt(((hid @ ww2) ** 2).sum(axis=1) + 1e-9)).sum())

        tx = Tensor(x, requires_grad=True)
        tw1 = Tensor(w1, requires_grad=True)
        tb1 = Tensor(b1, requires_grad=True)
        tw2 = Tensor(w2, requires_grad=True)
        hid = affine(tx, tw1, tb1).relu()
        y = hid @ tw2
        root = (((y * y).sum(axis=1) + 1e-9).log() * 0.5).exp()  # the square root
        out = (root * -1.0).exp().sum()
        out.backward()

        arrays = [x, w1, b1, w2]
        for which, t in enumerate([tx, tw1, tb1, tw2]):
            num = numeric_grad(run, arrays, which=which)
            assert max_rel_error(t.grad, num) < 1e-5, f"trial {trial} input {which}"
