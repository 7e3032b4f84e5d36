"""Reverse-mode automatic differentiation on numpy arrays.

Small on purpose: only the operations the training objectives need are
implemented (elementwise arithmetic, exp/log/relu/clamp, 2-D matmul,
reductions, row gather and slice, a segment sum of gathered rows,
column concatenation, and zero-safe row norms and pair distances), plus
two fused layers of the relation networks: an affine map and the pair
hidden layer. `+ - * /` take a Tensor of exactly the same shape or a
constant, a Python float or an ndarray of that shape, and raise
ValueError for any other operand: nothing broadcasts, and a constant is
no graph node. A bias row is added by `affine` or `pair_hidden`. Every
sum of rows by index, each pass of the segment sum and each gradient
scatter, is one `scatter_rows`. All data is float64. Graphs are built
eagerly and differentiated by an iterative topological sweep, so deep
chains do not hit the interpreter recursion limit. A graph lives as long
as its output tensor: the backward sweep frees interior gradients but no
forward data, so the caller drops the output to free the graph.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy import sparse

Array = np.ndarray


class Tensor:
    """A float64 array plus the plumbing to backpropagate through it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjp: Callable[[Array], tuple[Array | None, ...]] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._vjp = _vjp if self.requires_grad else None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        An interior node's .grad is dropped once its vjp has run, so the
        sweep holds few gradients at a time; afterwards only leaves hold one.
        """
        if self.data.size != 1:
            raise ValueError("backward() is only defined for scalar outputs")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        # A node's first gradient may be an array a vjp returned, which other
        # nodes can share, or a grad the caller holds. The second one is added
        # into a new buffer the sweep owns, and later ones into that buffer in
        # place. Leaves end with private grads: owned buffers, or copies.
        owned: set[int] = set()
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            grads, node.grad = node._vjp(node.grad), None
            for parent, pg in zip(node._parents, grads):
                if pg is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = pg
                elif id(parent) in owned:
                    parent.grad += pg
                else:
                    parent.grad = np.add(parent.grad, pg, out=np.empty(parent.data.shape))
                    owned.add(id(parent))
            grads = pg = None  # unused parent grads go before the next vjp runs
        for node in topo:
            if node._vjp is None and node.grad is not None and id(node) not in owned:
                node.grad = np.array(node.grad, dtype=np.float64, copy=True)

    # -- elementwise arithmetic ----------------------------------------

    def _binary(self, other, op, grad_self, grad_other) -> "Tensor":
        """op(self, other) for a Tensor of self's shape or a constant, else ValueError.

        A constant, a Python float or an ndarray of self's shape, gets no
        parent and no gradient. grad_self and grad_other map (g, a, b) to
        each operand's gradient.
        """
        a = self.data
        if isinstance(other, float):
            b = other
        elif isinstance(other, (Tensor, np.ndarray)) and other.shape == a.shape:
            b = other.data if isinstance(other, Tensor) else other
        else:
            got = type(other).__name__
            if isinstance(other, (Tensor, np.ndarray)):
                got += f" of shape {other.shape}"
            raise ValueError(f"an operand of a tensor of shape {a.shape} is a Tensor or array "
                             f"of that shape or a float, not {got}")
        if isinstance(other, Tensor):
            return Tensor(op(a, b), _parents=(self, other),
                          _vjp=lambda g: (grad_self(g, a, b), grad_other(g, a, b)))
        return Tensor(op(a, b), _parents=(self,), _vjp=lambda g: (grad_self(g, a, b),))

    def __add__(self, other) -> "Tensor":
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    def __sub__(self, other) -> "Tensor":
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __mul__(self, other) -> "Tensor":
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    def __truediv__(self, other) -> "Tensor":
        return self._binary(other, np.divide, lambda g, a, b: g / b,
                            lambda g, a, b: -g * a / (b * b))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        return Tensor(a @ b, _parents=(self, other), _vjp=lambda g: (g @ b.T, a.T @ g))

    # -- nonlinearities ------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor(out_data, _parents=(self,), _vjp=lambda g: (g * out_data,))

    def log(self) -> "Tensor":
        x = self.data
        return Tensor(np.log(x), _parents=(self,), _vjp=lambda g: (g / x,))

    def softplus(self) -> "Tensor":
        """log(1 + exp(x)), overflow-free; its derivative is the logistic."""
        x = self.data
        return Tensor(np.logaddexp(0.0, x), _parents=(self,),
                      _vjp=lambda g: (g * (0.5 * (1.0 + np.tanh(0.5 * x))),))

    def relu(self) -> "Tensor":
        mask = self.data > 0.0
        return Tensor(self.data * mask, _parents=(self,), _vjp=lambda g: (g * mask,))

    def clamp(self, lo: float, hi: float) -> "Tensor":
        # gradient passes only where the input is inside the box, bounds included
        mask = (self.data >= lo) & (self.data <= hi)
        out_data = np.clip(self.data, lo, hi)
        return Tensor(out_data, _parents=(self,), _vjp=lambda g: (g * mask,))

    # -- reductions --------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        out_data = self.data.sum(axis=axis)
        shape = self.data.shape

        def vjp(g: Array):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor(out_data, _parents=(self,), _vjp=vjp)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)


def scatter_rows(index: Array, values: Array, num_rows: int, take: Array | None = None,
                 minus: Array | None = None) -> Array:
    """out[index[i]] += values[take[i]] for each i (take defaults to i), from 0.

    Rows are added in order of i, as np.add.at does, so the result is the
    same to the bit. 1-D values are summed by bincount, others by one
    product with a one-hot sparse matrix, which reads the rows in place and
    is several times faster: scipy keeps repeated (row, col) entries apart
    and adds each row's entries one by one. With `minus`, each row
    values[take[i]] is also subtracted at minus[i], after all additions to
    that row, as np.subtract.at after np.add.at would.
    """
    index = np.asarray(index, dtype=np.intp)
    cols = np.arange(index.size) if take is None else np.asarray(take, dtype=np.intp)
    sign = np.ones(index.size)
    if minus is not None:
        index = np.concatenate([index, np.asarray(minus, dtype=np.intp)])
        cols, sign = np.tile(cols, 2), np.concatenate([sign, -sign])
    # for 1-D values the sums; otherwise each row's entry count
    sums = np.bincount(index, values[cols] * sign if values.ndim == 1 else None, num_rows)
    if values.ndim == 1:
        return sums
    # a stable sort keeps each row's entries in order of i; numpy radix-sorts 16-bit keys
    keys = index.astype(np.uint16) if num_rows <= 1 << 16 else index
    order = np.argsort(keys, kind="stable")
    onehot = sparse.csr_matrix((sign[order], cols[order], np.concatenate([[0], np.cumsum(sums)])),
                               shape=(num_rows, len(values)))
    out = onehot @ values.reshape(len(values), int(np.prod(values.shape[1:])))
    return np.asarray(out).reshape((num_rows,) + values.shape[1:])


def gather_rows(x: Tensor, index: Array) -> Tensor:
    """out[i] = x[index[i]], differentiably (grad scatter-adds)."""
    index = np.asarray(index, dtype=np.intp)
    num_rows = x.data.shape[0]
    out_data = x.data[index]
    return Tensor(out_data, _parents=(x,),
                  _vjp=lambda g: (scatter_rows(index, g, num_rows),))


def row_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """x[start:stop], differentiably; the grad of the other rows is 0."""
    def vjp(g: Array):
        grad = np.zeros_like(x.data)
        grad[start:stop] = g
        return (grad,)

    return Tensor(x.data[start:stop], _parents=(x,), _vjp=vjp)


def segment_sum(x: Tensor, rows: Array, segments: Array, num_segments: int) -> Tensor:
    """out[s] = sum of the rows x[rows[i]] over i with segments[i] == s. Empty segments are 0.

    Rows are added in order of i. Each pass is one scatter_rows whose
    `take` names the rows: out = scatter_rows(segments, x, num_segments,
    take=rows), and the gradient is scatter_rows(rows, g, len(x),
    take=segments).
    """
    rows = np.asarray(rows, dtype=np.intp)
    segments = np.asarray(segments, dtype=np.intp)
    if rows.shape != segments.shape or rows.ndim != 1:
        raise ValueError("one segment id per summed row is required")
    num_rows = x.data.shape[0]
    return Tensor(scatter_rows(segments, x.data, num_segments, take=rows), _parents=(x,),
                  _vjp=lambda g: (scatter_rows(rows, g, num_rows, take=segments),))


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """2-D tensors side by side, as column blocks."""
    tensors = tuple(tensors)
    offsets = np.cumsum([t.data.shape[1] for t in tensors])[:-1]
    return Tensor(np.concatenate([t.data for t in tensors], axis=1), _parents=tensors,
                  _vjp=lambda g: tuple(np.split(g, offsets, axis=1)))


def pair_distance(x: Tensor, u: Array, v: Array) -> Tensor:
    """|x[u[i]] - x[v[i]]| for each pair i; the gradient at a zero difference is 0.

    One op instead of two gathers, a difference and a row norm, so the
    backward pass makes one signed scatter and no intermediate gradients.
    """
    u = np.asarray(u, dtype=np.intp)
    v = np.asarray(v, dtype=np.intp)
    num_rows = x.data.shape[0]
    diff = x.data[u] - x.data[v]
    norms = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    safe = np.where(norms > 0.0, norms, 1.0)

    def vjp(g: Array):
        rows = (g / safe)[:, None] * diff
        return (scatter_rows(u, rows, num_rows, minus=v),)

    return Tensor(norms, _parents=(x,), _vjp=vjp)


def l2norm_rows(x: Tensor) -> Tensor:
    """Euclidean norm of each row; the gradient at a zero row is 0."""
    if x.data.ndim != 2:
        raise ValueError("l2norm_rows expects a 2-D tensor")
    norms = np.sqrt(np.einsum("ij,ij->i", x.data, x.data))
    safe = np.where(norms > 0.0, norms, 1.0)
    data = x.data

    def vjp(g: Array):
        # rows with norm 0 have data 0, so their gradient is exactly 0
        return ((g / safe)[:, None] * data,)

    return Tensor(norms, _parents=(x,), _vjp=vjp)


def pair_hidden(p: Tensor, q: Tensor, u: Array, v: Array, b: Tensor, sign: float) -> Tensor:
    """relu(p[u[i]] + sign * q[v[i]] + b) for each pair i, with sign +1 or -1.

    One op for the gathers, the sum, the bias and the relu of a pair
    layer, so the forward keeps one (M, H) array and the backward makes
    one signed scatter. p and q may be the same tensor.
    """
    u = np.asarray(u, dtype=np.intp)
    v = np.asarray(v, dtype=np.intp)
    n = p.data.shape[0]
    h = p.data[u]
    if sign > 0:
        h += q.data[v]
    else:
        h -= q.data[v]
    h += b.data
    np.maximum(h, 0.0, out=h)

    def vjp(g: Array):
        g = g * (h > 0.0)
        # p's rows on top, q's below; the scatter subtracts q's
        both = scatter_rows(u, g, n + q.data.shape[0], minus=v + n)
        return both[:n], (both[n:] if sign < 0 else -both[n:]), g.sum(axis=0)

    return Tensor(h, _parents=(p, q, b), _vjp=vjp)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for 2-D x and w, as one op that adds the bias in place."""
    xd, wd = x.data, w.data
    out_data = xd @ wd
    out_data += b.data
    return Tensor(out_data, _parents=(x, w, b),
                  _vjp=lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0)))
