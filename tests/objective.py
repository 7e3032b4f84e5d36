"""The training objective over whole pools, for hand computations and gradient checks."""

from __future__ import annotations

import numpy as np

from pathembed.paths import SinglePathSet
from pathembed.relations import BACKENDS
from pathembed.training import (
    _tensors,
    build_objective,
    compile_multipath,
    compile_singlepath,
    make_step_batch,
)


def full_objective(state, cfg, graph, multi_pool=(), single_pool=SinglePathSet(()),
                   noise=None, contrast=None):
    """(parts, grads): the step objective with every pool item in one batch.

    `parts` holds the loss and its terms as `build_objective` reports them,
    `grads` the exact gradient of the loss for every trainable (zeros where
    it does not reach). The ELBO runs over every edge of `graph` when vi
    `noise` of shape (E, K) is given; the edge contrast term runs on the
    `contrast` triplets when they are given.
    """
    cm = compile_multipath(multi_pool)
    cs = compile_singlepath(single_pool, graph)
    elbo_pairs = graph.edges if noise is not None else np.empty((0, 2), dtype=np.int64)
    sb = make_step_batch(BACKENDS[cfg.backend], cm, cs, np.arange(len(cm.edges)),
                         np.arange(len(cs.edges)), elbo_pairs, noise, contrast)
    tensors = _tensors(state)
    total, parts = build_objective(tensors, sb, cfg)
    if total.requires_grad:
        total.backward()
    return parts, {n: t.grad if t.grad is not None else np.zeros_like(t.data)
                   for n, t in tensors.items()}
