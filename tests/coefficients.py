"""Talbot coefficient tables gathered from the production route,
`talbot.ClosedForm(grating, kind).pairs`.  The independent routes these are
checked against live in oracles.py."""

import numpy as np

from lasergrating.talbot import ClosedForm


def coefficient_table(orders, xi, grating, kind="quantum") -> np.ndarray:
    """B_j(xi) of `kind` for every j in `orders` over a 1-D xi: shape
    (len(orders), len(xi)), or (len(kind), len(orders), len(xi)) for a
    sequence of counts, each from a pairs call of its own."""
    if np.ndim(kind):
        return np.stack([coefficient_table(orders, xi, grating, k) for k in kind])
    orders, xi = np.ravel(orders), np.ravel(np.asarray(xi, float))
    pairs = ClosedForm(grating, kind).pairs(np.repeat(orders, xi.size), np.tile(xi, orders.size))
    return pairs.reshape(orders.size, xi.size)
