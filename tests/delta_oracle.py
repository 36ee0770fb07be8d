"""Direct summation of every correlation: the oracle of the delta engine.

The library computes delta from float rows, in blocks, read back through
packed witness codes; this module sums each correlation exactly in int64
and reads the maximizers off the whole [i, j, tau] grid, so the engine's
delta and witnesses, and its rows block by block, can be checked against
it. One integer product per offset, all pairs at once, takes about a
second for the 32 members of period 961 of a v = 31 set; it shares no
layout, dtype or scan with the engine.
"""

import numpy as np


def reference_grid(members):
    """The int64 [i, j, tau] grid of every correlation of the members.

    C[i, j, tau] = sum over t of x_i(t) x_j(t + tau), with x = (-1)^bits.
    """
    x = 1 - 2 * np.array([m.values for m in members], np.int64)
    return np.stack([x @ np.roll(x, -tau, axis=1).T for tau in range(x.shape[1])], axis=2)


def reference_delta(members):
    """(delta, [(i, j, tau, value)]) of the members, in (i, j, tau) order.

    Read off reference_grid over every ordered pair and offset but the
    trivial (i, i, 0) peaks.
    """
    grid = reference_grid(members)
    r = len(grid)
    mags = np.abs(grid)
    mags[np.arange(r), np.arange(r), 0] = -1
    delta = int(mags.max())
    at = mags == delta
    return delta, [(*index, value) for index, value in zip(np.argwhere(at).tolist(), grid[at].tolist())]


def built_signs(b):
    """The int64 (v+1, v) signs of the members of build_signal_set(a, b, e).

    Row 0 is all 1, and row 1+k holds (-1)^b_((j+k) mod v) at column j.
    """
    x = 1 - 2 * np.array(b.values, np.int64)
    return np.stack([np.ones_like(x)] + [np.roll(x, -k) for k in range(len(x))])


def sign_operand(sigma):
    """[h, s, k, j] = sigma_h(j) sigma_k((j+s) mod v) of an (r, v) sign table, in its dtype."""
    sigma = np.asarray(sigma)
    return np.stack([sigma[:, None, :] * np.roll(sigma, -s, axis=1)[None] for s in range(sigma.shape[1])], axis=1)
