"""A model-free leak oracle: score each row by its nearest training rows.

A row's score is ``d_neg / (d_pos + d_neg)``, with ``d_pos`` and ``d_neg`` the
Euclidean distances to its nearest positive and nearest negative training row
(Cover and Hart's nearest-neighbour rule, made a score).  A row that is, or
sits next to, a positive training row scores near 1.  No model is trained, so
a forest regression cannot pass for a leak, nor a leak for a forest gain.
"""

import numpy as np


def nn_scores(train_x: np.ndarray, train_y: np.ndarray, eval_x: np.ndarray) -> np.ndarray:
    """Score each row of ``eval_x``; a row as near one class as the other scores 0.5."""
    d = np.linalg.norm(eval_x[:, None, :] - train_x[None, :, :], axis=2)
    d_pos, d_neg = d[:, train_y == 1].min(axis=1), d[:, train_y == 0].min(axis=1)
    return d_neg / (d_pos + d_neg)
