"""The dense lower Cholesky factor assembled from `gauss._toeplitz_cholesky`'s
row blocks L[lo:hi, :hi], for the tests that check the factor as one matrix.
The package never forms it."""

import numpy as np


def dense_factor(blocks) -> np.ndarray:
    """The n x n factor whose rows lo..hi-1 are each block, zero past column hi."""
    n = blocks[-1].shape[1]
    chol = np.zeros((n, n))
    for blk in blocks:
        hi = blk.shape[1]
        chol[hi - blk.shape[0] : hi, :hi] = blk
    return chol
