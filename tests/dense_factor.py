"""The dense lower Cholesky factor L = U^T assembled from
`gauss._toeplitz_cholesky`'s row blocks U[lo:hi, lo:], for the tests that
check the factor as one matrix. The package never forms it."""

import numpy as np


def dense_factor(blocks) -> np.ndarray:
    """The n x n factor L whose columns lo..hi-1 are each block, transposed,
    zero above row lo."""
    n = blocks[0].shape[1]
    upper = np.zeros((n, n))
    for blk in blocks:
        lo = n - blk.shape[1]
        upper[lo : lo + blk.shape[0], lo:] = blk
    return upper.T
