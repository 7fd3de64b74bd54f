"""The per-word posterior route, kept as an independent oracle for the kernel."""

import numpy as np


def bin_posteriors_direct(t, z, p):
    """Bin probabilities given z by direct per-word summation.

    Evaluates p**d * q**(n-d) separately for every codeword instead of
    going through the kernel.  Slower; kept as an independent route for
    cross-checking the kernel.
    """
    n = t.n
    q = 1.0 - p
    out = np.zeros(len(t.bins))
    for i, b in enumerate(t.bins):
        acc = 0.0
        for w in b:
            d = (w ^ z).bit_count()
            acc += p ** d * q ** (n - d)
        out[i] = acc
    return out
