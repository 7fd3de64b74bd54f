"""Construction of the Ni binning-code family.

Two recursions grow a table one bit at a time.  RASBA adds a message bit:
each bin splits into two children, appending 0/1 in alternation so that
the children interleave the parent's words.  RAHBA adds an overhead bit:
bins are processed in consecutive pairs and the four single-bit
extensions of a pair are reshuffled into two bins of twice the size.
The standard path starts from the two-word base table and applies RAHBA
l times, then RASBA k - 1 times.

The same family also has a non-recursive description: the first form of
each case (k = 1) comes from a flipped reflected Gray code, and the
remaining message bits are alternating suffix columns enumerated as a
binary counter.  closed_form_table builds that directly.
"""

import math

import numpy as np

from .bitcore import CodeTable, check_form


def _rasba_bins(words):
    # (B, e) word array -> (2B, e): bin i's children are rows 2i and 2i + 1,
    # each written straight into the output
    out = np.empty((2 * len(words), words.shape[1]), dtype=np.uint32)
    even, odd = out[0::2], out[1::2]
    np.left_shift(words, 1, out=even)
    even |= np.arange(words.shape[1], dtype=np.uint32) & 1
    np.bitwise_xor(even, 1, out=odd)
    return out


def rasba(t):
    """Grow (l, k) into (l, k+1) by recursive alternate single-bit adding.

    Bin i spawns bins 2i-1 and 2i (1-based).  Within the first child,
    words at odd positions (1st, 3rd, ...) get a 0 appended and words at
    even positions get a 1; the second child does the reverse.  Appends
    are on the right end.
    """
    check_form(t.l, t.k + 1)
    return CodeTable._adopt(t.l, t.k + 1, _rasba_bins(t.array))


def _rahba_bins(words):
    # (B, e) word array -> (B, 2e): the pair (B, C) of rows 2i, 2i + 1 becomes
    # [V; Z], [W; U], each quarter written straight into the output
    e = words.shape[1]
    out = np.empty((len(words), 2 * e), dtype=np.uint32)
    v, z, w, u = out[0::2, :e], out[0::2, e:], out[1::2, :e], out[1::2, e:]
    np.left_shift(words[0::2], 1, out=v)
    np.left_shift(words[1::2], 1, out=u)
    np.bitwise_or(v, 1, out=w)
    np.bitwise_or(u, 1, out=z)
    return out


def rahba(t):
    """Grow (l, k) into (l+1, k) by recursive alternate half-bits adding.

    Bins are taken in pairs (B, C).  With V = B||0, W = B||1, U = C||0,
    Z = C||1, the pair's replacements are [V; Z] and [W; U].  For k = 1
    the table's two bins form the single pair.
    """
    check_form(t.l + 1, t.k)
    return CodeTable._adopt(t.l + 1, t.k, _rahba_bins(t.array))


def base_table():
    """The two-word table of form (0, 1): bins [0] and [1]."""
    return CodeTable(0, 1, [[0], [1]])


def standard_table(l, k):
    """Form (l, k) by the standard path: RAHBA l times, RASBA k-1 times.

    Each step maps a partition to a partition; the table is validated
    once, when it is built from the last step's array.
    """
    check_form(l, k)
    words = base_table().array
    for _ in range(l):
        words = _rahba_bins(words)
    for _ in range(k - 1):
        words = _rasba_bins(words)
    return CodeTable._adopt(l, k, words)


def path_count(from_form, to_form):
    """Number of recursion orderings leading from one form to another.

    Each path is a shuffle of the required RAHBA and RASBA steps, so the
    count is C(n2 - n1, k2 - k1).
    """
    l1, k1 = from_form
    l2, k2 = to_form
    if not (l2 >= l1 >= 1 and k2 >= k1):
        raise ValueError("need to.l >= from.l >= 1 and to.k >= from.k")
    return math.comb((l2 + k2) - (l1 + k1), k2 - k1)


def gray_matrix(l):
    """Reflected Gray code on l bits with the column order reversed.

    Returns a (2**l, l) 0/1 array.  Reversing the columns keeps the
    defining property that consecutive rows differ in one position.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    r = np.arange(1 << l, dtype=np.int64)
    # column c holds bit c of the Gray word (reversed order)
    return ((r ^ (r >> 1))[:, None] >> np.arange(l)) & 1


def _ff_words(l):
    # the two (l, 1) bins as a (2, 2**l) array: the alternating column
    # over the flipped Gray block T (rows of gray_matrix read MSB first),
    # as is and upside down
    t_block = gray_matrix(l) @ (1 << np.arange(l - 1, -1, -1))
    alt = (np.arange(1 << l) & 1) << l
    return np.stack([alt | t_block, alt | t_block[::-1]]).astype(np.uint32)


def closed_form_ff_bins(l):
    """The two bins of form (l, 1) without recursion.

    Words are one alternating-bit column followed by the flipped Gray
    block T; bin 1 uses T as is and bin 2 uses T upside down.  The
    alternating column only touches the leading position, where T is
    constant, so the overlay is a plain sum.
    """
    bin1, bin2 = _ff_words(l).tolist()
    return bin1, bin2


def closed_form_table(l, k):
    """Form (l, k) directly from the Gray-code description.

    Every bin is one of the two (l, 1) bins extended by k - 1 alternating
    suffix columns.  A suffix column either starts with 0 or with 1; the
    2**(k-1) on/off states are enumerated in binary-counter order, and
    the choice of first-form bin is the most significant choice bit, so
    bin order is deterministic.  Row r of a bin flips every suffix column
    when r is odd, so its suffix is the state XOR (r & 1) * (2**(k-1) - 1).
    """
    if l < 1:
        raise ValueError("need l >= 1 and k >= 1")
    check_form(l, k)
    ff = _ff_words(l)
    states = np.arange(1 << (k - 1), dtype=np.uint32)
    flips = (np.arange(1 << l, dtype=np.uint32) & 1) * np.uint32((1 << (k - 1)) - 1)
    words = (ff[:, None, :] << (k - 1)) | (states[None, :, None] ^ flips)
    return CodeTable._adopt(l, k, words.reshape(1 << k, 1 << l))


def opposite_pairing_check(t):
    """True iff every bin pairs each word with its bitwise complement.

    Only meaningful for bin size two, so l must be 1.
    """
    if t.l != 1:
        raise ValueError("opposite pairing is defined for l = 1 tables")
    return bool((t.array[:, 0] ^ ((1 << t.n) - 1) == t.array[:, 1]).all())
