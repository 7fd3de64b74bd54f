"""Generator and parity-check matrices for the linear forms.

Published entry patterns exist only for l = 1 (any k), for even l (any
k), and for the lone odd case (3, 1); the family's tables are coset
tables at other forms too (the certificate holds for every standard
table with n <= 24, (3, 2), (5, 3) and (7, 9) among them), but no
pattern for them is built here.  For those shapes the n x n generator G
and the n x k transposed parity-check H_T follow fixed entry patterns; a
built codec is checked to satisfy G . H_T = [I_k ; 0] over GF(2), which
makes message recovery from a codeword a single matrix multiply.

Words are ints read MSB first; a matrix row is one word (an integer
product with the bit weights), and u . M over GF(2) is one parity per
column word of M, so the codec works on word arrays throughout.

Encoding maps a message m (k bits) and auxiliary word v (l bits) to
x = [m || v] G; the 2**l codewords sharing a message form one coset, and
listing the cosets for all messages in counter order rebuilds a code
table that can be fed to the equivocation engine.

That coset table is, as a partition, the family member grown from the
base table by RAHBA once, RASBA k - 1 times, then RAHBA l - 1 times
(checked for every linear form with n <= 12).  It coincides with the
standard path (RAHBA l times, then RASBA k - 1 times) only for l = 1,
k = 1 and (3, 1); for the other forms the partitions differ while the
equivocation curves agree to 1e-12.
"""

from dataclasses import dataclass

import numpy as np

from .bitcore import CodeTable, check_form, check_word, word_rank


class UnsupportedForm(ValueError):
    """The requested form has no generator/parity-check pattern."""


class PatternViolation(RuntimeError):
    """A constructed matrix pair failed its own validity identity."""


def is_linear_form(l, k):
    return l == 1 or (l >= 2 and l % 2 == 0) or (l, k) == (3, 1)


def _generator(l, k):
    n = l + k
    if (l, k) == (3, 1):
        return np.array([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]], dtype=np.int64)
    g = np.ones((n, n), dtype=np.int64)
    if l == 1:
        # zero diagonal on the first k rows
        for i in range(k):
            g[i, i] = 0
    else:
        # zero diagonal everywhere except the first row
        for i in range(1, n):
            g[i, i] = 0
    return g


def _parity_check_t(l, k):
    n = l + k
    ht = np.zeros((n, k), dtype=np.int64)
    if (l, k) == (3, 1):
        return np.ones((4, 1), dtype=np.int64)
    if l == 1:
        ht[:k, :k] = np.eye(k, dtype=np.int64)
        ht[k, :] = 1
        return ht
    ht[0, 1:] = 1
    ht[0, 0] = k % 2  # corner: 1 for odd k, 0 for even k
    ht[1:, 0] = 1
    for j in range(1, k):
        ht[j, j] = 1
    return ht


def _words(mat):
    """Each row of a 0/1 matrix (or the last axis of an array) as one int, MSB first."""
    mat = np.asarray(mat, dtype=np.int64) % 2
    return mat @ (1 << np.arange(mat.shape[-1] - 1, -1, -1, dtype=np.int64))


def _times(u, mat):
    """u . mat over GF(2) for an array of row-vector words u: one parity per column of mat."""
    return _words(np.bitwise_count(np.asarray(u)[..., None] & _words(mat.T)))


def gf2_rank(mat):
    """Rank over GF(2) of a 0/1 matrix, by elimination on its int64 row
    words; a matrix wider than 63 columns raises ValueError."""
    width = np.shape(mat)[1]
    if width > 63:
        raise ValueError("gf2_rank takes at most 63 columns, got %d" % width)
    return int(word_rank(_words(mat), width))


@dataclass(frozen=True)
class WiretapCodec:
    l: int
    k: int
    G: np.ndarray    # n x n over GF(2)
    H_T: np.ndarray  # n x k over GF(2)

    @property
    def n(self):
        return self.l + self.k


def _identity_holds(codec):
    prod = (codec.G @ codec.H_T) % 2
    want = np.zeros((codec.n, codec.k), dtype=np.int64)
    want[: codec.k, : codec.k] = np.eye(codec.k, dtype=np.int64)
    return np.array_equal(prod, want)


def build_codec(l, k):
    """Codec for a linear form with n <= 63 (its words are int64); raises
    UnsupportedForm for a form with no pattern.

    The constructed pair must pass the validity identity and G must be
    invertible; a violation raises PatternViolation naming the form, so
    a shape where the pattern silently breaks cannot slip through.
    """
    if l < 0 or k < 1:
        raise ValueError("need l >= 0 and k >= 1")
    if l + k > 63:
        raise ValueError("a codec's words are int64: need n = l + k <= 63, got %d" % (l + k))
    if not is_linear_form(l, k):
        raise UnsupportedForm("form (%d, %d) has no linear matrix pattern" % (l, k))
    codec = WiretapCodec(l=l, k=k, G=_generator(l, k), H_T=_parity_check_t(l, k))
    if gf2_rank(codec.G) != codec.n:
        raise PatternViolation("generator for form (%d, %d) is rank deficient" % (l, k))
    if not _identity_holds(codec):
        raise PatternViolation("validity identity fails for form (%d, %d)" % (l, k))
    return codec


def encode(codec, m, v):
    """Codeword for message m (k bits) and auxiliary v (l bits).

    Both arguments are ints read MSB-first; x = [m || v] G.
    """
    u = (check_word(m, codec.k, "message") << codec.l) | check_word(v, codec.l, "auxiliary word")
    return int(_times(u, codec.G))


def decode(codec, x):
    """Recover the message: m = x H_T, one parity per column."""
    return int(_times(check_word(x, codec.n, "codeword"), codec.H_T))


def coset_table(codec):
    """Code table whose bin i holds the codewords of message i - 1.

    Messages index bins through their binary expansion (MSB first) and
    the auxiliary words run in counter order inside each bin, so entry
    u = [m || v] is the XOR of the generator rows its set bits select.
    A codec whose form no table may have (past the blocklength cap, which
    encode and decode do not share) is refused by check_form before any
    word is made, so syndrome_check refuses it too.
    """
    check_form(codec.l, codec.k)
    words = np.zeros(1, dtype=np.uint32)
    # the lowest bit of u selects the last row: doubling from it keeps counter order
    for row in reversed(_words(codec.G)):
        words = np.concatenate([words, words ^ np.uint32(row)])
    return CodeTable._adopt(codec.l, codec.k, words.reshape(1 << codec.k, 1 << codec.l))


def syndrome_check(codec):
    """True iff G is invertible, the validity identity holds and syndromes
    separate bins.

    An invertible G makes coset_table a partition.  Every codeword of one
    bin must map to that bin's message and no other; checked exhaustively
    over all 2**n codewords of coset_table, one parity pass per column of
    H_T, so the temporaries stay a few bytes per codeword whatever k is.
    """
    if gf2_rank(codec.G) != codec.n or not _identity_holds(codec):
        return False
    words = coset_table(codec).array
    messages = np.arange(1 << codec.k)[:, None]
    for j, column in enumerate(_words(codec.H_T.T)):
        # syndrome bit j (MSB first) of every codeword against that bit of its bin's message
        parity = np.bitwise_count(words & np.uint32(column)) & 1
        if not (parity == (messages >> (codec.k - 1 - j)) & 1).all():
            return False
    return True


def format_matrix(mat):
    """Render a 0/1 matrix as one digit-run per line."""
    return "\n".join("".join(str(int(b)) for b in row) for row in np.asarray(mat))
