"""Binary words, Hamming geometry, and binning code tables.

A word is an unsigned integer carrying no length of its own; every table
knows its blocklength n and all words must fit in n bits.  Bit position 0
is the leftmost (most significant) bit when a word is printed, and
"appending" a bit attaches it at the rightmost end, i.e. ``(w << 1) | b``.

A code table of form (l, k) partitions all 2**n words (n = l + k) into
2**k ordered bins of 2**l words each.  It holds them as one read-only
(2**k, 2**l) uint32 array, checked once when the table is built: input
that is no such partition builds no table.  Bin
order and intra-bin order are both meaningful to the constructions, so
two equality notions exist: :func:`tables_equal_ordered` and
:func:`tables_equal_partition`.
"""

import numpy as np

N_CAP = 24
# bins of text that format_table writes, and _parse_canonical reads, at
# once: about this many bytes
_FORMAT_BYTES = 1 << 22
# the 8 ASCII bits of every byte value, most significant first, as one uint64
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(7, -1, -1) & 1) + ord("0")).astype(np.uint8).view(np.uint64)[:, 0]


class CapExceeded(Exception):
    """A requested computation is past the configured size cap."""


class TableParseError(ValueError):
    """Raised by parse_table; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


def word_str(w, n):
    """Render word w as an n-character bit string, leftmost bit first."""
    if not 0 <= w < (1 << n):
        raise ValueError("word %d does not fit in %d bits" % (w, n))
    return format(w, "0%db" % n)


def parse_word(s):
    """Parse a bit string, returning (word, length)."""
    if not s or any(c not in "01" for c in s):
        raise ValueError("not a bit string: %r" % (s,))
    return int(s, 2), len(s)


def hamming_distance(a, b, n=None):
    """Number of bit positions where a and b differ.

    The optional n bounds both words; passing words that do not fit in
    n bits is a usage error (the length-mismatch case for int words).
    """
    if n is not None:
        if not 0 <= a < (1 << n) or not 0 <= b < (1 << n):
            raise ValueError("word does not fit in %d bits" % n)
    return (a ^ b).bit_count()


def word_rank(words, n):
    """Rank over GF(2) of a 1-D array of n-bit words.

    Gaussian elimination one pivot bit at a time, each step one array
    operation over all words.
    """
    rank = 0
    for bit in range(n - 1, -1, -1):
        has = (words >> bit) & 1 == 1
        if has.any():
            words = np.where(has, words ^ words[has.argmax()], words)
            rank += 1
    return rank


class CodeTable:
    """Form (l, k) binning table: 2**k ordered bins of 2**l words.

    `bins` may be any (2**k, 2**l) nesting of integers, an array among
    them, that partitions the n-bit words; the table holds a read-only
    uint32 copy in `array`.  Any other input raises ValueError listing
    its problems.  Every table is checked here, once.
    """

    __slots__ = ("l", "k", "array")

    def __init__(self, l, k, bins):
        if l < 0 or k < 1:
            raise ValueError("need l >= 0 and k >= 1, got (%d, %d)" % (l, k))
        if l + k > N_CAP:
            raise CapExceeded("blocklength %d exceeds cap %d" % (l + k, N_CAP))
        if not isinstance(bins, np.ndarray):
            bins = [list(b) for b in bins]
        array = _word_array(l, k, bins)
        if array is None:
            raise _invalid(l, k, bins)
        self._settle(l, k, array.astype(np.uint32))

    @classmethod
    def _adopt(cls, l, k, words):
        # a table that keeps `words` without a copy: a (2**k, 2**l) uint32
        # array of n-bit words that its builder has just made and holds
        # no other reference to
        t = cls.__new__(cls)
        t._settle(l, k, words)
        return t

    def _settle(self, l, k, array):
        # 2**n words in range are the 2**n words iff a scatter marks each
        seen = np.zeros(1 << (l + k), dtype=bool)
        seen[array] = True
        if not seen.all():
            raise _invalid(l, k, array)
        self.l = l
        self.k = k
        self.array = array
        array.flags.writeable = False

    @property
    def n(self):
        return self.l + self.k

    @property
    def bins(self):
        """The bins as fresh lists of ints, built on each access."""
        return self.array.tolist()

    def words(self):
        """All words of the table in bin order."""
        return [w for b in self.bins for w in b]

    def __repr__(self):
        return "CodeTable(l=%d, k=%d, %d bins)" % (self.l, self.k, len(self.array))


def _word_array(l, k, bins):
    # bins as a (2**k, 2**l) integer array (bins itself when it is one), or
    # None when they have another shape or hold anything but integers that
    # fit in n = l + k bits
    try:
        arr = np.asarray(bins)
    except (ValueError, OverflowError):
        return None
    if arr.shape != (1 << k, 1 << l) or arr.dtype.kind not in "iu":
        return None
    if arr.min() < 0 or arr.max() >= 1 << (l + k):
        return None
    return arr


_INVALID = "invalid code table: "


def _invalid(l, k, bins):
    # the ValueError for bins that are not a form (l, k) partition, listing
    # every problem a per-word scan finds: wrong bin counts or sizes,
    # out-of-range words, duplicates, non-integers (with the right counts
    # and sizes, words in range and none repeated, no word can be missing)
    problems = []
    n = l + k
    if isinstance(bins, np.ndarray) and _word_array(l, k, bins) is not None:
        # right-shaped integer words in range: only repeats can be wrong, so
        # the scan visits just the words that one bincount counts twice
        words = bins.astype(np.intp).ravel()
        at = np.flatnonzero(np.bincount(words, minlength=1 << n)[words] > 1)
        cells = zip((at >> l).tolist(), words[at].tolist())
    else:
        bins = bins.tolist() if isinstance(bins, np.ndarray) else bins
        if len(bins) != 1 << k:
            problems.append("expected %d bins, found %d" % (1 << k, len(bins)))
        for i, b in enumerate(bins):
            if len(b) != 1 << l:
                problems.append("bin %d has %d words, expected %d" % (i + 1, len(b), 1 << l))
        cells = ((i, w) for i, b in enumerate(bins) for w in b)
    seen = {}
    for i, w in cells:
        if not 0 <= w < (1 << n):
            problems.append("bin %d: word %s does not fit in %d bits" % (i + 1, w, n))
        elif w in seen:
            shown = word_str(w, n) if isinstance(w, (int, np.integer)) else repr(w)
            problems.append("duplicate word %s (bins %d and %d)" % (shown, seen[w], i + 1))
        else:
            seen[w] = i + 1
    if not problems:
        # equal to a partition's words, but not integers (1.0 == 1)
        problems.append("words must be integers")
    return ValueError(_INVALID + "; ".join(problems))


def xor_translate(t, z):
    """XOR every word with z, preserving bin structure.  Involutive."""
    if not 0 <= z < (1 << t.n):
        raise ValueError("z does not fit in %d bits" % t.n)
    return CodeTable._adopt(t.l, t.k, t.array ^ np.uint32(z))


def tables_equal_ordered(a, b):
    """Strict equality: same form, same bins in the same order."""
    return a.l == b.l and a.k == b.k and a.bins == b.bins


def partition_of(t):
    """The table as a set of bins-as-sets; order forgotten."""
    return frozenset(frozenset(b) for b in t.bins)


def tables_equal_partition(a, b):
    """Equality up to bin order and intra-bin order."""
    return a.n == b.n and partition_of(a) == partition_of(b)


def format_table(t):
    """Serialize to the text format: header 'l k', then one bin per line.

    Words are written as n bits separated by single spaces, each bin
    line ending in a newline.  Each word's bytes are spelled through a
    256-entry table of 8 ASCII bits, a bounded block of bins at a time,
    straight into one byte buffer that is decoded once.
    """
    return str(memoryview(_format_bytes(t)), "ascii")


def _format_bytes(t):
    # format_table's text as one uint8 buffer of its ASCII bytes
    n = t.n
    width = (n + 7) // 8
    head = b"%d %d\n" % (t.l, t.k)
    buf = np.empty(len(head) + t.array.size * (n + 1), dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    cells = buf[len(head) :].reshape(t.array.shape + (n + 1,))
    cells[..., n] = ord(" ")
    cells[:, -1, n] = ord("\n")
    step = max(1, _FORMAT_BYTES // (t.array.shape[1] * (n + 1)))
    for start in range(0, len(t.array), step):
        block = t.array[start : start + step]
        # each word's low `width` bytes, most significant first
        octets = block.astype(">u4").view(np.uint8).reshape(block.shape + (4,))[..., 4 - width :]
        chars = _BYTE_BITS[octets].view(np.uint8).reshape(block.shape + (8 * width,))
        cells[start : start + step, :, :n] = chars[..., 8 * width - n :]
    return buf


def parse_table(text):
    """Parse the text format produced by format_table.

    Raises TableParseError with the offending 1-based line number, or
    with the table's problems when the bins are not a partition.  Text
    laid out exactly as format_table writes it is decoded by array
    operations, a bounded block of bins at a time; any other spelling
    goes through the line scanner.
    """
    try:
        t = _parse_canonical(text)
        return _scan_table(text) if t is None else t
    except TableParseError:
        raise
    except ValueError as exc:
        # the table's own problem list, which carries no line number
        raise TableParseError(str(exc).removeprefix(_INVALID)) from None


def _parse_canonical(text):
    # the table if text is byte for byte in format_table's layout, else
    # None; decoded a block of bins at a time into one word array
    if not text.isascii():
        return None
    end = text.find("\n", 0, 16)
    head = text[:end] if end >= 0 else ""
    try:
        l, k = (int(x) for x in head.split(" "))
    except ValueError:
        return None
    if head != "%d %d" % (l, k) or l < 0 or k < 1 or l + k > N_CAP:
        return None
    n = l + k
    row = (1 << l) * (n + 1)
    if len(text) != end + 1 + (1 << k) * row:
        return None
    words = np.empty((1 << k, 1 << l), dtype=np.uint32)
    flat = words.reshape(-1)
    step = max(1, _FORMAT_BYTES // row)
    for start in range(0, 1 << k, step):
        at = end + 1 + start * row
        cells = np.frombuffer(text[at : at + step * row].encode("ascii"), dtype=np.uint8)
        cells = cells.reshape(-1, 1 << l, n + 1)
        gaps = cells[..., n]
        if (gaps[:, :-1] != ord(" ")).any() or (gaps[:, -1] != ord("\n")).any():
            return None
        # one bit per character with the gaps read as 0: a stream of (n + 1)-bit cells
        bits = cells - np.uint8(ord("0"))
        bits[..., n] = 0
        if bits.max() > 1:
            return None
        stream = np.concatenate((np.packbits(bits), np.zeros(3, dtype=np.uint8)))
        # each cell's n bits lead the big-endian 32 bits read from its first byte on
        first = np.arange(0, bits.size, n + 1, dtype=np.uint32)
        quads = np.ndarray(len(stream) - 3, dtype=">u4", buffer=stream, strides=(1,))
        out = flat[start << l : (start << l) + len(first)]
        np.left_shift(quads[first >> 3], first & 7, out=out)
        out >>= 32 - n
    return CodeTable._adopt(l, k, words)


def _scan_table(text):
    # the line scanner: any spelling the tokenizer accepts, errors with line numbers
    lines = text.splitlines()
    if not lines:
        raise TableParseError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise TableParseError("expected header 'l k'", line=1)
    try:
        l, k = int(header[0]), int(header[1])
    except ValueError:
        raise TableParseError("expected two integers in header", line=1)
    if l < 0 or k < 1 or l + k > N_CAP:
        raise TableParseError("unsupported form (%d, %d)" % (l, k), line=1)
    n = l + k
    bins = []
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        row = []
        for tok in raw.split():
            try:
                w, width = parse_word(tok)
            except ValueError as exc:
                raise TableParseError(str(exc), line=lineno)
            if width != n:
                raise TableParseError("word %s has %d bits, expected %d" % (tok, width, n), line=lineno)
            row.append(w)
        if len(row) != 1 << l:
            raise TableParseError("bin has %d words, expected %d" % (len(row), 1 << l), line=lineno)
        bins.append(row)
    if len(bins) != 1 << k:
        raise TableParseError("found %d bins, expected %d" % (len(bins), 1 << k), line=lineno)
    return CodeTable(l, k, bins)
