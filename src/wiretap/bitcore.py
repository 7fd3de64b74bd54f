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

import operator

import numpy as np

N_CAP = 24
# about this many bytes at once: the unpacked bits that _format_blocks
# spells, the text that _parse_canonical reads, and the intp indices
# through which CodeTable._settle marks a table's words
_FORMAT_BYTES = 1 << 20


class CapExceeded(Exception):
    """A requested computation is past the configured size cap."""


def check_form(l, k):
    """The table-form rule: ValueError unless l >= 0 and k >= 1,
    CapExceeded past blocklength l + k = N_CAP.  Every builder and reader
    of tables calls it before any work."""
    if l < 0 or k < 1:
        raise ValueError("need l >= 0 and k >= 1, got (%d, %d)" % (l, k))
    if l + k > N_CAP:
        raise CapExceeded("blocklength %d exceeds cap %d" % (l + k, N_CAP))


class TableParseError(ValueError):
    """Raised by parse_table; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


def check_word(w, n=None, name="word"):
    """The word rule: w as an int; TypeError unless it is an integer
    (operator.index), ValueError unless 0 <= w < 2**n (w >= 0 with no n)."""
    w = operator.index(w)
    if not 0 <= w < 1 << (w.bit_length() if n is None else n):
        raise ValueError("%s %d does not fit in %s bits" % (name, w, "any number of" if n is None else n))
    return w


def word_str(w, n):
    """Render word w as an n-character bit string, leftmost bit first."""
    return format(check_word(w, n), "0%db" % n)


def parse_word(s):
    """Parse a bit string, returning (word, length)."""
    if not s or any(c not in "01" for c in s):
        raise ValueError("not a bit string: %r" % (s,))
    return int(s, 2), len(s)


def hamming_distance(a, b, n=None):
    """Number of bit positions where words a and b differ.

    The optional n bounds both words (check_word); passing words that do
    not fit in n bits is a usage error (the length-mismatch case for int words).
    """
    return (check_word(a, n) ^ check_word(b, n)).bit_count()


def word_basis(words, n):
    """A GF(2) basis of the n-bit words on the last axis of `words`, one per
    set: leading axes stack sets (tables).  Returns an array of shape
    words.shape[:-1] + (n,) that lists each set's basis words by leading
    bit, highest first, then zeros; they span the set's words, and their
    count is its rank (word_rank).

    Gaussian elimination, each step one array operation over every word
    of every set, and one step per basis word: a set's largest word leads
    with the highest bit any of its words holds, so it is the next basis
    word, and XOR by it lowers exactly the words that hold that bit.
    """
    words = np.asarray(words)
    basis = np.zeros(words.shape[:-1] + (n,), dtype=words.dtype)
    # no words: an empty basis, and no largest word to take
    for step in range(n) if words.shape[-1] else ():
        pivot = words.max(axis=-1)
        if not pivot.any():
            break
        basis[..., step] = pivot
        words = np.minimum(words, words ^ pivot[..., None])
    return basis


def word_rank(words, n):
    """Rank over GF(2) of the n-bit words on the last axis of `words`, one
    rank per set (a 1-D array gives a 0-d rank): the size of word_basis."""
    return np.count_nonzero(word_basis(words, n), axis=-1)


class CodeTable:
    """Form (l, k) binning table: 2**k ordered bins of 2**l words.

    `bins` may be any (2**k, 2**l) nesting of integers, an array among
    them, that partitions the n-bit words; the table holds a read-only
    uint32 copy in `array`.  Any other input raises ValueError listing
    its problems.  Every table is checked here, once; a form that
    :func:`check_form` refuses is refused before its bins are read, so
    no table past the blocklength cap exists, whichever builder made it.
    A table never changes, so one slot, `_certificate`, caches what the
    equivocation module's coset certificate finds at its first use (None
    until then).
    """

    __slots__ = ("l", "k", "array", "_certificate")

    def __init__(self, l, k, bins):
        check_form(l, k)
        if not isinstance(bins, np.ndarray) and np.iterable(bins):
            # read once, as lists; a bin that is no sequence is left for _invalid to name
            bins = [list(b) if np.iterable(b) else b for b in bins]
        array = _word_array(l, k, bins)
        if array is None:
            raise _invalid(l, k, bins)
        self._settle(l, k, array.astype(np.uint32))

    @classmethod
    def _adopt(cls, l, k, words):
        # a table that keeps `words` without a copy: a (2**k, 2**l) uint32
        # array of n-bit words that its builder has just made and holds
        # no other reference to
        check_form(l, k)
        t = cls.__new__(cls)
        t._settle(l, k, words)
        return t

    def _settle(self, l, k, array):
        # 2**n words in range are the 2**n words iff a scatter marks each;
        # through intp indices, a chunk at a time, since numpy scatters
        # through uint32 indices several times slower
        seen = np.zeros(1 << (l + k), dtype=bool)
        flat = array.reshape(-1)
        step = max(1, _FORMAT_BYTES // 8)
        for start in range(0, len(flat), step):
            seen[flat[start : start + step].astype(np.intp)] = True
        if not seen.all():
            raise _invalid(l, k, array)
        self.l = l
        self.k = k
        self.array = array
        self._certificate = None
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
    # fit in n = l + k bits (read word by word when numpy reads no integers)
    try:
        arr = np.asarray(bins)
        if arr.dtype.kind not in "iu":
            arr = np.asarray([[operator.index(w) for w in b] for b in bins])
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != (1 << k, 1 << l) or arr.dtype.kind not in "iu":
        return None
    if arr.min() < 0 or arr.max() >= 1 << (l + k):
        return None
    return arr


_INVALID = "invalid code table: "


def _invalid(l, k, bins):
    # the ValueError for bins that are not a form (l, k) partition, listing
    # every problem a per-word scan finds: wrong bin counts or sizes, bins
    # that are no sequence of words,
    # words that break the word rule (check_word), duplicates (with the right
    # counts and sizes, integer words in range and none repeated, none is missing)
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
        if not isinstance(bins, list):
            problems.append("expected %d bins, found no sequence" % (1 << k))
            bins = []
        elif len(bins) != 1 << k:
            problems.append("expected %d bins, found %d" % (1 << k, len(bins)))
        for i, b in enumerate(bins):
            if not isinstance(b, list):
                problems.append("bin %d is not a sequence of words" % (i + 1))
            elif len(b) != 1 << l:
                problems.append("bin %d has %d words, expected %d" % (i + 1, len(b), 1 << l))
        cells = ((i, w) for i, b in enumerate(bins) if isinstance(b, list) for w in b)
    seen, integers = {}, True
    for i, w in cells:
        try:
            w = check_word(w, n)
        except TypeError:
            integers = False
        except ValueError as exc:
            problems.append("bin %d: %s" % (i + 1, exc))
        else:
            if w in seen:
                problems.append("duplicate word %s (bins %d and %d)" % (word_str(w, n), seen[w], i + 1))
            seen.setdefault(w, i + 1)
    if not integers or not problems:
        # a word that is no integer, or integer words numpy read as no integer array
        problems.append("words must be integers")
    return ValueError(_INVALID + "; ".join(problems))


def xor_translate(t, z):
    """XOR every word with z, preserving bin structure.  Involutive."""
    return CodeTable._adopt(t.l, t.k, t.array ^ np.uint32(check_word(z, t.n, "observation")))


def tables_equal_ordered(a, b):
    """Strict equality: same form, same bins in the same order."""
    return a.l == b.l and a.k == b.k and np.array_equal(a.array, b.array)


def partition_of(t):
    """The table as a set of bins-as-sets; order forgotten."""
    return frozenset(frozenset(b) for b in t.bins)


def _canonical(t):
    # one array per partition: each bin sorted, bins ordered by their
    # smallest word (distinct, since no word is in two bins)
    words = np.sort(t.array, axis=1)
    return words[np.argsort(words[:, 0])]


def tables_equal_partition(a, b):
    """Equality up to bin order and intra-bin order."""
    return a.n == b.n and np.array_equal(_canonical(a), _canonical(b))


def format_table(t):
    """Serialize to the text format: header 'l k', then one bin per line.

    Words are written as n bits separated by single spaces, each bin
    line ending in a newline.  The text grows by one decoded block of
    :func:`_format_blocks` at a time, and CPython resizes a str that only
    this call holds in place, so beside the text the call holds about
    two blocks (the spelled block and its str), not a second copy of the
    text: at n = 20 a traced peak of 23.4 MB for a 22.0 MB text.
    """
    text = ""
    for block in _format_blocks(t):
        text += str(memoryview(block), "ascii")
    return text


def _format_blocks(t):
    # format_table's text as ASCII blocks: the header's bytes, then the
    # words a block of about _FORMAT_BYTES unpacked bits at a time, each
    # spelled into one reused uint8 buffer (a block is valid until the
    # next is asked for).  np.unpackbits spells a word's 4 big-endian
    # bytes as 32 bytes of bits; its last n are the word, copied out as
    # one V{n} item and ORed with "0", followed by its gap.
    yield b"%d %d\n" % (t.l, t.k)
    n, width = t.n, t.array.shape[1]
    words = t.array.reshape(-1)
    step = max(1, _FORMAT_BYTES // 32)  # 32 unpacked bytes a word
    buf = np.empty(min(step, len(words)) * (n + 1), dtype=np.uint8)
    for start in range(0, len(words), step):
        block = words[start : start + step]
        bits = np.unpackbits(block.astype(">u4").view(np.uint8))
        cells = buf[: len(block) * (n + 1)]
        spelled = np.ndarray(len(block), dtype="V%d" % n, buffer=cells, strides=(n + 1,))
        spelled[...] = np.ndarray(len(block), dtype="V%d" % n, buffer=bits, offset=32 - n, strides=(32,))
        del bits  # not held while the block is consumed
        cells |= np.uint8(ord("0"))
        # the gaps by global word index: a block may end inside a bin
        gaps = cells[n :: n + 1]
        gaps[...] = ord(" ")
        gaps[(width - 1 - start) % width :: width] = ord("\n")
        yield cells


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
        check_form(l, k)
    except (ValueError, CapExceeded):
        return None
    if head != "%d %d" % (l, k):
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
        # the characters less "0", so that "0" and "1" read as bits; the
        # block's bytes are freed as soon as they are read
        bits = np.frombuffer(text[at : at + step * row].encode("ascii"), dtype=np.uint8) - np.uint8(ord("0"))
        bits = bits.reshape(-1, 1 << l, n + 1)
        gaps = bits[..., n] + np.uint8(ord("0"))
        if (gaps[:, :-1] != ord(" ")).any() or (gaps[:, -1] != ord("\n")).any():
            return None
        # one bit per character with the gaps read as 0: a stream of (n + 1)-bit cells
        bits[..., n] = 0
        if bits.max() > 1:
            return None
        stream = np.concatenate((np.packbits(bits), np.zeros(3, dtype=np.uint8)))
        # cell j's n bits lead the big-endian 32 bits read from byte j (n + 1) >> 3
        # on, shifted left by j (n + 1) & 7; both repeat every 8 cells, n + 1 bytes on
        out = flat[start << l : (start << l) + bits.size // (n + 1)]
        for r in range(min(8, len(out))):
            every = out[r::8]
            quads = np.ndarray(len(every), dtype=">u4", buffer=stream, offset=r * (n + 1) >> 3, strides=(n + 1,))
            np.left_shift(quads, r * (n + 1) & 7, out=every)
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
    try:
        check_form(l, k)
    except (ValueError, CapExceeded):
        raise TableParseError("unsupported form (%d, %d)" % (l, k), line=1) from None
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
