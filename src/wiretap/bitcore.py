"""Binary words, Hamming geometry, and binning code tables.

Words are plain Python ints carrying no length of their own; every table
knows its blocklength n and all words must fit in n bits.  Bit position 0
is the leftmost (most significant) bit when a word is printed, and
"appending" a bit attaches it at the rightmost end, i.e. ``(w << 1) | b``.

A code table of form (l, k) partitions all 2**n words (n = l + k) into
2**k ordered bins of 2**l words each.  Bin order and intra-bin order are
both meaningful to the constructions, so two equality notions exist:
:func:`tables_equal_ordered` and :func:`tables_equal_partition`.
"""

import itertools

N_CAP = 24


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


class CodeTable:
    """Form (l, k) binning table: 2**k ordered bins of 2**l words."""

    __slots__ = ("l", "k", "bins")

    def __init__(self, l, k, bins):
        if l < 0 or k < 1:
            raise ValueError("need l >= 0 and k >= 1, got (%d, %d)" % (l, k))
        if l + k > N_CAP:
            raise CapExceeded("blocklength %d exceeds cap %d" % (l + k, N_CAP))
        self.l = l
        self.k = k
        self.bins = [list(b) for b in bins]

    @property
    def n(self):
        return self.l + self.k

    def words(self):
        """All words of the table in bin order."""
        return [w for b in self.bins for w in b]

    def __repr__(self):
        return "CodeTable(l=%d, k=%d, %d bins)" % (self.l, self.k, len(self.bins))


class ValidationReport:
    """Outcome of validate_table: ok flag plus human-readable problems."""

    def __init__(self, problems):
        self.problems = list(problems)

    @property
    def ok(self):
        return not self.problems

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(%s)" % "; ".join(self.problems)


def validate_table(t):
    """Check the partition invariants of a code table.

    Reports wrong bin counts or sizes, out-of-range words, duplicates,
    and missing words.  Never raises; the report carries the failures.
    """
    problems = []
    n = t.n
    if len(t.bins) != 1 << t.k:
        problems.append("expected %d bins, found %d" % (1 << t.k, len(t.bins)))
    for i, b in enumerate(t.bins):
        if len(b) != 1 << t.l:
            problems.append("bin %d has %d words, expected %d" % (i + 1, len(b), 1 << t.l))
    # a valid table lists every word exactly once; only an invalid one needs the scan below
    if not problems and sorted(itertools.chain.from_iterable(t.bins)) == list(range(1 << n)):
        return ValidationReport(problems)
    seen = {}
    for i, b in enumerate(t.bins):
        for w in b:
            if not 0 <= w < (1 << n):
                problems.append("bin %d: word %d does not fit in %d bits" % (i + 1, w, n))
            elif w in seen:
                problems.append("duplicate word %s (bins %d and %d)" % (word_str(w, n), seen[w], i + 1))
            else:
                seen[w] = i + 1
    if len(problems) == 0 and len(seen) != 1 << n:
        missing = [word_str(w, n) for w in range(1 << n) if w not in seen]
        problems.append("missing words: %s" % ", ".join(missing))
    return ValidationReport(problems)


def require_valid(t):
    """Raise ValueError unless t passes validate_table."""
    report = validate_table(t)
    if not report.ok:
        raise ValueError("invalid code table: %s" % "; ".join(report.problems))
    return t


def xor_translate(t, z):
    """XOR every word with z, preserving bin structure.  Involutive."""
    if not 0 <= z < (1 << t.n):
        raise ValueError("z does not fit in %d bits" % t.n)
    return CodeTable(t.l, t.k, [[w ^ z for w in b] for b in t.bins])


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
    """Serialize to the text format: header 'l k', then one bin per line."""
    lines = ["%d %d" % (t.l, t.k)]
    for b in t.bins:
        lines.append(" ".join(word_str(w, t.n) for w in b))
    return "\n".join(lines) + "\n"


def parse_table(text):
    """Parse the text format produced by format_table.

    Raises TableParseError with the offending 1-based line number.
    The parsed table must pass validate_table.
    """
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
    t = CodeTable(l, k, bins)
    report = validate_table(t)
    if not report.ok:
        raise TableParseError("; ".join(report.problems))
    return t
