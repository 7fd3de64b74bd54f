"""Matrix form: encoding, decoding, and the coset view.

For shapes where the family is linear (one randomization bit, an even
number of them, or the lone (3,1) case) the whole table collapses into
a generator matrix G and a transposed parity check H_T satisfying
G . H_T = [I_k; 0] over GF(2).  Encoding is one vector-matrix product,
message recovery another, and the bins become cosets, which also makes
the equivocation computable from a single observation.
"""

from wiretap.bitcore import format_table, word_str
from wiretap.equivocation import conditional_equivocation, is_coset_table, total_equivocation_linear
from wiretap.linear_matrices import (
    build_codec,
    coset_table,
    decode,
    encode,
    format_matrix,
    is_linear_form,
    syndrome_check,
)

codec = build_codec(2, 3)
print("form (2,3): generator G =")
print(format_matrix(codec.G))
print("transposed parity check H_T =")
print(format_matrix(codec.H_T))
print()

m, v = 0b101, 0b10
x = encode(codec, m, v)
print("encode message %s with randomization %s -> codeword %s" % (
    word_str(m, codec.k), word_str(v, codec.l), word_str(x, codec.n)))
print("decode recovers the message: %s" % word_str(decode(codec, x), codec.k))
print("exhaustive syndrome check over all %d codewords: %s" % (1 << codec.n, syndrome_check(codec)))
print()

print("the cosets, read off as a code table:")
print(format_table(coset_table(codec)))

print("linearity lets one observation stand in for all %d:" % (1 << codec.n))
t = coset_table(codec)
print("  XOR by every unit vector maps bins onto bins: %s" % is_coset_table(t))
for p in (0.1, 0.3):
    every = sum(conditional_equivocation(t, z, p) for z in range(1 << t.n)) / (1 << t.n)
    fast = total_equivocation_linear(t, p)
    print("  p = %.1f: average over every observation %.12f, z = 0 alone %.12f" % (p, every, fast))
print()

print("which forms have matrices at all?")
for form in ((1, 5), (2, 2), (3, 1), (3, 2), (4, 2), (5, 1)):
    print("  form %s: %s" % (form, "linear" if is_linear_form(*form) else "no matrix pattern"))
