"""Output bytes of paper-facing CLI runs, pinned by their sha256.

The digests are those of the runs as the benchmark makes them (the four
argvs of bench/worker.py) and of three more: the default-grid limit of
(3,2), the exhaustive compare of (2,1) and the closed-form (1,3) table
with its matrices.  A change that moves any byte of these outputs, a
digit of one value, the row order or the layout, fails here; a change
meant to move them updates the digest and says why.
"""

import hashlib

import pytest

from wiretap import cli

DIGESTS = {
    ("limit", "--form", "4,1", "--p-grid", "0:0.5:11"):
        "ff52bf9964f1d79c3fb8fd04ab9c9622141a5e86523b11c7cba60a6fd033d10e",
    ("limit", "--form", "3,2"):
        "1b985a64441530312d993e5c50eeca71969f8cd94242794cecc322d532ca2b06",
    ("compare", "--form", "3,2", "--samples", "10000", "--seed", "1", "--p-grid", "0:0.5:11"):
        "eb7ad3f73abe101d2f5a3c15f31164c83bcc83fc714e939a018a250985212c41",
    ("compare", "--form", "2,1", "--exhaustive"):
        "f00cae77cfdca23d094db15cee8fcfbcb558875dbac69f80788c8515729c8fc2",
    ("ni", "--form", "1,3", "--closed-form", "--emit-matrices"):
        "0a52b57e3137f0b046fa9dac3ab44271c5ac3728d92de884e238be0ecb72c931",
}

# `wiretap equivocation --table-in` of the `wiretap ni --form 2,10` table on 41 points
TABLE_CURVE = "83689190dffe98b0e2234faab15fe3d9ea236ecd2e8b1c60606b56ca35df04e9"


def stdout_digest(capsysbinary, argv):
    assert cli.main(list(argv)) == 0
    captured = capsysbinary.readouterr()
    return hashlib.sha256(captured.out).hexdigest()


@pytest.mark.parametrize("argv", list(DIGESTS), ids=[" ".join(a) for a in DIGESTS])
def test_output_bytes_are_pinned(capsysbinary, argv):
    assert stdout_digest(capsysbinary, argv) == DIGESTS[argv]


def test_table_curve_bytes_are_pinned(tmp_path, capsysbinary):
    table = tmp_path / "table.txt"
    assert cli.main(["ni", "--form", "2,10", "--out", str(table)]) == 0
    argv = ["equivocation", "--table-in", str(table), "--p-grid", "0:0.5:41"]
    assert stdout_digest(capsysbinary, argv) == TABLE_CURVE
