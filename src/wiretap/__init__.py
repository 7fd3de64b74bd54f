"""Equivocation workbench for binning codes on the binary symmetric wiretap channel."""

from .bitcore import (
    CodeTable,
    CapExceeded,
    TableParseError,
    format_table,
    hamming_distance,
    parse_table,
    partition_of,
    tables_equal_ordered,
    tables_equal_partition,
    xor_translate,
)
from .equivocation import (
    EquivocationCurve,
    NotLinearError,
    channel_weights,
    conditional_equivocation,
    coset_code_curve,
    distance_profile,
    equivocation_curve,
    equivocation_rate,
    is_coset_table,
    total_equivocation,
    total_equivocation_linear,
)
from .lp_limit import (
    appendix_count,
    build_lp,
    enumerate_rows,
    lp_limit_bits,
    lp_limit_curve,
    lp_limit_rate,
    optimal_rows_l1,
    solve_lp,
)
from .ni_code import (
    closed_form_ff_bins,
    closed_form_table,
    gray_matrix,
    opposite_pairing_check,
    path_count,
    rahba,
    rasba,
    standard_table,
)
from .linear_matrices import (
    UnsupportedForm,
    WiretapCodec,
    build_codec,
    coset_table,
    decode,
    encode,
    syndrome_check,
)
from .baselines import (
    binary_entropy,
    binning_code_count,
    compare_form,
    enumerate_binnings,
    infinite_blocklength_limit,
    sample_binning,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
