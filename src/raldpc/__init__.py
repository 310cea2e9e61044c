"""Rate-adaptive LDPC syndrome reconciliation toolkit for QKD post-processing.

A fixed mother parity-check matrix is grown once with progressive edge
growth; rate adaptation then amounts to encoding more or fewer sifted-key
bits against column prefixes of that matrix.  The package covers the whole
loop: matrix construction and girth analysis (``tanner``), syndrome
encoding and belief-propagation decoding (``codec``), efficiency metrics
and the width-selection table (``adapt``), Monte-Carlo characterization
(``charact``) and the QKD link simulator (``qkdsim``).
"""

__version__ = "0.1.0"

from .adapt import (
    DistillationTable,
    EfficiencySession,
    NoFeasibleWidth,
    RatePoint,
    averaged_efficiency,
    binary_entropy,
    distillation_efficiency,
    effective_rate,
    load_table_csv,
    reconciliation_efficiency,
    save_table_csv,
    select_width,
)
from .charact import FerEstimate, build_table, matrix_digest, wilson_interval
from .codec import (
    DecodeResult,
    DecoderConfig,
    decode,
    encode_syndrome,
    encode_syndrome_batch,
    read_key_blocks,
    write_key_blocks,
)
from .qkdsim import (
    LinkObservables,
    LinkParams,
    SimReport,
    SimRow,
    frame_level_check,
    link_observables,
    save_report_csv,
    simulate_link,
)
from .tanner import (
    ACYCLIC,
    AlistParseError,
    DegreeProfile,
    MatrixPrefix,
    ParityMatrix,
    girth_profile,
    load_alist,
    peg_construct,
    save_alist,
)

__all__ = [
    "ACYCLIC",
    "AlistParseError",
    "DecodeResult",
    "DecoderConfig",
    "DegreeProfile",
    "DistillationTable",
    "EfficiencySession",
    "FerEstimate",
    "LinkObservables",
    "LinkParams",
    "MatrixPrefix",
    "NoFeasibleWidth",
    "ParityMatrix",
    "RatePoint",
    "SimReport",
    "SimRow",
    "averaged_efficiency",
    "binary_entropy",
    "build_table",
    "decode",
    "distillation_efficiency",
    "effective_rate",
    "encode_syndrome",
    "encode_syndrome_batch",
    "frame_level_check",
    "girth_profile",
    "link_observables",
    "load_alist",
    "load_table_csv",
    "matrix_digest",
    "peg_construct",
    "read_key_blocks",
    "reconciliation_efficiency",
    "save_alist",
    "save_report_csv",
    "save_table_csv",
    "select_width",
    "simulate_link",
    "wilson_interval",
    "write_key_blocks",
]
