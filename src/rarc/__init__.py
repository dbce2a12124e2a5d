"""Rack-aware regenerating codes with few helper racks.

A scalar minimum-storage code and an array minimum-bandwidth code for
clusters of n nodes in nbar racks of u, where a failed node is rebuilt
from its rack's other u - 1 nodes plus one symbol from each of dbar
helper racks.  Also included: the cut-set bound and tradeoff extremes,
an overhead sweep, a traffic-metering cluster simulator, and a CLI with
an on-disk encoded-file format.
"""

from .errors import FormatError, ParameterError, SingularSystemError, VerificationError
from .field import FieldSpec, Gf256Field, PrimeField, eval_points, make_field
from .mbrr import MbrrCode, message_size
from .msrr import MsrrCode
from .params import (
    MBRR,
    MSRR,
    SystemParams,
    TradeoffPoint,
    cutset_bound,
    mbrr_point,
    mincut_profile,
    msrr_point,
    overhead_pair,
    sweep_table,
    tradeoff_points,
)
from .sim import Cluster, RepairPolicy, TrafficLog

__version__ = "0.1.0"

__all__ = [
    "Cluster",
    "FieldSpec",
    "FormatError",
    "Gf256Field",
    "MbrrCode",
    "MsrrCode",
    "ParameterError",
    "PrimeField",
    "RepairPolicy",
    "SingularSystemError",
    "SystemParams",
    "TradeoffPoint",
    "TrafficLog",
    "VerificationError",
    "cutset_bound",
    "eval_points",
    "make_field",
    "mbrr_point",
    "message_size",
    "mincut_profile",
    "msrr_point",
    "overhead_pair",
    "sweep_table",
    "tradeoff_points",
    "MBRR",
    "MSRR",
    "__version__",
]
