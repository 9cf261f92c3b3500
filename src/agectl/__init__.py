"""Age-control update transport and its evaluation toolkit."""

__version__ = "0.1.0"

from .controller import control_step, update_lambda
from .endpoints import AcpPlusSource, ConstantSource, LazySource, Monitor, make_source
from .estimation import EpochWindow, NetworkEstimator, ewma_update
from .metrics import AgeTrace, SummaryStats, jain_fairness, summarize, time_average_age
from .netsim import MultiaccessConfig, SimConfig, StationConfig, run_simulation, sweep_min_age
from .wire import AckPacket, UpdatePacket, decode_ack, decode_update, encode_ack, encode_update

__all__ = [
    "AckPacket", "AcpPlusSource", "AgeTrace", "ConstantSource", "EpochWindow",
    "LazySource", "Monitor", "MultiaccessConfig", "NetworkEstimator", "SimConfig",
    "StationConfig", "SummaryStats", "UpdatePacket", "control_step", "decode_ack",
    "decode_update", "encode_ack", "encode_update", "ewma_update", "jain_fairness",
    "make_source", "run_simulation", "summarize", "sweep_min_age", "time_average_age",
    "update_lambda",
]
