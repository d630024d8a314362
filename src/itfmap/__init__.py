"""itfmap: two-angle VHF source mapping for a crossed-baseline broadband
interferometer — denoising, windowed cross-correlation TDOA, geometry, and a
closed-loop simulation/benchmark harness."""

from itfmap.geometry import ArrayGeometry, DirectionEstimate, direction_from_tdoa, tdoa_from_direction
from itfmap.signals import SampleRecord, SegmentationPlan, load_record, save_record
from itfmap.simulate import (
    AngleTrack, SimulatedRecord, add_awgn, augment_track, make_track, reference_waveform, synthesize_record,
)
from itfmap.xcorr import CorrelationSeries, InterpSpec, cc_freq, cc_time, cc_wavelet, refine_peak
from itfmap.evaluate import map_error, run_benchmark
from itfmap.pipeline import MapResult, PipelineConfig, map_record

__version__ = "0.1.0"

__all__ = [
    "AngleTrack",
    "ArrayGeometry",
    "CorrelationSeries",
    "DirectionEstimate",
    "InterpSpec",
    "MapResult",
    "PipelineConfig",
    "SampleRecord",
    "SegmentationPlan",
    "SimulatedRecord",
    "add_awgn",
    "augment_track",
    "cc_freq",
    "cc_time",
    "cc_wavelet",
    "direction_from_tdoa",
    "load_record",
    "make_track",
    "map_error",
    "map_record",
    "reference_waveform",
    "refine_peak",
    "run_benchmark",
    "save_record",
    "synthesize_record",
    "tdoa_from_direction",
]
