"""Fixture: SCH001 positives -- telemetry reads nothing ever emits.

Self-contained producer/consumer pair: a ``from_params`` reading a
wire key nothing writes, and a fold reading attributes the report never
carries on the wire (or at all).
"""
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class ChunkReport:
    time: float
    chunk_rate: float
    lag: float
    drops: int

    def to_params(self) -> Dict[str, str]:
        return {
            "t": f"{self.time:.3f}",
            "cr": f"{self.chunk_rate:.3f}",
            "lag": f"{self.lag:.3f}",
        }

    @classmethod
    def from_params(cls, p: Dict[str, str]) -> "ChunkReport":
        return cls(
            time=float(p["t"]),
            chunk_rate=float(p["cr"]),
            lag=float(p.get("lag", "0")),
            drops=int(p.get("dr", "0")),
        )


class ChunkRateFold:
    def __init__(self):
        self.acc = 0.0
        self.stalls = 0

    def update(self, report):
        self.acc += report.chunk_rate
        self.acc += report.drops
        self.stalls += report.stall_count

    def result(self):
        return self.acc, self.stalls
