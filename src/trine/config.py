"""Search configuration shared by the mask search and the CLI.

All randomness in a search flows from the single seed; per-sample bits
are derived with SHA-256 so results are reproducible across platforms
and process counts.  ``threads`` controls execution only and never
changes results, so it is excluded from the semantic hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

from .ipf import CHECK_LEVELS, COND1_INTERPRETATIONS


@dataclass(frozen=True)
class Config:
    lmin: int = 3
    lmax: int = 24
    exhaustive_cutoff: int = 12
    samples_per_L: int = 1000
    seed: int = 20230731
    check_level: str = "light"
    max_steps: int = 10**6
    threads: int = 1
    cond1_interpretation: str = "complemented"
    time_origin: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.lmin < 3:
            raise ValueError("lmin must be at least 3")
        if self.lmax < self.lmin:
            raise ValueError("lmax must be >= lmin")
        if self.check_level not in CHECK_LEVELS:
            raise ValueError(f"unknown check level {self.check_level!r}")
        if self.cond1_interpretation not in COND1_INTERPRETATIONS:
            raise ValueError(
                f"unknown interpretation {self.cond1_interpretation!r}"
            )
        if self.time_origin not in (0, 1):
            raise ValueError("time_origin must be 0 or 1")
        if self.samples_per_L < 0:
            raise ValueError("samples_per_L must be >= 0")
        if self.samples_per_L == 0 and self.lmax > self.exhaustive_cutoff:
            raise ValueError(
                f"samples_per_L (--samples) is 0, so L = "
                f"{max(self.lmin, self.exhaustive_cutoff + 1)}.."
                f"{self.lmax}, above exhaustive_cutoff (--cutoff) {self.exhaustive_cutoff}, "
                "would test no start; raise --samples or --cutoff, or lower --lmax")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")

    def semantic_dict(self) -> dict:
        """Everything that influences results (threads does not)."""
        data = asdict(self)
        data.pop("threads")
        return data

    def semantic_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def with_overrides(self, **kwargs) -> "Config":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self

    @classmethod
    def from_json_dict(cls, data: dict, **defaults) -> "Config":
        """The config a JSON object gives, ``defaults`` standing in for
        the fields it leaves out before the class defaults do."""
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{**defaults, **data})

    @classmethod
    def load(cls, path, **defaults) -> "Config":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh), **defaults)

