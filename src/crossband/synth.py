"""Synthetic two-band link generator with controllable cross-band congruence.

Each link owns a set of shared propagation paths drawn once, which both bands
then observe through independent angle and power jitter. On top of those,
each band may carry exclusive weak paths 10 to 30 dB below the strongest
shared path, mimicking the diffuse components that show up at one carrier but
not the other. Zero jitter and zero exclusive paths give perfectly congruent
bands; growing either knob degrades congruence smoothly.

Randomness comes from numpy's PCG64 keyed by (seed, link index), so any link
can be regenerated alone and datasets are reproducible bit for bit.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .channel import LinkPair, _channels
from .units import db_to_linear_each, is_normal_power, wrap_azimuths_deg

GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic link generator.

    ``shared_power_decay_db`` sets the nominal power ramp over shared paths
    (path i sits i times that many dB below path 0); the jitters are standard
    deviations of the per-band Gaussian perturbations applied on top.
    """

    n_shared_paths: int = 4
    n_low_only_paths: int = 3
    n_high_only_paths: int = 1
    shared_power_decay_db: float = 3.0
    angle_jitter_deg: float = 5.0
    power_jitter_db: float = 2.0
    delay_spread_ns: float = 50.0
    low_freq_ghz: float = 15.0
    high_freq_ghz: float = 28.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_shared_paths", "n_low_only_paths", "n_high_only_paths", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        for name in ("shared_power_decay_db", "angle_jitter_deg", "power_jitter_db",
                     "delay_spread_ns", "low_freq_ghz", "high_freq_ghz"):
            value = getattr(self, name)
            # a comparison: math.isfinite raises OverflowError on a huge int
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0.0 <= value <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.n_shared_paths + self.n_low_only_paths < 1:
            raise ValueError("the low band needs at least one path")
        if self.n_shared_paths + self.n_high_only_paths < 1:
            raise ValueError("the high band needs at least one path")
        if not 0.0 < self.low_freq_ghz <= self.high_freq_ghz:
            raise ValueError("need 0 < low_freq_ghz <= high_freq_ghz")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> GenConfig:
        if not isinstance(data, dict):
            raise ValueError(f"generator config must be an object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown generator config keys: {sorted(unknown)}")
        return cls(**data)


def generate_link(config: GenConfig, link_index: int) -> LinkPair:
    """Draw one two-band link; deterministic given (config.seed, link_index).

    Raises ``ValueError`` naming the link index and the setting when a
    setting is so extreme that a drawn angle, delay or power overflows.
    """
    if link_index < 0:
        raise ValueError(f"link_index must be >= 0, got {link_index!r}")
    return _generate(config, range(link_index, link_index + 1))[0]


def generate_dataset(config: GenConfig, n_links: int) -> list[LinkPair]:
    """Links 0..n_links-1, each as ``generate_link`` draws it; order carries no information."""
    if n_links < 1:
        raise ValueError(f"n_links must be >= 1, got {n_links!r}")
    return [pair for start in range(0, n_links, _LINKS_PER_BLOCK)
            for pair in _generate(config, range(start, min(start + _LINKS_PER_BLOCK, n_links)))]


# Links drawn before their columns are checked: an extreme setting fails
# after at most this many links.
_LINKS_PER_BLOCK = 256


def _generate(config: GenConfig, link_indices: range) -> list[LinkPair]:
    """Draw the links one by one, then build and check their columns together."""
    n = config.n_shared_paths
    extra_counts = (config.n_low_only_paths, config.n_high_only_paths)
    aoa, power_db, delay_ns = [], [], []
    with np.errstate(all="ignore"):  # the checks below name the setting behind an overflow
        shared_power_db = -config.shared_power_decay_db * np.arange(n, dtype=float)
        for link_index in link_indices:
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(link_index,))))
            shared_aoa = rng.uniform(0.0, 360.0, n)
            shared_delay_ns = rng.exponential(config.delay_spread_ns, n)
            for extra_count in extra_counts:  # the low band's paths, then the high band's
                aoa.append(shared_aoa + rng.normal(0.0, config.angle_jitter_deg, n))
                power_db.append(shared_power_db + rng.normal(0.0, config.power_jitter_db, n))
                aoa.append(rng.uniform(0.0, 360.0, extra_count))
                delay_ns += [shared_delay_ns, rng.exponential(config.delay_spread_ns, extra_count)]
                # Exclusive paths sit 10-30 dB below the strongest shared
                # path, whose nominal power is 0 dB.
                power_db.append(-rng.uniform(10.0, 30.0, extra_count))
        aoas = np.concatenate(aoa)
        delays_ns = np.concatenate(delay_ns)
        # one scalar pow per path: see db_to_linear
        powers = db_to_linear_each(np.concatenate(power_db))
    bounds = np.cumsum([0] + [n + extra for _ in link_indices for extra in extra_counts]).tolist()
    checks = (  # only an extreme setting draws a value a Ray would refuse
        (np.isfinite(aoas), "angle is not finite", "angle_jitter_deg"),
        (is_normal_power(powers),
         "power is zero, infinite or subnormal as a linear power",
         "shared_power_decay_db or power_jitter_db"),
        (np.isfinite(delays_ns), "delay is not finite", "delay_spread_ns"),
    )
    if not all(ok.all() for ok, _, _ in checks):
        for band, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            for ok, what, settings in checks:
                if not ok[start:stop].all():
                    raise ValueError(f"link {link_indices[band // 2]}: a drawn {what}; lower {settings}")
    # the jitter can take a drawn angle off [0, 360)
    channels = _channels([config.low_freq_ghz, config.high_freq_ghz] * len(link_indices),
                         powers, delays_ns, wrap_azimuths_deg(aoas), bounds)
    return [LinkPair(low=low, high=high, link_id=f"link-{link_index:05d}")
            for link_index, low, high in zip(link_indices, channels[::2], channels[1::2])]
