"""The five dependence cases of the synthetic study and the oscillators they mix.

Specifications only: `simulation` generates the data they describe.  The
command line reads the case ids and the default root modulus from here when
it builds its flags, so this module imports nothing beyond the standard
library.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LatentOscillatorSpec",
    "MixingSpec",
    "CaseSpec",
    "CASES",
    "BAND_PEAK_HZ",
    "DEFAULT_MODULUS",
]

BAND_PEAK_HZ = {"theta": 6.0, "alpha": 10.0, "gamma": 37.5}
# root modulus of the latent AR(2) pair; sharp enough that dependence decays
# within a few Hz of the peak, wide enough that every in-band bin carries it
DEFAULT_MODULUS = 0.99


@dataclass(frozen=True)
class LatentOscillatorSpec:
    """Second-order autoregression whose spectrum peaks at one frequency."""

    peak_hz: float
    fs: float
    n_samples: int
    modulus: float = DEFAULT_MODULUS

    def __post_init__(self):
        if not (0 < self.peak_hz < self.fs / 2):
            raise ValueError("peak must lie strictly inside (0, fs/2)")
        if not (0 < self.modulus < 1):
            raise ValueError("modulus must lie in (0, 1)")
        if self.n_samples < 2:
            raise ValueError("need at least two samples")


@dataclass(frozen=True)
class MixingSpec:
    """Strictly positive mixing weights summing to one; last weight is noise."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if any(v <= 0 for v in w):
            raise ValueError("weights must be strictly positive")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class CaseSpec:
    """Wiring of shared latents into the two channel groups.

    Each channel's entry names the latent processes mixed into it, as
    (band, index) tags; equal tags mean one shared realisation.  The mixing
    weights align with the tag list, the final weight belonging to the
    channel's private noise.
    """

    case_id: int
    mixing: MixingSpec
    x_wiring: tuple[tuple[tuple[str, int], ...], ...]
    y_wiring: tuple[tuple[tuple[str, int], ...], ...]

    @property
    def p(self) -> int:
        return len(self.x_wiring)

    @property
    def q(self) -> int:
        return len(self.y_wiring)

    def shared_tags(self, i: int, j: int) -> set:
        """Latent tags common to channel x_i and channel y_j."""
        return set(self.x_wiring[i]) & set(self.y_wiring[j])


_PHI2 = MixingSpec((0.75, 0.25))
_PHI3 = MixingSpec((0.375, 0.375, 0.25))

CASES: dict[int, CaseSpec] = {
    # strong in-band dependence: both channel pairs share an alpha latent
    1: CaseSpec(1, _PHI2,
                x_wiring=((("alpha", 1),), (("alpha", 2),)),
                y_wiring=((("alpha", 1),), (("alpha", 2),))),
    # moderate: only the first pair shares a latent
    2: CaseSpec(2, _PHI2,
                x_wiring=((("alpha", 1),), (("alpha", 2),)),
                y_wiring=((("alpha", 1),), (("alpha", 3),))),
    # spectral independence: no latent crosses the groups
    3: CaseSpec(3, _PHI2,
                x_wiring=((("alpha", 1),), (("alpha", 2),)),
                y_wiring=((("alpha", 3),), (("alpha", 4),))),
    # theta shared by all three pairs, gamma by two
    4: CaseSpec(4, _PHI3,
                x_wiring=((("theta", 1), ("gamma", 1)),
                          (("theta", 2), ("gamma", 2)),
                          (("theta", 3), ("gamma", 3))),
                y_wiring=((("theta", 1), ("gamma", 1)),
                          (("theta", 2), ("gamma", 2)),
                          (("theta", 3), ("gamma", 4)))),
    # gamma shared by all three pairs, theta by two
    5: CaseSpec(5, _PHI3,
                x_wiring=((("theta", 1), ("gamma", 1)),
                          (("theta", 2), ("gamma", 2)),
                          (("theta", 3), ("gamma", 3))),
                y_wiring=((("theta", 1), ("gamma", 1)),
                          (("theta", 2), ("gamma", 2)),
                          (("theta", 4), ("gamma", 3)))),
}
