"""Resource caps and pipeline configuration shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import CapExceeded, InputError


@dataclass(frozen=True)
class Caps:
    """Hard limits that turn would-be blowups into explicit errors."""

    enum_cap: int = 10**7          # points enumerated exhaustively (p^n)
    search_cap: int = 10**5        # linear-combination scan size (p^c)
    codeword_cap: int = 10**6      # Reed-Muller codewords enumerated
    unknowns_cap: int = 5000       # certificate unknowns per cofactor
    reduced_scan_cap: int = 10**6  # reduced-space scan size (p^{c'})

    def __post_init__(self):
        for cap in fields(self):
            if getattr(self, cap.name) <= 0:
                raise InputError(f"{cap.name} must be positive, got {getattr(self, cap.name)}")

    def require(self, cap: str, amount: int) -> None:
        """Raise CapExceeded when amount exceeds the limit of the named cap."""
        limit = getattr(self, cap)
        if amount > limit:
            # str() refuses ints above 4300 digits (a huge p or d): show those by bit length
            shown = amount if amount.bit_length() <= 4096 else f"2^{amount.bit_length() - 1}+"
            raise CapExceeded(f"{cap}: {shown} exceeds limit {limit}")

    def require_power(self, cap: str, base: int, exponent: int, factor: int = 1) -> None:
        """require(cap, factor * base^exponent), building the power only when small.

        base^exponent >= 2^low: a low above 256 and the limit's bit length fails unbuilt.
        """
        limit = getattr(self, cap)
        low = exponent * (base.bit_length() - 1)
        if low > max(256, limit.bit_length()):
            raise CapExceeded(f"{cap}: 2^{low}+ exceeds limit {limit}")
        self.require(cap, factor * base**exponent)


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class DecomposeConfig:
    """Knobs for the approximate-to-exact decomposition pipeline."""

    t: int = 2                    # target error exponent for the approximate stage
    retries: int = 16             # fresh-sample retries inside the approximate stage
    seed: int = 0
    caps: Caps = DEFAULT_CAPS


@dataclass(frozen=True)
class RegularizeConfig:
    """Sub-configuration for factor regularization; its caps are decompose.caps."""

    decompose: DecomposeConfig = field(default_factory=DecomposeConfig)
