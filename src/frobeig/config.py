"""Runtime settings shared across the pipeline."""

import os
from dataclasses import dataclass, replace

_ENV_CEILING = "FROBEIG_MAX_PRECISION"


@dataclass(frozen=True)
class Settings:
    """Knobs for certified numerics and bounded searches.

    precision_start / precision_ceiling are in bits.  Library code never
    reads the environment: only cli.main applies with_env_ceiling, so the
    FROBEIG_MAX_PRECISION variable sits below flags and record options.
    """

    precision_start: int = 192
    precision_ceiling: int = 4096
    degree_cap: int = 48          # splitting-field degree cap
    search_bound: int = 4         # sup-norm box for kernel / torsion searches
    factor_degree_cap: int = 12   # max degree for subset-recombination factoring
    d_max: int = 6                # largest power of the variety in reports

    def with_env_ceiling(self) -> "Settings":
        raw = os.environ.get(_ENV_CEILING)
        if not raw:
            return self
        try:
            ceiling = int(raw)
        except ValueError:
            return self
        if ceiling < self.precision_start:
            ceiling = self.precision_start
        return replace(self, precision_ceiling=ceiling)


DEFAULT = Settings()
