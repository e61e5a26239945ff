"""Runtime settings shared across the pipeline."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """Knobs for certified numerics and bounded searches.

    precision_start / precision_ceiling are in bits.  Library code never
    reads the environment: only cli.main reads FROBEIG_MAX_PRECISION, so
    the variable sits below flags and record options.
    """

    precision_start: int = 192
    precision_ceiling: int = 4096
    degree_cap: int = 48          # splitting-field degree cap
    search_bound: int = 4         # sup-norm box for kernel / torsion searches
    factor_degree_cap: int = 12   # max degree for subset-recombination factoring
    d_max: int = 6                # largest power of the variety in reports


DEFAULT = Settings()
