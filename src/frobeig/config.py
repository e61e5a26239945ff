"""Runtime settings shared across the pipeline."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """Knobs for certified numerics and bounded searches.

    precision_start / precision_ceiling are in bits.  Only weil.validate
    starts at precision_start; the splitting field goes on from the
    precision validation reached, and both stop at precision_ceiling.
    Library code never reads the environment: only cli.main reads
    FROBEIG_MAX_PRECISION, so the variable sits below flags and record
    options.
    """

    precision_start: int = 192
    precision_ceiling: int = 4096
    degree_cap: int = 48          # splitting-field degree cap
    search_bound: int = 4         # sup-norm box for kernel / torsion searches


DEFAULT = Settings()
FACTOR_DEGREE_CAP = 12   # max degree for subset-recombination factoring
MAX_POWER_CAP = 6        # largest power of the variety in reports
