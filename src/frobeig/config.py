"""Runtime settings shared across the pipeline."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """The four per-run options named in report.OPTION_KEYS, with their
    defaults; every report echoes them and its content_key covers them.

    precision_ceiling is in bits: weil.validate starts at PRECISION_START,
    the splitting field goes on from the precision validation reached,
    and both stop at precision_ceiling.  A ceiling at or below
    PRECISION_START permits no escalation.  Library code never reads the
    environment: only cli.main reads FROBEIG_MAX_PRECISION, so the
    variable sits below flags and record options.
    """

    precision_ceiling: int = 4096
    degree_cap: int = 48          # splitting-field degree cap
    search_bound: int = 4         # sup-norm box for kernel / torsion searches
    max_power: int = 2            # decomposition grid top in reports


DEFAULT = Settings()
PRECISION_START = 192    # bits of the first root isolation
FACTOR_DEGREE_CAP = 12   # max degree for subset-recombination factoring
MAX_POWER_CAP = 6        # largest power of the variety in reports
