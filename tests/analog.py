"""Generator of the bundled development-indicators analog table.

The table ships as ``eivmix/data/worldbank_analog.csv``; ``test_data_io``
regenerates it here to check the shipped file byte for byte.
"""

import csv
from typing import List

import numpy as np

ANALOG_COLUMNS = (
    "country",
    "gdp_per_capita",
    "birth_rate",
    "urban_share",
    "stability",
    "log_tb",
    "life_expectancy",
)

_ANALOG_SEED = 731204
_ANALOG_ROWS = 192


def make_worldbank_analog(seed: int = _ANALOG_SEED, n_rows: int = _ANALOG_ROWS) -> List[List[str]]:
    """Deterministically generate the bundled development-indicators analog.

    One latent development level per country drives four predictor columns
    (birth rate, urban population share, political stability, log disease
    incidence), the life-expectancy outcome, and a GDP-per-capita sort key.
    Scales are matched to the real-data magnitudes the workflow was built
    around. Returns rows of formatted strings, header excluded.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_rows)
    birth = 28.0 - 8.5 * z + rng.standard_normal(n_rows) * 4.5
    urban = 58.0 + 20.0 * z + rng.standard_normal(n_rows) * 11.0
    stability = 0.75 * z + rng.standard_normal(n_rows) * 0.55
    log_tb = 3.4 - 1.3 * z + rng.standard_normal(n_rows) * 0.85
    life = (
        85.0
        - 0.40 * birth
        + 0.04 * urban
        + 1.0 * stability
        - 1.3 * log_tb
        + rng.standard_normal(n_rows) * 1.2
    )
    gdp = np.exp(8.6 + 1.1 * z + rng.standard_normal(n_rows) * 0.35)
    birth = np.clip(birth, 5.0, None)
    urban = np.clip(urban, 5.0, 100.0)
    stability = np.clip(stability, -2.5, 2.5)
    log_tb = np.clip(log_tb, 0.0, None)
    rows = []
    for i in range(n_rows):
        rows.append(
            [
                f"C{i + 1:03d}",
                f"{gdp[i]:.2f}",
                f"{birth[i]:.3f}",
                f"{urban[i]:.3f}",
                f"{stability[i]:.3f}",
                f"{log_tb[i]:.3f}",
                f"{life[i]:.3f}",
            ]
        )
    return rows


def write_worldbank_analog(path, seed: int = _ANALOG_SEED) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ANALOG_COLUMNS)
        writer.writerows(make_worldbank_analog(seed))
