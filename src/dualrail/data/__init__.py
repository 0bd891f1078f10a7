"""Bundled reference tables (heater cross-talk, CNOT tomography counts,
and the 0.4 A hydrogen Hamiltonian coefficients).

The published `sum` column of `table3_qpt_counts.csv` is kept but not read:
it differs from C1+..+C4 in 28 of 64 rows (see `dataset_from_csv`).
"""

from importlib import resources


def _read(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text()


def crosstalk_table_text() -> str:
    return _read("table2_crosstalk.txt")


def qpt_counts_text() -> str:
    return _read("table3_qpt_counts.csv")


def h2_hamiltonian_text() -> str:
    return _read("table6_h2_0p4A.txt")
