"""How many corpus mutants the kernel-free grid proof refutes on its own.

Every mutant of the source-mutation gate (tests/test_corpus_mutants.py) is
put in place, and every VarSet's grid is walked with ``Polynomial``
arithmetic forbidden (tests/test_grid_proof.py); a mutant is refuted when a
walk finds two sides that differ, or raises.  The replay is not consulted.
Prints ``grid proof refuted R/T corpus mutants`` and the survivors, and
exits 0 whatever the score: it measures, it gates nothing.

Run: PYTHONPATH=src python tests/grid_mutation_score.py
"""

from test_corpus_mutants import _mutants, _refuted
from test_grid_proof import VARSETS, grid_walk, kernel_arithmetic_forbidden


def _grid_refutes() -> bool:
    with kernel_arithmetic_forbidden():
        return any(grid_walk(varset).failure is not None for varset in VARSETS)


def main() -> None:
    total = 0
    survivors = []
    for name, line, code in _mutants():
        total += 1
        if not _refuted(name, code, oracle=_grid_refutes):
            survivors.append(f"{name}:{line}")
    print(f"grid proof refuted {total - len(survivors)}/{total} corpus mutants")
    for survivor in survivors:
        print(f"- survived: {survivor}")


if __name__ == "__main__":
    main()
