#!/usr/bin/env python3
"""Minimal reconstruction budgets for bounded schemes on small domains.

For each (n, m) pair, scan budgets upward until the existence search says
SAT (building a witness). The counting bound C(n, m+1) <= C(n, m) *
(budget - m) predicts the threshold; it is exact, so the "tight" column
reads yes on every row.
"""

import argparse
from math import comb

from emx import SearchProblem, counting_refutes, search_schemes


def predicted_budget(n: int, m: int) -> int:
    budget = m + 1
    while counting_refutes(SearchProblem(n, m, budget)):
        budget += 1
    return budget


def found_budget(n: int, m: int) -> int | None:
    for budget in range(m + 1, n + 1):
        if search_schemes(SearchProblem(n, m, budget)).verdict == "SAT":
            return budget
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--max-m", type=int, default=2)
    args = parser.parse_args()

    print(f"{'n':>3} {'m':>3} {'subsets':>8} {'counting':>9} {'search':>7} {'tight':>6}")
    for n in range(2, args.max_n + 1):
        for m in range(0, args.max_m + 1):
            if n < m + 2:
                continue
            predicted = predicted_budget(n, m)
            found = found_budget(n, m)
            tight = "yes" if found == predicted else "no"
            print(f"{n:>3} {m:>3} {comb(n, m + 1):>8} {predicted:>9} {found!s:>7} {tight:>6}")


if __name__ == "__main__":
    main()
