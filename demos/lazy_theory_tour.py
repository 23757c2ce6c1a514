#!/usr/bin/env python3
"""Tour of the lazy array/function layer on one aliased-read formula.

Shows what the sampler does under the hood for theory formulas: the
scalar abstraction with its purified atoms, the lemmas learned while
rejecting bad candidates, and the final model checked against the slow
reference evaluator.

    python3 demos/lazy_theory_tour.py
"""

import random

from pansampler.abstraction import abstract_formula
from pansampler.oracle import slow_satisfies
from pansampler.parser import parse_formula
from pansampler.printer import print_model
from pansampler.sampler import DiversitySmtEngine

TEXT = """
(set-logic QF_ABV)
(declare-const a (Array (_ BitVec 3) (_ BitVec 3)))
(declare-const i (_ BitVec 3))
(declare-const j (_ BitVec 3))
(assert (= (select (store a i #b101) j) #b010))
(assert (= (select a j) #b010))
"""


def main() -> None:
    f = parse_formula(TEXT)
    abs_ = abstract_formula(f)
    atoms = sorted(abs_.atom_of_name)
    print(f"purified atoms ({len(atoms)}):", ", ".join(atoms))

    engine = DiversitySmtEngine(f)
    print(f"static lemma budget: {engine.lemma_bound}")

    rng = random.Random(3)
    solutions = []
    for _ in range(3):
        got = engine.solve_once(solutions, rng.randrange(1 << 32))
        if got is None:
            break
        solutions.append(got.assignment)
    print(f"lemma rounds used: {engine.lemma_rounds}, "
          f"lemmas learned: {len(engine.lemmas)}")

    for n, sol in enumerate(solutions):
        ok = slow_satisfies(f, sol)
        print(f"\nsolution {n} (reference evaluator says "
              f"{'valid' if ok else 'INVALID'}):")
        print(print_model(f, sol), end="")


if __name__ == "__main__":
    main()
