"""Validate the stochastic integrator against an exact solvable model.

When the system-bath coupling commutes with the Hamiltonian, the
off-diagonal density matrix element has a closed-form solution.  This
demo runs the stochastic ensemble on that model and reports the
deviation from the exact answer as the ensemble grows.
"""

import numpy as np

from slnoise import (
    QndModel,
    RunConfig,
    SchemeId,
    TimeGrid,
    qnd_exact,
    qnd_sln_config,
    run_coherence,
)


def main():
    kernel, model = qnd_sln_config()
    grid = TimeGrid(dt=0.01, t_max=4.0)

    print("exactly solvable benchmark: pure-dephasing two-level system")
    print("kernel K(t) = (1/2) exp(-2|t| + it); coherence decays while")
    print("rotating, and the exact solution is available in closed form\n")

    for n in (1000, 5000, 20000):
        cfg = RunConfig(
            scheme=SchemeId.ETANU_OPTIMISED, model=model, grid=grid,
            n_realizations=n, master_seed=3, kernel=kernel, lam=0.5,
        )
        t, r01, se = run_coherence(cfg)
        exact = qnd_exact(QndModel(), t)[..., 0, 1]
        dev = np.max(np.abs(r01 - exact))
        print(f"  {n:6d} realizations: max |stochastic - exact| = {dev:.4f} "
              f"(final SE {se[-1]:.4f})")

    print("\nthe deviation falls off roughly as the inverse square root of")
    print("the ensemble size, as expected for a Monte Carlo average")


if __name__ == "__main__":
    main()
