"""Helpers shared by the test modules."""

import scipy.sparse as sp


def hamiltonian(stepper, t):
    """H(t) = ck K + diag(diag) as CSR, from the stepper's parts."""
    ck, diag = stepper.hamiltonian_parts(t)
    return (ck * stepper.kinetic + sp.diags(diag)).tocsr()
