"""Reference routines that only the tests call, shared between test modules."""

from jackb2.partitions import Partition


def dominance_leq(mu, lam):
    """True iff |mu| = |lambda| and every prefix sum of mu is <= that of lambda.

    Partitions of different weight are incomparable (returns False).
    """
    mu, lam = Partition(mu), Partition(lam)
    if mu.weight != lam.weight:
        return False
    acc_mu = acc_lam = 0
    for i in range(max(len(mu), len(lam))):
        acc_mu += mu.part(i)
        acc_lam += lam.part(i)
        if acc_mu > acc_lam:
            return False
    return True
