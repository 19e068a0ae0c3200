"""Attraction data for T*P^{n-1}, from its closed form.

The bow variety of ``0/1\\1...\\1/0`` (n blue lines) is T*P^{n-1}; its fixed
point D_k ties both red lines to U_k.  For the chamber t_1 > ... > t_n with
order D_n < ... < D_1, the closure of the attracting cell of D_k is the
conormal bundle of P(span(e_k..e_n)).  It is smooth and closed, so its
restriction at a fixed point is the Euler class of the normal bundle there:

    R[k][q] = prod_{i<k} (t_q - t_i) * prod_{i>=k, i!=q} (t_i - t_q + h)

for q >= k, and 0 otherwise.  The opposite chamber mirrors this:

    R[k][q] = prod_{i>k} (t_q - t_i) * prod_{i<=k, i!=q} (t_i - t_q + h)

for q <= k.  A permutation sigma relabels the blue lines: t_i -> t_sigma(i)
and U_k -> U_sigma(k), and the chamber is permuted the same way.
"""

import json
import random


def diagram(n):
    """DSL string of the T*P^{n-1} brane diagram."""
    return "0/1" + "\\1" * n + "/0"


def relabeling(n, rng):
    """A random relabeling sigma of the n blue lines, as (sigma(1), ..., sigma(n))."""
    return tuple(rng.sample(range(1, n + 1), n))


def attraction_data(n, sigma=None, opposite=False):
    """Attraction data of T*P^{n-1} as the dict that
    ``envelope.load_attraction_data`` reads."""
    sigma = tuple(sigma or range(1, n + 1))
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")

    def t(i):
        return f"t{sigma[i - 1]}"

    idx = range(1, n + 1)
    restrictions = {}
    for k in idx:
        row = {}
        for q in idx:
            if not opposite and q >= k:
                below = [i for i in idx if i < k]
                at = [i for i in idx if i >= k and i != q]
            elif opposite and q <= k:
                below = [i for i in idx if i > k]
                at = [i for i in idx if i <= k and i != q]
            else:
                continue
            factors = [f"({t(q)}-{t(i)})" for i in below]
            factors += [f"({t(i)}-{t(q)}+h)" for i in at]
            row[f"D{q}"] = "*".join(factors)
        restrictions[f"D{k}"] = row
    chamber = list(sigma)
    order = [f"D{k}" for k in reversed(idx)]
    if opposite:
        chamber.reverse()
        order.reverse()
    return {
        "diagram": diagram(n),
        "chamber": chamber,
        "points": [
            {"id": f"D{k}", "ties": [["V2", f"U{sigma[k - 1]}"], [f"U{sigma[k - 1]}", "V1"]]}
            for k in idx
        ],
        "order": order,
        "restrictions": restrictions,
    }


def write_pair(n, seed, workdir):
    """Write both chambers' data for a seeded relabeling of T*P^{n-1}; return
    the two paths."""
    sigma = relabeling(n, random.Random(f"tstar-{n}-{seed}"))
    paths = []
    for opposite in (False, True):
        path = workdir / f"tstar-n{n}-seed{seed}-{'op' if opposite else 'fwd'}.json"
        path.write_text(json.dumps(attraction_data(n, sigma, opposite), indent=1))
        paths.append(path)
    return paths
