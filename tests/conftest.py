"""Shared fixtures and sweep helpers for the test suite."""

import importlib.util
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from bowvariety import algebra, brane, butterfly, errors

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "bowvariety" / "fixtures"
DATA = Path(__file__).resolve().parent / "data"

EXAMPLE_3BLUE = "0/1\\1/2\\2\\2/0"
TSTAR_P1 = "0/1\\1\\1/0"
POINT_DIAGRAM = "0\\1/0"
# a partial flag variety: 840 fixed points of dimension 36
FLAG = "0/1/2/3/4\\4\\4\\4\\4\\4\\4\\4/0"


def involution_image(char):
    """The image of a character under the symplectic pairing w -> h - w."""
    return algebra.Character(char.nvars, {(j, i, 1 - m): n for (i, j, m), n in char.terms.items()})


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def diagram_strings(max_colored, max_label):
    """Every diagram DSL string with at most ``max_colored`` colored lines,
    interior labels at most ``max_label``, and both colors present."""
    for k in range(2, max_colored + 1):
        for colors in itertools.product("/\\", repeat=k):
            if "/" not in colors or "\\" not in colors:
                continue
            for labels in itertools.product(range(max_label + 1), repeat=k - 1):
                s = "0"
                for i, c in enumerate(colors):
                    s += c
                    s += str(labels[i]) if i < k - 1 else "0"
                yield s


def admissible_diagrams(max_colored, max_label):
    for s in diagram_strings(max_colored, max_label):
        d = brane.parse(s)
        if brane.admissible(d):
            yield d


def random_admissible_diagrams(seed, trials, min_colored, max_colored, max_label):
    """Seeded random admissible diagrams, biased towards labels that change
    slowly (those are far more likely to admit tie diagrams)."""
    rng = random.Random(seed)
    for _ in range(trials):
        k = rng.randint(min_colored, max_colored)
        colors = [rng.choice("/\\") for _ in range(k)]
        if "/" not in colors or "\\" not in colors:
            continue
        labels = []
        prev = 0
        for _i in range(k - 1):
            if rng.random() < 0.8:
                labels.append(rng.randint(max(0, prev - 2), min(max_label, prev + 2)))
            else:
                labels.append(rng.randint(0, max_label))
            prev = labels[-1]
        s = "0"
        for i, c in enumerate(colors):
            s += c
            s += str(labels[i]) if i < k - 1 else "0"
        d = brane.parse(s)
        if brane.admissible(d):
            yield d


def sweep_diagrams():
    """The criterion-3 sample: exhaustive up to 6 black lines with labels
    up to 3, then seeded random admissible diagrams with 6 to 9 black lines.
    Each diagram is yielded once: random draws with 6 black lines can repeat
    an exhaustive one."""
    seen = set()
    for d in itertools.chain(
        admissible_diagrams(5, 3),
        random_admissible_diagrams(
            seed=7, trials=400, min_colored=5, max_colored=8, max_label=3
        ),
    ):
        dsl = brane.render(d)
        if dsl not in seen:
            seen.add(dsl)
            yield d


def tstar_module():
    """The T*P^{n-1} generator of the benchmark, read without importing the
    rest of perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tstar.py"
    spec = importlib.util.spec_from_file_location("perfbench_tstar", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failing_pair(n, workdir):
    """The two paths of ``write_pair(n, 1, workdir)`` data with one wrong factor:
    in the forward file, the entry of the last point of ``order`` at the first
    has its first ``+h)`` made ``+2*h)``.  Every loader check still passes,
    and some pairings are not polynomials."""
    path, op_path = tstar_module().write_pair(n, 1, workdir)
    raw = json.loads(path.read_text())
    row, first = raw["restrictions"][raw["order"][-1]], raw["order"][0]
    assert "+h)" in row[first]
    row[first] = row[first].replace("+h)", "+2*h)", 1)
    path.write_text(json.dumps(raw, indent=1))
    return path, op_path


def relabeled(raw, a, b):
    """Attraction data ``raw`` (a dict) with the point ids ``a`` and ``b``
    exchanged in its points, order and restrictions: valid data in which each
    of the two ids names the other's tie diagram."""
    swap = {a: b, b: a}
    return dict(
        raw,
        points=[dict(entry, id=swap.get(entry["id"], entry["id"])) for entry in raw["points"]],
        order=[swap.get(p, p) for p in raw["order"]],
        restrictions={
            swap.get(p, p): {swap.get(q, q): r for q, r in row.items()}
            for p, row in raw["restrictions"].items()
        },
    )


def hw_twist(char, k, dm):
    """The Hanany-Witten torus twist t_k -> t_k + dm*h of a character: the
    weight (i, j, m) moves to m + dm*([i == k] - [j == k])."""
    out = Counter()
    for (i, j, m), mult in char.terms.items():
        out[i, j, m + dm * ((i == k) - (j == k))] += mult
    return algebra.Character(char.nvars, out)


def fiber_weights(t):
    """Torus weights of every fiber W_{X_j}: ``{j: {(u, m): 1}}``, one weight
    t_u + m*h per butterfly vertex over X_j, m being its equivariant height,
    read from the shared lattices of ``butterfly._lattice`` into fresh dicts."""
    d = t.base
    fibers = {j: {} for j in range(1, len(d.blacks) + 1)}
    for u, J in enumerate(d.blue_positions(), start=1):
        bf = butterfly._lattice(d.colors, J, butterfly._cover_counts(t, J))
        for (i, _jj), height in bf.heights.items():
            fibers[i + J][u, height] = 1
    return fibers


def entry(m, i, j, value=None):
    """Entry (i, j) of the ``linalg.Mat`` ``m``, after writing ``value`` there
    if one is given.  Writing 0 removes the entry, and a row it empties, so an
    edited matrix stores no zero.  An index outside the shape raises
    IndexError, for reading and writing alike."""
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise IndexError(f"({i}, {j}) is outside a {m.rows}x{m.cols} matrix")
    if value:
        m.entries.setdefault(i, {})[j] = value
    elif value is not None and j in m.entries.get(i, {}):
        del m.entries[i][j]
        if not m.entries[i]:
            del m.entries[i]
    return m.entries.get(i, {}).get(j, 0)


def pack(exps):
    """The packed monomial of the exponent tuple ``(e_1, ..., e_N, e_h)``:
    the inverse of ``algebra.unpack``, for building test polynomials."""
    n = len(exps) - 1
    if min(exps) < 0:
        raise ValueError(f"negative exponent in {tuple(exps)}")
    if sum(exps) > algebra.MAX_DEGREE:
        raise errors.DegreeLimit(f"degree {sum(exps)} is past the limit {algebra.MAX_DEGREE}")
    return sum(x * algebra._unit(n, (i + 1) % (n + 1)) for i, x in enumerate(exps))


# Unmemoized references for the output memos of ``algebra`` and for tie names
# read from the line table: the same formatting and expansion, computed afresh
# on every call, and every name looked up through ``line_name``.


def reference_render_character(char):
    render = algebra.render_weight.__wrapped__
    return " + ".join(
        render(w) if n == 1 else f"{n}*({render(w)})" for w, n in char.terms.items()
    ) or "0"


def reference_render_factored(e):
    if e.is_zero():
        return "0"
    parts = []
    if e.constant != 1 or not e.factors:
        parts.append(str(e.constant))
    for w, exp in e.factors:
        body = f"({algebra.render_weight.__wrapped__(w)})"
        parts.append(body if exp == 1 else f"{body}^{exp}")
    return "*".join(parts)


def reference_expand(e):
    p = algebra.Poly.const(e.nvars, e.constant)
    for w, exp in e.factors:
        p = p * algebra.weight_poly(w, e.nvars) ** exp
    return p


def reference_tie_json(t):
    name = t.base.line_name
    return {"diagram": brane.render(t.base), "ties": [[name(l), name(r)] for l, r in sorted(t.ties)]}
