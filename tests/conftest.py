"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import gcd, prod
from pathlib import Path

from hypothesis import HealthCheck, assume, settings, strategies as st

from isoprod.aut0 import (_k_delta, _KernelPieces, _lifted, admissible_characters,
                          representation_kernel)
from isoprod.datum import AlgebraicDatum, VectorSpec
from isoprod.groups import (AbelianGroup, GroupElement, QuotientStructure, Subgroup,
                            direct_product, row_hermite, subgroup_quotient)
from isoprod.oracle import enumerate_subgroup

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The report ladder and the oracle cross-check set of the benchmark, as
# ``isoprod example`` parameters.
EXAMPLE_LADDER = (
    ("example1", {"n": 1}), ("example1", {"n": 2}), ("example1", {"n": 4}),
    ("example1", {"n": 8}), ("example2a", {"n": 4}),
    ("example2b", {"n1": 4, "n2": 2, "n3": 2}), ("example3", {"n": 4}), ("example4", {}),
)
ORACLE_EXAMPLES = (
    ("example1", {"n": 1}), ("example1", {"n1": 2, "n2": 1, "n3": 1}),
    ("example2a", {"n1": 2, "n2": 1, "n3": 1}), ("example2a", {"n1": 1, "n2": 1, "n3": 2}),
    ("example2b", {}), ("example3", {"n": 1}), ("example4", {}),
)


def spy_everywhere(monkeypatch, module_name: str, name: str, calls: Counter,
                   first_args: list | None = None) -> None:
    """Count the calls of ``module.name`` in ``calls[name]``, and keep their
    first arguments in ``first_args`` if it is given.  A function is patched
    under every isoprod name bound to it, so calls through another module's
    binding count too; a ``Class.method`` name is patched on its class."""
    owner_name, _, attr = name.rpartition(".")
    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name)
    real = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[attr] += 1
        if first_args is not None:
            first_args.append(args[0])
        return real(*args, **kwargs)

    if owner_name:
        monkeypatch.setattr(owner, attr, wrapper)
        return
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "isoprod" or mod_name.startswith("isoprod."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, wrapper)


def run_fresh(script: str, *args: str):
    """Run ``script`` in a fresh interpreter on this checkout's ``src``, with
    ``args`` as its ``sys.argv[1:]``; returns the JSON of its last line of
    output.  For what an import loads, since this interpreter has loaded
    every module."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_limited(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` on this checkout's ``src`` in a child process under a
    1 GB address-space limit, so that a listing would end in MemoryError
    rather than take the machine, and a 30 s time limit."""
    src = Path(__file__).resolve().parent.parent / "src"

    def limit_memory():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=30, preexec_fn=limit_memory)


def z2_classes_document(k: int) -> dict:
    """A datum document over ``Z2^k`` with ``K_i = <e_i>`` and ``g' = 1``,
    whose i-th branch is the other ``k - 1`` basis vectors and their sum:
    ``A_i`` is trivial, so each factor has ``2^(k-1)`` Chevalley-Weil
    classes, and matching them visits ``(2^(k-1) - 1)^2`` class pairs."""
    basis = [[int(c == j) for c in range(k)] for j in range(k)]
    vectors = [{"g_prime": 1,
                "branch": [basis[j] for j in range(k) if j != i] + [[int(c != i) for c in range(k)]],
                "eta": [[0] * k, [0] * k]} for i in range(3)]
    return {"group": [2] * k, "kernels": [[basis[i]] for i in range(3)], "vectors": vectors}


@st.composite
def abelian_groups(draw, max_rank: int = 3, max_order: int = 256) -> AbelianGroup:
    rank = draw(st.integers(min_value=1, max_value=max_rank))
    orders = []
    total = 1
    for _ in range(rank):
        n = draw(st.sampled_from([2, 2, 3, 4, 4, 5, 6, 8, 9]))
        if total * n > max_order:
            break
        orders.append(n)
        total *= n
    if not orders:
        orders = [2]
    return AbelianGroup(orders)


@st.composite
def valid_data(draw, max_order: int = 32) -> AlgebraicDatum:
    """Data with ``g' = (1,1,1)`` drawn valid by construction, without the
    survey's lister (``search._candidates``), free or not:

    - ``G`` of rank 2 or 3 and order at most ``max_order``, its orders mixed;
    - a minimal kernel triple: each kernel proper, with at most two
      generators, drawn until it meets the earlier ones trivially, and
      trivial when five draws do not;
    - in each factor, 2 to 4 branch elements, nonzero modulo ``K_i`` and of
      sum zero: the last one closes the sum, unless the others sum to zero
      already;
    - handle pairs drawn until the vector generates ``G/K_i``; a draw that
      finds none is rejected."""
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8]), min_size=2, max_size=3)
                  .filter(lambda o: prod(o) <= max_order))
    group = AbelianGroup(orders)
    elements = list(group.elements())
    kernels: list[Subgroup] = []
    for _ in range(3):
        for _ in range(5):
            gens = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=2))
            kernel = group.subgroup(gens)
            if kernel.order < group.order and all(map(kernel._meets_trivially, kernels)):
                break
        else:
            kernel = group.subgroup(())
        kernels.append(kernel)
    specs = []
    for kernel in kernels:
        nonzero = [g for g in elements if not kernel.contains(g)]
        branch = draw(st.lists(st.sampled_from(nonzero), min_size=1, max_size=3))
        closing = -sum(branch, group.zero)
        if len(branch) == 1 or not kernel.contains(closing):
            branch.append(closing)
        for _ in range(10):
            eta = [draw(st.sampled_from(elements)) for _ in range(2)]
            if group.subgroup([*kernel.generators, *branch, *eta]).order == group.order:
                break
        else:
            assume(False)
        specs.append(VectorSpec(1, tuple(branch), tuple(eta)))
    return AlgebraicDatum.build(group, [k.generators for k in kernels], specs)


@st.composite
def group_elements(draw, group: AbelianGroup) -> GroupElement:
    exps = [draw(st.integers(min_value=0, max_value=n - 1)) for n in group.orders]
    return group.element(exps)


@st.composite
def subgroups(draw, group: AbelianGroup, max_gens: int = 3) -> Subgroup:
    k = draw(st.integers(min_value=0, max_value=max_gens))
    gens = [draw(group_elements(group)) for _ in range(k)]
    return group.subgroup(gens)


@st.composite
def groups_with_subgroup(draw):
    group = draw(abelian_groups())
    return group, draw(subgroups(group))


def slice_span(group: AbelianGroup, rows) -> tuple[tuple[int, ...], ...]:
    """The Hermite basis, at width ``2r``, of ``rows`` plus the relations of
    ``G^2``: a reference for the spans of ``aut0._spans``."""
    width = 2 * group.rank
    relations = [tuple(n * (j == i) for j in range(width))
                 for i, n in enumerate(group.orders * 2)]
    return row_hermite([*rows, *relations], width)


def character_span(group: AbelianGroup, characters) -> tuple[tuple[int, ...], ...]:
    """``slice_span`` of the rows ``(c_2, c_3)`` of characters of ``G^3``."""
    return slice_span(group, [psi.exponents[group.rank:] for psi in characters])


def listed_kernel(datum, p: int, q: int) -> Subgroup:
    """The ``(p,q)`` kernel in ``G^3`` of the listed admissible characters
    (``admissible_characters``): a reference for ``representation_kernel``
    and the report's kernels, which read the classes on large data."""
    first, second = admissible_characters(datum)
    characters = first + second if p + q == 3 else second
    kernel = _KernelPieces(datum).kernel(character_span(datum.group, characters), (p, q))
    return _lifted(datum.group, kernel)


def brute_minimum(datum, rep: GroupElement) -> tuple[int, ...]:
    """The least member of ``rep + K Delta_G`` with trivial third component,
    by trying every ``(k1 - k3, k2 - k3, 0)`` with ``k_i`` in ``K_i``."""
    g = datum.group
    r = g.rank
    a, b, c = (rep.exponents[s * r:(s + 1) * r] for s in range(3))
    k1s, k2s, k3s = (enumerate_subgroup(k).members for k in datum.kernels)
    tail = (0,) * g.rank

    def shifted(x, k, k3):
        return tuple((xj - cj + kj - k3j) % n
                     for xj, cj, kj, k3j, n in zip(x, c, k, k3, g.orders))

    return min(shifted(a, k1, k3) + shifted(b, k2, k3) + tail
               for k1 in k1s for k2 in k2s for k3 in k3s)


def reference_quotient(datum) -> tuple[QuotientStructure, list[tuple[int, ...]]]:
    """``aut0``'s quotient by the route in ``G^3``, from public pieces: the
    (3,0) kernel modulo ``K Delta_G`` (``subgroup_quotient``), and its
    generators each reduced by ``brute_minimum``."""
    quotient = subgroup_quotient(representation_kernel(datum, 3, 0), _k_delta(datum))
    return quotient, [brute_minimum(datum, g) for g in quotient.generators]


def cosets_generate(quotient: QuotientStructure, reps: list[GroupElement]) -> bool:
    """Do the cosets of ``reps`` generate the whole quotient?"""
    return quotient.group.subgroup(map(quotient.project, reps)).order == quotient.group.order


# References for ``aut0._k_delta``: ``K_1 x K_2 x K_3`` and the diagonal
# ``Delta_G``, built generator by generator in the product.


def embed_factor(product: AbelianGroup, groups: list[AbelianGroup],
                 index: int, g: GroupElement) -> GroupElement:
    """Embed an element of ``groups[index]`` into the direct product."""
    exps: list[int] = []
    for i, grp in enumerate(groups):
        exps.extend(g.exponents if i == index else (0,) * grp.rank)
    return product.element(exps)


def diagonal_subgroup(group: AbelianGroup, copies: int) -> Subgroup:
    product = direct_product([group] * copies)
    return product.subgroup(product.element(group.basis_element(j).exponents * copies)
                            for j in range(group.rank))


def product_subgroup(subgroups: list[Subgroup]) -> Subgroup:
    groups = [h.ambient for h in subgroups]
    product = direct_product(groups)
    return product.subgroup(embed_factor(product, groups, i, g)
                            for i, h in enumerate(subgroups) for g in h.generators)


def random_group(rng: random.Random, max_rank: int = 3, max_order: int = 256) -> AbelianGroup:
    orders = []
    total = 1
    for _ in range(rng.randint(1, max_rank)):
        n = rng.choice([2, 2, 3, 4, 4, 5, 6, 8])
        if total * n > max_order:
            break
        orders.append(n)
        total *= n
    return AbelianGroup(orders or [2])


def random_element(rng: random.Random, group: AbelianGroup) -> GroupElement:
    return group.element(rng.randrange(n) for n in group.orders)


def random_subgroup(rng: random.Random, group: AbelianGroup, max_gens: int = 3) -> Subgroup:
    gens = [random_element(rng, group) for _ in range(rng.randint(0, max_gens))]
    return group.subgroup(gens)


def random_automorphism(orders: list[int], rng: random.Random):
    """Scale coordinate ``j`` by a unit mod ``n_j`` and move it to a
    coordinate of the same order."""
    perm = list(range(len(orders)))
    classes: dict[int, list[int]] = {}
    for j, n in enumerate(orders):
        classes.setdefault(n, []).append(j)
    for members in classes.values():
        targets = members[:]
        rng.shuffle(targets)
        for j, t in zip(members, targets):
            perm[j] = t
    units = [rng.choice([u for u in range(1, n) if gcd(u, n) == 1]) for n in orders]

    def apply(exps: list[int]) -> list[int]:
        out = [0] * len(orders)
        for j, x in enumerate(exps):
            out[perm[j]] = units[j] * x % orders[j]
        return out

    return apply


def relabel_document(doc: dict, rng: random.Random) -> dict:
    """A datum document under a random coordinate automorphism of its
    group and a random permutation of the three factors: the same 3-fold,
    labelled otherwise."""
    phi = random_automorphism(doc["group"], rng)
    order = [0, 1, 2]
    rng.shuffle(order)
    kernels = [[phi(g) for g in gens] for gens in doc["kernels"]]
    vectors = [{"g_prime": v["g_prime"],
                "branch": [phi(g) for g in v["branch"]],
                "eta": [phi(g) for g in v["eta"]]} for v in doc["vectors"]]
    return {"group": doc["group"],
            "kernels": [kernels[i] for i in order],
            "vectors": [vectors[i] for i in order]}
