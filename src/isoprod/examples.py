"""Built-in data: the four worked families of quotient 3-folds.

The first three families live over ``G = Z_{2 n_1} + Z_{2 n_2} + Z_{2 n_3}``
with ``K_i = <e_i>`` and vectors ``(m copies of sigma_i; e_j, e_k)`` over
``G/K_i``, where ``m`` is the order of ``sigma_i`` in the quotient and
``(i, j, k)`` runs over the permutations of the factors.  The fourth is a
fixed datum over ``Z_2^4`` with a non-cyclic kernel.
"""

from __future__ import annotations

from .datum import AlgebraicDatum, VectorSpec
from .errors import SchemaError
from .groups import AbelianGroup, GroupElement


def _two_torsion_family(sigmas: tuple[GroupElement, GroupElement, GroupElement],
                        group: AbelianGroup) -> AlgebraicDatum:
    e = [group.basis_element(j) for j in range(3)]
    kernels = [[e[0]], [e[1]], [e[2]]]
    specs = []
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        quotient_order = _order_mod(sigmas[i], i)
        specs.append(VectorSpec(g_prime=1,
                                branch=tuple([sigmas[i]] * quotient_order),
                                eta=(e[j], e[k])))
    return AlgebraicDatum.build(group, kernels, specs)


def _order_mod(g: GroupElement, i: int) -> int:
    """The order of ``g + <e_i>`` in ``G / <e_i>``: that of ``g`` with
    coordinate ``i`` cleared, since ``<e_i>`` is the whole of coordinate
    ``i``."""
    exps = list(g.exponents)
    exps[i] = 0
    return GroupElement(g.group, exps).order


def _family_group(n1: int, n2: int, n3: int) -> AbelianGroup:
    for n in (n1, n2, n3):
        if n < 1:
            raise SchemaError("family parameters must be positive integers")
    return AbelianGroup([2 * n1, 2 * n2, 2 * n3])


def example1(n1: int = 1, n2: int = 1, n3: int = 1) -> AlgebraicDatum:
    """sigma = (e3^n3, e1^n1, e2^n2): two independent order-2 symmetries."""
    g = _family_group(n1, n2, n3)
    e = [g.basis_element(j) for j in range(3)]
    return _two_torsion_family((n3 * e[2], n1 * e[0], n2 * e[1]), g)


def example2a(n1: int = 1, n2: int = 1, n3: int = 1) -> AlgebraicDatum:
    """sigma = (e3^n3, e1^n1, e1^n1 e2^n2): a single order-2 symmetry."""
    g = _family_group(n1, n2, n3)
    e = [g.basis_element(j) for j in range(3)]
    return _two_torsion_family((n3 * e[2], n1 * e[0], n1 * e[0] + n2 * e[1]), g)


def example2b(n1: int = 2, n2: int = 1, n3: int = 1) -> AlgebraicDatum:
    """sigma = (e3^n3, e1^2, e2^n2); needs n1 >= 2 so that e1^2 is not in K2."""
    if n1 < 2:
        raise SchemaError(
            "example2b requires n1 >= 2: for n1 = 1 the branch element e1^2 "
            "becomes trivial in G/K2")
    g = _family_group(n1, n2, n3)
    e = [g.basis_element(j) for j in range(3)]
    return _two_torsion_family((n3 * e[2], 2 * e[0], n2 * e[1]), g)


def example3(n: int = 1) -> AlgebraicDatum:
    """sigma = (e2^n e3^n, e3^n, e2^n): the action is not free and the
    kernel quotient is cyclic of order 2n."""
    g = _family_group(n, n, n)
    e = [g.basis_element(j) for j in range(3)]
    return _two_torsion_family((n * e[1] + n * e[2], n * e[2], n * e[1]), g)


def example4() -> AlgebraicDatum:
    """Fixed datum over Z_2^4 with the rank-2 kernel K3 = <e1, e3>.

    The handle pair of the third vector is (e2, e4); with (e2, e3) as
    printed elsewhere the vector would not generate G/K3.  The admissible
    set of this datum is exactly the triples
    (p1 p3, p1 p3, 1), (p1 p2 p3, p1 p3, p2), (p1 p2 p3, p1 p3 p4, p2 p4)
    and the automorphism group is Z_2 generated by the coset of (e3, e1, 1).
    """
    g = AbelianGroup([2, 2, 2, 2])
    e = [g.basis_element(j) for j in range(4)]
    kernels = [[e[3]], [e[1]], [e[0], e[2]]]
    specs = [
        VectorSpec(g_prime=1, branch=(e[0], e[0]), eta=(e[1], e[2])),
        VectorSpec(g_prime=1, branch=(e[2], e[2]), eta=(e[0], e[3])),
        VectorSpec(g_prime=1, branch=(e[1], e[1]), eta=(e[1], e[3])),
    ]
    return AlgebraicDatum.build(g, kernels, specs)


_BUILDERS = {"example1": example1, "example2a": example2a, "example2b": example2b,
             "example3": example3, "example4": example4}
EXAMPLE_NAMES = tuple(_BUILDERS)
_PARAMETERS = ("n", "n1", "n2", "n3")


def _check_parameter(key: str, value: object = 0) -> None:
    """Refuse an unknown name, and a value that is not an integer (a bool is not)."""
    if key not in _PARAMETERS:
        raise SchemaError(f"unknown parameter {key!r}")
    if type(value) is not int:
        raise SchemaError(f"parameter {key} needs an integer, got {value!r}")


def build_example(name: str, params: dict[str, int] | None = None) -> AlgebraicDatum:
    """Instantiate a built-in example from its name and CLI parameters."""
    if name not in _BUILDERS:
        raise SchemaError(f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}")
    params = dict(params or {})
    for key, value in params.items():
        _check_parameter(key, value)
    if "n" in params:
        n = params.pop("n")
        for key in ("n1", "n2", "n3"):
            params.setdefault(key, n)
    if name == "example3":
        values = set(params.values())
        if len(values) > 1:
            raise SchemaError("example3 takes a single parameter n")
        params = {"n": values.pop()} if values else {}
    elif name == "example4" and params:
        raise SchemaError("example4 takes no parameters")
    return _BUILDERS[name](**params)
