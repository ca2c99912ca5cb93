import random
from itertools import product

import pytest

from charp.ffield import FiniteField
from charp.poly import Poly, RatFunc
from charp.towers import Elem, FieldTower, _from_coordinates


@pytest.fixture
def f2t():
    return FieldTower(FiniteField(2), ["t"])


@pytest.fixture
def f4t():
    return FieldTower(FiniteField(2, 2), ["t"])


@pytest.fixture
def f3t():
    return FieldTower(FiniteField(3), ["t"])


def rand_poly(rng: random.Random, ring, max_deg: int, nonzero=False) -> Poly:
    field = ring.field
    while True:
        terms = {}
        for e in range(max_deg + 1):
            if rng.random() < 0.6:
                c = tuple(rng.randrange(field.p) for _ in range(field.d))
                if not field.is_zero(c):
                    terms[(e,)] = c
        f = Poly(ring, terms)
        if not (nonzero and f.is_zero()):
            return f


def rand_ratfunc(rng: random.Random, ring, max_deg: int, nonzero=False) -> RatFunc:
    while True:
        f = RatFunc(rand_poly(rng, ring, max_deg),
                    rand_poly(rng, ring, max_deg, nonzero=True))
        if not (nonzero and f.is_zero()):
            return f


def rand_elem(rng: random.Random, tower: FieldTower, max_deg: int,
              nonzero=False) -> Elem:
    return Elem(tower, 0, rand_ratfunc(rng, tower.ring, max_deg, nonzero))


def rand_multi_poly(rng: random.Random, ring, max_deg: int) -> Poly:
    """A random polynomial of total degree at most ``max_deg``, any number
    of variables."""
    field = ring.field
    terms = {}
    for mon in product(range(max_deg + 1), repeat=ring.nvars):
        if sum(mon) <= max_deg and rng.random() < 0.5:
            c = tuple(rng.randrange(field.p) for _ in range(field.d))
            if any(c):
                terms[mon] = c
    return Poly(ring, terms)


def rand_at(rng: random.Random, tower: FieldTower, level=None, max_deg: int = 2) -> Elem:
    """A random element of a tower level (the top by default), from random
    base coordinates."""
    level = tower.depth if level is None else level
    ring = tower.ring
    coords = {}
    for ev in product(range(tower.p), repeat=level):
        if ring.nvars == 1:
            coords[ev] = rand_ratfunc(rng, ring, max_deg)
        else:
            den = rand_multi_poly(rng, ring, 1)
            coords[ev] = RatFunc(rand_multi_poly(rng, ring, max_deg),
                                 den if not den.is_zero() else ring.one())
    return _from_coordinates(tower, level, coords)
