"""Shared specs and random generators for the test suite (seeded, deterministic)."""

from skewlat import AlgebraSpec, SkewPoly

# The cyclic cubic field of 2*cos(2*pi/7): minimal polynomial y^3 + y^2 - 2y - 1,
# Galois group generated by y -> y^2 - 2, with e^3 = 2 over p = 5.
CUBIC = AlgebraSpec(
    min_poly=(-1, -2, 1, 1),
    sigma_image=(-2, 0, 1),
    u=2,
    p=5,
    conjugation_mode="identity",
)


def random_element(ring, rng):
    return ring.element([rng.randrange(ring.p) for _ in range(ring.n)])


def random_poly(ring, rng, max_degree=4):
    degree = rng.randrange(max_degree + 1)
    return SkewPoly(ring, [random_element(ring, rng) for _ in range(degree + 1)])


def random_unit_lead_poly(ring, rng, max_degree=3):
    degree = rng.randrange(max_degree + 1)
    while True:
        lead = random_element(ring, rng)
        if lead.is_unit():
            break
    return SkewPoly(ring, [random_element(ring, rng) for _ in range(degree)] + [lead])


def random_message(code, rng):
    return [random_element(code.ring, rng) for _ in range(code.k)]


def random_order_element(order, rng, span=5):
    return order.element(
        [[rng.randrange(-span, span + 1) for _ in range(order.n)] for _ in range(order.n)]
    )
