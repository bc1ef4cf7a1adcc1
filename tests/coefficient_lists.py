"""Products of polynomials given as ascending coefficient lists, for building test inputs."""


def mul(*factors):
    """The product of the factors, each a list of coefficients ascending by degree."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out
